"""Strip grid, quadrature, transforms, and the Helmholtz solver."""

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import helmholtz_csr
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from multipeak.domain import (
    GridField,
    StripGrid,
    align_shift,
    h1_norm,
    inner_products,
    l2_norm,
    make_grid,
    reflect_x1,
    shift_x1,
    solve_helmholtz,
)

GRID = StripGrid(epsilon=0.5, transverse_extent=10.0, nodes_x1=48, nodes_xp=32)


def smooth_field(grid, coeffs):
    """Band-limited test field compatible with the boundary conditions."""
    X1, X2 = grid.meshes()
    R = grid.transverse_extent
    data = np.zeros(grid.shape)
    for m, (c, s) in enumerate(coeffs, start=1):
        transverse = np.cos((2 * m - 1) * np.pi * X2 / (2 * R))
        data += (
            c * np.cos(m * grid.epsilon * X1) + s * np.sin(m * grid.epsilon * X1)
        ) * transverse
    return GridField(grid, data)


def test_grid_geometry():
    assert GRID.period == pytest.approx(4 * np.pi)
    assert GRID.h1 == pytest.approx(GRID.period / 48)
    # cell-centered transverse nodes with the Dirichlet ghost exactly at R
    assert GRID.x2[0] == pytest.approx(0.5 * GRID.h2)
    assert GRID.x2[-1] + GRID.h2 == pytest.approx(10.0)  # Dirichlet ghost at R
    fine = GRID.refined()
    assert fine.nodes_x1 == 96 and fine.nodes_xp == 65


def test_grid_validation():
    with pytest.raises(ValueError):
        StripGrid(-0.5, 10.0, 48, 32)
    with pytest.raises(ValueError):
        StripGrid(0.5, 10.0, 2, 32)
    for bad in (np.nan, np.inf):
        for args in ((bad, 12.0), (0.3, bad)):
            with pytest.raises(ValueError):
                StripGrid(*args, 84, 48)
    for bad in (0.0, -0.25, np.nan, np.inf):
        for args in ((bad,), (0.3, bad), (0.3, 12.0, bad)):
            with pytest.raises(ValueError):
                make_grid(*args)
    # a degenerate grid (h = 100 would clamp to 8×4) and 2.5e8 unknowns (h = 1e-3)
    for h in (100.0, 1e-3):
        with pytest.raises(ValueError):
            make_grid(0.3, 12.0, h)
    # a Dirichlet wall inside the peaks' decay (d₁ 35 % low at R = 1)
    with pytest.raises(ValueError, match="minimum transverse extent"):
        make_grid(0.3, 1.0)
    assert make_grid(0.3).shape == (84, 48)


def test_h1_product_matches_operator_form():
    u = smooth_field(GRID, [(1.0, 0.3), (0.2, -0.5)])
    w = smooth_field(GRID, [(0.1, -1.0), (0.7, 0.2)])
    _, huw = inner_products(u, w)
    _, hwu = inner_products(w, u)
    assert huw == pytest.approx(hwu, rel=1e-12)
    assert inner_products(u, u)[1] >= inner_products(u, u)[0] > 0
    assert h1_norm(u) >= l2_norm(u)
    assert l2_norm(u) == np.sqrt(inner_products(u, u)[0])


def test_solve_helmholtz_manufactured_solution():
    X1, X2 = GRID.meshes()
    exact = np.cos(2 * GRID.epsilon * X1) * np.cos(np.pi * X2 / 20.0)
    lam = 1 + (2 * GRID.epsilon) ** 2 + (np.pi / 20.0) ** 2
    u = solve_helmholtz(GridField(GRID, lam * exact), tol=1e-11)
    assert np.max(np.abs(u.data - exact)) < 5e-3  # O(h²) truncation


def test_apply_solve_roundtrip():
    u = smooth_field(GRID, [(0.8, -0.1)])
    back = solve_helmholtz(GridField(GRID, GRID.helmholtz(u.data)), tol=1e-12)
    assert np.max(np.abs(back.data - u.data)) < 1e-9


def test_zero_rhs_and_bad_tol():
    zero = GridField(GRID, np.zeros(GRID.shape))
    assert solve_helmholtz(zero).sup_norm() == 0.0
    with pytest.raises(ValueError):
        solve_helmholtz(zero, tol=0.0)


@pytest.mark.parametrize(
    "grid",
    [StripGrid(0.5, 10.0, 4, 2), StripGrid(0.7, 5.0, 9, 7), GRID, StripGrid(0.5, 10.0, 47, 33)],
    ids=lambda g: "x".join(map(str, g.shape)),
)
def test_helmholtz_inverse_matches_lu(grid):
    """The FFT/eigenbasis inverse is exact for odd and even n₁, on vectors and blocks."""
    B = helmholtz_csr(grid)
    b = np.random.default_rng(3).standard_normal((grid.size, 2))
    x = grid.helmholtz_inverse(b)
    lu = splu(B.tocsc()).solve(b)
    for j in range(2):
        assert np.linalg.norm(B @ x[:, j] - b[:, j]) <= 1e-13 * np.linalg.norm(b[:, j])
        assert np.max(np.abs(x[:, j] - lu[:, j])) <= 1e-13 * np.max(np.abs(lu[:, j]))
        assert np.max(np.abs(grid.helmholtz_inverse(b[:, j]) - x[:, j])) <= 1e-15 * np.max(np.abs(x))


@pytest.mark.parametrize(
    "grid",
    [StripGrid(0.5, 10.0, 4, 2), StripGrid(0.7, 5.0, 9, 7), StripGrid(0.5, 10.0, 47, 33),
     make_grid(0.3)],
    ids=lambda g: "x".join(map(str, g.shape)),
)
@pytest.mark.parametrize("cols", [None, 3], ids=["vector", "block"])
@pytest.mark.parametrize("with_potential", [False, True], ids=["B", "L"])
def test_helmholtz_stencil_matches_csr(grid, cols, with_potential):
    """The stencil, with or without a potential on its diagonal, is the product
    with the sparse Kronecker-sum matrix (periodic x₁, mirror row, Dirichlet ghost)."""
    rng = np.random.default_rng(5)
    x = rng.standard_normal(grid.size if cols is None else (grid.size, cols))
    potential = rng.uniform(0.0, 3.0, grid.shape) if with_potential else None
    A = helmholtz_csr(grid)
    if with_potential:
        A = A - sp.diags(potential.ravel())
    expected = A @ x
    got = grid.helmholtz(x, potential)
    assert got.shape == expected.shape
    assert np.linalg.norm(got - expected) <= 1e-14 * np.linalg.norm(expected)


def test_mismatched_grids_rejected():
    other = StripGrid(0.5, 10.0, 48, 33)
    with pytest.raises(ValueError):
        GridField(GRID, np.zeros(GRID.shape)) + GridField(
            other, np.zeros(other.shape)
        )


@settings(deadline=None, max_examples=25)
@given(tau=st.floats(-6.0, 6.0))
def test_shift_roundtrip(tau):
    u = smooth_field(GRID, [(1.0, 0.4), (-0.3, 0.2)])
    back = shift_x1(shift_x1(u, tau), -tau)
    assert np.max(np.abs(back.data - u.data)) < 1e-10


@settings(deadline=None, max_examples=25)
@given(center=st.floats(-5.0, 5.0))
def test_reflect_involution(center):
    u = smooth_field(GRID, [(0.9, -0.6), (0.1, 0.8)])
    back = reflect_x1(reflect_x1(u, center), center)
    assert np.max(np.abs(back.data - u.data)) < 1e-10


@settings(deadline=None, max_examples=25)
@given(tau=st.floats(-6.0, 6.0))
def test_align_shift_recovers_translation(tau):
    ref = smooth_field(GRID, [(1.0, 0.0), (0.5, 0.3), (0.0, -0.2)])
    moved = shift_x1(ref, -tau)  # moved(x) = ref(x + τ), so shifting by τ undoes it
    est = align_shift(moved, ref)
    half = 0.5 * GRID.period
    wrapped = (tau - est + half) % GRID.period - half
    assert abs(wrapped) < 1e-3
