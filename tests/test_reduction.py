"""Correction solve, projection splitting, and the reduced coefficients."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multipeak.domain import GridField, inner_products
from multipeak.reduction import (
    constrained_solve,
    constraint_columns,
    interaction_d,
    power_remainder,
    reduce,
    split_projection,
)

finite = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False)


@settings(deadline=None, max_examples=200)
@given(u=finite, v=st.floats(-1e3, 1e3, allow_nan=False))
def test_power_remainder_matches_direct_formula(u, v):
    direct = max(u + v, 0.0) ** 3 - u**3 - 3 * u**2 * v
    got = float(power_remainder(np.array([u]), np.array([v]), 3.0)[0])
    scale = max(abs(direct), u**3, abs(v) ** 3, 1e-300)
    assert abs(got - direct) < 1e-9 * scale


@settings(deadline=None, max_examples=100)
@given(u=finite, v=st.floats(-1.0, 1.0, allow_nan=False))
@example(u=0.5, v=-0.375)  # s = −3/4: the ratio is 24/7 ≈ 3.43, under 3.5
def test_power_remainder_quadratic_smallness(u, v):
    """Halving v on the smooth branch scales R by exactly 8(3+s)/(6+s), s = v/ū.

    For p = 3, R(v) = v²(3ū + v), so the ratio runs from 3.2 (s → −1)
    through 4 (s = 0) to 8 (s → ∞); no single factor bounds it from below.
    """
    if u + v <= 0:
        return
    r1 = float(power_remainder(np.array([u]), np.array([v]), 3.0)[0])
    r2 = float(power_remainder(np.array([u]), np.array([v / 2]), 3.0)[0])
    if abs(r1) > 1e-12 * u**3:
        s = v / u
        assert r1 / r2 == pytest.approx(8 * (3 + s) / (6 + s), rel=1e-12)


def test_power_remainder_cancellation_free():
    """Tiny v against O(1) ū stays accurate where the naive form loses digits."""
    u, v = 1.0, 1e-9
    got = float(power_remainder(np.array([u]), np.array([v]), 3.0)[0])
    exact = 3 * u * v**2 + v**3
    assert got == pytest.approx(exact, rel=1e-12)


def test_split_projection_annihilates_basis(bundle_k2, basis_k2):
    rng = np.random.default_rng(11)
    h = GridField(bundle_k2.grid, rng.standard_normal(bundle_k2.grid.shape))
    h_perp, d = split_projection(h, basis_k2)
    assert d.shape == (2,)
    for phi in basis_k2.fields:
        l2 = inner_products(h_perp, phi)[0]
        assert abs(l2) < 1e-10 * max(abs(inner_products(h, phi)[0]), 1.0)


def test_constrained_solve_inhomogeneous_constraint(bundle_k2, basis_k2):
    """A x + C μ = rhs and Cᵀx = constraint_rhs hold to roundoff."""
    from multipeak.spectrum import assemble_linearized

    A = assemble_linearized(bundle_k2)
    C = constraint_columns(basis_k2)
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(A.shape[0])
    target = np.array([0.3, -0.7])
    x, mu = constrained_solve(A, C)(rhs, target)
    assert mu.shape == (2,)
    assert np.linalg.norm(A @ x + C @ mu - rhs) < 1e-12 * np.linalg.norm(rhs)
    assert C.T @ x == pytest.approx(target, abs=1e-12)  # ‖C‖‖x‖ ≈ 1e2 here


def test_correction_state_invariants(state_k2, basis_k2):
    assert state_k2.iterations <= 30
    assert state_k2.solve_residual < 1e-10
    assert state_k2.sup_norm == state_k2.correction.sup_norm()
    v = state_k2.correction
    for phi in basis_k2.fields:
        defect = abs(inner_products(v, phi)[1])
        assert defect < 1e-9 * max(state_k2.h1_norm, 1e-30)


def test_projection_vs_interaction_coefficients(profile_n2):
    """Single-mesh dual route: the two d_i formulas agree to a few percent.

    An asymmetric pair is used so the coefficients are nonzero; at the
    default mesh the discrete-eigenbasis floor limits agreement to ~1.5%.
    """
    from multipeak.ansatz import PeakConfiguration
    from multipeak.domain import make_grid

    sigma = 5.0
    eps = 2 * np.pi / (2 * sigma + 8 * sigma / 3)
    config = PeakConfiguration(eps, (-np.pi, -np.pi + 2 * sigma * eps))
    state = reduce(config, profile_n2, make_grid(eps))
    d_int = np.array([interaction_d(state.bundle, state.basis, i) for i in range(2)])
    rel = np.abs(d_int - state.d_coeffs) / np.abs(state.d_coeffs)
    assert np.max(rel) < 0.05


def test_interaction_d_requires_pair(bundle_k1, spectral_k1):
    from multipeak.spectrum import near_kernel_basis

    basis1 = near_kernel_basis(spectral_k1, bundle_k1)
    with pytest.raises(ValueError):
        interaction_d(bundle_k1, basis1, 0)


def test_uniform_pair_coefficients_cancel(state_k2):
    """Equidistributed peaks feel equal and opposite pulls: d_i ≈ 0."""
    assert np.max(np.abs(state_k2.d_coeffs)) < 1e-9


def test_reduce_four_peaks(profile_n2):
    """k = 4 needs 2k+1 eigenpairs: the bottom cluster alone fills k of them."""
    from multipeak.ansatz import uniform_configuration
    from multipeak.domain import make_grid

    state = reduce(uniform_configuration(0.2, 4), profile_n2, make_grid(0.2))
    assert len(state.basis.fields) == 4
    assert np.max(np.abs(state.d_coeffs)) < 1e-9
