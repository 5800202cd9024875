"""Correction solve, projection splitting, and the reduced coefficients."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from multipeak import reduction
from multipeak.ansatz import PeakConfiguration, build_ansatz, residual, uniform_configuration
from multipeak.domain import GridField, inner_products, make_grid
from multipeak.reduction import (
    ComplementSolver,
    constrained_solve,
    interaction_d,
    power_remainder,
    reduce,
    split_projection,
)
from multipeak.spectrum import assemble_linearized, lowest_eigenpairs, near_kernel_basis

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
    h_perp, d = split_projection(h, ComplementSolver(assemble_linearized(bundle_k2), basis_k2))
    assert d.shape == (2,)
    for phi in basis_k2.fields:
        l2 = inner_products(h_perp, phi)[0]
        assert abs(l2) < 1e-10 * max(abs(inner_products(h, phi)[0]), 1.0)


def test_split_projection_keeps_inner_product_arithmetic(bundle_k2, basis_k2):
    """d_i is ⟨h, φ_i⟩_{L²} / ‖φ_i‖²_{H¹} of the quadrature products bit for bit,
    although the solver computes (−Δ+1)φ_i and ‖φ_i‖²_{H¹} once."""
    solver = ComplementSolver(assemble_linearized(bundle_k2), basis_k2)
    h = GridField(bundle_k2.grid, np.random.default_rng(4).standard_normal(bundle_k2.grid.shape))
    _, d = split_projection(h, solver)
    expected = [inner_products(h, phi)[0] / inner_products(phi, phi)[1] for phi in basis_k2.fields]
    assert np.array_equal(d, expected)


def test_constrained_solve_inhomogeneous_constraint(bundle_k2, basis_k2):
    """A x + C μ = rhs and Cᵀx = constraint_rhs hold to roundoff."""
    A = assemble_linearized(bundle_k2)
    C = ComplementSolver(A, basis_k2).C
    rng = np.random.default_rng(3)
    rhs = rng.standard_normal(A.shape[0])
    target = np.array([0.3, -0.7])
    x, mu = constrained_solve(A, C)(rhs, target)
    assert mu.shape == (2,)
    assert np.linalg.norm(A @ x + C @ mu - rhs) < 1e-12 * np.linalg.norm(rhs)
    assert C.T @ x == pytest.approx(target, abs=1e-12)  # ‖C‖‖x‖ ≈ 1e2 here


def bordered_reference(A, C):
    """The bordered matrix [[A, C], [Cᵀ, 0]] factored whole, as a reference."""
    n, k = C.shape
    K = sp.bmat(
        [[A, sp.csc_matrix(C)], [sp.csc_matrix(C.T), sp.csc_matrix((k, k))]],
        format="csc",
    )
    lu = splu(K)

    def solve(rhs, constraint_rhs=0.0):
        sol = lu.solve(np.concatenate([rhs, np.broadcast_to(constraint_rhs, k)]))
        return sol[:n], sol[n:]

    return solve


@pytest.mark.parametrize("target", [0.0, np.array([0.3, -0.7])], ids=["zero", "nonzero"])
def test_constrained_solve_matches_bordered_factorization(bundle_k2, basis_k2, target):
    """The Schur-form solve agrees with factoring the bordered matrix whole."""
    A = assemble_linearized(bundle_k2)
    C = ComplementSolver(A, basis_k2).C
    rhs = np.random.default_rng(5).standard_normal(A.shape[0])
    x, mu = constrained_solve(A, C)(rhs, target)
    x_ref, mu_ref = bordered_reference(A, C)(rhs, target)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert np.linalg.norm(mu - mu_ref) <= 1e-10 * np.linalg.norm(mu_ref)


def complement_solver(bundle):
    """The solver on 𝕃 and the near-kernel basis of a bundle."""
    spectral = lowest_eigenpairs(bundle, count=2 * bundle.config.k + 1)
    return ComplementSolver(assemble_linearized(bundle), near_kernel_basis(spectral, bundle))


@pytest.mark.parametrize("eps, k", [(0.3, 2), (0.2, 3)])
def test_complement_solver_matches_bordered_factorization(profile_n2, eps, k):
    """MINRES on the complement gives the bordered system's (x, μ) to 1e-10."""
    config = uniform_configuration(eps, k)
    solver = complement_solver(build_ansatz(config, profile_n2, make_grid(eps)))
    rhs = np.random.default_rng(5).standard_normal(solver.L.shape[0])
    x, mu = solver.solve(rhs)
    x_ref, mu_ref = bordered_reference(solver.L, solver.C)(rhs)
    assert mu.shape == (k,)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert np.linalg.norm(mu - mu_ref) <= 1e-10 * np.linalg.norm(mu_ref)


def sigma8_bundle(profile, refinements):
    """Criterion 07's two peaks at half-gap σ = 8, on the desk grid refined `refinements` times."""
    sigma = 8.0
    eps = 2 * np.pi / (2 * sigma + 8 * sigma / 3)
    grid = make_grid(eps)
    for _ in range(refinements):
        grid = grid.refined()
    config = PeakConfiguration(eps, (-np.pi, -np.pi + 2 * sigma * eps))
    return build_ansatz(config, profile, grid)


@pytest.mark.parametrize("refinements, shape", [(0, (148, 48)), (1, (296, 97))])
def test_complement_solver_iterations_do_not_grow_with_grid(profile_n2, refinements, shape):
    """The preconditioned operator is B⁻¹𝕃 on the complement, whose spectrum
    does not depend on the grid, so a cold solve takes at most 30 iterations."""
    bundle = sigma8_bundle(profile_n2, refinements)
    assert bundle.grid.shape == shape
    solver = complement_solver(bundle)
    h_perp, _ = split_projection(GridField(bundle.grid, -residual(bundle).data), solver)
    solver.solve(h_perp.data.ravel())
    assert 0 < solver.iterations[0] <= 30


def test_complement_solver_raises_at_iteration_cap(bundle_k2, basis_k2, monkeypatch):
    monkeypatch.setattr(reduction, "MINRES_MAXITER", 3)
    solver = ComplementSolver(assemble_linearized(bundle_k2), basis_k2)
    rhs = np.random.default_rng(2).standard_normal(bundle_k2.grid.size)
    with pytest.raises(RuntimeError, match="MINRES"):
        solver.solve(rhs)
    assert solver.iterations == [3]


def test_constrained_solve_at_nearly_singular_newton_jacobian(profile_n2):
    """At a Newton root the Jacobian is nearly singular along the pinning
    direction; the refinement step still brings the bordered residual to
    roundoff (without it the residual is of order 0.1)."""
    from multipeak.dancer import PIN, newton_solve

    grid = make_grid(0.3, h=0.125)
    bundle = build_ansatz(uniform_configuration(0.3, 2), profile_n2, grid)
    u = newton_solve(bundle).field.data.ravel()
    A = grid.helmholtz_matrix
    J = A - sp.diags(3.0 * np.maximum(u, 0.0) ** 2)  # p = 3
    C = grid.weight * (A @ bundle.translation_modes[PIN].data.ravel())[:, None]
    rhs = np.random.default_rng(9).standard_normal(u.size)
    x, mu = constrained_solve(J, C)(rhs, 0.25)
    residual = np.concatenate([J @ x + C @ mu - rhs, C.T @ x - 0.25])
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(rhs)


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
    state = reduce(uniform_configuration(0.2, 4), profile_n2, make_grid(0.2))
    assert len(state.basis.fields) == 4
    assert np.max(np.abs(state.d_coeffs)) < 1e-9
