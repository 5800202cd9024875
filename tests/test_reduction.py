"""Correction solve, projection splitting, and the reduced coefficients."""

import dataclasses
import json
import types

import numpy as np
import pytest
import scipy.sparse as sp
from conftest import criterion_08_starts, fields, linearized_csr
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse.linalg import splu

from multipeak import dancer, reduction, spectrum, weighted
from multipeak.ansatz import (
    PeakConfiguration,
    build_ansatz,
    residual,
    residual_rate,
    uniform_configuration,
)
from multipeak.asymptotics import binomial_remainder
from multipeak.cli import main
from multipeak.domain import GridField, inner_products, make_grid
from multipeak.reduction import (
    ContractionError,
    complement_solve,
    equilibrate,
    interaction_d,
    pinned_solve,
    reduce,
    reduced_jacobian,
    translation_frame,
)
from multipeak.spectrum import linearized, lowest_eigenpairs, near_kernel_basis

finite = st.floats(min_value=1e-6, max_value=1e3, allow_nan=False)


@settings(deadline=None, max_examples=200)
@given(u=finite, v=st.floats(-1e3, 1e3, allow_nan=False))
def test_power_remainder_matches_direct_formula(u, v):
    direct = max(u + v, 0.0) ** 3 - u**3 - 3 * u**2 * v
    got = float(binomial_remainder(np.array([u]), np.array([v]), 3.0, 1)[0])
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
    r1 = float(binomial_remainder(np.array([u]), np.array([v]), 3.0, 1)[0])
    r2 = float(binomial_remainder(np.array([u]), np.array([v / 2]), 3.0, 1)[0])
    if abs(r1) > 1e-12 * u**3:
        s = v / u
        assert r1 / r2 == pytest.approx(8 * (3 + s) / (6 + s), rel=1e-12)


def test_power_remainder_cancellation_free():
    """Tiny v against O(1) ū stays accurate where the naive form loses digits."""
    u, v = 1.0, 1e-9
    got = float(binomial_remainder(np.array([u]), np.array([v]), 3.0, 1)[0])
    exact = 3 * u * v**2 + v**3
    assert got == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("p", [2.5, 3.5, 4.7, 7.3])
def test_power_remainder_non_integer_p_matches_mpmath(p):
    """R(v) = binomial_remainder(ū, v, p, 1) within 1e-14 relative of R at 50
    digits for |v|/ū from 1e-13 to 3, either sign, ū + v < 0 included; the
    direct difference lost up to ten digits."""
    mpmath = pytest.importorskip("mpmath")
    ratios = np.logspace(-13, np.log10(3.0), 60)
    for u in (1e-3, 1.0, 3.0):
        v = u * np.concatenate([ratios, -ratios])
        got = binomial_remainder(np.full(v.size, u), v, p, 1)
        with mpmath.workdps(50):
            for g, x in zip(got.tolist(), v.tolist()):
                s = mpmath.mpf(u) + x
                exact = (s**p if s > 0 else 0) - mpmath.mpf(u) ** p - p * mpmath.mpf(u) ** (p - 1) * x
                assert abs(g - exact) <= 1e-14 * abs(exact), (u, x)
    # where ū underflows to 0, far out in x₂ on a wide strip, R is v₊^p
    assert binomial_remainder(np.zeros(2), np.array([-1.0, 2.0]), p, 1).tolist() == [0.0, 2.0**p]


def L_of(bundle):
    """𝕃 = F′(ū) of the bundle."""
    return linearized(bundle.ubar, bundle.profile.exponent)


def L_reference(bundle):
    """𝕃 = F′(ū) of the bundle as a sparse matrix, for the factored references."""
    return linearized_csr(bundle.ubar, bundle.profile.exponent)


def split_field(frame, h):
    """frame.split on a GridField: (h⊥ as a GridField, d)."""
    h_perp, d = frame.split(h.data)
    return GridField(h.grid, h_perp.reshape(h.grid.shape)), d


def test_split_projection_annihilates_basis(bundle_k2, basis_k2):
    rng = np.random.default_rng(11)
    h = GridField(bundle_k2.grid, rng.standard_normal(bundle_k2.grid.shape))
    h_perp, d = split_field(basis_k2, h)
    assert d.shape == (2,)
    for phi in fields(basis_k2.grid, basis_k2.Phi):
        l2 = inner_products(h_perp, phi)[0]
        assert abs(l2) < 1e-10 * max(abs(inner_products(h, phi)[0]), 1.0)


def test_split_projection_keeps_inner_product_arithmetic(bundle_k2):
    """d solves the quadrature H¹ Gram system G d = (⟨h, φ_j⟩_{L²})_j to 1e-13,
    although the frame computes (−Δ+1)φ_i and G⁻¹ once."""
    frame = translation_frame(bundle_k2)
    h = GridField(bundle_k2.grid, np.random.default_rng(4).standard_normal(bundle_k2.grid.shape))
    _, d = frame.split(h.data)
    phis = fields(frame.grid, frame.Phi)
    gram = np.array([[inner_products(a, b)[1] for b in phis] for a in phis])
    expected = np.linalg.solve(gram, [inner_products(h, phi)[0] for phi in phis])
    assert np.linalg.norm(d - expected) <= 1e-13 * np.linalg.norm(expected)


def test_split_projection_on_overlapping_frame(profile_n2):
    """The translation modes overlap (G's off-diagonal is 1e-3 of its diagonal at
    ε = 0.4), yet h⊥ pairs to zero with every φ_j: a split by G's diagonal alone
    leaves a relative component of 1e-5 here."""
    bundle = build_ansatz(uniform_configuration(0.4, 2), profile_n2, make_grid(0.4))
    frame = translation_frame(bundle)
    h = GridField(bundle.grid, np.random.default_rng(8).standard_normal(bundle.grid.shape))
    h_perp, _ = split_field(frame, h)
    for phi in fields(frame.grid, frame.Phi):
        pairing = abs(inner_products(h_perp, phi)[0])
        assert pairing <= 1e-12 * np.sqrt(inner_products(h, h)[0] * inner_products(phi, phi)[0])


def pin_column(bundle):
    """The pinned Newton step's border c = weight·(−Δ+1)∂v_PIN/∂x₁, in the span of C."""
    from multipeak.dancer import PIN

    grid = bundle.grid
    return grid.weight * grid.helmholtz(bundle.translation_modes[:, PIN])


def test_pinned_solve_inhomogeneous_constraint(bundle_k2):
    """𝕃δ + cμ = rhs and cᵀδ = g hold to roundoff on the k = 2 frame."""
    L, c = L_of(bundle_k2), pin_column(bundle_k2)
    rhs = np.random.default_rng(3).standard_normal(c.size)
    x, mu, its = pinned_solve(L, translation_frame(bundle_k2), c, rhs, 0.3)
    assert np.linalg.norm(L(x) + c * mu - rhs) < 1e-12 * np.linalg.norm(rhs)
    assert c @ x == pytest.approx(0.3, abs=1e-12)
    assert 0 < its < reduction.MINRES_MAXITER


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


def exact_inner_newton(bundle, tol=1e-11):
    """Pinned Newton with every step's MINRES run to RTOL, the reference for the
    inexact steps of `dancer.newton_solve`: (u, μ) once ‖F(u) + μc‖ < tol."""
    from multipeak.ansatz import nonlinear_residual
    from multipeak.dancer import MAX_ITER

    grid, p = bundle.grid, bundle.profile.exponent
    frame, c = translation_frame(bundle), pin_column(bundle)
    u0 = bundle.ubar.data.ravel()
    u, mu = u0, 0.0
    for _ in range(MAX_ITER + 1):
        field = GridField(grid, u.reshape(grid.shape))
        G = nonlinear_residual(field, p).data.ravel() + mu * c
        if np.linalg.norm(G) < tol:
            return u, mu
        step, dmu, _ = pinned_solve(
            linearized(field, p), frame, c, -G, -float(c @ (u - u0)), rtol=reduction.RTOL
        )
        u, mu = u + step, mu + dmu
    raise AssertionError(f"exact-inner Newton did not reach {tol}")


def newton_case(profile, equilibrated, case):
    """Criteria 08/09's Newton bundles: on- and off-lattice k = 2, equilibrated k = 3."""
    if case == "equilibrated-k3":
        uniform, _, result = equilibrated[3]
        return build_ansatz(result.config, profile, make_grid(uniform.epsilon))
    config, grid = uniform_configuration(0.3, 2), make_grid(0.3)
    if case == "off-lattice-k2":
        config = config.shifted(0.37 * grid.h1 * 0.3)
    return build_ansatz(config, profile, grid)


@pytest.mark.parametrize("case", ["on-lattice-k2", "off-lattice-k2", "equilibrated-k3"])
def test_inexact_newton_matches_exact_inner_reference(profile_n2, equilibrated, case):
    """Stopping each step's MINRES at the forcing term moves neither the root nor μ:
    both Newtons reach tol, and they agree to 1e-10 in u and 1e-12 in μ."""
    from multipeak.dancer import newton_solve

    bundle = newton_case(profile_n2, equilibrated, case)
    sol = newton_solve(bundle, tol=1e-11)
    u_ref, mu_ref = exact_inner_newton(bundle, tol=1e-11)
    assert sol.newton_history[-1] < 1e-11
    assert np.max(np.abs(sol.field.data.ravel() - u_ref)) <= 1e-10
    assert abs(sol.multiplier - mu_ref) <= 1e-12


@pytest.mark.parametrize("target", [0.0, 0.3], ids=["zero", "nonzero"])
def test_pinned_solve_matches_bordered_factorization(bundle_k2, target):
    """MINRES in frame coordinates agrees with factoring [[𝕃, c], [cᵀ, 0]] whole."""
    L, c = L_of(bundle_k2), pin_column(bundle_k2)
    rhs = np.random.default_rng(5).standard_normal(c.size)
    x, mu, _ = pinned_solve(L, translation_frame(bundle_k2), c, rhs, target)
    x_ref, mu_ref = bordered_reference(L_reference(bundle_k2), c[:, None])(rhs, target)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert abs(mu - mu_ref[0]) <= 1e-10 * abs(mu_ref[0])


def eigen_frame(bundle):
    """The rotated near-kernel eigenvectors, the `spectrum` command's basis."""
    spectral = lowest_eigenpairs(bundle, count=2 * bundle.config.k + 1)
    return near_kernel_basis(spectral, bundle)


# each case on the pipeline's translation frame, and on the eigen frame
# (unprefixed ids are the translation frame's); at ε = 0.7 the eigen frame
# has no clean near-kernel
@pytest.mark.parametrize("eps, k, frame", [
    pytest.param(0.3, 2, translation_frame, id="0.3-2"),
    pytest.param(0.2, 3, translation_frame, id="0.2-3"),
    pytest.param(0.7, 2, translation_frame, id="0.7-2"),
    pytest.param(0.3, 2, eigen_frame, id="eigen-0.3-2"),
    pytest.param(0.2, 3, eigen_frame, id="eigen-0.2-3"),
])
def test_complement_solver_matches_bordered_factorization(profile_n2, eps, k, frame):
    """MINRES on the complement gives the bordered system's x to 1e-10, and the
    solve projects its own right side: rhs and Πᵀrhs give x to 1e-12 relative."""
    bundle = build_ansatz(uniform_configuration(eps, k), profile_n2, make_grid(eps))
    L, basis = L_of(bundle), frame(bundle)
    rhs = np.random.default_rng(5).standard_normal(bundle.grid.size)
    x, _ = complement_solve(L, basis, rhs)
    x_ref, _ = bordered_reference(L_reference(bundle), basis.C)(rhs)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    x_perp, _ = complement_solve(L, basis, basis.split(rhs)[0])
    assert np.linalg.norm(x_perp - x) <= 1e-12 * np.linalg.norm(x)


def test_complement_solver_makes_one_product_per_iteration(bundle_k2):
    """One 𝕃 product per MINRES iteration and none besides: no read-off after the run."""
    L, products = L_of(bundle_k2), []

    def counted(x):
        products.append(1)
        return L(x)

    rhs = np.random.default_rng(7).standard_normal(bundle_k2.grid.size)
    _, its = complement_solve(counted, translation_frame(bundle_k2), rhs)
    assert its > 0 and len(products) == its


# the translation frame and the eigen frame at k = 2 and 3
COMPLEMENT_CASES = [
    pytest.param(0.3, 2, translation_frame, id="0.3-2"),
    pytest.param(0.2, 3, translation_frame, id="0.2-3"),
    pytest.param(0.3, 2, eigen_frame, id="eigen-0.3-2"),
    pytest.param(0.2, 3, eigen_frame, id="eigen-0.2-3"),
]


@pytest.mark.parametrize("eps, k, frame", COMPLEMENT_CASES)
def test_helmholtz_inverse_maps_range_pi_t_onto_the_complement(profile_n2, eps, k, frame):
    """The invariant both MINRES preconditioners rely on: CᵀB⁻¹ = Φᵀ and ΦᵀΠᵀ = 0,
    so x = B⁻¹Πᵀy satisfies ‖Cᵀx‖ ≤ 1e-13‖C‖‖x‖ for any y."""
    bundle = build_ansatz(uniform_configuration(eps, k), profile_n2, make_grid(eps))
    basis = frame(bundle)
    for y in np.random.default_rng(6).standard_normal((3, bundle.grid.size)):
        x = bundle.grid.helmholtz_inverse(basis.split(y)[0])
        assert np.linalg.norm(basis.C.T @ x) <= 1e-13 * np.linalg.norm(basis.C, 2) * np.linalg.norm(x)


@pytest.mark.parametrize("eps, k, frame", COMPLEMENT_CASES)
def test_solutions_lie_on_the_complement_unprojected(profile_n2, eps, k, frame, monkeypatch):
    """B⁻¹ maps range Πᵀ onto {Cᵀx = 0}, so complement_solve's x and the
    complement coordinate x = δ − Φa of pinned_solve's MINRES solution z = (x, a, μ)
    satisfy ‖Cᵀx‖ ≤ 1e-13‖C‖‖x‖ with no projection applied to them."""
    bundle = build_ansatz(uniform_configuration(eps, k), profile_n2, make_grid(eps))
    L, basis = L_of(bundle), frame(bundle)
    n, C = bundle.grid.size, basis.C
    rhs = np.random.default_rng(12).standard_normal(n)
    minres, runs = reduction._minres, []

    def recorded(*args):
        runs.append(minres(*args))
        return runs[-1]

    monkeypatch.setattr(reduction, "_minres", recorded)
    x, _ = complement_solve(L, basis, rhs)
    delta, _, _ = pinned_solve(L, basis, C[:, 0], rhs, 0.3)
    z = runs[-1][0]
    assert np.array_equal(delta, z[:n] + basis.Phi @ z[n:-1])
    for v in (x, z[:n]):
        assert np.linalg.norm(C.T @ v) <= 1e-13 * np.linalg.norm(C, 2) * np.linalg.norm(v)


def sigma8_bundle(profile, refinements):
    """Criterion 07's two peaks at half-gap σ = 8, on the desk grid refined `refinements` times."""
    sigma = 8.0
    eps = 2 * np.pi / (2 * sigma + 8 * sigma / 3)
    grid = make_grid(eps)
    for _ in range(refinements):
        grid = grid.refined()
    config = PeakConfiguration(eps, (-np.pi, -np.pi + 2 * sigma * eps))
    return build_ansatz(config, profile, grid)


@pytest.mark.parametrize("refinements, shape, frame", [
    pytest.param(0, (148, 48), translation_frame, id="0-shape0"),
    pytest.param(1, (296, 97), translation_frame, id="1-shape1"),
    pytest.param(0, (148, 48), eigen_frame, id="eigen-0-shape0"),
    pytest.param(1, (296, 97), eigen_frame, id="eigen-1-shape1"),
])
def test_complement_solver_iterations_do_not_grow_with_grid(profile_n2, refinements, shape, frame):
    """The preconditioned operator is B⁻¹𝕃 on the complement, whose spectrum
    does not depend on the grid, so a cold solve takes at most 30 iterations."""
    bundle = sigma8_bundle(profile_n2, refinements)
    assert bundle.grid.shape == shape
    basis = frame(bundle)
    h_perp, _ = basis.split(-residual(bundle).data)
    _, its = complement_solve(L_of(bundle), basis, h_perp)
    assert 0 < its <= 30


def test_complement_solver_raises_at_iteration_cap(bundle_k2, basis_k2, monkeypatch):
    monkeypatch.setattr(reduction, "MINRES_MAXITER", 3)
    rhs = np.random.default_rng(2).standard_normal(bundle_k2.grid.size)
    with pytest.raises(RuntimeError, match="MINRES did not converge in 3 iterations"):
        complement_solve(L_of(bundle_k2), basis_k2, rhs)


def scipy_minres(matvec, precond, rhs, rtol):
    """(x, iterations) of scipy's `minres` on the operators `_minres` receives: the reference."""
    from scipy.sparse.linalg import LinearOperator, minres

    shape, steps = (rhs.size, rhs.size), []
    x, info = minres(
        LinearOperator(shape, matvec=matvec, dtype=float), rhs, rtol=rtol,
        M=LinearOperator(shape, matvec=precond, dtype=float),
        maxiter=reduction.MINRES_MAXITER, callback=lambda _: steps.append(1),
    )
    assert info == 0
    return x, len(steps)


# every MINRES run of each case: complement_solve on the translation frame (each
# correction step of `reduce`) and on the eigen frame of `weighted`, and pinned_solve
# (each Newton step)
MINRES_CASES = {
    "complement-k2": lambda f: reduce(uniform_configuration(0.3, 2), f("profile_n2"), make_grid(0.3)),
    "complement-k3": lambda f: reduce(uniform_configuration(0.2, 3), f("profile_n2"), make_grid(0.2)),
    "complement-off-lattice": lambda f: reduce(
        PeakConfiguration(0.3, (-3.1, 0.2)), f("profile_n2"), make_grid(0.3)),
    "complement-eigen-frame": lambda f: weighted.solve_orthogonal(
        residual(f("bundle_k2")), f("bundle_k2"), f("basis_k2")),
    "pinned-k1": lambda f: dancer.newton_solve(f("bundle_k1")),
    "pinned-k2": lambda f: dancer.newton_solve(f("bundle_k2")),
}


@pytest.mark.parametrize("case", MINRES_CASES)
def test_minres_matches_scipy_bit_for_bit(case, request, monkeypatch):
    """The package's MINRES is scipy's loop for x₀ = 0: on every run of the desk
    solves it returns the same x, bit for bit, after the same number of iterations."""
    own, runs = reduction._minres, []

    def compared(matvec, precond, rhs, rtol):
        x, its = own(matvec, precond, rhs, rtol)
        x_ref, its_ref = scipy_minres(matvec, precond, rhs, rtol)
        runs.append((np.array_equal(x, x_ref), its, its_ref))
        return x, its

    monkeypatch.setattr(reduction, "_minres", compared)
    MINRES_CASES[case](request.getfixturevalue)
    assert runs and all(same and its == its_ref for same, its, its_ref in runs), runs


def test_minres_zero_right_side_takes_no_step():
    def no_matvec(v):
        raise AssertionError("matvec called on a zero right side")

    x, its = reduction._minres(no_matvec, lambda y: y, np.zeros(7), reduction.RTOL)
    assert its == 0 and np.array_equal(x, np.zeros(7))


def test_minres_raises_at_iteration_cap(bundle_k2, monkeypatch):
    monkeypatch.setattr(reduction, "MINRES_MAXITER", 2)
    L, c = L_of(bundle_k2), pin_column(bundle_k2)
    rhs = np.random.default_rng(3).standard_normal(c.size)
    with pytest.raises(RuntimeError, match="MINRES did not converge in 2 iterations"):
        pinned_solve(L, translation_frame(bundle_k2), c, rhs, 0.3)


@pytest.mark.parametrize("matvec, precond, rhs, message", [
    pytest.param(lambda v: v, lambda y: -y, np.ones(3), "indefinite preconditioner", id="negated"),
    pytest.param(lambda v: v[::-1], lambda y: y * [1.0, -1.0], np.array([1.0, 0.0]),
                 "non-symmetric operator", id="non-symmetric"),
])
def test_minres_breakdown_is_a_solver_error(matvec, precond, rhs, message):
    """yᵀPy < 0 for a Lanczos vector breaks MINRES down: a RuntimeError, as a
    non-converged run is, never the ValueError of an inadmissible input."""
    with pytest.raises(RuntimeError, match=message):
        reduction._minres(matvec, precond, rhs, reduction.RTOL)


def test_equilibrate_propagates_a_minres_breakdown(profile_n2, monkeypatch):
    """The line search halves a trial step that leaves the separation regime
    (ValueError) or does not contract; a MINRES breakdown in the trial is a
    solver fault, so it reaches the caller instead of ending as a failed line
    search.  The first `reduce` run is the start; every later run, a trial,
    gets the preconditioner y ↦ −P y."""
    own, reduces = reduction._minres, []
    real_reduce = reduction.reduce

    def counted(*args, **kwargs):
        reduces.append(1)
        return real_reduce(*args, **kwargs)

    def broken(matvec, precond, rhs, rtol):
        if len(reduces) > 1:
            return own(matvec, lambda y: -precond(y), rhs, rtol)
        return own(matvec, precond, rhs, rtol)

    monkeypatch.setattr(reduction, "reduce", counted)
    monkeypatch.setattr(reduction, "_minres", broken)
    uniform = uniform_configuration(0.3, 2)
    initial = PeakConfiguration(0.3, (uniform.angles[0], uniform.angles[1] + 0.05 * np.pi))
    tol = 1e-2 * residual_rate(uniform.sigma_min, 2)
    with pytest.raises(RuntimeError, match="MINRES breakdown: indefinite preconditioner"):
        equilibrate(initial, profile_n2, make_grid, tol=tol)
    assert len(reduces) == 2


def test_pinned_solve_at_nearly_singular_newton_jacobian(profile_n2):
    """At a Newton root the Jacobian is nearly singular along all k translation
    modes (one pin leaves the k − 1 relative motions); the frame block |S|⁻¹
    inverts them exactly, so MINRES still matches the bordered factorization."""
    from multipeak.dancer import newton_solve

    grid = make_grid(0.3, h=0.125)
    bundle = build_ansatz(uniform_configuration(0.3, 2), profile_n2, grid)
    u = newton_solve(bundle).field.data.ravel()
    field = GridField(grid, u.reshape(grid.shape))
    c = pin_column(bundle)
    rhs = np.random.default_rng(9).standard_normal(u.size)
    x, mu, _ = pinned_solve(linearized(field, 3.0), translation_frame(bundle), c, rhs, 0.25)
    x_ref, mu_ref = bordered_reference(linearized_csr(field, 3.0), c[:, None])(rhs, 0.25)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert abs(mu - mu_ref[0]) <= 1e-10 * abs(mu_ref[0])


def test_correction_state_invariants(state_k2, basis_k2):
    assert state_k2.iterations <= 30
    assert state_k2.solve_residual < 1e-10
    assert state_k2.sup_norm == state_k2.correction.sup_norm()
    v = state_k2.correction
    for phi in fields(basis_k2.grid, basis_k2.Phi):
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


@pytest.mark.parametrize("eps, k", [(0.3, 2), (0.2, 3)])
def test_reduced_jacobian_matches_differences_of_reduce(profile_n2, eps, k):
    """At uniform spacing the interaction integrals' Jacobian is that of
    `reduce`'s projection d to 1 % (Frobenius, relative; 0.15 % measured)
    against forward differences of step 1e-4, and every row sums to 0, as a
    rigid rotation leaves d unchanged."""
    config, grid = uniform_configuration(eps, k), make_grid(eps)
    state = reduce(config, profile_n2, grid)
    J = reduced_jacobian(state.bundle, state.basis)
    assert np.max(np.abs(J.sum(axis=1))) <= 1e-14 * np.max(np.abs(J))
    differences = np.empty((k, k))
    for j in range(k):
        angles = np.array(config.angles)
        angles[j] += 1e-4
        moved = reduce(PeakConfiguration(eps, tuple(angles)), profile_n2, grid)
        differences[:, j] = (moved.d_coeffs - state.d_coeffs) / 1e-4
    assert np.linalg.norm(J - differences) < 0.01 * np.linalg.norm(differences)


def test_reduced_jacobian_ring_law(profile_n2):
    """Peaks couple to their nearest neighbours alone, with a strength c set by
    the gap, so the Jacobian per unit x₁, εJ, is c times the ring Laplacian: at
    k = 2 each peak meets the other on both sides, one eigenvalue −4c; at k = 3
    two eigenvalues −3c.  At equal σ̲ = 5.236 the two k = 3 eigenvalues agree
    to 3 % and their mean over k = 2's is 3/4 to 3 % (−1.110e-4 and −1.089e-4
    against −1.445e-4, a ratio of 0.761)."""
    nonzero = {}
    for eps, k in ((0.3, 2), (0.2, 3)):
        state = reduce(uniform_configuration(eps, k), profile_n2, make_grid(eps))
        eigenvalues = np.linalg.eigvals(eps * reduced_jacobian(state.bundle, state.basis))
        nonzero[k] = np.sort(eigenvalues.real)[:-1]  # the rotation's 0 is the largest
    pair = nonzero[3]
    assert abs(pair[0] - pair[1]) < 0.03 * np.max(np.abs(pair))
    assert np.mean(pair) / nonzero[2][0] == pytest.approx(0.75, rel=0.03)


def test_uniform_pair_coefficients_cancel(state_k2):
    """Equidistributed peaks feel equal and opposite pulls: d_i ≈ 0."""
    assert np.max(np.abs(state_k2.d_coeffs)) < 1e-9


def test_reduce_four_peaks(profile_n2):
    """Four equidistributed peaks feel no net pull: d_i ≈ 0."""
    state = reduce(uniform_configuration(0.2, 4), profile_n2, make_grid(0.2))
    assert state.basis.Phi.shape == (state.bundle.grid.size, 4)
    assert np.max(np.abs(state.d_coeffs)) < 1e-9


def test_translation_frame_is_the_scaled_translation_modes(bundle_k2):
    frame = translation_frame(bundle_k2)
    for phi, z, alpha in zip(frame.Phi.T, bundle_k2.translation_modes.T, frame.alphas):
        assert alpha == 1.0 / np.max(np.abs(z))
        assert np.array_equal(phi, alpha * z)
        assert np.max(np.abs(phi)) == pytest.approx(1.0, rel=1e-15)
    assert np.array_equal(frame.alignment_residuals, np.zeros(2))


def test_reduce_and_equilibrate_reach_no_eigensolver(profile_n2, monkeypatch):
    """The pipeline step and the equilibration run with the eigensolver disabled."""

    def disabled(*args, **kwargs):
        raise AssertionError("block Lanczos called")

    monkeypatch.setattr(spectrum, "_block_lanczos", disabled)
    uniform = uniform_configuration(0.3, 2)
    assert np.max(np.abs(reduce(uniform, profile_n2, make_grid(0.3)).d_coeffs)) < 1e-9
    perturbed = PeakConfiguration(0.3, (uniform.angles[0], uniform.angles[1] + 0.05 * np.pi))
    tol = 1e-2 * residual_rate(uniform.sigma_min, 2)
    assert equilibrate(perturbed, profile_n2, make_grid, tol=tol).newton_steps >= 1


@pytest.mark.parametrize("case", ["readme", "criterion-08-k3"])
def test_equilibrate_runs_reduce_once_per_step(profile_n2, monkeypatch, case):
    """With no halved trial, each Newton step's one `reduce` is its trial: the
    Jacobian comes from the state in hand.  `equilibrate --eps 0.3 --k 2
    --perturb 0.05` takes 3 runs in 2 steps, criterion 08's k = 3 start 4 in 3."""
    runs, real_reduce = [], reduction.reduce

    def counted(*args, **kwargs):
        runs.append(1)
        return real_reduce(*args, **kwargs)

    if case == "readme":
        uniform = uniform_configuration(0.3, 2)
        initial = PeakConfiguration(0.3, (uniform.angles[0], uniform.angles[1] + 0.05 * np.pi))
        tol, expected = 1e-2 * residual_rate(uniform.sigma_min, 2), 3
    else:
        _, tol, initial = criterion_08_starts()[3]
        expected = 4
    monkeypatch.setattr(reduction, "reduce", counted)
    result = equilibrate(initial, profile_n2, make_grid, tol=tol)
    assert len(runs) == result.newton_steps + 1 == expected


def test_equilibrate_builds_its_grid_once(profile_n2, tmp_path):
    """ε is fixed while the angles move, so the grid factory is called once; the
    final angles are those of `equilibrate --eps 0.3 --k 2 --perturb 0.05`."""
    calls = []

    def factory(eps):
        calls.append(eps)
        return make_grid(eps)

    uniform = uniform_configuration(0.3, 2)
    initial = PeakConfiguration(0.3, (uniform.angles[0], uniform.angles[1] + 0.05 * np.pi))
    result = equilibrate(initial, profile_n2, factory, tol=1e-2 * residual_rate(initial.sigma_min, 2))
    assert calls == [0.3]
    assert result.newton_steps == 2
    out = tmp_path / "equilibrate.json"
    assert main(["equilibrate", "--eps", "0.3", "--k", "2", "--perturb", "0.05", "--out", str(out)]) == 0
    assert list(result.config.angles) == json.loads(out.read_text())["results"]["final_angles"]


@pytest.mark.parametrize("scale", [1 - 3e-11, 1 - 1e-11, 1 + 1e-11, 1 + 3e-11])
def test_tol_below_roundoff_fails_for_nearby_profiles(profile_n2, scale):
    """At ε = 0.3, k = 2 the increments reach 1e-20 to 4e-20, below the rounding
    16 ε_mach‖v‖∞ ≈ 8.8e-19 of v, so tol = 1e-20 fails for the profile scaled
    by 1 ± 1e-11 and 1 ± 3e-11 as for the profile itself; counting such an
    increment as converged let these four pass."""
    nearby = dataclasses.replace(profile_n2, values=profile_n2.values * scale)
    with pytest.raises(reduction.ContractionError, match="or tol is below v's roundoff"):
        reduce(uniform_configuration(0.3, 2), nearby, make_grid(0.3), tol=1e-20)


@pytest.mark.filterwarnings("error")
def test_underflowed_residual_is_solved_without_minres(monkeypatch, capsys):
    """One peak at ε = 0.0095 (σ̲ ≈ 331): M(ū) underflows to 0, so the correction
    is 0 at once, with no MINRES run and no 0/0 tolerance (a warning fails here)."""

    def no_minres(*args):
        raise AssertionError("MINRES called on a zero right side")

    monkeypatch.setattr(reduction, "_minres", no_minres)
    assert main(["reduce", "--eps", "0.0095", "--k", "1"]) == 0
    results = json.loads(capsys.readouterr().out)["results"]
    assert results["sup_norm"] == 0 and results["iterations"] == 1


def scripted_reduce(monkeypatch, target, trials):
    """Stand-ins for `reduce` and `reduced_jacobian` with d linear in the second
    angle, zero at `target`, and its exact Jacobian.  The first run, the start,
    is the model's; each later run, a trial step, takes the next entry of
    `trials`: "raise" raises ContractionError, "grow" doubles the start's d,
    None is the model."""
    runs, queue = [], list(trials)

    def fake(config, profile, grid):
        runs.append(config.angles[1])
        d = (config.angles[1] - target) * np.array([1.0, -1.0])
        action = queue.pop(0) if len(runs) > 1 and queue else None
        if action == "raise":
            raise ContractionError("scripted divergence")
        if action == "grow":
            d = 2 * (runs[0] - target) * np.array([1.0, -1.0])
        return types.SimpleNamespace(d_coeffs=d, bundle=types.SimpleNamespace(config=config), basis=None)

    monkeypatch.setattr(reduction, "reduce", fake)
    jacobian = np.array([[-1.0, 1.0], [1.0, -1.0]])
    monkeypatch.setattr(reduction, "reduced_jacobian", lambda bundle, basis: jacobian)
    return runs


def test_equilibrate_halves_a_diverging_or_growing_trial(monkeypatch):
    """The full step diverges and the half step does not reduce max|d|, so the
    quarter step is taken; the next full step lands on the model's root."""
    uniform = uniform_configuration(0.3, 2)
    target = uniform.angles[1]
    initial = PeakConfiguration(0.3, (uniform.angles[0], target + 0.1))
    runs = scripted_reduce(monkeypatch, target, ["raise", "grow"])
    result = equilibrate(initial, None, make_grid, tol=1e-9)
    assert result.newton_steps == 2
    assert runs[1:4] == pytest.approx([target, target + 0.05, target + 0.075], abs=1e-9)
    assert np.max(np.abs(result.d_history[1])) == pytest.approx(0.075, rel=1e-6)
    assert np.max(np.abs(result.d_history[-1])) < 1e-9


@pytest.mark.parametrize("trial", ["raise", "grow"])
def test_equilibrate_line_search_failure(trial, monkeypatch):
    """Eight halvings that all diverge, or all fail to reduce max|d|, end the run."""
    uniform = uniform_configuration(0.3, 2)
    initial = PeakConfiguration(0.3, (uniform.angles[0], uniform.angles[1] + 0.1))
    runs = scripted_reduce(monkeypatch, uniform.angles[1], [trial] * 8)
    with pytest.raises(RuntimeError, match="equilibrate line search failed"):
        equilibrate(initial, None, make_grid, tol=1e-9)
    assert len(runs) == 1 + 8


def test_equilibrate_rejects_one_peak(profile_n2):
    """One peak has no relative position to equilibrate."""
    with pytest.raises(ValueError, match="equilibrate requires k >= 2"):
        equilibrate(uniform_configuration(0.3, 1), profile_n2, make_grid, tol=1e-9)
