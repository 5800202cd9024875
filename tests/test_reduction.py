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
from multipeak.domain import GridField, StripGrid, inner_products, make_grid
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
from multipeak.spectrum import lowest_eigenpairs, near_kernel_basis, potential

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


def P_of(bundle):
    """The potential P of 𝕃 = F′(ū) = B − P, which the two solves take."""
    return potential(bundle.ubar, bundle.profile.exponent)


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
    P, c = P_of(bundle_k2), pin_column(bundle_k2)
    rhs = np.random.default_rng(3).standard_normal(c.size)
    x, mu, its = pinned_solve(P, translation_frame(bundle_k2), c, rhs, 0.3)
    defect = bundle_k2.grid.helmholtz(x, P) + c * mu - rhs
    assert np.linalg.norm(defect) < 1e-12 * np.linalg.norm(rhs)
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
            potential(field, p), frame, c, -G, -float(c @ (u - u0)), rtol=reduction.RTOL
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
    c = pin_column(bundle_k2)
    rhs = np.random.default_rng(5).standard_normal(c.size)
    x, mu, _ = pinned_solve(P_of(bundle_k2), translation_frame(bundle_k2), c, rhs, target)
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
    """MINRES on the complement, given the projected right side Πᵀrhs, gives the
    x of the bordered system for rhs to 1e-10."""
    bundle = build_ansatz(uniform_configuration(eps, k), profile_n2, make_grid(eps))
    basis = frame(bundle)
    rhs = np.random.default_rng(5).standard_normal(bundle.grid.size)
    x, _ = complement_solve(P_of(bundle), basis, basis.split(rhs)[0])
    x_ref, _ = bordered_reference(L_reference(bundle), basis.C)(rhs)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)


def test_no_stencil_inside_either_minres_loop(bundle_k2, monkeypatch):
    """Each 𝕃 product inside MINRES is Bv − Pv with Bv from the loop: complement_solve
    makes no stencil pass, pinned_solve only the two outside its loop (𝕃Φ for S and
    𝕃δ for μ), and each applies B⁻¹ once per iteration and once to the right side."""
    frame, P, c = translation_frame(bundle_k2), P_of(bundle_k2), pin_column(bundle_k2)
    rhs = np.random.default_rng(7).standard_normal(c.size)
    calls = dict.fromkeys(["helmholtz", "helmholtz_inverse"], 0)
    for name in calls:
        def counted(self, *args, _name=name, _original=getattr(StripGrid, name), **kwargs):
            calls[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(StripGrid, name, counted)
    _, its = complement_solve(P, frame, frame.split(rhs)[0])
    assert its > 0 and calls == {"helmholtz": 0, "helmholtz_inverse": its + 1}
    calls.update(helmholtz=0, helmholtz_inverse=0)
    _, _, its = pinned_solve(P, frame, c, rhs, 0.3)
    assert its > 0 and calls == {"helmholtz": 2, "helmholtz_inverse": its + 1}


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
    P, basis = P_of(bundle), frame(bundle)
    n, C = bundle.grid.size, basis.C
    rhs = np.random.default_rng(12).standard_normal(n)
    minres, runs = reduction._minres, []

    def recorded(*args):
        runs.append(minres(*args))
        return runs[-1]

    monkeypatch.setattr(reduction, "_minres", recorded)
    x, _ = complement_solve(P, basis, basis.split(rhs)[0])
    delta, _, _ = pinned_solve(P, basis, C[:, 0], rhs, 0.3)
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
    _, its = complement_solve(P_of(bundle), basis, h_perp)
    assert 0 < its <= 30


def test_complement_solver_raises_at_iteration_cap(bundle_k2, basis_k2, monkeypatch):
    monkeypatch.setattr(reduction, "MINRES_MAXITER", 3)
    rhs = np.random.default_rng(2).standard_normal(bundle_k2.grid.size)
    with pytest.raises(RuntimeError, match="MINRES did not converge in 3 iterations"):
        complement_solve(P_of(bundle_k2), basis_k2, basis_k2.split(rhs)[0])


def scipy_minres(matvec, precond, rhs, rtol):
    """(x, iterations) of scipy's `minres` on a one-argument product: the reference."""
    from scipy.sparse.linalg import LinearOperator, minres

    shape, steps = (rhs.size, rhs.size), []
    x, info = minres(
        LinearOperator(shape, matvec=matvec, dtype=float), rhs, rtol=rtol,
        M=LinearOperator(shape, matvec=precond, dtype=float),
        maxiter=reduction.MINRES_MAXITER, callback=lambda _: steps.append(1),
    )
    assert info == 0
    return x, len(steps)


def explicit_M(grid, precond, size):
    """v ↦ Mv formed outright, M the inverse of a solve's preconditioner: the stencil
    Bv, and on a pinned run's frame block |S|v, with |S| the inverse of the |S|⁻¹
    that the preconditioner applies to the unit vectors of that block."""
    n = grid.size
    if size == n:
        return grid.helmholtz
    E = np.zeros((size, size - n))
    E[n:] = np.eye(size - n)
    S_abs = np.linalg.inv(precond(E)[n:])
    return lambda v: np.concatenate([grid.helmholtz(v[:n]), S_abs @ v[n:]])


# every MINRES run of each case, with the eps of its grid: complement_solve on the
# translation frame (each correction step of `reduce`) and on the eigen frame of
# `weighted`, and pinned_solve (each Newton step)
MINRES_CASES = {
    "complement-k2": (0.3, lambda f: reduce(
        uniform_configuration(0.3, 2), f("profile_n2"), make_grid(0.3))),
    "complement-k3": (0.2, lambda f: reduce(
        uniform_configuration(0.2, 3), f("profile_n2"), make_grid(0.2))),
    "complement-off-lattice": (0.3, lambda f: reduce(
        PeakConfiguration(0.3, (-3.1, 0.2)), f("profile_n2"), make_grid(0.3))),
    "complement-eigen-frame": (0.3, lambda f: weighted.solve_orthogonal(
        residual(f("bundle_k2")), f("bundle_k2"), f("basis_k2"))),
    "pinned-k1": (0.3, lambda f: dancer.newton_solve(f("bundle_k1"))),
    "pinned-k2": (0.3, lambda f: dancer.newton_solve(f("bundle_k2"))),
}


def each_minres_run(case, request, monkeypatch, compare):
    """Run `case` as the package runs it; each `_minres` call also passes its x,
    its iteration count, the product with Mv formed outright (one argument) and
    its own arguments to `compare`.  The list of what `compare` returns."""
    eps, run = MINRES_CASES[case]
    grid, own, runs = make_grid(eps), reduction._minres, []

    def compared(matvec, precond, rhs, rtol):
        x, its = own(matvec, precond, rhs, rtol)
        M = explicit_M(grid, precond, rhs.size)
        runs.append(compare(x, its, lambda v: matvec(v, M(v)), precond, rhs, rtol))
        return x, its

    monkeypatch.setattr(reduction, "_minres", compared)
    run(request.getfixturevalue)
    return runs


@pytest.mark.parametrize("case", MINRES_CASES)
def test_minres_matches_scipy_bit_for_bit(case, request, monkeypatch):
    """The package's MINRES is scipy's loop for x₀ = 0: on every run of the desk
    solves, both given the product with Mv formed outright, it returns the same x,
    bit for bit, after the same number of iterations."""
    own = reduction._minres

    def same_as_scipy(_x, _its, product, precond, rhs, rtol):
        x, its = own(lambda v, _: product(v), precond, rhs, rtol)
        x_ref, its_ref = scipy_minres(product, precond, rhs, rtol)
        return np.array_equal(x, x_ref), its, its_ref

    runs = each_minres_run(case, request, monkeypatch, same_as_scipy)
    assert runs and all(same and its == its_ref for same, its, its_ref in runs), runs


@pytest.mark.parametrize("case", MINRES_CASES)
def test_minres_with_the_loops_Mv_matches_the_explicit_product(case, request, monkeypatch):
    """Each solve as it runs, with Mv = r₂/β from the loop, takes the iterations of
    the run whose product forms Mv outright, and its x agrees to 1e-10 relative."""
    own = reduction._minres

    def against_explicit(x, its, product, precond, rhs, rtol):
        x_ref, its_ref = own(lambda v, _: product(v), precond, rhs, rtol)
        return np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref), its, its_ref

    runs = each_minres_run(case, request, monkeypatch, against_explicit)
    assert runs and all(close and its == its_ref for close, its, its_ref in runs), runs


def test_reduce_on_a_fine_grid_matches_the_explicit_product(profile_n2, monkeypatch):
    """At h = 0.0625, where ‖B‖ and the rounding of r₂/β against the stencil's Bv are
    16 times the desk grid's, `reduce` on (0.3, 2) takes the Newton steps and
    MINRES iterations of the run whose product forms Bv outright, and d agrees to
    1e-12 relative."""
    config, grid = uniform_configuration(0.3, 2), make_grid(0.3, h=0.0625)
    state = reduce(config, profile_n2, grid)
    own = reduction._minres
    monkeypatch.setattr(reduction, "_minres", lambda matvec, precond, rhs, rtol: own(
        lambda v, _: matvec(v, grid.helmholtz(v)), precond, rhs, rtol))
    ref = reduce(config, profile_n2, grid)
    assert state.iterations == ref.iterations
    assert state.minres_iterations == ref.minres_iterations
    assert np.linalg.norm(state.d_coeffs - ref.d_coeffs) <= 1e-12 * np.linalg.norm(ref.d_coeffs)


@pytest.mark.parametrize("config, counts", [
    pytest.param(uniform_configuration(0.3, 2), [3, 5, 9, 7], id="0.3-2"),
    pytest.param(uniform_configuration(0.2, 3), [3, 5, 10, 9], id="0.2-3"),
    pytest.param(PeakConfiguration(0.3, (-3.1, 0.2)), [3, 5, 11, 7], id="off-lattice"),
])
def test_reduction_state_keeps_each_steps_minres_iterations(profile_n2, config, counts):
    """`ReductionState.minres_iterations` holds one MINRES count per Newton step, and
    `residual_history` the projected residual ‖F(v)‖ before each step and at the
    returned v, falling at every step."""
    state = reduce(config, profile_n2, make_grid(config.epsilon))
    assert state.minres_iterations == counts and state.iterations == len(counts)
    history = state.residual_history
    assert len(history) == len(counts) + 1
    assert all(later < earlier for earlier, later in zip(history, history[1:])), history


# (sup_norm, h1_norm, d) of the fixed point v ↦ 𝕃⁻¹h(v)⊥ that Newton replaced, each
# step solved to RTOL of the first right side, on the desk grid `make_grid(ε)`
_SIGMA_8 = 2 * np.pi / (2 * 8.0 + 8 * 8.0 / 3)  # criterion 07's configuration at σ = 8
FIXED_POINT = [
    pytest.param(uniform_configuration(0.3, 2), 0.00024899588739394545, 0.0007674118671894984,
                 [1.1925858388414782e-17, 2.4397687824947126e-19], id="0.3-2"),
    pytest.param(uniform_configuration(0.2, 3), 0.00024928037527716335, 0.0009406891548443202,
                 [-1.0059599680602724e-17, 5.522143673700083e-13, -5.522977523440509e-13],
                 id="0.2-3"),
    pytest.param(PeakConfiguration(0.3, (-3.1, 0.2)), 0.0002882920606019444,
                 0.0009022559543977998, [4.1281821935779854e-05, -4.115902726901098e-05],
                 id="off-lattice"),
    pytest.param(uniform_configuration(np.pi / 8, 2), 0.0033824587206913027, 0.010493067924858407,
                 [-4.081337139883381e-17, -4.0656506542305375e-17], id="sigma-4"),
    pytest.param(uniform_configuration(np.pi / 10, 2), 0.0004084973306602485,
                 0.0012597042504404903, [1.3121130446821088e-19, 1.1246968317961918e-19],
                 id="sigma-5"),
    pytest.param(uniform_configuration(np.pi / 12, 2), 5.052136809306224e-05,
                 0.0001555090063410137, [-7.028686098057419e-21, -2.534638223556715e-22],
                 id="sigma-6"),
    pytest.param(uniform_configuration(np.pi / 14, 2), 6.337719717579872e-06,
                 1.9490769963638327e-05, [4.39292707269767e-21, -1.3693174577168102e-22],
                 id="sigma-7"),
    pytest.param(uniform_configuration(np.pi / 16, 2), 8.031008645695379e-07,
                 2.4683995683534724e-06, [2.562540962288403e-22, 4.722376121537404e-23],
                 id="sigma-8"),
    pytest.param(PeakConfiguration(_SIGMA_8, (-np.pi, -np.pi + 16 * _SIGMA_8)),
                 4.098581916187397e-07, 1.3083506033985804e-06,
                 [-1.0841727189917054e-07, 1.1167884319390979e-07], id="sigma-8-level-0"),
    pytest.param(uniform_configuration(0.2, 1), 1.161334302246626e-13, 2.5184942555860405e-13,
                 [7.201976156695911e-18], id="k1-0.2"),
]


@pytest.mark.parametrize("config, sup, h1, d", FIXED_POINT)
def test_newton_correction_matches_the_fixed_point(profile_n2, config, sup, h1, d):
    """Wherever the fixed point converged, Newton's v has its sup and H¹ norms to 1e-12
    relative and its d to 1e-12 of max(|d|, rate), rate = e^{−2σ̲}σ̲^{−1/2}: the
    desk cases, criterion 05 and 06's σ̲ = 4…8 sweep, criterion 07's σ = 8 on its
    coarsest grid, and the one-peak ψ fit at ε = 0.2 (v ≈ 1e-13)."""
    state = reduce(config, profile_n2, make_grid(config.epsilon))
    assert state.sup_norm == pytest.approx(sup, rel=1e-12, abs=0)
    assert state.h1_norm == pytest.approx(h1, rel=1e-12, abs=0)
    scale = max(np.max(np.abs(d)), residual_rate(config.sigma_min, 2))
    assert np.max(np.abs(state.d_coeffs - d)) <= 1e-12 * scale


@pytest.mark.parametrize("k", [2, 3])
def test_newton_correction_brackets_the_separation(profile_n2, k):
    """k uniform peaks on `make_grid(π/(kσ̲))`: Newton takes at most 5 steps at
    σ̲ = 2.2, converges at σ̲ = 1.95 (|v|∞ ≈ 0.44), and at σ̲ = 1.80 its steps grow,
    so it raises there rather than follow falling residuals to an O(1) solution."""
    def run(sigma):
        eps = np.pi / (k * sigma)
        return reduce(uniform_configuration(eps, k), profile_n2, make_grid(eps))

    assert run(2.2).iterations <= 5
    assert run(1.95).residual_history[-1] < 1e-10
    with pytest.raises(ContractionError, match="Newton diverging: step"):
        run(1.80)


@pytest.mark.parametrize("config", [
    pytest.param(uniform_configuration(0.2, 1), id="k1-0.2"),
    pytest.param(uniform_configuration(0.3, 2), id="0.3-2"),
    pytest.param(uniform_configuration(np.pi / (2 * 1.95), 2), id="sigma-1.95"),
])
def test_converged_correction_ends_on_a_floor_term_step(profile_n2, config, monkeypatch):
    """The last MINRES run of a converged correction stops at the forcing term's
    floor RTOL·‖F₀‖/‖F‖, never at an inexact η: at ε = 0.2 one peak's second step,
    solved to η ≈ 0.0075, is already below tol, yet does not end the loop."""
    own, rtols, steps = reduction.complement_solve, [], []

    def spy(P, frame, rhs, rtol):
        x, its = own(P, frame, rhs, rtol)
        rtols.append(rtol)
        steps.append(np.max(np.abs(x)))
        return x, its

    monkeypatch.setattr(reduction, "complement_solve", spy)
    state = reduce(config, profile_n2, make_grid(config.epsilon))
    history = state.residual_history
    assert len(rtols) == state.iterations >= 2
    assert rtols[-1] == reduction.RTOL * history[0] / history[-2]
    if config.k == 1:
        assert steps[1] < 1e-13 and rtols[1] > reduction.RTOL * history[0] / history[1]


def test_minres_zero_right_side_takes_no_step():
    def no_matvec(v, Mv):
        raise AssertionError("matvec called on a zero right side")

    x, its = reduction._minres(no_matvec, lambda y: y, np.zeros(7), reduction.RTOL)
    assert its == 0 and np.array_equal(x, np.zeros(7))


def test_minres_raises_at_iteration_cap(bundle_k2, monkeypatch):
    monkeypatch.setattr(reduction, "MINRES_MAXITER", 2)
    c = pin_column(bundle_k2)
    rhs = np.random.default_rng(3).standard_normal(c.size)
    with pytest.raises(RuntimeError, match="MINRES did not converge in 2 iterations"):
        pinned_solve(P_of(bundle_k2), translation_frame(bundle_k2), c, rhs, 0.3)


@pytest.mark.parametrize("matvec, precond, rhs, message", [
    pytest.param(lambda v, Mv: v, lambda y: -y, np.ones(3), "indefinite preconditioner",
                 id="negated"),
    pytest.param(lambda v, Mv: v[::-1], lambda y: y * [1.0, -1.0], np.array([1.0, 0.0]),
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
    x, mu, _ = pinned_solve(potential(field, 3.0), translation_frame(bundle), c, rhs, 0.25)
    x_ref, mu_ref = bordered_reference(linearized_csr(field, 3.0), c[:, None])(rhs, 0.25)
    assert np.linalg.norm(x - x_ref) <= 1e-10 * np.linalg.norm(x_ref)
    assert abs(mu - mu_ref[0]) <= 1e-10 * abs(mu_ref[0])


def test_correction_state_invariants(state_k2, basis_k2):
    assert state_k2.iterations <= 30
    assert state_k2.residual_history[-1] < 1e-10
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
    """At ε = 0.3, k = 2 Newton's steps after the fourth are noise of 5e-24 to
    1e-19, below the rounding 16 ε_mach‖v‖∞ ≈ 8.8e-19 of v, so tol = 1e-20 fails
    for the profile scaled by 1 ± 1e-11 and 1 ± 3e-11 as for the profile itself;
    counting such a step as converged would let a noise step under 1e-20 pass."""
    nearby = dataclasses.replace(profile_n2, values=profile_n2.values * scale)
    with pytest.raises(reduction.ContractionError, match="or tol is below v's roundoff"):
        reduce(uniform_configuration(0.3, 2), nearby, make_grid(0.3), tol=1e-20)


def test_tol_below_roundoff_fails_at_the_first_noise_step(profile_n2, monkeypatch):
    """At ε = 0.3, k = 2 the fourth step is 2.4e-15 and the fifth, at the floor
    term, 8.3e-20 < 16 ε_mach‖v‖∞ ≈ 8.8e-19: tol = 1e-20 is refused there, not
    after 26 more steps of noise."""
    real, calls = reduction.complement_solve, []
    monkeypatch.setattr(reduction, "complement_solve", lambda *a, **kw: calls.append(1) or real(*a, **kw))
    with pytest.raises(ContractionError, match="or tol is below v's roundoff"):
        reduce(uniform_configuration(0.3, 2), profile_n2, make_grid(0.3), tol=1e-20)
    assert 0 < len(calls) <= 5


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
