"""Lyapunov–Schmidt reduction: correction field, projections, equilibration.

The exact equation for u = ū + v is rewritten as

    𝕃v = −M(ū) + R(v),   R(v) = (ū+v)₊^p − ū^p − p ū^{p−1} v,

with v constrained H¹-orthogonal to the near-kernel basis φ_i.  The right
side is split into its component along the (−Δ+1)φ_i (coefficients d_i) and
the orthogonal remainder.  On that complement 𝕃 is invertible uniformly in
ε, and B⁻¹𝕃 (B = −Δ+1) is the identity minus a compact operator, so the
constrained linear solves are preconditioned MINRES runs with the grid's
fast B⁻¹ (:class:`ComplementSolver`, shared with the weighted estimates);
nothing is factored.  Setting every d_i to zero is the reduced equation for
the peak positions; Newton on those scalars drives the configuration to
uniform spacing.  The chain ansatz → eigenpairs → near-kernel basis →
correction is the one pipeline step :func:`reduce`.

Both M(ū) and R(v) are evaluated algebraically from the profile — never
through the discrete Laplacian — so the exponentially small scales they
live on are resolved to roundoff rather than to mesh truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.sparse.linalg import LinearOperator, minres

from .ansatz import AnsatzBundle, PeakConfiguration, build_ansatz, residual
from .domain import GridField, StripGrid, factorize, h1_norm, inner_products
from .groundstate import GroundStateProfile
from .spectrum import (
    NearKernelBasis,
    assemble_linearized,
    lowest_eigenpairs,
    near_kernel_basis,
)


class ContractionError(RuntimeError):
    """Fixed-point divergence: the separation is too small to contract."""


def power_remainder(ubar: np.ndarray, v: np.ndarray, p: float) -> np.ndarray:
    """R(v) = (ū+v)₊^p − ū^p − p ū^{p−1} v without catastrophic cancellation.

    For integer p the smooth branch is the exact binomial tail (quadratic
    and higher in v), which keeps R accurate when |v| ≪ ū; the truncation
    branch ū+v < 0 is evaluated directly.
    """
    ubar = np.asarray(ubar, dtype=float)
    v = np.asarray(v, dtype=float)
    s = ubar + v
    neg = s < 0
    if float(p).is_integer() and p >= 2:
        from math import comb

        ip = int(p)
        # Σ_{m=2}^{p} C(p,m) ū^{p−m} v^m = v² · Horner polynomial in v
        acc = np.zeros_like(v)
        for m in range(ip, 1, -1):
            acc = acc * v + comb(ip, m) * ubar ** (ip - m)
        out = acc * v**2
        if neg.any():
            out = np.where(neg, -(ubar ** float(ip)) - ip * ubar ** (ip - 1) * v, out)
        return out
    out = np.maximum(s, 0.0) ** p - ubar**p - p * ubar ** (p - 1) * v
    return out


@dataclass
class ReductionState:
    """Converged correction with its projection bookkeeping."""

    bundle: AnsatzBundle
    basis: NearKernelBasis
    correction: GridField
    d_coeffs: np.ndarray
    sup_norm: float
    h1_norm: float
    iterations: int
    solve_residual: float


# MINRES stop: scipy's ‖r‖ ≤ rtol·‖A‖‖x‖, residual in the preconditioner's norm
RTOL = 1e-14
MINRES_MAXITER = 200


class ComplementSolver:
    """𝕃x + Cμ = rhs with Cᵀx = 0, C = BΦ, by MINRES on the near-kernel's complement.

    Φ holds the basis fields φ_i as columns and G = ΦᵀC their H¹ Gram
    matrix (up to the quadrature weight).  Π = I − ΦG⁻¹Cᵀ is the
    B-orthogonal projector onto {x : Cᵀx = 0}; MINRES solves
    Πᵀ𝕃Πx = Πᵀrhs preconditioned by ΠB⁻¹Πᵀ, with B⁻¹ the grid's fast exact
    inverse, and μ = G⁻¹Φᵀ(rhs − 𝕃x).  The preconditioned operator is B⁻¹𝕃
    on the complement, whose spectrum (the k bottom eigenvalues near 1−p,
    then the gap up to 1) is bounded away from 0 independently of the grid;
    it is indefinite, hence MINRES and not CG.  ``iterations`` lists the
    MINRES iteration count of each solve.
    """

    def __init__(self, L, basis: NearKernelBasis):
        self.L = L
        self.grid = basis.fields[0].grid
        B = self.grid.helmholtz_matrix
        # (n, k) with contiguous columns, so the dot products below are the
        # quadrature products' own
        self.Phi = np.array([phi.data.ravel() for phi in basis.fields]).T
        self.C = np.array([B @ phi for phi in self.Phi.T]).T
        # G[i, j] = (Bφ_i)·φ_j; symmetrizing leaves the diagonal bit for bit
        G = np.array([[c @ phi for phi in self.Phi.T] for c in self.C.T])
        self.G = 0.5 * (G + G.T)
        self._Ginv = np.linalg.inv(self.G)
        self.iterations: list[int] = []

    def _project(self, x):
        """Πx: the B-orthogonal projection onto {x : Cᵀx = 0}."""
        return x - self.Phi @ (self._Ginv @ (self.C.T @ x))

    def _project_t(self, y):
        """Πᵀy: the component of y that pairs to zero with every φ_i."""
        return y - self.C @ (self._Ginv @ (self.Phi.T @ y))

    def solve(self, rhs: np.ndarray, rtol: float = RTOL):
        """(x, μ) with 𝕃x + Cμ = rhs and Cᵀx = 0.

        Raises
        ------
        RuntimeError
            If MINRES reaches MINRES_MAXITER iterations.
        """
        # operators made per solve: held by the solver, their closures would
        # make a reference cycle that keeps 𝕃 and Φ alive until a full collection
        A = LinearOperator(
            self.L.shape, dtype=float,
            matvec=lambda x: self._project_t(self.L @ self._project(x)),
        )
        M = LinearOperator(
            self.L.shape, dtype=float,
            matvec=lambda y: self._project(self.grid.helmholtz_inverse(self._project_t(y))),
        )
        steps = []
        x, info = minres(
            A, self._project_t(rhs), rtol=rtol, M=M,
            maxiter=MINRES_MAXITER, callback=lambda _: steps.append(1),
        )
        self.iterations.append(len(steps))
        if info:
            raise RuntimeError(f"MINRES did not converge in {MINRES_MAXITER} iterations")
        x = self._project(x)
        return x, self._Ginv @ (self.Phi.T @ (rhs - self.L @ x))


def split_projection(h: GridField, solver: ComplementSolver) -> tuple[GridField, np.ndarray]:
    """Split h = h⊥ + Σ d_i (−Δ+1)φ_i against an H¹-orthogonal basis.

    d_i = ⟨h, φ_i⟩_{L²} / ‖φ_i‖²_{H¹}, so that the remainder pairs to zero
    with every φ_i in the (H⁻¹, H¹) duality.  The columns (−Δ+1)φ_i and the
    norms are the solver's C and diagonal of G, computed once per configuration.
    """
    wgt = h.grid.weight
    flat = h.data.ravel()
    d = np.empty(solver.G.shape[0])
    rem = flat.copy()
    for i, phi in enumerate(solver.Phi.T):
        d[i] = wgt * float(flat @ phi) / (wgt * solver.G[i, i])
        rem -= d[i] * solver.C[:, i]
    return GridField(h.grid, rem.reshape(h.grid.shape)), d


def constrained_solve(A, C: np.ndarray):
    """Factor A once and return the solver of the bordered system [[A, C], [Cᵀ, 0]].

    This is the pinned Newton step's solve: its one pin leaves the k−1
    small relative-motion eigenvalues of the Jacobian in the system, which
    a Krylov run on the complement does not resolve to roundoff.

    The solver maps (rhs, constraint_rhs=0) to (x, μ) with A x + C μ = rhs
    and Cᵀx = constraint_rhs: with Z = A⁻¹C and the k×k Schur complement
    S = CᵀZ, μ = S⁻¹(CᵀA⁻¹rhs − constraint_rhs) and x = A⁻¹rhs − Zμ, then
    one refinement step on the bordered residual.  At a Newton root A is
    nearly singular (|S| ≈ 1e15 for k = 2, ε = 0.3 on 168×96); there the
    elimination alone leaves a relative residual of 0.13, the refined 2e-12.
    """
    k = C.shape[1]
    lu = factorize(A)
    Z = lu.solve(C)
    S = C.T @ Z

    def eliminate(r, g):
        y = lu.solve(r)
        mu = np.linalg.solve(S, C.T @ y - g)
        return y - Z @ mu, mu

    def solve(rhs: np.ndarray, constraint_rhs=0.0):
        g = np.broadcast_to(constraint_rhs, k)
        x, mu = eliminate(rhs, g)
        dx, dmu = eliminate(rhs - A @ x - C @ mu, g - C.T @ x)
        return x + dx, mu + dmu

    return solve


def solve_correction(
    bundle: AnsatzBundle, basis: NearKernelBasis, tol: float = 1e-13
) -> ReductionState:
    """Fixed-point solve of 𝕃v = h(v)⊥, ⟨v, φ_i⟩_{H¹} = 0, with δ_i ≡ 0.

    Iterates v ↦ 𝕃⁻¹[(−M(ū) + R(v))⊥] until the sup-norm increment drops
    below tol (absolute), for at most 30 iterations; three consecutive
    growing increments abort with :class:`ContractionError`.  Each step
    solves for the increment, 𝕃(v_{n+1} − v_n) = h(v_n)⊥ − 𝕃v_n, by one
    :class:`ComplementSolver` run whose tolerance is relative to the first
    step's right side: the later, smaller right sides take fewer MINRES
    iterations, and the Krylov error of v is about that of the last solve.
    """
    grid = bundle.grid
    p = bundle.profile.exponent
    L = assemble_linearized(bundle)
    solver = ComplementSolver(L, basis)
    minus_M = -residual(bundle).data

    v = np.zeros(grid.size)
    increments, it = [], 0
    for it in range(1, 31):
        h = GridField(grid, minus_M + power_remainder(bundle.ubar.data, v.reshape(grid.shape), p))
        h_perp, d = split_projection(h, solver)
        rhs = h_perp.data.ravel() - L @ v
        size = np.linalg.norm(rhs)
        if it == 1:
            first = size
        step, mu = solver.solve(rhs, rtol=RTOL * first / size)
        v = v + step
        inc = float(np.max(np.abs(step)))
        increments.append(inc)
        if inc < tol:
            break
        if len(increments) >= 4 and all(
            increments[-m] > increments[-m - 1] for m in (1, 2, 3)
        ):
            raise ContractionError(
                f"fixed point diverging (increments {increments[-4:]}): "
                f"separation sigma_min = {bundle.config.sigma_min:.3f} too small"
            )
    field = GridField(grid, v.reshape(grid.shape))
    h = GridField(grid, minus_M + power_remainder(bundle.ubar.data, field.data, p))
    h_perp, d = split_projection(h, solver)
    res = float(np.linalg.norm(L @ v + solver.C @ mu - h_perp.data.ravel()))
    return ReductionState(
        bundle=bundle,
        basis=basis,
        correction=field,
        d_coeffs=d,
        sup_norm=field.sup_norm(),
        h1_norm=h1_norm(field),
        iterations=it,
        solve_residual=res,
    )


def reduce(
    config: PeakConfiguration,
    profile: GroundStateProfile,
    grid: StripGrid,
    tol: float = 1e-13,
) -> ReductionState:
    """The one pipeline step: ansatz, 2k+1 eigenpairs, near-kernel basis, correction."""
    bundle = build_ansatz(config, profile, grid)
    result = lowest_eigenpairs(bundle, count=2 * config.k + 1)
    return solve_correction(bundle, near_kernel_basis(result, bundle), tol=tol)


def interaction_d(bundle: AnsatzBundle, basis: NearKernelBasis, i: int) -> float:
    """Leading-order projection coefficient from the interaction integral.

    d_i = p α_i / ‖φ_i‖²_{H¹} · ∫_{Ω_i} U_i^{p−1} (ū − U_i) ∂U_i/∂x₁ dx,

    where U_i = Σ_l U_{i,l} is peak i with all its lattice images (the
    ansatz's own peak field), so ū − U_i holds only the other peaks.  The
    α_i factor carries the normalization of φ_i relative to the translation
    mode.
    """
    if bundle.config.k < 2:
        raise ValueError("interaction coefficients require k >= 2")
    p = bundle.profile.exponent
    Ui = bundle.peak_fields[i].data
    dUi = bundle.translation_modes[i].data
    others = bundle.ubar.data - Ui

    mask = bundle.cell_labels == i
    integrand = Ui ** (p - 1) * others * dUi
    integral = bundle.grid.weight * float(integrand[mask].sum())
    phi = basis.fields[i]
    return p * basis.alphas[i] * integral / inner_products(phi, phi)[1]


def d_mesh_limit(
    config: PeakConfiguration,
    profile: GroundStateProfile,
    grid: StripGrid,
) -> tuple[np.ndarray, np.ndarray]:
    """Mesh-limit (d_proj, d_int) by Richardson extrapolation over halvings.

    The projection coefficients and the interaction integrals each carry an
    O(h²) eigenbasis error that is flat in the separation and can mask the
    exponentially small consistency gap between the two routes.  Evaluating
    both on three successively halved grids and eliminating the h² and h⁴
    terms recovers the continuum values (up to O(h₂²/n₂), since h₂ is only
    nearly halved; see :meth:`StripGrid.refined`).
    """
    proj, inter = [], []
    for _ in range(3):
        state = reduce(config, profile, grid)
        proj.append(state.d_coeffs)
        row = [interaction_d(state.bundle, state.basis, i) for i in range(config.k)]
        inter.append(np.array(row))
        grid = grid.refined()
    weights = np.array([1.0, -20.0, 64.0]) / 45.0
    d_proj = sum(w * d for w, d in zip(weights, proj))
    d_int = sum(w * d for w, d in zip(weights, inter))
    return d_proj, d_int


@dataclass
class EquilibrateResult:
    config: PeakConfiguration
    d_history: list[np.ndarray]
    newton_steps: int


def equilibrate(
    initial: PeakConfiguration,
    profile: GroundStateProfile,
    grid_factory,
    tol: float,
) -> EquilibrateResult:
    """Damped Newton on peak angles driving every d_i to zero.

    The first angle is pinned (removing the translation family); the
    Jacobian of the remaining angles is formed by forward differences.
    Steps that leave the separation regime or fail to reduce max|d| are
    halved; at most 12 Newton steps are taken.

    Parameters
    ----------
    grid_factory : callable
        ε ↦ StripGrid, so sweeps control resolution in one place.
    tol : float
        Convergence threshold on max |d_i|.
    """
    if initial.k < 2:
        raise ValueError("equilibrate requires k >= 2")

    def evaluate(angles_free):
        angles = (initial.angles[0], *angles_free)
        config = PeakConfiguration(initial.epsilon, angles)
        return config, reduce(config, profile, grid_factory(config.epsilon)).d_coeffs

    free = np.array(initial.angles[1:])
    config, d = evaluate(free)
    history = [d]
    if np.max(np.abs(d)) < tol:
        return EquilibrateResult(config, history, newton_steps=0)

    fd_step = 1e-4
    for step in range(1, 13):
        J = np.empty((initial.k, free.size))
        for j in range(free.size):
            pert = free.copy()
            pert[j] += fd_step
            _, d_pert = evaluate(pert)
            J[:, j] = (d_pert - d) / fd_step
        delta, *_ = np.linalg.lstsq(J, -d, rcond=None)
        scale = 1.0
        for _ in range(8):
            try:
                trial_config, trial_d = evaluate(free + scale * delta)
            except (ValueError, ContractionError):
                scale *= 0.5
                continue
            if np.max(np.abs(trial_d)) < np.max(np.abs(d)) or np.max(
                np.abs(trial_d)
            ) < tol:
                break
            scale *= 0.5
        else:
            raise RuntimeError("equilibrate line search failed")
        free = free + scale * delta
        config, d = trial_config, trial_d
        history.append(d)
        if np.max(np.abs(d)) < tol:
            return EquilibrateResult(config, history, newton_steps=step)
    raise RuntimeError(
        f"equilibrate did not reach |d| < {tol} in 12 steps "
        f"(last d = {d})"
    )
