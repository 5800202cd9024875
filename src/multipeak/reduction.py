"""Lyapunov–Schmidt reduction: correction field, projections, equilibration.

The exact equation for u = ū + v is rewritten as

    𝕃v = −M(ū) + R(v),   R(v) = (ū+v)₊^p − ū^p − p ū^{p−1} v,

with v constrained H¹-orthogonal to the paper's frame φ_i = α_i ∂U_i/∂x₁
(:func:`translation_frame`).  The right side is split into its component
along the (−Δ+1)φ_i (coefficients d_i, by the frame's Gram matrix) and the
remainder.  On that complement 𝕃 is invertible uniformly in ε, and B⁻¹𝕃
(B = −Δ+1) is the identity minus a compact operator, so the two linear
problems, functions of 𝕃 and the frame, are MINRES runs preconditioned by the
grid's fast B⁻¹ alone, which maps range Πᵀ, where every Krylov vector lies,
onto the complement {Cᵀx = 0} (CᵀB⁻¹ = Φᵀ, ΦᵀΠᵀ = 0): :func:`complement_solve`
(the correction and the weighted estimates) and :func:`pinned_solve` (the
pinned Newton step).  Both take 𝕃 = B − P by its potential P
(:func:`~multipeak.spectrum.potential`): the Lanczos vector is v = B⁻¹r/β, so
each product 𝕃v = r/β − Pv reuses the preconditioner's input (Eisenstat, SIAM
J. Sci. Stat. Comput. 2, 1981), and the stencil checks residuals only outside
the loops.  Nothing is factored and no eigenproblem is solved.
Setting every d_i to zero is the reduced equation for the peak positions;
Newton on those scalars drives the configuration to uniform spacing.  The
chain ansatz → frame → correction is the one pipeline step :func:`reduce`.

Both M(ū) and R(v) are evaluated algebraically from the profile — never
through the discrete Laplacian — so the exponentially small scales they
live on are resolved to roundoff rather than to mesh truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .ansatz import AnsatzBundle, PeakConfiguration, build_ansatz, residual
from .asymptotics import binomial_remainder
from .domain import GridField, StripGrid, check_resolution, h1_norm
from .groundstate import GroundStateProfile
from .spectrum import NearKernelBasis, potential


class ContractionError(RuntimeError):
    """Fixed-point divergence: the separation is too small to contract."""


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
    minres_iterations: list[int]  # MINRES iterations of each fixed-point step


# `_minres` stops at ‖r‖ ≤ rtol·‖A‖‖x‖: ‖r‖ is the recurrence's residual in the
# preconditioner's norm, ‖A‖ the Frobenius norm of the Lanczos tridiagonal so far
RTOL = 1e-14
MINRES_MAXITER = 200


def _minres(matvec, precond, rhs: np.ndarray, rtol: float) -> tuple[np.ndarray, int]:
    """(x, iterations) of the package's one MINRES run, on symmetric matvecs.

    Preconditioned MINRES (Paige and Saunders, SIAM J. Numer. Anal. 12, 1975)
    from x₀ = 0 for an SPD ``precond`` = M⁻¹: the loop of scipy 1.17.1's
    ``minres`` (scipy/sparse/linalg/_isolve/minres.py, BSD-3-Clause) for shift
    0, with its operation order and stop tests.  The product is called as
    ``matvec(v, Mv)``: the Lanczos vector v = M⁻¹r₂/β and the preconditioner's
    input scaled like it, r₂/β, which is Mv in exact arithmetic, so an
    operator M − P costs no product with M.  Given a ``matvec`` that forms Mv
    itself and ignores its second argument, x and the iteration count are
    scipy's bit for bit.  A zero preconditioned right side (β₁ = 0) returns
    x = 0 after 0 iterations.

    Raises
    ------
    RuntimeError
        If MINRES reaches MINRES_MAXITER iterations, or breaks down because
        the preconditioner is indefinite or the operator is not symmetric.
    """
    eps = np.finfo(float).eps
    x = np.zeros(rhs.size)
    r1 = rhs
    y = precond(r1)
    beta1 = np.inner(r1, y)
    if beta1 < 0:
        raise RuntimeError("MINRES breakdown: indefinite preconditioner")
    if beta1 == 0:
        return x, 0
    beta1 = sqrt(beta1)

    oldb, beta, dbar, epsln, phibar = 0, beta1, 0, 0, beta1
    tnorm2, gmax, gmin, cs, sn = 0, 0, np.finfo(float).max, -1, 0
    w = w2 = np.zeros(rhs.size)
    r2 = r1
    for itn in range(1, MINRES_MAXITER + 1):
        # the Lanczos step
        s = 1.0 / beta
        v = s * y
        y = matvec(v, s * r2)
        if itn >= 2:
            y = y - (beta / oldb) * r1
        alfa = np.inner(v, y)
        y = y - (alfa / beta) * r2
        r1, r2 = r2, y
        y = precond(r2)
        oldb, beta = beta, np.inner(r2, y)
        if beta < 0:
            raise RuntimeError("MINRES breakdown: non-symmetric operator")
        beta = sqrt(beta)
        tnorm2 += alfa**2 + oldb**2 + beta**2
        # the previous plane rotation, then the next one
        oldeps = epsln
        delta = cs * dbar + sn * alfa
        gbar = sn * dbar - cs * alfa
        epsln = sn * beta
        dbar = -cs * beta
        root = np.linalg.norm([gbar, dbar])
        gamma = max(np.linalg.norm([gbar, beta]), eps)
        cs, sn = gbar / gamma, beta / gamma
        phi, phibar = cs * phibar, sn * phibar
        w1, w2 = w2, w
        w = (v - oldeps * w1 - delta * w2) * (1.0 / gamma)
        x = x + phi * w
        gmax, gmin = max(gmax, gamma), min(gmin, gamma)

        Anorm, ynorm = sqrt(tnorm2), np.linalg.norm(x)
        test1 = np.inf if ynorm == 0 or Anorm == 0 else phibar / (Anorm * ynorm)
        test2 = np.inf if Anorm == 0 else root / Anorm
        if (
            itn == 1 and beta / beta1 <= 10 * eps
            or 1 + test1 <= 1 or test1 <= rtol or 1 + test2 <= 1 or test2 <= rtol
            or gmax / gmin >= 0.1 / eps or Anorm * ynorm * eps >= beta1
        ):
            return x, itn
    raise RuntimeError(f"MINRES did not converge in {MINRES_MAXITER} iterations")


def complement_solve(P, frame: NearKernelBasis, rhs: np.ndarray, rtol: float = RTOL):
    """(x, MINRES iterations) with Πᵀ𝕃x = rhs and Cᵀx = 0, 𝕃 = B − P, C = BΦ.

    rhs must lie in range Πᵀ, as the first output of ``frame.split`` does (the
    frame, :class:`~multipeak.spectrum.NearKernelBasis`, holds Φ, C and that
    split).  MINRES is preconditioned by the grid's B⁻¹, which maps
    range Πᵀ onto {Cᵀx = 0}, so each iterate from x₀ = 0 lies there.  Each
    iteration costs one B⁻¹, one product with the potential P and one split:
    𝕃v = Bv − Pv with Bv from the loop, and no stencil pass.  The
    preconditioned operator is B⁻¹𝕃 on the complement, whose spectrum (the k
    bottom eigenvalues near 1−p, then the gap up to 1) is bounded away from 0
    independently of the grid; it is indefinite, hence MINRES and not CG.
    """
    return _minres(
        lambda v, Bv: frame.split(Bv - P * v)[0], frame.grid.helmholtz_inverse, rhs, rtol
    )


def pinned_solve(
    P, frame: NearKernelBasis, c: np.ndarray, rhs: np.ndarray, g: float, rtol: float = RTOL
) -> tuple[np.ndarray, float, int]:
    """(δ, μ, MINRES iterations) with 𝕃δ + cμ = rhs, cᵀδ = g, c in the span of C, 𝕃 = B − P.

    The bordered system in frame coordinates δ = x + Φa, Cᵀx = 0: since Πᵀc = 0
    it is the symmetric [[Πᵀ𝕃, Πᵀ𝕃Φ, 0], [Φᵀ𝕃, Φᵀ𝕃Φ, Φᵀc], [0, cᵀΦ, 0]] in
    (x, a, μ), solved by one MINRES run preconditioned by the SPD diag(B⁻¹,
    |S|⁻¹), S = [[Φᵀ𝕃Φ, Φᵀc], [cᵀΦ, 0]], whose B⁻¹ keeps x on {Cᵀx = 0} as in
    :func:`complement_solve`.  The k small eigenvalues of 𝕃 along the frame
    (one translation, k − 1 relative motions, all near 0 at a Newton root)
    live in S, which |S|⁻¹ inverts exactly; on the complement B⁻¹𝕃 is
    bounded away from 0.  Each iteration costs one B⁻¹, one product with P,
    one with the block 𝕃Φ (formed once, for S) and one split: 𝕃δ = Bx − Px +
    (𝕃Φ)a with Bx from the loop, and no stencil pass.
    MINRES stops at the relative tolerance ``rtol``.  The Newton multiplier μ
    is read off the residual's frame components, Φᵀ(rhs − 𝕃δ) = Φᵀc μ (by
    least squares), not off MINRES's own μ coordinate: at Newton roots on the
    h = 0.125 grid that coordinate errs by up to 2e-10 relative, the read-off
    μ by 4e-11.
    """
    grid, Phi = frame.grid, frame.Phi
    n, k = Phi.shape
    phi_c = Phi.T @ c
    L_Phi = grid.helmholtz(Phi, P)
    S = np.zeros((k + 1, k + 1))
    S[:k, :k] = Phi.T @ L_Phi
    S[:k, k] = S[k, :k] = phi_c
    w, V = np.linalg.eigh(S)
    S_abs_inv = (V / np.abs(w)) @ V.T

    def matvec(z, Mz):
        Ld = Mz[:n] - P * z[:n] + L_Phi @ z[n:-1]
        return np.concatenate(
            [frame.split(Ld)[0], Phi.T @ Ld + phi_c * z[-1], [phi_c @ z[n:-1]]]
        )

    z, its = _minres(
        matvec,
        lambda y: np.concatenate([grid.helmholtz_inverse(y[:n]), S_abs_inv @ y[n:]]),
        np.concatenate([frame.split(rhs)[0], Phi.T @ rhs, [g]]), rtol,
    )
    delta = z[:n] + Phi @ z[n:-1]
    mu = phi_c @ (Phi.T @ (rhs - grid.helmholtz(delta, P))) / (phi_c @ phi_c)
    return delta, float(mu), its


def solve_correction(
    bundle: AnsatzBundle, basis: NearKernelBasis, tol: float = 1e-13
) -> ReductionState:
    """Fixed-point solve of 𝕃v = h(v)⊥, ⟨v, φ_i⟩_{H¹} = 0, with δ_i ≡ 0.

    Iterates v ↦ 𝕃⁻¹[(−M(ū) + R(v))⊥] until the sup-norm increment drops
    below tol (absolute); three growing increments in a row, or 30 iterations
    without one below tol, raise :class:`ContractionError`.  Increments below
    16 ε_mach‖v‖∞, the rounding of v, are noise: they neither meet a tol under
    that floor nor count as growth.  Each step solves
    for the increment, 𝕃(v_{n+1} − v_n) = h(v_n)⊥ − 𝕃v_n, by one
    :func:`complement_solve` whose tolerance is relative to the first step's
    right side: the later, smaller right sides take fewer MINRES iterations,
    and the Krylov error of v is about that of the last solve.  The right
    side's 𝕃v is one stencil pass per step, outside MINRES.
    """
    grid = bundle.grid
    p = bundle.profile.exponent
    P = potential(bundle.ubar, p)
    minus_M = -residual(bundle).data

    v = np.zeros(grid.size)
    increments, counts = [], []
    for it in range(1, 31):
        h_perp, d = basis.split(
            minus_M + binomial_remainder(bundle.ubar.data, v.reshape(grid.shape), p, 1))
        rhs = basis.split(h_perp - grid.helmholtz(v, P))[0]  # the right side MINRES sees
        size = np.linalg.norm(rhs)
        if size == 0:  # v solves it, as when M(ū) underflows: no MINRES, no 0/0 rtol
            break
        if it == 1:
            first = size
        step, its = complement_solve(P, basis, rhs, rtol=RTOL * first / size)
        counts.append(its)
        v = v + step
        increments.append(float(np.max(np.abs(step))))
        floor = 16 * np.finfo(float).eps * np.max(np.abs(v))
        if increments[-1] < tol and tol >= floor:
            break
        if it == 30 or increments[-1] > floor and len(increments) >= 4 and all(
            increments[-m] > increments[-m - 1] for m in (1, 2, 3)
        ):
            raise ContractionError(
                f"fixed point diverging or stalled: increments "
                f"{', '.join(f'{x:.3g}' for x in increments[-4:])} after {it} iterations, "
                f"tol = {tol:.3g}, |v|_inf = {np.max(np.abs(v)):.3g}: either the separation "
                f"sigma_min = {bundle.config.sigma_min:.3f} is too small, or tol is below v's roundoff"
            )
    field = GridField(grid, v.reshape(grid.shape))
    h_perp, d = basis.split(minus_M + binomial_remainder(bundle.ubar.data, field.data, p, 1))
    res = float(np.linalg.norm(basis.split(h_perp - grid.helmholtz(v, P))[0]))
    return ReductionState(
        bundle=bundle,
        basis=basis,
        correction=field,
        d_coeffs=d,
        sup_norm=field.sup_norm(),
        h1_norm=h1_norm(field),
        iterations=it,
        solve_residual=res,
        minres_iterations=counts,
    )


def translation_frame(bundle: AnsatzBundle) -> NearKernelBasis:
    """The paper's frame φ_i = α_i ∂U_i/∂x₁, α_i = 1/‖∂U_i/∂x₁‖_∞, alignment residuals 0.

    RuntimeError if the grid does not resolve these modes (:func:`check_resolution`).
    """
    check_resolution(bundle.profile, bundle.grid)
    modes = bundle.translation_modes
    alphas = 1.0 / np.max(np.abs(modes), axis=0)
    return NearKernelBasis(
        grid=bundle.grid,
        Phi=modes * alphas,
        alphas=alphas,
        alignment_residuals=np.zeros(alphas.size),
    )


def reduce(
    config: PeakConfiguration,
    profile: GroundStateProfile,
    grid: StripGrid,
    tol: float = 1e-13,
) -> ReductionState:
    """The one pipeline step: ansatz, translation frame, correction (no eigensolve).

    Raises
    ------
    RuntimeError
        If the grid does not resolve the core (:func:`translation_frame`).
    """
    bundle = build_ansatz(config, profile, grid)
    return solve_correction(bundle, translation_frame(bundle), tol=tol)


def _cell(bundle: AnsatzBundle, basis: NearKernelBasis, i: int) -> tuple[np.ndarray, float]:
    """(Ω_i as a mask on the x₁ nodes, ‖φ_i‖²_{H¹} = w φ_i·C_i): the cell and norm
    of peak i's interaction integrals, :func:`interaction_d` and :func:`reduced_jacobian`."""
    return bundle.cell_labels == i, bundle.grid.weight * float(basis.Phi[:, i] @ basis.C[:, i])


def interaction_d(bundle: AnsatzBundle, basis: NearKernelBasis, i: int) -> float:
    """Leading-order projection coefficient from the interaction integral.

    d_i = p α_i / ‖φ_i‖²_{H¹} · ∫_{Ω_i} U_i^{p−1} (ū − U_i) ∂U_i/∂x₁ dx,

    where U_i = Σ_l U_{i,l} is peak i with all its lattice images (the
    ansatz's own peak field), so ū − U_i holds only the other peaks.  On
    the translation frame φ_i = α_i ∂U_i/∂x₁ with α_i = 1/‖∂U_i/∂x₁‖_∞
    exactly; on a rotated eigenbasis α_i is its projection coefficient.
    """
    if bundle.config.k < 2:
        raise ValueError("interaction coefficients require k >= 2")
    p = bundle.profile.exponent
    Ui, dUi = bundle.peak_fields[:, i], bundle.translation_modes[:, i]
    others = bundle.ubar.data.ravel() - Ui
    rows, norm = _cell(bundle, basis, i)

    integrand = (Ui ** (p - 1) * others * dUi).reshape(bundle.grid.shape)
    integral = bundle.grid.weight * float(integrand[rows].sum())
    return p * basis.alphas[i] * integral / norm


def reduced_jacobian(bundle: AnsatzBundle, basis: NearKernelBasis) -> np.ndarray:
    """(k, k) derivative ∂d_i/∂a^j of :func:`interaction_d` in the peak angles.

    Peak j sits at a^j/ε, so ∂(ū − U_i)/∂a^j = −∂₁U_j/ε for j ≠ i (∂₁ = ∂/∂x₁) and

        J[i, j] = −p α_i / ‖φ_i‖²_{H¹} · ∫_{Ω_i} U_i^{p−1} ∂₁U_i ∂₁U_j dx / ε,

    which is small unless j neighbours i: a ring Laplacian.  A rigid rotation
    leaves d unchanged, so J[i, i] = −Σ_{j≠i} J[i, j].  Off uniform spacing it
    misses the lattice-phase part of the projection route's d by a few per cent.
    """
    grid, k = bundle.grid, bundle.config.k
    p = bundle.profile.exponent
    modes = bundle.translation_modes.T.reshape(k, *grid.shape)
    J = np.empty((k, k))
    for i in range(k):
        rows, norm = _cell(bundle, basis, i)
        cell = modes[:, rows].reshape(k, -1)  # every ∂U_j/∂x₁ on Ω_i
        kernel = bundle.peak_fields[:, i].reshape(grid.shape)[rows].ravel() ** (p - 1) * cell[i]
        J[i] = -p * basis.alphas[i] * grid.weight * (cell @ kernel) / (norm * bundle.config.epsilon)
    np.fill_diagonal(J, 0.0)
    np.fill_diagonal(J, -J.sum(axis=1))
    return J


def d_mesh_limit(
    config: PeakConfiguration,
    profile: GroundStateProfile,
    grid: StripGrid,
) -> tuple[np.ndarray, np.ndarray]:
    """Mesh-limit (d_proj, d_int) by Richardson extrapolation over halvings.

    The projection coefficients and the interaction integrals each carry an
    O(h²) discretization error that is flat in the separation and can mask the
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
    """Damped quasi-Newton on peak angles driving every d_i to zero.

    The first angle is pinned (removing the translation family); the
    Jacobian of the remaining angles is :func:`reduced_jacobian`'s, a few per
    cent off that of the projection route's d, so convergence is linear
    (Dennis and Moré, SIAM Rev. 19, 1977) and each step costs one
    :func:`reduce` per trial.  Steps that leave the separation regime or
    fail to reduce max|d| are halved; at most 12 Newton steps are taken.

    Parameters
    ----------
    grid_factory : callable
        ε ↦ StripGrid, so sweeps control resolution in one place.
    tol : float
        Convergence threshold on max |d_i|.
    """
    if initial.k < 2:
        raise ValueError("equilibrate requires k >= 2")
    grid = grid_factory(initial.epsilon)  # the angles move, ε does not

    def evaluate(angles_free):
        config = PeakConfiguration(initial.epsilon, (initial.angles[0], *angles_free))
        return reduce(config, profile, grid)

    free = np.array(initial.angles[1:])
    state = evaluate(free)
    d = state.d_coeffs
    history = [d]
    if np.max(np.abs(d)) < tol:
        return EquilibrateResult(state.bundle.config, history, newton_steps=0)

    for step in range(1, 13):
        J = reduced_jacobian(state.bundle, state.basis)[:, 1:]
        delta, *_ = np.linalg.lstsq(J, -d, rcond=None)
        scale = 1.0
        for _ in range(8):
            try:
                trial = evaluate(free + scale * delta)
            except (ValueError, ContractionError):
                scale *= 0.5
                continue
            if np.max(np.abs(trial.d_coeffs)) < np.max(np.abs(d)) or np.max(
                np.abs(trial.d_coeffs)
            ) < tol:
                break
            scale *= 0.5
        else:
            raise RuntimeError("equilibrate line search failed")
        free = free + scale * delta
        state, d = trial, trial.d_coeffs
        history.append(d)
        if np.max(np.abs(d)) < tol:
            return EquilibrateResult(state.bundle.config, history, newton_steps=step)
    raise RuntimeError(
        f"equilibrate did not reach |d| < {tol} in 12 steps "
        f"(last d = {d})"
    )
