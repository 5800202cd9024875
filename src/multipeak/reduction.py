"""Lyapunov–Schmidt reduction: correction field, projections, equilibration.

The exact equation for u = ū + v is rewritten as

    𝕃v = −M(ū) + R(v),   R(v) = (ū+v)₊^p − ū^p − p ū^{p−1} v,

with v constrained H¹-orthogonal to the near-kernel basis φ_i.  The right
side is split into its component along the (−Δ+1)φ_i (coefficients d_i) and
the orthogonal remainder; the constrained linear solves factor 𝕃 once per
configuration and eliminate the constraints through a k×k Schur complement,
with one refinement step (:func:`constrained_solve`, shared with the
weighted estimates and the pinned Newton step).  Setting
every d_i to zero is the reduced equation for the peak positions; Newton on
those scalars drives the configuration to uniform spacing.  The chain ansatz
→ eigenpairs → near-kernel basis → correction is the one pipeline step
:func:`reduce`.

Both M(ū) and R(v) are evaluated algebraically from the profile — never
through the discrete Laplacian — so the exponentially small scales they
live on are resolved to roundoff rather than to mesh truncation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


def split_projection(
    h: GridField, basis: NearKernelBasis
) -> tuple[GridField, np.ndarray]:
    """Split h = h⊥ + Σ d_i (−Δ+1)φ_i against an H¹-orthogonal basis.

    d_i = ⟨h, φ_i⟩_{L²} / ‖φ_i‖²_{H¹}, so that the remainder pairs to zero
    with every φ_i in the (H⁻¹, H¹) duality.
    """
    B = h.grid.helmholtz_matrix
    d = np.empty(len(basis.fields))
    rem = h.data.copy()
    for i, phi in enumerate(basis.fields):
        l2, h1 = inner_products(h, phi)
        d[i] = l2 / inner_products(phi, phi)[1]
        rem -= d[i] * (B @ phi.data.ravel()).reshape(h.grid.shape)
    return GridField(h.grid, rem), d


def constraint_columns(basis: NearKernelBasis) -> np.ndarray:
    """C with columns (−Δ+1)φ_i, so that Cᵀv = 0 means ⟨v, φ_i⟩_{H¹} = 0 for all i."""
    B = basis.fields[0].grid.helmholtz_matrix
    return np.stack([B @ phi.data.ravel() for phi in basis.fields], axis=1)


def constrained_solve(A, C: np.ndarray):
    """Factor A once and return the solver of the bordered system [[A, C], [Cᵀ, 0]].

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
    growing increments abort with :class:`ContractionError`.
    """
    grid = bundle.grid
    p = bundle.profile.exponent
    L = assemble_linearized(bundle)
    C = constraint_columns(basis)
    solve = constrained_solve(L, C)
    minus_M = -residual(bundle).data

    v = np.zeros(grid.shape)
    mu = np.zeros(bundle.config.k)
    increments, it = [], 0
    for it in range(1, 31):
        h = GridField(grid, minus_M + power_remainder(bundle.ubar.data, v, p))
        h_perp, d = split_projection(h, basis)
        v_flat, mu = solve(h_perp.data.ravel())
        v_new = v_flat.reshape(grid.shape)
        inc = float(np.max(np.abs(v_new - v)))
        increments.append(inc)
        v = v_new
        if inc < tol:
            break
        if len(increments) >= 4 and all(
            increments[-m] > increments[-m - 1] for m in (1, 2, 3)
        ):
            raise ContractionError(
                f"fixed point diverging (increments {increments[-4:]}): "
                f"separation sigma_min = {bundle.config.sigma_min:.3f} too small"
            )
    field = GridField(grid, v)
    h = GridField(grid, minus_M + power_remainder(bundle.ubar.data, v, p))
    h_perp, d = split_projection(h, basis)
    res = float(np.linalg.norm(L @ v.ravel() + C @ mu - h_perp.data.ravel()))
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
