"""Newton continuation to the discrete periodic solution and its probes.

The full equation −Δu + u − u₊^p = 0 is solved by damped Newton from the
multi-peak ansatz.  The x₁-translation family makes the Jacobian singular,
so a scalar pinning constraint ⟨u − u₀, ∂v_pin/∂x₁⟩_{H¹} = 0 is appended
as a bordered row; evenness is *not* imposed by the solver and is checked
a posteriori by reflecting the converged field.

The deviation ψ of the solution from the periodized sum of ground-state
translates is exponentially small in the separation — far below the mesh
truncation error of the discrete solution.  It is therefore measured
through the Lyapunov–Schmidt correction of the equidistributed
configuration (whose error is relative, not absolute), while the discrete
Newton solution is used for the structural probes: two-start uniqueness,
evenness, positivity, and minimal period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .ansatz import (
    AnsatzBundle,
    build_ansatz,
    image_sums,
    peak_distance_field,
    uniform_configuration,
)
from .domain import GridField, align_shift, reflect_x1, shift_x1
from .groundstate import GroundStateProfile
from .reduction import constrained_solve, solve_correction
from .spectrum import lowest_eigenpairs, near_kernel_basis


class NewtonError(RuntimeError):
    """Newton iteration left its basin or hit the iteration cap."""


@dataclass
class DancerSolution:
    """Converged positive periodic solution with its Newton trace."""

    field: GridField
    epsilon: float
    k: int
    pin_location: float
    psi: GridField
    newton_history: list[float]

    @property
    def iterations(self) -> int:
        return len(self.newton_history) - 1


def nonlinear_residual(u: GridField, p: float) -> GridField:
    """F(u) = (−Δ+1)u − u₊^p on the grid."""
    A = u.grid.helmholtz_matrix
    up = np.maximum(u.data, 0.0) ** p
    return GridField(u.grid, (A @ u.data.ravel()).reshape(u.grid.shape) - up)


def newton_solve(
    bundle: AnsatzBundle,
    pin: int = 0,
    tol: float = 1e-11,
    max_iter: int = 40,
    initial: GridField | None = None,
    stall_tol: float = 1e-7,
) -> DancerSolution:
    """Damped Newton on F(u) = (−Δ+1)u − u₊^p with bordered pinning.

    Parameters
    ----------
    bundle : AnsatzBundle
        Supplies the starting guess (its ū unless `initial` is given) and
        the pinning direction ∂v_pin/∂x₁.
    pin : int
        Index of the peak whose translation mode anchors the solution.
    tol : float
        Target on the Euclidean norm of the nodal residual.
    stall_tol : float
        The mesh breaks the continuous translation symmetry, so a pinning
        location incommensurate with the lattice leaves a tiny but nonzero
        residual floor.  A stalled iteration is accepted if its residual
        is already below this floor tolerance.
    """
    grid = bundle.grid
    p = bundle.profile.exponent
    A = grid.helmholtz_matrix
    t_pin = bundle.translation_modes[pin]
    c = grid.weight * (A @ t_pin.data.ravel())
    # the pinning constraint always references the bundle's own ansatz, so
    # probe runs started from different fields target the same bordered root
    u0 = bundle.ubar.data.ravel().copy()
    u = (initial.data.ravel().copy() if initial is not None else u0.copy())
    res = A @ u - np.maximum(u, 0.0) ** p
    history = [float(np.linalg.norm(res))]
    for _ in range(max_iter):
        if history[-1] < tol:
            break
        up = np.maximum(u, 0.0)
        J = A - sp.diags(p * up ** (p - 1) * (u > 0))
        g = float(c @ (u - u0))
        step, _ = constrained_solve(J, c[:, None])(-res, -g)
        # non-monotone acceptance: full steps along the soft near-kernel
        # direction overshoot transiently before Newton contracts, so the
        # reference is the worst of the recent residuals
        ref = max(history[-5:])
        scale, improved = 1.0, False
        for _ in range(12):
            trial = u + scale * step
            trial_res = A @ trial - np.maximum(trial, 0.0) ** p
            if np.linalg.norm(trial_res) < ref:
                improved = True
                break
            scale *= 0.5
        if not improved:
            if history[-1] < stall_tol:
                break  # at the lattice symmetry-breaking floor
            raise NewtonError(
                f"line search exhausted at residual {history[-1]:.3e}"
            )
        u = u + scale * step
        res = A @ u - np.maximum(u, 0.0) ** p
        history.append(float(np.linalg.norm(res)))
        if len(history) >= 4 and history[-4] < stall_tol and history[-1] > 0.5 * history[-4]:
            break  # stagnating below the floor
    else:
        if history[-1] >= stall_tol:
            raise NewtonError(
                f"no convergence in {max_iter} iterations "
                f"(residual {history[-1]:.3e})"
            )

    field = GridField(grid, u.reshape(grid.shape))
    k = bundle.config.k
    pin_loc = bundle.config.positions[pin]
    # ψ against the sub-period lattice through the pin, reaching a period
    # plus 30 decay lengths past the cell on either side
    sub = 2 * np.pi / (k * bundle.config.epsilon)
    L = int(np.ceil((grid.period + 30.0) / sub)) + 1
    images, _, _ = image_sums(bundle.profile, grid, pin_loc + sub * np.arange(-L, L + 1))
    psi = field - GridField(grid, images)
    return DancerSolution(
        field=field,
        epsilon=bundle.config.epsilon,
        k=k,
        pin_location=pin_loc,
        psi=psi,
        newton_history=history,
    )


def verify_evenness(sol: DancerSolution) -> float:
    """Sup difference between the field and its reflection about the pin."""
    reflected = reflect_x1(sol.field, sol.pin_location)
    return (sol.field - reflected).sup_norm()


def align_and_compare(a: GridField, b: GridField) -> float:
    """Sup difference after optimal x₁ alignment of a onto b."""
    tau = align_shift(a, b)
    return (shift_x1(a, tau) - b).sup_norm()


def minimal_period_gaps(sol: DancerSolution) -> tuple[float, float]:
    """(defect at shift 2π/(kε), defect at shift π/(kε)).

    The first should vanish to solver tolerance; the second stays of the
    order of the peak amplitude when 2π/(kε) is the minimal period.
    """
    sub = 2 * np.pi / (sol.k * sol.epsilon)
    full = (sol.field - shift_x1(sol.field, sub)).sup_norm()
    half = (sol.field - shift_x1(sol.field, 0.5 * sub)).sup_norm()
    return full, half


@dataclass
class PsiDecayReport:
    epsilons: np.ndarray
    weighted_sups: np.ndarray
    abscissa: np.ndarray  # π/(kε)
    slope: float
    intercept: float


def psi_decay_fit(
    profile: GroundStateProfile,
    epsilons,
    k: int,
    eta: float,
    grid_factory,
) -> PsiDecayReport:
    """Fit log sup(|ψ| e^{η d_x}) against π/(kε) along an ε sweep.

    ψ is obtained as the converged reduction correction of the uniform
    k-peak configuration, whose accuracy is relative to its own size, so
    the exponentially small decay rate survives discretization.

    Raises
    ------
    RuntimeError
        If the weighted sups are not monotone along the sweep (flags an
        under-resolved run).
    """
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    eps = np.asarray(sorted(epsilons, reverse=True), dtype=float)
    sups = []
    for e in eps:
        grid = grid_factory(e)
        config = uniform_configuration(e, k)
        bundle = build_ansatz(config, profile, grid)
        result = lowest_eigenpairs(bundle, count=k + 3)
        basis = near_kernel_basis(result, bundle)
        state = solve_correction(bundle, basis)
        d_x = peak_distance_field(grid, config.positions)
        sups.append(float(np.max(np.abs(state.correction.data) * np.exp(eta * d_x))))
    sups = np.array(sups)
    if np.any(np.diff(sups) >= 0):
        raise RuntimeError(f"weighted sups not monotone along sweep: {sups}")
    x = np.pi / (k * eps)
    slope, intercept = np.polyfit(x, np.log(sups), 1)
    return PsiDecayReport(
        epsilons=eps,
        weighted_sups=sups,
        abscissa=x,
        slope=float(slope),
        intercept=float(intercept),
    )
