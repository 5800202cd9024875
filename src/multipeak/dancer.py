"""Newton continuation to the discrete periodic solution and its probes.

The full equation −Δu + u − u₊^p = 0 is solved by plain Newton from the
multi-peak ansatz.  The x₁-translation family makes the Jacobian singular,
so a pinning constraint ⟨u − ū, ∂v₀/∂x₁⟩_{H¹} = 0 is appended as a
bordered row with its multiplier μ as one more unknown (Keller's bordering
with a phase condition).  The grid breaks the translation symmetry, so off
the lattice F(u) = 0 has no pinned root; the solver finds F(u) + μc = 0,
and μ vanishes on the lattice and under refinement.  Evenness is *not*
imposed by the solver and is checked a posteriori by reflecting the
converged field.

Near a k-peak solution the Jacobian is degenerate only along the peaks'
translations span{∂U_i/∂x₁}, and the one pin removes only one of them.
Each Newton step deflates all k with the reduction's translation frame and
solves the bordered system by the reduction's `pinned_solve` of the
Jacobian's potential and that frame, one preconditioned MINRES run; nothing
is factored.

The deviation ψ of the solution from the periodized sum of ground-state
translates is exponentially small in the separation — far below the mesh
truncation error of the discrete solution.  It is therefore measured only
through the Lyapunov–Schmidt correction of the equidistributed
configuration (whose error is relative, not absolute; `psi_decay_fit`),
never against the Newton solution, which serves the structural probes:
two-start uniqueness, evenness, positivity, and minimal period.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzBundle, nonlinear_residual, uniform_configuration
from .domain import GridField, align_shift, reflect_x1, shift_x1
from .groundstate import GroundStateProfile
from .reduction import RTOL, pinned_solve, reduce, translation_frame
from .spectrum import potential
from .weighted import weighted_sup


PIN = 0  # index of the peak whose translation mode pins the solution
MAX_ITER = 40


class NewtonError(RuntimeError):
    """‖F(u) + μc‖ did not fall below tol within MAX_ITER steps, or was not finite."""


@dataclass
class DancerSolution:
    """Converged positive periodic solution with its Newton trace."""

    field: GridField
    epsilon: float
    k: int
    pin_location: float
    newton_history: list[float]  # ‖F(u) + μc‖ per iterate
    multiplier: float  # μ of the pinning constraint
    minres_iterations: list[int]  # MINRES iterations of each Newton step

    @property
    def iterations(self) -> int:
        return len(self.newton_history) - 1


def newton_solve(
    bundle: AnsatzBundle,
    tol: float = 1e-11,
    initial: GridField | None = None,
) -> DancerSolution:
    """Newton on G(u, μ) = (F(u) + μc, cᵀ(u − ū)) = 0.

    F(u) = (−Δ+1)u − u₊^p and c is the H¹ pinning direction ∂v₀/∂x₁, so
    the second equation fixes the x₁-translation against the bundle's own
    ansatz ū (starts from different fields target the same root).  The
    multiplier μ is the force that holds the solution at that translate
    against the grid lattice; it vanishes on the lattice and under
    refinement.  Each step deflates the bundle's k translation modes
    (:func:`~multipeak.reduction.translation_frame`), solves the bordered
    system in that frame's coordinates by one preconditioned MINRES run
    (:func:`~multipeak.reduction.pinned_solve`) and updates u and μ
    together.  The run is inexact: step k stops at the forcing term
    η_k = max(RTOL·‖G₀‖/‖G_k‖, min(0.1, (‖G_k‖/‖G₀‖)²)),
    ‖G_k‖ = ‖F(u_k) + μ_k c‖, which keeps Newton's quadratic convergence
    (Dembo, Eisenstat & Steihaug 1982; Eisenstat & Walker 1996) and never
    asks for more absolute accuracy than RTOL on the first right side.

    Parameters
    ----------
    bundle : AnsatzBundle
        Supplies ū (the start unless `initial` is given) and ∂v₀/∂x₁.
    tol : float
        Target on the Euclidean norm of F(u) + μc.

    Raises
    ------
    NewtonError
        If ‖F(u) + μc‖ is not below tol after MAX_ITER steps, or is not
        finite.
    RuntimeError
        If the grid does not resolve the core, or a MINRES run does not
        converge.
    """
    grid = bundle.grid
    frame = translation_frame(bundle)
    p = bundle.profile.exponent
    c = grid.weight * grid.helmholtz(bundle.translation_modes[:, PIN])
    u0 = bundle.ubar.data.ravel()
    u = (bundle.ubar if initial is None else initial).data.ravel()
    mu = 0.0
    history, counts = [], []
    while True:
        field = GridField(grid, u.reshape(grid.shape))
        G = nonlinear_residual(field, p).data.ravel() + mu * c
        history.append(float(np.linalg.norm(G)))
        if history[-1] < tol:
            break
        if len(history) > MAX_ITER or not np.isfinite(history[-1]):
            raise NewtonError(
                f"no convergence: residual {history[-1]:.3e} after "
                f"{len(history) - 1} of {MAX_ITER} iterations"
            )
        eta = max(RTOL * history[0] / history[-1], min(0.1, (history[-1] / history[0]) ** 2))
        step, dmu, its = pinned_solve(
            potential(field, p), frame, c, -G, -float(c @ (u - u0)), rtol=eta)
        counts.append(its)
        u = u + step
        mu += dmu

    return DancerSolution(
        field=field,
        epsilon=bundle.config.epsilon,
        k=bundle.config.k,
        pin_location=bundle.config.positions[PIN],
        newton_history=history,
        multiplier=mu,
        minres_iterations=counts,
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
        config = uniform_configuration(e, k)
        state = reduce(config, profile, grid_factory(e))
        sups.append(weighted_sup(state.correction, config, eta))
    sups = np.array(sups)
    if np.any(np.diff(sups) >= 0):
        raise RuntimeError(f"weighted sups not monotone along sweep: {sups}")
    x = np.pi / (k * eps)
    slope = np.polyfit(x, np.log(sups), 1)[0]
    return PsiDecayReport(
        epsilons=eps,
        weighted_sups=sups,
        abscissa=x,
        slope=float(slope),
    )
