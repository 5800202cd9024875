"""Exponentially weighted a priori estimates for the linearized solves.

If h is orthogonal to the near-kernel and 𝕃ξ = h with ξ orthogonal as
well, then ξ inherits the exponential weight of h: sup (|ξ|+|∇ξ|) e^{η d_x}
is controlled by sup |h| e^{η d_x} for every η ∈ (0, 1), where d_x is the
distance to the nearest peak image.  This module performs the constrained
solve (the reduction's `complement_solve` of 𝕃 and the frame) and computes
both weighted norms so the ratio can be tracked along parameter sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzBundle, PeakConfiguration, peak_distance_field
from .domain import GridField, gradient_magnitude, inner_products
from .reduction import complement_solve
from .spectrum import NearKernelBasis, linearized

DEFAULT_ETAS = (0.3, 0.5, 0.7)


@dataclass
class WeightedReport:
    """Weighted sup norms of a right-hand side / solution pair."""

    eta: float
    input_weighted_norm: float
    output_weighted_norm: float

    @property
    def ratio(self) -> float:
        if self.input_weighted_norm == 0:
            return 0.0 if self.output_weighted_norm == 0 else np.inf
        return self.output_weighted_norm / self.input_weighted_norm


def weighted_sup(
    field: GridField,
    config: PeakConfiguration,
    eta: float,
    include_gradient: bool = False,
) -> float:
    """sup over nodes of (|field| (+ |∇field|)) e^{η d_x}."""
    if not 0 < eta < 1:
        raise ValueError("eta must lie in (0, 1)")
    d_x = peak_distance_field(field.grid, config.positions)
    mag = np.abs(field.data)
    if include_gradient:
        mag = mag + gradient_magnitude(field)
    return float(np.max(mag * np.exp(eta * d_x)))


def solve_orthogonal(
    h: GridField,
    bundle: AnsatzBundle,
    basis: NearKernelBasis,
) -> GridField:
    """Solve 𝕃ξ = h⊥ with ⟨ξ, φ_i⟩_{H¹} = 0 by one
    :func:`~multipeak.reduction.complement_solve` (MINRES on the near-kernel's
    complement, preconditioned by the fast B⁻¹).

    h is projected onto the orthogonal complement first, so any near-kernel
    component of the input is discarded rather than amplified.

    Raises
    ------
    RuntimeError
        If the relative residual of 𝕃ξ + Cμ = h⊥ exceeds 1e-10 or the
        orthogonality defect exceeds 1e-8.
    """
    L = linearized(bundle.ubar, bundle.profile.exponent)
    h_perp, _ = basis.split(h.data)
    xi_vec, mu, _ = complement_solve(L, basis, h_perp)
    xi = GridField(h.grid, xi_vec.reshape(h.grid.shape))
    rhs_norm = np.linalg.norm(h_perp)
    res = np.linalg.norm(L(xi_vec) + basis.C @ mu - h_perp)
    if rhs_norm > 0 and res > 1e-10 * rhs_norm:
        raise RuntimeError(f"constrained MINRES solve residual {res:.3e} too large")
    xi_h1 = max(inner_products(xi, xi)[1], 1e-300)
    for phi in basis.fields:
        defect = abs(inner_products(xi, phi)[1]) / (
            np.sqrt(xi_h1) * np.sqrt(inner_products(phi, phi)[1])
        )
        if defect > 1e-8:
            raise RuntimeError(f"orthogonality defect {defect:.3e} too large")
    return xi


def weighted_report(
    h: GridField,
    bundle: AnsatzBundle,
    basis: NearKernelBasis,
    eta: float,
) -> WeightedReport:
    """Solve 𝕃ξ = h⊥ and compare weighted sup norms of h and ξ."""
    xi = solve_orthogonal(h, bundle, basis)
    return WeightedReport(
        eta=eta,
        input_weighted_norm=weighted_sup(h, bundle.config, eta),
        output_weighted_norm=weighted_sup(
            xi, bundle.config, eta, include_gradient=True
        ),
    )
