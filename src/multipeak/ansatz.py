"""Multi-peak approximate solutions on the periodic strip.

A configuration places k peaks at angles a¹ < … < a^k on the circle; the
approximate solution is the periodized sum of ground-state translates

    ū(x) = Σ_{i=1}^k Σ_{l=-L}^{L} U(x₁ - a^i/ε - 2πl/ε, x₂),

with the lattice sum truncated once the omitted images are below 1e-12.
The residual of ū in the equation reduces to the algebraic identity

    M(ū) = Σ_{i,l} U_{i,l}^p - (Σ_{i,l} U_{i,l})^p,

which is evaluated pointwise from the profile (no discretization error), so
its exponentially small size in the peak separation is actually measurable.
The discrete F(u) = (−Δ+1)u − u₊^p, `nonlinear_residual`, is the residual
of the Newton solve in `dancer`; at ū it agrees with M(ū) to O(h²), which
the tests use as a cross-check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .domain import GridField, StripGrid, l2_norm
from .groundstate import GroundStateProfile, eval_radial, eval_radial_derivative


@dataclass(frozen=True)
class PeakConfiguration:
    """Peak angles on the circle with derived gaps and lattice cutoff."""

    epsilon: float
    angles: tuple[float, ...]

    def __post_init__(self):
        # each check is written so that NaN fails it
        if not self.epsilon > 0:
            raise ValueError("epsilon must be positive")
        a = np.asarray(self.angles, dtype=float)
        if a.size < 1:
            raise ValueError("need at least one peak")
        if not np.all(np.diff(a) > 0):
            raise ValueError("angles must be strictly increasing")
        if not -np.pi <= a[0] <= a[-1] < np.pi:
            raise ValueError("angles must lie in [-pi, pi)")
        object.__setattr__(self, "angles", tuple(float(v) for v in a))
        if not np.all(np.asarray(self.gaps) > 2.0):
            raise ValueError(
                f"peak separation violated: gaps {self.gaps} must all exceed 2"
            )

    @property
    def k(self) -> int:
        return len(self.angles)

    @property
    def period(self) -> float:
        return 2 * np.pi / self.epsilon

    @property
    def positions(self) -> tuple[float, ...]:
        """Peak locations a^i/ε on the x₁ axis."""
        return tuple(a / self.epsilon for a in self.angles)

    @cached_property
    def gaps(self) -> tuple[float, ...]:
        """Distance from each peak to its right neighbor (last one wraps)."""
        a = np.asarray(self.angles)
        ghost_right = a[0] + 2 * np.pi
        right = np.append(a[1:], ghost_right)
        return tuple((right - a) / self.epsilon)

    @cached_property
    def half_gaps(self) -> tuple[float, ...]:
        """σ_i = half the distance from peak i to its nearest neighbor image."""
        g = self.gaps
        k = self.k
        if k == 1:
            return (0.5 * self.period,)
        return tuple(0.5 * min(g[i - 1], g[i]) for i in range(k))

    @property
    def sigma_min(self) -> float:
        return min(self.half_gaps)

    @property
    def lattice_cutoff(self) -> int:
        return math.ceil(self.epsilon * (30 + max(self.gaps)) / (2 * np.pi)) + 1

    def image_positions(self, i: int) -> np.ndarray:
        """All lattice images of peak i within the cutoff."""
        L = self.lattice_cutoff
        return self.positions[i] + self.period * np.arange(-L, L + 1)

    def shifted(self, tau_angle: float) -> "PeakConfiguration":
        """Rotate every peak by the same angle (wrapped and re-sorted)."""
        a = (np.asarray(self.angles) + tau_angle + np.pi) % (2 * np.pi) - np.pi
        return PeakConfiguration(self.epsilon, tuple(np.sort(a)))


def uniform_configuration(epsilon: float, k: int) -> PeakConfiguration:
    """k equally spaced peaks starting at angle −π."""
    return PeakConfiguration(
        epsilon, tuple(-np.pi + 2 * np.pi * i / k for i in range(k))
    )


@dataclass
class AnsatzBundle:
    """ū together with its per-peak pieces and cell partition."""

    config: PeakConfiguration
    profile: GroundStateProfile
    grid: StripGrid
    ubar: GridField
    peak_fields: list[GridField]
    translation_modes: list[GridField]
    cell_labels: np.ndarray
    power_sum: GridField  # Σ_{i,l} U_{i,l}^p, kept for the algebraic residual


def image_sums(profile: GroundStateProfile, grid: StripGrid, centres):
    """(Σ_c U_c, Σ_c ∂U_c/∂x₁, Σ_c U_c^p) with U_c = U(x₁ − c, x₂).

    The one sum over ground-state translates; `build_ansatz` passes the
    lattice images of one peak within `PeakConfiguration.lattice_cutoff`.
    """
    X1, X2 = grid.meshes()
    p = profile.exponent
    v = np.zeros(grid.shape)
    dv = np.zeros(grid.shape)
    vp = np.zeros(grid.shape)
    for pos in centres:
        r = np.hypot(X1 - pos, X2)
        u = eval_radial(profile, r)
        v += u
        vp += u**p
        with np.errstate(invalid="ignore", divide="ignore"):
            du = np.where(r > 0, eval_radial_derivative(profile, r) * (X1 - pos) / r, 0.0)
        dv += du
    return v, dv, vp


def peak_distance_field(grid: StripGrid, positions) -> np.ndarray:
    """d_x: distance of every node to the nearest peak image."""
    X1, X2 = grid.meshes()
    d = np.full(grid.shape, np.inf)
    for pos in positions:
        dx1 = grid.wrap_x1(X1 - pos)
        d = np.minimum(d, np.hypot(dx1, X2))
    return d


def build_ansatz(
    config: PeakConfiguration, profile: GroundStateProfile, grid: StripGrid
) -> AnsatzBundle:
    """Assemble ū = Σ v_i, the translation modes, and the cell partition.

    Raises
    ------
    ValueError
        If the grid period does not match the configuration.
    """
    if not np.isclose(grid.period, config.period, rtol=1e-12):
        raise ValueError("grid period does not match configuration period")

    peak_fields, translation_modes = [], []
    ubar = np.zeros(grid.shape)
    power_sum = np.zeros(grid.shape)
    for i in range(config.k):
        v, dv, vp = image_sums(profile, grid, config.image_positions(i))
        peak_fields.append(GridField(grid, v))
        translation_modes.append(GridField(grid, dv))
        ubar += v
        power_sum += vp

    # cell labels: nearest peak in periodic x₁ distance, ties to lower index
    dists = np.stack([np.abs(grid.wrap_x1(grid.x1 - pos)) for pos in config.positions])
    labels_x1 = np.argmin(dists, axis=0)  # argmin takes the first minimum
    cell_labels = np.repeat(labels_x1[:, None], grid.nodes_xp, axis=1)

    return AnsatzBundle(
        config=config,
        profile=profile,
        grid=grid,
        ubar=GridField(grid, ubar),
        peak_fields=peak_fields,
        translation_modes=translation_modes,
        cell_labels=cell_labels,
        power_sum=GridField(grid, power_sum),
    )


def residual(bundle: AnsatzBundle) -> GridField:
    """M(ū) = Σ U_{i,l}^p − (Σ U_{i,l})^p, evaluated algebraically."""
    p = bundle.profile.exponent
    total = np.maximum(bundle.ubar.data, 0.0) ** p
    return GridField(bundle.grid, bundle.power_sum.data - total)


def nonlinear_residual(u: GridField, p: float) -> GridField:
    """F(u) = (−Δ+1)u − u₊^p with the discrete operator.

    At ū it carries the O(h²) truncation error of the stencil, so it only
    agrees with :func:`residual` to discretization tolerance.
    """
    return GridField(u.grid, u.grid.helmholtz(u.data) - np.maximum(u.data, 0.0) ** p)


def residual_l2(bundle: AnsatzBundle) -> float:
    """Quadrature L² norm of the algebraic residual."""
    return l2_norm(residual(bundle))


def residual_rate(sigma_min: float, dimension: int) -> float:
    """Reference scale e^{−2σ̲} σ̲^{(1−N)/2} for residual/correction ratios."""
    return math.exp(-2 * sigma_min) * sigma_min ** ((1 - dimension) / 2)
