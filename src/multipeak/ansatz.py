"""Multi-peak approximate solutions on the periodic strip.

A configuration places k peaks at angles a¹ < … < a^k on the circle; the
approximate solution is the periodized sum of ground-state translates

    ū(x) = Σ_{i=1}^k Σ_{l∈ℤ} U(x₁ - a^i/ε - 2πl/ε, x₂),

with each image kept only on the x₁ rows within its reach (`image_sums`),
beyond which it is below 2⁻⁶⁰ of the peak's nearest copy.
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

from .domain import GridField, StripGrid, wrap
from .groundstate import GroundStateProfile, radial_pair


@dataclass(frozen=True)
class PeakConfiguration:
    """Peak angles on the circle with derived gaps."""

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
        i = int(np.argmin(self.gaps))
        if not self.gaps[i] > 2.0:
            raise ValueError(f"peak separation violated: the smallest gap, {self.gaps[i]:.6g} "
                             f"from peak {i} to peak {(i + 1) % self.k}, must exceed 2")

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

    def shifted(self, tau_angle: float) -> "PeakConfiguration":
        """Rotate every peak by the same angle (wrapped and re-sorted)."""
        a = wrap(np.asarray(self.angles) + tau_angle, 2 * np.pi)
        return PeakConfiguration(self.epsilon, tuple(np.sort(a)))


def uniform_configuration(epsilon: float, k: int) -> PeakConfiguration:
    """k equally spaced peaks starting at angle −π; ValueError, before any angle
    is built, unless their gap 2π/(kε) exceeds 2."""
    if k * epsilon >= np.pi:
        raise ValueError(f"peak separation violated: the equal gap 2 pi/(k eps) of k = {k} peaks "
                         f"at eps = {epsilon:g} is {2 * np.pi / (k * epsilon):.6g}, must exceed 2")
    return PeakConfiguration(
        epsilon, tuple(-np.pi + 2 * np.pi * i / k for i in range(k))
    )


@dataclass
class AnsatzBundle:
    """ū together with its per-peak pieces and cell partition.

    The per-peak fields are (n, k) column-major blocks, n = n₁n₂: column i
    is U_i or ∂U_i/∂x₁ flattened."""

    config: PeakConfiguration
    profile: GroundStateProfile
    grid: StripGrid
    ubar: GridField
    peak_fields: np.ndarray
    translation_modes: np.ndarray
    cell_labels: np.ndarray  # (n₁,): the peak nearest each x₁ column
    power_sum: GridField  # Σ_{i,l} U_{i,l}^p, kept for the algebraic residual


# Points per block of `image_sums`: each temporary is at most 128 KiB, so a
# block's dozen of them stay in cache.  `build_ansatz` at 592×195 takes 39–43
# ms in blocks of 8k, 16k or 32k points and 51 ms on whole fields (fastest of
# 15, one BLAS thread, 2-core Xeon).  84 rows at every level, 16k points there,
# take 2.5 ms instead of 2.1 at 148×48: hence a budget in points, not rows.
_BLOCK = 16_384


def image_sums(profile: GroundStateProfile, grid: StripGrid, position: float):
    """(Σ_c U_c, Σ_c ∂U_c/∂x₁, Σ_c U_c^p) with U_c = U(x₁ − c, x₂), c = position + lP.

    Every node lies within D = hypot(P/2, R) of the nearest c, and U′/U ≤ −1
    for r ≥ R ≥ `MIN_TRANSVERSE`, so an image is below 2⁻⁶⁰ of that copy's U
    on the rows beyond its reach ρ = D + 60 ln 2 (at 54 ln 2, half an ulp,
    they still moved the rounding of a few nodes by an ulp).  Each image is
    evaluated only on the contiguous x₁ rows with |x₁ − c| < ρ; one that
    reaches no row is skipped.  The grid is walked in blocks of whole x₁
    rows, at most `_BLOCK` points each; within a block the images are added
    in ascending c, U and U' of each from one `radial_pair`.
    """
    n1, n2 = grid.shape
    p, x1, period = profile.exponent, grid.x1, grid.period
    reach = math.hypot(period / 2, grid.transverse_extent) + 60 * math.log(2)
    centres = position + period * np.arange(math.ceil((x1[0] - reach - position) / period),
                                            math.floor((x1[-1] + reach - position) / period) + 1)
    first, stop = np.searchsorted(x1, centres - reach, "right"), np.searchsorted(x1, centres + reach)
    v, dv, vp = (np.zeros(grid.shape) for _ in range(3))
    rows = max(1, _BLOCK // n2)
    for a in range(0, n1, rows):
        for c, lo, hi in zip(centres, np.maximum(first, a), np.minimum(stop, a + rows)):
            if lo < hi:
                x = x1[lo:hi, None] - c
                r = np.hypot(x, grid.x2)
                u, du = radial_pair(profile, r)
                v[lo:hi] += u
                vp[lo:hi] += u**p
                dv[lo:hi] += du * x / r
    return v, dv, vp


def _x1_distances(grid: StripGrid, positions) -> np.ndarray:
    """[i, j] = |wrap(x₁ⱼ − posᵢ)|, the periodic x₁ distance of column j to peak i."""
    return np.abs(wrap(grid.x1 - np.asarray(positions)[:, None], grid.period))


def peak_distance_field(grid: StripGrid, positions) -> np.ndarray:
    """d_x: distance of every node to the nearest peak image."""
    return np.hypot(_x1_distances(grid, positions).min(axis=0)[:, None], grid.x2)


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

    k, n = config.k, grid.size
    # column-major (n, k) blocks, so each peak's column is contiguous
    peak_fields, translation_modes = np.empty((k, n)).T, np.empty((k, n)).T
    ubar = np.zeros(grid.shape)
    power_sum = np.zeros(grid.shape)
    for i in range(k):
        v, dv, vp = image_sums(profile, grid, config.positions[i])
        peak_fields[:, i], translation_modes[:, i] = v.ravel(), dv.ravel()
        ubar += v
        power_sum += vp

    return AnsatzBundle(
        config=config,
        profile=profile,
        grid=grid,
        ubar=GridField(grid, ubar),
        peak_fields=peak_fields,
        translation_modes=translation_modes,
        # the nearest peak in x₁; argmin takes the first, so ties go to the lower index
        cell_labels=np.argmin(_x1_distances(grid, config.positions), axis=0),
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


def residual_rate(sigma_min: float, dimension: int) -> float:
    """Reference scale e^{−2σ̲} σ̲^{(1−N)/2} for residual/correction ratios;
    ValueError where it underflows to 0 (σ̲ > 371.09 for N = 2)."""
    rate = math.exp(-2 * sigma_min) * sigma_min ** ((1 - dimension) / 2)
    if rate == 0:
        raise ValueError(f"sigma_min = {sigma_min:.6g}: the rate e^(-2 sigma_min) sigma_min^((1-N)/2) "
                         "underflows to 0 for sigma_min > 371.09 (N = 2)")
    return rate
