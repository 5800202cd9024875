"""Radial ground state of -ΔU + U - U^p = 0 in R^N.

The profile is computed by the classic overshoot/undershoot shooting method
in the radial variable, bisecting the center value U(0) between initial data
that decay to zero and initial data that turn around or cross zero.  Beyond a
matching radius the stored values switch to the exponential far-field form

    U(r) ≈ L0 * r^((1-N)/2) * exp(-r),

with the constant L0 (and L1 for the derivative) fitted on a window of the
computed tail.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.integrate import solve_ivp
from scipy.interpolate import CubicSpline


class ShootingError(RuntimeError):
    """Bisection bracket could not be established or refined."""

    def __init__(self, message, bracket=None):
        super().__init__(message)
        self.bracket = bracket


class SupercriticalError(ValueError):
    """Exponent outside the subcritical range p < (N+2)/(N-2)."""


_DECAY_FLOOR = 1e-12
_R_MAX = 25.0  # radial extent of the shooting and of the stored profile
_GRID_STEP = 0.005  # spacing of the stored profile


def validate_exponent(dimension: int, p: float) -> None:
    """Reject N < 1, p outside [2, ∞) (NaN included) and supercritical p."""
    if dimension < 1:
        raise ValueError(f"dimension must be >= 1, got {dimension}")
    if not 2 <= p < np.inf:
        raise ValueError(f"exponent must satisfy 2 <= p < inf, got {p}")
    if dimension >= 3 and p >= (dimension + 2) / (dimension - 2):
        raise SupercriticalError(
            f"p = {p} is not subcritical for N = {dimension} "
            f"(requires p < {(dimension + 2) / (dimension - 2)})"
        )


@dataclass(frozen=True)
class GroundStateProfile:
    """Computed radial profile with far-field continuation.

    ``values``/``derivatives`` hold U and U' on ``radial_grid``; past
    ``tail_match_radius`` they follow the fitted exponential form.  The
    arrays are strictly decreasing but not continuous at the matching
    radius: L0 is the mean of r^((N-1)/2) e^r U over the fit window, not its
    value at the window's end, so at N = 2, p = 3 U jumps by 0.49 % there
    (6.12888e-6 just below r = 12, 6.15886e-6 just above).
    """

    dimension: int
    exponent: float
    radial_grid: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    center_value: float
    tail_L0: float
    tail_L1: float
    tail_match_radius: float
    tail_spread_L0: float = 0.0
    tail_spread_L1: float = 0.0

    @cached_property
    def _value_spline(self) -> CubicSpline:
        return CubicSpline(self.radial_grid, self.values)

    @cached_property
    def _value_pieces(self) -> tuple[list, list]:
        """The value spline's breakpoints and coefficients as floats, up to the
        interval that holds the matching radius (the tail needs no spline)."""
        spline = self._value_spline
        n = int(np.searchsorted(spline.x, self.tail_match_radius, side="right")) + 1
        return spline.x[:n].tolist(), spline.c[:, :n - 1].T.tolist()

    @cached_property
    def _derivative_spline(self) -> CubicSpline:
        return CubicSpline(self.radial_grid, self.derivatives)

    def to_json(self) -> str:
        payload = {
            "dimension": self.dimension,
            "exponent": self.exponent,
            "center_value": self.center_value,
            "tail_L0": self.tail_L0,
            "tail_L1": self.tail_L1,
            "tail_match_radius": self.tail_match_radius,
            "tail_spread_L0": self.tail_spread_L0,
            "tail_spread_L1": self.tail_spread_L1,
            "radial_grid": self.radial_grid.tolist(),
            "values": self.values.tolist(),
            "derivatives": self.derivatives.tolist(),
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "GroundStateProfile":
        d = json.loads(text)
        return cls(
            dimension=d["dimension"],
            exponent=d["exponent"],
            radial_grid=np.asarray(d["radial_grid"]),
            values=np.asarray(d["values"]),
            derivatives=np.asarray(d["derivatives"]),
            center_value=d["center_value"],
            tail_L0=d["tail_L0"],
            tail_L1=d["tail_L1"],
            tail_match_radius=d["tail_match_radius"],
            tail_spread_L0=d["tail_spread_L0"],
            tail_spread_L1=d["tail_spread_L1"],
        )


def _radial_rhs(N, p):
    def rhs(r, y):
        u, du = y
        up = max(u, 0.0) ** p
        if r < 1e-10:
            # removable singularity: U''(0) = (U(0) - U(0)^p)/N
            d2u = (u - up) / N
        else:
            d2u = u - up - (N - 1) / r * du
        return (du, d2u)

    return rhs


def _classify(N, p, u0):
    """Integrate from the center and label the initial datum.

    Returns 'low' when U' turns nonnegative while U > 0 (undershoot) and
    'high' when U crosses zero (overshoot).  Dropping below the decay floor
    with U' < 0 counts as 'low': the stable manifold is approached from the
    undershoot side in the bisection.
    """

    def turn_up(r, y):
        return y[1]

    turn_up.terminal = True
    turn_up.direction = 1.0

    def cross_zero(r, y):
        return y[0]

    cross_zero.terminal = True
    cross_zero.direction = -1.0

    def floor_hit(r, y):
        return y[0] - _DECAY_FLOOR

    floor_hit.terminal = True
    floor_hit.direction = -1.0

    sol = solve_ivp(
        _radial_rhs(N, p),
        (0.0, _R_MAX),
        (u0, 0.0),
        method="DOP853",
        rtol=1e-12,
        atol=1e-14,
        events=(turn_up, cross_zero, floor_hit),
        dense_output=False,
    )
    if sol.t_events[1].size:
        return "high"
    if sol.t_events[0].size:
        return "low"
    if sol.t_events[2].size:
        # at the decay floor a true decay has U' ≈ −U; a transversal zero
        # crossing arrives with an O(1)-steeper slope
        return "low" if sol.y_events[2][0][1] > -np.sqrt(_DECAY_FLOOR) else "high"
    # reached _R_MAX with U > 0 decreasing: near-threshold, treat by sign
    return "low" if sol.y[0, -1] > 0 else "high"


def _bracket_center_value(N, p):
    lo = 1.0 + 1e-9
    if _classify(N, p, lo) != "low":
        raise ShootingError("lower bracket endpoint does not undershoot", (lo, None))
    hi = 2.0
    for _ in range(12):
        if _classify(N, p, hi) == "high":
            return lo, hi
        lo = hi
        hi *= 2.0
    raise ShootingError("no overshoot found while expanding bracket", (lo, hi))


def solve_ground_state(dimension: int, p: float, tol: float = 1e-12) -> GroundStateProfile:
    """Compute the positive radial decaying solution of U'' + (N-1)/r U' = U - U^p.

    The profile is stored on [0, 25] with spacing 0.005; the tail constants
    are fitted on [8, 12] clipped to the clean part of the computed tail.

    Parameters
    ----------
    dimension : int
        Space dimension N >= 1.
    p : float
        Nonlinearity exponent, 2 <= p, subcritical for N >= 3.
    tol : float
        Bisection width for the shooting parameter U(0).
    """
    validate_exponent(dimension, p)
    if tol <= 0:
        raise ValueError("tol must be positive")

    lo, hi = _bracket_center_value(dimension, p)
    width = hi - lo
    for _ in range(200):
        if width < tol:
            break
        mid = 0.5 * (lo + hi)
        if _classify(dimension, p, mid) == "low":
            lo = mid
        else:
            hi = mid
        width = hi - lo
    else:
        raise ShootingError("bisection failed to converge", (lo, hi))

    u0 = 0.5 * (lo + hi)
    grid = np.arange(0.0, _R_MAX + 0.5 * _GRID_STEP, _GRID_STEP)
    # tighter settings than the bisection passes: the stored values feed
    # finite-difference residual checks that amplify interpolation noise
    sol = solve_ivp(
        _radial_rhs(dimension, p),
        (0.0, _R_MAX),
        (u0, 0.0),
        method="DOP853",
        rtol=1e-13,
        atol=1e-16,
        max_step=0.05,
        t_eval=grid,
        dense_output=False,
    )
    values = sol.y[0].copy()
    derivs = sol.y[1].copy()
    if values.size < grid.size:  # blow-up truncated the output
        pad = grid.size - values.size
        values = np.concatenate([values, np.full(pad, np.nan)])
        derivs = np.concatenate([derivs, np.full(pad, np.nan)])

    # clean region: positive, decreasing, above the decay floor
    bad = np.flatnonzero(
        ~np.isfinite(values) | (values <= _DECAY_FLOOR) | (derivs >= 0)
    )
    r_clean = grid[bad[0] - 1] if bad.size and bad[0] > 0 else grid[-1]

    hi_r = min(12.0, r_clean)
    fit_window = (max(0.6 * hi_r, hi_r - 4.0), hi_r)
    L0, L1, spread0, spread1 = fit_tail_constants(
        dimension, grid, values, derivs, fit_window
    )

    match_r = fit_window[1]
    tail = grid > match_r
    rt = grid[tail]
    values[tail] = L0 * rt ** ((1 - dimension) / 2) * np.exp(-rt)
    derivs[tail] = -L1 * rt ** ((1 - dimension) / 2) * np.exp(-rt)

    return GroundStateProfile(
        dimension=dimension,
        exponent=p,
        radial_grid=grid,
        values=values,
        derivatives=derivs,
        center_value=u0,
        tail_L0=L0,
        tail_L1=L1,
        tail_match_radius=match_r,
        tail_spread_L0=spread0,
        tail_spread_L1=spread1,
    )


def fit_tail_constants(dimension, grid, values, derivs, window):
    """Fit L0 and L1 from r^((N-1)/2) e^r U(r) over the window.

    Returns (L0, L1, relative spread of L0, relative spread of L1); a spread
    above 5% signals an unconverged tail.
    """
    r_lo, r_hi = window
    mask = (grid >= r_lo) & (grid <= r_hi)
    if not mask.any():
        raise ValueError(f"fit window {window} outside computed grid")
    r = grid[mask]
    if values[mask].min() <= 0:
        raise ValueError("fit window reaches nonpositive values")
    if values[mask].max() > 1e-2:
        raise ValueError("fit window starts before U drops below 1e-2")
    weight = r ** ((dimension - 1) / 2) * np.exp(r)
    w0 = weight * values[mask]
    w1 = weight * np.abs(derivs[mask])
    L0, L1 = w0.mean(), w1.mean()
    spread0 = (w0.max() - w0.min()) / L0
    spread1 = (w1.max() - w1.min()) / L1
    if spread0 > 0.05 or spread1 > 0.05:
        raise ShootingError(
            f"tail fit spread too large ({spread0:.3g}, {spread1:.3g}): "
            "unconverged tail"
        )
    return L0, L1, spread0, spread1


def profile_tail_constants(profile: GroundStateProfile, window) -> tuple[float, float]:
    """Re-fit (L0, L1) on an existing profile over a chosen window."""
    L0, L1, _, _ = fit_tail_constants(
        profile.dimension,
        profile.radial_grid,
        profile.values,
        profile.derivatives,
        window,
    )
    return L0, L1


# e^{-r} stays normal below it; larger |r|, ±inf and NaN take the vector
# path, which guards underflow
_POINT_LIMIT = 700.0


def _radial_point(profile: GroundStateProfile, x: float):
    """U at one finite |x| < _POINT_LIMIT, bit for bit as the vector path.

    The interval search and the power sum follow scipy's PPoly evaluation;
    the tail uses numpy's power and exp, whose vector loops differ from
    Python's ``**`` and ``math.exp`` in the last bit.
    """
    if x <= profile.tail_match_radius:
        knots, coeffs = profile._value_pieces
        i = min(max(bisect_right(knots, x) - 1, 0), len(knots) - 2)
        c0, c1, c2, c3 = coeffs[i]
        s = x - knots[i]
        return c3 + c2 * s + c1 * (s * s) + c0 * ((s * s) * s)
    return profile.tail_L0 * np.power(x, (1 - profile.dimension) / 2) * np.exp(-x)


def eval_radial(profile: GroundStateProfile, r):
    """U(r), vectorized; asymptotic branch beyond the matching radius.

    A single point skips the array machinery: quadrature integrands call
    this one point at a time, where that overhead dominates.
    """
    r = np.asarray(r, dtype=float)
    if r.size == 1 and abs(x := r.item()) < _POINT_LIMIT:
        return np.asarray(_radial_point(profile, x)).reshape(r.shape)
    out = np.empty_like(r)
    inner = r <= profile.tail_match_radius
    out[inner] = profile._value_spline(r[inner])
    rt = r[~inner]
    with np.errstate(under="ignore"):
        out[~inner] = (
            profile.tail_L0 * rt ** ((1 - profile.dimension) / 2) * np.exp(-rt)
        )
    return out


def eval_radial_derivative(profile: GroundStateProfile, r):
    """U'(r), vectorized, with the leading-order exponential tail."""
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    inner = r <= profile.tail_match_radius
    out[inner] = profile._derivative_spline(r[inner])
    rt = r[~inner]
    with np.errstate(under="ignore"):
        out[~inner] = (
            -profile.tail_L1 * rt ** ((1 - profile.dimension) / 2) * np.exp(-rt)
        )
    return out


def ode_residual(profile: GroundStateProfile, r_max: float | None = None):
    """|U'' + (N-1)/r U' - U + U^p| on interior nodes of the shooting region.

    U'' is formed by sixth-order central differences of the stored U'
    values, independent of the integrator's own right-hand side.
    """
    if r_max is None:
        r_max = profile.tail_match_radius
    r = profile.radial_grid
    u = profile.values
    du = profile.derivatives
    h = r[1] - r[0]
    # sixth-order interior first derivative of U'
    d2u = np.full_like(u, np.nan)
    d2u[3:-3] = (
        -du[:-6] / 60 + 0.15 * du[1:-5] - 0.75 * du[2:-4]
        + 0.75 * du[4:-2] - 0.15 * du[5:-1] + du[6:] / 60
    ) / h
    mask = (r > 3 * h) & (r < r_max - 3 * h)
    N, p = profile.dimension, profile.exponent
    res = d2u[mask] + (N - 1) / r[mask] * du[mask] - u[mask] + u[mask] ** p
    return r[mask], np.abs(res)
