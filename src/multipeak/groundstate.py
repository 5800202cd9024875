"""Radial ground state of -ΔU + U - U^p = 0 in R^N.

The profile is one discrete boundary value problem on the nodes
r_j = 0.005 j of [0, r_m], r_m = 12: eighth-order central differences, an
even reflection at r = 0 and, past r_m, ghost nodes that follow the
far-field shape

    T(r) = r^((1-N)/2) e^{-r} Σ_{k≤3} a_k(ν) r^{-k},   ν = (N-2)/2,

the truncated large-r expansion of r^{-ν} K_ν(r) (DLMF 10.40.2; exact for
N = 1 and N = 3).  This is the asymptotic boundary condition of Lentini &
Keller (SIAM J. Numer. Anal. 17, 1980).  A Petviashvili iteration from
2 sech(r)^{2/(p-1)} leads into Newton's basin, and every step of either is
one banded solve.  Beyond r_m the profile is U = L0 T with L0 = U(r_m)/T(r_m),
so U and U' are continuous there.
"""

from __future__ import annotations

import json
from bisect import bisect_right
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np
from scipy import sparse
from scipy.interpolate import CubicSpline
from scipy.linalg import solve_banded


class SupercriticalError(ValueError):
    """Exponent outside the subcritical range p < (N+2)/(N-2)."""


_R_MATCH = 12.0  # end of the solved nodes, where the far field takes over
_GRID_STEP = 0.005  # spacing of the solved nodes
# eighth-order central differences for U' and U'' on offsets -4..4
_D1 = np.array([1 / 280, -4 / 105, 1 / 5, -4 / 5, 0.0, 4 / 5, -1 / 5, 4 / 105, -1 / 280])
_D2 = np.array([-1 / 560, 8 / 315, -1 / 5, 8 / 5, -205 / 72, 8 / 5, -1 / 5, 8 / 315, -1 / 560])
# 9-point closed Newton–Cotes weights (in units of the node spacing), the
# rationals of scipy.integrate.newton_cotes(8, 1) over 28,350
NEWTON_COTES_9 = np.array([7912, 47104, -7424, 83968, -36320, 83968, -7424, 47104, 7912]) / 28350
_NEWTON_TOL = 1e-10  # sup of the last Newton step, relative to U(0)
_POHOZAEV_TOL = 1e-6


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


@cache
def _series(dimension: int) -> tuple[float, ...]:
    """a_0..a_3 with a_k = Π_{j≤k} (4ν² − (2j−1)²)/(k! 8^k), ν = (N−2)/2."""
    a = [1.0]
    for k in range(1, 4):
        a.append(a[-1] * ((dimension - 2) ** 2 - (2 * k - 1) ** 2) / (8 * k))
    return tuple(a)


def far_field(dimension: int, r, derivative: bool = False):
    """The far-field shape T(r), or T'(r), for r > 0.

    Scalars and arrays take the same numpy operations in the same order, so
    a single point gives the vector path's value bit for bit.
    """
    a0, a1, a2, a3 = _series(dimension)
    alpha = (1 - dimension) / 2
    q = 1 / r
    s = a0 + q * (a1 + q * (a2 + q * a3))
    if derivative:
        s = (alpha * q - 1) * s - q * q * (a1 + q * (2 * a2 + q * 3 * a3))
    return np.power(r, alpha) * np.exp(-r) * s


@dataclass(frozen=True)
class GroundStateProfile:
    """Computed radial profile with far-field continuation.

    ``values``/``derivatives`` hold U and U' on ``radial_grid``, the solved
    nodes of [0, tail_match_radius]; past it U = tail_L0 · T.
    """

    dimension: int
    exponent: float
    radial_grid: np.ndarray
    values: np.ndarray
    derivatives: np.ndarray
    center_value: float
    tail_L0: float
    tail_match_radius: float

    @cached_property
    def _value_spline(self) -> CubicSpline:
        return CubicSpline(self.radial_grid, self.values)

    @cached_property
    def _value_pieces(self) -> tuple[list, list]:
        """The value spline's breakpoints and coefficients as floats."""
        spline = self._value_spline
        return spline.x.tolist(), spline.c.T.tolist()

    @cached_property
    def _derivative_spline(self) -> CubicSpline:
        return CubicSpline(self.radial_grid, self.derivatives)

    def to_json(self) -> str:
        payload = {
            "dimension": self.dimension,
            "exponent": self.exponent,
            "center_value": self.center_value,
            "tail_L0": self.tail_L0,
            "tail_match_radius": self.tail_match_radius,
            "radial_grid": self.radial_grid.tolist(),
            "values": self.values.tolist(),
            "derivatives": self.derivatives.tolist(),
        }
        return json.dumps(payload)


def _stencil_matrix(stencil, n, ghost):
    """The 9-point stencil on nodes 0..n−1 with u_{−j} = u_j and the ghost
    nodes past the end u_{n−1+i} = ghost[i−1]·u_{n−1}."""
    rows = np.repeat(np.arange(n), 9)
    cols = rows + np.tile(np.arange(-4, 5), n)
    vals = np.tile(stencil, n)
    past = cols >= n
    vals[past] *= ghost[cols[past] - n]
    cols = np.where(past, n - 1, np.abs(cols))
    return sparse.csr_matrix((vals, (rows, cols)), shape=(n, n))


def _band(matrix):
    """``matrix`` in the (9, n) storage of ``solve_banded((4, 4), ...)``."""
    coo = matrix.tocoo()
    ab = np.zeros((9, matrix.shape[0]))
    ab[4 + coo.row - coo.col, coo.col] = coo.data
    return ab


def solve_ground_state(dimension: int, p: float) -> GroundStateProfile:
    """Compute the positive radial decaying solution of U'' + (N-1)/r U' = U - U^p.

    The discrete problem lives on the nodes 0.005 j of [0, 12].  Raises
    RuntimeError when Newton does not converge, when U is not positive and
    strictly decreasing, or when ∫|∇U|²/∫U^{p+1} on the nodes misses the
    Pohozaev value N(p−1)/(2(p+1)) by more than 1e-6 relative.

    Parameters
    ----------
    dimension : int
        Space dimension N >= 1.
    p : float
        Nonlinearity exponent, 2 <= p, subcritical for N >= 3.
    """
    validate_exponent(dimension, p)
    N, h = dimension, _GRID_STEP
    r = np.arange(0.0, _R_MATCH + 0.5 * h, h)
    n = r.size
    ghost = far_field(N, r[-1] + h * np.arange(1, 5)) / far_field(N, r[-1])
    d1 = _stencil_matrix(_D1 / h, n, ghost)
    d2 = _stencil_matrix(_D2 / h**2, n, ghost)
    # (N−1)U'/r → (N−1)U''(0) at the center
    radial = np.concatenate([[0.0], (N - 1) / r[1:]])
    scale = np.concatenate([[N], np.ones(n - 1)])
    linear = sparse.diags(scale) @ d2 + sparse.diags(radial) @ d1 - sparse.identity(n)
    band = _band(linear)

    # Petviashvili: u ← M^{p/(p−1)} L⁻¹u^p, L = 1 − Δ, M = ⟨u, Lu⟩/⟨u, u^p⟩
    weight = r ** (N - 1)
    u = 2.0 / np.cosh(r) ** (2 / (p - 1))
    for _ in range(200):
        up = np.maximum(u, 0.0) ** p
        m = (weight @ (u * -(linear @ u))) / (weight @ (u * up))
        new = m ** (p / (p - 1)) * solve_banded((4, 4), -band, up)
        change = np.max(np.abs(new - u))
        u = new
        if not change > 1e-3 * u[0]:
            break

    for _ in range(30):
        up = np.maximum(u, 0.0)
        jac = band.copy()
        jac[4] += p * up ** (p - 1)
        step = solve_banded((4, 4), jac, linear @ u + up**p)
        u = u - step
        if np.max(np.abs(step)) <= _NEWTON_TOL * u[0]:
            break
    else:
        raise RuntimeError(f"ground-state Newton did not converge (N = {N}, p = {p})")

    du = d1 @ u
    if not (np.all(u > 0) and np.all(np.diff(u) < 0)):
        raise RuntimeError(f"ground state is not positive and decreasing (N = {N}, p = {p})")
    # composite 9-point Newton–Cotes weights, eighth order like the
    # differences: Simpson's own O(h⁴) error passes 1e-6 at N = 2, p = 9
    quad = np.zeros(n)
    quad[:-1] = np.tile(NEWTON_COTES_9[:-1], (n - 1) // 8)
    quad[8::8] += NEWTON_COTES_9[-1]
    ratio = (quad @ (weight * du**2)) / (quad @ (weight * u ** (p + 1)))
    defect = abs(ratio / (N * (p - 1) / (2 * (p + 1))) - 1)
    if not defect <= _POHOZAEV_TOL:
        raise RuntimeError(
            f"Pohozaev identity violated by {defect:.2e} (N = {N}, p = {p}): "
            "the core is not resolved on the grid"
        )
    return GroundStateProfile(
        dimension=N,
        exponent=p,
        radial_grid=r,
        values=u,
        derivatives=du,
        center_value=float(u[0]),
        tail_L0=float(u[-1] / far_field(N, r[-1])),
        tail_match_radius=float(r[-1]),
    )


# e^{-r} stays normal below it; larger |r|, ±inf and NaN take the vector
# path, which guards underflow
_POINT_LIMIT = 700.0


def _radial_point(profile: GroundStateProfile, x: float):
    """U at one finite |x| < _POINT_LIMIT, bit for bit as the vector path.

    The interval search and the power sum follow scipy's PPoly evaluation.
    """
    if x <= profile.tail_match_radius:
        knots, coeffs = profile._value_pieces
        i = min(max(bisect_right(knots, x) - 1, 0), len(knots) - 2)
        c0, c1, c2, c3 = coeffs[i]
        s = x - knots[i]
        return c3 + c2 * s + c1 * (s * s) + c0 * ((s * s) * s)
    return profile.tail_L0 * far_field(profile.dimension, x)


def eval_radial(profile: GroundStateProfile, r):
    """U(r), vectorized; far-field branch beyond the matching radius.

    A single point skips the array machinery: quadrature integrands call
    this one point at a time, where that overhead dominates.
    """
    r = np.asarray(r, dtype=float)
    if r.size == 1 and abs(x := r.item()) < _POINT_LIMIT:
        return np.asarray(_radial_point(profile, x)).reshape(r.shape)
    out = np.empty_like(r)
    inner = r <= profile.tail_match_radius
    out[inner] = profile._value_spline(r[inner])
    with np.errstate(under="ignore"):
        out[~inner] = profile.tail_L0 * far_field(profile.dimension, r[~inner])
    return out


def eval_radial_derivative(profile: GroundStateProfile, r):
    """U'(r), vectorized; far-field branch beyond the matching radius."""
    r = np.asarray(r, dtype=float)
    out = np.empty_like(r)
    inner = r <= profile.tail_match_radius
    out[inner] = profile._derivative_spline(r[inner])
    with np.errstate(under="ignore"):
        out[~inner] = profile.tail_L0 * far_field(profile.dimension, r[~inner], derivative=True)
    return out


def ode_residual(profile: GroundStateProfile, r_max: float | None = None):
    """|U'' + (N-1)/r U' - U + U^p| on interior nodes of the solved region.

    U'' is formed by sixth-order central differences of the stored U'
    values, independent of the solver's eighth-order operator.
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
