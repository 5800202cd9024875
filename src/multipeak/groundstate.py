"""Radial ground state of -ΔU + U - U^p = 0 in R^N.

The profile is one collocation problem on the 97 Chebyshev nodes
t_j = sin²(πj/192) of [0, 1], mapped to r = 12 sinh(7t)/sinh(7) ∈ [0, r_m] so
that they crowd into the core (Trefethen, Spectral Methods in MATLAB, 2000;
Boyd, Chebyshev and Fourier Spectral Methods, 2001, ch. 16).  Its rows are
U'(0) = 0, the ODE inside and, at r_m = 12, U' = (T'/T) U for the far field

    T(r) = r^((1-N)/2) e^{-r} Σ_{k≤3} a_k(ν) r^{-k},   ν = (N-2)/2,

the truncated large-r expansion of r^{-ν} K_ν(r) (DLMF 10.40.2; exact for
N = 1 and N = 3): the asymptotic boundary condition of Lentini & Keller (SIAM
J. Numer. Anal. 17, 1980).  A Petviashvili iteration from the N = 1 profile
((p+1)/2)^{1/(p-1)} sech^{2/(p-1)}((p-1)r/2) leads into Newton's basin; every
step of either is one dense solve.  U and U' are stored on uniform nodes of
[0, r_m]; beyond r_m the profile is U = L0 T with L0 = U(r_m)/T(r_m), so U and
U' are continuous there.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cache, cached_property

import numpy as np


class SupercriticalError(ValueError):
    """Exponent outside the subcritical range p < (N+2)/(N-2)."""


_R_MATCH = 12.0  # end of the collocation interval, where the far field takes over
_NODES = 97  # collocation nodes; np.linalg.solve keeps its bits on 1 and 2 BLAS threads here, not at 104
_MAP = 7.0  # r = 12 sinh(7t)/sinh(7): half the nodes in r < 0.37, spacing 4e-5 at the center
_GRID_STEP = 0.005  # spacing of the stored nodes, halved (up to 4 times) to at most ℓ/4
_NEWTON_TOL = 1e-10  # sup of the last Newton step, relative to U(0)
_POHOZAEV_TOL = 1e-8


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


def far_field(dimension: int, r):
    """The far-field shape (T(r), T'(r)) for r > 0, from one evaluation.

    r^α e^{−r}, 1/r and the series are formed once for both.  Scalars and
    arrays take the same numpy operations in the same order, so a single
    point gives the vector path's values bit for bit.
    """
    a0, a1, a2, a3 = _series(dimension)
    alpha = (1 - dimension) / 2
    q = 1 / r
    s = a0 + q * (a1 + q * (a2 + q * a3))
    ds = (alpha * q - 1) * s - q * q * (a1 + q * (2 * a2 + q * 3 * a3))
    w = np.power(r, alpha) * np.exp(-r)
    return w * s, w * ds


def _hermite(f, df, h):
    """Per cell [r_i, r_i + h], the (c0..c3) of Σ c_k (r − r_i)^k matching f and df at its ends."""
    slope = np.diff(f) / h
    d0, d1 = df[:-1], df[1:]
    return np.stack([f[:-1], d0, (3 * slope - 2 * d0 - d1) / h, (d0 + d1 - 2 * slope) / h**2], 1)


@dataclass(frozen=True)
class GroundStateProfile:
    """Computed radial profile with far-field continuation.

    ``values``/``derivatives`` hold U and U' on ``radial_grid``, uniform
    nodes of [0, tail_match_radius]; past it U = tail_L0 · T.  Between nodes
    U is the cubic matching U and U' at both ends of its cell, and U' the
    cubic matching U' and U'' there, with U'' taken from the equation.
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
    def _cells(self) -> tuple:
        """(h, the cell coefficients of U, those of U', U's as float lists)."""
        r, u, du = self.radial_grid, self.values, self.derivatives
        N, h = self.dimension, float(r[1] - r[0])
        # U'' = U − U^p − (N−1)U'/r, and (U − U^p)/N at the center
        d2u = u - u**self.exponent - (N - 1) * np.divide(du, r, out=0 * r, where=r > 0)
        d2u[0] /= N
        cu = _hermite(u, du, h)
        return h, cu, _hermite(du, d2u, h), cu.tolist()

    @property
    def core_length(self) -> float:
        """ℓ = (p U(0)^{p−1})^{−1/2}, the width of the linearized potential's core."""
        return (self.exponent * self.center_value ** (self.exponent - 1)) ** -0.5

    def to_json(self) -> str:
        return json.dumps({
            "dimension": self.dimension,
            "exponent": self.exponent,
            "center_value": self.center_value,
            "tail_L0": self.tail_L0,
            "tail_match_radius": self.tail_match_radius,
            "radial_grid": self.radial_grid.tolist(),
            "values": self.values.tolist(),
            "derivatives": self.derivatives.tolist(),
        })


@cache
def _chebyshev(nodes: int) -> tuple[np.ndarray, ...]:
    """t_j = sin²(πj/2M) on [0, 1], M = nodes − 1 even, their barycentric
    weights, d/dt and d²/dt² (Schneider & Werner's formulas, diagonals by
    negative row sums) and the Clenshaw–Curtis weights of ∫_0^1 dt
    (Trefethen's clencurt)."""
    M = nodes - 1
    theta = np.pi * np.arange(nodes) / M
    t = np.sin(theta / 2) ** 2
    w = (-1.0) ** np.arange(nodes)
    w[[0, -1]] /= 2
    gap = np.sin((theta[:, None] + theta) / 2) * np.sin((theta[:, None] - theta) / 2)  # t_i − t_j
    np.fill_diagonal(gap, 1.0)
    d1 = w / w[:, None] / gap
    np.fill_diagonal(d1, 0.0)
    np.fill_diagonal(d1, -d1.sum(1))
    d2 = 2 * d1 * (np.diag(d1)[:, None] - 1 / gap)
    np.fill_diagonal(d2, 0.0)
    np.fill_diagonal(d2, -d2.sum(1))
    k = np.arange(1, M // 2)
    v = 1 - (2 * np.cos(2 * np.outer(theta[1:-1], k)) / (4 * k**2 - 1)).sum(1)
    cc = np.full(nodes, 1 / (2 * (M * M - 1)))
    cc[1:-1] = (v - np.cos(M * theta[1:-1]) / (M * M - 1)) / M
    return t, w, d1, d2, cc


def solve_ground_state(dimension: int, p: float) -> GroundStateProfile:
    """Compute the positive radial decaying solution of U'' + (N-1)/r U' = U - U^p.

    One collocation solve (module docstring); U and U' are then stored, by the
    barycentric formula, on the nodes 0.005 j with the spacing halved until it
    is at most ℓ/4, ℓ = (p U(0)^{p−1})^{−1/2} the core length.  RuntimeError if
    an iterate is not finite, Newton does not converge, U is not positive and
    decreasing or ∫|∇U|²/∫U^{p+1} (Clenshaw–Curtis) misses the Pohozaev value
    N(p−1)/(2(p+1)) by more than 1e-8 relative (a core too narrow for the
    nodes, as for N = 3, p = 4.99), or ℓ < 0.00125 (N = 2, p = 25).

    Parameters
    ----------
    dimension : int
        Space dimension N >= 1.
    p : float
        Nonlinearity exponent, 2 <= p, subcritical for N >= 3.
    """
    validate_exponent(dimension, p)
    N, a = dimension, _MAP
    t, w, d1, d2, cc = _chebyshev(_NODES)
    r = _R_MATCH * np.sinh(a * t) / np.sinh(a)
    dr = _R_MATCH * a * np.cosh(a * t) / np.sinh(a)  # r'(t), and r'' = a² r
    d1 = d1 / dr[:, None]
    d2 = (d2 - (a * a * r)[:, None] * d1) / dr[:, None] ** 2  # (d²/dt² − r'' d/dr)/r'²
    # the rows: U'(0) = 0, U'' + (N−1)U'/r − U = −U^p inside, U' = (T'/T)U at r_m
    linear = d2 - np.eye(_NODES)
    linear[1:] += ((N - 1) / r[1:])[:, None] * d1[1:]
    linear[0] = d1[0]
    linear[-1] = d1[-1]
    tail, dtail = far_field(N, _R_MATCH)
    linear[-1, -1] -= dtail / tail
    ode = np.ones(_NODES)
    ode[[0, -1]] = 0.0
    weight = cc * dr * r ** (N - 1)  # ∫_0^{r_m} f r^{N−1} dr = weight @ f

    # Petviashvili: u ← M^{p/(p−1)} L⁻¹u^p, L = 1 − Δ, M = ⟨u, Lu⟩/⟨u, u^p⟩
    with np.errstate(over="ignore"):  # cosh overflows to inf far out, and u there to 0
        u = ((p + 1) / 2) ** (1 / (p - 1)) / np.cosh((p - 1) * r / 2) ** (2 / (p - 1))
    with np.errstate(over="ignore", invalid="ignore"):  # a diverging iterate fails below
        for _ in range(200):
            up = ode * np.maximum(u, 0.0) ** p
            m = (weight @ (ode * u * -(linear @ u))) / (weight @ (u * up))
            new = m ** (p / (p - 1)) * np.linalg.solve(-linear, up)
            change = np.max(np.abs(new - u))
            u = new
            if not change > 1e-3 * u[0]:
                break

    for _ in range(30):
        if not np.all(np.isfinite(u)):
            raise RuntimeError("ground-state iterate is not finite")
        up = np.maximum(u, 0.0)
        jac = linear + np.diag(ode * p * up ** (p - 1))
        step = np.linalg.solve(jac, linear @ u + ode * up**p)
        u = u - step
        if np.max(np.abs(step)) <= _NEWTON_TOL * u[0]:
            break
    else:
        raise RuntimeError("ground-state Newton did not converge")

    du = d1 @ u
    if not (np.all(u > 0) and np.all(np.diff(u) < 0)):
        raise RuntimeError("ground state is not positive and decreasing")
    ratio = (weight @ du**2) / (weight @ u ** (p + 1))
    defect = abs(ratio / (N * (p - 1) / (2 * (p + 1))) - 1)
    if not defect <= _POHOZAEV_TOL:
        raise RuntimeError(f"Pohozaev identity violated by {defect:.2e}")
    ell = (p * u[0] ** (p - 1)) ** -0.5
    if not ell >= _GRID_STEP / 4:
        raise RuntimeError(f"core length {ell:.3g} needs stored nodes finer than {_GRID_STEP / 16:g}")
    h = _GRID_STEP / 2 ** max(0, math.ceil(math.log2(4 * _GRID_STEP / ell)))
    x = np.arange(0.0, _R_MATCH + 0.5 * h, h)
    with np.errstate(divide="ignore"):  # barycentric weights in t; a node takes its own value
        c = w / (np.arcsinh(x * (np.sinh(a) / _R_MATCH))[:, None] / a - t)
    on_node = np.isinf(c).any(1)
    c[on_node] = np.isinf(c[on_node])
    values, derivatives = (np.einsum("ij,j->i", c, f) / c.sum(1) for f in (u, du))
    return GroundStateProfile(
        dimension=N,
        exponent=p,
        radial_grid=x,
        values=values,
        derivatives=derivatives,
        center_value=float(values[0]),
        tail_L0=float(values[-1] / far_field(N, x[-1])[0]),
        tail_match_radius=float(x[-1]),
    )


def radial_pair(profile: GroundStateProfile, r):
    """(U(r), U'(r)) for an array r, from one evaluation; a 0-d r gives shape (1,).

    Both take L0·(T, T') from one `far_field` everywhere, then, up to the
    matching radius, the cubics of the cell i = ⌊r/h⌋ (clamped to the cells)
    with s = r − ih, both formed once.
    """
    r = np.atleast_1d(np.asarray(r, dtype=float))
    h, cu, cdu, _ = profile._cells
    with np.errstate(all="ignore"):  # r ≤ r_m, where the far field may not be finite, is overwritten
        tail, dtail = far_field(profile.dimension, r)
        u = profile.tail_L0 * tail
        du = profile.tail_L0 * dtail
    inner = r <= profile.tail_match_radius
    x = r[inner]
    i = np.clip(np.floor(x / h), 0, len(cu) - 1).astype(int)
    s = x - i * h
    for out, coeffs in ((u, cu), (du, cdu)):
        c0, c1, c2, c3 = coeffs[i].T
        out[inner] = c0 + s * (c1 + s * (c2 + s * c3))
    return u, du


# e^{-r} stays normal below it; larger |r|, ±inf and NaN take the vector
# path, which guards underflow
_POINT_LIMIT = 700.0


def eval_radial(profile: GroundStateProfile, r):
    """U(r): the cell's cubic up to the matching radius, L0·T past it.

    An array takes U from `radial_pair`.  A single point (each quadrature
    integrand call) takes the same operations on Python floats, skipping the
    array machinery, so it gives the vector path's value bit for bit.
    """
    r = np.asarray(r, dtype=float)
    if r.size == 1 and abs(x := r.item()) < _POINT_LIMIT:
        if x <= profile.tail_match_radius:
            h, _, _, rows = profile._cells
            i = min(max(math.floor(x / h), 0), len(rows) - 1)
            c0, c1, c2, c3 = rows[i]
            s = x - i * h
            value = c0 + s * (c1 + s * (c2 + s * c3))
        else:
            value = profile.tail_L0 * far_field(profile.dimension, x)[0]
        return np.asarray(value).reshape(r.shape)
    return radial_pair(profile, r)[0].reshape(r.shape)


def ode_residual(profile: GroundStateProfile):
    """|U'' + (N-1)/r U' - U + U^p| on interior stored nodes.

    U'' is formed by sixth-order central differences of the stored U'
    values, independent of the collocation that produced them.
    """
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
    mask = (r > 3 * h) & (r < profile.tail_match_radius - 3 * h)
    N, p = profile.dimension, profile.exponent
    res = d2u[mask] + (N - 1) / r[mask] * du[mask] - u[mask] + u[mask] ** p
    return r[mask], np.abs(res)
