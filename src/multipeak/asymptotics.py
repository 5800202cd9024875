"""Stand-alone numeric oracles for the interaction and Taylor estimates.

Two-peak interaction integrals ∫ f^a(x − p_i) g^b(x − p_j) dx with
exponentially localized factors concentrate near peak i when a > b, and
scale like e^{−b|y₀|} |y₀|^{b(1−N)/2} in the separation y₀.  The adaptive
quadratures here provide independent numbers against which the reduction
module's leading-order coefficients are validated, plus an empirical check
of the Taylor-remainder bound |(a+b)₊^p − Σ_{m≤k} C(p,m) a^{p−m} b^m| ≤
C |b|^p used throughout the expansion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

X2_CUTOFF = 30.0  # transverse truncation; integrands decay like e^{-(a+...)r}
_LOG_MAX = math.log(np.finfo(float).max)  # 709.78: e^x overflows above it


@dataclass(frozen=True)
class InteractionSpec:
    """Two localized radial factors with exponents a > b > 0 at distance y₀."""

    f: Callable[[float], float]
    g: Callable[[float], float]
    a: float
    b: float
    y0: float
    dimension: int = 1

    def __post_init__(self):
        if not math.inf > self.a > self.b > 0:
            raise ValueError("need finite a > b > 0")
        if not math.inf > abs(self.y0) > 2:
            raise ValueError("separation |y0| must be finite and large compared to 1")
        if not self.b * abs(self.y0) <= _LOG_MAX:
            raise ValueError(f"need b|y0| <= {_LOG_MAX:.2f}, where e^(b|y0|) in rescale "
                             f"overflows (got {self.b * abs(self.y0):g})")
        if self.dimension not in (1, 2):
            raise ValueError("only line and strip integrals are provided")

    @property
    def cell(self) -> tuple[float, float]:
        """Ω_i around peak i at the origin, neighbor at y₀."""
        half = abs(self.y0) / 2
        return (-half, half)


def _transverse(integrand: Callable[[float], float]) -> float:
    """2∫₀^{X2_CUTOFF} integrand(t) dt: the strip's x₂ integral, the integrand being even."""
    from scipy.integrate import quad
    return 2 * quad(integrand, 0.0, X2_CUTOFF, epsabs=1e-300, epsrel=1e-9, limit=200)[0]


def _x1_integrand(spec: InteractionSpec):
    if spec.dimension == 1:
        return lambda x: spec.f(abs(x)) ** spec.a * spec.g(abs(x - spec.y0)) ** spec.b
    return lambda x: _transverse(lambda t: spec.f(math.hypot(x, t)) ** spec.a
                                 * spec.g(math.hypot(x - spec.y0, t)) ** spec.b)


def interaction_quadrature(spec: InteractionSpec) -> float:
    """Adaptive quadrature of ∫_Ω f^a(x − p_i) g^b(x − p_j) dx.

    The peak at the origin, where f^a is sharp, is a break point of the
    subdivision; the neighbour at y₀ lies outside the cell Ω.

    Raises
    ------
    RuntimeError
        If the estimated quadrature error exceeds 1% of the value.
    """
    from scipy.integrate import quad
    lo, hi = spec.cell
    val, err = quad(
        _x1_integrand(spec),
        lo,
        hi,
        points=[0.0],
        epsabs=1e-300,
        epsrel=1e-8,
        limit=400,
    )
    if err > 0.01 * abs(val):
        raise RuntimeError(f"quadrature error {err:.3e} above 1% of {val:.3e}")
    return val


def rescale(spec: InteractionSpec, value: float) -> float:
    """value / (e^{−b|y₀|} |y₀|^{b(1−N)/2})."""
    y = abs(spec.y0)
    return value * math.exp(spec.b * y) * y ** (spec.b * (spec.dimension - 1) / 2)


def mass_constant(spec: InteractionSpec) -> float:
    """C₀ = ∫_{ℝ^N} f^a(x) e^{x·ω} dx with ω the unit vector toward y₀.

    The exponential tilt is the surviving factor of the neighbor's tail
    once e^{−b|y₀|} |y₀|^{b(1−N)/2} has been scaled out; it converges
    because a > b ≥ the tail rate.
    """
    from scipy.integrate import quad

    def integrand(x):
        if spec.dimension == 1:
            peak = spec.f(abs(x)) ** spec.a
        else:
            peak = _transverse(lambda t: spec.f(math.hypot(x, t)) ** spec.a)
        return peak * math.exp(math.copysign(spec.b, spec.y0) * x)

    val, _ = quad(integrand, -40.0, 40.0, points=[0.0], epsabs=1e-300,
                  epsrel=1e-10 if spec.dimension == 1 else 1e-8, limit=400)
    return val


@dataclass
class LimitEstimate:
    separations: np.ndarray
    rescaled: np.ndarray
    limit: float


def interaction_limit(spec: InteractionSpec, separations) -> LimitEstimate:
    """Rescaled integrals along a |y₀| sweep with Richardson extrapolation.

    The rescaled value converges to L·C₀ with corrections O(1/|y₀|); the
    last two sweep points are extrapolated linearly in 1/|y₀|.

    Raises
    ------
    RuntimeError
        If the sweep does not approach its last value monotonically.
    """
    ys = np.asarray(sorted(separations), dtype=float)
    vals = []
    for y in ys:
        s = replace(spec, y0=float(np.sign(spec.y0) * y))
        vals.append(rescale(s, interaction_quadrature(s)))
    vals = np.array(vals)
    gaps = np.abs(vals - vals[-1])
    if np.any(np.diff(gaps[:-1]) > 0):
        raise RuntimeError(f"rescaled sweep not monotone toward its tail: {vals}")
    y1, y2 = ys[-2:]
    r1, r2 = vals[-2:]
    limit = (y2 * r2 - y1 * r1) / (y2 - y1)
    return LimitEstimate(separations=ys, rescaled=vals, limit=float(limit))


def _binomial(p: float, m: int) -> float:
    out = 1.0
    for j in range(m):
        out *= (p - j) / (j + 1)
    return out


def taylor_remainder(a: float, b: float, p: float) -> float:
    """|−(a+b)₊^p + Σ_{m=0}^{k} C(p,m) a^{p−m} b^m| for k = floor(p).

    For integer p the sum is (a+b)^p itself, so the remainder is |a+b|^p
    where a+b < 0 and 0 elsewhere; otherwise the smooth regime |b| ≤ a/2
    uses the binomial tail series to avoid the cancellation of the direct
    difference, and the rest is evaluated directly.
    """
    k = math.floor(p)
    s = a + b
    if k == p:
        return abs(s) ** p if s < 0 else 0.0
    if b == 0:
        return 0.0
    if abs(b) <= 0.5 * a:
        t = b / a
        total, m, term = 0.0, k + 1, _binomial(p, k + 1) * (b / a) ** (k + 1)
        while True:
            total += term
            m += 1
            term *= (p - m + 1) / m * t
            if abs(term) < 1e-18 * abs(total) or m > 300:
                break
        return abs(a**p * total)
    head = math.fsum(_binomial(p, m) * a ** (p - m) * b**m for m in range(k + 1))
    plus = s**p if s > 0 else 0.0
    return abs(-plus + head)


_BLOCK = 2048  # samples per vectorized block; bounds the temporaries
# a and |b| are drawn from [1e−3, 1e3], so every binomial term of a sample is
# at most (a + |b|)^p ≤ (2·10³)^p, finite up to this exponent (93)
_TAYLOR_MAX_EXPONENT = math.floor(_LOG_MAX / math.log(2e3))
# 24 bytes of draws per sample; at the cap 240 MB, with seed 7 1.1 s at p = 3 and 1.0 s at
# p = 93 (integer p in closed form), 10.3 s at p = 2.5 and 156 s at p = 92.5 (2-core Xeon)
_TAYLOR_MAX_SAMPLES = 10**7


def validate_taylor_check(samples: int, p: float) -> None:
    """Reject samples outside [1, _TAYLOR_MAX_SAMPLES] and p outside
    [2, _TAYLOR_MAX_EXPONENT] (NaN included)."""
    if not 1 <= samples <= _TAYLOR_MAX_SAMPLES:
        raise ValueError(f"need 1 <= n <= {_TAYLOR_MAX_SAMPLES} samples, got {samples}")
    if not 2 <= p <= _TAYLOR_MAX_EXPONENT:
        raise ValueError(
            f"exponent must satisfy 2 <= p <= {_TAYLOR_MAX_EXPONENT}, got {p}: "
            "above it (a + |b|)^p overflows for a, |b| sampled up to 1e3"
        )


def taylor_remainders(a: np.ndarray, b: np.ndarray, p: float) -> np.ndarray:
    """taylor_remainder over arrays a > 0 and b, bit for bit, by regime masks.

    Its domain is taylor_remainder_check's, a, |b| in [1e−3, 1e3] and p ≤ _TAYLOR_MAX_EXPONENT,
    where no power overflows.  ``np.float_power`` calls libm's pow, as Python's float ``**``
    does; ``np.power``'s vector loops differ in the last bit.
    """
    k = math.floor(p)
    s = a + b
    out = np.zeros(a.shape)
    if k == p:
        out[s < 0] = np.float_power(-s[s < 0], p)
        return out
    live = b != 0
    smooth = live & (np.abs(b) <= 0.5 * a)
    direct = live & ~smooth
    with np.errstate(all="ignore"):
        if smooth.any():
            aa, t = a[smooth], b[smooth] / a[smooth]
            total = np.zeros(t.shape)
            m, term = k + 1, _binomial(p, k + 1) * np.float_power(t, k + 1)
            active = np.ones(t.shape, dtype=bool)
            while True:
                total += np.where(active, term, 0.0)
                m += 1
                term *= (p - m + 1) / m * t
                active &= ~(np.abs(term) < 1e-18 * np.abs(total))
                if not active.any() or m > 300:
                    break
            out[smooth] = np.abs(np.float_power(aa, p) * total)
        if direct.any():
            aa, bb, sd = a[direct], b[direct], s[direct]
            terms = np.stack([
                _binomial(p, m) * np.float_power(aa, p - m) * np.float_power(bb, m)
                for m in range(k + 1)
            ], axis=1)
            head = np.array([math.fsum(row) for row in terms.tolist()])
            plus = np.zeros(sd.shape)
            plus[sd > 0] = np.float_power(sd[sd > 0], p)
            out[direct] = np.abs(-plus + head)
    return out


@dataclass
class TaylorReport:
    max_ratio: float
    argmax: tuple[float, float]
    samples: int


def taylor_remainder_check(samples: int, p: float, seed: int) -> TaylorReport:
    """Empirical sup of taylor_remainder(a, b, p)/|b|^p over random (a, b).

    a is log-uniform and b signed log-uniform on [1e−3, 1e3], covering both
    the smooth a ≫ |b| regime and the truncation regime a + b < 0.  The
    samples are evaluated by ``taylor_remainders`` in blocks; the result is
    bit for bit that of ``taylor_remainder`` sample by sample, the first
    sample attaining the maximum included.
    """
    validate_taylor_check(samples, p)
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), samples))
    b = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), samples))
    b *= rng.choice((-1.0, 1.0), samples)
    best, arg = 0.0, (0.0, 0.0)
    for lo in range(0, samples, _BLOCK):
        ab, bb = a[lo:lo + _BLOCK], b[lo:lo + _BLOCK]
        with np.errstate(all="ignore"):
            ratio = taylor_remainders(ab, bb, p) / np.float_power(np.abs(bb), p)
        ratio[np.isnan(ratio)] = -math.inf  # never above the running best
        i = int(np.argmax(ratio))
        if ratio[i] > best:
            best, arg = float(ratio[i]), (float(ab[i]), float(bb[i]))
    return TaylorReport(max_ratio=best, argmax=arg, samples=samples)
