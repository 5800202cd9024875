"""Stand-alone numeric oracles for the interaction and Taylor estimates.

Two-peak interaction integrals ∫ f^a(x − p_i) g^b(x − p_j) dx with
exponentially localized factors concentrate near peak i when a > b, and
scale like e^{−b|y₀|} |y₀|^{b(1−N)/2} in the separation y₀.  The adaptive
quadratures here provide independent numbers against which the reduction
module's leading-order coefficients are validated, plus an empirical check
of the Taylor-remainder bound |(a+b)₊^p − Σ_{m≤k} C(p,m) a^{p−m} b^m| ≤
C |b|^p used throughout the expansion.  The remainder, ``binomial_remainder``,
is also the reduction's R(v) at k = 1.
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


def binomial_remainder(a, b, p: float, k: int) -> np.ndarray:
    """(a+b)₊^p − Σ_{m≤k} C(p,m) a^{p−m} b^m over arrays a ≥ 0 and b, signed.

    At integer p and k ≥ p the sum is (a+b)^p itself, so the remainder is
    −(a+b)^p where a+b < 0 and 0 elsewhere; at integer p and k < p it is the
    tail Σ_{m>k} by Horner in b where a+b ≥ 0, and −Σ_{m≤k} elsewhere.  At
    other p the terms C(p,m) a^{p−m} b^m come from one recurrence from a^p,
    term·(p−m+1)/m·b/a, dividing by a at each step (a rounded b/a would shift
    term m by m roundings of one sign).  Where |b| ≤ a/2 their tail Σ_{m>k}
    is summed until every term is at most 1e-17 of its sum: past m = k+1 > p
    the terms fall by half or more at each step, so those a sample adds after
    its own first such term are below half an ulp of its sum and change no
    bit.  Elsewhere the direct difference is taken, whose rounding error is
    about ε((a+b)₊^p + Σ|terms|).  These two paths take powers by
    ``np.float_power``, which calls libm's pow as Python's float ``**`` does,
    so on them one sample and a block agree bit for bit.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    s = a + b
    neg = s < 0
    if float(p).is_integer():
        ip = int(p)
        if k >= ip:
            out = np.zeros(s.shape)
            out[neg] = -np.float_power(s[neg], p)
            return out
        acc = np.zeros_like(b)
        for m in range(ip, k, -1):
            acc = acc * b + math.comb(ip, m) * a ** (ip - m)
        out = acc * b ** (k + 1)
        if neg.any():
            head = -(a ** float(ip))
            for m in range(1, k + 1):
                head = head - math.comb(ip, m) * a ** (ip - m) * b**m
            out = np.where(neg, head, out)
        return out
    den = np.where(a > 0, a, 1.0)  # a = 0 (ū underflowed): every term is 0
    smooth = np.abs(b) <= 0.5 * a
    term = head = np.float_power(a, p)
    for m in range(1, k + 1):
        term = term * ((p - m + 1) / m) * b / den
        head = head + term
    term, tail = np.where(smooth, term, 0.0), np.zeros(s.shape)
    for m in range(k + 1, k + 300):
        term = term * ((p - m + 1) / m) * b / den
        tail = tail + term
        if np.all(np.abs(term) <= 1e-17 * np.abs(tail)):
            break
    return np.where(smooth, tail, np.float_power(np.maximum(s, 0.0), p) - head)


def taylor_remainder(a: float, b: float, p: float) -> float:
    """|binomial_remainder| of one sample at k = floor(p)."""
    return abs(float(binomial_remainder(a, b, p, math.floor(p))))


_BLOCK = 2048  # samples per vectorized block; bounds the temporaries
# a and |b| are drawn from [1e−3, 1e3], so every binomial term of a sample is
# at most (a + |b|)^p ≤ (2·10³)^p, finite up to this exponent (93)
_TAYLOR_MAX_EXPONENT = math.floor(_LOG_MAX / math.log(2e3))
# 24 bytes of draws per sample; at the cap 240 MB, with seed 7 1.1 s at p = 3 and 1.0 s at
# p = 93 (integer p in closed form), 4.3 s at p = 2.5 and 6.0 s at p = 92.5 (2-core Xeon)
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


@dataclass
class TaylorReport:
    max_ratio: float
    argmax: tuple[float, float]
    samples: int


def taylor_remainder_check(samples: int, p: float, seed: int) -> TaylorReport:
    """Empirical sup of taylor_remainder(a, b, p)/|b|^p over random (a, b).

    a is log-uniform and b signed log-uniform on [1e−3, 1e3], covering both
    the smooth a ≫ |b| regime and the truncation regime a + b < 0.  The
    samples are evaluated by ``binomial_remainder`` at k = floor(p) in
    blocks; the result is bit for bit that of ``taylor_remainder`` sample by
    sample, the first sample attaining the maximum included.
    """
    validate_taylor_check(samples, p)
    rng = np.random.default_rng(seed)
    a = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), samples))
    b = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), samples))
    b *= rng.choice((-1.0, 1.0), samples)
    best, arg, k = 0.0, (0.0, 0.0), math.floor(p)
    for lo in range(0, samples, _BLOCK):
        ab, bb = a[lo:lo + _BLOCK], b[lo:lo + _BLOCK]
        with np.errstate(all="ignore"):
            ratio = np.abs(binomial_remainder(ab, bb, p, k)) / np.float_power(np.abs(bb), p)
        ratio[np.isnan(ratio)] = -math.inf  # never above the running best
        i = int(np.argmax(ratio))
        if ratio[i] > best:
            best, arg = float(ratio[i]), (float(ab[i]), float(bb[i]))
    return TaylorReport(max_ratio=best, argmax=arg, samples=samples)
