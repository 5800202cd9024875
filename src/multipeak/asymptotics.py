"""Stand-alone numeric oracles for the interaction and Taylor estimates.

Two-peak interaction integrals ∫ f^a(x − p_i) g^b(x − p_j) dx with
exponentially localized factors concentrate near peak i when a > b, and
scale like e^{−b|y₀|} |y₀|^{b(1−N)/2} in the separation y₀.  The integral and
the tilted mass constant C₀ are each one adaptive radial quadrature about peak i,
independent numbers against which the reduction module's leading-order
coefficients are validated, plus an empirical check of the Taylor-remainder bound
|(a+b)₊^p − Σ_{m≤k} C(p,m) a^{p−m} b^m| ≤ C |b|^p used throughout the expansion.
The remainder, ``binomial_remainder``, is also the reduction's R(v) at k = 1.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

_LOG_MAX = math.log(np.finfo(float).max)  # 709.78: e^x overflows above it


@dataclass(frozen=True)
class InteractionSpec:
    """Two localized radial factors, exponents a > b > 0, |y₀| apart; b·max(|y₀|, R₀) ≤ 709.78."""

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
        reach = self.b * max(abs(self.y0), self.radius)
        if not reach <= _LOG_MAX:
            raise ValueError(f"need b*max(|y0|, R0) <= {_LOG_MAX:.2f}, R0 = 40/min(1, a-b), where "
                             f"e^(b r) in rescale or the mass constant overflows (got {reach:g})")
        if self.dimension not in (1, 2):
            raise ValueError("only line and strip integrals are provided")

    @property
    def radius(self) -> float:
        """R₀ = 40/min(1, a − b), both oracles' range in r: past it f^a e^{br} ~ e^{−(a−b)r} < e^{−40}."""
        return 40 / min(1.0, self.a - self.b)


def _checked(val: float, err: float) -> float:
    if val == 0:
        raise RuntimeError("the integral underflows to 0")
    if not err <= 0.01 * abs(val):
        raise RuntimeError(f"quadrature error {err:.3e} above 1% of {val:.3e}")
    return val


def interaction_quadrature(spec: InteractionSpec) -> float:
    """Adaptive quadrature of ∫_Ω f^a(|x|) g^b(|x − y₀e₁|) dx over the cell Ω = {|x₁| ≤ |y₀|/2}.

    In polar coordinates about the sharp peak it is one quadrature over r ∈ [0, R₀]
    (``spec.radius``) of f^a(r)·S(r), S(r) being g^b over the sphere |x| = r within Ω:
    g^b(|y₀| − r) + g^b(|y₀| + r) for r ≤ |y₀|/2 on the line, and on the strip
    2r∫ g^b(√(r² + y₀² − 2r|y₀|cos θ)) dθ over [θ₀, π − θ₀], cos θ₀ = min(1, |y₀|/2r).
    |x − y₀e₁| ≥ |x| in Ω, so past R₀ the integrand is below f^a(r)g^b(r).  Ω starts
    to cut the sphere at r = |y₀|/2, a break point.  Only |y₀| enters, so ±y₀ agree.

    Raises
    ------
    RuntimeError
        If the value underflows to 0 or its estimated error exceeds 1% of it.
    """
    from scipy.integrate import quad
    f, g, a, b, y = spec.f, spec.g, spec.a, spec.b, abs(spec.y0)
    if spec.dimension == 1:
        sphere = lambda r: g(y - r) ** b + g(y + r) ** b if 2 * r <= y else 0.0
    else:
        def sphere(r):
            lo = math.acos(y / (2 * r)) if 2 * r > y else 0.0
            return 2 * r * quad(lambda t: g(math.sqrt(r * r + y * y - 2 * r * y * math.cos(t))) ** b,
                                lo, math.pi - lo, epsabs=1e-300, epsrel=1e-9, limit=200)[0]
    return _checked(*quad(lambda r: f(r) ** a * sphere(r), 0.0, spec.radius, points=[y / 2],
                          epsabs=1e-300, epsrel=1e-8, limit=400))


def rescale(spec: InteractionSpec, value: float) -> float:
    """value / (e^{−b|y₀|} |y₀|^{b(1−N)/2})."""
    y = abs(spec.y0)
    return value * math.exp(spec.b * y) * y ** (spec.b * (spec.dimension - 1) / 2)


def mass_constant(spec: InteractionSpec) -> float:
    """C₀ = ∫_{ℝ^N} f^a(|x|) e^{b x·ω} dx for any unit ω: the neighbour's tail scaled out.

    f being radial, the tilt's angular integral is 2cosh(br) for N = 1 and 2πr I₀(br)
    for N = 2 (DLMF 10.32.1), so C₀ is one quadrature over [0, R₀] (``spec.radius``).
    f^a multiplies cosh or I₀ before r, so near R₀ the product is 0 where f^a
    underflows, not 0·∞.  Raises RuntimeError as ``interaction_quadrature`` does.
    """
    from scipy.integrate import quad
    if spec.dimension == 1:
        scale, integrand = 2.0, lambda r: spec.f(r) ** spec.a * math.cosh(spec.b * r)
    else:
        scale, integrand = 2 * math.pi, lambda r: spec.f(r) ** spec.a * np.i0(spec.b * r) * r
    val, err = quad(integrand, 0.0, spec.radius, epsabs=1e-300, epsrel=1e-10, limit=400)
    return scale * _checked(val, err)


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
