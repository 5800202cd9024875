"""Stand-alone numeric oracles for the interaction and Taylor estimates.

Two-peak interaction integrals ∫ f^a(x − p_i) g^b(x − p_j) dx with
exponentially localized factors concentrate near peak i when a > b, and
scale like e^{−b|y₀|} |y₀|^{b(1−N)/2} in the separation y₀.  The integral and
the tilted mass constant C₀ are each one adaptive radial quadrature about peak i,
independent numbers against which the reduction module's leading-order
coefficients are validated, plus an empirical check of the Taylor-remainder bound
|(a+b)₊^p − Σ_{m≤k} C(p,m) a^{p−m} b^m| ≤ C |b|^p used throughout the expansion.
The remainder, ``binomial_remainder``, is also the reduction's R(v) at k = 1.

The quadratures are one numpy rule, ``_gauss_kronrod``: QUADPACK's 21-point
Kronrod / 10-point Gauss pair and error estimate, applied to a batch of
independent problems at once, bisecting in rounds.  Each integrand is smooth in
its variable: the strip's radial rule runs in s, r = |y₀|/2 + s², past the break
point where the arc's end θ₀ grows like a square root, and the mass constant in
u, r = R₀u².  f and g are scalar callables, called once per node.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

_LOG_MAX = math.log(np.finfo(float).max)  # 709.78: e^x overflows above it

# QUADPACK's qk21 (Piessens, de Doncker-Kapenga, Überhuber & Kahaner, 1983) on
# [−1, 1]: the Kronrod nodes x > 0, the Kronrod weights from x = 0.99565… down to x = 0,
# and the 10-point Gauss weights of every second node from x = 0.97390… down
_GK_X = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082, 0.8650633666889845,
         0.7808177265864169, 0.6794095682990244, 0.5627571346686047, 0.4333953941292472,
         0.2943928627014602, 0.14887433898163122)
_GK_K = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995, 0.07503967481091996,
         0.0931254545836976, 0.10938715880229764, 0.12349197626206584, 0.13470921731147334,
         0.14277593857706009, 0.14773910490133849, 0.1494455540029169)
_GK_G = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204, 0.26926671930999635,
         0.29552422471475287)
# all 21 nodes in increasing order, with their Kronrod and Gauss weights
_NODES = np.concatenate((np.negative(_GK_X), [0.0], _GK_X[::-1]))
_KRONROD = np.concatenate((_GK_K, _GK_K[-2::-1]))
_GAUSS = np.zeros(21)
_GAUSS[1::2] = _GK_G + _GK_G[::-1]


def _qk21(fun, lo, hi, problem):
    """qk21 on each interval [lo, hi] of the given problems: (value, error estimate)."""
    mid, half = (lo + hi) / 2, (hi - lo) / 2
    fx = fun((mid[:, None] + half[:, None] * _NODES).ravel(), np.repeat(problem, _NODES.size))
    fx = fx.reshape(-1, _NODES.size)
    kronrod, gauss = (fx * _KRONROD).sum(axis=1), (fx * _GAUSS).sum(axis=1)
    resasc = (np.abs(fx - kronrod[:, None] / 2) * _KRONROD).sum(axis=1) * half
    resabs = (np.abs(fx) * _KRONROD).sum(axis=1) * half
    err = np.abs((kronrod - gauss) * half)
    scaled = resasc * np.minimum(1.0, (200 * err / np.where(resasc > 0, resasc, 1.0)) ** 1.5)
    err = np.where(resasc > 0, scaled, err)
    return kronrod * half, np.maximum(err, 50 * np.finfo(float).eps * resabs)


def _gauss_kronrod(fun, edges, epsrel: float, limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Adaptive Gauss–Kronrod quadrature of a batch of independent problems.

    Row p of ``edges`` is problem p's interval with its break points, increasing;
    ``fun(x, problem)`` gives the integrand at flat arrays of points and of their
    problems' indices.  Each round applies QUADPACK's 21-point Kronrod / 10-point
    Gauss pair to every new subinterval in one call of ``fun``, with qk21's error
    estimate (|K − G| scaled by resasc·min(1, (200|K − G|/resasc)^{3/2}), at least
    50ε·resabs).  Then each problem whose summed error exceeds epsrel·|value| and
    that has fewer than ``limit`` subintervals bisects its largest-error ones, as
    many as leave an error within that tolerance, up to ``limit`` in all.  Returns
    each problem's value and summed error estimate; at ``limit`` the error may
    exceed the tolerance, which the caller checks.
    """
    edges = np.asarray(edges, dtype=float)
    n = len(edges)
    lo, hi = edges[:, :-1].ravel(), edges[:, 1:].ravel()
    owner = np.repeat(np.arange(n), edges.shape[1] - 1)
    val, err = _qk21(fun, lo, hi, owner)
    while True:
        value, error = np.bincount(owner, val, n), np.bincount(owner, err, n)
        count = np.bincount(owner, minlength=n)
        tol = epsrel * np.abs(value)
        if not np.any((error > tol) & (count < limit)):
            return value, error
        # each problem's subintervals by decreasing error, and the error left before each
        order = np.lexsort((-err, owner))
        row = owner[order]
        rank = np.arange(row.size) - np.searchsorted(row, row)
        table = np.zeros((n, count.max()))
        table[row, rank] = err[order]
        left = error[row] - (np.cumsum(table, axis=1) - table)[row, rank]
        cut = order[(left > tol[row]) & (rank < limit - count[row])]
        keep = np.ones(owner.size, dtype=bool)
        keep[cut] = False
        mid = (lo[cut] + hi[cut]) / 2
        new = (np.concatenate((lo[cut], mid)), np.concatenate((mid, hi[cut])), np.tile(owner[cut], 2))
        new_val, new_err = _qk21(fun, *new)
        lo, hi, owner = (np.concatenate((old[keep], add)) for old, add in zip((lo, hi, owner), new))
        val, err = np.concatenate((val[keep], new_val)), np.concatenate((err[keep], new_err))


def _on_points(h: Callable[[float], float], x: np.ndarray) -> np.ndarray:
    """The scalar function h at each point of the flat array x, one call per point."""
    return np.fromiter(map(h, x.tolist()), dtype=float, count=x.size)


def _i0e(x: np.ndarray) -> np.ndarray:
    """I₀(x)e^{−x}: numpy's I₀ up to x = 700, past it (where I₀ overflows by 713) the
    asymptotic series Σ ((2k−1)!!)²/(k!(8x)^k) / √(2πx) (DLMF 10.40.1), whose terms
    fall below 1e-17 of the sum by k = 6 there."""
    low, high = np.minimum(x, 700.0), np.maximum(x, 700.0)
    term = total = np.ones_like(high)
    for k in range(1, 8):
        term = term * (2 * k - 1) ** 2 / (8 * k * high)
        total = total + term
    return np.where(x <= 700.0, np.i0(low) * np.exp(-low), total / np.sqrt(2 * np.pi * high))


@dataclass(frozen=True)
class InteractionSpec:
    """Two localized radial factors, exponents a > b > 0, |y₀| apart.

    Admitted when ``rescale``'s factor e^{b|y₀|}|y₀|^{b(N−1)/2} and e^{R₀} are finite,
    R₀ = 40/min(1, a − b) (``radius``); b·R₀ is not bounded.  f and g take one float
    r at a time: the quadratures call them point by point.
    """

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
        if self.dimension not in (1, 2):
            raise ValueError("only line and strip integrals are provided")
        growth = self.b * (abs(self.y0) + (self.dimension - 1) / 2 * math.log(abs(self.y0)))
        if not growth <= _LOG_MAX:
            raise ValueError(f"need b*(|y0| + (N-1)/2*log|y0|) <= {_LOG_MAX:.2f}, where "
                             f"e^(b|y0|)|y0|^(b(N-1)/2) in rescale overflows (got {growth:g})")
        if not self.radius <= _LOG_MAX:
            raise ValueError(f"need R0 = 40/min(1, a-b) <= {_LOG_MAX:.2f}, past which an e^-r "
                             f"factor underflows where f^a e^(br) is not negligible (got {self.radius:g})")

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
    g^b(|y₀| − r) + g^b(|y₀| + r) for r ≤ |y₀|/2 on the line, and 0 past it, so the
    line integrates over [0, min(|y₀|/2, R₀)]; on the strip S(r) is
    2r∫ g^b(√(r² + y₀² − 2r|y₀|cos θ)) dθ over [θ₀, π − θ₀], cos θ₀ = min(1, |y₀|/2r).
    |x − y₀e₁| ≥ |x| in Ω, so past R₀ the integrand is below f^a(r)g^b(r).  Ω starts
    to cut the sphere at r = |y₀|/2, a break point, past which θ₀ grows like
    √(r − |y₀|/2): there the strip integrates in s, r = |y₀|/2 + s², over
    [0, √(R₀ − |y₀|/2)], where the integrand is smooth.  Both are ``_gauss_kronrod``
    rules, the radial one to 1e-8 relative (at most 400 subintervals); on the strip
    the arcs of all radial nodes of a round are one batch of problems, each to 1e-9
    (at most 200).  f and g are called one point at a time.  Only |y₀| enters, so
    ±y₀ agree.

    Raises
    ------
    RuntimeError
        If the value underflows to 0 or its estimated error exceeds 1% of it.
    """
    f, g, a, b, y = spec.f, spec.g, spec.a, spec.b, abs(spec.y0)
    half, reach = y / 2, spec.radius
    if spec.dimension == 1:
        edges = [0.0, min(half, reach)]

        def integrand(r, _):
            return _on_points(f, r) ** a * (_on_points(g, y - r) ** b + _on_points(g, y + r) ** b)
    else:
        edges = [0.0, half, half + math.sqrt(reach - half)] if half < reach else [0.0, reach]

        def integrand(t, _):
            past = t > half
            r = np.where(past, half + (t - half) ** 2, t)
            lo = np.where(past, np.arccos(np.minimum(1.0, half / r)), 0.0)

            def arc(theta, node):
                rn = r[node]
                return _on_points(g, np.sqrt(rn * rn + y * y - 2 * rn * y * np.cos(theta))) ** b

            sphere = 2 * r * _gauss_kronrod(arc, np.column_stack((lo, np.pi - lo)), 1e-9, 200)[0]
            return _on_points(f, r) ** a * sphere * np.where(past, 2 * (t - half), 1.0)
    val, err = _gauss_kronrod(integrand, [edges], 1e-8, 400)
    return _checked(float(val[0]), float(err[0]))


def rescale(spec: InteractionSpec, value: float) -> float:
    """value / (e^{−b|y₀|} |y₀|^{b(1−N)/2})."""
    y = abs(spec.y0)
    return value * math.exp(spec.b * y) * y ** (spec.b * (spec.dimension - 1) / 2)


def mass_constant(spec: InteractionSpec) -> float:
    """C₀ = ∫_{ℝ^N} f^a(|x|) e^{b x·ω} dx for any unit ω: the neighbour's tail scaled out.

    f being radial, the tilt's angular integral is 2cosh(br) for N = 1 and 2πr I₀(br)
    for N = 2 (DLMF 10.32.1), so C₀ is one ``_gauss_kronrod`` rule over r ∈ [0, R₀]
    (``spec.radius``), to 1e-10 relative with at most 400 subintervals, f called one
    point at a time.  It runs in u, r = R₀u², which puts the first panel's nodes
    within R₀·5e-6 of the peak, so a part of width 1/(a + b) ≪ R₀ is resolved.  The
    integrand is e^{a log f + br} times (1 + e^{−2br}), or times I₀(br)e^{−br}·r, so
    neither e^{br} nor I₀(br) overflows whatever b·R₀, and near R₀ it is 0 where
    f^a e^{br} underflows.  Raises RuntimeError as ``interaction_quadrature`` does.
    """
    a, b, reach = spec.a, spec.b, spec.radius

    def integrand(u, _):
        r = reach * u * u
        with np.errstate(divide="ignore"):  # f underflowing to 0 gives e^{−∞} = 0
            tilted = np.exp(a * np.log(_on_points(spec.f, r)) + b * r) * 2 * reach * u
        return tilted * (1 + np.exp(-2 * b * r)) if spec.dimension == 1 else tilted * _i0e(b * r) * r

    val, err = _gauss_kronrod(integrand, [[0.0, 1.0]], 1e-10, 400)
    return (1.0 if spec.dimension == 1 else 2 * math.pi) * _checked(float(val[0]), float(err[0]))


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
