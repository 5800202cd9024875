"""Interaction-integral and Taylor-remainder oracles."""

import math
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipeak import asymptotics
from multipeak.asymptotics import (
    InteractionSpec,
    binomial_remainder,
    interaction_limit,
    interaction_quadrature,
    mass_constant,
    rescale,
    taylor_remainder,
    taylor_remainder_check,
)


def exp_spec(y0=12.0, **kw):
    decay = lambda r: math.exp(-r)
    return InteractionSpec(f=decay, g=decay, a=2.0, b=1.0, y0=y0, **kw)


def closed_form_cell_integral(y0):
    """∫_{−y₀/2}^{y₀/2} e^{−2|x|} e^{−|x−y₀|} dx for y₀ > 0."""
    half = y0 / 2
    # x < y₀ on the whole cell: e^{−(y₀−x)} factor
    left = (1 - math.exp(-3 * half)) / 3  # ∫_{−half}^0 e^{3x} dx
    right = 1 - math.exp(-half)  # ∫_0^{half} e^{−x} dx
    return math.exp(-y0) * (left + right)


def test_spec_validation():
    decay = lambda r: math.exp(-r)
    with pytest.raises(ValueError):
        InteractionSpec(decay, decay, a=1.0, b=2.0, y0=12.0)
    with pytest.raises(ValueError):
        InteractionSpec(decay, decay, a=2.0, b=1.0, y0=1.0)
    with pytest.raises(ValueError):
        InteractionSpec(decay, decay, a=2.0, b=1.0, y0=12.0, dimension=3)
    for a, y0 in ((math.inf, 12.0), (math.nan, 12.0), (2.0, math.nan), (2.0, math.inf),
                  (2.0, 709.8), (2.0, -750.0)):
        with pytest.raises(ValueError):
            InteractionSpec(decay, decay, a=a, b=1.0, y0=y0)
    # up to b|y0| = log of the largest double, e^(b|y0|) in rescale is finite
    assert math.isfinite(rescale(exp_spec(y0=709.7), 1.0))


@settings(deadline=None, max_examples=10)
@given(y0=st.floats(6.0, 25.0))
def test_quadrature_matches_closed_form(y0):
    val = interaction_quadrature(exp_spec(y0=y0))
    assert val == pytest.approx(closed_form_cell_integral(y0), rel=1e-7)


def test_quadrature_negative_separation_symmetry():
    """Only |y₀| enters the radial quadrature, so ±y₀ agree bit for bit."""
    for dimension in (1, 2):
        a = interaction_quadrature(exp_spec(y0=12.0, dimension=dimension))
        b = interaction_quadrature(exp_spec(y0=-12.0, dimension=dimension))
        assert a == b


@pytest.mark.parametrize("a, b, y0, reference", [
    (0.1, 0.01, 12.0, 183.9785991660589),
    (0.5, 0.1, 8.0, 8.62539047421566),
])
def test_strip_quadrature_has_no_transverse_cutoff(a, b, y0, reference):
    """At small a + b the strip's integrand is far from 0 at |x₂| = 30, where a
    transverse cutoff cut it (176.214 and 8.6253901 here).  The references come
    from a nested x₁/x₂ quadrature of the same cell with x₂ ≤ 400."""
    decay = lambda r: math.exp(-r)
    spec = InteractionSpec(decay, decay, a=a, b=b, y0=y0, dimension=2)
    assert interaction_quadrature(spec) == pytest.approx(reference, rel=1e-9, abs=0)


@pytest.mark.parametrize("y0, reference", [(12.0, 9.990095374585888e-05),
                                           (8.0, 0.006576050752109704)])
def test_strip_quadrature_of_the_profile_is_one_radial_quadrature(profile_n2, y0, reference):
    """The N = 2 profile takes at most 12,000 evaluations of f and g together, an
    arc quadrature at each radial node, not a transverse one at each x₁ node
    (69,384 at y₀ = 12); past the break point the radial rule runs in s with
    r = |y₀|/2 + s², where θ₀'s square-root kink is gone (8,610 and 7,266 here;
    16,548 and 15,750 by scipy's quad in r)."""
    from multipeak.groundstate import eval_radial
    calls = []

    def radial(r):
        calls.append(r)
        return float(eval_radial(profile_n2, np.asarray([r]))[0])

    value = interaction_quadrature(InteractionSpec(radial, radial, a=2.0, b=1.0, y0=y0,
                                                   dimension=2))
    assert len(calls) <= 12_000
    assert value == pytest.approx(reference, rel=1e-9)  # Gauss-Legendre reference


def test_quadrature_whose_break_point_lies_past_the_radius():
    """At y₀ = 200 the break point |y₀|/2 = 100 lies past R₀ = 40, so neither rule
    has one: the line still meets its closed form, and the strip gives a
    finite positive value with no numpy warning."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        line = interaction_quadrature(exp_spec(y0=200.0))
        strip = interaction_quadrature(exp_spec(y0=200.0, dimension=2))
    assert line == pytest.approx(closed_form_cell_integral(200.0), rel=1e-7)
    assert math.isfinite(strip) and strip > 0


def test_mass_constant_closed_form():
    """∫ e^{−2|x|} e^{x} dx = 1/3 + 1 = 4/3 for the tilted exponential."""
    assert mass_constant(exp_spec()) == pytest.approx(4.0 / 3.0, rel=1e-9)


@pytest.mark.parametrize("a, b", [(2, 1), (3, 1), (1.5, 1), (1.1, 1), (1.5, 1.4)])
@pytest.mark.parametrize("dimension", [1, 2])
def test_mass_constant_matches_laplace_transforms(a, b, dimension):
    """For f = e^{−r}, C₀ = ∫₀^∞ e^{−ar} 2cosh(br) dr = 1/(a−b) + 1/(a+b) on the line
    and ∫₀^∞ e^{−ar} 2πr I₀(br) dr = 2πa/(a²−b²)^{3/2} on the plane, also where
    a − b < 1 puts most of the mass far from the peak."""
    decay = lambda r: math.exp(-r)
    spec = InteractionSpec(decay, decay, a=a, b=b, y0=12.0, dimension=dimension)
    exact = 1 / (a - b) + 1 / (a + b) if dimension == 1 else 2 * math.pi * a / (a * a - b * b) ** 1.5
    assert mass_constant(spec) == pytest.approx(exact, rel=1e-10, abs=0)


def test_mass_constant_of_the_profile_is_one_radial_quadrature(profile_n2):
    """The N = 2 profile is evaluated a few hundred times, not once per point of a
    nested transverse quadrature (46,746 times)."""
    from multipeak.groundstate import eval_radial
    calls = []

    def radial(r):
        calls.append(r)
        return float(eval_radial(profile_n2, np.asarray([r]))[0])

    value = mass_constant(InteractionSpec(radial, radial, a=2.0, b=1.0, y0=12.0, dimension=2))
    assert len(calls) <= 1000
    assert value == pytest.approx(16.19415315267128, rel=1e-12)  # Gauss-Legendre reference


def test_mass_constant_admission_boundary():
    """Admission asks b(|y₀| + (N−1)/2·log|y₀|) ≤ log(max double), for the factor
    e^{b|y₀|}|y₀|^{b(N−1)/2} of ``rescale``, and R₀ = 40/min(1, a − b) ≤ log(max
    double), past which e^{−r} underflows where f^a e^{br} is not negligible; b·R₀
    is not bounded, the mass constant's integrand being e^{a log f + br} times
    (1 + e^{−2br}) or I₀(br)e^{−br}·r.  At both edges and at b·R₀ = 800 (a = 30,
    b = 20) or 40,000 (b = 100, a − b = 0.1) C₀ meets its closed form and the
    rescaling is finite, with no numpy warning; just past either edge the spec is
    rejected."""
    decay = lambda r: np.exp(-r)
    log_max = asymptotics._LOG_MAX
    edge_a = 1 + 40 / log_max
    edge_a = next(a for a in (math.nextafter(edge_a, 0), edge_a, math.nextafter(edge_a, 2))
                  if 40 / (a - 1) <= log_max)
    for dimension in (1, 2):
        growth = 12.0 + (dimension - 1) / 2 * math.log(12.0)  # b(...) at b = 1, y₀ = 12
        edge_b = next(b for b in (math.nextafter(log_max / growth, 0), log_max / growth)
                      if b * growth <= log_max)
        cases = [(edge_b + 2.0, edge_b, 12.0), (edge_a, 1.0, 12.0), (30.0, 20.0, 12.0),
                 (100.1, 100.0, 3.0)]
        for a, b, y0 in cases:
            spec = InteractionSpec(decay, decay, a=a, b=b, y0=y0, dimension=dimension)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                value = mass_constant(spec)
                assert math.isfinite(rescale(spec, 1.0))
            exact = (1 / (a - b) + 1 / (a + b) if dimension == 1
                     else 2 * math.pi * a / (a * a - b * b) ** 1.5)
            assert value == pytest.approx(exact, rel=1e-10), (a, b, dimension)
        with pytest.raises(ValueError, match="in rescale overflows"):
            InteractionSpec(decay, decay, a=edge_b + 2.0, b=edge_b * (1 + 1e-12),
                            y0=12.0, dimension=dimension)
        with pytest.raises(ValueError, match=r"R0 = 40/min\(1, a-b\) <= 709\.78"):
            InteractionSpec(decay, decay, a=math.nextafter(edge_a, 0), b=1.0, y0=12.0,
                            dimension=dimension)


@pytest.mark.parametrize("dimension", [1, 2])
def test_an_integral_that_underflows_to_zero_is_an_error(dimension):
    """At a = 1e300 f^a is 0 off the peak's centre: both quadratures raise
    instead of returning 0."""
    decay = lambda r: math.exp(-r)
    spec = InteractionSpec(decay, decay, a=1e300, b=1.0, y0=12.0, dimension=dimension)
    for quadrature in (interaction_quadrature, mass_constant):
        with pytest.raises(RuntimeError, match="underflows to 0"):
            quadrature(spec)


def test_rescale_strips_leading_order():
    spec = exp_spec(y0=16.0)
    val = interaction_quadrature(spec)
    assert rescale(spec, val) == pytest.approx(val * math.exp(16.0), rel=1e-12)


def test_interaction_limit_exponential_case():
    est = interaction_limit(exp_spec(), (8.0, 10.0, 12.0, 16.0))
    # tail constant of e^{−r} is 1, so the limit is 1 · C₀ = 4/3
    assert est.limit == pytest.approx(4.0 / 3.0, rel=0.02)
    gaps = np.abs(est.rescaled - est.rescaled[-1])
    assert np.all(np.diff(gaps[:-1]) < 0)


def test_interaction_limit_rejects_a_non_monotone_sweep(monkeypatch):
    """Quadratures whose rescaled values move away from the tail, then back, are rejected."""
    rescaled = {8.0: 1.3, 10.0: 1.32, 12.0: 1.2, 16.0: 1.33}
    monkeypatch.setattr(asymptotics, "interaction_quadrature",
                        lambda s: rescaled[abs(s.y0)] / rescale(s, 1.0))
    with pytest.raises(RuntimeError, match="not monotone"):
        interaction_limit(exp_spec(), tuple(rescaled))


def test_taylor_remainder_exact_cases():
    assert taylor_remainder(2.0, 0.0, 2.7) == 0.0
    assert taylor_remainder(2.0, 1.0, 3.0) == 0.0  # integer p, a+b ≥ 0
    assert taylor_remainder(2.0, -1.0, 3.0) == 0.0


@settings(deadline=None, max_examples=300)
@given(
    a=st.floats(1e-3, 1e3),
    b=st.floats(-1e3, 1e3).filter(lambda v: v != 0),
)
def test_taylor_remainder_cubic_bound(a, b):
    """For p = 3 the remainder is |(a+b)₋|³ ≤ |b|³: the ratio never exceeds 1."""
    rem = taylor_remainder(a, b, 3.0)
    assert rem <= (1 + 1e-12) * abs(b) ** 3


@settings(deadline=None, max_examples=100)
@given(a=st.floats(1.0, 100.0), b=st.floats(1e-6, 0.4))
def test_taylor_remainder_fractional_scaling(a, b):
    """Smooth-branch remainder for fractional p scales like b^{⌊p⌋+1}."""
    p = 2.5
    r1 = taylor_remainder(a, b * a, p)
    r2 = taylor_remainder(a, b * a / 2, p)
    if r1 > 1e-250 and r2 > 1e-250:
        assert r2 < 0.2 * r1  # 2³ = 8 expected for the b³ leading term


def test_taylor_check_deterministic():
    one = taylor_remainder_check(2000, 3.0, seed=42)
    two = taylor_remainder_check(2000, 3.0, seed=42)
    assert one.max_ratio == two.max_ratio
    assert one.argmax == two.argmax
    assert one.max_ratio <= 1.0 + 1e-12


def test_taylor_check_validates_p():
    for p in (1.5, math.nan, math.inf, 93.5, 100.0):
        with pytest.raises(ValueError):
            taylor_remainder_check(10, p, seed=0)
    assert math.isfinite(taylor_remainder_check(1000, 93.0, seed=1).max_ratio)
    for n in (0, asymptotics._TAYLOR_MAX_SAMPLES + 1):
        with pytest.raises(ValueError, match="samples"):
            taylor_remainder_check(n, 3.0, seed=0)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.7, 10.5])
def test_remainder_matches_mpmath(p):
    """binomial_remainder at k = ⌊p⌋ against mpmath, on draws and at b = 0,
    b = ±a/2, a+b < 0 and |b| ≫ a: within 1e-13 relative where |b| ≤ a/2 (the
    tail series, or 0 at integer p), and within 4(k+2)ε((a+b)₊^p + Σ|terms|)
    elsewhere (the direct difference, or the closed form at integer p); the
    scalar taylor_remainder is its absolute value bit for bit.  The reference
    keeps 50 digits beyond the cancellation of (a+b)^p against its Taylor
    polynomial, down to (|b|/a)^{k+1} ≥ 10^{−6(k+1)}."""
    mpmath = pytest.importorskip("mpmath")
    k, eps = math.floor(p), np.finfo(float).eps
    rng = np.random.default_rng(5)
    a = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 300))
    b = rng.choice((-1.0, 1.0), 300) * np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 300))
    edge = a[:20]
    a = np.concatenate([a] + [edge] * 5)
    b = np.concatenate([b, 0 * edge, 0.5 * edge, -0.5 * edge, -3 * edge, 1e3 * edge])
    got = binomial_remainder(a, b, p, k)
    with mpmath.workdps(50 + 6 * (k + 1)):
        for x, y, g in zip(a.tolist(), b.tolist(), got.tolist()):
            s = mpmath.mpf(x) + y
            plus = s**p if s > 0 else 0
            terms = [mpmath.binomial(p, m) * mpmath.mpf(x) ** (p - m) * mpmath.mpf(y) ** m
                     for m in range(k + 1)]
            error = abs(g - (plus - mpmath.fsum(terms)))
            if abs(y) <= 0.5 * x:
                assert error <= 1e-13 * abs(plus - mpmath.fsum(terms)), (x, y)
            else:
                assert error <= 4 * (k + 2) * eps * (plus + mpmath.fsum(map(abs, terms))), (x, y)
            assert taylor_remainder(x, y, p) == abs(g)


@pytest.mark.parametrize("p", [2, 3.0, 6.0, 93.0])
def test_integer_exponent_remainder_in_closed_form(p):
    """At integer p the Taylor polynomial of degree p is (a+b)^p itself: the
    remainder is −(a+b)^p where a+b < 0 and 0 elsewhere, its absolute value
    |a+b|^p scalar and vector bit for bit, and within a few ulps of the exact
    value on the draws."""
    rng = np.random.default_rng(8)
    a = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 2000))
    b = rng.choice((-1.0, 1.0), 2000) * np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 2000))
    b[:4] = (0.0, -a[1], -a[2] * (1 + 2**-40), -2 * a[3])
    s = a + b
    closed = np.where(s < 0, np.float_power(np.abs(s), p), 0.0)
    signed = binomial_remainder(a, b, p, math.floor(p))
    assert np.array_equal(signed, -np.sign(s) ** int(p) * closed)
    vector = np.abs(signed)
    assert np.array_equal(vector, closed)
    assert np.array_equal(vector, [taylor_remainder(x, y, p) for x, y in zip(a.tolist(), b.tolist())])
    for x, y, got in zip(a[:200].tolist(), b[:200].tolist(), vector[:200].tolist()):
        exact = float(abs(min(Fraction(x) + Fraction(y), 0)) ** int(p))
        assert got == pytest.approx(exact, rel=(p + 1) * 2**-52, abs=0)


def _taylor_check_by_sample(samples, p, seed):
    """The sample-by-sample loop the blocked check replaces, on the same draws."""
    rng = np.random.default_rng(seed)
    draws_a = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), samples))
    draws_b = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), samples))
    draws_b *= rng.choice((-1.0, 1.0), samples)
    best, arg = 0.0, (0.0, 0.0)
    for a, b in zip(draws_a.tolist(), draws_b.tolist()):
        ratio = taylor_remainder(a, b, p) / abs(b) ** p
        if ratio > best:
            best, arg = ratio, (a, b)
    return best, arg


@pytest.mark.parametrize("p, seed", [(3.0, 3), (2.5, 4), (4.7, 11)])
def test_blocked_check_matches_sample_loop(p, seed):
    """Over several blocks the maximum and its first argmax agree bit for bit."""
    report = taylor_remainder_check(20_000, p, seed)
    assert (report.max_ratio, report.argmax) == _taylor_check_by_sample(20_000, p, seed)


def test_interaction_quadrature_rejects_an_unresolved_integrand():
    """f switches between 1 and 1e-300 every π/1000: the radial rule reaches its
    400 subintervals with an error estimate above 1 % of the value."""
    spec = InteractionSpec(
        f=lambda r: 1.0 if math.sin(1000 * r) > 0 else 1e-300,
        g=lambda r: math.exp(-r), a=2.0, b=1.0, y0=12.0, dimension=1,
    )
    with pytest.raises(RuntimeError, match=r"quadrature error \S+ above 1% of \S+"):
        interaction_quadrature(spec)


def _polynomial(degree, seed):
    """A polynomial with random integer coefficients and its exact integral over [−1, 2]."""
    coeffs = np.random.default_rng(seed).integers(-5, 6, degree + 1)
    exact = sum(Fraction(int(c), m + 1) * (2 ** (m + 1) - (-1) ** (m + 1))
                for m, c in enumerate(coeffs))
    return np.polynomial.Polynomial(coeffs.astype(float)), exact


def test_gauss_kronrod_is_exact_to_degree_31():
    """One 21-point Kronrod panel (limit 1, no bisection) integrates a degree-31
    polynomial to roundoff."""
    poly, exact = _polynomial(31, 3)
    value, error = asymptotics._gauss_kronrod(lambda x, _: poly(x), [[-1.0, 2.0]], 1e-12, 1)
    scale = float(sum(abs(Fraction(int(c))) for c in poly.coef)) * 2**32
    assert abs(value[0] - float(exact)) <= 64 * np.finfo(float).eps * scale
    assert value.shape == error.shape == (1,)


def test_gauss_kronrod_meets_its_tolerance_on_a_square_root():
    """∫₀¹ √x dx = 2/3: the endpoint singularity in the derivative is bisected
    until the error estimate, and the value, are within epsrel."""
    value, error = asymptotics._gauss_kronrod(lambda x, _: np.sqrt(x), [[0.0, 1.0]], 1e-10, 400)
    assert error[0] <= 1e-10 * value[0]
    assert value[0] == pytest.approx(2 / 3, rel=1e-10, abs=0)


def test_gauss_kronrod_batch_matches_each_problem_alone():
    """Problems with their own break points and integrands get bit for bit the
    value and error they get when integrated alone."""
    edges = np.array([[0.0, 0.5, 1.0], [0.0, 2.0, 7.0], [-3.0, 0.0, 3.0]])
    rates = np.array([1.0, 0.3, 5.0])

    def fun(x, problem):
        return np.sqrt(np.abs(x)) * np.exp(-rates[problem] * x * x)

    values, errors = asymptotics._gauss_kronrod(fun, edges, 1e-11, 200)
    for p in range(len(edges)):
        alone = asymptotics._gauss_kronrod(lambda x, _: fun(x, np.full(x.size, p)), edges[p:p + 1],
                                           1e-11, 200)
        assert (values[p], errors[p]) == (alone[0][0], alone[1][0])


def test_gauss_kronrod_at_its_limit_reports_the_error():
    """A step function switching every π/1000 is not resolved in 10
    subintervals: the rule stops there and returns an error estimate above the
    tolerance instead of looping."""
    step = lambda x, _: np.where(np.sin(1000 * x) > 0, 1.0, 0.0)
    value, error = asymptotics._gauss_kronrod(step, [[0.0, 1.0]], 1e-8, 10)
    assert math.isfinite(value[0]) and error[0] > 1e-8 * abs(value[0])
