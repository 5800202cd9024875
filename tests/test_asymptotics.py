"""Interaction-integral and Taylor-remainder oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipeak.asymptotics import (
    InteractionSpec,
    interaction_limit,
    interaction_quadrature,
    mass_constant,
    rescale,
    taylor_remainder,
    taylor_remainder_check,
    taylor_remainders,
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
    for a, y0 in ((math.inf, 12.0), (math.nan, 12.0), (2.0, math.nan), (2.0, math.inf)):
        with pytest.raises(ValueError):
            InteractionSpec(decay, decay, a=a, b=1.0, y0=y0)


@settings(deadline=None, max_examples=10)
@given(y0=st.floats(6.0, 25.0))
def test_quadrature_matches_closed_form(y0):
    val = interaction_quadrature(exp_spec(y0=y0))
    assert val == pytest.approx(closed_form_cell_integral(y0), rel=1e-7)


def test_quadrature_negative_separation_symmetry():
    a = interaction_quadrature(exp_spec(y0=12.0))
    b = interaction_quadrature(exp_spec(y0=-12.0))
    assert a == pytest.approx(b, rel=1e-9)


def test_mass_constant_closed_form():
    """∫ e^{−2|x|} e^{x} dx = 1/3 + 1 = 4/3 for the tilted exponential."""
    assert mass_constant(exp_spec()) == pytest.approx(4.0 / 3.0, rel=1e-9)


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


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.7])
def test_vectorized_remainder_matches_scalar(p):
    """Every regime of taylor_remainder, including its boundaries, bit for bit."""
    rng = np.random.default_rng(5)
    a = np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 3000))
    b = rng.choice((-1.0, 1.0), 3000) * np.exp(rng.uniform(np.log(1e-3), np.log(1e3), 3000))
    a = np.concatenate([a, a[:100], a[:100], a[:100], a[:100]])
    b = np.concatenate([b, 0 * a[:100], -a[:100], 0.5 * a[:100], -0.5 * a[:100]])
    scalar = [taylor_remainder(x, y, p) for x, y in zip(a.tolist(), b.tolist())]
    assert np.array_equal(taylor_remainders(a, b, p), scalar)


def _taylor_check_by_sample(samples, p, seed):
    """The sample-by-sample loop the blocked check replaces."""
    rng = np.random.default_rng(seed)
    log_a = rng.uniform(np.log(1e-3), np.log(1e3), samples)
    log_b = rng.uniform(np.log(1e-3), np.log(1e3), samples)
    signs = rng.choice((-1.0, 1.0), samples)
    best, arg = 0.0, (0.0, 0.0)
    for la, lb, sg in zip(log_a, log_b, signs):
        a, b = math.exp(la), sg * math.exp(lb)
        ratio = taylor_remainder(a, b, p) / abs(b) ** p
        if ratio > best:
            best, arg = ratio, (a, b)
    return best, arg


@pytest.mark.parametrize("p, seed", [(3.0, 3), (2.5, 4), (4.7, 11)])
def test_blocked_check_matches_sample_loop(p, seed):
    """Over several blocks the maximum and its first argmax agree bit for bit."""
    report = taylor_remainder_check(20_000, p, seed)
    assert (report.max_ratio, report.argmax) == _taylor_check_by_sample(20_000, p, seed)
