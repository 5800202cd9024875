"""Ground-state solver oracles and profile invariants."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import newton_cotes, simpson

from multipeak import groundstate
from multipeak.groundstate import (
    SupercriticalError,
    eval_radial,
    eval_radial_derivative,
    far_field,
    ode_residual,
    radial_pair,
    solve_ground_state,
)


def test_n1_p3_matches_sech_oracle(profile_n1):
    """Closed form U(x) = √2 sech(x) for the line with cubic nonlinearity."""
    r = np.linspace(0.0, 10.0, 2001)
    exact = np.sqrt(2.0) / np.cosh(r)
    assert np.max(np.abs(eval_radial(profile_n1, r) - exact)) < 1e-8
    assert profile_n1.center_value == pytest.approx(np.sqrt(2.0), abs=1e-10)


def test_n1_p2_matches_sech_squared_oracle():
    """Closed form U(x) = (3/2) sech²(x/2) for the quadratic nonlinearity."""
    profile = solve_ground_state(1, 2)
    r = np.linspace(0.0, 10.0, 1001)
    exact = 1.5 / np.cosh(r / 2) ** 2
    assert np.max(np.abs(eval_radial(profile, r) - exact)) < 1e-10
    # tail constant: (3/2) sech²(x/2) → 6 e^{−x}
    assert profile.tail_L0 == pytest.approx(6.0, rel=1e-3)


@pytest.mark.parametrize("p", [2.5, 4, 7, 12, 500, 1000])
def test_n1_matches_closed_form(p):
    """U(x) = ((p+1)/2)^{1/(p−1)} sech^{2/(p−1)}((p−1)x/2) on the line."""
    profile = solve_ground_state(1, p)
    r = np.linspace(0.0, 10.0, 2001)
    y = (p - 1) * r / 2
    center = ((p + 1) / 2) ** (1 / (p - 1))
    # log cosh y = y + log(1 + e^{−2y}) − log 2, since cosh overflows at large p
    exact = center * np.exp(-2 / (p - 1) * (y + np.log1p(np.exp(-2 * y)) - np.log(2)))
    assert np.max(np.abs(eval_radial(profile, r) - exact)) < 1e-10
    assert abs(eval_radial(profile, 0.0) / center - 1) < 1e-12


def test_n1_p3_between_nodes(profile_n1):
    """Between the solved nodes U and U' follow √2 sech(x) and −√2 sech(x) tanh(x)."""
    r = np.linspace(0.0, 12.0, 100_001)
    exact = np.sqrt(2.0) / np.cosh(r)
    assert np.max(np.abs(eval_radial(profile_n1, r) - exact)) < 3e-11
    assert np.max(np.abs(eval_radial_derivative(profile_n1, r) + exact * np.tanh(r))) < 1e-10


def test_n1_p3_tail_constants(profile_n1):
    """√2 sech(x) → 2√2 e^{−x}, and U' → −U in the tail."""
    assert profile_n1.tail_L0 == pytest.approx(2 * np.sqrt(2.0), rel=1e-3)
    r = np.linspace(12.5, 20.0, 50)
    ratio = eval_radial_derivative(profile_n1, r) / eval_radial(profile_n1, r)
    assert np.allclose(ratio, -1.0, rtol=0, atol=1e-12)


def test_n2_tail_spread_small(profile_n2):
    """U/T is constant on [8, 12] up to the truncation of T's series, and it
    equals L0 at the matching radius."""
    r = profile_n2.radial_grid
    mask = r >= 8.0
    w = profile_n2.values[mask] / far_field(2, r[mask])
    assert (w.max() - w.min()) / w[-1] < 1e-4
    assert w[-1] == profile_n2.tail_L0


def test_n2_p3_townes_center_value(profile_n2):
    assert profile_n2.center_value == pytest.approx(2.2062008646, abs=1e-8)


@pytest.mark.parametrize("dimension, p", [(2, 3), (2, 5), (3, 2), (3, 3)])
def test_pohozaev_and_energy_identities(dimension, p):
    """∫|∇U|² + ∫U² = ∫U^{p+1} and (N−2)/2 ∫|∇U|² + N/2 ∫U² = N/(p+1) ∫U^{p+1},
    radial integrals by Simpson's rule on the stored nodes."""
    profile = solve_ground_state(dimension, p)
    r = profile.radial_grid
    w, h = r ** (dimension - 1), r[1] - r[0]
    grad = simpson(w * profile.derivatives**2, dx=h)
    mass = simpson(w * profile.values**2, dx=h)
    power = simpson(w * profile.values ** (p + 1), dx=h)
    assert (grad + mass) / power == pytest.approx(1.0, abs=1e-7)
    pohozaev = ((dimension - 2) / 2 * grad + dimension / 2 * mass) / (dimension / (p + 1) * power)
    assert pohozaev == pytest.approx(1.0, abs=1e-7)


def newton_cotes_identities(profile):
    """The energy and Pohozaev ratios of the stored profile, radial integrals by
    the composite 9-point Newton–Cotes rule on its nodes (eighth order)."""
    r, u, du = profile.radial_grid, profile.values, profile.derivatives
    N, p = profile.dimension, profile.exponent
    rule = newton_cotes(8, 1)[0]
    weights = np.zeros(r.size)
    weights[:-1] = np.tile(rule[:-1], (r.size - 1) // 8)
    weights[8::8] += rule[-1]
    grad, mass, power = (weights @ (r ** (N - 1) * f) for f in (du**2, u**2, u ** (p + 1)))
    return (grad + mass) / power, ((N - 2) / 2 * grad + N / 2 * mass) / (N / (p + 1) * power)


@settings(deadline=None, max_examples=24, derandomize=True)
@given(case=st.one_of(st.tuples(st.just(2), st.floats(2, 20)), st.tuples(st.just(3), st.floats(2, 4.9))))
@example(case=(2, 20.0))
@example(case=(3, 4.9))
def test_admissible_exponents_solve(case):
    """For N = 2, p ∈ [2, 20] and N = 3, p ∈ [2, 4.9] the profile is positive and
    strictly decreasing on its stored nodes, whose spacing is 0.005/2^m and at most
    a quarter of the core length, and it meets the energy and Pohozaev identities
    to 1e-6, the resolution of the rule at h = ℓ/4 (1.5e-7 at N = 2, p = 10.4)."""
    profile = solve_ground_state(*case)
    r, u = profile.radial_grid, profile.values
    assert r[-1] == 12.0 and r[1] <= profile.core_length / 4 and 0.005 / r[1] in (1, 2, 4, 8, 16)
    assert np.all(u > 0) and np.all(np.diff(u) < 0)
    for ratio in newton_cotes_identities(profile):
        assert ratio == pytest.approx(1.0, abs=1e-6)


def test_near_critical_exponents(monkeypatch):
    """N = 2, p = 20 and N = 3, p = 4.9 solve with the Pohozaev tolerance cut to
    1e-9, and U(0) is the value that 97 to 241 collocation nodes agree on."""
    monkeypatch.setattr(groundstate, "_POHOZAEV_TOL", 1e-9)
    assert solve_ground_state(2, 20).center_value == pytest.approx(1.6859311673, abs=1e-8)
    assert solve_ground_state(3, 4.9).center_value == pytest.approx(13.7968158831, abs=1e-8)


@pytest.mark.parametrize("dimension, p", [(1, 2), (1, 3), (2, 3), (2, 13), (2, 20), (3, 4.9)])
def test_profile_converged_in_node_count(dimension, p, monkeypatch):
    """The stored profile on 97 collocation nodes is the one on 161 and 241 nodes
    to 5e-10 of U(0): the map resolves the core from p = 2 to the near-critical
    exponents, and roundoff has not yet taken over."""
    base = solve_ground_state(dimension, p)
    for nodes in (161, 241):
        monkeypatch.setattr(groundstate, "_NODES", nodes)
        finer = solve_ground_state(dimension, p)
        assert np.array_equal(finer.radial_grid, base.radial_grid)
        assert np.max(np.abs(finer.values - base.values)) <= 5e-10 * base.center_value


@pytest.mark.parametrize("fixture", ["profile_n1", "profile_n2"])
def test_ode_residual_independent_check(fixture, request):
    """Sixth-order finite differences of the stored U' reproduce the ODE."""
    profile = request.getfixturevalue(fixture)
    _, res = ode_residual(profile)
    assert np.max(res) < 1e-9


def test_profile_monotone_decreasing_positive(profile_n2):
    r = np.linspace(0.0, 30.0, 4000)
    u = eval_radial(profile_n2, r)
    assert np.all(u > 0)
    assert np.all(np.diff(u) < 0)


def test_tail_branch_continuous(profile_n2):
    """Cell-cubic and far-field branches agree at the matching radius."""
    rm = profile_n2.tail_match_radius
    below, above = eval_radial(profile_n2, np.array([rm, np.nextafter(rm, np.inf)]))
    assert abs(above - below) < 1e-8 * abs(below)
    dbelow, dabove = eval_radial_derivative(
        profile_n2, np.array([rm, np.nextafter(rm, np.inf)])
    )
    assert abs(dabove - dbelow) < 1e-8 * abs(dbelow)


@pytest.fixture(scope="module")
def profile_n2_p5():
    return solve_ground_state(2, 5)


@pytest.mark.parametrize("fixture", ["profile_n1", "profile_n2", "profile_n2_p5"])
def test_single_point_matches_vector_path(fixture, request):
    """One point at a time gives the vector path's U and U', and radial_pair's, bit for bit."""
    profile = request.getfixturevalue(fixture)
    knots = profile.radial_grid
    rm = profile.tail_match_radius
    r = np.concatenate([
        knots,
        np.nextafter(knots, -np.inf),
        [np.nextafter(rm, -np.inf), rm, np.nextafter(rm, np.inf)],
        [0.0, 25.0, 30.0, 800.0, -3.0, np.inf, -np.inf, np.nan],
        np.random.default_rng(0).uniform(0.0, 40.0, 10_000),
    ])
    for evaluate, paired in zip((eval_radial, eval_radial_derivative), radial_pair(profile, r)):
        one_by_one = np.array([evaluate(profile, np.asarray([x]))[0] for x in r])
        assert np.array_equal(one_by_one, evaluate(profile, r), equal_nan=True)
        assert np.array_equal(one_by_one, paired, equal_nan=True)


@pytest.mark.parametrize("shape", [(), (1,), (1, 1)])
@pytest.mark.parametrize("x", [0.3, 12.5, np.nan])
def test_single_point_keeps_shape(profile_n2, shape, x):
    out = eval_radial(profile_n2, np.full(shape, x))
    assert out.shape == shape
    assert np.array_equal(out.ravel(), eval_radial(profile_n2, np.array([x, 0.0]))[:1],
                          equal_nan=True)


def test_supercritical_rejected():
    with pytest.raises(SupercriticalError):
        solve_ground_state(3, 5.0)
    for p in (1.5, float("nan"), float("inf")):
        with pytest.raises(ValueError):
            solve_ground_state(2, p)


def test_dimension_below_one_rejected():
    with pytest.raises(ValueError, match="dimension must be >= 1"):
        groundstate.validate_exponent(0, 3.0)
