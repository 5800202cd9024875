"""Shooting solver oracles and profile invariants."""

import numpy as np
import pytest

from multipeak.groundstate import (
    GroundStateProfile,
    SupercriticalError,
    eval_radial,
    eval_radial_derivative,
    ode_residual,
    profile_tail_constants,
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
    profile = solve_ground_state(1, 2, tol=1e-12)
    r = np.linspace(0.0, 10.0, 1001)
    exact = 1.5 / np.cosh(r / 2) ** 2
    assert np.max(np.abs(eval_radial(profile, r) - exact)) < 1e-8
    # tail constant: (3/2) sech²(x/2) → 6 e^{−x}
    assert profile.tail_L0 == pytest.approx(6.0, rel=1e-3)


def test_n1_p3_tail_constants(profile_n1):
    """√2 sech(x) → 2√2 e^{−x}, and U' → −U in the tail."""
    assert profile_n1.tail_L0 == pytest.approx(2 * np.sqrt(2.0), rel=1e-3)
    assert profile_n1.tail_L1 == pytest.approx(2 * np.sqrt(2.0), rel=1e-3)


def test_n2_tail_spread_small(profile_n2):
    L0, L1 = profile_tail_constants(profile_n2, (8.0, 12.0))
    assert L0 > 0 and L1 > 0
    assert profile_n2.tail_spread_L0 < 0.02
    assert profile_n2.tail_spread_L1 < 0.02


@pytest.mark.parametrize("fixture", ["profile_n1", "profile_n2"])
def test_ode_residual_independent_check(fixture, request):
    """Sixth-order finite differences of the stored U' reproduce the ODE."""
    profile = request.getfixturevalue(fixture)
    _, res = ode_residual(profile)
    assert np.max(res) < 1e-9


def test_json_roundtrip(profile_n2):
    clone = GroundStateProfile.from_json(profile_n2.to_json())
    r = np.linspace(0.0, 20.0, 300)
    assert np.array_equal(eval_radial(clone, r), eval_radial(profile_n2, r))


def test_profile_monotone_decreasing_positive(profile_n2):
    r = np.linspace(0.0, 30.0, 4000)
    u = eval_radial(profile_n2, r)
    assert np.all(u > 0)
    assert np.all(np.diff(u) < 0)


def test_tail_branch_continuous(profile_n2):
    """Spline and asymptotic branches agree at the matching radius."""
    rm = profile_n2.tail_match_radius
    below, above = eval_radial(profile_n2, np.array([rm - 1e-9, rm + 1e-9]))
    assert abs(above - below) < 1e-2 * abs(below) + 1e-16
    dbelow, dabove = eval_radial_derivative(
        profile_n2, np.array([rm - 1e-9, rm + 1e-9])
    )
    assert abs(dabove - dbelow) < 0.06 * abs(dbelow)


@pytest.fixture(scope="module")
def profile_n2_p5():
    return solve_ground_state(2, 5, tol=1e-12)


@pytest.mark.parametrize("fixture", ["profile_n1", "profile_n2", "profile_n2_p5"])
def test_single_point_matches_vector_path(fixture, request):
    """One point at a time gives the vector path's value bit for bit."""
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
    one_by_one = np.array([eval_radial(profile, np.asarray([x]))[0] for x in r])
    assert np.array_equal(one_by_one, eval_radial(profile, r), equal_nan=True)


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
