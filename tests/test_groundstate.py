"""Ground-state solver oracles and profile invariants."""

import numpy as np
import pytest
from scipy.integrate import newton_cotes, simpson

from multipeak.groundstate import (
    NEWTON_COTES_9,
    SupercriticalError,
    eval_radial,
    eval_radial_derivative,
    far_field,
    ode_residual,
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


@pytest.mark.parametrize("p", [2.5, 4, 7, 12])
def test_n1_matches_closed_form(p):
    """U(x) = ((p+1)/2)^{1/(p−1)} sech^{2/(p−1)}((p−1)x/2) on the line."""
    profile = solve_ground_state(1, p)
    r = np.linspace(0.0, 10.0, 2001)
    exact = ((p + 1) / 2) ** (1 / (p - 1)) / np.cosh((p - 1) * r / 2) ** (2 / (p - 1))
    assert np.max(np.abs(eval_radial(profile, r) - exact)) < 1e-10


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


@pytest.mark.parametrize("p, step", [(3, 0.005), (10, 0.005), (11, 0.0025), (12, 0.0025)])
def test_spacing_halved_only_for_narrow_core(p, step):
    """N = 2 up to p = 10 passes the Pohozaev check on the 0.005 nodes and is
    solved there alone, as before; p = 11 and 12 need the 0.0025 nodes."""
    profile = solve_ground_state(2, p)
    r = profile.radial_grid
    assert r[1] == step and r[-1] == 12.0 and r.size == round(12 / step) + 1


def test_unresolved_core_raises():
    """Near the critical exponent the core is too narrow for the grid."""
    with pytest.raises(RuntimeError, match="Pohozaev"):
        solve_ground_state(3, 4.9)


@pytest.mark.parametrize("fixture", ["profile_n1", "profile_n2"])
def test_ode_residual_independent_check(fixture, request):
    """Sixth-order finite differences of the stored U' reproduce the ODE."""
    profile = request.getfixturevalue(fixture)
    _, res = ode_residual(profile)
    assert np.max(res) < 1e-9


def test_newton_cotes_weights_are_scipys():
    """The fixed 9-point weights equal scipy's to the last bit."""
    assert np.array_equal(NEWTON_COTES_9, newton_cotes(8, 1)[0])


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
    """One point at a time gives the vector path's U and U' bit for bit."""
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
    for evaluate in (eval_radial, eval_radial_derivative):
        one_by_one = np.array([evaluate(profile, np.asarray([x]))[0] for x in r])
        assert np.array_equal(one_by_one, evaluate(profile, r), equal_nan=True)


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
