"""Peak configurations, the periodized ansatz, and its residual."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from multipeak import ansatz
from multipeak.ansatz import (
    PeakConfiguration,
    build_ansatz,
    image_sums,
    nonlinear_residual,
    residual,
    residual_rate,
    uniform_configuration,
)
from multipeak.domain import MIN_TRANSVERSE, StripGrid, l2_norm, make_grid, shift_x1
from multipeak.groundstate import radial_pair, solve_ground_state


def test_configuration_validation():
    with pytest.raises(ValueError):
        PeakConfiguration(0.3, ())
    with pytest.raises(ValueError):
        PeakConfiguration(0.3, (0.2, 0.1))  # not increasing
    with pytest.raises(ValueError):
        PeakConfiguration(0.3, (4.0,))  # outside [-pi, pi)
    with pytest.raises(ValueError):
        PeakConfiguration(2.0, (-np.pi, 0.0))  # gap π/2 < 2 in x units
    with pytest.raises(ValueError, match=r"smallest gap, 1\.66667 from peak 1 to peak 2,"):
        PeakConfiguration(0.3, (-3.0, -1.0, -0.5))
    # kε ≥ π puts the equal gap 2π/(kε) at or below 2: rejected before 10⁷ angles are made
    with pytest.raises(ValueError, match=r"of k = 10000000 peaks at eps = 0\.3 is 2\.0944e-06,"):
        uniform_configuration(0.3, 10_000_000)
    for eps, angles in ((np.nan, (0.0,)), (0.3, (np.nan,)), (0.3, (-1.0, np.nan))):
        with pytest.raises(ValueError):
            PeakConfiguration(eps, angles)


def test_uniform_configuration_gaps():
    config = uniform_configuration(0.3, 3)
    assert config.k == 3
    assert np.allclose(config.gaps, config.period / 3)
    assert config.sigma_min == pytest.approx(config.period / 6)


def test_single_peak_half_gap_is_half_period():
    config = uniform_configuration(0.3, 1)
    assert config.half_gaps == (0.5 * config.period,)


@settings(deadline=None, max_examples=40)
@given(tau=st.floats(-3.0, 3.0))
@example(tau=-4.653319539486099e-16)  # −π + τ + π rounds below 0, and % gave 2π
def test_shifted_configuration_preserves_gaps(tau):
    config = uniform_configuration(0.25, 2)
    rotated = config.shifted(tau)
    assert sorted(np.round(rotated.gaps, 9)) == sorted(np.round(config.gaps, 9))


def test_build_ansatz_rejects_period_mismatch(profile_n2):
    config = uniform_configuration(0.3, 1)
    with pytest.raises(ValueError):
        build_ansatz(config, profile_n2, make_grid(0.4))


def test_cell_partition_balanced(bundle_k2):
    assert bundle_k2.cell_labels.shape == (bundle_k2.grid.nodes_x1,)
    counts = np.bincount(bundle_k2.cell_labels)
    assert len(counts) == 2
    # equidistant boundary columns tie to the lower index, so the split is
    # balanced only up to those two columns
    assert abs(counts[0] - counts[1]) <= 2


def test_translation_mode_is_x1_derivative(bundle_k1):
    """∂v/∂x₁ from the profile matches differentiating v spectrally."""
    v = bundle_k1.peak_fields[:, 0].reshape(bundle_k1.grid.shape)
    t = bundle_k1.translation_modes[:, 0].reshape(bundle_k1.grid.shape)
    n = bundle_k1.grid.nodes_x1
    k = 2j * np.pi * np.fft.rfftfreq(n, d=bundle_k1.grid.h1)
    g1 = np.fft.irfft(k[:, None] * np.fft.rfft(v, axis=0), n=n, axis=0)
    assert np.max(np.abs(g1 - t)) < 1e-4  # band-limit truncation


def _image_sums_on_whole_fields(profile, grid, centres, reach=np.inf):
    """(Σ U_c, Σ ∂U_c/∂x₁, Σ U_c^p), one centre at a time on the whole grid, in
    the order given; a centre adds 0 on the rows with |x₁ − c| ≥ reach."""
    X1, X2 = grid.meshes()
    v, dv, vp = (np.zeros(grid.shape) for _ in range(3))
    for pos in centres:
        r = np.hypot(X1 - pos, X2)
        u, du = radial_pair(profile, r)
        near = np.abs(X1 - pos) < reach
        v += np.where(near, u, 0.0)
        vp += np.where(near, u**profile.exponent, 0.0)
        with np.errstate(invalid="ignore", divide="ignore"):
            dv += np.where(near & (r > 0), du * (X1 - pos) / r, 0.0)
    return v, dv, vp


@pytest.mark.parametrize("rows", ["many", "one"])
def test_blocked_image_sums_match_whole_fields(profile_n2, rows):
    """Row blocks and reach windows give, bit for bit, the whole-field sums in
    which each image adds 0 beyond its reach ρ = hypot(P/2, R) + 60 ln 2: on
    a grid of several blocks whose n₁ is not a multiple of the block's rows,
    and on one whose n₂ exceeds the block, so each block is a single row.
    The peak sits on a node column (x₁ − c = 0 there; the x₂ nodes are
    offset by h₂/2, so r > 0), between nodes, and outside the cell."""
    n2 = 48 if rows == "many" else ansatz._BLOCK + 5
    per_block = max(1, ansatz._BLOCK // n2)
    n1 = 2 * per_block + 7 if rows == "many" else 8
    grid = StripGrid(0.3, 12.0, n1, n2)
    assert grid.size > ansatz._BLOCK and (n1 % per_block if rows == "many" else per_block == 1)
    reach = np.hypot(grid.period / 2, 12.0) + 60 * np.log(2)
    for position in (grid.x1[5], 0.123, -grid.period / 2 - 40.0):
        centres = position + grid.period * np.arange(-8, 9)
        for windowed, whole in zip(image_sums(profile_n2, grid, position),
                                   _image_sums_on_whole_fields(profile_n2, grid, centres, reach)):
            assert np.array_equal(windowed, whole)


def _ulps(x, ref):
    return np.max(np.abs(x - ref) / np.spacing(np.maximum(np.abs(x), np.abs(ref))))


@settings(deadline=None, max_examples=30, derandomize=True)
@given(k=st.integers(1, 4), fraction=st.floats(0.0, 1.0), jitter=st.lists(st.floats(-1, 1), min_size=4, max_size=4),
       tau=st.floats(-np.pi, np.pi), R=st.sampled_from([4.0, 12.0]), h=st.sampled_from([0.25, 0.125]))
@example(k=1, fraction=1.0, jitter=[0.0] * 4, tau=0.0, R=12.0, h=0.25)  # ε = 3.08: P = 2.04
@example(k=2, fraction=1.0, jitter=[0.0] * 4, tau=1.0, R=4.0, h=0.25)  # 22 images reach a row
def test_windowed_ansatz_matches_a_wide_lattice(profile_n2, k, fraction, jitter, tau, R, h):
    """ΣU^p is within 1 ulp at every node of the sums over a wide lattice in
    ascending order, ū and each Uᵢ within 2, and ∂₁Uᵢ within 2⁻⁵²·max|∂₁Uᵢ|,
    for k = 1…4 peaks jittered off the uniform angles by up to 0.45 of the
    slack over the separation and rotated, at ε from 0.08 to 0.98π/k.  The
    reference takes ±(L + 3) images, L the former cutoff ⌈ε(30 + g_max)/2π⌉ + 1,
    and at least those within 120 in x₁, which ±(L + 3) misses at ε near π.
    The dropped images are below 2⁻⁶⁰ of the nearest copy, yet they can move
    the rounding of the twenty or so kept ones: both sums are up to 4 ulps
    from an extended-precision one, and Uᵢ up to 2 apart (250 random cases)."""
    eps = 0.08 + fraction * (0.98 * np.pi / k - 0.08)
    G = 2 * np.pi / k
    slack = 0.45 * (G - 2 * eps)
    angles = [-np.pi + slack + G * i + slack * jitter[i] for i in range(k)]
    config = PeakConfiguration(eps, tuple(angles)).shifted(tau)
    grid = make_grid(eps, R, h)
    bundle = build_ansatz(config, profile_n2, grid)
    L = max(int(np.ceil(eps * (30 + max(config.gaps)) / (2 * np.pi))) + 4, int(np.ceil(120 / grid.period)))
    ubar, power = np.zeros(grid.shape), np.zeros(grid.shape)
    for i, pos in enumerate(config.positions):
        v, dv, vp = _image_sums_on_whole_fields(profile_n2, grid, pos + grid.period * np.arange(-L, L + 1))
        ubar += v
        power += vp
        assert _ulps(bundle.peak_fields[:, i], v.ravel()) <= 2
        t = bundle.translation_modes[:, i]
        assert np.max(np.abs(t - dv.ravel())) <= 2.0**-52 * np.max(np.abs(dv))
    assert _ulps(bundle.ubar.data, ubar) <= 2 and _ulps(bundle.power_sum.data, power) <= 1


@pytest.mark.parametrize("p", [2, 3, 7, 13])
def test_profile_log_derivative_is_below_minus_one_beyond_four(p):
    """U′/U ≤ −1 for r ≥ 4 = `MIN_TRANSVERSE` on the stored profile, the cubic
    cells (100 points each) and the far field up to r = 700: it bounds an image
    beyond the reach of `image_sums` by 2⁻⁶⁰ of the peak's nearest copy."""
    profile = solve_ground_state(2, p)
    r = np.concatenate([np.arange(4.0, profile.tail_match_radius, profile._cells[0] / 100),
                        np.linspace(profile.tail_match_radius, 700.0, 10_001)])
    u, du = radial_pair(profile, r)
    assert MIN_TRANSVERSE == 4.0 and np.all(u > 0) and np.all(du / u <= -1)


def test_residual_dual_route_converges(profile_n2):
    """Algebraic and discrete-operator residuals agree to O(h²)."""
    config = uniform_configuration(0.6, 1)
    diffs = []
    grid = make_grid(0.6, h=0.25)
    for _ in range(2):
        bundle = build_ansatz(config, profile_n2, grid)
        gap = nonlinear_residual(bundle.ubar, profile_n2.exponent) - residual(bundle)
        diffs.append(gap.sup_norm())
        grid = grid.refined()
    assert 3.0 < diffs[0] / diffs[1] < 5.0


def test_residual_subperiodic_for_uniform_pair(bundle_k2):
    """Uniform two-peak residual repeats at half the period."""
    res = residual(bundle_k2)
    moved = shift_x1(res, 0.5 * bundle_k2.grid.period)
    assert (res - moved).sup_norm() < 1e-9 * max(res.sup_norm(), 1e-30)


def test_residual_scale(bundle_k2):
    res = residual(bundle_k2)
    rate = residual_rate(bundle_k2.config.sigma_min, 2)
    assert 1.0 < res.sup_norm() / rate < 1e3
    assert l2_norm(residual(bundle_k2)) > res.sup_norm() / bundle_k2.grid.size


def test_residual_rate_rejects_underflow():
    """e^{−2σ̲}σ̲^{−1/2} is the least subnormal double at σ̲ = 371.09 and 0 beyond."""
    assert residual_rate(371.09, 2) > 0
    with pytest.raises(ValueError, match="371.09"):
        residual_rate(371.1, 2)
