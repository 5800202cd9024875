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
from multipeak.domain import StripGrid, l2_norm, make_grid, shift_x1
from multipeak.groundstate import radial_pair


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


def _image_sums_on_whole_fields(profile, grid, centres):
    """(Σ U_c, Σ ∂U_c/∂x₁, Σ U_c^p), one centre at a time on the whole grid."""
    X1, X2 = grid.meshes()
    v, dv, vp = (np.zeros(grid.shape) for _ in range(3))
    for pos in centres:
        r = np.hypot(X1 - pos, X2)
        u, du = radial_pair(profile, r)
        v += u
        vp += u**profile.exponent
        with np.errstate(invalid="ignore", divide="ignore"):
            dv += np.where(r > 0, du * (X1 - pos) / r, 0.0)
    return v, dv, vp


@pytest.mark.parametrize("rows", ["many", "one"])
def test_blocked_image_sums_match_whole_fields(profile_n2, rows):
    """Row blocks give the whole-field sums bit for bit: on a grid of several
    blocks whose n₁ is not a multiple of the block's rows, and on one whose
    n₂ exceeds the block, so each block is a single row.  The centres sit on
    a node column (x₁ − c = 0 there; the x₂ nodes are offset by h₂/2, so
    r > 0), between nodes, and wholly beyond the matching radius, up to
    where U underflows."""
    n2 = 48 if rows == "many" else ansatz._BLOCK + 5
    per_block = max(1, ansatz._BLOCK // n2)
    n1 = 2 * per_block + 7 if rows == "many" else 8
    grid = StripGrid(0.3, 12.0, n1, n2)
    assert grid.size > ansatz._BLOCK and (n1 % per_block if rows == "many" else per_block == 1)
    half = grid.period / 2
    centres = [grid.x1[5], 0.123, -half - 40.0, half + 100.0, half + 760.0]
    for blocked, whole in zip(image_sums(profile_n2, grid, centres),
                              _image_sums_on_whole_fields(profile_n2, grid, centres)):
        assert np.array_equal(blocked, whole)


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


def test_lattice_cutoff_covers_period():
    config = uniform_configuration(0.3, 2)
    images = config.image_positions(0)
    assert images.min() < -config.period
    assert images.max() > config.period


def test_residual_rate_rejects_underflow():
    """e^{−2σ̲}σ̲^{−1/2} is the least subnormal double at σ̲ = 371.09 and 0 beyond."""
    assert residual_rate(371.09, 2) > 0
    with pytest.raises(ValueError, match="371.09"):
        residual_rate(371.1, 2)
