"""Peak configurations, the periodized ansatz, and its residual."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipeak.ansatz import (
    PeakConfiguration,
    build_ansatz,
    nonlinear_residual,
    residual,
    residual_l2,
    residual_rate,
    uniform_configuration,
)
from multipeak.domain import make_grid, shift_x1


def test_configuration_validation():
    with pytest.raises(ValueError):
        PeakConfiguration(0.3, ())
    with pytest.raises(ValueError):
        PeakConfiguration(0.3, (0.2, 0.1))  # not increasing
    with pytest.raises(ValueError):
        PeakConfiguration(0.3, (4.0,))  # outside [-pi, pi)
    with pytest.raises(ValueError):
        PeakConfiguration(2.0, (-np.pi, 0.0))  # gap π/2 < 2 in x units
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
def test_shifted_configuration_preserves_gaps(tau):
    config = uniform_configuration(0.25, 2)
    rotated = config.shifted(tau)
    assert sorted(np.round(rotated.gaps, 9)) == sorted(np.round(config.gaps, 9))


def test_build_ansatz_rejects_period_mismatch(profile_n2):
    config = uniform_configuration(0.3, 1)
    with pytest.raises(ValueError):
        build_ansatz(config, profile_n2, make_grid(0.4))


def test_cell_partition_balanced(bundle_k2):
    counts = np.bincount(bundle_k2.cell_labels.ravel())
    assert len(counts) == 2
    # equidistant boundary columns tie to the lower index, so the split is
    # balanced only up to those two columns
    assert abs(counts[0] - counts[1]) <= 2 * bundle_k2.grid.nodes_xp


def test_translation_mode_is_x1_derivative(bundle_k1):
    """∂v/∂x₁ from the profile matches differentiating v spectrally."""
    v = bundle_k1.peak_fields[0]
    t = bundle_k1.translation_modes[0]
    n = bundle_k1.grid.nodes_x1
    k = 2j * np.pi * np.fft.rfftfreq(n, d=bundle_k1.grid.h1)
    g1 = np.fft.irfft(k[:, None] * np.fft.rfft(v.data, axis=0), n=n, axis=0)
    assert np.max(np.abs(g1 - t.data)) < 1e-4  # band-limit truncation


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
    assert residual_l2(bundle_k2) > res.sup_norm() / bundle_k2.grid.size


def test_lattice_cutoff_covers_period():
    config = uniform_configuration(0.3, 2)
    images = config.image_positions(0)
    assert images.min() < -config.period
    assert images.max() > config.period
