"""Newton continuation and the structural probes of the solution."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipeak.ansatz import image_sums, peak_distance_field
from multipeak.dancer import (
    align_and_compare,
    minimal_period_gaps,
    newton_solve,
    nonlinear_residual,
    verify_evenness,
)
from multipeak.domain import GridField, shift_x1


@pytest.fixture(scope="module")
def solution_k1(bundle_k1):
    return newton_solve(bundle_k1, tol=1e-11)


def test_newton_converges_fast(solution_k1):
    assert solution_k1.iterations <= 8
    assert solution_k1.newton_history[-1] < 1e-7
    res = nonlinear_residual(solution_k1.field, 3.0)
    assert np.linalg.norm(res.data) == pytest.approx(
        solution_k1.newton_history[-1], rel=1e-8
    )


def test_solution_positive(solution_k1):
    assert solution_k1.field.data.min() > -1e-10


def test_solution_even_about_pin(solution_k1):
    assert verify_evenness(solution_k1) < 1e-9


def test_minimal_period(solution_k1):
    full, half = minimal_period_gaps(solution_k1)
    assert full < 1e-9
    assert half > 0.5


def test_psi_small_compared_to_peak(solution_k1):
    assert solution_k1.psi.sup_norm() < 5e-2 * solution_k1.field.sup_norm()


def test_periodized_sum_periodic(profile_n2, bundle_k1):
    grid = bundle_k1.grid
    v, _, _ = image_sums(profile_n2, grid, grid.period * np.arange(-4, 5))
    total = GridField(grid, v)
    moved = shift_x1(total, grid.period)
    assert (total - moved).sup_norm() < 1e-12


@settings(deadline=None, max_examples=15)
@given(steps=st.integers(-30, 30))
def test_align_and_compare_on_lattice_translates(solution_k1, steps):
    """Whole-cell shifts are exact, so alignment recovers them to roundoff."""
    tau = steps * solution_k1.field.grid.h1
    moved = shift_x1(solution_k1.field, tau)
    assert align_and_compare(moved, solution_k1.field) < 1e-9


def test_align_shift_off_lattice(solution_k1):
    """Sub-cell shifts are recovered up to the quadratic peak refinement."""
    from multipeak.domain import align_shift

    tau = 0.37 * solution_k1.field.grid.h1
    moved = shift_x1(solution_k1.field, tau)
    est = align_shift(moved, solution_k1.field)
    assert abs(est + tau) < 0.25 * solution_k1.field.grid.h1


def test_peak_distance_field(bundle_k2):
    d = peak_distance_field(bundle_k2.grid, bundle_k2.config.positions)
    assert d.shape == bundle_k2.grid.shape
    assert d.min() < bundle_k2.grid.h1  # some node sits next to a peak
    assert d.max() <= np.hypot(
        0.5 * bundle_k2.grid.period, bundle_k2.grid.transverse_extent
    )


def test_two_start_agreement(bundle_k2):
    """Differently perturbed starts reach the same pinned solution."""
    rng = np.random.default_rng(5)
    sols = []
    for _ in range(2):
        bump = 1e-3 * rng.standard_normal(bundle_k2.grid.shape)
        start = GridField(bundle_k2.grid, bundle_k2.ubar.data + bump)
        sols.append(newton_solve(bundle_k2, initial=start, tol=1e-11))
    diff = align_and_compare(sols[0].field, sols[1].field)
    assert diff < 1e-6
