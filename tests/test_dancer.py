"""Newton continuation and the structural probes of the solution."""

import gc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from multipeak.ansatz import (
    build_ansatz,
    image_sums,
    peak_distance_field,
    uniform_configuration,
)
from multipeak import dancer
from multipeak.dancer import (
    PIN,
    align_and_compare,
    minimal_period_gaps,
    newton_solve,
    nonlinear_residual,
    verify_evenness,
)
from multipeak.domain import GridField, make_grid, shift_x1


@pytest.fixture(scope="module")
def solution_k1(bundle_k1):
    return newton_solve(bundle_k1, tol=1e-11)


def pinning_direction(bundle):
    """c with cᵀu = ⟨u, ∂v_pin/∂x₁⟩_{H¹}, the bordered column of the solver."""
    grid = bundle.grid
    return grid.weight * grid.helmholtz(bundle.translation_modes[:, PIN])


def test_newton_converges_fast(solution_k1, bundle_k1):
    assert solution_k1.iterations <= 8
    assert len(solution_k1.minres_iterations) == solution_k1.iterations
    assert all(0 < count <= 40 for count in solution_k1.minres_iterations)
    assert solution_k1.newton_history[-1] < 1e-11
    res = nonlinear_residual(solution_k1.field, 3.0).data.ravel()
    res += solution_k1.multiplier * pinning_direction(bundle_k1)
    assert np.linalg.norm(res) == pytest.approx(
        solution_k1.newton_history[-1], rel=1e-8, abs=0
    )


@pytest.fixture(scope="module")
def off_lattice(profile_n2):
    """k = 2, ε = 0.3, both peaks 0.37 desk h₁ off the lattice: (desk, refined) runs."""
    desk = make_grid(0.3)
    config = uniform_configuration(0.3, 2).shifted(0.37 * desk.h1 * 0.3)
    runs = []
    for grid in (desk, desk.refined()):
        bundle = build_ansatz(config, profile_n2, grid)
        runs.append((bundle, newton_solve(bundle, tol=1e-11)))
    return runs


def test_off_lattice_newton_converges(off_lattice):
    _, sol = off_lattice[0]
    assert sol.newton_history[-1] <= 1e-11


def test_off_lattice_residual_is_the_pinning_force(off_lattice):
    """Off the lattice F(u) = 0 has no pinned root: ‖F(u)‖ = |μ|‖c‖ > 0."""
    bundle, sol = off_lattice[0]
    force = abs(sol.multiplier) * np.linalg.norm(pinning_direction(bundle))
    assert force > 1e-8
    assert np.linalg.norm(nonlinear_residual(sol.field, 3.0).data) == pytest.approx(
        force, rel=1e-6, abs=0
    )


def test_off_lattice_multiplier_vanishes_under_refinement(off_lattice):
    """The same physical shift is 0.74 h₁ on the halved grid; μ drops to roundoff."""
    _, fine = off_lattice[1]
    assert fine.newton_history[-1] <= 1e-11
    assert abs(fine.multiplier) < 1e-12


@pytest.mark.parametrize("k", [2, 3])
def test_equilibrate_then_newton(profile_n2, equilibrated, k):
    """Newton converges from criterion 08's equilibrated configurations."""
    uniform, _, result = equilibrated[k]
    bundle = build_ansatz(result.config, profile_n2, make_grid(uniform.epsilon))
    assert newton_solve(bundle, tol=1e-11).newton_history[-1] <= 1e-11


def test_newton_non_finite_start_raises(bundle_k2):
    """A NaN or infinite iterate is never reported as converged."""
    data = bundle_k2.ubar.data.copy()
    data[3, 3] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(RuntimeError):
        newton_solve(bundle_k2, initial=GridField(bundle_k2.grid, data))


def test_solution_positive(solution_k1):
    assert solution_k1.field.data.min() > -1e-10


def test_solution_even_about_pin(solution_k1):
    assert verify_evenness(solution_k1) < 1e-9


def test_minimal_period(solution_k1):
    full, half = minimal_period_gaps(solution_k1)
    assert full < 1e-9
    assert half > 0.5


def test_periodized_sum_periodic(profile_n2, bundle_k1):
    grid = bundle_k1.grid
    v, _, _ = image_sums(profile_n2, grid, 0.0)
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


@pytest.mark.parametrize("h, shape", [(0.25, (84, 48)), (0.0625, (336, 192))],
                         ids=["84x48", "336x192"])
def test_newton_minres_iterations_do_not_grow_with_grid(profile_n2, h, shape):
    """Each pinned step is one MINRES run whose preconditioned operator does not
    depend on the grid, so k = 2 takes at most 40 iterations per step.  The
    steps are inexact: the first stops at the forcing term 0.1 within 6
    iterations, and the whole solve takes at most 40."""
    bundle = build_ansatz(uniform_configuration(0.3, 2), profile_n2, make_grid(0.3, h=h))
    assert bundle.grid.shape == shape
    sol = newton_solve(bundle)
    assert len(sol.minres_iterations) == sol.iterations
    assert max(sol.minres_iterations) <= 40
    assert sol.minres_iterations[0] <= 6
    assert sum(sol.minres_iterations) <= 40


def test_newton_builds_the_frame_once(bundle_k2, monkeypatch):
    """The frame's Gram inverse is computed once per solve, not at every Newton step."""
    inv, shapes = np.linalg.inv, []
    monkeypatch.setattr(np.linalg, "inv", lambda a: shapes.append(a.shape) or inv(a))
    sol = newton_solve(bundle_k2)
    assert sol.iterations >= 2
    assert shapes == [(2, 2)]


def test_newton_leaves_no_reference_cycles(bundle_k2):
    """A solve frees its operators by reference counting: nothing is left for
    the cycle collector, which would otherwise hold every step's Jacobian and
    frame until a full collection."""
    gc.collect()
    gc.disable()
    try:
        newton_solve(bundle_k2)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_psi_decay_fit_rejects_a_non_monotone_sweep(profile_n2, monkeypatch):
    """A weighted sup that grows as ε falls flags an under-resolved sweep."""
    real, sups = dancer.weighted_sup, []

    def growing(field, config, eta):
        sups.append(10 * sups[-1] if sups else real(field, config, eta))
        return sups[-1]

    monkeypatch.setattr(dancer, "weighted_sup", growing)
    with pytest.raises(RuntimeError, match="not monotone"):
        dancer.psi_decay_fit(profile_n2, (0.35, 0.3), 1, 0.3, make_grid)
    assert len(sups) == 2


@pytest.mark.parametrize("eta", [0.0, 1.0, float("nan")])
def test_psi_decay_fit_rejects_eta_outside_the_unit_interval(profile_n2, eta):
    with pytest.raises(ValueError, match="eta must lie in"):
        dancer.psi_decay_fit(profile_n2, (0.35, 0.3), 1, eta, make_grid)
