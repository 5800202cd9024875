"""Exponentially weighted norms and the constrained solve."""

import numpy as np
import pytest
from conftest import fields

from multipeak import weighted
from multipeak.ansatz import residual
from multipeak.domain import GridField, inner_products
from multipeak.weighted import (
    DEFAULT_ETAS,
    solve_orthogonal,
    weighted_report,
    weighted_sup,
)


@pytest.fixture(scope="module")
def rhs_k2(bundle_k2):
    return GridField(bundle_k2.grid, -residual(bundle_k2).data)


def test_weighted_sup_validates_eta(rhs_k2, bundle_k2):
    for eta in (0.0, 1.0, -0.3):
        with pytest.raises(ValueError):
            weighted_sup(rhs_k2, bundle_k2.config, eta)


def test_weighted_sup_monotone_in_eta(rhs_k2, bundle_k2):
    sups = [weighted_sup(rhs_k2, bundle_k2.config, eta) for eta in DEFAULT_ETAS]
    assert sups[0] <= sups[1] <= sups[2]
    assert sups[0] >= rhs_k2.sup_norm()  # e^{η d} ≥ 1 everywhere


def test_weighted_sup_zero_field(bundle_k2):
    zero = GridField(bundle_k2.grid, np.zeros(bundle_k2.grid.shape))
    assert weighted_sup(zero, bundle_k2.config, 0.5) == 0.0


def test_solve_orthogonal_constraints(rhs_k2, bundle_k2, basis_k2):
    xi = solve_orthogonal(rhs_k2, bundle_k2, basis_k2)
    xi_h1 = np.sqrt(inner_products(xi, xi)[1])
    for phi in fields(basis_k2.grid, basis_k2.Phi):
        phi_h1 = np.sqrt(inner_products(phi, phi)[1])
        assert abs(inner_products(xi, phi)[1]) < 1e-8 * xi_h1 * phi_h1


def test_weighted_report_bounded_ratio(rhs_k2, bundle_k2, basis_k2):
    """The weighted output norm is controlled by the weighted input norm."""
    for eta in DEFAULT_ETAS:
        report = weighted_report(rhs_k2, bundle_k2, basis_k2, eta)
        assert report.eta == eta
        assert 0 < report.ratio < 10.0


def test_ratio_of_zero_input(bundle_k2):
    from multipeak.weighted import WeightedReport

    assert WeightedReport(0.3, 0.0, 0.0).ratio == 0.0
    assert WeightedReport(0.3, 0.0, 1.0).ratio == np.inf


def test_solve_orthogonal_rejects_a_bad_solution(rhs_k2, bundle_k2, basis_k2, monkeypatch):
    """Both gates fire: a step 1e-6·B⁻¹h⊥ on the complement breaks Πᵀ𝕃ξ = h⊥
    (residual), and a frame component returned for h⊥ = 0, which no residual
    sees, breaks the H¹-orthogonality to the frame (defect 1 for φ₀)."""
    solve = weighted.complement_solve

    def perturbed(P, frame, rhs):
        xi, its = solve(P, frame, rhs)
        # B⁻¹h⊥ lies on {Cᵀx = 0}: the defect gate stays quiet, the residual one fires
        return xi + 1e-6 * frame.grid.helmholtz_inverse(rhs), its

    monkeypatch.setattr(weighted, "complement_solve", perturbed)
    with pytest.raises(RuntimeError, match="residual .* too large"):
        solve_orthogonal(rhs_k2, bundle_k2, basis_k2)

    monkeypatch.setattr(weighted, "complement_solve",
                        lambda P, frame, rhs: (frame.Phi[:, 0].copy(), 0))
    zero = GridField(bundle_k2.grid, np.zeros(bundle_k2.grid.shape))
    with pytest.raises(RuntimeError, match="orthogonality defect 1.000e\\+00 too large"):
        solve_orthogonal(zero, bundle_k2, basis_k2)
