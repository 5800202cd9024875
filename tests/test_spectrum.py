"""Weighted eigenpairs, near-kernel identification, principal angles."""

import numpy as np
import pytest

from multipeak.ansatz import build_ansatz, uniform_configuration
from multipeak.domain import inner_products, make_grid
from multipeak.spectrum import (
    NearKernelError,
    apply_linearized,
    lowest_eigenpairs,
    near_kernel_basis,
    principal_angles,
)


def test_ground_state_exact_eigenvector_identity(bundle_k1):
    """Dual route: 𝕃U = (1−p)(−Δ+1)U holds algebraically since BU = U^p.

    The ansatz ū itself (one peak, huge cell) plays the role of U, so the
    Rayleigh quotient of the pencil at ū must sit at 1−p = −2 up to the
    exponentially small lattice-image interaction.
    """
    ubar = bundle_k1.ubar
    Lu = apply_linearized(bundle_k1, ubar)
    num = inner_products(Lu, ubar)[0]
    den = inner_products(ubar, ubar)[1]
    assert num / den == pytest.approx(-2.0, rel=2e-2)


def test_lowest_eigenvalue_near_minus_two(spectral_k1):
    assert spectral_k1.eigenvalues[0] == pytest.approx(-2.0, rel=0.02)
    assert np.all(spectral_k1.eigenvalues < 1.0)


def test_eigenvectors_b_orthonormal(spectral_k2):
    vecs = spectral_k2.eigenvectors
    for i, vi in enumerate(vecs):
        for j, vj in enumerate(vecs):
            h1 = inner_products(vi, vj)[1]
            assert h1 == pytest.approx(1.0 if i == j else 0.0, abs=1e-7)


def test_eigen_residuals_small(spectral_k2):
    assert np.all(spectral_k2.residuals < 1e-7)


def test_near_kernel_count_and_gap(spectral_k2):
    assert spectral_k2.near_kernel_count == 2
    outside = [abs(l) for l in spectral_k2.eigenvalues if abs(l) >= 0.1]
    assert min(outside) > 0.3


def test_near_kernel_basis_alignment(spectral_k2, bundle_k2, basis_k2):
    assert len(basis_k2.fields) == 2
    assert np.all(basis_k2.alphas > 0)
    assert np.all(basis_k2.alignment_residuals < 0.2)
    for phi in basis_k2.fields:
        assert phi.sup_norm() == pytest.approx(1.0, rel=1e-12)
    # pairwise H¹ orthogonality survives the rotation
    cross = inner_products(basis_k2.fields[0], basis_k2.fields[1])[1]
    norm0 = inner_products(basis_k2.fields[0], basis_k2.fields[0])[1]
    assert abs(cross) < 1e-7 * norm0


def test_principal_angles_small(spectral_k2, bundle_k2):
    angles = principal_angles(spectral_k2, bundle_k2)
    assert angles.shape == (2,)
    assert angles.max() < 0.1


def test_near_kernel_error_for_merged_peaks(profile_n2):
    """Peaks barely past the separation floor have no clean near kernel."""
    bundle = build_ansatz(
        uniform_configuration(1.2, 2), profile_n2, make_grid(1.2)
    )
    with pytest.raises(NearKernelError) as info:
        result = lowest_eigenpairs(bundle, count=4)
        near_kernel_basis(result, bundle)
    assert info.value.eigenvalues is not None


def test_count_validation(bundle_k2):
    with pytest.raises(ValueError):
        lowest_eigenpairs(bundle_k2, count=3)
