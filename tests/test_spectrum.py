"""Weighted eigenpairs, near-kernel identification, principal angles."""

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from conftest import helmholtz_csr, linearized_csr

from multipeak.ansatz import build_ansatz, uniform_configuration
from multipeak.domain import GridField, inner_products, make_grid
from multipeak.groundstate import solve_ground_state
from multipeak.spectrum import (
    NearKernelError,
    linearized,
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
    Lu = GridField(ubar.grid, linearized(ubar, bundle_k1.profile.exponent)(ubar.data))
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
            assert h1 == pytest.approx(1.0 if i == j else 0.0, abs=1e-12)


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
    # reference: B-orthonormalize both frames by Cholesky, then SVD of the
    # cross-Gram matrix; agrees only while the eigenvectors are H¹-orthonormal
    B, wgt = helmholtz_csr(bundle_k2.grid), bundle_k2.grid.weight

    def orthonormal(X):
        return X @ np.linalg.inv(np.linalg.cholesky(wgt * (X.T @ (B @ X)))).T

    E = np.stack(
        [spectral_k2.eigenvectors[m].data.ravel() for m in spectral_k2.near_kernel],
        axis=1,
    )
    T = np.stack([t.data.ravel() for t in bundle_k2.translation_modes], axis=1)
    s = np.linalg.svd(wgt * (orthonormal(E).T @ (B @ orthonormal(T))), compute_uv=False)
    assert angles == pytest.approx(np.arccos(np.clip(s, -1.0, 1.0)), abs=1e-10)


def test_near_kernel_error_for_merged_peaks(profile_n2):
    """Peaks barely past the separation floor have no clean near kernel."""
    bundle = build_ansatz(
        uniform_configuration(1.2, 2), profile_n2, make_grid(1.2)
    )
    with pytest.raises(NearKernelError) as info:
        result = lowest_eigenpairs(bundle, count=5)
        near_kernel_basis(result, bundle)
    assert info.value.eigenvalues is not None


def test_count_validation(bundle_k2):
    """The lowest 2k values are the two clusters; one more shows the gap."""
    with pytest.raises(ValueError):
        lowest_eigenpairs(bundle_k2, count=4)


@pytest.mark.parametrize(
    "p, grid_args, count",
    [
        (2, (0.5, 6.0, 0.5), 8),  # degenerate pairs at λ ≈ −1.2124 and −0.3847
        (5, (0.3,), 7),  # a run from a symmetric (constant) start misses one of each pair
    ],
)
def test_degenerate_spectrum_matches_dense(p, grid_args, count):
    """Uniform k = 3 has exactly degenerate pairs; both members are returned."""
    grid = make_grid(*grid_args)
    bundle = build_ansatz(
        uniform_configuration(grid.epsilon, 3), solve_ground_state(2, p), grid
    )
    result = lowest_eigenpairs(bundle, count=count)
    dense = scipy.linalg.eigh(
        linearized_csr(bundle.ubar, bundle.profile.exponent).toarray(),
        helmholtz_csr(grid).toarray(),
        eigvals_only=True,
        subset_by_index=[0, count - 1],
    )
    assert result.eigenvalues == pytest.approx(dense, abs=1e-10)


@pytest.mark.parametrize("k, eps, count", [(3, 1.0, 7), (4, 0.75, 9)])
def test_lowest_eigenvalues_not_skipped(profile_n2, k, eps, count):
    """Merged peaks put λ = −7.922 (and for k = 4 the pair at −5.442) below
    1−p−½; a run shifted there returned the eigenvalues nearest the shift."""
    grid = make_grid(eps, 6.0, 0.5)
    bundle = build_ansatz(uniform_configuration(eps, k), profile_n2, grid)
    result = lowest_eigenpairs(bundle, count=count)
    dense = scipy.linalg.eigh(
        linearized_csr(bundle.ubar, bundle.profile.exponent).toarray(),
        helmholtz_csr(grid).toarray(),
        eigvals_only=True,
        subset_by_index=[0, count - 1],
    )
    assert dense[0] == pytest.approx(-7.922, abs=1e-3)
    assert result.eigenvalues == pytest.approx(dense, abs=1e-10)


def test_one_lanczos_run(bundle_k2, monkeypatch):
    """One run without a shift, on the fast B⁻¹, from a seeded non-constant vector."""
    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
    lowest_eigenpairs(bundle_k2, count=6)
    assert len(calls) == 1
    assert np.ptp(calls[0]["v0"]) > 0
    assert "sigma" not in calls[0] and calls[0]["Minv"] is not None


def test_eigenvector_sign_follows_start_vector(bundle_k2, monkeypatch):
    """Each eigenvector pairs positively with the seeded start vector, whatever
    sign the eigensolver returns it with."""
    starts = []
    eigsh = scipy.sparse.linalg.eigsh

    def flipped(*args, **kwargs):
        starts.append(kwargs["v0"])
        vals, vecs = eigsh(*args, **kwargs)
        return vals, -vecs

    plain = lowest_eigenpairs(bundle_k2, count=6)
    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", flipped)
    result = lowest_eigenpairs(bundle_k2, count=6)
    for f, g in zip(result.eigenvectors, plain.eigenvectors):
        assert f.data.ravel() @ starts[0] > 0
        assert np.array_equal(f.data, g.data)
