"""Weighted eigenpairs, near-kernel identification, principal angles."""

import json

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse.linalg
from conftest import fields, helmholtz_csr, linearized_csr

from multipeak import spectrum
from multipeak.ansatz import PeakConfiguration, build_ansatz, uniform_configuration
from multipeak.cli import EXIT_NUMERICAL, main
from multipeak.domain import GridField, StripGrid, h1_norm, inner_products, make_grid
from multipeak.groundstate import solve_ground_state
from multipeak.spectrum import (
    NearKernelError,
    lowest_eigenpairs,
    near_kernel_basis,
    potential,
    principal_angles,
)


def test_ground_state_exact_eigenvector_identity(bundle_k1):
    """Dual route: 𝕃U = (1−p)(−Δ+1)U holds algebraically since BU = U^p.

    The ansatz ū itself (one peak, huge cell) plays the role of U, so the
    Rayleigh quotient of the pencil at ū must sit at 1−p = −2 up to the
    exponentially small lattice-image interaction.
    """
    ubar = bundle_k1.ubar
    P = potential(ubar, bundle_k1.profile.exponent)
    Lu = GridField(ubar.grid, ubar.grid.helmholtz(ubar.data, P))
    num = inner_products(Lu, ubar)[0]
    den = inner_products(ubar, ubar)[1]
    assert num / den == pytest.approx(-2.0, rel=2e-2)


def test_lowest_eigenvalue_near_minus_two(spectral_k1):
    assert spectral_k1.eigenvalues[0] == pytest.approx(-2.0, rel=0.02)
    assert np.all(spectral_k1.eigenvalues < 1.0)


def test_eigenvectors_b_orthonormal(spectral_k2):
    vecs = fields(spectral_k2.bundle.grid, spectral_k2.eigenvectors)
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
    phis = fields(basis_k2.grid, basis_k2.Phi)
    assert len(phis) == 2
    assert np.all(basis_k2.alphas > 0)
    assert np.all(basis_k2.alignment_residuals < 0.2)
    for phi in phis:
        assert phi.sup_norm() == pytest.approx(1.0, rel=1e-12)
    # pairwise H¹ orthogonality survives the rotation
    cross = inner_products(phis[0], phis[1])[1]
    norm0 = inner_products(phis[0], phis[0])[1]
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

    E = spectral_k2.eigenvectors[:, spectral_k2.near_kernel]
    T = bundle_k2.translation_modes
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


def test_unresolved_core_is_rejected_by_the_eigensolve():
    """A library caller of the spectrum is guarded as the Newton step is: at
    p = 7 the desk grid (h = 0.25 > 2.5ℓ = 0.1402) loses the translation modes."""
    grid = make_grid(0.3)
    bundle = build_ansatz(uniform_configuration(0.3, 2), solve_ground_state(2, 7), grid)
    with pytest.raises(RuntimeError, match="so h must be at most 2.5 l = 0.1402"):
        lowest_eigenpairs(bundle, count=5)


def dense_lowest(bundle, count):
    """The `count` lowest eigenvalues of the pencil (𝕃, −Δ+1) by dense `eigh`: the reference."""
    return scipy.linalg.eigh(
        linearized_csr(bundle.ubar, bundle.profile.exponent).toarray(),
        helmholtz_csr(bundle.grid).toarray(),
        eigvals_only=True,
        subset_by_index=[0, count - 1],
    )


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
    dense = dense_lowest(bundle, count)
    assert result.eigenvalues == pytest.approx(dense, abs=1e-10)


@pytest.mark.parametrize("k, eps, count", [(3, 1.0, 7), (4, 0.75, 9)])
def test_lowest_eigenvalues_not_skipped(profile_n2, k, eps, count):
    """Merged peaks put λ = −7.922 (and for k = 4 the pair at −5.442) below
    1−p−½; a run shifted there returned the eigenvalues nearest the shift."""
    grid = make_grid(eps, 6.0, 0.5)
    bundle = build_ansatz(uniform_configuration(eps, k), profile_n2, grid)
    result = lowest_eigenpairs(bundle, count=count)
    dense = dense_lowest(bundle, count)
    assert dense[0] == pytest.approx(-7.922, abs=1e-3)
    assert result.eigenvalues == pytest.approx(dense, abs=1e-10)


def test_one_lanczos_run(bundle_k2, monkeypatch):
    """One block run without a shift on K = P^{1/2}B⁻¹P^{1/2}, by the fast B⁻¹, from
    a seeded generic block of size 2 whose first column is default_rng(0)'s vector."""
    calls = []
    lanczos = spectrum._block_lanczos

    def counted(apply, start, count):
        calls.append((apply, start))
        return lanczos(apply, start, count)

    monkeypatch.setattr(spectrum, "_block_lanczos", counted)
    lowest_eigenpairs(bundle_k2, count=6)
    assert len(calls) == 1
    apply, start = calls[0]
    grid = bundle_k2.grid
    assert start.shape == (grid.size, 2) and np.ptp(start, axis=0).min() > 0
    assert np.array_equal(start[:, 0], np.random.default_rng(0).standard_normal(grid.size))
    p = bundle_k2.profile.exponent
    root = np.sqrt(p * bundle_k2.ubar.data.ravel() ** (p - 1))[:, None]
    B = helmholtz_csr(grid)
    assert apply(start) == pytest.approx(root * scipy.sparse.linalg.spsolve(B, root * start),
                                         abs=1e-12)


def test_eigenvector_sign_follows_start_vector(bundle_k2, monkeypatch):
    """Each eigenvector pairs positively with the first column of the seeded start
    block, whatever sign the eigensolver returns it with."""
    starts = []
    lanczos = spectrum._block_lanczos

    def flipped(apply, start, count):
        starts.append(start)
        theta, z = lanczos(apply, start, count)
        return theta, -z

    plain = lowest_eigenpairs(bundle_k2, count=6)
    monkeypatch.setattr(spectrum, "_block_lanczos", flipped)
    result = lowest_eigenpairs(bundle_k2, count=6)
    for f, g in zip(result.eigenvectors.T, plain.eigenvectors.T):
        assert f @ starts[0][:, 0] > 0
        assert np.array_equal(f, g)


def test_off_lattice_spectrum_matches_dense(profile_n2):
    """Unequal gaps (peaks at −3.1 and 0.2, ε = 0.3) break the pair symmetry;
    the desk mesh width with a transverse extent of 6 keeps the dense reference small."""
    bundle = build_ansatz(PeakConfiguration(0.3, (-3.1, 0.2)), profile_n2, make_grid(0.3, 6.0))
    result = lowest_eigenpairs(bundle, count=6)
    assert result.near_kernel_count == 2
    assert result.eigenvalues == pytest.approx(dense_lowest(bundle, 6), abs=1e-10)


def test_merged_bundle_bottom_eigenvalue(profile_n2):
    """At ε = 1.2 the two peaks merge into one bump, whose bottom eigenvalue
    −4.886 lies far below 1−p = −2; the run returns it and the dense values."""
    bundle = build_ansatz(uniform_configuration(1.2, 2), profile_n2, make_grid(1.2))
    result = lowest_eigenpairs(bundle, count=5)
    assert result.eigenvalues[0] == pytest.approx(-4.886, abs=1e-3)
    assert result.eigenvalues == pytest.approx(dense_lowest(bundle, 5), abs=1e-10)


def test_lanczos_step_cap_exits_numerical(monkeypatch, capsys):
    """A Lanczos run that reaches its step cap is a numerical failure: the
    command exits 3 with the error line and no traceback."""
    monkeypatch.setattr(spectrum, "LANCZOS_MAXSTEPS", 1)
    assert main(["spectrum", "--eps", "0.3", "--k", "2"]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert "Traceback" not in err
    error = json.loads(err.splitlines()[-1])
    assert error["error"] == "numerical"
    assert "block Lanczos did not converge in 1 steps" in error["detail"]


def test_block_lanczos_stops_when_the_basis_fills_the_space():
    """On a 26×26 random symmetric matrix the basis fills the space after 13
    steps, between two 5-step tests: the run returns the top 5 of `eigh` there."""
    rng = np.random.default_rng(1)
    X = rng.standard_normal((26, 26))
    A = X + X.T
    applied = []

    def apply(x):
        applied.append(x.shape)
        return A @ x

    theta, z = spectrum._block_lanczos(apply, rng.standard_normal((26, 2)), 5)
    vals, vecs = np.linalg.eigh(A)
    assert len(applied) == 13
    assert theta == pytest.approx(vals[:-6:-1], abs=1e-12)
    assert np.abs(z.T @ vecs[:, :-6:-1]) == pytest.approx(np.eye(5), abs=1e-12)


@pytest.fixture(scope="module", params=["k2", "k3", "off-lattice"])
def spectrum_case(request, profile_n2, bundle_k2, spectral_k2):
    """(bundle, spectrum): k = 2 and k = 3 equal peaks, and the off-lattice pair (−3.1, 0.2)."""
    if request.param == "k2":
        return bundle_k2, spectral_k2
    config = {"k3": uniform_configuration(0.2, 3),
              "off-lattice": PeakConfiguration(0.3, (-3.1, 0.2))}[request.param]
    bundle = build_ansatz(config, profile_n2, make_grid(config.epsilon))
    return bundle, lowest_eigenpairs(bundle, count=2 * config.k + 2)


def pairwise(left, right):
    """[i, j] = ⟨left_i, right_j⟩_{H¹} by one inner_products call per pair, and the
    Cauchy–Schwarz scale ‖left_i‖‖right_j‖ of each entry."""
    products = np.array([[inner_products(a, b)[1] for b in right] for a in left])
    return products, np.outer([h1_norm(a) for a in left], [h1_norm(b) for b in right])


def test_block_products_match_pairwise(spectrum_case):
    """Every H¹ product the spectrum forms as a block (√w BvecsᵀT and h1_gram)
    agrees with the per-pair products to 1e-13 of the entry's Cauchy–Schwarz
    scale; αᵢ and the alignment residuals to 1e-13 relative; the principal
    angles through their cosines (arccos near 1 amplifies roundoff) to 1e-13."""
    bundle, result = spectrum_case
    grid = bundle.grid
    modes = fields(grid, bundle.translation_modes)
    products, scale = pairwise(fields(grid, result.eigenvectors), modes)
    assert np.all(np.abs(result.translation_products - products) <= 1e-13 * scale)
    tnorms = np.array([h1_norm(t) for t in modes])
    assert np.all(np.abs(result.overlap_matrix - products / tnorms) <= 1e-13 * scale / tnorms)

    basis = near_kernel_basis(result, bundle)
    cross, _ = pairwise(fields(grid, basis.Phi), modes)
    gram, _ = pairwise(modes, modes)
    assert basis.alphas == pytest.approx(np.diag(cross) / np.diag(gram), rel=1e-13, abs=0)
    R = basis.Phi - basis.alphas * bundle.translation_modes
    residuals = [h1_norm(r) for r in fields(grid, R)]
    assert basis.alignment_residuals == pytest.approx(residuals, rel=1e-13, abs=0)

    whitened = products[result.near_kernel] @ np.linalg.inv(np.linalg.cholesky(gram)).T
    cosines = np.linalg.svd(whitened, compute_uv=False)
    assert np.cos(principal_angles(result, bundle)) == pytest.approx(cosines, rel=1e-13, abs=0)


def test_eigenpairs_take_one_stencil_pass(bundle_k2, monkeypatch):
    """The products with the translation modes come from the block Bvecs that the
    residual check forms: `lowest_eigenpairs` applies −Δ+1 once, to that block."""
    shapes = []
    stencil = StripGrid.helmholtz

    def counted(self, x, potential=None):
        shapes.append(np.shape(x))
        return stencil(self, x, potential)

    monkeypatch.setattr(StripGrid, "helmholtz", counted)
    lowest_eigenpairs(bundle_k2, count=6)
    assert shapes == [(bundle_k2.grid.size, 6)]
