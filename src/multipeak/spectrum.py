"""Weighted spectral analysis of the linearized operator.

The linearization of the equation at ū is 𝕃 = −Δ + 1 − p ū^{p−1}.  Its
eigenvalues are taken in the weighted sense

    𝕃ξ = λ(−Δ+1)ξ,

a symmetric-definite pencil (B = −Δ+1 is positive definite), so the
spectrum is real and bounded above by 1.  For a k-peak configuration the
low spectrum consists of a bottom cluster near 1−p and a k-dimensional
near-kernel cluster near 0 asymptotically spanned by the translation modes
∂v_i/∂x₁.  With 𝕃 = B − P, P = diag(p ū₊^{p−1}) ≥ 0, the pencil is
Pξ = (1−λ)Bξ, so the lowest λ are the largest μ = 1−λ of (P, B): both
clusters come from one regular-mode Lanczos run on B⁻¹P, with B⁻¹ the grid's
fast exact inverse.  The module also holds the potential of F′(u) = B − P
(:func:`potential`), from which every 𝕃 product in the package is formed, and
the frame every constrained solve is H¹-orthogonal to (:class:`NearKernelBasis`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .ansatz import AnsatzBundle
from .domain import GridField, StripGrid, check_resolution, h1_gram

GAP_THRESHOLD = 0.1


class NearKernelError(RuntimeError):
    """Observed near-kernel dimension differs from the peak count."""

    def __init__(self, message, eigenvalues):
        super().__init__(message)
        self.eigenvalues = eigenvalues


@dataclass
class SpectralResult:
    """Low eigenpairs of the weighted pencil, B-orthonormal; eigenvector m is
    column m of the column-major (n, count) block, flattened."""

    bundle: AnsatzBundle
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    residuals: np.ndarray
    near_kernel: np.ndarray  # indices of the eigenvalues with |λ| < GAP_THRESHOLD
    translation_products: np.ndarray  # [m, i] = ⟨ξ_m, ∂v_i/∂x₁⟩_{H¹}

    @property
    def near_kernel_count(self) -> int:
        return len(self.near_kernel)

    @property
    def overlap_matrix(self) -> np.ndarray:
        """H¹ overlaps with the normalized translation modes."""
        T = self.bundle.translation_modes
        return self.translation_products / np.sqrt(np.diag(h1_gram(self.bundle.grid, T, T)))


def potential(u: GridField, p: float) -> np.ndarray:
    """P = p u₊^{p−1}, flattened: F′(u) = −Δ + 1 − P is 𝕃 at u = ū and Newton's
    Jacobian.  A stencil pass ``grid.helmholtz(x, P)`` applies it; the MINRES
    loops form Bv − Pv from the Bv their preconditioner already holds."""
    return p * np.maximum(u.data.ravel(), 0.0) ** (p - 1)


# Lanczos steps of block size 2 before `lowest_eigenpairs` gives up; the desk
# spectra take 20–60
LANCZOS_MAXSTEPS = 200


def _block_lanczos(apply, start: np.ndarray, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(θ descending, orthonormal columns z) of the `count` largest eigenpairs of the
    symmetric operator `apply` on (n, b) blocks, by block Lanczos from `start`.

    Each step applies full reorthogonalization twice (Golub and Underwood,
    1977; Parlett, *The Symmetric Eigenvalue Problem*, 1980), so the block
    tridiagonal T (diagonal blocks QⱼᵀKQⱼ, off-diagonal the R of each QR) is
    the operator on the basis.  Every 5 steps, and at the last step (the
    basis fills the space, or the cap), the Ritz residuals ‖R Y_last‖ are
    tested against 1e-12·θ_max.  No product with the whole basis on both
    sides is formed: its bytes would depend on the BLAS thread count.

    Raises
    ------
    RuntimeError
        If the Ritz residuals still fail that test at the last step, which
        is at most LANCZOS_MAXSTEPS.
    """
    n, b = start.shape
    steps = min(LANCZOS_MAXSTEPS, n // b)
    Q = np.empty((b * (steps + 1), n))  # the basis, one row per vector
    T = np.zeros((len(Q), len(Q)))
    Q[:b] = np.linalg.qr(start)[0].T
    for j in range(steps):
        cur, m = slice(j * b, (j + 1) * b), (j + 1) * b
        W = apply(Q[cur].T)
        T[cur, cur] = Q[cur] @ W
        for _ in range(2):
            W -= Q[:m].T @ (Q[:m] @ W)
        Qn, R = np.linalg.qr(W)
        Q[m:m + b], T[m:m + b, cur] = Qn.T, R
        if m >= count and ((j + 1) % 5 == 0 or j + 1 == steps):
            theta, Y = np.linalg.eigh(T[:m, :m])
            theta, Y = theta[:-count - 1:-1], Y[:, :-count - 1:-1]
            if np.all(np.linalg.norm(R @ Y[-b:], axis=0) <= 1e-12 * theta[0]):
                return theta, Q[:m].T @ Y
    raise RuntimeError(f"block Lanczos did not converge in {LANCZOS_MAXSTEPS} steps")


def lowest_eigenpairs(bundle: AnsatzBundle, count: int) -> SpectralResult:
    """Smallest `count` weighted eigenvalues by one block Lanczos run.

    The run asks for the largest μ of Pξ = μBξ, P = diag(p ū₊^{p−1}), and
    returns λ = 1 − μ ascending.  The lowest λ are the top end of the
    (P, B) spectrum, where Lanczos converges first; unlike a run about a
    shift, none of them can lie out of its reach.  The run is on the
    Euclidean-symmetric K = P^{1/2}B⁻¹P^{1/2}, which has the same μ, with
    B⁻¹ the grid's fast exact inverse, so nothing is factored; an
    eigenvector z of K gives the B-normalized ξ = B⁻¹P^{1/2}z/√μ.  The start
    block is seeded, so reruns are bit-identical, and generic of size 2, so
    both members of each degenerate pair of equal peaks are in its Krylov
    space; each eigenvector is signed to pair positively with the start
    block's first column, so the signs do not depend on the solver's
    arithmetic.  The lowest 2k eigenvalues are the bottom and near-kernel
    clusters, so `count` ≥ 2k+1 also sees the gap above them.

    Raises
    ------
    RuntimeError
        If the grid does not resolve the core (:func:`check_resolution`), if
        the Lanczos run does not converge, or if any returned pair's
        residual ‖𝕃ξ − λBξ‖₂ exceeds 1e-8·‖Bξ₀‖₂.
    """
    if count < 2 * bundle.config.k + 1:
        raise ValueError("count must be at least 2k + 1 to see the spectral gap")
    check_resolution(bundle.profile, bundle.grid)
    grid, p = bundle.grid, bundle.profile.exponent
    pot = potential(bundle.ubar, p)
    root = np.sqrt(pot)[:, None]
    start = np.random.default_rng(0).standard_normal((2, grid.size)).T
    mu, z = _block_lanczos(lambda x: root * grid.helmholtz_inverse(root * x), start, count)
    vals = 1.0 - mu
    if np.any(vals >= 1.0):
        raise RuntimeError(f"eigenvalue >= 1 returned: {vals}")
    vecs = grid.helmholtz_inverse(root * z) / np.sqrt(mu)
    # Lanczos leaves each sign arbitrary; fix it by the generic start vector
    vecs = vecs * np.where(start[:, 0] @ vecs < 0, -1.0, 1.0)
    Bvecs = grid.helmholtz(vecs)
    residuals = np.linalg.norm(Bvecs * (1.0 - vals) - pot[:, None] * vecs, axis=0)
    if np.any(residuals > 1e-8 * np.linalg.norm(Bvecs[:, 0])):
        raise RuntimeError(f"eigen-residuals too large: {residuals}")

    # scale so the quadrature-weighted H¹ norm is 1 (B-orthonormal in the
    # same inner product used everywhere else): ⟨ξ/√w, t⟩_{H¹} = √w (Bξ)ᵀt
    scale = 1.0 / np.sqrt(grid.weight)
    return SpectralResult(
        bundle=bundle,
        eigenvalues=vals,
        eigenvectors=np.multiply(scale, vecs, order="F"),  # column-major, as the bundle's blocks
        residuals=residuals,
        near_kernel=np.flatnonzero(np.abs(vals) < GAP_THRESHOLD),
        translation_products=np.sqrt(grid.weight) * (Bvecs.T @ bundle.translation_modes),
    )


@dataclass
class NearKernelBasis:
    """A frame φ_i ≈ α_i ∂v_i/∂x₁ (:func:`~multipeak.reduction.translation_frame`,
    or rotated eigenvectors) with its algebra, built once: ``Phi`` (the (n, k)
    block, column i the flattened φ_i), ``C`` = BΦ and the inverse ``Ginv`` of
    the H¹ Gram matrix G = ΦᵀC, needed since the translation modes overlap."""

    grid: StripGrid
    Phi: np.ndarray
    alphas: np.ndarray
    alignment_residuals: np.ndarray

    def __post_init__(self):
        self.C = self.grid.helmholtz(self.Phi)
        G = self.Phi.T @ self.C  # φ_i·(Bφ_j), symmetric up to roundoff
        self.Ginv = np.linalg.inv(0.5 * (G + G.T))

    def split(self, h) -> tuple[np.ndarray, np.ndarray]:
        """(h⊥, d) with h = h⊥ + Σ d_i (−Δ+1)φ_i on h flattened, d = G⁻¹(⟨h, φ_j⟩_{L²})_j:
        h⊥ = Πᵀh pairs to zero with every φ_j in the (H⁻¹, H¹) duality."""
        flat = np.ravel(h)
        d = self.Ginv @ (self.Phi.T @ flat)
        return flat - self.C @ d, d


def near_kernel_basis(result: SpectralResult, bundle: AnsatzBundle) -> NearKernelBasis:
    """Rotate the near-kernel eigenvectors into per-peak alignment (the `spectrum` diagnostic).

    The orthogonal Procrustes rotation of the H¹ overlap matrix with the
    translation modes maximizes Σ_i ⟨φ_i, ∂v_i/∂x₁⟩; pairwise
    H¹-orthogonality is preserved since the rotation is orthogonal in the
    B-orthonormal coordinates.  Each φ_i is scaled to sup-norm 1 with
    ⟨φ_i, ∂v_i/∂x₁⟩_{H¹} > 0.
    """
    k = bundle.config.k
    idx = result.near_kernel
    if len(idx) != k:
        raise NearKernelError(
            f"near-kernel dimension {len(idx)} != k = {k}", result.eigenvalues
        )
    grid, T = bundle.grid, bundle.translation_modes
    W, _, Vt = np.linalg.svd(result.translation_products[idx])
    Phi = result.eigenvectors[:, idx] @ (W @ Vt)
    overlaps = np.diag(h1_gram(grid, Phi, T))  # ⟨φ_i, ∂v_i/∂x₁⟩_{H¹} before the scaling
    scale = np.where(overlaps < 0, -1.0, 1.0) / np.max(np.abs(Phi), axis=0)
    Phi *= scale
    alphas = scale * overlaps / np.diag(h1_gram(grid, T, T))
    R = Phi - alphas * T
    return NearKernelBasis(
        grid=grid,
        Phi=Phi,
        alphas=alphas,
        alignment_residuals=np.sqrt(np.maximum(np.diag(h1_gram(grid, R, R)), 0.0)),
    )


def principal_angles(result: SpectralResult, bundle: AnsatzBundle) -> np.ndarray:
    """Principal angles between the near-kernel and span{∂v_i/∂x₁} in H¹.

    The eigenvectors are already H¹-orthonormal, so only the translation
    frame is orthonormalized (by the Cholesky factor of its Gram matrix)
    before the SVD of the cross-Gram matrix.
    """
    T = bundle.translation_modes
    gram = h1_gram(bundle.grid, T, T)
    cross = result.translation_products[result.near_kernel]
    s = np.linalg.svd(cross @ np.linalg.inv(np.linalg.cholesky(gram)).T, compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))
