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
fast exact inverse.  The module also holds F′(u) as one stencil callable
(:func:`linearized`) and the frame every constrained solve is H¹-orthogonal
to (:class:`NearKernelBasis`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .ansatz import AnsatzBundle
from .domain import GridField, h1_norm, inner_products

GAP_THRESHOLD = 0.1


class NearKernelError(RuntimeError):
    """Observed near-kernel dimension differs from the peak count."""

    def __init__(self, message, eigenvalues):
        super().__init__(message)
        self.eigenvalues = eigenvalues


@dataclass
class SpectralResult:
    """Low eigenpairs of the weighted pencil, B-orthonormal."""

    bundle: AnsatzBundle
    eigenvalues: np.ndarray
    eigenvectors: list[GridField]
    residuals: np.ndarray
    near_kernel: np.ndarray  # indices of the eigenvalues with |λ| < GAP_THRESHOLD
    translation_products: np.ndarray  # [m, i] = ⟨ξ_m, ∂v_i/∂x₁⟩_{H¹}

    @property
    def near_kernel_count(self) -> int:
        return len(self.near_kernel)

    @property
    def overlap_matrix(self) -> np.ndarray:
        """H¹ overlaps with the normalized translation modes."""
        tnorms = np.array([h1_norm(t) for t in self.bundle.translation_modes])
        return self.translation_products / tnorms


def linearized(u: GridField, p: float):
    """F′(u) = −Δ + 1 − p u₊^{p−1}, x ↦ F′(u)x on flattened fields or blocks: 𝕃 at
    u = ū, Newton's Jacobian; one stencil pass with the potential on the diagonal."""
    return partial(u.grid.helmholtz, potential=p * np.maximum(u.data, 0.0) ** (p - 1))


def lowest_eigenpairs(bundle: AnsatzBundle, count: int) -> SpectralResult:
    """Smallest `count` weighted eigenvalues by one regular-mode Lanczos run.

    The run asks for the largest μ of Pξ = μBξ, P = diag(p ū₊^{p−1}), and
    returns λ = 1 − μ ascending.  The lowest λ are the top end of the
    (P, B) spectrum, where Lanczos converges first; unlike a run about a
    shift, none of them can lie out of its reach.  B⁻¹ is the grid's fast exact inverse, so nothing is
    factored.  The start vector is seeded, so reruns are bit-identical,
    and generic, so every symmetry class (each member of a degenerate pair)
    is in its Krylov space; each eigenvector is signed to pair positively
    with it, so the signs do not depend on the solver's arithmetic.  The
    lowest 2k eigenvalues are the bottom and near-kernel clusters, so
    `count` ≥ 2k+1 also sees the gap above them.

    Raises
    ------
    RuntimeError
        If any returned pair's residual ‖𝕃ξ − λBξ‖₂ exceeds 1e-8·‖Bξ₀‖₂.
    """
    if count < 2 * bundle.config.k + 1:
        raise ValueError("count must be at least 2k + 1 to see the spectral gap")
    from scipy.sparse.linalg import LinearOperator, eigsh

    grid, p = bundle.grid, bundle.profile.exponent
    pot = p * np.maximum(bundle.ubar.data.ravel(), 0.0) ** (p - 1)
    shape = (grid.size, grid.size)
    P = LinearOperator(shape, matvec=lambda x: pot * np.ravel(x), dtype=float)
    B = LinearOperator(shape, matvec=grid.helmholtz, dtype=float)
    Binv = LinearOperator(shape, matvec=grid.helmholtz_inverse, dtype=float)
    v0 = np.random.default_rng(0).standard_normal(grid.size)
    # ascending μ with B-orthonormal eigenvector columns, reversed to ascending λ
    mu, vecs = eigsh(P, k=count, M=B, Minv=Binv, which="LA", tol=1e-12, v0=v0)
    vals, vecs = 1.0 - mu[::-1], vecs[:, ::-1]
    # Lanczos leaves each sign arbitrary; fix it by the generic start vector
    vecs = vecs * np.where(v0 @ vecs < 0, -1.0, 1.0)

    if np.any(vals >= 1.0):
        raise RuntimeError(f"eigenvalue >= 1 returned: {vals}")
    Bvecs = grid.helmholtz(vecs)
    residuals = np.linalg.norm(Bvecs * (1.0 - vals) - pot[:, None] * vecs, axis=0)
    if np.any(residuals > 1e-8 * np.linalg.norm(Bvecs[:, 0])):
        raise RuntimeError(f"eigen-residuals too large: {residuals}")

    # scale so the quadrature-weighted H¹ norm is 1 (B-orthonormal in the
    # same inner product used everywhere else)
    scale = 1.0 / np.sqrt(bundle.grid.weight)
    fields = [
        GridField(bundle.grid, scale * v.reshape(bundle.grid.shape))
        for v in vecs.T
    ]

    products = np.array(
        [[inner_products(f, t)[1] for t in bundle.translation_modes] for f in fields]
    )
    return SpectralResult(
        bundle=bundle,
        eigenvalues=vals,
        eigenvectors=fields,
        residuals=residuals,
        near_kernel=np.flatnonzero(np.abs(vals) < GAP_THRESHOLD),
        translation_products=products,
    )


@dataclass
class NearKernelBasis:
    """A frame φ_i ≈ α_i ∂v_i/∂x₁ (:func:`~multipeak.reduction.translation_frame`,
    or rotated eigenvectors) with its algebra, built once: ``Phi`` (the fields
    as columns), ``C`` = BΦ and the inverse ``Ginv`` of the H¹ Gram matrix
    G = ΦᵀC, needed since the translation modes overlap."""

    fields: list[GridField]
    alphas: np.ndarray
    alignment_residuals: np.ndarray

    def __post_init__(self):
        self.grid = self.fields[0].grid
        self.Phi = np.array([phi.data.ravel() for phi in self.fields]).T
        self.C = self.grid.helmholtz(self.Phi)
        G = self.Phi.T @ self.C  # φ_i·(Bφ_j), symmetric up to roundoff
        self.Ginv = np.linalg.inv(0.5 * (G + G.T))

    def split(self, h) -> tuple[np.ndarray, np.ndarray]:
        """(h⊥, d) with h = h⊥ + Σ d_i (−Δ+1)φ_i on h flattened, d = G⁻¹(⟨h, φ_j⟩_{L²})_j:
        h⊥ = Πᵀh pairs to zero with every φ_j in the (H⁻¹, H¹) duality."""
        flat = np.ravel(h)
        d = self.Ginv @ (self.Phi.T @ flat)
        return flat - self.C @ d, d

    def project(self, x: np.ndarray) -> np.ndarray:
        """Πx: the B-orthogonal projection onto {x : Cᵀx = 0}."""
        return x - self.Phi @ (self.Ginv @ (self.C.T @ x))

    def project_t(self, y: np.ndarray) -> np.ndarray:
        """Πᵀy: the component of y that pairs to zero with every φ_i."""
        return self.split(y)[0]


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
    vecs = [result.eigenvectors[m] for m in idx]
    W, _, Vt = np.linalg.svd(result.translation_products[idx])
    Q = W @ Vt
    fields, alphas, residuals = [], [], []
    for i, t in enumerate(bundle.translation_modes):
        phi = GridField(bundle.grid, sum(Q[m, i] * vecs[m].data for m in range(k)))
        if inner_products(phi, t)[1] < 0:
            phi = -1.0 * phi
        phi = (1.0 / phi.sup_norm()) * phi
        alpha = inner_products(phi, t)[1] / inner_products(t, t)[1]
        fields.append(phi)
        alphas.append(alpha)
        residuals.append(h1_norm(phi - alpha * t))
    return NearKernelBasis(
        fields=fields,
        alphas=np.array(alphas),
        alignment_residuals=np.array(residuals),
    )


def principal_angles(result: SpectralResult, bundle: AnsatzBundle) -> np.ndarray:
    """Principal angles between the near-kernel and span{∂v_i/∂x₁} in H¹.

    The eigenvectors are already H¹-orthonormal, so only the translation
    frame is orthonormalized (by the Cholesky factor of its Gram matrix)
    before the SVD of the cross-Gram matrix.
    """
    modes = bundle.translation_modes
    gram = np.array([[inner_products(a, b)[1] for b in modes] for a in modes])
    cross = result.translation_products[result.near_kernel]
    s = np.linalg.svd(cross @ np.linalg.inv(np.linalg.cholesky(gram)).T, compute_uv=False)
    return np.arccos(np.clip(s, -1.0, 1.0))
