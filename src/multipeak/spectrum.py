"""Weighted spectral analysis of the linearized operator.

The linearization of the equation at ū is 𝕃 = −Δ + 1 − p ū^{p−1}.  Its
eigenvalues are taken in the weighted sense

    𝕃ξ = λ(−Δ+1)ξ,

a symmetric-definite pencil (B = −Δ+1 is positive definite), so the
spectrum is real and bounded above by 1.  For a k-peak configuration the
low spectrum consists of a bottom cluster near 1−p and a k-dimensional
near-kernel cluster near 0 asymptotically spanned by the translation modes
∂v_i/∂x₁; both clusters are captured by shift-invert Lanczos runs at two
separate shifts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import eigsh

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


def assemble_linearized(bundle: AnsatzBundle) -> sp.csr_matrix:
    """Sparse matrix of 𝕃 = −Δ + 1 − p ū^{p−1} on flattened fields."""
    p = bundle.profile.exponent
    pot = p * np.maximum(bundle.ubar.data, 0.0) ** (p - 1)
    return (bundle.grid.helmholtz_matrix - sp.diags(pot.ravel())).tocsr()


def _b_orthonormalize(B, vecs):
    """Gram–Schmidt in the B inner product (stabilizes clustered pairs)."""
    out = []
    for v in vecs:
        w = v.copy()
        for _ in range(2):
            for q in out:
                w -= (q @ (B @ w)) * q
        nrm = np.sqrt(w @ (B @ w))
        if nrm < 1e-10:
            continue
        out.append(w / nrm)
    return out


def lowest_eigenpairs(bundle: AnsatzBundle, count: int) -> SpectralResult:
    """Smallest `count` weighted eigenvalues by two-shift shift-invert.

    One Lanczos run targets the bottom cluster near 1−p, a second the
    near-kernel cluster near 0; the merged set is deduplicated by B-overlap
    and re-orthonormalized.

    Raises
    ------
    RuntimeError
        If any returned pair's residual ‖𝕃ξ − λBξ‖₂ exceeds 1e-8·‖Bξ₀‖₂.
    """
    if count < bundle.config.k + 2:
        raise ValueError("count must be at least k + 2 to see the spectral gap")
    L = assemble_linearized(bundle)
    B = bundle.grid.helmholtz_matrix
    p = bundle.profile.exponent

    pairs = []
    v0 = np.full(L.shape[0], 1.0 / np.sqrt(L.shape[0]))  # deterministic start
    for shift, block in (( -(p - 1) - 0.5, count), (-0.02, count)):
        vals, vecs = eigsh(L, k=block, M=B, sigma=shift, which="LM", tol=1e-12, v0=v0)
        pairs.extend(zip(vals, vecs.T))
    pairs.sort(key=lambda t: t[0])

    # deduplicate across the two runs by B-overlap, then orthonormalize
    kept_vals, kept_vecs = [], []
    for lam, vec in pairs:
        nrm = np.sqrt(vec @ (B @ vec))
        vec = vec / nrm
        dup = any(
            abs(lam - lv) < 1e-6 and abs(vec @ (B @ kv)) > 0.5
            for lv, kv in zip(kept_vals, kept_vecs)
        )
        if not dup:
            kept_vals.append(float(lam))
            kept_vecs.append(vec)
    kept_vals = kept_vals[:count]
    kept_vecs = _b_orthonormalize(B, kept_vecs[:count])

    vals = np.array(kept_vals[: len(kept_vecs)])
    if np.any(vals >= 1.0):
        raise RuntimeError(f"eigenvalue >= 1 returned: {vals}")
    residuals = np.array(
        [np.linalg.norm(L @ v - lam * (B @ v)) for lam, v in zip(vals, kept_vecs)]
    )
    if np.any(residuals > 1e-8 * np.linalg.norm(B @ kept_vecs[0])):
        raise RuntimeError(f"eigen-residuals too large: {residuals}")

    # scale so the quadrature-weighted H¹ norm is 1 (B-orthonormal in the
    # same inner product used everywhere else)
    scale = 1.0 / np.sqrt(bundle.grid.weight)
    fields = [
        GridField(bundle.grid, scale * v.reshape(bundle.grid.shape))
        for v in kept_vecs
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
    """Per-peak rotated near-kernel basis φ_i ~ α_i ∂v_i/∂x₁."""

    fields: list[GridField]
    alphas: np.ndarray
    alignment_residuals: np.ndarray


def near_kernel_basis(result: SpectralResult, bundle: AnsatzBundle) -> NearKernelBasis:
    """Rotate the near-kernel eigenvectors into per-peak alignment.

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
    rotated = []
    for i in range(k):
        data = sum(Q[m, i] * vecs[m].data for m in range(k))
        rotated.append(GridField(bundle.grid, data))

    fields, alphas, residuals = [], [], []
    for i, phi in enumerate(rotated):
        t = bundle.translation_modes[i]
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
