"""Discretization of the periodic strip (S^1/ε) × ℝ.

The strip is periodic in x₁ with period 2π/ε and truncated at |x₂| = R with
homogeneous Dirichlet conditions.  All the fields of interest are even in
x₂, so only the half-strip x₂ > 0 is stored: transverse nodes sit at the
cell centers (j + ½)h₂ and the mirror condition at x₂ = 0 is built into the
stencil.  This keeps the operator symmetric and removes the spurious
x₂-translation mode that a full grid would carry.

Integrals and inner products use the matching trapezoidal-type quadrature
(weight h₁·2h₂ per stored node, the factor 2 accounting for the mirror
half), so that the discrete H¹ product coincides exactly with the quadratic
form of the −Δ+1 stencil.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class StripGrid:
    """Tensor grid on the half-strip [−π/ε, π/ε) × (0, R)."""

    epsilon: float
    transverse_extent: float
    nodes_x1: int
    nodes_xp: int

    def __post_init__(self):
        for name, value in (("epsilon", self.epsilon), ("transverse_extent", self.transverse_extent)):
            if not 0 < value < np.inf:  # NaN fails it too
                raise ValueError(f"{name} must be finite and positive, got {value}")
        if self.nodes_x1 < 4 or self.nodes_xp < 2:
            raise ValueError("grid too coarse")

    @property
    def period(self) -> float:
        return 2 * np.pi / self.epsilon

    @property
    def h1(self) -> float:
        return self.period / self.nodes_x1

    @property
    def h2(self) -> float:
        return self.transverse_extent / (self.nodes_xp + 0.5)

    @property
    def weight(self) -> float:
        """Quadrature weight of one stored node (full-strip integral)."""
        return self.h1 * 2 * self.h2

    @cached_property
    def x1(self) -> np.ndarray:
        return -np.pi / self.epsilon + self.h1 * np.arange(self.nodes_x1)

    @cached_property
    def x2(self) -> np.ndarray:
        return self.h2 * (np.arange(self.nodes_xp) + 0.5)

    @property
    def shape(self) -> tuple[int, int]:
        return (self.nodes_x1, self.nodes_xp)

    @property
    def size(self) -> int:
        return self.nodes_x1 * self.nodes_xp

    def meshes(self) -> tuple[np.ndarray, np.ndarray]:
        return np.meshgrid(self.x1, self.x2, indexing="ij")

    def refined(self) -> "StripGrid":
        """Grid with h₁ exactly halved and h₂ nearly halved.

        h₂ goes from R/(n₂+½) to R/(2n₂+1½), a ratio (n₂+½)/(2n₂+1½) that is
        ½ − O(1/n₂) (0.4974 at n₂ = 48), so Richardson weights built for
        exact halving cancel the h₂² term only up to O(h₂²/n₂).
        """
        return StripGrid(
            epsilon=self.epsilon,
            transverse_extent=self.transverse_extent,
            nodes_x1=2 * self.nodes_x1,
            nodes_xp=2 * self.nodes_xp + 1,
        )

    def helmholtz(self, x: np.ndarray, potential: np.ndarray | None = None) -> np.ndarray:
        """(−Δ+1−potential)x by the 5-point stencil, for a flattened field or an (n, m) block.

        Periodic in x₁; in x₂ the mirror row at 0 (ghost = first stored node)
        and the Dirichlet ghost 0 at R.  `potential`, a field on the grid, is
        folded into the diagonal, so an 𝕃 product is one stencil pass.
        """
        n1, n2 = self.shape
        u = np.asarray(x, dtype=float).reshape(n1, n2, -1)
        lap2 = np.full(n2, 2.0 / self.h2**2)
        lap2[0] = 1.0 / self.h2**2  # the mirror ghost folded into the first row
        diag = (2.0 / self.h1**2 + lap2 + 1.0)[:, None]
        w = np.empty_like(u)  # scratch: the centre with a potential, then each scaled copy of u
        if potential is not None:
            diag = np.subtract(diag, np.reshape(potential, (n1, n2, 1)), out=w)
        v = diag * u
        np.multiply(u, 1.0 / self.h1**2, out=w)
        v[1:] -= w[:-1]
        v[:-1] -= w[1:]
        v[0] -= w[-1]
        v[-1] -= w[0]
        np.multiply(u, 1.0 / self.h2**2, out=w)
        v[:, 1:] -= w[:, :-1]
        v[:, :-1] -= w[:, 1:]
        return v.reshape(np.shape(x))

    @cached_property
    def helmholtz_eigen(self) -> tuple[np.ndarray, np.ndarray]:
        """Eigenbasis of −Δ+1: the x₂ modes and 1/(eigenvalue) per (x₁, x₂) mode.

        The x₂ stencil (mirror at 0, Dirichlet ghost at R = (n₂+½)h₂) has
        the eigenvectors cos((j+½)θₘ), θₘ = (2m+1)π/(2n₂+1), here as the
        orthonormal columns of an n₂×n₂ table; the periodic x₁ stencil is
        diagonal in the real DFT.  The second table holds
        1/(λ₁(k) + λ₂(m) + 1) for the n₁//2+1 rfft frequencies k.
        """
        n1, n2 = self.shape
        theta = (2 * np.arange(n2) + 1) * np.pi / (2 * n2 + 1)
        modes = np.cos(np.outer(np.arange(n2) + 0.5, theta))
        modes /= np.linalg.norm(modes, axis=0)
        lam1 = (2 * np.sin(np.pi * np.arange(n1 // 2 + 1) / n1) / self.h1) ** 2
        lam2 = (2 * np.sin(theta / 2) / self.h2) ** 2
        return modes, 1.0 / (lam1[:, None] + lam2 + 1.0)

    def helmholtz_inverse(self, b: np.ndarray) -> np.ndarray:
        """(−Δ+1)⁻¹b, exact up to roundoff, for a flattened field or an (n, m) block.

        One real DFT in x₁ and one product with the x₂ eigenbasis each way,
        O(n₁n₂(log n₁ + n₂)) with no factorization.
        """
        modes, scale = self.helmholtz_eigen
        n1, n2 = self.shape
        x = np.asarray(b, dtype=float).reshape(n1, n2, -1)
        cols = x.shape[2]
        # rows (x₁ node, column), one GEMM per x₂ transform
        x = (x.transpose(0, 2, 1).reshape(-1, n2) @ modes).reshape(n1, cols, n2)
        spec = np.fft.rfft(x, axis=0)
        spec *= scale[:, None, :]
        back = np.fft.irfft(spec, n=n1, axis=0).reshape(-1, n2)
        x = np.matmul(back, modes.T, out=x.reshape(-1, n2))  # into the first GEMM's spent buffer
        return x.reshape(n1, cols, n2).transpose(0, 2, 1).reshape(np.shape(b))


def wrap(x, period: float) -> np.ndarray:
    """x in [−period/2, period/2): a peak angle (period 2π) or an x₁ offset (2π/ε)."""
    r = (np.asarray(x) + period / 2) % period - period / 2
    return np.where(r >= period / 2, r - period, r)  # % gives period for a tiny negative x + period/2


# Coarsest admissible mesh width.  The ground state varies on the unit
# length scale, and the near-kernel eigenvalues (0 in the continuum) are
# mesh error: at ε = 0.3, k = 2, p = 3 they sit at −0.021 for h = 0.25 and
# at −0.076 for h = 0.5, next to the 0.1 near-kernel threshold, and for
# h = 1 the near kernel is lost.
MAX_MESH_WIDTH = 0.5

# Shortest admissible transverse extent R: the Dirichlet wall at R must sit
# where the peaks have decayed.  d₁ at ε = 0.3, peaks (−3.1, 0.2), h = 0.25 is
# 8.81e-6, 2.70e-5, 4.008e-5, 4.1300e-5, 4.1282e-5 at R = 0.5, 1, 2, 4, 12;
# criterion 07's σ = 8 pair gives −1.0522e-7, −1.0846e-7, −1.0842e-7 at R = 2, 4, 12.
MIN_TRANSVERSE = 4.0

# Largest admissible unknown count.  It bounds a command's memory and time.
# Nothing is factored or assembled, so memory grows linearly with the unknowns.
# Peak RSS (getrusage) of one Python process solving N = 2, p = 3 with one
# BLAS thread on a 2-core Xeon: criterion 07's σ = 8 `d_mesh_limit`, whose
# finest grid is 592×195 = 115k, 63.6 MiB (perfbench `mesh_limit`, with its
# harness and Helmholtz solves, about 70 MiB); one `reduce` of that pair at
# 1184×391 = 462,944, 141 MiB.  500k still admits that next level of the ladder.
MAX_UNKNOWNS = 500_000

# Coarsest mesh width, in core lengths ℓ = (p U(0)^{p−1})^{−1/2}, that
# resolves the translation modes: one peak at ε = 0.6 keeps its translation
# eigenvalue within 0.05 of 0 at h/ℓ ≤ 2.5 for p = 3 to 13, and loses it at
# h/ℓ ≥ 3 (+0.07 at p = 13; +0.44 at p = 7, h/ℓ = 4.5).
RESOLUTION = 2.5


def check_resolution(profile, grid: StripGrid) -> None:
    """Raise RuntimeError if max(h₁, h₂) > RESOLUTION · ℓ, naming ℓ and the h it needs."""
    ell, h = profile.core_length, max(grid.h1, grid.h2)
    if h > RESOLUTION * ell:
        raise RuntimeError(
            f"mesh width {h:.4g} does not resolve the p = {profile.exponent:g} core: "
            f"the core length is l = (p U(0)^(p-1))^(-1/2) = {ell:.4g}, "
            f"so h must be at most {RESOLUTION} l = {RESOLUTION * ell:.4g}"
        )


def make_grid(eps: float, R: float = 12.0, h: float = 0.25) -> StripGrid:
    """Grid with mesh widths close to h; n₁ rounded to a multiple of 4.

    Raises
    ------
    ValueError
        Unless ε, R and h are all finite and positive, h ≤ MAX_MESH_WIDTH,
        R ≥ MIN_TRANSVERSE and the grid has at most MAX_UNKNOWNS nodes.
    """
    for name, value in (("eps", eps), ("R", R), ("h", h)):
        if not 0 < value < np.inf:
            raise ValueError(f"{name} must be finite and positive, got {value}")
    if h > MAX_MESH_WIDTH:
        raise ValueError(f"h = {h} is above the maximum mesh width {MAX_MESH_WIDTH}")
    if R < MIN_TRANSVERSE:
        raise ValueError(f"R = {R} is below the minimum transverse extent {MIN_TRANSVERSE}")
    # node counts in floating point, so a count that overflows is rejected, not rounded
    n1 = max(8.0, 4 * np.rint(2 * np.pi / eps / (4 * h)))
    n2 = max(4.0, np.rint(R / h))
    if not n1 * n2 <= MAX_UNKNOWNS:
        raise ValueError(f"the {n1:.0f}x{n2:.0f} grid of eps = {eps:g}, R = {R:g}, h = {h:g} "
                         f"has {n1 * n2:.0f} unknowns, above the cap {MAX_UNKNOWNS}")
    return StripGrid(eps, R, int(n1), int(n2))


@dataclass
class GridField:
    """Scalar field sampled on a :class:`StripGrid` (shape n₁ × n₂)."""

    grid: StripGrid
    data: np.ndarray

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        if self.data.shape != self.grid.shape:
            raise ValueError(
                f"data shape {self.data.shape} does not match grid {self.grid.shape}"
            )

    def __sub__(self, other):
        _check_same_grid(self, other)
        return GridField(self.grid, self.data - other.data)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.data)))


def _check_same_grid(u: GridField, w: GridField) -> None:
    if u.grid is not w.grid and u.grid != w.grid:
        raise ValueError("fields live on different grids")


def solve_helmholtz(rhs: GridField, tol: float = 1e-10) -> GridField:
    """Solve (−Δ+1)u = rhs by the grid's fast exact inverse.

    Raises
    ------
    ValueError
        Unless tol is finite and positive, before solving.
    RuntimeError
        If the relative residual is not below tol.
    """
    if not 0 < tol < np.inf:  # NaN fails it too
        raise ValueError(f"tol must be finite and positive, got {tol}")
    b = rhs.data.ravel()
    x = rhs.grid.helmholtz_inverse(b)
    res = np.linalg.norm(rhs.grid.helmholtz(x) - b)
    if not res <= tol * np.linalg.norm(b):
        raise RuntimeError(f"Helmholtz solve residual {res:.3e} above tol")
    return GridField(rhs.grid, x.reshape(rhs.grid.shape))


def inner_products(u: GridField, w: GridField) -> tuple[float, float]:
    """(L², H¹) inner products by the grid quadrature.

    The H¹ product is evaluated through the operator quadratic form
    ⟨(−Δ+1)u, w⟩, which equals ⟨∇u,∇w⟩ + ⟨u,w⟩ exactly after discrete
    summation by parts, keeping the products consistent with the stencil.
    """
    _check_same_grid(u, w)
    wgt = u.grid.weight
    l2 = wgt * float(u.data.ravel() @ w.data.ravel())
    h1 = wgt * float(u.grid.helmholtz(u.data).ravel() @ w.data.ravel())
    return l2, h1


def h1_gram(grid: StripGrid, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """[i, j] = ⟨a_i, b_j⟩_{H¹} for the flattened fields a_i, b_j, the columns of A and B:
    the quadratic form of :func:`inner_products`, one stencil pass on the block A."""
    return grid.weight * (grid.helmholtz(A).T @ B)


def l2_norm(u: GridField) -> float:
    flat = u.data.ravel()
    return float(np.sqrt(u.grid.weight * float(flat @ flat)))


def h1_norm(u: GridField) -> float:
    return float(np.sqrt(max(inner_products(u, u)[1], 0.0)))


def gradient_magnitude(u: GridField) -> np.ndarray:
    """Centered-difference |∇u| per node (mirror at x₂=0, Dirichlet at R)."""
    d = u.data
    g1 = (np.roll(d, -1, axis=0) - np.roll(d, 1, axis=0)) / (2 * u.grid.h1)
    padded = np.concatenate([d[:, :1], d, np.zeros((d.shape[0], 1))], axis=1)
    g2 = (padded[:, 2:] - padded[:, :-2]) / (2 * u.grid.h2)
    return np.sqrt(g1**2 + g2**2)


def shift_x1(u: GridField, tau: float) -> GridField:
    """Translate the field by τ in x₁ (trigonometric interpolation)."""
    n = u.grid.nodes_x1
    k = np.fft.rfftfreq(n, d=u.grid.h1) * 2 * np.pi
    spec = np.fft.rfft(u.data, axis=0)
    shifted = np.fft.irfft(spec * np.exp(-1j * k[:, None] * tau), n=n, axis=0)
    return GridField(u.grid, shifted)


def reflect_x1(u: GridField, center: float) -> GridField:
    """Reflect the field about x₁ = center (trigonometric interpolation)."""
    n = u.grid.nodes_x1
    k = np.fft.rfftfreq(n, d=u.grid.h1) * 2 * np.pi
    spec = np.fft.rfft(u.data, axis=0)
    # u(2c − x) has coefficients conj(û_k)·e^{−2ik(c − x_left)} relative to
    # the grid origin at x1[0]
    x0 = u.grid.x1[0]
    phase = np.exp(-2j * k[:, None] * (center - x0))
    reflected = np.fft.irfft(np.conj(spec) * phase, n=n, axis=0)
    return GridField(u.grid, reflected)


def align_shift(u: GridField, ref: GridField) -> float:
    """Shift τ maximizing correlation of u(·−τ) with ref along x₁.

    Coarse search by FFT cross-correlation, refined by quadratic
    interpolation of the correlation peak.
    """
    _check_same_grid(u, ref)
    a = np.fft.rfft(u.data, axis=0)
    b = np.fft.rfft(ref.data, axis=0)
    corr = np.fft.irfft((np.conj(a) * b).sum(axis=1), n=u.grid.nodes_x1)
    j = int(np.argmax(corr))
    n = u.grid.nodes_x1
    cm, c0, cp = corr[(j - 1) % n], corr[j], corr[(j + 1) % n]
    denom = cm - 2 * c0 + cp
    frac = 0.5 * (cm - cp) / denom if denom != 0 else 0.0
    return float(wrap(u.grid.h1 * (j + frac), u.grid.period))
