"""Shared fixtures: ground-state profiles and reference configurations.

The expensive objects (ground-state solves, eigenpairs, corrections) are
session-scoped so the acceptance suite and the unit tests share them.  The
sparse matrices of −Δ+1 and 𝕃 are test-side references for the package's
stencil, built independently of it.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from multipeak.ansatz import (
    PeakConfiguration,
    build_ansatz,
    residual_rate,
    uniform_configuration,
)
from multipeak.domain import GridField, make_grid
from multipeak.groundstate import solve_ground_state
from multipeak.reduction import equilibrate, reduce, solve_correction
from multipeak.spectrum import lowest_eigenpairs, near_kernel_basis


def helmholtz_csr(grid):
    """−Δ+1 on fields flattened in C order (x₁ major), as the Kronecker sum of
    the 1-D stencils: periodic in x₁, mirror row at x₂ = 0, Dirichlet ghost at R."""
    n, h = grid.nodes_x1, grid.h1
    off = np.full(n - 1, -1.0 / h**2)
    A1 = sp.diags([off, np.full(n, 2.0 / h**2), off], (-1, 0, 1), format="lil")
    A1[0, n - 1] = A1[n - 1, 0] = -1.0 / h**2
    n, h = grid.nodes_xp, grid.h2
    main = np.full(n, 2.0 / h**2)
    main[0] = 1.0 / h**2  # the mirror ghost equals the first stored node
    off = np.full(n - 1, -1.0 / h**2)
    A2 = sp.diags([off, main, off], (-1, 0, 1))
    I1, I2 = sp.identity(grid.nodes_x1), sp.identity(grid.nodes_xp)
    return (sp.kron(A1.tocsr(), I2) + sp.kron(I1, A2) + sp.identity(grid.size)).tocsr()


def linearized_csr(u, p):
    """𝕃 = −Δ + 1 − p u₊^{p−1} at the field u, as a sparse matrix."""
    return (helmholtz_csr(u.grid) - sp.diags(p * np.maximum(u.data.ravel(), 0.0) ** (p - 1))).tocsr()


def fields(grid, block):
    """The columns of an (n, m) block of flattened fields as GridFields."""
    return [GridField(grid, col.reshape(grid.shape)) for col in block.T]


@pytest.fixture(scope="session")
def profile_n1():
    """N = 1, p = 3 profile (closed-form oracle: √2 sech)."""
    return solve_ground_state(1, 3)


@pytest.fixture(scope="session")
def profile_n2():
    """Desk-scale N = 2, p = 3 profile."""
    return solve_ground_state(2, 3)


@pytest.fixture(scope="session")
def bundle_k1(profile_n2):
    """Single peak on a large cell (ε = 0.3)."""
    return build_ansatz(
        uniform_configuration(0.3, 1), profile_n2, make_grid(0.3)
    )


@pytest.fixture(scope="session")
def bundle_k2(profile_n2):
    """Two equidistributed peaks at ε = 0.3 (σ̲ = π/(2·0.3) ≈ 5.24)."""
    return build_ansatz(
        uniform_configuration(0.3, 2), profile_n2, make_grid(0.3)
    )


@pytest.fixture(scope="session")
def spectral_k1(bundle_k1):
    return lowest_eigenpairs(bundle_k1, count=4)


@pytest.fixture(scope="session")
def spectral_k2(bundle_k2):
    return lowest_eigenpairs(bundle_k2, count=6)


@pytest.fixture(scope="session")
def basis_k2(spectral_k2, bundle_k2):
    return near_kernel_basis(spectral_k2, bundle_k2)


@pytest.fixture(scope="session")
def state_k2(bundle_k2, basis_k2):
    return solve_correction(bundle_k2, basis_k2)


@pytest.fixture(scope="session")
def sigma_sweep(profile_n2):
    """Non-trivial k = 2 sweep σ̲ ∈ {4,…,8} shared by the rate criteria.

    Each entry holds the bundle, near-kernel basis, and converged
    correction of the uniform two-peak configuration with half-gap σ̲.
    """
    rows = {}
    for sigma in (4, 5, 6, 7, 8):
        eps = np.pi / (2 * sigma)
        state = reduce(uniform_configuration(eps, 2), profile_n2, make_grid(eps))
        rows[sigma] = (state.bundle, state.basis, state)
    return rows


@pytest.fixture(scope="session")
def equilibrated(profile_n2):
    """Criterion 08's perturbed equilibrations, shared with the Newton chain test.

    Seed 7 draws the perturbation of k = 2 at ε = 0.3 first, then k = 3 at
    ε = 0.2.  Maps k to (uniform configuration, tolerance, result).
    """
    rng = np.random.default_rng(7)
    runs = {}
    for k, eps in ((2, 0.3), (3, 0.2)):
        uniform = uniform_configuration(eps, k)
        gap_angle = 2 * np.pi / k
        perturbed = PeakConfiguration(
            eps,
            tuple(
                a + 0.05 * gap_angle * s
                for a, s in zip(uniform.angles, rng.uniform(-1, 1, k))
            ),
        )
        tol = 1e-2 * residual_rate(uniform.sigma_min, 2)
        runs[k] = (uniform, tol, equilibrate(perturbed, profile_n2, make_grid, tol=tol))
    return runs
