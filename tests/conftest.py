"""Shared fixtures: ground-state profiles and reference configurations.

The expensive objects (shooting solves, eigenpairs, corrections) are
session-scoped so the acceptance suite and the unit tests share them.
"""

import numpy as np
import pytest

from multipeak.ansatz import build_ansatz, uniform_configuration
from multipeak.domain import make_grid
from multipeak.groundstate import solve_ground_state
from multipeak.reduction import reduce, solve_correction
from multipeak.spectrum import lowest_eigenpairs, near_kernel_basis


@pytest.fixture(scope="session")
def profile_n1():
    """N = 1, p = 3 profile (closed-form oracle: √2 sech)."""
    return solve_ground_state(1, 3, tol=1e-12)


@pytest.fixture(scope="session")
def profile_n2():
    """Desk-scale N = 2, p = 3 profile."""
    return solve_ground_state(2, 3, tol=1e-12)


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
