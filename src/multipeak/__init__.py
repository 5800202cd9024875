"""Multi-peak periodic solutions of −Δu + u − u₊^p = 0 on a periodic strip.

Modules
-------
groundstate
    Radial ground state by one mapped Chebyshev collocation solve with a far-field closure.
domain
    Periodic-strip discretization, Helmholtz operator, inner products.
ansatz
    Multi-peak configurations, the periodized ansatz, and its residual.
spectrum
    The linearization F′(u), its weighted eigenproblem, and the near-kernel frame.
reduction
    Lyapunov–Schmidt correction on the translation frame, equilibration.
dancer
    Newton continuation to the periodic solution and its structural probes.
asymptotics
    Interaction-integral and Taylor-remainder oracles.
weighted
    Exponentially weighted a priori estimates for constrained solves.
cli
    Subcommand front end with reproducible JSON summaries.
"""

from .groundstate import GroundStateProfile, solve_ground_state
from .domain import GridField, StripGrid
from .ansatz import AnsatzBundle, PeakConfiguration, build_ansatz

__all__ = [
    "AnsatzBundle",
    "GridField",
    "GroundStateProfile",
    "PeakConfiguration",
    "StripGrid",
    "build_ansatz",
    "solve_ground_state",
]

__version__ = "0.1.0"
