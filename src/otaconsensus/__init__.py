"""Seedable simulator and analysis toolkit for average consensus over
wireless networks where the medium itself performs the summation.

Two protocol variants share one ratio-of-states output: a fixed channel
measured once at start-up, and a block-fading channel re-measured with a
pilot every step.  A classical digital ratio-consensus baseline and a
matrix-form oracle are included for cross-checking.
"""

from .analysis import (
    PeriodicityError,
    StochasticAudit,
    audit_column_stochastic,
    build_Hbar,
    mass_audit,
    matrix_oracle,
    stationary_limit,
)
from .channel import ChannelProcess, ChannelRealization, FadingModel
from .protocol import (
    DegenerateStateError,
    InitialStates,
    IsolationError,
    NonFiniteStateError,
    prop1_weights,
)
from .simulator import (
    InitialSpec,
    RunSummary,
    SimulationConfig,
    Trajectory,
    prepare,
    run,
    spread,
)
from .topology import (
    Digraph,
    EdgeListError,
    TopologyError,
    TopologySpec,
    check_epsilon_B_connectivity,
    generate_topology,
    is_strongly_connected,
)

__version__ = "0.1.0"

__all__ = [
    "ChannelProcess",
    "ChannelRealization",
    "DegenerateStateError",
    "Digraph",
    "EdgeListError",
    "FadingModel",
    "InitialSpec",
    "InitialStates",
    "IsolationError",
    "NonFiniteStateError",
    "PeriodicityError",
    "RunSummary",
    "SimulationConfig",
    "StochasticAudit",
    "TopologyError",
    "TopologySpec",
    "Trajectory",
    "audit_column_stochastic",
    "build_Hbar",
    "check_epsilon_B_connectivity",
    "generate_topology",
    "is_strongly_connected",
    "mass_audit",
    "matrix_oracle",
    "prepare",
    "prop1_weights",
    "run",
    "spread",
    "stationary_limit",
]
