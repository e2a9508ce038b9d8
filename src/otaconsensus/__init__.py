"""Seedable simulator and analysis toolkit for average consensus over
wireless networks where the medium itself performs the summation.

Two protocol variants share one ratio-of-states output: a fixed channel
measured once at start-up, and a block-fading channel re-measured with a
pilot every step.  A classical digital ratio-consensus baseline and a
matrix-form oracle are included for cross-checking.
"""

from .analysis import (
    LimitEstimate,
    PeriodicityError,
    StochasticAudit,
    audit_column_stochastic,
    build_Hbar,
    mass_audit,
    matrix_oracle,
    stationary_limit,
)
from .channel import (
    ChannelProcess,
    ChannelRealization,
    FadingModel,
    NoiseModel,
)
from .protocol import (
    AgentState,
    DegenerateStateError,
    InitialStates,
    IsolationError,
    WeightMatrix,
    baseline_step,
    ota_aggregate,
    prop1_weights,
    ratio_output,
    tic_initialize,
    tic_step,
    tvc_initialize,
    tvc_step,
)
from .simulator import (
    InitialSpec,
    NonFiniteStateError,
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
    "AgentState",
    "ChannelProcess",
    "ChannelRealization",
    "DegenerateStateError",
    "Digraph",
    "EdgeListError",
    "FadingModel",
    "InitialSpec",
    "InitialStates",
    "IsolationError",
    "LimitEstimate",
    "NoiseModel",
    "NonFiniteStateError",
    "PeriodicityError",
    "RunSummary",
    "SimulationConfig",
    "StochasticAudit",
    "TopologyError",
    "TopologySpec",
    "Trajectory",
    "WeightMatrix",
    "audit_column_stochastic",
    "baseline_step",
    "build_Hbar",
    "check_epsilon_B_connectivity",
    "generate_topology",
    "is_strongly_connected",
    "mass_audit",
    "matrix_oracle",
    "ota_aggregate",
    "prepare",
    "prop1_weights",
    "ratio_output",
    "run",
    "spread",
    "stationary_limit",
    "tic_initialize",
    "tic_step",
    "tvc_initialize",
    "tvc_step",
]
