"""Consensus state machines over the aggregate-only channel.

Two parallel linear iterations run under column-stochastic mixing: a
numerator carrying the initial values and a denominator started at all
ones. Their per-node ratio converges to the network average while the
individual iterations need not converge at all. Receivers never decode
individual neighbor values; every update consumes only the channel-weighted
sum of simultaneous transmissions plus the locally known self term.

Three variants share one array step, ota_step, over all receivers at
once: the time-invariant-channel update with the normalization measured
once at startup, the time-varying-channel update with a per-block pilot
slot, and a digital baseline that mixes with explicit 1/(1+out-degree)
weights instead of channel gains. The AgentState functions are per-node
views of that step.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .topology import Digraph, is_strongly_connected

# floor for any measured normalization sum; at or below it the node is
# treated as cut off and the run errors out rather than dividing
SIGMA_MIN = 1e-12

# column sums must match 1 to this tolerance: constructed weight matrices
# and the stochasticity audit alike
COLUMN_SUM_TOL = 1e-12


class IsolationError(RuntimeError):
    """A node's received pilot mass fell to (numerically) nothing."""


class DegenerateStateError(RuntimeError):
    """A denominator state that must stay positive did not."""


@dataclass(frozen=True)
class AgentState:
    """One node's protocol variables for one iteration.

    y_tilde and x_tilde are the raw received aggregates (numerator and
    denominator chains); y and x are their normalized, transmission-ready
    counterparts; sigma is the normalization sum in force. Before the first
    normalization (time-varying startup) sigma, y, x hold NaN on purpose:
    any accidental use fails loudly downstream.
    """

    y_tilde: float
    x_tilde: float
    y: float
    x: float
    sigma: float


@dataclass(frozen=True)
class InitialStates:
    """The values to be averaged, one per node."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError(f"initial values must be a nonempty 1-D sequence, got shape {vals.shape}")
        if not np.all(np.isfinite(vals)):
            raise ValueError("initial values must be finite")
        vals = vals.copy()
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)

    @property
    def n(self) -> int:
        return int(self.values.size)

    def mean(self) -> float:
        """The consensus target: plain sum over count."""
        return float(np.sum(self.values)) / self.n


@dataclass(frozen=True)
class WeightMatrix:
    """Column-stochastic mixing weights supported on a digraph plus self-loops."""

    entries: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.entries, dtype=float)
        if w.ndim != 2 or w.shape[0] != w.shape[1]:
            raise ValueError(f"weight matrix must be square, got shape {w.shape}")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        col_err = np.max(np.abs(w.sum(axis=0) - 1.0))
        if col_err > COLUMN_SUM_TOL:
            raise ValueError(f"columns must sum to 1 within {COLUMN_SUM_TOL}, worst error {col_err}")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "entries", w)

    @property
    def n(self) -> int:
        return int(self.entries.shape[0])


def ota_aggregate(gains_row, signals, noise: float = 0.0) -> float:
    """What one receiver observes in one slot: sum of gain-weighted
    simultaneous transmissions plus its own noise draw.

    The diagonal entry of gains_row carries the digital self term. No
    individual summand is recoverable from the return value, which is the
    whole point of aggregating over the air.
    """
    gains_row = np.asarray(gains_row, dtype=float)
    signals = np.asarray(signals, dtype=float)
    if gains_row.shape != signals.shape:
        raise ValueError(f"gains row and signals differ in length: {gains_row.shape} vs {signals.shape}")
    return float(np.dot(gains_row, signals)) + noise


def prop1_weights(g: Digraph) -> WeightMatrix:
    """Classical digital ratio-consensus weights: node j assigns 1/(1+d_j_out)
    to itself and to each out-neighbor, so every column sums to 1 exactly."""
    adj = g.adj
    if not is_strongly_connected(adj):
        raise ValueError("baseline weights need a strongly connected digraph")
    share = 1.0 / (1.0 + adj.sum(axis=1))
    return WeightMatrix(np.where(adj.T | np.eye(g.n, dtype=bool), share[np.newaxis, :], 0.0))


def pilot(gains: np.ndarray, noise=None, context: str = "") -> np.ndarray:
    """All nodes transmit 1 simultaneously; receiver j's aggregate, row j of
    gains @ 1 (self term included) plus its noise, is its normalization sum."""
    sigma = gains @ np.ones(gains.shape[0])
    if noise is not None:
        sigma = sigma + noise
    cut = sigma <= SIGMA_MIN
    if cut.any():
        j = int(np.argmax(cut))
        raise IsolationError(
            f"node {j} is isolated {context}: pilot sum {float(sigma[j])!r} <= {SIGMA_MIN}"
        )
    return sigma


def ota_step(gains, sigma, y_tilde, x_tilde, noise_y=None, noise_x=None):
    """One iteration's numerator and denominator slots for all receivers at
    once: every node transmits its chain state over its own sigma, and
    receiver i observes row i of gains times those signals plus its own
    noise draw. Returns the new (y_tilde, x_tilde)."""
    y = gains @ (y_tilde / sigma)
    x = gains @ (x_tilde / sigma)
    if noise_y is not None:
        y += noise_y
    if noise_x is not None:
        x += noise_x
    return y, x


def ratio(y_tilde: np.ndarray, x_tilde: np.ndarray, where: str = "") -> np.ndarray:
    """Per-node estimates y_tilde / x_tilde; a denominator that is not
    positive (NaN included) raises, naming the node."""
    bad = ~(x_tilde > 0)
    if bad.any():
        j = int(np.argmax(bad))
        raise DegenerateStateError(
            f"node {j} has nonpositive denominator state x_tilde={float(x_tilde[j])!r}{where}"
        )
    return y_tilde / x_tilde


def baseline_step(y: np.ndarray, x: np.ndarray, P: WeightMatrix) -> tuple[np.ndarray, np.ndarray]:
    """One synchronous digital round: both chains mix under the same weights."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != (P.n,) or x.shape != (P.n,):
        raise ValueError(f"state vectors must have shape ({P.n},)")
    return ota_step(P.entries, np.ones(P.n), y, x)


# AgentState views of the array step, one state per node


def _chains(states: list[AgentState], n: int) -> tuple[np.ndarray, np.ndarray]:
    if len(states) != n:
        raise ValueError(f"got {len(states)} states for {n} nodes")
    return np.array([st.y_tilde for st in states]), np.array([st.x_tilde for st in states])


def _states(y_tilde: np.ndarray, x_tilde: np.ndarray, sigma: np.ndarray) -> list[AgentState]:
    return [
        AgentState(y_tilde=yt, x_tilde=xt, y=yt / s, x=xt / s, sigma=s)
        for yt, xt, s in zip(y_tilde.tolist(), x_tilde.tolist(), sigma.tolist())
    ]


def tic_initialize(S: InitialStates, h: ChannelRealization, noise_w=None) -> list[AgentState]:
    """Startup for the time-invariant variant: measure sigma once from an
    all-ones pilot, then seed the two chains with (S_j, 1) and normalize."""
    if S.n != h.n:
        raise ValueError(f"got {S.n} initial values for {h.n} nodes")
    sigma = pilot(h.gains, noise_w, "at initialization")
    return _states(S.values, np.ones(h.n), sigma)


def tic_step(states: list[AgentState], h: ChannelRealization, noise_y=None, noise_x=None) -> list[AgentState]:
    """One time-invariant iteration: two aggregation slots (numerator then
    denominator) over the same realization, then renormalize by the sigma
    fixed at startup. sigma is never remeasured here, even though with a
    constant channel remeasuring would be harmless."""
    y_tilde, x_tilde = _chains(states, h.n)
    sigma = np.array([st.sigma for st in states])
    return _states(*ota_step(h.gains, sigma, y_tilde, x_tilde, noise_y, noise_x), sigma)


def tvc_initialize(S: InitialStates) -> list[AgentState]:
    """Startup for the time-varying variant: chains seeded with (S_j, 1);
    no sigma exists until the first block's pilot, so the normalized fields
    are NaN placeholders that the first tvc_step overwrites."""
    nan = float("nan")
    return [
        AgentState(y_tilde=float(v), x_tilde=1.0, y=nan, x=nan, sigma=nan) for v in S.values
    ]


def tvc_step(
    states: list[AgentState],
    h_k: ChannelRealization,
    noise_w=None,
    noise_y=None,
    noise_x=None,
) -> list[AgentState]:
    """One time-varying iteration, three slots within one coherence block:

    1. pilot: everyone transmits 1, receiver j measures sigma_j from this
       block's gains;
    2. numerator: everyone transmits y_tilde / own sigma, receivers aggregate;
    3. denominator: same with x_tilde.

    Normalizing with the block's own sigma is what makes the step's net
    effect a column-stochastic linear map. The stored y and x are the new
    aggregates over this block's sigma; the next step remeasures before
    transmitting, so they are provisional outputs, not next inputs.
    """
    y_tilde, x_tilde = _chains(states, h_k.n)
    sigma = pilot(h_k.gains, noise_w, "this step (deep fade)")
    return _states(*ota_step(h_k.gains, sigma, y_tilde, x_tilde, noise_y, noise_x), sigma)


def ratio_output(states: list[AgentState]) -> np.ndarray:
    """Each node's running estimate of the average: y_tilde over x_tilde.

    Identical to y/x wherever both are defined, since numerator and
    denominator share a sigma.
    """
    return ratio(*_chains(states, len(states)))
