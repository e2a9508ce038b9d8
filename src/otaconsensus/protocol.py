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
weights instead of channel gains. simulator.iterate schedules the slots.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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


class NonFiniteStateError(RuntimeError):
    """A state, ratio or pilot sum left the reals; the run is aborted, never patched."""


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


def prop1_weights(g: Digraph) -> np.ndarray:
    """Classical digital ratio-consensus weights as a read-only array: node j
    assigns 1/(1+d_j_out) to itself and to each out-neighbor, so every
    column sums to 1 exactly."""
    adj = g.adj
    if not is_strongly_connected(adj):
        raise ValueError("baseline weights need a strongly connected digraph")
    share = 1.0 / (1.0 + adj.sum(axis=1))
    w = np.where(adj.T | np.eye(g.n, dtype=bool), share[np.newaxis, :], 0.0)
    col_err = np.max(np.abs(w.sum(axis=0) - 1.0))
    if col_err > COLUMN_SUM_TOL:
        raise ValueError(f"columns must sum to 1 within {COLUMN_SUM_TOL}, worst error {col_err}")
    w.setflags(write=False)
    return w


def pilot(gains: np.ndarray, noise=None, context: str = "") -> np.ndarray:
    """All nodes transmit 1 simultaneously; receiver j's aggregate, row j of
    gains @ 1 (self term included) plus its noise, is its normalization sum.
    A sum that overflows or falls to SIGMA_MIN or below raises."""
    with np.errstate(over="ignore"):  # an overflowing sum is refused below
        sigma = gains @ np.ones(gains.shape[0])
        if noise is not None:
            sigma = sigma + noise
    cut = sigma <= SIGMA_MIN
    if cut.any():
        j = int(np.argmax(cut))
        raise IsolationError(
            f"node {j} is isolated {context}: pilot sum {float(sigma[j])!r} <= {SIGMA_MIN}"
        )
    if not sigma.max() < np.inf:  # inf from an overflow (nan fails too)
        j = int(np.argmin(np.isfinite(sigma)))
        raise NonFiniteStateError(
            f"node {j} overflowed {context}: pilot sum {float(sigma[j])!r} is not finite"
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
