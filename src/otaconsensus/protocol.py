"""Consensus state machines over the aggregate-only channel.

Two parallel linear iterations run under column-stochastic mixing as one
state: row 0, y_tilde, starts at the initial values and row 1, x_tilde, at
all ones. Their per-node ratio converges to the network average while the
individual iterations need not converge at all. Receivers never decode
individual neighbor values; every update consumes only the channel-weighted
sum of simultaneous transmissions plus the locally known self term.

Three variants share one array step, ota_step, over all receivers at
once: the time-invariant-channel update with the normalization measured
once at startup, the time-varying-channel update with a pilot slot at
every block, and a digital baseline that mixes with explicit
1/(1+out-degree) weights instead of channel gains. simulator._kernel
schedules the slots, and every pilot goes one route: pilot_sums takes the
noise-free sums, the kernel adds the pilot noise, and refuse_pilot_sums
refuses them. tic's sums are taken and refused once, at start-up; a tvc
epoch's are taken in one product, and each step's are refused when the
kernel judges the step's chunk of states.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import Digraph

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
    """The values to be averaged, one per node, whose sum must be finite: the one refusal of a start."""

    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.ndim != 1 or vals.size < 1:
            raise ValueError(f"initial values must be a nonempty 1-D sequence, got shape {vals.shape}")
        with np.errstate(over="ignore", invalid="ignore"):  # refused below by node, else by sum
            total = vals.sum()  # as mean() sums them; a value that is not finite makes it not finite
        if not np.isfinite(total):
            j = int(np.argmin(np.isfinite(vals)))
            raise ValueError(f"initial value at node {j} is {float(vals[j])!r}" if not np.isfinite(vals[j])
                             else f"initial values sum to {float(total)!r}")
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
    column sums to 1 within 2**-53 (3 fl(1/3) is 1 - 2**-54)."""
    adj = g.adj
    if not g.strongly_connected:
        raise ValueError("baseline weights need a strongly connected digraph")
    share = 1.0 / (1.0 + adj.sum(axis=1))
    w = np.where(adj.T | np.eye(g.n, dtype=bool), share[np.newaxis, :], 0.0)
    col_err = np.max(np.abs(w.sum(axis=0) - 1.0))
    if col_err > COLUMN_SUM_TOL:
        raise ValueError(f"columns must sum to 1 within {COLUMN_SUM_TOL}, worst error {col_err}")
    w.setflags(write=False)
    return w


def usable_sums(sigma: np.ndarray) -> np.ndarray:
    """Where a pilot sum can be divided by: above SIGMA_MIN and finite (nan is neither)."""
    return (sigma > SIGMA_MIN) & (sigma < np.inf)


def refuse_pilot_sums(sigma: np.ndarray, context: str = "") -> None:
    """Refuse sigma's first sum that is not usable_sums', naming its node
    and the context ("at step 3") if given: an IsolationError at SIGMA_MIN
    or below first, else a NonFiniteStateError for an overflow (or nan).
    tic's start-up pilot, the stepping kernel's fold and
    analysis.build_Hbar all refuse here, so run and verify agree."""
    if usable_sums(sigma).all():
        return
    at, n, cut = f" {context}" if context else "", sigma.shape[-1], sigma <= SIGMA_MIN
    if cut.any():
        j = int(np.argmax(cut))
        raise IsolationError(f"node {j % n} is isolated{at}: pilot sum {float(sigma.flat[j])!r} <= {SIGMA_MIN}")
    j = int(np.argmin(np.isfinite(sigma)))
    raise NonFiniteStateError(f"node {j % n} overflowed{at}: pilot sum {float(sigma.flat[j])!r} is not finite")


def pilot_sums(gains: np.ndarray) -> np.ndarray:
    """All nodes transmit 1 simultaneously: receiver j's noise-free
    aggregate is row j of gains @ 1, self term included. Stacked gains
    (..., n, n) give (..., n) sums, each block's bitwise as if alone, so
    one product serves tic's (m, n, n) start-up stack and a tvc epoch's
    (T, m, n, n) stack alike."""
    return gains @ np.ones(gains.shape[-1])


def ota_step(gains, sigma, state, noise=None, out=None):
    """One iteration's numerator and denominator slots for all receivers at
    once: every node transmits each chain's row of state, (2, n), over its
    own sigma, and receiver i observes row i of gains times those signals
    plus its noise draw. Stacked gains (m, n, n) step a (2, m, n) state,
    each chain and member exactly as it would step alone, in matmul's BLAS
    bits. Given out, a (2, ..., n) array apart from state, the step writes
    its new state there, bitwise the product it would allocate."""
    z = np.matvec(gains, state / sigma, out=out)
    if noise is not None:
        z += noise
    return z


def ratio(state: np.ndarray, where: str = "") -> np.ndarray:
    """Per-node estimates y_tilde / x_tilde of a state (2, ..., n); an
    x_tilde that is not positive (NaN included) raises, naming the node (of
    the first failing member, for stacked states)."""
    bad = ~(state[1] > 0)
    if bad.any():
        j = int(np.argmax(bad))
        raise DegenerateStateError(
            f"node {j % state.shape[-1]} has nonpositive denominator state "
            f"x_tilde={float(state[1].flat[j])!r}{where}"
        )
    return state[0] / state[1]
