"""Matrix-form oracle and invariant auditors.

Everything the protocol does per node has a global linear-algebra shadow:
normalizing by the pilot sums and aggregating is one multiplication by
H diag(1/sigma). This module builds that matrix, audits its column
stochasticity (which holds exactly because reciprocity makes row sums equal
column sums), iterates it as a brute-force reference trajectory, and
extracts the stationary eigenvector that pins down per-node limits. The
protocol module never calls into here; agreement between the two routes is
a test, not a dependency.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .protocol import (COLUMN_SUM_TOL, SIGMA_MIN, DegenerateStateError, InitialStates, IsolationError,
                       NonFiniteStateError)

class PeriodicityError(RuntimeError):
    """The mixing matrix is not primitive, so no unique limit exists."""


@dataclass(frozen=True)
class StochasticAudit:
    """Numerical verdict on column stochasticity of one matrix."""

    max_column_sum_error: float
    min_entry: float
    is_column_stochastic: bool


def build_Hbar(h: ChannelRealization, context: str = "") -> np.ndarray:
    """Normalize a realization into the step's mixing matrix.

    Column j is the gain column divided by sigma_j, the receiver-side pilot
    sum (row sum j). Column j then sums to (column sum)/(row sum), which is
    1 exactly when the gains are reciprocal; feeding a non-reciprocal matrix
    through here is the designed way to break the stochasticity audit.
    A pilot sum that overflows or falls to SIGMA_MIN raises, naming the node
    and, when given, the context ("at step 3").
    """
    with np.errstate(over="ignore"):  # an overflowing sum is refused below
        sigma = h.gains.sum(axis=1)
    finite = np.isfinite(sigma)
    at = f" {context}" if context else ""
    for j in range(h.n):
        if not finite[j]:
            raise NonFiniteStateError(f"node {j} overflowed{at}: pilot sum {float(sigma[j])!r} is not finite")
        if sigma[j] <= SIGMA_MIN:
            raise IsolationError(f"node {j} is isolated{at}: pilot sum {float(sigma[j])!r} <= {SIGMA_MIN}")
    return h.gains / sigma[np.newaxis, :]


def audit_column_stochastic(m: np.ndarray) -> StochasticAudit:
    """Measure how far a square matrix is from column stochastic."""
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"audit needs a square matrix, got shape {m.shape}")
    col_err = float(np.max(np.abs(m.sum(axis=0) - 1.0)))
    min_entry = float(m.min())
    return StochasticAudit(
        max_column_sum_error=col_err,
        min_entry=min_entry,
        is_column_stochastic=(col_err <= COLUMN_SUM_TOL and min_entry >= 0.0),
    )


def matrix_oracle(
    h_seq, S: InitialStates, k_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brute-force reference trajectories by explicit matrix products.

    Iterates both chains from (S, all-ones) under the per-step mixing
    matrices and returns arrays of shape (k_max+1, n) for the numerator
    chain, the denominator chain, and their ratio. Completely independent
    of the per-node protocol implementation, which is what makes it an
    oracle for it.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    if len(h_seq) < k_max:
        raise ValueError(f"need {k_max} realizations, got {len(h_seq)}")
    n = S.n
    y = S.values.astype(float).copy()
    x = np.ones(n)
    Y = np.empty((k_max + 1, n))
    X = np.empty((k_max + 1, n))
    MU = np.empty((k_max + 1, n))
    for k in range(k_max + 1):
        if np.any(x <= 0):
            j = int(np.argmin(x))
            raise DegenerateStateError(f"node {j} has nonpositive denominator at step {k}: {float(x[j])!r}")
        Y[k] = y
        X[k] = x
        MU[k] = y / x
        if k == k_max:
            break
        hbar = build_Hbar(h_seq[k], f"at step {k + 1}")
        if hbar.shape != (n, n):
            raise ValueError(f"realization {k} is {hbar.shape[0]}-node, expected {n}")
        y = hbar @ y
        x = hbar @ x
    return Y, X, MU


def _is_primitive(support: np.ndarray) -> bool:
    """Primitivity via the Wielandt bound: a nonnegative n x n matrix is
    primitive iff its support raised to n^2 - 2n + 2 is entrywise positive.
    Binary exponentiation keeps this cheap: the 0/1 support is held as
    float64 so each product goes to BLAS, and clipping back to 0/1 after
    every product keeps every entry an exact small integer."""
    n = support.shape[0]
    result = np.eye(n)
    base = support.astype(float)
    e = n * n - 2 * n + 2
    while e > 0:
        if e & 1:
            result = np.minimum(result @ base, 1.0)
        base = np.minimum(base @ base, 1.0)
        e >>= 1
    return bool(result.all())


def stationary_limit(hbar: np.ndarray, S: InitialStates) -> np.ndarray:
    """Eigenvalue-1 right eigenvector (sum 1) of a primitive column-stochastic
    matrix, by one direct solve, returned read-only once it certifies mean(S)
    as every node's limit.

    The eigenvector spans the null space of hbar - I. Every column of
    hbar - I sums to zero, so its last row is minus the sum of the others;
    replacing that row with ones swaps in the sum-to-one constraint, and a
    primitive matrix (simple eigenvalue 1) leaves a nonsingular system with
    v as its only solution.

    The numerator chain tends to v_j * (total of S) at node j and the
    denominator chain to v_j * n, so every per-node ratio collapses to the
    plain average regardless of v. Both facts are verified numerically
    before returning. A non-primitive support (the bipartite, zero
    self-weight case) has no such limit and raises instead of returning
    a meaningless vector.
    """
    hbar = np.asarray(hbar, dtype=float)
    audit = audit_column_stochastic(hbar)
    if not audit.is_column_stochastic:
        raise ValueError(
            f"need a column-stochastic matrix; worst column-sum error "
            f"{audit.max_column_sum_error!r}, min entry {audit.min_entry!r}"
        )
    n = hbar.shape[0]
    if S.n != n:
        raise ValueError(f"got {S.n} initial values for {n}-node matrix")
    if not _is_primitive(hbar > 0):
        raise PeriodicityError(
            "mixing matrix is not primitive (periodic support); "
            "ratios oscillate instead of converging"
        )
    system = hbar - np.eye(n)
    system[-1] = 1.0
    v = np.linalg.solve(system, np.eye(n)[-1])
    residual = float(np.max(np.abs(hbar @ v - v)))
    if residual > 1e-10:
        raise RuntimeError(f"stationary solve left fixed-point residual {residual!r}")
    if not np.all(v > 0):
        raise RuntimeError("stationary eigenvector of a primitive matrix must be positive")
    total = float(np.sum(S.values))
    predicted = S.mean()
    per_node = (v * total) / (v * n)
    worst = float(np.max(np.abs(per_node - predicted)))
    if worst > 1e-12 * max(1.0, abs(predicted)):  # rounding grows with |mean|
        raise RuntimeError(f"per-node limit identity violated by {worst!r}")
    v.setflags(write=False)
    return v


def mass_audit(trajectory, S: InitialStates) -> tuple[float, float]:
    """Worst-case relative drift of the two conserved sums over a trajectory.

    Every step's mixing matrix is column stochastic, so the numerator sum
    should stay at the initial total and the denominator sum at n; any
    materially nonzero drift means the stochasticity was broken somewhere
    (non-reciprocal gains, injected noise, or a bug).

    trajectory is a (Y, X, ...) tuple of (steps, n) arrays: the oracle's
    return value, or a Trajectory's (y_tilde, x_tilde).
    """
    if len(trajectory) < 2 or len(trajectory[0]) == 0:
        raise ValueError("empty trajectory")
    Y, X = np.asarray(trajectory[0], dtype=float), np.asarray(trajectory[1], dtype=float)
    if Y.shape != X.shape or Y.ndim != 2:
        raise ValueError(f"array trajectories must share a (steps, n) shape, got {Y.shape} and {X.shape}")
    if Y.shape[1] != S.n:
        raise ValueError(f"trajectory is over {Y.shape[1]} nodes but got {S.n} initial values")
    total = float(np.sum(S.values))
    drift_y = float(np.max(np.abs(Y.sum(axis=1) - total))) / max(1.0, abs(total))
    drift_x = float(np.max(np.abs(X.sum(axis=1) - S.n))) / S.n
    return drift_y, drift_x
