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

from .protocol import COLUMN_SUM_TOL, DegenerateStateError, InitialStates, refuse_pilot_sums, usable_sums

class PeriodicityError(RuntimeError):
    """The mixing matrix is not primitive, so no unique limit exists."""


@dataclass(frozen=True)
class StochasticAudit:
    """Numerical verdict on column stochasticity of one matrix."""

    max_column_sum_error: float
    min_entry: float
    is_column_stochastic: bool


def build_Hbar(gains: np.ndarray, step: int | None = None) -> np.ndarray:
    """Normalize gains, one block (n, n) or a stack (..., n, n), into the
    mixing matrices of the steps that read them.

    Column j of a block is its gain column divided by sigma_j, the
    receiver-side pilot sum (row sum j). Column j then sums to (column
    sum)/(row sum), which is 1 exactly when the gains are reciprocal;
    feeding a non-reciprocal matrix through here is the designed way to
    break the stochasticity audit. Each block of a stack comes out bitwise
    as it would alone. The sums are refused as the kernel's pilot sums are,
    by protocol.refuse_pilot_sums: those of the first block, in C order,
    that holds a sum it cannot divide by, naming the node and, when step
    is given, the step that reads the block, step + its index ("at step 3").
    """
    gains = np.asarray(gains, dtype=float)
    with np.errstate(over="ignore"):  # an overflowing sum is refused below
        sigma = gains.sum(axis=-1)
    if not usable_sums(sigma).all():
        sums = sigma.reshape(-1, sigma.shape[-1])
        b = int(np.argmin(usable_sums(sums).all(axis=-1)))
        refuse_pilot_sums(sums[b], "" if step is None else f"at step {step + b}")
    return gains / sigma[..., np.newaxis, :]


def audit_column_stochastic(m: np.ndarray) -> StochasticAudit:
    """Measure how far a square matrix, or the worst of a stack (..., n, n)
    of them, is from column stochastic."""
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-2] != m.shape[-1]:
        raise ValueError(f"audit needs a square matrix, got shape {m.shape}")
    col_err = float(np.max(np.abs(m.sum(axis=-2) - 1.0)))
    min_entry = float(m.min())
    return StochasticAudit(
        max_column_sum_error=col_err,
        min_entry=min_entry,
        is_column_stochastic=(col_err <= COLUMN_SUM_TOL and min_entry >= 0.0),
    )


def matrix_oracle(
    hbar_seq, S: InitialStates, k_max: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Brute-force reference trajectories by explicit matrix products.

    Iterates both chains from (S, all-ones) under the per-step mixing
    matrices of hbar_seq (build_Hbar's), read one per step from any
    iterable and none held past its step, and returns arrays of shape
    (k_max+1, n) for the numerator chain, the denominator chain, and their
    ratio. The caller normalizes, so a matrix read at every step is built
    once; an iterable that raises as a matrix is read raises here, after
    the steps before it.
    Completely independent of the per-node protocol implementation, which
    is what makes it an oracle for it.
    """
    if k_max < 0:
        raise ValueError(f"k_max must be nonnegative, got {k_max}")
    n, mixing = S.n, iter(hbar_seq)
    Z = np.empty((k_max + 1, 2, n))  # row k holds both chains after k steps
    Z[0, 0], Z[0, 1] = S.values, 1.0
    for k in range(k_max + 1):
        x = Z[k, 1]
        if (x <= 0).any():
            j = int(np.argmin(x))
            raise DegenerateStateError(f"node {j} has nonpositive denominator at step {k}: {float(x[j])!r}")
        if k == k_max:
            break
        hbar = next(mixing, None)
        if hbar is None:
            raise ValueError(f"need {k_max} mixing matrices, got {k}")
        if hbar.shape != (n, n):
            raise ValueError(f"mixing matrix {k} is {hbar.shape[0]}-node, expected {n}")
        np.matvec(hbar, Z[k], out=Z[k + 1])
    Y, X = Z[:, 0], Z[:, 1]
    return Y, X, Y / X


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


def _solve(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x with a @ x = b for a nonsingular a, by Gaussian elimination with
    partial pivoting in elementwise row updates: numpy's ufuncs run on one
    thread, so unlike LAPACK over a threaded BLAS the rounding does not
    depend on the BLAS thread count."""
    n = len(b)
    m = np.column_stack([a, b])
    for c in range(n):
        p = c + int(np.argmax(np.abs(m[c:, c])))
        m[[c, p]] = m[[p, c]]
        m[c + 1:, c:] -= np.multiply.outer(m[c + 1:, c] / m[c, c], m[c, c:])
    x = m[:, n].copy()
    for c in range(n - 1, -1, -1):  # back substitution, a column at a time
        x[c] /= m[c, c]
        x[:c] -= m[:c, c] * x[c]
    return x


def stationary_limit(hbar: np.ndarray, S: InitialStates) -> np.ndarray:
    """Eigenvalue-1 right eigenvector (sum 1) of a primitive column-stochastic
    matrix, by one direct solve, returned read-only once it certifies mean(S)
    as every node's limit.

    The eigenvector spans the null space of hbar - I. Every column of
    hbar - I sums to zero, so its last row is minus the sum of the others;
    replacing that row with ones swaps in the sum-to-one constraint, and a
    primitive matrix (simple eigenvalue 1) leaves a nonsingular system with
    v as its only solution, which _solve finds with the same bits whatever
    the BLAS thread count.

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
    v = _solve(system, np.eye(n)[-1])
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
