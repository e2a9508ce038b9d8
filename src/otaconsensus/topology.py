"""Directed communication graphs and the connectivity checks the convergence guarantees rest on.

Nodes are dense integer ids 0..n-1. An edge (i, j) means node i transmits to
node j, so j can receive from i. Self-edges are never stored: self-influence is
modeled as a diagonal weight on the channel realization, not as a graph edge.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

#: Regeneration budget for random topologies that must come out strongly connected.
ER_MAX_ATTEMPTS = 1000

#: Each kind with the TopologySpec fields it takes, in call order: erdos_renyi(p).
TOPOLOGY_ARGS = {"ring": (), "complete": (), "erdos_renyi": ("p",), "edge_list": ("path",)}
TOPOLOGY_KINDS = tuple(TOPOLOGY_ARGS)


class TopologyError(RuntimeError):
    """Topology generation failed (e.g. the regeneration budget ran out)."""


class EdgeListError(TopologyError, ValueError):
    """An edge-list file could not be read or parsed: a config fault."""


@dataclass(frozen=True, eq=False)
class Digraph:
    """Immutable directed graph on nodes 0..n-1, held as a read-only n x n
    boolean adjacency matrix: adj[i, j] is True iff i transmits to j, so i is
    an in-neighbor of j and j an out-neighbor of i. Two graphs are equal when
    their matrices are.
    """

    adj: np.ndarray

    def __post_init__(self):
        adj = np.array(self.adj, dtype=bool)
        if adj.ndim != 2 or adj.shape[0] != adj.shape[1]:
            raise ValueError(f"adjacency must be a square matrix, got shape {adj.shape}")
        if adj.shape[0] < 2:
            raise ValueError(f"a network needs at least 2 nodes, got n={adj.shape[0]}")
        if adj.diagonal().any():
            a = int(np.argmax(adj.diagonal()))
            raise ValueError(
                f"self-edge ({a},{a}) rejected: self-influence lives on the "
                "channel diagonal, not in the graph"
            )
        adj.setflags(write=False)
        object.__setattr__(self, "adj", adj)

    @property
    def n(self) -> int:
        return self.adj.shape[0]

    @property
    def m(self) -> int:
        return int(np.count_nonzero(self.adj))

    @property
    def edges(self) -> tuple[tuple[int, int], ...]:
        """Every edge (i, j), sorted."""
        return tuple(map(tuple, np.argwhere(self.adj).tolist()))

    def is_symmetric(self) -> bool:
        return np.array_equal(self.adj, self.adj.T)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Digraph):
            return NotImplemented
        return np.array_equal(self.adj, other.adj)


def _reaches_all(adj: np.ndarray):
    """True iff node 0 reaches every node along adj (adj[..., i, j]: edge
    i -> j), one verdict per matrix of a stack. Each round marks every node
    with a marked in-neighbour (an exact 0/1 float32 matmul, through BLAS)
    until a round marks nothing new."""
    edges = adj.astype(np.float32)
    seen = np.zeros(adj.shape[:-1], dtype=np.float32)
    seen[..., 0] = 1.0
    marked = np.count_nonzero(seen)
    while marked < seen.size:
        seen = np.minimum(seen + (seen[..., np.newaxis, :] @ edges)[..., 0, :], 1.0)
        marked, before = np.count_nonzero(seen), marked
        if marked == before:
            break
    return seen.all(axis=-1)


def is_strongly_connected(adj: np.ndarray) -> bool:
    """True iff every node reaches every other node along a boolean
    adjacency matrix: node 0 reaches every node, and every node reaches
    node 0 (implied for a symmetric matrix). Diagonal entries do not
    matter: self-loops never change reachability."""
    return bool(_reaches_all(adj)) and (np.array_equal(adj, adj.T) or bool(_reaches_all(adj.T)))


class EpsilonBAudit:
    """Windowed joint-connectivity audit fed one gain matrix per step, or
    an (m, n, n) stack for m members stepping in lockstep.

    Steps fall into consecutive non-overlapping windows of B. Within a
    window the effective graphs (gains[i, j] > epsilon: i hears j) are ORed
    into one boolean matrix, and when the window is full that union must be
    strongly connected. A trailing partial window is never judged, so a
    verdict is vacuously true until a window completes. Once a window
    fails, the verdict is final. verdicts holds one per member once a
    window has completed.
    """

    def __init__(self, epsilon: float, B: int):
        if not (0 < epsilon < np.inf):
            raise ValueError(f"epsilon must be finite and positive, got {epsilon}")
        if B < 1:
            raise ValueError(f"window length B must be >= 1, got {B}")
        self.epsilon = epsilon
        self.B = B
        self.verdicts = self.satisfied = True  # satisfied: every member's verdict
        self._window = None
        self._filled = 0

    def add(self, gains: np.ndarray, symmetric: bool = False) -> None:
        """One step's gains; for symmetric ones (channel blocks) reach from node 0 suffices."""
        if not np.any(self.verdicts):
            return
        strong = gains > self.epsilon
        self._window = strong if self._window is None else self._window | strong
        self._filled += 1
        if self._filled == self.B:
            joint = _reaches_all(self._window)
            if not symmetric:
                joint = joint & _reaches_all(np.swapaxes(self._window, -1, -2))
            self.verdicts = self.verdicts & joint
            self.satisfied = bool(np.all(self.verdicts))
            self._window = None
            self._filled = 0

    def keep(self, members: np.ndarray) -> None:
        """Drop the members a boolean mask leaves out."""
        self.verdicts = np.broadcast_to(self.verdicts, members.shape)[members]
        self.satisfied = bool(np.all(self.verdicts))
        if self._window is not None:
            self._window = self._window[members]


def check_epsilon_B_connectivity(realizations: Sequence, epsilon: float, B: int) -> bool:
    """Windowed joint-connectivity audit over a realized channel sequence.

    Splits the sequence into consecutive non-overlapping windows of B steps
    (a trailing partial window is ignored), thresholds each realization's
    gains at epsilon to get that step's effective graph, and requires the
    union over every window to be strongly connected. Vacuously true when
    no complete window fits.
    """
    audit = EpsilonBAudit(epsilon, B)
    for h in realizations:
        audit.add(h.gains)
    return audit.satisfied


@dataclass(frozen=True)
class TopologySpec:
    """Recipe for building a network graph.

    kind is one of ring, complete, erdos_renyi (needs p), edge_list (needs
    path). With symmetric=True every generated edge is paired with its
    reverse, as channel reciprocity requires.
    """

    kind: str
    p: float | None = None
    path: str | None = None
    symmetric: bool = True

    def __post_init__(self):
        if self.kind not in TOPOLOGY_KINDS:
            raise ValueError(f"unknown topology kind {self.kind!r}; expected one of {TOPOLOGY_KINDS}")
        if self.kind == "erdos_renyi":
            if self.p is None or not (0.0 < self.p <= 1.0):
                raise ValueError(f"erdos_renyi needs edge probability p in (0, 1], got {self.p}")
        if self.kind == "edge_list" and not self.path:
            raise ValueError("edge_list topology needs a file path")


def _erdos_renyi(n: int, p: float, symmetric: bool, seed: int) -> np.ndarray:
    """Each candidate pair is a link with probability p, one uniform per pair
    in row-major order: the strict upper triangle when symmetric, every
    off-diagonal entry otherwise."""
    rng = np.random.default_rng(seed)
    pairs = np.triu(np.ones((n, n), dtype=bool), 1) if symmetric else ~np.eye(n, dtype=bool)
    count = int(np.count_nonzero(pairs))
    adj = np.zeros((n, n), dtype=bool)
    for _ in range(ER_MAX_ATTEMPTS):
        adj[pairs] = rng.random(count) < p
        if is_strongly_connected(adj | adj.T if symmetric else adj):
            return adj
    raise TopologyError(
        f"no strongly connected sample in {ER_MAX_ATTEMPTS} attempts "
        f"(n={n}, p={p}); raise p or change the seed"
    )


def _parse_edge_list(path: str, n: int) -> np.ndarray:
    """One edge 'i j' per line, '#' starting a comment; an empty file has
    no edges. numpy reads a well-formed ASCII file at once (it misreads
    non-ASCII digits), and the line loop, which reads every id int() reads,
    takes any other file and names its first faulty line."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise EdgeListError(f"cannot read edge list {path}: {exc}") from exc
    lines = text.splitlines()
    adj = _read_edge_array(lines, n) if text.isascii() else None
    return _read_edge_lines(path, lines, n) if adj is None else adj


def _read_edge_array(lines, n: int) -> np.ndarray | None:
    """The adjacency of lines numpy reads as valid 'i j' rows at once, else None."""
    try:
        with warnings.catch_warnings():
            # a file numpy warns about is the loop's: one with no data, or (in
            # numpy releases that still read it) a float id such as "1.0"
            warnings.simplefilter("error")
            edges = np.loadtxt(lines, dtype=np.int64, comments="#", ndmin=2)
    except (ValueError, Warning):
        return None
    if edges.shape[1] != 2 or not np.all((0 <= edges) & (edges < n)) or np.any(edges[:, 0] == edges[:, 1]):
        return None
    adj = np.zeros((n, n), dtype=bool)
    adj[edges[:, 0], edges[:, 1]] = True
    return adj


def _read_edge_lines(path: str, lines, n: int) -> np.ndarray:
    adj = np.zeros((n, n), dtype=bool)
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise EdgeListError(f"{path}:{lineno}: expected 'i j', got {raw!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise EdgeListError(f"{path}:{lineno}: non-integer node id in {raw!r}") from exc
        if not (0 <= a < n and 0 <= b < n):
            raise EdgeListError(f"{path}:{lineno}: node id out of range [0, {n}) in {raw!r}")
        if a == b:
            raise EdgeListError(f"{path}:{lineno}: self-edge ({a},{a}) not allowed")
        adj[a, b] = True
    return adj


def generate_topology(spec: TopologySpec, n: int, seed: int) -> Digraph:
    """Build a Digraph from a spec; a pure function of (spec, n, seed).

    Random kinds regenerate until strongly connected (the convergence results
    assume it), up to ER_MAX_ATTEMPTS; deterministic kinds ignore the seed.
    """
    if n < 2:
        raise ValueError(f"a network needs at least 2 nodes, got n={n}")
    if spec.kind == "ring":
        adj = np.roll(np.eye(n, dtype=bool), 1, axis=1)  # i -> i+1 (mod n)
    elif spec.kind == "complete":
        adj = ~np.eye(n, dtype=bool)
    elif spec.kind == "erdos_renyi":
        adj = _erdos_renyi(n, spec.p, spec.symmetric, seed)
    else:
        adj = _parse_edge_list(spec.path, n)
    return Digraph(adj | adj.T if spec.symmetric else adj)
