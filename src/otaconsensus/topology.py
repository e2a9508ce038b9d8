"""Directed communication graphs and the connectivity checks the convergence guarantees rest on.

Nodes are dense integer ids 0..n-1. An edge (i, j) means node i transmits to
node j, so j can receive from i. Self-edges are never stored: self-influence is
modeled as a diagonal weight on the channel realization, not as a graph edge.
"""
from __future__ import annotations

from dataclasses import dataclass, field
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


class EdgeListError(TopologyError):
    """An edge-list file could not be parsed."""


@dataclass(frozen=True)
class Digraph:
    """Immutable directed graph on nodes 0..n-1.

    Edge orientation follows transmission: (i, j) present means j receives
    from i, so i is an in-neighbor of j and j is an out-neighbor of i.
    """

    n: int
    edges: frozenset[tuple[int, int]] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"a network needs at least 2 nodes, got n={self.n}")
        edges = frozenset((int(a), int(b)) for a, b in self.edges)
        object.__setattr__(self, "edges", edges)
        for a, b in edges:
            if a == b:
                raise ValueError(
                    f"self-edge ({a},{a}) rejected: self-influence lives on the "
                    "channel diagonal, not in the graph"
                )
            if not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"edge ({a},{b}) out of range for n={self.n}")

    @property
    def m(self) -> int:
        return len(self.edges)

    def in_neighbors(self, j: int) -> list[int]:
        return sorted(a for a, b in self.edges if b == j)

    def out_neighbors(self, j: int) -> list[int]:
        return sorted(b for a, b in self.edges if a == j)

    def in_degree(self, j: int) -> int:
        return sum(1 for a, b in self.edges if b == j)

    def out_degree(self, j: int) -> int:
        return sum(1 for a, b in self.edges if a == j)

    def is_symmetric(self) -> bool:
        return all((b, a) in self.edges for a, b in self.edges)

    def adjacency(self) -> np.ndarray:
        """Boolean adjacency matrix; entry [i, j] is True iff edge (i, j) exists."""
        adj = np.zeros((self.n, self.n), dtype=bool)
        for a, b in self.edges:
            adj[a, b] = True
        return adj


def _reaches_all(adj: np.ndarray) -> bool:
    """True iff node 0 reaches every node along adj (adj[i, j]: edge i -> j).

    Frontier expansion: each round adds every unseen node one edge away
    from the nodes the previous round added.
    """
    seen = np.zeros(adj.shape[0], dtype=bool)
    seen[0] = True
    frontier = seen.copy()
    while frontier.any():
        frontier = adj[frontier].any(axis=0) & ~seen
        seen |= frontier
    return bool(seen.all())


def adjacency_strongly_connected(adj: np.ndarray) -> bool:
    """Strong connectivity of a boolean adjacency matrix: node 0 reaches
    every node, and every node reaches node 0 (implied for a symmetric
    matrix). Diagonal entries do not matter: self-loops never change
    reachability."""
    return _reaches_all(adj) and (np.array_equal(adj, adj.T) or _reaches_all(adj.T))


def is_strongly_connected(g: Digraph) -> bool:
    """True iff every node reaches every other node along directed edges."""
    return adjacency_strongly_connected(g.adjacency())


def joint_graph(gs: Sequence[Digraph]) -> Digraph:
    """Edge-set union of graphs on a common node set."""
    if not gs:
        raise ValueError("joint_graph needs at least one graph")
    n = gs[0].n
    for g in gs:
        if g.n != n:
            raise ValueError(f"node-count mismatch in union: {g.n} != {n}")
    edges: set[tuple[int, int]] = set()
    for g in gs:
        edges |= g.edges
    return Digraph(n, frozenset(edges))


class EpsilonBAudit:
    """Windowed joint-connectivity audit fed one gain matrix per step.

    Steps fall into consecutive non-overlapping windows of B. Within a
    window the effective graphs (gains[i, j] > epsilon: i hears j) are ORed
    into one boolean matrix, and when the window is full that union must be
    strongly connected. A trailing partial window is never judged, so the
    verdict is vacuously true until a window completes. Once a window
    fails, the verdict is final and later steps are not examined.
    """

    def __init__(self, epsilon: float, B: int):
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        if B < 1:
            raise ValueError(f"window length B must be >= 1, got {B}")
        self.epsilon = epsilon
        self.B = B
        self.satisfied = True
        self._window = None
        self._filled = 0

    def add(self, gains: np.ndarray) -> None:
        if not self.satisfied:
            return
        strong = gains > self.epsilon
        self._window = strong if self._window is None else self._window | strong
        self._filled += 1
        if self._filled == self.B:
            self.satisfied = adjacency_strongly_connected(self._window)
            self._window = None
            self._filled = 0


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


def _ring_edges(n: int, symmetric: bool) -> set[tuple[int, int]]:
    edges = {(i, (i + 1) % n) for i in range(n)}
    if symmetric:
        edges |= {(b, a) for a, b in edges}
    return edges


def _complete_edges(n: int) -> set[tuple[int, int]]:
    return {(i, j) for i in range(n) for j in range(n) if i != j}


def _erdos_renyi(n: int, p: float, symmetric: bool, seed: int) -> Digraph:
    rng = np.random.default_rng(seed)
    for _ in range(ER_MAX_ATTEMPTS):
        edges: set[tuple[int, int]] = set()
        if symmetric:
            for i in range(n):
                for j in range(i + 1, n):
                    if rng.random() < p:
                        edges.add((i, j))
                        edges.add((j, i))
        else:
            for i in range(n):
                for j in range(n):
                    if i != j and rng.random() < p:
                        edges.add((i, j))
        g = Digraph(n, frozenset(edges))
        if is_strongly_connected(g):
            return g
    raise TopologyError(
        f"no strongly connected sample in {ER_MAX_ATTEMPTS} attempts "
        f"(n={n}, p={p}); raise p or change the seed"
    )


def _parse_edge_list(path: str, n: int, symmetric: bool) -> set[tuple[int, int]]:
    edges: set[tuple[int, int]] = set()
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise EdgeListError(f"cannot read edge list {path}: {exc}") from exc
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
        edges.add((a, b))
        if symmetric:
            edges.add((b, a))
    return edges


def generate_topology(spec: TopologySpec, n: int, seed: int) -> Digraph:
    """Build a Digraph from a spec; a pure function of (spec, n, seed).

    Random kinds regenerate until strongly connected (the convergence results
    assume it), up to ER_MAX_ATTEMPTS; deterministic kinds ignore the seed.
    """
    if n < 2:
        raise ValueError(f"a network needs at least 2 nodes, got n={n}")
    if spec.kind == "ring":
        return Digraph(n, frozenset(_ring_edges(n, spec.symmetric)))
    if spec.kind == "complete":
        return Digraph(n, frozenset(_complete_edges(n)))
    if spec.kind == "erdos_renyi":
        return _erdos_renyi(n, spec.p, spec.symmetric, seed)
    return Digraph(n, frozenset(_parse_edge_list(spec.path, n, spec.symmetric)))
