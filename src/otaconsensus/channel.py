"""Reciprocal fading channels: per-coherence-block gain matrices plus a digital self-weight.

The gain matrix is indexed gains[receiver, transmitter]. Each undirected link
gets one sampled coefficient used in both directions, so sampled realizations
are exactly symmetric. The diagonal carries the locally-added self-weight, a
protocol constant rather than a physical channel.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .topology import Digraph

#: Each kind with the FadingModel fields it takes, in call order: uniform(lo, hi).
FADING_ARGS = {"constant": ("gain",), "half_normal": ("scale",), "uniform": ("lo", "hi")}
FADING_KINDS = tuple(FADING_ARGS)


@dataclass(frozen=True)
class FadingModel:
    """Distribution of one link gain. Every draw is strictly positive.

    constant(gain) is degenerate at a fixed gain; half_normal(scale) draws
    |z| for z ~ N(0, scale^2), rejecting exact zeros; uniform(lo, hi) draws
    from [lo, hi) with 0 < lo <= hi. Every parameter must be finite.
    """

    kind: str
    gain: float | None = None
    scale: float | None = None
    lo: float | None = None
    hi: float | None = None

    def __post_init__(self):
        if self.kind not in FADING_KINDS:
            raise ValueError(f"unknown fading kind {self.kind!r}; expected one of {FADING_KINDS}")
        if self.kind == "constant":
            if self.gain is None or not (0 < self.gain < math.inf):
                raise ValueError(f"constant fading needs finite gain > 0, got {self.gain}")
        elif self.kind == "half_normal":
            if self.scale is None or not (0 < self.scale < math.inf):
                raise ValueError(f"half_normal fading needs finite scale > 0, got {self.scale}")
        else:
            if self.lo is None or self.hi is None or not (0 < self.lo <= self.hi < math.inf):
                raise ValueError(f"uniform fading needs finite 0 < lo <= hi, got lo={self.lo}, hi={self.hi}")

    @classmethod
    def constant(cls, gain: float) -> "FadingModel":
        return cls("constant", gain=gain)

    @classmethod
    def half_normal(cls, scale: float) -> "FadingModel":
        return cls("half_normal", scale=scale)

    @classmethod
    def uniform(cls, lo: float, hi: float) -> "FadingModel":
        return cls("uniform", lo=lo, hi=hi)

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """size independent gains; half_normal redraws any exact zero."""
        if self.kind == "constant":
            return np.full(size, float(self.gain))
        if self.kind == "half_normal":
            g = np.abs(rng.normal(0.0, self.scale, size))
            while not g.all():
                zero = g == 0.0
                g[zero] = np.abs(rng.normal(0.0, self.scale, int(zero.sum())))
            return g
        return self.lo + (self.hi - self.lo) * rng.random(size)


@dataclass(frozen=True)
class ChannelRealization:
    """Gain matrix for one coherence block.

    gains[i, j] is the coefficient from transmitter j to receiver i; the
    diagonal equals self_weight everywhere. Sampled realizations are
    symmetric; the constructor does not enforce symmetry so that
    deliberately corrupted (non-reciprocal) matrices can be built for
    negative-control audits.
    """

    n: int
    gains: np.ndarray
    self_weight: float

    def __post_init__(self):
        gains = np.asarray(self.gains, dtype=float)
        if gains.shape != (self.n, self.n):
            raise ValueError(f"gains must be {self.n}x{self.n}, got shape {gains.shape}")
        if not np.all(np.isfinite(gains)):
            raise ValueError("gains must be finite")
        if np.any(gains < 0):
            raise ValueError("gains must be nonnegative")
        if not np.all(np.diagonal(gains) == self.self_weight):
            raise ValueError(f"diagonal must equal self_weight={self.self_weight}")
        gains = gains.copy()
        gains.setflags(write=False)
        object.__setattr__(self, "gains", gains)


@dataclass(frozen=True)
class ChannelProcess:
    """Seedable sequence of coherence blocks for a symmetric topology.

    Block k draws from one generator keyed by (seed, k): one gain for every
    node pair in the canonical np.triu_indices order, link or not, then
    masked by the topology. So a pair's gain depends only on (seed, k,
    pair), not on edge order or on which other links exist. Which block a
    step reads is the stepping kernel's rule, not the process's.

    deep_fade_epsilon, when set, gives every off-topology pair a weak
    positive gain uniform in (0, deep_fade_epsilon/2], below the
    effective-graph threshold. Its uniforms, one per pair, come from the
    same generator after the gains, so switching it on leaves the
    on-topology gains untouched.

    pair_scales multiplies individual links' draws by a per-pair factor,
    keyed by the undirected pair (min, max); every listed pair must be a
    link of the topology. All three fading families are scale families, so
    this is exactly a per-pair variance (or gain) knob; unlisted pairs keep
    factor 1.
    """

    model: FadingModel
    topology: Digraph
    self_weight: float = 1.0
    seed: int = 0
    deep_fade_epsilon: float | None = None
    pair_scales: tuple[tuple[tuple[int, int], float], ...] = ()
    # built once from the fields above: per pair in canonical order whether
    # it is a link and its scale, and for every gain matrix entry the index
    # of its pair, or one past the last pair for the diagonal
    _links: np.ndarray = field(init=False, repr=False, compare=False)
    _scales: np.ndarray = field(init=False, repr=False, compare=False)
    _index: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.topology.is_symmetric():
            raise ValueError("channel reciprocity needs a symmetric topology")
        if not (0 <= self.self_weight < math.inf):
            raise ValueError(f"self_weight must be finite and nonnegative, got {self.self_weight}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        eps = self.deep_fade_epsilon
        if eps is not None and not (0 < eps < math.inf):
            raise ValueError(f"deep_fade needs finite epsilon > 0, got {eps}")
        n = self.topology.n
        norm = []
        for (a, b), s in self.pair_scales:
            if not (0 < s < math.inf):
                raise ValueError(f"pair scale for ({a},{b}) must be finite and positive, got {s}")
            if not (0 <= a < n and 0 <= b < n) or not self.topology.adj[a, b]:
                raise ValueError(f"pair ({a},{b}) is not a valid link")
            norm.append(((min(a, b), max(a, b)), float(s)))
        object.__setattr__(self, "pair_scales", tuple(sorted(norm)))
        scales = np.ones((n, n))
        for (a, b), s in self.pair_scales:
            scales[a, b] = s
        upper = np.triu_indices(n, 1)
        index = np.full((n, n), upper[0].size)
        index[upper] = index.T[upper] = np.arange(upper[0].size)
        object.__setattr__(self, "_links", self.topology.adj[upper])
        object.__setattr__(self, "_scales", scales[upper])
        object.__setattr__(self, "_index", index)

    def realization(self, k: int) -> ChannelRealization:
        """Gain matrix of block k; a pure function of (process fields, k).
        Built symmetric, nonnegative and with the self_weight diagonal, it
        is checked only for a gain overflowing to inf: a ValueError naming
        the block, the pair and the keys that set its size."""
        if k < 0:
            raise ValueError(f"block index must be nonnegative, got {k}")
        rng = np.random.default_rng([self.seed, k])
        pairs = self.model.draw(rng, self._links.size)
        if self.pair_scales:
            with np.errstate(over="ignore"):  # an overflowing gain is refused below
                pairs = pairs * self._scales
        off = 0.0
        if self.deep_fade_epsilon is not None:
            u = rng.random(self._links.size)
            off = (1.0 - u) * 0.5 * self.deep_fade_epsilon  # in (0, epsilon/2]
        pairs = np.where(self._links, pairs, off)
        if not pairs.max() < np.inf:
            p = int(np.argmax(pairs))
            a, b = (int(i[p]) for i in np.triu_indices(self.topology.n, 1))
            keys = "fading times pair_scales" if (a, b) in dict(self.pair_scales) else "fading"
            raise ValueError(f"gain of pair ({a},{b}) in block {k} is {float(pairs[p])!r}: {keys} overflows")
        gains = np.concatenate((pairs, (self.self_weight,)))[self._index]
        gains.setflags(write=False)
        block = object.__new__(ChannelRealization)
        for name, value in (("n", self.topology.n), ("gains", gains), ("self_weight", self.self_weight)):
            object.__setattr__(block, name, value)
        return block
