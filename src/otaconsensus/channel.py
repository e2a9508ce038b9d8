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

    Block k draws from one PCG64 generator keyed by (seed, k): the process's
    seeded state advanced by k * 2**64 draws, so blocks never share a draw
    for k < 2**64. It draws one gain per link, in the canonical
    np.triu_indices order of the links. So a link's gain depends only on
    (seed, k, its rank among the links). Which block a step reads is the
    stepping kernel's rule, not the process's. Each block re-keys the one
    generator, so a process must not realize blocks from two threads at once.

    deep_fade_epsilon, when set, gives every off-topology pair a weak
    positive gain uniform in (0, deep_fade_epsilon/2], below the
    effective-graph threshold. Its uniforms, one per off-topology pair in
    the same canonical order, come from the same generator after the
    gains, so switching it on leaves the link gains untouched.

    pair_scales multiplies individual links' draws by a per-pair factor,
    keyed by the undirected pair (min, max); every listed pair must be a
    link of the topology, listed once in either order. All three fading
    families are scale families, so this is exactly a per-pair variance
    (or gain) knob; unlisted pairs keep factor 1.
    """

    model: FadingModel
    topology: Digraph
    self_weight: float = 1.0
    seed: int = 0
    deep_fade_epsilon: float | None = None
    pair_scales: tuple[tuple[tuple[int, int], float], ...] = ()
    # built once from the fields above: the flat gain-matrix indices of
    # every link's (a, b) and (b, a) entries, a < b, in canonical order, the
    # same for the off-topology pairs, each link's scale (None when all are
    # 1), a block with no link drawn, and the generator with its seeded state
    _links: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _fades: tuple[np.ndarray, np.ndarray] = field(init=False, repr=False, compare=False)
    _scales: np.ndarray | None = field(init=False, repr=False, compare=False)
    _blank: np.ndarray = field(init=False, repr=False, compare=False)
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)
    _state: dict = field(init=False, repr=False, compare=False)

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
        norm = {}
        for (a, b), s in self.pair_scales:
            if not (0 < s < math.inf):
                raise ValueError(f"pair scale for ({a},{b}) must be finite and positive, got {s}")
            if not (0 <= a < n and 0 <= b < n) or not self.topology.adj[a, b]:
                raise ValueError(f"pair ({a},{b}) is not a valid link")
            a, b = min(a, b), max(a, b)
            if (a, b) in norm:
                raise ValueError(f"pair ({a},{b}) is listed twice in pair_scales")
            norm[a, b] = float(s)
        object.__setattr__(self, "pair_scales", tuple(sorted(norm.items())))
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        for name, pairs in (("_links", upper & self.topology.adj), ("_fades", upper & ~self.topology.adj)):
            a, b = np.nonzero(pairs)  # row-major: the canonical np.triu_indices order
            object.__setattr__(self, name, (a * n + b, b * n + a))
        scales = None
        if norm:
            scales = np.ones((n, n))
            for (a, b), s in norm.items():
                scales[a, b] = s
            scales = scales.reshape(-1)[self._links[0]]
        bit_generator = np.random.PCG64(self.seed)
        object.__setattr__(self, "_scales", scales)
        object.__setattr__(self, "_blank", self.self_weight * np.eye(n))
        object.__setattr__(self, "_rng", np.random.Generator(bit_generator))
        object.__setattr__(self, "_state", bit_generator.state)

    def realization(self, k: int, out: np.ndarray | None = None) -> ChannelRealization:
        """Gain matrix of block k; a pure function of (process fields, k).
        Built symmetric, nonnegative and with the self_weight diagonal, it
        is checked only for a gain overflowing to inf: a ValueError naming
        the block, the pair and the keys that set its size.

        out, an n x n C-contiguous float array that holds a block of this
        process, is overwritten with block k instead of allocating one:
        only the entries that vary between blocks (the links, and with deep
        fade the off-topology pairs) are rewritten, and the returned
        block's gains are a read-only view of out."""
        if k < 0:
            raise ValueError(f"block index must be nonnegative, got {k}")
        n = self.topology.n
        if out is None:
            out = self._blank.copy()
        elif out.shape != (n, n) or out.dtype != np.float64 or not out.flags.c_contiguous:
            raise ValueError(f"out must be a C-contiguous {n}x{n} float array, got shape {out.shape}")
        rng = self._rng
        rng.bit_generator.state = self._state
        rng.bit_generator.advance(k << 64)
        up, down = self._links
        gains = self.model.draw(rng, up.size)
        if self._scales is not None:
            with np.errstate(over="ignore"):  # an overflowing gain is refused below
                gains *= self._scales
        if not gains.max(initial=0.0) < np.inf:
            a, b = divmod(int(up[np.argmax(gains)]), n)
            keys = "fading times pair_scales" if (a, b) in dict(self.pair_scales) else "fading"
            raise ValueError(f"gain of pair ({a},{b}) in block {k} is {float(gains.max())!r}: {keys} overflows")
        flat = out.reshape(-1)
        flat[up] = flat[down] = gains
        if self.deep_fade_epsilon is not None:
            up, down = self._fades
            u = rng.random(up.size)
            flat[up] = flat[down] = (1.0 - u) * 0.5 * self.deep_fade_epsilon  # in (0, epsilon/2]
        gains = out.view()
        gains.setflags(write=False)
        block = object.__new__(ChannelRealization)
        for name, value in (("n", n), ("gains", gains), ("self_weight", self.self_weight)):
            object.__setattr__(block, name, value)
        return block
