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
        if self.kind == "half_normal":  # |z| * scale: the bits of |normal(0, scale)|, drawn faster
            g = np.abs(rng.standard_normal(size))
            with np.errstate(over="ignore"):  # an overflowing gain is inf, refused when its block is read
                g *= self.scale
                while not g.all():
                    zero = g == 0.0
                    g[zero] = np.abs(rng.standard_normal(int(zero.sum()))) * self.scale
            return g
        return self.lo + (self.hi - self.lo) * rng.random(size)


@dataclass(frozen=True)
class ChannelRealization:
    """One coherence block: gains[i, j], read-only (n, n), is the coefficient
    from transmitter j to receiver i, as ChannelProcess.realization(k) builds it."""

    gains: np.ndarray


#: An epoch holds at most EPOCH_BLOCKS blocks and, when it holds more than
#: one, at most EPOCH_GAINS gains: its draw and its cache stay small.
EPOCH_BLOCKS, EPOCH_GAINS = 64, 4096


def epoch_blocks(n: int) -> int:
    """T, the blocks in an epoch of an n-node process: max(1, min(64, 4096 // P))
    for its P = n(n-1)/2 node pairs, so 64 at n = 10, 3 at n = 50 and 1
    from n = 65 on."""
    return max(1, min(EPOCH_BLOCKS, EPOCH_GAINS // max(1, n * (n - 1) // 2)))


@dataclass(frozen=True)
class ChannelProcess:
    """Seedable sequence of coherence blocks for a symmetric topology.

    Blocks come in epochs of T = epoch_blocks(n): block k is row k mod T of
    epoch k // T. Epoch e draws from one PCG64 generator keyed by (seed, e):
    the process's seeded state advanced by e * 2**64 draws, so epochs never
    share a draw for e < 2**64. With T > 1 an epoch is one (T, P) draw, a
    row of P per block for the P node pairs, and a block's links take the
    first entries of its row, in the canonical np.triu_indices order of the
    links; with T = 1 the one row draws the links only. So a link's gain
    depends only on (seed, n, k, its rank among the links). Which block a
    step reads is the stepping kernel's rule, not the process's. The
    process caches its last epoch, at most EPOCH_GAINS values when T > 1,
    drawn when a block of it is first read; each epoch drawn re-keys the one
    generator, so a process must not realize blocks from two threads at once.

    deep_fade_epsilon, when set, gives every off-topology pair a weak
    positive gain uniform in (0, deep_fade_epsilon/2], below the
    effective-graph threshold. Its uniforms, a (T, off-topology pairs)
    array in the same canonical order, come from the same generator after
    the epoch's gains, so switching it on leaves the link gains untouched.

    pair_scales multiplies individual links' draws by a per-pair factor,
    keyed by the undirected pair (min, max); every listed pair must be a
    link of the topology, listed once in either order. All three fading
    families are scale families, so this is exactly a per-pair variance
    (or gain) knob; unlisted pairs keep factor 1.

    The flat indices of the links and off-topology pairs are the topology's
    pair_indices, so processes on one Digraph share them; all else is each
    process's own.
    """

    model: FadingModel
    topology: Digraph
    self_weight: float = 1.0
    seed: int = 0
    deep_fade_epsilon: float | None = None
    pair_scales: tuple[tuple[tuple[int, int], float], ...] = ()
    # built once from the fields above: the topology's pair_indices, each
    # link's scale (None when all are 1), the generator with its seeded
    # state, and the cached epoch: its index, link gains and fades
    _pairs: tuple = field(init=False, repr=False, compare=False)
    _scales: np.ndarray | None = field(init=False, repr=False, compare=False)
    _rng: np.random.Generator = field(init=False, repr=False, compare=False)
    _state: dict = field(init=False, repr=False, compare=False)
    _epoch: list = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "_pairs", self.topology.pair_indices)
        scales = None
        if norm:
            scales = np.ones((n, n))
            for (a, b), s in norm.items():
                scales[a, b] = s
            scales = scales.reshape(-1)[self._pairs[0][0]]
        bit_generator = np.random.PCG64(self.seed)
        object.__setattr__(self, "_scales", scales)
        object.__setattr__(self, "_rng", np.random.Generator(bit_generator))
        object.__setattr__(self, "_state", bit_generator.state)
        object.__setattr__(self, "_epoch", [None])  # nothing drawn yet

    def _drawn(self, e: int):
        """Epoch e as (link gains, fades or None), one row per block; drawn
        unless it is the cached one, which it replaces."""
        if self._epoch[0] != e:
            rng = self._rng
            rng.bit_generator.state = self._state
            rng.bit_generator.advance(e << 64)
            n, T = self.topology.n, epoch_blocks(self.topology.n)
            (links, _), (off, _) = self._pairs
            width = n * (n - 1) // 2 if T > 1 else links.size
            gains = np.ascontiguousarray(self.model.draw(rng, T * width).reshape(T, width)[:, : links.size])
            if self._scales is not None:
                with np.errstate(over="ignore"):  # an overflowing gain is inf, refused when its block is read
                    gains *= self._scales
            fades = None
            if self.deep_fade_epsilon is not None:
                fades = (1.0 - rng.random((T, off.size))) * 0.5 * self.deep_fade_epsilon  # in (0, epsilon/2]
            self._epoch[:] = e, gains, fades
        return self._epoch[1:]

    def _write(self, e: int, rows: slice, out: np.ndarray) -> None:
        """Epoch e's blocks at rows into out, one n x n C-contiguous block each."""
        gains, fades = self._drawn(e)
        n = self.topology.n
        one = len(out) == 1  # one block: 1-D indexing writes it about twice as fast as 2-D
        flat = out.reshape(n * n) if one else out.reshape(len(out), n * n).T  # refuses blocks of another n
        out[...] = 0.0
        flat[:: n + 1] = self.self_weight  # the diagonal
        for (up, down), values in zip(self._pairs, (gains, fades)):
            if values is not None:
                values = values[rows]
                flat[up] = flat[down] = values[0] if one else values.T

    def write_epoch(self, e: int, out: np.ndarray) -> None:
        """Blocks e*T to e*T + T - 1 into out, a (T, n, n) float array whose
        blocks are each C-contiguous, as realization(k) gives them. The
        blocks are not checked: a gain that overflows is written as inf, and
        realization(k) names it."""
        if e < 0:
            raise ValueError(f"epoch index must be nonnegative, got {e}")
        self._write(e, slice(None), out)

    def realization(self, k: int) -> ChannelRealization:
        """Block k, a pure function of (process fields, k); its gains is the
        read-only gain matrix, built symmetric, nonnegative and with the
        self_weight diagonal. It is checked only for a gain overflowing to
        inf: a ValueError naming the block, the pair and the keys."""
        if k < 0:
            raise ValueError(f"block index must be nonnegative, got {k}")
        n = self.topology.n
        e, r = divmod(k, epoch_blocks(n))
        out = np.empty((1, n, n))
        self._write(e, slice(r, r + 1), out)
        if not out.max() < np.inf:  # its first inf, row-major, is the first overflowing link in canonical order
            a, b = divmod(int(np.argmax(out)), n)
            keys = "fading times pair_scales" if (a, b) in dict(self.pair_scales) else "fading"
            raise ValueError(f"gain of pair ({a},{b}) in block {k} is {float(out[0, a, b])!r}: {keys} overflows")
        gains = out[0]
        gains.setflags(write=False)
        return ChannelRealization(gains)
