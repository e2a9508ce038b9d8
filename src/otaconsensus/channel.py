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
class NoiseModel:
    """Additive white Gaussian receiver noise; std=0 is the noiseless regime."""

    std: float = 0.0

    def __post_init__(self):
        if not (0 <= self.std < math.inf):
            raise ValueError(f"noise_std must be finite and nonnegative, got {self.std}")


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
    """Seedable source of channel realizations for a symmetric topology.

    time_varying=False freezes the block sampled at step 0 for all steps;
    time_varying=True resamples every step (gains are coherent within a
    step's slots). Step k draws from one generator keyed by (seed, k): one
    gain for every node pair in the canonical np.triu_indices order, link
    or not, then masked by the topology. So a pair's gain depends only on
    (seed, k, pair), not on edge order or on which other links exist.

    deep_fade additionally gives every off-topology pair a weak positive
    gain uniform in (0, epsilon/2], below the effective-graph threshold.
    Its uniforms, one per pair, come from the same generator after the
    gains, so switching it on leaves the on-topology gains untouched.

    pair_scales multiplies individual links' draws by a per-pair factor,
    keyed by the undirected pair (min, max). All three fading families are
    scale families, so this is exactly a per-pair variance (or gain) knob;
    unlisted pairs keep factor 1.
    """

    model: FadingModel
    topology: Digraph
    self_weight: float = 1.0
    time_varying: bool = False
    seed: int = 0
    deep_fade: bool = False
    epsilon: float | None = None
    pair_scales: tuple[tuple[tuple[int, int], float], ...] = ()
    # built once from the fields above: the strict upper triangle as an n x n
    # mask, whose row-major order is the canonical pair order, and per pair
    # whether it is a link and its scale (None when no pair is scaled)
    _upper: np.ndarray = field(init=False, repr=False, compare=False)
    _links: np.ndarray = field(init=False, repr=False, compare=False)
    _scales: np.ndarray | None = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.topology.is_symmetric():
            raise ValueError("channel reciprocity needs a symmetric topology")
        if not (0 <= self.self_weight < math.inf):
            raise ValueError(f"self_weight must be finite and nonnegative, got {self.self_weight}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        n = self.topology.n
        norm = []
        items = self.pair_scales.items() if isinstance(self.pair_scales, dict) else self.pair_scales
        for (a, b), s in items:
            if not (0 < s < math.inf):
                raise ValueError(f"pair scale for ({a},{b}) must be finite and positive, got {s}")
            if not (0 <= a < n and 0 <= b < n) or a == b:
                raise ValueError(f"pair ({a},{b}) is not a valid link")
            norm.append(((min(a, b), max(a, b)), float(s)))
        object.__setattr__(self, "pair_scales", tuple(sorted(norm)))
        if self.deep_fade:
            if not self.time_varying:
                raise ValueError("deep_fade applies to time-varying channels only")
            if self.epsilon is None or not (0 < self.epsilon < math.inf):
                raise ValueError(f"deep_fade needs finite epsilon > 0, got {self.epsilon}")
        upper = np.triu(np.ones((n, n), dtype=bool), 1)
        scales = None
        if self.pair_scales:
            scales = np.ones((n, n))
            for (a, b), s in self.pair_scales:
                scales[a, b] = s
            scales = scales[upper]
        object.__setattr__(self, "_upper", upper)
        object.__setattr__(self, "_links", self.topology.adj[upper])
        object.__setattr__(self, "_scales", scales)

    def realization(self, k: int) -> ChannelRealization:
        """Gain matrix for step k; a pure function of (process fields, k)."""
        if k < 0:
            raise ValueError(f"step index must be nonnegative, got {k}")
        rng = np.random.default_rng([self.seed, k if self.time_varying else 0])
        pairs = self.model.draw(rng, self._links.size)
        if self._scales is not None:
            pairs *= self._scales
        off = 0.0
        if self.deep_fade:
            u = rng.random(self._links.size)
            off = (1.0 - u) * 0.5 * self.epsilon  # in (0, epsilon/2]
        pairs = np.where(self._links, pairs, off)
        n = self.topology.n
        gains = np.zeros((n, n))
        gains[self._upper] = pairs
        gains.T[self._upper] = pairs
        np.fill_diagonal(gains, self.self_weight)
        return ChannelRealization(n, gains, self.self_weight)
