"""End-to-end runs: topology and channel construction from one master seed,
per-step slot scheduling with optional receiver noise, seed groups stepped
together, spread-based convergence detection, and summary verdicts.

One master seed fans out into four independent substreams (topology,
channel, initial values, noise), so changing the noise level never reshuffles
the topology draw. Everything downstream is a pure function of the config.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from itertools import count, groupby

import numpy as np

from .channel import ChannelProcess, FadingModel
from .protocol import InitialStates, NonFiniteStateError, ota_step, pilot, prop1_weights, ratio
from .topology import EpsilonBAudit, TopologySpec, generate_topology, is_strongly_connected

ALGORITHMS = ("tic", "tvc", "baseline")

#: Each kind with the InitialSpec fields it takes, in call order; a starred
#: name takes one or more values: explicit(v0, v1, ...).
INITIAL_ARGS = {"explicit": ("*values",), "random_mean": ("target_mean", "half_width")}
INITIAL_KINDS = tuple(INITIAL_ARGS)

TRAJECTORY_FIELDS = ("y_tilde", "x_tilde", "mu")


@dataclass(frozen=True)
class InitialSpec:
    """How the to-be-averaged values come into being."""

    kind: str
    values: tuple[float, ...] | None = None
    target_mean: float | None = None
    half_width: float | None = None

    def __post_init__(self):
        if self.kind not in INITIAL_KINDS:
            raise ValueError(f"unknown initial kind {self.kind!r}; expected one of {INITIAL_KINDS}")
        if self.kind == "explicit":
            if not self.values:
                raise ValueError("explicit initial values must be a nonempty sequence")
            object.__setattr__(self, "values", tuple(float(v) for v in self.values))
            with np.errstate(over="ignore"):  # refused below, before it reaches the run
                total = float(np.sum(self.values))  # as InitialStates.mean sums them
            if not math.isfinite(total):
                raise ValueError(f"explicit initial values must have a finite sum, got {total!r}")
        else:
            if self.target_mean is None or self.half_width is None:
                raise ValueError("random_mean needs target_mean and half_width")
            if not math.isfinite(self.target_mean):
                raise ValueError(f"target_mean must be finite, got {self.target_mean}")
            if not (0 <= self.half_width < math.inf):
                raise ValueError(f"half_width must be finite and nonnegative, got {self.half_width}")
            lo, hi = self.target_mean - self.half_width, self.target_mean + self.half_width
            if not math.isfinite(hi - lo):  # an infinite end makes the width infinite too
                raise ValueError(f"initial range [{lo}, {hi}] of random_mean must be finite, width too")

    @classmethod
    def explicit(cls, values) -> "InitialSpec":
        return cls("explicit", values=tuple(values))

    @classmethod
    def random_mean(cls, target_mean: float, half_width: float) -> "InitialSpec":
        return cls("random_mean", target_mean=float(target_mean), half_width=float(half_width))


@dataclass(frozen=True)
class SimulationConfig:
    """Complete description of one experiment; two equal configs give
    bitwise-identical runs. Every real-valued field must be finite."""

    n: int
    topology: TopologySpec
    algorithm: str
    fading: FadingModel
    initial: InitialSpec
    seed: int
    self_weight: float = 1.0
    noise_std: float = 0.0
    epsilon: float = 1e-3
    B: int = 1
    deep_fade: bool = False
    max_iters: int = 5000
    tol: float = 1e-9
    tol_window: int = 10
    pair_scales: tuple[tuple[tuple[int, int], float], ...] = ()

    def __post_init__(self):
        if self.n < 2:
            raise ValueError(f"n must be at least 2, got {self.n}")
        if self.algorithm not in ALGORITHMS:
            raise ValueError(f"unknown algorithm {self.algorithm!r}; expected one of {ALGORITHMS}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be at least 1, got {self.max_iters}")
        if not (0 < self.tol < math.inf):
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.tol_window < 1:
            raise ValueError(f"tol_window must be at least 1, got {self.tol_window}")
        if self.B < 1:
            raise ValueError(f"B must be at least 1, got {self.B}")
        if not (0 < self.epsilon < math.inf):
            raise ValueError(f"epsilon must be finite and positive, got {self.epsilon}")
        if not (0 <= self.self_weight < math.inf):
            raise ValueError(f"self_weight must be finite and nonnegative, got {self.self_weight}")
        if not (0 <= self.noise_std < math.inf):
            raise ValueError(f"noise_std must be finite and nonnegative, got {self.noise_std}")
        if not all(0 < s < math.inf for _, s in self.pair_scales):
            raise ValueError(f"pair_scales factors must be finite and positive, got {self.pair_scales}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if self.deep_fade and self.algorithm != "tvc":
            raise ValueError("deep_fade is a time-varying channel feature; use algorithm=tvc")
        if self.pair_scales and self.algorithm == "baseline":
            (a, b), _ = self.pair_scales[0]
            raise ValueError(f"pair ({a},{b}) in pair_scales scales a channel gain; baseline has none")
        if self.initial.kind == "explicit" and len(self.initial.values) != self.n:
            raise ValueError(
                f"explicit initial values have length {len(self.initial.values)}, expected n={self.n}"
            )


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Every node's raw chain states and ratio at every recorded step.

    Each field is a read-only (steps + 1, n) float array whose row k holds
    the state after step k; row 0 is the initial values. len() is the row
    count of the trajectory table, (steps + 1) * n. Two trajectories are
    equal when all three arrays are.
    """

    y_tilde: np.ndarray
    x_tilde: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        arrays = {name: np.array(getattr(self, name), dtype=float) for name in TRAJECTORY_FIELDS}
        shapes = {a.shape for a in arrays.values()}
        if len(shapes) != 1 or arrays["mu"].ndim != 2:
            raise ValueError(f"trajectory fields must share a (steps, n) shape, got {sorted(shapes)}")
        for name, a in arrays.items():
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    def __len__(self) -> int:
        return self.mu.size

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trajectory):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in TRAJECTORY_FIELDS)


@dataclass(frozen=True)
class RunSummary:
    """End-of-run verdict. epsilon_B_satisfied is None for algorithms where
    the windowed-connectivity audit does not apply."""

    converged: bool
    iterations_used: int
    target_average: float
    final_max_error: float
    mass_drift_y: float
    mass_drift_x: float
    epsilon_B_satisfied: bool | None


def stream_seeds(seed: int) -> tuple[int, int, int, int]:
    """Four independent integer sub-seeds (topology, channel, initial values,
    noise) derived from one master seed."""
    children = np.random.SeedSequence(seed).spawn(4)
    return tuple(int(c.generate_state(1, dtype=np.uint64)[0]) for c in children)


def make_initial_values(spec: InitialSpec, n: int, seed: int) -> InitialStates:
    """Materialize initial values; random_mean recenters the sample so the
    realized average hits the target exactly (to rounding), which is what
    makes convergence-to-target assertions meaningful."""
    if spec.kind == "explicit":
        return InitialStates(np.array(spec.values))
    rng = np.random.default_rng(seed)
    vals = rng.uniform(spec.target_mean - spec.half_width, spec.target_mean + spec.half_width, size=n)
    with np.errstate(over="ignore"):  # refused below by name
        total = vals.sum()
    if not math.isfinite(total):
        raise ValueError(f"random_mean initial values must have a finite sum, got {float(total)!r}")
    vals = vals + (spec.target_mean - total / n)
    return InitialStates(vals)


def spread(mu) -> float:
    """Agent-computable convergence diagnostic: max minus min of the ratios."""
    mu = np.asarray(mu, dtype=float)
    if mu.size == 0:
        raise ValueError("spread of an empty vector")
    return float(np.max(mu) - np.min(mu))


def prepare(config: SimulationConfig):
    """Deterministic run setup: (digraph, channel process or None, initial values).

    Exposed separately so audits can rebuild exactly the channel sequence a
    run saw without replaying the run.
    """
    topo_seed, channel_seed, initial_seed, _ = stream_seeds(config.seed)
    g = generate_topology(config.topology, config.n, topo_seed)
    if config.algorithm in ("tic", "baseline") and not is_strongly_connected(g.adj):
        raise ValueError(f"{config.algorithm} requires a strongly connected topology")
    channel = None
    if config.algorithm in ("tic", "tvc"):
        channel = ChannelProcess(
            model=config.fading,
            topology=g,
            self_weight=config.self_weight,
            seed=channel_seed,
            deep_fade_epsilon=config.epsilon if config.deep_fade else None,
            pair_scales=config.pair_scales,
        )
    S = make_initial_values(config.initial, config.n, initial_seed)
    return g, channel, S


def _kernel(algorithm, S, graphs, channels, noise_std, noise_rngs, audit):
    """The one stepping loop: the m members of S (m, n) step together, each
    exactly as iterate() steps one, with one entry per member in graphs
    (baseline), channels (tic, tvc) and noise_rngs. Yields (live, y_tilde,
    x_tilde, mu) for step 0 and after every step: the members still
    stepping and their (len(live), n) states. Send a boolean mask over live
    to stop members; a stopped member draws no further block or noise.
    tvc stacks the members' first blocks into one (m, n, n) buffer, G, and
    when every channel is a ChannelProcess each writes its later blocks
    into its member's slot of G in place."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    m, n = S.shape
    live = np.arange(m)
    y, x = S.copy(), np.ones((m, n))
    noisy = noise_std > 0.0 and algorithm != "baseline"
    processes = all(isinstance(c, ChannelProcess) for c in channels)  # reciprocal blocks, written in place

    def sized(G, what):
        if G.shape != (n, n):
            raise ValueError(f"{what} is {G.shape[0]}-node but got {n} initial values")
        return G

    def noise(count):  # one (len(live), n) array per slot
        if not noisy:
            return (None,) * count
        return np.array([noise_rngs[i].normal(0.0, noise_std, size=(count, n)) for i in live]).swapaxes(0, 1)

    def checked(k, y, x):
        mu = ratio(y, x, f" at step {k}")
        finite = np.isfinite(x) & np.isfinite(mu)  # mu is not finite where y is not
        if not finite.all():
            raise NonFiniteStateError(f"non-finite state at step {k}, node {int(np.argmin(finite)) % n}")
        return mu

    if algorithm == "baseline":
        G, sigma = np.array([sized(prop1_weights(g), "the graph") for g in graphs]), np.ones((m, n))
    elif algorithm == "tic":
        G = np.array([sized(c.realization(0).gains, "the channel") for c in channels])
        sigma = pilot(G, noise(1)[0], "at initialization")
    mu = checked(0, y, x)
    for k in count(1):
        keep = yield live, y, x, mu
        if keep is not None:
            live, y, x = live[keep], y[keep], x[keep]
            if algorithm != "tvc" or k > 1:  # a member's slot of G moves with it
                G, sigma = G[keep], sigma[keep]
            if not live.size:
                return
            if audit is not None:
                audit.keep(keep)
        if algorithm == "tvc":
            if k > 1 and processes:  # each slot holds its member's last block
                for j, i in enumerate(live):
                    channels[i].realization(k - 1, out=G[j])
            else:
                G = np.array([sized(channels[i].realization(k - 1).gains, f"the channel at step {k}")
                              for i in live])
            if audit is not None:
                audit.add(G, processes)
            w_sigma, w_y, w_x = noise(3)
            sigma = pilot(G, w_sigma, f"at step {k}")
        else:
            w_y, w_x = noise(2)
        y, x = ota_step(G, sigma, y, x, w_y, w_x)
        mu = checked(k, y, x)


def iterate(algorithm: str, S: InitialStates, g=None, channel=None,
            noise_std: float = 0.0, noise_rng=None, audit=None):
    """The batched stepping loop viewed for one member: the verify suite's
    route, and what the tests hold hand-stepped references against.

    Yields (y_tilde, x_tilde, mu) for step 0 (the initial values) and then
    after every step, without end; the caller decides when to stop. Every
    step is y_tilde' = G @ (y_tilde / sigma) + noise, likewise for x_tilde:

    - tic: G is block 0 at every step, sigma measured once by a pilot;
    - tvc: step k reads block k - 1 and measures it by a fresh pilot, each
      block also fed to audit (an EpsilonBAudit) when one is given;
    - baseline: G = prop1_weights(g) and sigma = 1. The exchange is
      digital, so it draws no receiver noise.

    A G that is not n x n for the n initial values raises ValueError; a
    broken state raises as in run(), without numpy warnings.

    With noise_std > 0 every analog slot draws n values from noise_rng in
    slot order: tic's pilot once, then numerator and denominator each step;
    tvc's pilot, numerator and denominator each step.
    """
    kernel = _kernel(algorithm, S.values[np.newaxis], [g], [channel], noise_std, [noise_rng], audit)
    while True:
        with np.errstate(over="ignore"):  # every overflow is refused by name
            _, y, x, mu = next(kernel)
        yield y[0], x[0], mu[0]


def run_group(configs, done=None) -> list[RunSummary]:
    """run()'s summary for each config, in order: [run(c)[1] for c in
    configs] without the trajectories.

    Consecutive configs that differ only in seed (a sweep value's seeds)
    step together through one kernel pass. A failing config raises what it
    would raise alone, and no later config runs. The summaries are appended
    to done, a list when given, as they are due, so after a fault it holds
    those of the configs before the failing one.
    """
    done = [] if done is None else done
    for _, batch in groupby(configs, key=lambda c: replace(c, seed=0)):
        batch = list(batch)
        try:
            done += _batch(batch)
        except (ValueError, RuntimeError):  # every fault a member names
            if len(batch) == 1:
                raise
            for c in batch:  # one at a time, so the error raised is the earliest config's
                done += _batch([c])
    return done


def _batch(configs, rows=None) -> list[RunSummary]:
    """Summaries of configs that differ only in seed, stepped together.

    Each member stops on its own: when its ratio spread has stayed at or
    below tol for tol_window consecutive post-update steps, or at max_iters.
    With rows, a list, a batch of one appends each step's (y_tilde,
    x_tilde, mu) to it.
    """
    cfg = configs[0]
    graphs, channels, initials = map(list, zip(*(prepare(c) for c in configs)))
    S = np.array([s.values for s in initials])
    rngs = [np.random.default_rng(stream_seeds(c.seed)[3]) for c in configs]
    audit = EpsilonBAudit(cfg.epsilon, cfg.B) if cfg.algorithm == "tvc" else None
    kernel = _kernel(cfg.algorithm, S, graphs, channels, cfg.noise_std, rngs, audit)
    totals, drift = S.sum(axis=-1), np.zeros((2, len(configs)))
    streak, keep, summaries = np.zeros(len(configs), dtype=int), None, [None] * len(configs)
    with np.errstate(over="ignore"):  # every overflow is refused by name
        # each step's stop mask goes back in; the kernel ends when no member is left
        for k, (live, y, x, mu) in enumerate(iter(lambda: kernel.send(keep), None)):
            if keep is not None:  # one row per member still stepping, as in the kernel
                totals, drift, streak = totals[keep], drift[:, keep], streak[keep]
            np.maximum(drift[0], np.abs(y.sum(axis=-1) - totals), out=drift[0])
            np.maximum(drift[1], np.abs(x.sum(axis=-1) - cfg.n), out=drift[1])
            if k > 0:
                streak = np.where(mu.max(axis=-1) - mu.min(axis=-1) <= cfg.tol, streak + 1, 0)
            converged = streak >= cfg.tol_window
            stop = converged | (k == cfg.max_iters)
            if rows is not None:
                rows.append((y[0], x[0], mu[0]))
            for j in np.flatnonzero(stop) if stop.any() else ():
                target = initials[live[j]].mean()
                summaries[live[j]] = RunSummary(
                    converged=bool(converged[j]),
                    iterations_used=k,
                    target_average=target,
                    final_max_error=float(np.max(np.abs(mu[j] - target))),
                    mass_drift_y=float(drift[0, j]) / max(1.0, abs(float(totals[j]))),
                    mass_drift_x=float(drift[1, j]) / cfg.n,
                    epsilon_B_satisfied=None if audit is None else bool(
                        np.broadcast_to(audit.verdicts, live.shape)[j]),
                )
            keep = ~stop if stop.any() else None
    return summaries


def run(config: SimulationConfig) -> tuple[Trajectory, RunSummary]:
    """Execute one experiment to convergence or max_iters: a batch of one
    that also records its trajectory.

    Convergence means the ratio spread stayed at or below tol for tol_window
    consecutive post-update steps. Non-convergence is a verdict, not an
    error; genuinely broken states (non-finite values, lost pilot mass,
    nonpositive denominators) raise instead.
    """
    rows = []
    summary, = _batch([config], rows)
    return Trajectory(*zip(*rows)), summary
