"""End-to-end runs: topology and channel construction from one master seed,
per-step slot scheduling with optional receiver noise, trajectory arrays,
spread-based convergence detection, and summary verdicts.

One master seed fans out into four independent substreams (topology,
channel, initial values, noise), so changing the noise level never reshuffles
the topology draw. Everything downstream is a pure function of the config.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import count

import numpy as np

from .analysis import mass_audit
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
    vals = vals + (spec.target_mean - vals.mean())
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


def iterate(algorithm: str, S: InitialStates, g=None, channel=None,
            noise_std: float = 0.0, noise_rng=None, audit=None):
    """The one stepping kernel behind run() and the verify suite.

    Yields (y_tilde, x_tilde, mu) for step 0 (the initial values) and then
    after every step, without end; the caller decides when to stop. Every
    step is y_tilde' = G @ (y_tilde / sigma) + noise, likewise for x_tilde:

    - tic: G is block 0 at every step, sigma measured once by a pilot;
    - tvc: step k reads block k - 1 and measures it by a fresh pilot, each
      block also fed to audit (an EpsilonBAudit) when one is given;
    - baseline: G = prop1_weights(g) and sigma = 1. The exchange is
      digital, so it draws no receiver noise.

    A G that is not n x n for the n initial values raises ValueError.

    With noise_std > 0 every analog slot draws n values from noise_rng in
    slot order: tic's pilot once, then numerator and denominator each step;
    tvc's pilot, numerator and denominator each step.
    """
    n = S.n

    def sized(G, what):
        if G.shape != (n, n):
            raise ValueError(f"{what} is {G.shape[0]}-node but got {n} initial values")
        return G

    def noise():
        if noise_std == 0.0 or algorithm == "baseline":
            return None
        return noise_rng.normal(0.0, noise_std, size=n)

    def checked(k, y, x):
        mu = ratio(y, x, f" at step {k}")
        finite = np.isfinite(y) & np.isfinite(x) & np.isfinite(mu)
        if not finite.all():
            raise NonFiniteStateError(f"non-finite state at step {k}, node {int(np.argmin(finite))}")
        return y, x, mu

    y, x = S.values.copy(), np.ones(n)
    if algorithm == "baseline":
        G, sigma = sized(prop1_weights(g), "the graph"), np.ones(n)
    elif algorithm == "tic":
        G = sized(channel.realization(0).gains, "the channel")
        sigma = pilot(G, noise(), "at initialization")
    yield checked(0, y, x)
    for k in count(1):
        if algorithm == "tvc":
            G = sized(channel.realization(k - 1).gains, f"the channel at step {k}")
            if audit is not None:
                audit.add(G)
            sigma = pilot(G, noise(), f"at step {k}")
        y, x = ota_step(G, sigma, y, x, noise(), noise())
        yield checked(k, y, x)


def run(config: SimulationConfig) -> tuple[Trajectory, RunSummary]:
    """Execute one experiment to convergence or max_iters.

    Convergence means the ratio spread stayed at or below tol for tol_window
    consecutive post-update steps. Non-convergence is a verdict, not an
    error; genuinely broken states (non-finite values, lost pilot mass,
    nonpositive denominators) raise instead.
    """
    g, channel, S = prepare(config)
    _, _, _, noise_seed = stream_seeds(config.seed)
    audit = EpsilonBAudit(config.epsilon, config.B) if config.algorithm == "tvc" else None
    kernel = iterate(config.algorithm, S, g, channel, config.noise_std,
                     np.random.default_rng(noise_seed), audit)

    ys: list[np.ndarray] = []
    xs: list[np.ndarray] = []
    mus: list[np.ndarray] = []
    converged = False
    streak = 0
    for k, (y_tilde, x_tilde, mu) in enumerate(kernel):
        ys.append(y_tilde)
        xs.append(x_tilde)
        mus.append(mu)
        if k > 0:
            streak = streak + 1 if spread(mu) <= config.tol else 0
            converged = streak >= config.tol_window
        if converged or k == config.max_iters:
            break

    trajectory = Trajectory(ys, xs, mus)
    target = S.mean()
    drift_y, drift_x = mass_audit((trajectory.y_tilde, trajectory.x_tilde), S)
    summary = RunSummary(
        converged=converged,
        iterations_used=k,
        target_average=target,
        final_max_error=float(np.max(np.abs(mu - target))),
        mass_drift_y=drift_y,
        mass_drift_x=drift_x,
        epsilon_B_satisfied=None if audit is None else audit.satisfied,
    )
    return trajectory, summary
