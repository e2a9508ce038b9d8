"""End-to-end runs: topology and channel construction from one master seed,
per-step slot scheduling with optional receiver noise, one stepping loop
that steps members together to their stops, and summary verdicts.

One master seed fans out into four independent substreams (topology,
channel, initial values, noise), so changing the noise level never reshuffles
the topology draw. Everything downstream is a pure function of the config.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import partial
from itertools import groupby
from operator import attrgetter

import numpy as np

from .channel import ChannelProcess, FadingModel, epoch_blocks
from .protocol import (
    InitialStates,
    NonFiniteStateError,
    ota_step,
    pilot_sums,
    prop1_weights,
    ratio,
    refuse_pilot_sums,
    usable_sums,
)
from .topology import EpsilonBAudit, TopologySpec, generate_topology

ALGORITHMS = ("tic", "tvc", "baseline")

#: Each kind with the InitialSpec fields it takes, in call order; a starred
#: name takes one or more values: explicit(v0, v1, ...).
INITIAL_ARGS = {"explicit": ("*values",), "random_mean": ("target_mean", "half_width")}
INITIAL_KINDS = tuple(INITIAL_ARGS)

TRAJECTORY_FIELDS = ("y_tilde", "x_tilde", "mu")

#: Steps of states a _kernel pass buffers before folding them into its
#: members' mass drift and recorded rows.
DRIFT_STEPS = 64


@dataclass(frozen=True)
class InitialSpec:
    """How the to-be-averaged values come into being; InitialStates refuses explicit ones at once."""

    kind: str
    values: tuple[float, ...] | None = None
    target_mean: float | None = None
    half_width: float | None = None

    def __post_init__(self):
        if self.kind not in INITIAL_KINDS:
            raise ValueError(f"unknown initial kind {self.kind!r}; expected one of {INITIAL_KINDS}")
        if self.kind == "explicit":
            object.__setattr__(self, "values", tuple(InitialStates(self.values).values.tolist()))
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


#: A config's fields but its seed, as a tuple: configs equal in it differ
#: only in seed, compared without building a config.
_all_but_seed = attrgetter(*(f.name for f in fields(SimulationConfig) if f.name != "seed"))


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Every node's raw chain states and ratio at every recorded step.

    Each field is a read-only (steps + 1, n) float array whose row k holds
    the state after step k; row 0 is the initial values. len() is the row
    count of the trajectory table, (steps + 1) * n. Two trajectories are
    equal when all three arrays are. A read-only float64 array, such as
    the rows a recording _kernel pass returns, is held as given; any other
    input is copied once into one.
    """

    y_tilde: np.ndarray
    x_tilde: np.ndarray
    mu: np.ndarray

    def __post_init__(self):
        for name in TRAJECTORY_FIELDS:
            a = getattr(self, name)
            if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and not a.flags.writeable):
                a = np.array(a, dtype=float)
                a.setflags(write=False)
                object.__setattr__(self, name, a)
        shapes = {getattr(self, name).shape for name in TRAJECTORY_FIELDS}
        if len(shapes) != 1 or self.mu.ndim != 2:
            raise ValueError(f"trajectory fields must share a (steps, n) shape, got {sorted(shapes)}")

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
    """Materialize initial values through InitialStates; random_mean recenters
    the sample so the realized average hits the target exactly (to rounding),
    which is what makes convergence-to-target assertions meaningful."""
    if spec.kind == "explicit":
        return InitialStates(spec.values)
    rng = np.random.default_rng(seed)
    vals = rng.uniform(spec.target_mean - spec.half_width, spec.target_mean + spec.half_width, size=n)
    S = InitialStates(vals)
    with np.errstate(over="ignore"):  # a recentered value that overflows is refused by name
        return InitialStates(vals + (spec.target_mean - S.mean()))


def _part(held, key, build, *args):
    """held[key], built from args by build where it is missing."""
    if key not in held:
        held[key] = build(*args)
    return held[key]


def _keys(config: SimulationConfig, held):
    """The keys of config's set-up parts in held, each the inputs its part is
    built from: seed for its stream seeds (taken from held), (topology, n,
    topology seed, 0 for a kind that ignores it), (initial, n, initial seed)
    and, but for baseline, its channel process's fields, the graph's key for
    the graph."""
    topo_seed, channel_seed, initial_seed, _ = _part(held, config.seed, stream_seeds, config.seed)
    graph = (config.topology, config.n, topo_seed if config.topology.kind == "erdos_renyi" else 0)
    keys = [config.seed, graph, (config.initial, config.n, initial_seed)]
    if config.algorithm != "baseline":
        eps = config.epsilon if config.deep_fade else None
        keys.append((config.fading, graph, config.self_weight, channel_seed, eps, config.pair_scales))
    return keys


def prepare(config: SimulationConfig, held=None):
    """The run's set-up, its _kernel member: (digraph, channel process or
    None, InitialStates, noise generator, step budget), each from config.n
    and one seed derivation. Every run, sweep and verify pass sets its
    members up here, so an audit that calls it again rebuilds exactly the
    channel sequence a run saw without replaying the run. held, a dict
    when given, keeps each part built under its _keys key, for every config
    with that key (run_group's); a refused part is not kept, and the noise
    generator, which holds state, is always new."""
    held = {} if held is None else held
    seed, graph, start, *process = _keys(config, held)
    g = _part(held, graph, generate_topology, *graph)
    if config.algorithm in ("tic", "baseline") and not g.strongly_connected:
        raise ValueError(f"{config.algorithm} requires a strongly connected topology")
    channel = _part(held, process[0], ChannelProcess, config.fading, g, *process[0][2:]) if process else None
    S = _part(held, start, make_initial_values, *start)
    return g, channel, S, np.random.default_rng(held[seed][3]), config.max_iters


def _judge(states, first, sums=None, channels=()):
    """Write the ratios of a chunk of steps, states a (3, steps, m, n) array
    of (y_tilde, x_tilde, mu) from step first, and refuse its first fault in
    step, then member, then node order. In a tvc pass the first rows of
    sums hold each step's (m, n) pilot sums, row s the sigma that step s
    divided by (or, for a step that divided by sums known to be usable,
    usable sums), and a step's sums are refused before its state, by
    refuse_pilot_sums, once each of channels (the live members') has
    realized the step's block, so that an overflowing gain is named rather
    than its sum. In a state, ratio names a nonpositive x_tilde (NaN
    included), else a non-finite x_tilde or mu is named here."""
    x, mu = states[1], np.divide(states[0], states[1], out=states[2])
    sound = (x > 0) & (x < np.inf) & np.isfinite(mu)  # mu is not finite where y_tilde is not
    ok = sound.all(axis=(1, 2))
    if sums is not None:
        sums = sums[: len(ok)]
        heard = usable_sums(sums).all(axis=(1, 2))
        ok &= heard
    if ok.all():
        return
    s = int(np.argmin(ok))
    if sums is not None and not heard[s]:
        for channel in channels:
            channel.realization(first + s - 1)
        refuse_pilot_sums(sums[s], f"at step {first + s}")
    ratio(states[:2, s], f" at step {first + s}")
    raise NonFiniteStateError(f"non-finite state at step {first + s}, node {int(np.argmin(sound[s])) % x.shape[-1]}")


def _normal(z, std):
    """Standard normal draws z scaled in place to normal(0.0, std)'s bits,
    0.0 + std * z, whose + 0.0 makes +0.0 of an std * z that underflows."""
    return np.add(np.multiply(z, std, out=z), 0.0, out=z)


def _kernel(algorithm, members, noise_std=0.0, epsilon_B=None, tol=None, window=1, record=False):
    """The one stepping loop, which _drive runs: a pass of members, each
    prepare's (graph, channel, InitialStates, noise generator, step budget)
    or one built alike by hand, stepping together as one (2, m, n) state
    z, y_tilde over x_tilde, from step 0, the initial values. A channel has
    a ChannelProcess's realization(k) and write_epoch(e, out). Each step is
    one product for both chains, z' = G @ (z / sigma) + noise:

    - tic: G is block 0 at every step, and sigma its pilot_sums plus the
      start-up pilot noise, refused by refuse_pilot_sums before any step;
    - tvc: step k reads block k - 1, row (k - 1) mod T of a (T, m, n, n)
      stack of epochs, T = channel.epoch_blocks(n): at an epoch's first
      step each member's channel writes the whole epoch into its slot,
      and one pilot_sums product takes the epoch's noise-free pilot sums,
      (T, m, n). A step's sigma is its row of them plus its pilot noise,
      kept beside the chunk and refused at the fold (below), but for a
      noiseless step in an epoch whose sums are all usable_sums', which
      divides by its row of them as it is. With
      epsilon_B, an (epsilon, B) pair, the pass's EpsilonBAudit, built
      symmetric when every member's channel is a ChannelProcess, judges
      G: each summary's epsilon_B_satisfied, None in any other pass;
    - baseline: G = prop1_weights(graph) and sigma = 1, a digital exchange
      that draws no receiver noise.

    With noise_std > 0 each analog slot draws n values from the member's
    generator, normal(0.0, noise_std)'s bits, in slot order: tic's pilot
    once, then numerator and denominator each step; tvc's pilot, numerator
    and denominator each step. The steps' draws are read in chunks, one call
    per member each: DRIFT_STEPS steps, or fewer to the pass's next step
    budget, so no member draws past its budget, but one that converges or
    faults mid-chunk has drawn to the chunk's end. Sizes are not checked:
    prepare builds graph, channel and start at one n.

    A member stops at its budget or after window steps in a row with its
    ratio spread at or below tol, and then draws nothing more. The states
    go into a chunk of DRIFT_STEPS steps, folded into the mass drift (and
    with record into each member's rows) when full and when a member stops.
    A noiseless step writes into its chunk row, a noisy one copies it in.
    A noiseless tic or baseline pass is at a fixed point once, at a fold,
    every live member's state equals the one before it, compared as
    integers (so -0.0 is not +0.0): it steps no more, and at each step
    that its next check, stop or chunk end falls on, it first writes the
    fixed state into the rows of the steps up to it with one assignment.
    The stop rule is checked only where a member could first stop: a streak
    grows by at most one a step, so after a check whose longest streak is
    s the next is window - s steps on, or at the next budget or fold. A
    check divides the ratios of the steps since the last one and folds
    their spreads into each streak in one call, a step between checks
    computing neither; the stops are those of a check at every step.
    Each fold first divides and judges its chunk, so its first faulty step
    raises at the fold what a check at that step would have raised. A tvc
    step's sigma is judged before its state, which divides by it: a sum at
    SIGMA_MIN or below, then one not finite, by member, then node, once
    each member has realized the step's block, so that an overflowing gain
    (written as inf) is named, not its sum, at the step that reads it and
    never before. Then a broken state: x_tilde not positive, or x_tilde or
    mu not finite. The steps after a faulty one step on broken values to
    the fold, under the caller's np.errstate. A block that raises as its
    epoch is written waits for the steps before it to be judged, so an
    earlier fault still comes first. After the last stop the pass returns
    each member's (summary, rows) in member order, its rows cut to length
    and read-only."""
    if algorithm not in ALGORITHMS:
        raise ValueError(f"unknown algorithm {algorithm!r}; expected one of {ALGORITHMS}")
    graphs, channels, starts, rngs, budgets = zip(*members)
    z = np.array([[s.values for s in starts], [np.ones(s.n) for s in starts]])  # (y_tilde, x_tilde)
    _, m, n = z.shape
    live, results = np.arange(m), [None] * m
    noisy = noise_std > 0.0 and algorithm != "baseline"
    symmetric = all(isinstance(c, ChannelProcess) for c in channels)  # a process's blocks are symmetric
    audit = EpsilonBAudit(*epsilon_B, symmetric) if algorithm == "tvc" and epsilon_B else None

    # each member's rows, grown in place up to its budget; conserved (y, x)
    # sums, their worst deviation so far, and the states not yet folded in
    rows = [[np.empty((min(b + 1, DRIFT_STEPS), n)) for _ in range(3)] for b in budgets] if record else None
    budgets = np.array(budgets)  # int64 or uint64, where b + 1 can wrap: rows size by Python ints
    conserved = z.sum(axis=-1)
    drift, chunk, filled = np.zeros_like(conserved), np.empty((3, DRIFT_STEPS, m, n)), 0
    state_rows = list(chunk[:2].swapaxes(0, 1))  # (2, m, n) views
    streak, next_stop = np.zeros(m, dtype=int), int(budgets.min())
    # the longest streak at the last check, the first step a member could
    # reach window, and the first chunk row whose spread no streak has
    # counted: step 0 starts no streak
    top, next_check, seen = 0, window if tol is not None else None, 1
    slots = 3 if algorithm == "tvc" else 2
    draws, drawn = np.empty((0, slots, m, n)), 0  # the chunk of noise, (steps, slots, m, n)
    sums = None  # a tvc pass's pilot sums, one (m, n) row per chunk row
    # a noiseless tic or baseline step is one map, the same at every step, so
    # a state equal to the one before it is fixed: every later step gives it
    settles, fixed = algorithm != "tvc" and not noisy, False
    if algorithm == "baseline":
        G, sigma = np.array([prop1_weights(g) for g in graphs]), np.ones((m, n))
    elif algorithm == "tic":
        G = np.array([c.realization(0).gains for c in channels])
        sigma = pilot_sums(G)
        if noisy:
            sigma += _normal(np.array([r.standard_normal(n) for r in rngs]), noise_std)
        refuse_pilot_sums(sigma, "at initialization")
    else:
        T = epoch_blocks(n)
        blocks, clean = np.empty((T, m, n, n)), np.empty((T, m, n))
        # a row no step writes holds a usable sum: row 0 of the first chunk is
        # step 0, which divides by none, and a direct step (below) writes none
        sums = np.ones((DRIFT_STEPS, m, n))
        block_rows, clean_rows, sum_rows = list(blocks), list(clean), list(sums)
    k = -1
    while True:
        k += 1
        if fixed:  # each step up to the next check, stop or chunk end gives the fixed state z
            last = min(next_stop, k + DRIFT_STEPS - 1 - filled, next_check or next_stop)  # None: no stop rule
            chunk[:2, filled : filled + last + 1 - k] = z[:, np.newaxis]
            filled, k = filled + last - k, last
        elif k:
            if noisy and drawn == len(draws):
                steps = int(min(DRIFT_STEPS, next_stop - k + 1))
                draws, w, drawn = None, None, 0  # the spent chunk is freed before the next is drawn
                draws = _normal(np.stack([rngs[i].standard_normal((steps, slots, n)) for i in live], 2), noise_std)
            w, drawn = draws[drawn] if noisy else None, drawn + 1  # (slots, m, n), pilot first
            if algorithm == "tvc":
                e, r = divmod(k - 1, T)
                try:
                    if r == 0:
                        for j, i in enumerate(live):
                            channels[i].write_epoch(e, blocks[:, j])
                        clean[...] = pilot_sums(blocks)
                        # a noiseless step divides by its clean row, kept beside the chunk only if it can fault
                        direct = not noisy and usable_sums(clean).all()
                    G = block_rows[r]
                    if audit is not None:
                        audit.add(G)
                except (ValueError, RuntimeError):  # a fault earlier in the chunk comes first
                    _judge(chunk[:, :filled], k - filled, sums, (channels[i] for i in live))
                    raise
                sigma = clean_rows[r] if direct else sum_rows[filled]  # a row of sums is refused at the fold
                if noisy:
                    np.add(clean_rows[r], w[0], out=sigma)
                elif not direct:
                    sigma[...] = clean_rows[r]
            z = ota_step(G, sigma, z, w[-2:] if noisy else None, None if noisy else state_rows[filled])
        if noisy or not k:  # step 0, or a noisy step: its noise adds faster to its own product than to a row
            state_rows[filled][...] = z
        filled += 1
        if k != next_check and k != next_stop and filled < DRIFT_STEPS:
            continue  # no member can stop here
        if tol is not None and k > 0:  # fold the steps since the last check into each streak
            span = np.divide(chunk[0, seen:filled], chunk[1, seen:filled], out=chunk[2, seen:filled])
            ok = span.max(-1) - span.min(-1) <= tol  # (steps, m)
            streak, seen = np.where(ok.all(0), streak + len(ok), ok[::-1].argmin(0)), filled
            top = int(streak.max())
            # a streak grows by at most one a step; members at window stop here
            next_check = k + max(window - top, 1)
        stopping = k == next_stop or top >= window  # some member stops
        if filled == DRIFT_STEPS or stopping:
            _judge(chunk[:, :filled], k + 1 - filled, sums, (channels[i] for i in live))
            deviation = np.abs(chunk[:2, :filled].sum(axis=-1) - conserved[:, np.newaxis]).max(axis=1)
            np.maximum(drift, deviation, out=drift)
            if settles and not fixed and filled > 1:  # compared as integers, so -0.0 is not +0.0
                pair = chunk[:2, filled - 2 : filled].view(np.int64)
                if (pair[:, 0] == pair[:, 1]).all():
                    fixed, z = True, z.copy()  # z is a chunk row: the rows filled from it must not hold it
            for j, i in enumerate(live if record else ()):
                for a, c in zip(rows[i], chunk[:, :filled, j]):
                    if len(a) <= k:  # double, up to the member's budget
                        a.resize((min(2 * len(a), int(budgets[j]) + 1), n), refcheck=False)
                    a[k + 1 - filled : k + 1] = c
            filled = seen = 0
        if not stopping:
            continue
        converged = streak >= window
        stop = converged | (budgets == k)
        verdicts = None if audit is None else np.broadcast_to(audit.verdicts, live.shape)
        mu = z[0] / z[1]  # the ratios of the step they stop at
        for j in np.flatnonzero(stop):
            i, target = live[j], starts[live[j]].mean()
            for a in rows[i] if record else ():  # cut to length, read-only
                a.resize((k + 1, n), refcheck=False)
                a.setflags(write=False)
            results[i] = RunSummary(
                converged=bool(converged[j]), iterations_used=k, target_average=target,
                final_max_error=float(np.max(np.abs(mu[j] - target))), mass_drift_x=float(drift[1, j]) / n,
                mass_drift_y=float(drift[0, j]) / max(1.0, abs(float(conserved[0, j]))),
                epsilon_B_satisfied=None if verdicts is None else bool(verdicts[j]),
            ), tuple(rows[i]) if record else None
        keep = ~stop
        if not keep.any():
            return results
        # every per-member array keeps the columns of the members still stepping
        live, z, streak, budgets = live[keep], z[:, keep], streak[keep], budgets[keep]
        conserved, drift, next_stop = conserved[:, keep], drift[:, keep], int(budgets.min())
        chunk, draws = np.empty((3, DRIFT_STEPS, live.size, n)), draws[:, :, keep]
        state_rows = list(chunk[:2].swapaxes(0, 1))
        if algorithm == "tvc":  # a member's slot and sums move with it
            blocks, clean, sums = blocks[:, keep], clean[:, keep], np.ones((DRIFT_STEPS, live.size, n))
            block_rows, clean_rows, sum_rows = list(blocks), list(clean), list(sums)
        else:
            G, sigma = G[keep], sigma[keep]
        if audit is not None:
            audit.keep(keep)


def run_group(configs, done=None) -> list[RunSummary]:
    """run()'s summary for each config, in order, without the trajectories.
    Consecutive configs that differ only in seed (a sweep value's seeds)
    are the members of one _kernel pass, so a failing config raises what it
    would raise alone, and no later config runs. The summaries are appended
    to done, a list when given, as they are due: after a fault it holds
    those of the configs before the failing one.

    The passes share their members' set-up through prepare's held: a
    later pass takes each stream seed, graph, start and channel process an
    earlier one built under its key, as an algorithm sweep's tvc pass takes
    its tic pass's. A pass takes its members' keys first, lets go of every
    part none of them needs, and only then builds what is missing, so
    between passes one pass's parts at most are held, and none past the
    call: a call reads an edge list once, and the next call reads it again."""
    done = [] if done is None else done
    held = {}
    for _, batch in groupby(configs, key=_all_but_seed):
        batch = list(batch)
        needed = {key for c in batch for key in _keys(c, held)}
        for key in held.keys() - needed:
            del held[key]
        for summary, _ in _seed_group(batch, held=held):
            done.append(summary)
    return done


def _seed_group(configs, record=False, held=None):
    """_drive over configs that differ only in seed, one prepare member
    each, on the parts in held when it is given (prepare's)."""
    cfg = configs[0]
    return _drive(cfg.algorithm, [partial(prepare, c, held) for c in configs], noise_std=cfg.noise_std,
                  epsilon_B=(cfg.epsilon, cfg.B), tol=cfg.tol, window=cfg.tol_window, record=record)


def _drive(algorithm, members, **rule):
    """A _kernel pass run to its end: its results. Each member is a call
    that sets it up afresh, and the rule is _kernel's keywords. A member's
    fault (a ValueError or RuntimeError) replays the members one at a time,
    under the same rule, as the results are read: the fault raised is the
    earliest member's, after the results before it."""
    try:
        started = [setup() for setup in members]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):  # each refused by name
            return _kernel(algorithm, started, **rule)
    except (ValueError, RuntimeError):  # every fault a member names
        if len(members) == 1:
            raise
        return (r for setup in members for r in _drive(algorithm, [setup], **rule))


def run(config: SimulationConfig) -> tuple[Trajectory, RunSummary]:
    """Execute one experiment to convergence or max_iters: a _kernel pass of
    one member that records its trajectory, read-only rows that Trajectory
    holds uncopied. Convergence means the ratio spread stayed at or below
    tol for tol_window consecutive post-update steps. Non-convergence is a
    verdict, not an error; genuinely broken states (non-finite values, lost
    pilot mass, nonpositive denominators) raise instead."""
    (summary, rows), = _seed_group([config], record=True)
    return Trajectory(*rows), summary
