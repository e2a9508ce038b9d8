"""The shared stepping kernel, keyed channel draws, the incremental
windowed-connectivity audit, and the run loop's memory bound."""
import re
import tracemalloc
from bisect import bisect_left
from copy import deepcopy
from dataclasses import replace
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otaconsensus.channel import ChannelProcess, FadingModel, epoch_blocks
from otaconsensus.cli import main, parse_config, write_trajectory_csv
from otaconsensus.protocol import (
    DegenerateStateError,
    InitialStates,
    IsolationError,
    NonFiniteStateError,
    ota_step,
    prop1_weights,
    ratio,
)
from otaconsensus.analysis import build_Hbar, mass_audit, matrix_oracle
from otaconsensus import simulator, topology
from otaconsensus.simulator import (
    ALGORITHMS,
    DRIFT_STEPS,
    InitialSpec,
    RunSummary,
    SimulationConfig,
    _drive,
    _kernel,
    _normal,
    prepare,
    run,
    run_group,
)
from otaconsensus.topology import (
    Digraph,
    EpsilonBAudit,
    TopologySpec,
    check_epsilon_B_connectivity,
    generate_topology,
    is_strongly_connected,
)
from standin import Blocks, base_config, measured_sigma, take


def er(n, seed, p=0.5):
    return generate_topology(TopologySpec(kind="erdos_renyi", p=p), n, seed=seed)


# ---------------------------------------------------------------- kernel


def test_baseline_ignores_receiver_noise():
    # the baseline exchange is digital: receiver noise must not reach it
    quiet = run(base_config(algorithm="baseline", noise_std=0.0))
    noisy = run(base_config(algorithm="baseline", noise_std=1e-3))
    assert noisy[0] == quiet[0]
    assert noisy[1] == quiet[1]
    assert quiet[1].converged


@pytest.mark.parametrize("algorithm", ["tic", "tvc"])
def test_kernel_noise_stream_order(algorithm):
    # tic spends one pilot draw up front, then two slots per step; tvc
    # spends three slots per step, pilot first; the kernel reads them in
    # chunks, and past two chunks each step's draws are still these
    n, std, steps = 6, 1e-3, 2 * DRIFT_STEPS + 5
    proc = ChannelProcess(FadingModel.uniform(0.5, 1.5), er(n, 2), seed=5)
    S = InitialStates(np.arange(n, dtype=float))
    Y, X, _ = take(algorithm, S, steps, channel=proc, noise_std=std, noise_rng=np.random.default_rng(9))
    rng = np.random.default_rng(9)

    def draw():
        return rng.normal(0.0, std, size=n)

    z = np.array([S.values, np.ones(n)])
    if algorithm == "tic":
        gains = proc.realization(0).gains
        sigma = measured_sigma(gains, draw())
    for k in range(1, steps + 1):
        if algorithm == "tvc":
            gains = proc.realization(k - 1).gains
            sigma = measured_sigma(gains, draw())
        y, x = z = ota_step(gains, sigma, z, np.array([draw(), draw()]))  # numerator first
        np.testing.assert_array_equal(Y[k], y)
        np.testing.assert_array_equal(X[k], x)


def test_scaled_standard_normals_are_normals_bits():
    # the kernel draws standard normals and scales them: normal(0.0, s)'s
    # bits, whose 0.0 + s * z is +0.0 where s * z underflows to -0.0
    for s in (5e-324, 1e-310, 1e-6, 1.0, 3.7, 1e300):
        with np.errstate(over="ignore"):
            scaled = _normal(np.random.default_rng(3).standard_normal(100_000), s)
        assert scaled.tobytes() == np.random.default_rng(3).normal(0.0, s, 100_000).tobytes(), s


@pytest.mark.parametrize("algorithm", ["tic", "tvc"])
def test_kernel_noise_keeps_normals_sign_of_zero(algorithm, monkeypatch):
    # at noise_std 5e-324 about a fifth of the draws are zeros, each +0.0
    # from normal(0.0, s): the noise each step adds has normal's bits
    n, std, steps = 6, 5e-324, DRIFT_STEPS + 5
    added = []
    monkeypatch.setattr(simulator, "ota_step", lambda *step: added.append(step[3].copy()) or ota_step(*step))
    proc = ChannelProcess(FadingModel.uniform(0.5, 1.5), er(n, 2), seed=5)
    take(algorithm, InitialStates(np.arange(n, dtype=float)), steps, channel=proc, noise_std=std,
         noise_rng=np.random.default_rng(9))
    rng = np.random.default_rng(9)
    if algorithm == "tic":
        rng.normal(0.0, std, n)  # the start-up pilot
    slots = 3 if algorithm == "tvc" else 2  # a tvc step's pilot first
    assert [a.tobytes() for a in added] == [rng.normal(0.0, std, (slots, 1, n))[-2:].tobytes() for _ in range(steps)]
    assert sum(np.signbit(a[a == 0]).sum() for a in added) == 0 < sum((a == 0).sum() for a in added)


@pytest.mark.parametrize("noise_std", [0.0, 1e-3])
@pytest.mark.parametrize("m", [1, 3])
@pytest.mark.parametrize("n", [2, 10, 65, 200])
@pytest.mark.parametrize("algorithm", ["tic", "tvc"])
def test_a_pass_writes_each_step_as_the_allocating_step_gives_it(algorithm, n, m, noise_std):
    # a pass writes each step into its chunk row through views built with
    # the chunk; each row must be what ota_step's allocating route gives the
    # member stepped alone, by hand. One member stops on the step after a
    # fold (a fold of one row), one mid-chunk, and one runs into a third
    # chunk, so the views are built anew as the members leave. The pass is
    # run as one: _drive would replay a fault one member at a time
    d = DRIFT_STEPS
    budgets = [2 * d] if m == 1 else [d + 1, d + 30, 3 * d]
    procs = [ChannelProcess(FadingModel.half_normal(1.0), er(n, s), seed=s) for s in range(m)]
    starts = [InitialStates(np.random.default_rng(s).uniform(-1.0, 2.0, n)) for s in range(m)]
    members = [(None, procs[s], starts[s], np.random.default_rng(s), budgets[s]) for s in range(m)]
    for s, (summary, (Y, X, MU)) in enumerate(_kernel(algorithm, members, noise_std=noise_std, record=True)):
        rng = np.random.default_rng(s)

        def draw():
            return rng.normal(0.0, noise_std, n) if noise_std else None

        z = np.array([starts[s].values, np.ones(n)])
        if algorithm == "tic":
            gains = procs[s].realization(0).gains
            sigma = measured_sigma(gains, draw())
        assert summary.iterations_used == budgets[s] == len(Y) - 1
        for k in range(1, budgets[s] + 1):
            if algorithm == "tvc":
                gains = procs[s].realization(k - 1).gains
                sigma = measured_sigma(gains, draw())
            z = ota_step(gains, sigma, z, np.array([draw(), draw()]) if noise_std else None)
            assert (Y[k].tobytes(), X[k].tobytes(), MU[k].tobytes()) == (z[0].tobytes(), z[1].tobytes(),
                                                                         (z[0] / z[1]).tobytes()), (s, k)


def settling_members(algorithm, seeds, budgets, n=10):
    """Noiseless members on ER(0.5) graphs, one per seed with its budget,
    each with its (budget + 1, 2, n) states stepped alone, one allocating
    ota_step at a time."""
    members, states = [], []
    for seed, budget in zip(seeds, budgets):
        g, S = er(n, seed), InitialStates(np.random.default_rng(seed).uniform(-1.0, 2.0, n))
        proc = ChannelProcess(FadingModel.half_normal(1.0), g, seed=seed) if algorithm == "tic" else None
        gains = proc.realization(0).gains if proc else prop1_weights(g)
        sigma = measured_sigma(gains) if proc else np.ones(n)
        z = [np.array([S.values, np.ones(n)])]
        for _ in range(budget):
            z.append(ota_step(gains, sigma, z[-1]))
        members.append((g, proc, S, None, budget))
        states.append(np.array(z))
    return members, states


def stepped_alone(states, S, tol=None, window=1):
    """The summary of a member stepped alone through states, a (steps + 1,
    2, n) array, stopped where a check at every step stops it."""
    mu, streak = states[:, 0] / states[:, 1], 0
    for k in range(1, len(states)):
        streak = streak + 1 if tol is not None and np.ptp(mu[k]) <= tol else 0
        if streak >= window:
            break
    target = S.mean()
    drift_y, drift_x = mass_audit((states[: k + 1, 0], states[: k + 1, 1]), S)
    return RunSummary(converged=streak >= window, iterations_used=k, target_average=target,
                      final_max_error=float(np.max(np.abs(mu[k] - target))), mass_drift_y=drift_y,
                      mass_drift_x=drift_x, epsilon_B_satisfied=None)


def fixed_from(states):
    """The first step whose state equals, bitwise, the one before it."""
    same = (states[1:].view(np.int64) == states[:-1].view(np.int64)).all(axis=(1, 2))
    return int(np.argmax(same)) + 1 if same.any() else None


@pytest.mark.parametrize("algorithm", ["tic", "baseline"])
def test_a_noiseless_pass_at_its_fixed_point_steps_no_more(algorithm, monkeypatch):
    # every member lands on a state its step maps to itself, bitwise; from
    # the first fold that sees it the pass calls ota_step no more, yet its
    # rows up to each member's stop, and its summaries, are the steps' own
    members, states = settling_members(algorithm, (0, 2, 3), (1000, 1030, 1200))
    calls = []
    monkeypatch.setattr(simulator, "ota_step", lambda *step: calls.append(1) or ota_step(*step))
    results = _kernel(algorithm, members, record=True)
    fixed = max(fixed_from(z) for z in states)
    assert len(calls) == -(-(fixed + 1) // DRIFT_STEPS) * DRIFT_STEPS - 1 < 300
    for (summary, rows), z, (_, _, S, _, _) in zip(results, states, members):
        assert summary == stepped_alone(z, S)
        assert [a.tobytes() for a in rows] == [z[:, 0].tobytes(), z[:, 1].tobytes(), (z[:, 0] / z[:, 1]).tobytes()]


@pytest.mark.parametrize("window", [2, 10, 63, 64, 65, 129])
@pytest.mark.parametrize("algorithm", ["tic", "baseline"])
def test_a_pass_at_its_fixed_point_stops_where_each_step_would(algorithm, window, monkeypatch):
    # members stop apart: some converge, the others run to their budgets.
    # Once every live member is fixed the pass jumps from check to check,
    # and each stop is the one a check at every step gives. The tic pass
    # jumps only once seed 1 stops, which is not fixed by its budget; in
    # the baseline pass, at windows from 63 on, members converge as it jumps
    seeds, budgets = range(6), (700, 450, 800, 600, 650, 900)
    members, states = settling_members(algorithm, seeds, budgets)
    calls = []
    monkeypatch.setattr(simulator, "ota_step", lambda *step: calls.append(1) or ota_step(*step))
    summaries = [s for s, _ in _kernel(algorithm, members, tol=2e-16, window=window)]
    assert summaries == [stepped_alone(z, S, 2e-16, window) for z, (_, _, S, _, _) in zip(states, members)]
    stops = {(s.iterations_used, s.converged) for s in summaries}
    assert len(stops) >= 4 and any(c for _, c in stops) and not all(c for _, c in stops)
    assert len(calls) < max(s.iterations_used for s in summaries) - DRIFT_STEPS


@pytest.mark.parametrize("algorithm", ["tic", "baseline"])
def test_a_state_that_differs_only_in_the_sign_of_a_zero_is_not_fixed(algorithm, monkeypatch):
    # a start of -0.0 steps to +0.0, which equals it as a float; the fold at
    # step 1, where one member stops, must not take the pair for a fixed
    # point: the other member steps on to the next fold, and every row,
    # -0.0 at step 0 included, is the steps' own
    g = generate_topology(TopologySpec("complete"), 2, seed=0)
    S = InitialStates([-0.0, -0.0])
    proc = ChannelProcess(FadingModel.constant(1.0), g) if algorithm == "tic" else None
    gains = proc.realization(0).gains if proc else prop1_weights(g)
    z = [np.array([S.values, np.ones(2)])]
    for _ in range(3 * DRIFT_STEPS):
        z.append(ota_step(gains, measured_sigma(gains) if proc else np.ones(2), z[-1]))
    assert np.array_equal(z[1], z[0]) and z[1].tobytes() != z[0].tobytes() and fixed_from(np.array(z)) == 2
    calls = []
    monkeypatch.setattr(simulator, "ota_step", lambda *step: calls.append(1) or ota_step(*step))
    results = _kernel(algorithm, [(g, proc, S, None, 1), (g, proc, S, None, 3 * DRIFT_STEPS)], record=True)
    assert len(calls) == 1 + DRIFT_STEPS
    for (summary, rows), budget in zip(results, (1, 3 * DRIFT_STEPS)):
        states = np.array(z[: budget + 1])
        assert summary == stepped_alone(states, S)
        assert [a.tobytes() for a in rows[:2]] == [states[:, 0].tobytes(), states[:, 1].tobytes()]


@pytest.mark.parametrize("algorithm, blocks", [
    ("tic", [("block", 0)]), ("tvc", [("epoch", e) for e in range(3)]),
])
def test_kernel_reads_blocks_by_algorithm(algorithm, blocks, monkeypatch):
    # the process is a plain sequence of blocks; which block a step reads is
    # the kernel's rule: tic realizes block 0 once, tvc reads block k - 1 at
    # step k from the epoch of T blocks it writes at the epoch's first step
    proc = ChannelProcess(FadingModel.half_normal(1.0), er(6, 1), seed=3)
    seen = []
    realization, write_epoch = ChannelProcess.realization, ChannelProcess.write_epoch
    monkeypatch.setattr(ChannelProcess, "realization",
                        lambda self, k: seen.append(("block", k)) or realization(self, k))
    monkeypatch.setattr(ChannelProcess, "write_epoch",
                        lambda self, e, out: seen.append(("epoch", e)) or write_epoch(self, e, out))
    T = epoch_blocks(6)
    _, _, mu = take(algorithm, InitialStates(np.arange(6.0)), 2 * T + 1, channel=proc)
    assert seen == blocks
    if algorithm == "tvc":  # step k is the matrix oracle over blocks 0 .. k - 1
        hbars = [build_Hbar(proc.realization(k).gains) for k in range(2 * T + 1)]
        _, _, expected = matrix_oracle(hbars, InitialStates(np.arange(6.0)), 2 * T + 1)
        np.testing.assert_allclose(mu, expected, rtol=0, atol=1e-12)


def test_kernel_writes_a_process_block_in_place_beside_any_channel(monkeypatch):
    # every tvc member writes an epoch of T blocks into its slot at the
    # epoch's first step, whatever its channel: the ChannelProcess member
    # never realizes a block, though the other member's channel is a
    # stand-in; the pass steps each member as it steps alone
    n = 50
    proc = ChannelProcess(FadingModel.half_normal(1.0), er(n, 1), seed=3)
    other = ChannelProcess(FadingModel.half_normal(1.0), er(n, 2), seed=4)
    held = Blocks(lambda k: other.realization(k).gains)
    calls = []

    def spy(cls, name):  # record (channel, method, block or epoch index) per call
        method = getattr(cls, name)
        monkeypatch.setattr(cls, name, lambda self, i, *out: calls.append((self, name, i)) or method(self, i, *out))

    spy(ChannelProcess, "realization")
    spy(ChannelProcess, "write_epoch")
    spy(Blocks, "write_epoch")
    members = [lambda: (None, proc, InitialStates(np.arange(float(n))), None, 20),
               lambda: (None, held, InitialStates(np.ones(n) - np.arange(float(n))), None, 30)]
    together = [rows for _, rows in _drive("tvc", members, record=True)]
    T = epoch_blocks(n)
    assert [c[1:] for c in calls if c[0] is proc] == [("write_epoch", e) for e in range(-(-20 // T))]
    assert [c[1:] for c in calls if c[0] is held] == [("write_epoch", e) for e in range(-(-30 // T))]
    for setup, rows in zip(members, together):
        (_, alone), = _drive("tvc", [setup], record=True)
        assert all(np.array_equal(a, b) for a, b in zip(rows, alone))


@pytest.mark.parametrize("algorithm", ["tic", "tvc"])
@pytest.mark.parametrize("n", [10, 50, 70])  # T = 64, 3 and 1
def test_a_stand_in_steps_as_the_process_it_wraps(algorithm, n):
    # the kernel has one channel contract: a stand-in over a process's
    # blocks steps bitwise as the process itself, receiver noise and all
    proc = ChannelProcess(FadingModel.half_normal(1.0), er(n, 5), seed=6)
    S = InitialStates(np.linspace(-1.0, 2.0, n))
    own, stood_in = (take(algorithm, S, 130, channel=c, noise_std=1e-3, noise_rng=np.random.default_rng(7))
                     for c in (proc, Blocks(lambda k: proc.realization(k).gains)))
    assert all(np.array_equal(a, b) for a, b in zip(own, stood_in))


@pytest.mark.parametrize("algorithm", ["tic", "tvc"])
def test_kernel_prefix_is_stable(algorithm):
    # a long pass's first rows are bitwise a short pass: the verify suite
    # checks the oracle on the prefix of its mass-conservation pass
    proc = ChannelProcess(FadingModel.half_normal(1.0), er(8, 3), seed=4)
    S = InitialStates(np.linspace(-1.0, 2.0, 8))
    long = take(algorithm, S, 1000, channel=proc)
    short = take(algorithm, S, 100, channel=proc)
    for a, b in zip(long, short):
        assert np.array_equal(a[:101], b)


@pytest.mark.parametrize("algorithm, what", [
    ("tic", "the channel"), ("tvc", "the channel at step 1"), ("baseline", "the graph"),
])
def test_kernel_rejects_size_mismatch(algorithm, what):
    # prepare builds every part of a member at one n, so the kernel checks
    # no sizes; a member built by hand whose start does not match what it
    # steps still fails in numpy, at set-up or at step 1, before any row
    g = er(3, 0, p=1.0)
    proc = ChannelProcess(FadingModel.constant(1.0), g)
    for n in (1, 2, 4, 65):
        for channel in (proc, Blocks(lambda k: proc.realization(k).gains)):
            try:
                take(algorithm, InitialStates(np.arange(1.0, n + 1)), 1, g=g, channel=channel)
            except ValueError:
                continue
            pytest.fail(f"{what} is 3-node, yet {n} initial values stepped over a {type(channel).__name__}")


def test_kernel_names_an_unknown_algorithm():
    _, channel, S, *_ = prepare(base_config(algorithm="tvc"))
    with pytest.raises(ValueError, match="unknown algorithm 'TVC'"):
        take("TVC", S, 1, channel=channel)


def test_kernel_isolation_names_node_and_step(tmp_path):
    # node 2 has no links and no self term: its first pilot sees nothing
    edges = tmp_path / "g.edges"
    edges.write_text("0 1\n")
    cfg = base_config(
        n=3,
        topology=TopologySpec(kind="edge_list", path=str(edges)),
        algorithm="tvc",
        self_weight=0.0,
        initial=InitialSpec.explicit([1.0, 2.0, 3.0]),
    )
    with pytest.raises(IsolationError, match=r"node 2 is isolated at step 1"):
        run(cfg)


@pytest.mark.parametrize("algorithm", ["tic", "tvc"])
def test_kernel_refuses_a_non_finite_state(algorithm):
    # node 0 hears node 1's 1e10 through a 1e300 gain: its first state is inf
    block = np.array([[1.0, 1e300], [1.0, 1.0]])
    with pytest.raises(NonFiniteStateError, match=r"^non-finite state at step 1, node 0$"):
        take(algorithm, InitialStates([1.0, 1e10]), 1, channel=Blocks(lambda k: block))


def judged_each_step(cfg, channel=None):
    """run(cfg)'s fault, (type, message), with each state judged at its own
    step as measured_sigma, ota_step and ratio are called one step at a
    time; None if max_iters steps run clean (tol is never met). A channel,
    when given, stands in for prepare's."""
    _, built, S, rng, _ = prepare(cfg)
    channel = built if channel is None else channel

    def draw():
        return rng.normal(0.0, cfg.noise_std, size=cfg.n) if cfg.noise_std else None

    z = np.array([S.values, np.ones(cfg.n)])
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            if cfg.algorithm == "tic":
                gains = channel.realization(0).gains
                sigma = measured_sigma(gains, draw(), "at initialization")
            for k in range(1, cfg.max_iters + 1):
                if cfg.algorithm == "tvc":
                    gains = channel.realization(k - 1).gains  # names an overflowing gain
                    sigma = measured_sigma(gains, draw(), f"at step {k}")
                noise = None if cfg.noise_std == 0 else np.array([draw(), draw()])
                z = ota_step(gains, sigma, z, noise)
                mu = ratio(z, f" at step {k}")
                finite = np.isfinite(z[1]) & np.isfinite(mu)
                if not finite.all():
                    raise NonFiniteStateError(f"non-finite state at step {k}, node {int(np.argmin(finite))}")
    except (ValueError, RuntimeError) as fault:
        return type(fault), str(fault)
    return None


# starts whose sum is finite but whose mixing can overflow a node's state
HUGE_STARTS = dict(n=5, topology=TopologySpec("ring"), algorithm="tvc", fading=FadingModel.uniform(0.1, 2.0),
                   initial=InitialSpec.explicit([0.9e308, -1.7e308, 0.9e308, -0.05e308, 0.0]), self_weight=0.05)


@pytest.mark.parametrize("overrides, error, fault", [
    # receiver noise drives an x_tilde negative, within the first chunk or
    # later; its last digits depend on how the BLAS kernel rounds
    (dict(algorithm="tic", seed=14), DegenerateStateError,
     r"node 2 has nonpositive denominator state x_tilde=-0\.\d+ at step 168"),
    (dict(algorithm="tvc", seed=9), DegenerateStateError,
     r"node 1 has nonpositive denominator state x_tilde=-0\.\d+ at step 71"),
    (dict(algorithm="tvc", seed=39), DegenerateStateError,
     r"node 2 has nonpositive denominator state x_tilde=-0\.\d+ at step 27"),
    (dict(HUGE_STARTS, seed=421, noise_std=0.0), NonFiniteStateError, "non-finite state at step 5, node 0"),
    # the state overflows at step 3; block 9, read at step 10, overflows too
    (dict(HUGE_STARTS, seed=1290, noise_std=0.0, pair_scales=(((3, 4), 9.5e307),)), NonFiniteStateError,
     "non-finite state at step 3, node 0"),
], ids=["tic-noise-late", "tvc-noise-second-chunk", "tvc-noise", "huge-starts", "huge-starts-before-gain"])
def test_a_fold_names_the_state_fault_each_step_would(overrides, error, fault):
    # states are judged once per chunk, yet the fault raised is the first
    # one a judge at every step finds: its step, node and class, and its
    # message to the last digit
    cfg = base_config(**{"n": 4, "topology": TopologySpec("complete"), "noise_std": 0.3, "tol": 1e-300,
                         "max_iters": 200, **overrides})
    expected = judged_each_step(cfg)
    assert expected is not None and expected[0] is error and re.fullmatch(fault, expected[1])
    with pytest.raises(error) as exc:
        run(cfg)
    assert str(exc.value) == expected[1]


def faulting_blocks(late, n=65, broken=True, hot=4, at=8):
    """A Blocks channel of an n-node tvc pass, T = 1 so that each step
    writes the block it reads: self-only blocks, where with broken block
    hot, read at step hot + 1, takes a 1e308 gain from node 1 to node 0,
    whose state overflows, and block at, read at step at + 1, faults as
    late names: a pilot sum of 0 at node 2 ("isolated") or a gain that
    overflows ("overflow"). An isolating block at hot takes the gain too."""
    assert epoch_blocks(n) == 1
    ring = generate_topology(TopologySpec("ring"), n, 0)
    overflowing = ChannelProcess(FadingModel.constant(2.0), ring, pair_scales=(((0, 1), 1e308),))
    cut = ring.adj.astype(float)
    cut[2] = 0.0

    def gains(k):
        if k == at and late == "overflow":
            return overflowing.realization(k).gains
        g = cut.copy() if k == at and late == "isolated" else np.eye(n)
        if broken and k == hot:
            g[0, 1] = 1e308
        return g

    return Blocks(gains)


@pytest.mark.parametrize("late, error, message", [
    ("isolated", IsolationError, "node 2 is isolated at step 9: pilot sum 0.0 <= 1e-12"),
    ("overflow", ValueError, "gain of pair (0,1) in block 8 is inf: fading times pair_scales overflows"),
])
def test_a_broken_state_outranks_a_later_fault_in_its_chunk(late, error, message):
    # the state breaks at step 5 and a block faults at step 9, both within
    # the first chunk: the state is judged before the later fault is raised
    S = InitialStates(10.0 + np.arange(65.0))
    with pytest.raises(error) as exc:
        take("tvc", S, 20, channel=faulting_blocks(late, broken=False))
    assert str(exc.value) == message
    with pytest.raises(NonFiniteStateError, match=r"^non-finite state at step 5, node 0$"):
        take("tvc", S, 20, channel=faulting_blocks(late))


SPREAD_65 = InitialStates(10.0 + np.arange(65.0))


@pytest.mark.parametrize("hot, at, message", [
    (4, 8, "non-finite state at step 5, node 0"),
    (8, 4, "node 2 is isolated at step 5: pilot sum 0.0 <= 1e-12"),
    # block 4 isolates node 2 and overflows node 0's state: a state that
    # divides by a refused sum is not judged before it
    (4, 4, "node 2 is isolated at step 5: pilot sum 0.0 <= 1e-12"),
], ids=["state-first", "pilot-first", "same-step"])
def test_a_pilot_fault_and_a_state_fault_in_one_chunk_raise_in_step_order(hot, at, message):
    # the pilot sums are refused at the fold, beside the states: the first
    # faulty step raises, and within a step its pilot before its state
    cfg = base_config(n=65, algorithm="tvc", initial=InitialSpec.explicit(SPREAD_65.values), max_iters=20)
    expected = judged_each_step(cfg, faulting_blocks("isolated", hot=hot, at=at))
    assert expected[1] == message
    with pytest.raises(expected[0]) as exc:
        take("tvc", SPREAD_65, 20, channel=faulting_blocks("isolated", hot=hot, at=at))
    assert str(exc.value) == message


def test_a_block_that_raises_as_its_epoch_is_written_waits_for_an_earlier_pilot_fault():
    # block 4 isolates node 2 at step 5; the stand-in raises block 8's
    # overflowing gain as it writes the epoch of step 9, after the sums of
    # steps 5 to 8 went into the chunk unrefused
    isolated, overflow = faulting_blocks("isolated", broken=False, at=4), faulting_blocks("overflow", broken=False)
    channel = Blocks(lambda k: (isolated if k < 8 else overflow).gains(k))
    cfg = base_config(n=65, algorithm="tvc", initial=InitialSpec.explicit(SPREAD_65.values), max_iters=20)
    message = "node 2 is isolated at step 5: pilot sum 0.0 <= 1e-12"
    assert judged_each_step(cfg, channel) == (IsolationError, message)
    with pytest.raises(IsolationError) as exc:
        take("tvc", SPREAD_65, 20, channel=channel)
    assert str(exc.value) == message


@pytest.mark.parametrize("noise_std", [0.0, 1e-6])
def test_a_gain_that_overflows_mid_epoch_is_named_not_its_pilot_sum(noise_std):
    # n = 50 draws epochs of 3 blocks; pair (0,2)'s gain overflows in block
    # 22, row 1 of the epoch written at step 22 and read at step 23. The
    # epoch's sums hold its inf from the write on, and the fold refuses
    # them only after each member has realized block 22, which names it
    cfg = base_config(n=50, algorithm="tvc", pair_scales=(((0, 2), 1e308),), noise_std=noise_std,
                      tol=1e-300, max_iters=100)
    assert epoch_blocks(50) == 3 and 22 % 3 == 1
    message = "gain of pair (0,2) in block 22 is inf: fading times pair_scales overflows"
    assert judged_each_step(cfg) == (ValueError, message)
    with pytest.raises(ValueError) as exc:
        run(cfg)
    assert str(exc.value) == message


@pytest.mark.parametrize("seed, step", [(0, 75), (4, 96)])
def test_pilot_noise_that_isolates_a_node_mid_chunk_is_named_at_its_step(seed, step):
    # without self terms, faint gains and pilot noise drive a receiver's sum
    # negative in the middle of the second chunk; the state that divides by
    # it breaks at the same step, yet the isolation is what each step names
    cfg = base_config(n=4, topology=TopologySpec("complete"), algorithm="tvc", self_weight=0.0,
                      fading=FadingModel.half_normal(3e-3), noise_std=1e-3, seed=seed, tol=1e-300, max_iters=200)
    expected = judged_each_step(cfg)
    assert expected[0] is IsolationError and f" is isolated at step {step}: " in expected[1]
    assert step // DRIFT_STEPS == 1 and step % DRIFT_STEPS > 1
    with pytest.raises(IsolationError) as exc:
        run(cfg)
    assert str(exc.value) == expected[1]


def test_a_member_that_converged_mid_chunk_keeps_its_summary_when_another_faults():
    # one member converges at step 2, whose fold judges both members' steps;
    # the other breaks at step 5 and isolates a node at step 9 of the same
    # chunk. The pass raises the broken state; read through _drive, the
    # converged member's summary is its solo run's
    n, S = 65, InitialStates(10.0 + np.arange(65.0))
    mixed = np.ones((n, n))  # every ratio is the mean after one step
    members = [lambda: (None, Blocks(lambda k: mixed), S, None, 20),
               lambda: (None, faulting_blocks("isolated"), S, None, 20)]
    rule = dict(tol=1e-9, window=2)
    (alone, _), = _drive("tvc", members[:1], **rule)
    assert alone.converged and alone.iterations_used == 2
    with pytest.raises(NonFiniteStateError, match=r"^non-finite state at step 5, node 0$"):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            _kernel("tvc", [setup() for setup in members], **rule)
    done = []
    with pytest.raises(NonFiniteStateError, match=r"^non-finite state at step 5, node 0$"):
        done.extend(summary for summary, _ in _drive("tvc", members, **rule))
    assert done == [alone]


def test_unrecorded_pass_memory_does_not_grow_with_its_budget():
    # a pass without record keeps no rows: its peak is the same at 10x the steps
    ring = generate_topology(TopologySpec("ring"), 50, 0)
    peaks = []
    for steps in (200, 2000):
        proc, S = ChannelProcess(FadingModel.half_normal(1.0), ring, seed=1), InitialStates(np.arange(50.0))
        tracemalloc.start()
        try:
            (summary, rows), = _drive("tvc", [lambda: (None, proc, S, None, steps)])
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert summary.iterations_used == steps and rows is None
    assert peaks[1] < peaks[0] + 4096


@pytest.mark.parametrize("n, m, steps", [(10, 4, 1500), (60, 4, 1500), (100, 2, 300)])
def test_noisy_tvc_pass_memory_is_the_arrays_it_holds(n, m, steps):
    # at its peak a noisy tvc pass holds its chunk of (y_tilde, x_tilde, mu)
    # and its pilot sums for DRIFT_STEPS steps; one chunk of noise, twice
    # while np.stack builds it from the members' draws; and its (T, m, n, n)
    # epoch stack with the epoch's sums, twice, as each member's channel
    # keeps at most T n^2 values of the epoch it drew last. The members are
    # set up before tracing, and a warm pass runs first
    T, d = epoch_blocks(n), DRIFT_STEPS
    chunk, sums, noise, epoch = 8 * 3 * d * m * n, 8 * d * m * n, 8 * d * 3 * m * n, 8 * T * m * n * (n + 1)
    bound = chunk + sums + 2 * noise + 2 * epoch

    def members():
        built = [prepare(base_config(n=n, algorithm="tvc", noise_std=1e-6, seed=s, max_iters=steps)) for s in range(m)]
        return [lambda member=member: member for member in built]

    _drive("tvc", members(), noise_std=1e-6)
    built = members()
    tracemalloc.start()
    try:
        results = _drive("tvc", built, noise_std=1e-6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [summary.iterations_used for summary, _ in results] == [steps] * m
    assert peak < bound


def test_run_memory_is_bounded_without_channel_history():
    # noise keeps the spread above tol, so the run uses its whole budget;
    # keeping every realization would cost max_iters * n^2 doubles
    n, steps = 60, 1500
    cfg = base_config(n=n, algorithm="tvc", noise_std=1e-6, max_iters=steps)
    tracemalloc.start()
    try:
        _, summary = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not summary.converged and summary.iterations_used == steps
    assert peak < steps * n * n * 8


def test_n200_trajectory_memory_is_bounded(tmp_path):
    # the stored trajectory is three (steps + 1, n) float arrays; run() may
    # use a small multiple of that plus O(n^2) channel state, and the CSV
    # writer, which holds a block of about cli.CHUNK_VALUES reals at a time
    # (six steps at n = 200), a fraction of it
    n, steps = 200, 300
    stored = 3 * 8 * (steps + 1) * n
    cfg = base_config(n=n, topology=TopologySpec(kind="ring"), max_iters=steps, tol=1e-300)
    tracemalloc.start()
    try:
        trajectory, summary = run(cfg)
        run_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        held = tracemalloc.get_traced_memory()[0]
        write_trajectory_csv(tmp_path / "trajectory.csv", trajectory)
        write_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert summary.iterations_used == steps and len(trajectory) == (steps + 1) * n
    assert run_peak < 3 * stored + 4 * n * n * 8
    assert write_peak < stored / 4


def test_run_holds_one_copy_of_its_trajectory():
    # the driver writes each step's rows into arrays that grow in place, and
    # run() hands those arrays to Trajectory without another copy; a short
    # run with a huge budget shows a recorder that preallocates max_iters rows
    n, steps = 200, 2000
    stored = 3 * 8 * (steps + 1) * n
    cfg = base_config(n=n, topology=TopologySpec(kind="ring"), max_iters=steps, tol=1e-300)
    tic10 = Path(__file__).resolve().parents[1] / "configs" / "tic10.cfg"
    short = parse_config(str(tic10), ["max_iters=10000000"])
    tracemalloc.start()
    try:
        trajectory, summary = run(cfg)
        peak = tracemalloc.get_traced_memory()[1]
        held = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        _, short_summary = run(short)
        short_peak = tracemalloc.get_traced_memory()[1] - held
    finally:
        tracemalloc.stop()
    assert summary.iterations_used == steps and len(trajectory) == (steps + 1) * n
    assert peak < 1.3 * stored
    assert short_summary.converged and short_summary.iterations_used == 46
    assert short_peak < 2**20


# ---------------------------------------------------------------- seed groups


def serial_summary(cfg):
    """run()'s summary the way it was computed one run at a time: the rows
    of a one-member pass without stop rule, cut at the first stop, then
    mass_audit over the whole trajectory and, for tvc, the sequence audit
    over the blocks it read. A pass that faults at step f is cut to its
    last clean budget f - 1, found by bisection as a shorter pass's rows
    are a longer one's prefix, and its fault is raised unless the stop
    comes first."""
    g, channel, S, rng, _ = prepare(cfg)

    def walk(steps):
        try:
            return take(cfg.algorithm, S, steps, g, channel, cfg.noise_std, deepcopy(rng))
        except (ValueError, RuntimeError) as fault:
            return fault

    rows, fault = walk(cfg.max_iters), None
    if isinstance(rows, Exception):
        fault = rows
        first = bisect_left(range(cfg.max_iters), True, key=lambda steps: isinstance(walk(steps), Exception))
        if first == 0:
            raise fault
        rows = walk(first - 1)
    streak = 0
    for k, mu in enumerate(rows[2]):
        if k > 0:
            streak = streak + 1 if np.ptp(mu) <= cfg.tol else 0
        if streak >= cfg.tol_window:
            break
    else:
        if fault is not None:
            raise fault
    Y, X, MU = (a[:k + 1] for a in rows)
    target = S.mean()
    return RunSummary(
        converged=streak >= cfg.tol_window,
        iterations_used=k,
        target_average=target,
        final_max_error=float(np.max(np.abs(MU[-1] - target))),
        mass_drift_y=mass_audit((Y, X), S)[0],
        mass_drift_x=mass_audit((Y, X), S)[1],
        epsilon_B_satisfied=check_epsilon_B_connectivity(
            [channel.realization(j).gains for j in range(k)], cfg.epsilon, cfg.B) if cfg.algorithm == "tvc" else None,
    )


def outcome(calls):
    """The summaries of calls made in order, or the error of the first that raises."""
    summaries = []
    for call in calls:
        try:
            summaries.append(call())
        except Exception as exc:
            return type(exc), str(exc)
    return summaries


@st.composite
def seed_groups(draw, mixed=False):
    """Configs that differ only in seed; mixed, each seed's config also takes
    one of two tol values, so consecutive runs of equal tol interleave."""
    algorithm = draw(st.sampled_from(ALGORITHMS))
    kind = draw(st.sampled_from(["ring", "complete", "erdos_renyi"]))
    base = SimulationConfig(
        n=draw(st.integers(2, 12)),
        topology=TopologySpec(kind, p=0.5 if kind == "erdos_renyi" else None),
        algorithm=algorithm,
        # 4e307 gains overflow a pilot sum or a draw at seed-dependent steps
        fading=draw(st.sampled_from([
            FadingModel.constant(0.8), FadingModel.half_normal(1.0), FadingModel.uniform(0.1, 2.0),
            FadingModel.half_normal(4e307),
        ])),
        initial=InitialSpec.random_mean(1.0, 1.0),
        seed=0,
        self_weight=draw(st.sampled_from([0.0, 0.3, 1.0])),
        noise_std=draw(st.sampled_from([0.0, 1e-6])),
        epsilon=draw(st.sampled_from([1e-3, 0.4])),
        B=draw(st.integers(1, 3)),
        deep_fade=algorithm == "tvc" and draw(st.booleans()),
        max_iters=draw(st.integers(1, 60)),
        tol=draw(st.sampled_from([1e-1, 1e-3, 1e-9])),
        tol_window=draw(st.one_of(st.integers(1, 4), st.integers(61, 130))),  # or longer than any budget
    )
    seeds = draw(st.lists(st.integers(0, 10_000), min_size=2, max_size=5))
    tols = (base.tol, draw(st.sampled_from([1e-2, 1e-6]))) if mixed else (base.tol,)
    return [replace(base, seed=s, tol=draw(st.sampled_from(tols))) for s in seeds]


@given(group=seed_groups())
@settings(max_examples=40, deadline=None)
def test_seed_group_equals_runs_one_by_one(group):
    # members stop, converge or fault at different steps; each summary, or
    # the earliest member's fault, is what running them one by one gives
    expected = outcome([lambda c=c: serial_summary(c) for c in group])
    assert outcome([lambda c=c: run(c)[1] for c in group]) == expected
    assert outcome([lambda: run_group(group)]) == (expected if isinstance(expected, tuple) else [expected])


@pytest.mark.parametrize("pair_scales, seeds, stops", [
    ((), (0, 6, 9, 2), [138, 129, 150, 141]),
    ((((0, 1), 9.02e307),), (4, 8, 7), [150, 150]),
], ids=["converging", "faulting"])
def test_seed_group_across_drift_chunks(pair_scales, seeds, stops):
    # runs longer than two chunks of DRIFT_STEPS whose members stop mid-chunk:
    # three converge, one reaches max_iters, and with one link's gain scaled
    # to the edge of overflow seed 7 faults at step 69 (block 68 overflows)
    group = [base_config(n=12, topology=TopologySpec(kind="ring"), algorithm="tvc",
                         fading=FadingModel.uniform(0.1, 2.0), noise_std=1e-8, tol=1e-6, tol_window=3,
                         max_iters=150, seed=s, pair_scales=pair_scales) for s in seeds]
    expected = outcome([lambda c=c: serial_summary(c) for c in group])
    done = []
    assert outcome([lambda: run_group(group, done)]) == (expected if isinstance(expected, tuple) else [expected])
    assert done == [serial_summary(c) for c in group[:len(done)]]
    assert [s.iterations_used for s in done] == stops and min(stops) >= 2 * DRIFT_STEPS
    assert all(s.mass_drift_y > 0 and s.mass_drift_x > 0 for s in done)
    if pair_scales:
        assert expected[1].startswith("gain of pair (0,1) in block 68 is inf")


@pytest.mark.parametrize("window", [1, 10, 63, 64, 65, 129])
def test_streaks_folded_over_spans_stop_where_each_step_would(window):
    # noisy tvc members whose spread crosses tol again and again near the
    # noise floor, so streaks break and restart inside a span and run over
    # one or more chunk folds; the member that would stop last has its
    # budget at the step another first converges. Each stop and verdict is
    # the step-by-step reference's
    base = base_config(n=12, topology=TopologySpec(kind="ring"), algorithm="tvc",
                       fading=FadingModel.uniform(0.1, 2.0), noise_std=1e-6, tol=1e-5, tol_window=window,
                       max_iters=400)
    alone = [serial_summary(replace(base, seed=s)) for s in range(4)]
    first = min(s.iterations_used for s in alone)
    last = max(range(4), key=lambda s: alone[s].iterations_used)
    configs = [replace(base, seed=s, max_iters=first if s == last else base.max_iters) for s in range(4)]

    together = _drive("tvc", [partial(prepare, c) for c in configs], noise_std=base.noise_std,
                      epsilon_B=(base.epsilon, base.B), tol=base.tol, window=window)
    summaries = [summary for summary, _ in together]
    assert summaries == [serial_summary(c) for c in configs]
    stops = [(s.iterations_used, s.converged) for s in summaries]
    assert stops[last] == (first, False) and (first, True) in stops and len(set(stops)) >= 3
    assert first > window


@pytest.mark.parametrize("window", [1, 2, 64, 65, 100])
def test_a_start_in_agreement_counts_no_streak_at_step_zero(window):
    # equal starts keep every ratio exactly 1 from step 0 on, but a streak
    # counts post-update steps only: the run converges at step window
    cfg = base_config(initial=InitialSpec.explicit([2.0] * 10), tol=1e-300, tol_window=window, max_iters=300)
    _, summary = run(cfg)
    assert (summary.iterations_used, summary.converged) == (window, True)
    assert summary == serial_summary(cfg)


def test_seed_group_draws_one_block_per_member_step(monkeypatch):
    # a member that has stopped draws no further epoch of channel blocks,
    # and a stepping member realizes no block one at a time
    group = [base_config(n=60, algorithm="tvc", seed=s, tol=1e-9, tol_window=2, max_iters=200)
             for s in range(4)]
    calls = []
    write_epoch = ChannelProcess.write_epoch
    monkeypatch.setattr(ChannelProcess, "write_epoch",
                        lambda self, e, out: calls.append(e) or write_epoch(self, e, out))
    monkeypatch.setattr(ChannelProcess, "realization", None)
    summaries = run_group(group)
    T = epoch_blocks(60)
    assert len({-(-s.iterations_used // T) for s in summaries}) > 1
    assert len(calls) == sum(-(-s.iterations_used // T) for s in summaries)


def test_overflow_past_the_budget_does_not_fault_the_run():
    # block 42 of seed 6 overflows, in the epoch of blocks 0 .. T - 1 that
    # a 42-step run writes: the run is clean; a run that reads it faults
    # at step 43, with the blocks before it stepped as before
    cfg = base_config(n=12, topology=TopologySpec(kind="ring"), algorithm="tvc", fading=FadingModel.uniform(0.1, 2.0),
                      tol=1e-300, max_iters=42, seed=6, pair_scales=(((0, 1), 9.02e307),))
    assert 42 < epoch_blocks(12)
    trajectory, summary = run(cfg)
    assert summary.iterations_used == 42 and np.isfinite(trajectory.mu).all()
    with pytest.raises(ValueError, match=r"^gain of pair \(0,1\) in block 42 is inf: fading times pair_scales "
                                         r"overflows$"):
        run(replace(cfg, max_iters=43))
    _, channel, S, *_ = prepare(cfg)
    assert np.array_equal(take("tvc", S, 42, channel=channel)[2], trajectory.mu)
    with pytest.raises(ValueError, match="in block 42 is inf"):
        take("tvc", S, 43, channel=channel)


@pytest.mark.parametrize("algorithm", ["tic", "tvc"])
def test_noisy_members_stopping_apart_step_as_alone(algorithm):
    # each member's noise is read in chunks that end at the pass's
    # next budget; members whose budgets and convergence differ still draw,
    # and step, bitwise as they do alone
    def member(seed, budget):
        proc = ChannelProcess(FadingModel.half_normal(1.0), er(8, seed), seed=seed)
        start = InitialStates(np.linspace(0.0, 1.0 + seed, 8))
        return lambda: (None, proc, start, np.random.default_rng(seed), budget)

    members = [member(seed, budget) for seed, budget in ((1, 150), (2, 40), (3, 64), (4, 200), (5, 3))]
    rule = dict(noise_std=1e-9, tol=1e-6, window=3, record=True)
    together = _drive(algorithm, members, **rule)
    stops = set()
    for setup, (summary, rows) in zip(members, together):
        (alone_summary, alone), = _drive(algorithm, [setup], **rule)
        assert summary == alone_summary and all(np.array_equal(a, b) for a, b in zip(rows, alone))
        stops.add((summary.iterations_used, summary.converged))
    assert len(stops) == len(members) and any(converged for _, converged in stops)


@pytest.mark.parametrize("algorithm", ["tic", "tvc"])
def test_seed_group_whose_members_all_fault_raises_the_first(algorithm):
    # every member's first block overflows; the group ends without a step
    group = [base_config(algorithm=algorithm, topology=TopologySpec("complete"), seed=s, noise_std=1e-6,
                         fading=FadingModel.constant(1e300), pair_scales=(((0, 1), 1e10),))
             for s in (5, 6, 7)]
    with pytest.raises(ValueError, match="in block 0 is inf") as alone:
        run(group[0])
    with pytest.raises(ValueError) as together:
        run_group(group)
    assert str(together.value) == str(alone.value)


@given(configs=seed_groups(mixed=True))
@settings(max_examples=30, deadline=None)
def test_run_group_takes_any_list(configs):
    # run_group cuts the list into batches of seed-only differences itself;
    # each summary, or the earliest config's fault, is run()'s
    expected = outcome([lambda c=c: run(c)[1] for c in configs])
    assert outcome([lambda: run_group(configs)]) == (expected if isinstance(expected, tuple) else [expected])
    assert run_group([]) == []


def test_run_group_keys_its_passes_without_building_a_config(monkeypatch):
    # a sweep over two noise levels with three seeds each is two passes of
    # three members, keyed on every field but seed without constructing a
    # SimulationConfig; each summary is run()'s
    configs = [base_config(algorithm="tvc", noise_std=v, seed=s, max_iters=60) for v in (0.0, 1e-6) for s in (3, 1, 3)]
    alone = [run(c)[1] for c in configs]
    built, passes = [], []
    post_init, seed_group = SimulationConfig.__post_init__, simulator._seed_group
    monkeypatch.setattr(SimulationConfig, "__post_init__", lambda self: built.append(self) or post_init(self))
    monkeypatch.setattr(simulator, "_seed_group",
                        lambda batch, **kw: passes.append(len(batch)) or seed_group(batch, **kw))
    assert run_group(configs) == alone
    assert built == [] and passes == [3, 3]


@given(data=st.data())
@settings(max_examples=25, deadline=None)
def test_run_group_across_passes_equals_runs_one_by_one(data, tmp_path_factory):
    # passes that alternate algorithm, topology kind and n, with repeated
    # seeds: a graph run_group builds once is shared within a pass and
    # carried to the next pass on the same topology and n. A drawn edge
    # list may leave the graph disconnected or a node without links, and
    # names nodes of the larger n only, so tic and baseline refuse it,
    # tvc may isolate a node and the smaller n cannot read it. Each
    # summary, or the earliest config's fault, is run()'s
    n = data.draw(st.integers(3, 8))
    path = tmp_path_factory.mktemp("passes") / "drawn.edges"
    pairs = [(i, j) for i in range(n + 1) for j in range(i + 1, n + 1)]
    path.write_text("".join(f"{i} {j}\n" for i, j in data.draw(st.lists(st.sampled_from(pairs), min_size=1))))
    specs = [TopologySpec("ring"), TopologySpec("complete"), TopologySpec("edge_list", path=str(path)),
             TopologySpec("erdos_renyi", p=0.5)]
    base = base_config(
        fading=data.draw(st.sampled_from([FadingModel.half_normal(1.0), FadingModel.half_normal(4e307)])),
        self_weight=data.draw(st.sampled_from([0.0, 1.0])), noise_std=data.draw(st.sampled_from([0.0, 1e-6])),
        max_iters=data.draw(st.integers(1, 40)), tol=1e-3, tol_window=2,
    )
    configs = []
    for _ in range(data.draw(st.integers(2, 6))):
        algorithm = data.draw(st.sampled_from(ALGORITHMS))
        cfg = replace(base, algorithm=algorithm, topology=data.draw(st.sampled_from(specs)),
                      n=data.draw(st.sampled_from([n, n + 1])), deep_fade=algorithm == "tvc" and data.draw(st.booleans()))
        configs += [replace(cfg, seed=s) for s in data.draw(st.lists(st.integers(0, 3), min_size=1, max_size=4))]
    expected = outcome([lambda c=c: run(c)[1] for c in configs])
    done = []
    assert outcome([lambda: run_group(configs, done)]) == (expected if isinstance(expected, tuple) else [expected])
    assert done == [run(c)[1] for c in configs[:len(done)]]


def test_tic_pass_builds_no_audit():
    # only a tvc pass judges windowed connectivity; a tic pass handed an
    # (epsilon, B) pair reports no verdict rather than a vacuous one
    proc = ChannelProcess(FadingModel.half_normal(1.0), er(6, 1), seed=3)
    (summary, _), = _drive("tic", [lambda: (None, proc, InitialStates(np.arange(6.0)), None, 5)],
                           epsilon_B=(1e-3, 1))
    assert summary.iterations_used == 5 and summary.epsilon_B_satisfied is None


#: seed_groups' tic and tvc configs without receiver noise or overflowing gains
quiet_seed_groups = seed_groups().filter(
    lambda group: group[0].algorithm != "baseline" and group[0].fading != FadingModel.half_normal(4e307)
).map(lambda group: [replace(c, noise_std=0.0) for c in group])


@given(group=quiet_seed_groups)
@settings(max_examples=20, deadline=None)
def test_run_keeps_the_papers_invariants(group):
    # run() is the matrix oracle over the blocks it read, conserves both
    # chain sums, and keeps every ratio within the initial values' range
    for cfg in group:
        trajectory, summary = run(cfg)
        _, channel, S, *_ = prepare(cfg)
        k = summary.iterations_used
        tvc = cfg.algorithm == "tvc"
        hbars = [build_Hbar(channel.realization(j if tvc else 0).gains) for j in range(k)]
        for got, expected in zip((trajectory.y_tilde, trajectory.x_tilde, trajectory.mu),
                                 matrix_oracle(hbars, S, k)):
            np.testing.assert_allclose(got, expected, rtol=0, atol=1e-10)
        assert max(summary.mass_drift_y, summary.mass_drift_x) <= 1e-9
        lo, hi = S.values.min(), S.values.max()
        assert lo - 1e-12 <= trajectory.mu.min() and trajectory.mu.max() <= hi + 1e-12


@given(group=quiet_seed_groups)
@settings(max_examples=30, deadline=None)
def test_run_doubles_with_its_start(group):
    # the chains are linear in the start: doubling it doubles y_tilde and
    # mu exactly on every step both runs take
    for cfg in group:
        S = prepare(cfg)[2]
        once = run(cfg)[0]
        twice = run(replace(cfg, initial=InitialSpec.explicit(2 * S.values)))[0]
        rows = min(len(once.mu), len(twice.mu))
        assert np.array_equal(twice.y_tilde[:rows], 2 * once.y_tilde[:rows])
        assert np.array_equal(twice.mu[:rows], 2 * once.mu[:rows])


@given(group=seed_groups().filter(lambda group: group[0].fading != FadingModel.half_normal(4e307)),
       c=st.sampled_from([-1e6, -1e3, -1.0, 0.5, 1e3]))
@settings(max_examples=25, deadline=None)
def test_run_shifts_with_its_start(group, c):
    # both chains are linear and x_tilde does not depend on the start, so
    # starting from S - c gives mu - c: not bitwise, unlike doubling, but
    # within the first-order rounding bound ((n + 1) k + 2) eps M at step k,
    # M = max|S| + |c|. Each step's division and length-n sum add at most
    # gamma_{n+1} M x_tilde to y_tilde' - y_tilde + c x_tilde from each run and
    # from x_tilde, and the step mixes the error over x_tilde by a convex
    # combination; S - c, the two ratios and mu - c round once each. Only
    # the rows both runs take are compared: a shifted run can stop at
    # another step under a tiny tol
    eps = np.finfo(float).eps
    for cfg in group:
        cfg = replace(cfg, noise_std=0.0)  # noise enters x_tilde unshifted: mu would move by c times it
        S = prepare(cfg)[2]
        base = run(cfg)[0]
        shifted = run(replace(cfg, initial=InitialSpec.explicit(S.values - c)))[0]
        rows = min(len(base.mu), len(shifted.mu))
        assert np.array_equal(shifted.x_tilde[:rows], base.x_tilde[:rows])
        err = np.abs(shifted.mu[:rows] - (base.mu[:rows] - c)).max(axis=1)
        bound = ((cfg.n + 1) * np.arange(rows) + 2) * eps * (np.abs(S.values).max() + abs(c))
        assert np.all(err <= bound)


@st.composite
def linked_topologies(draw, n):
    """A ring, the complete graph, or a drawn connected edge set given as
    (i, j) pairs, i < j, with the links it is known to have."""
    kind = draw(st.sampled_from(["ring", "complete", "edge_list"]))
    if kind == "ring":
        return kind, [tuple(sorted((i, (i + 1) % n))) for i in range(n)]
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    if kind == "complete":
        return kind, pairs
    tree = [(draw(st.integers(0, j - 1)), j) for j in range(1, n)]  # spans every node
    return kind, sorted(set(tree) | set(draw(st.lists(st.sampled_from(pairs), max_size=n))))


@given(group=quiet_seed_groups, data=st.data())
@settings(max_examples=20, deadline=None)
def test_run_keeps_the_papers_invariants_on_listed_and_scaled_links(group, data, tmp_path_factory):
    # the same invariants over an edge_list topology or pair_scales: one or
    # two of the topology's links scaled by 0.5 or 2
    n = group[0].n
    kind, links = data.draw(linked_topologies(n))
    path = None
    if kind == "edge_list":
        path = tmp_path_factory.mktemp("links") / "drawn.edges"
        path.write_text("".join(f"{i} {j}\n" for i, j in links))
    spec = TopologySpec(kind, path=path and str(path))
    scaled = data.draw(st.lists(st.sampled_from(sorted(set(links))), min_size=1, max_size=2, unique=True))
    pair_scales = tuple((pair, data.draw(st.sampled_from([0.5, 2.0]))) for pair in scaled)
    group = [replace(c, topology=spec, pair_scales=pair_scales) for c in group]
    test_run_keeps_the_papers_invariants.hypothesis.inner_test(group)


@given(group=seed_groups().map(lambda group: [replace(c, algorithm="baseline", deep_fade=False) for c in group]))
@settings(max_examples=15, deadline=None)
def test_baseline_keeps_the_papers_invariants(group):
    # the digital exchange steps y_tilde and x_tilde by prop1_weights(g) and
    # ignores noise: its rows are W^k S and W^k 1, within the same bounds
    for cfg in group:
        try:
            g, _, S, *_ = prepare(cfg)
        except ValueError as exc:  # an erdos_renyi draw that baseline cannot run on
            assert str(exc) == "baseline requires a strongly connected topology"
            continue
        trajectory, summary = run(cfg)
        W, y, x = prop1_weights(g), S.values, np.ones(cfg.n)
        for k in range(summary.iterations_used + 1):
            for got, expected in zip((trajectory.y_tilde, trajectory.x_tilde, trajectory.mu), (y, x, y / x)):
                np.testing.assert_allclose(got[k], expected, rtol=0, atol=1e-10)
            y, x = W @ y, W @ x
        assert max(summary.mass_drift_y, summary.mass_drift_x) <= 1e-9
        lo, hi = S.values.min(), S.values.max()
        assert lo - 1e-12 <= trajectory.mu.min() and trajectory.mu.max() <= hi + 1e-12


@st.composite
def bipartite_configs(draw, tmp_path_factory):
    """A quiet tic or tvc config without self terms on an even ring or a
    complete bipartite edge_list, from a start of nonzero width, and the
    mask of one side of its bipartition."""
    if draw(st.booleans()):
        n, topology = 2 * draw(st.integers(1, 6)), TopologySpec("ring")
        side = np.arange(n) % 2 == 0
    else:
        n = draw(st.integers(2, 12))
        a = draw(st.integers(1, n - 1))
        path = tmp_path_factory.mktemp("bipartite") / "k.edges"
        path.write_text("".join(f"{i} {j}\n" for i in range(a) for j in range(a, n)))
        topology, side = TopologySpec("edge_list", path=str(path)), np.arange(n) < a
    cfg = base_config(
        n=n, topology=topology, algorithm=draw(st.sampled_from(["tic", "tvc"])),
        fading=draw(st.sampled_from([FadingModel.constant(0.8), FadingModel.half_normal(1.0),
                                     FadingModel.uniform(0.1, 2.0)])),
        initial=InitialSpec.random_mean(draw(st.sampled_from([-3.0, 1.0])), draw(st.sampled_from([0.5, 2.0]))),
        self_weight=0.0, tol=1e-9, max_iters=draw(st.integers(20, 120)), seed=draw(st.integers(0, 10_000)),
    )
    return cfg, side


@given(data=st.data())
@settings(max_examples=15, deadline=None)
def test_run_on_a_bipartite_support_without_self_terms_does_not_converge(data, tmp_path_factory):
    # the first designed failure mode: each step moves all of one side's
    # mass to the other, so the sides' chain sums swap every step, each
    # side's ratios bracket its share's mean y/x, and the spread never
    # falls below the gap between the two sides' start means
    cfg, side = data.draw(bipartite_configs(tmp_path_factory))
    trajectory, summary = run(cfg)
    S = prepare(cfg)[2].values
    gap = abs(S[side].mean() - S[~side].mean())
    assert not summary.converged and summary.iterations_used == cfg.max_iters
    assert gap > 1e-6 and np.ptp(trajectory.mu, axis=1).min() >= gap - 1e-12


@given(group=quiet_seed_groups, kind=st.sampled_from(["ring", "complete"]))
@settings(max_examples=15, deadline=None)
def test_a_non_reciprocal_channel_breaks_mass_conservation(group, kind):
    # the second designed failure mode: a stub channel whose every block is
    # prepare's block 0 with one link scaled by 1.5 one way, as verify's
    # control builds it, conserves the chain sums no more
    cfg = replace(group[0], topology=TopologySpec(kind))
    g, channel, S, *_ = prepare(cfg)
    gains = channel.realization(0).gains.copy()
    a, b = np.argwhere(g.adj)[0]
    gains[a, b] *= 1.5
    broken = Blocks(lambda k: gains)
    (summary, _), = _drive(cfg.algorithm, [lambda: (g, broken, S, None, cfg.max_iters)])
    assert max(summary.mass_drift_y, summary.mass_drift_x) > 1e-9


def test_batch_replays_only_member_faults(monkeypatch):
    # a programming error is no member's fault: it surfaces at once, not
    # after the batch is run again one config at a time
    calls = 0

    def broken(cfg, held=None):
        nonlocal calls
        calls += 1
        raise TypeError("not a member fault")

    monkeypatch.setattr("otaconsensus.simulator.prepare", broken)
    with pytest.raises(TypeError, match="not a member fault"):
        run_group([base_config(seed=s) for s in range(3)])
    assert calls == 1


def test_sweep_memory_holds_no_trajectory(tmp_path):
    # four noisy members use their whole budget; the sweep keeps summaries
    # only, less than one member's trajectory arrays. The same sweep runs
    # once untraced first, so the one-time allocations of a fresh process
    # (imports, caches) fall outside the traced one
    n, steps = 60, 1500
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        f"n = {n}\ntopology = erdos_renyi(0.5)\nalgorithm = tvc\nfading = half_normal(1.0)\n"
        f"initial = random_mean(1.0, 1.0)\nseed = 42\nnoise_std = 1e-6\nmax_iters = {steps}\n"
        "[sweep]\nparameter = noise_std\nvalues = 1e-6\nseeds = 0, 1, 2, 3\n"
    )
    assert main(["sweep", str(cfg), "-o", str(tmp_path / "warm")]) == 0
    tracemalloc.start()
    try:
        assert main(["sweep", str(cfg), "-o", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]
    assert [r.split(",")[4] for r in rows] == [str(steps)] * 4
    assert peak < 3 * 8 * (steps + 1) * n


def test_a_sweep_holds_one_pass_of_set_up_at_a_time(tmp_path):
    # each self_weight value needs its own four channel processes, about
    # 1.9 MB at n = 200 on the complete graph. A pass lets the last pass's
    # go before it builds its own, so three passes peak as one does:
    # measured 8.5 kB apart, where holding every pass's processes adds 3.9
    # MB and letting them go only after the next pass is built adds 1.9 MB
    def peak(values):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(
            "n = 200\ntopology = complete\nalgorithm = tvc\nfading = half_normal(1.0)\n"
            "initial = random_mean(1.0, 1.0)\nseed = 0\nmax_iters = 5\ntol = 1e-300\n"
            f"[sweep]\nparameter = self_weight\nvalues = {values}\nseeds = 0, 1, 2, 3\n"
        )
        assert main(["sweep", str(cfg), "-o", str(tmp_path / "warm")]) == 0
        tracemalloc.start()
        try:
            assert main(["sweep", str(cfg), "-o", str(tmp_path / "o")]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak("1.0, 0.5, 0.25") < peak("1.0") + 500_000


# ---------------------------------------------------------------- keyed draws


def test_no_generator_built_per_block(monkeypatch):
    # epoch e re-keys the process's one generator; building a generator or
    # a seed sequence per epoch costs more than drawing a small one
    proc = ChannelProcess(FadingModel.half_normal(1.0), er(12, 0), seed=7, deep_fade_epsilon=1e-3)
    built = []
    for name in ("default_rng", "SeedSequence", "PCG64", "Generator"):
        real = getattr(np.random, name)
        monkeypatch.setattr(np.random, name, lambda *a, real=real, name=name, **kw: built.append(name)
                            or real(*a, **kw))
    T = epoch_blocks(12)
    for k in (0, 9 * T, 4):
        proc.realization(k)
    for e in (2, 0):
        proc.write_epoch(e, np.empty((T, 12, 12)))
    assert built == []


@given(seed=st.integers(min_value=0, max_value=10_000), k=st.integers(min_value=0, max_value=50))
@settings(max_examples=25, deadline=None)
def test_link_gain_depends_only_on_its_rank(seed, k):
    # the r-th link in canonical order gets the r-th draw of block k,
    # wherever the link sits and whichever other links exist
    n = 9
    full = generate_topology(TopologySpec(kind="complete"), n, seed=0)
    sub = er(n, seed, p=0.4)
    model = FadingModel.half_normal(1.0)
    g_full = ChannelProcess(model, full, seed=seed).realization(k).gains
    g_sub = ChannelProcess(model, sub, seed=seed).realization(k).gains
    links = np.triu(sub.adj, 1)
    assert 0 < np.count_nonzero(links) < np.count_nonzero(np.triu(full.adj, 1))
    ranked = g_full[np.triu(full.adj, 1)][:np.count_nonzero(links)]
    np.testing.assert_array_equal(g_sub[links], ranked)
    np.testing.assert_array_equal(g_sub.T[links], ranked)
    off = ~sub.adj & ~np.eye(n, dtype=bool)
    assert np.all(g_sub[off] == 0.0)


@pytest.mark.parametrize("model", [FadingModel.half_normal(1.0), FadingModel.uniform(0.2, 2.0)])
def test_deep_fade_leaves_link_gains_untouched(model):
    topo = er(10, 3)
    plain = ChannelProcess(model, topo, seed=4)
    faded = ChannelProcess(model, topo, seed=4, deep_fade_epsilon=1e-3)
    adj = topo.adj
    for k in (0, 1, 7):
        np.testing.assert_array_equal(plain.realization(k).gains[adj], faded.realization(k).gains[adj])


def test_pair_scales_scale_only_their_pair():
    topo = er(8, 5)
    a, b = topo.edges[0]
    plain = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=2)
    scaled = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=2, pair_scales=(((b, a), 3.0),))
    g0, g1 = plain.realization(3).gains, scaled.realization(3).gains
    assert g1[a, b] == g1[b, a] == 3.0 * g0[a, b]
    mask = np.ones_like(g0, dtype=bool)
    mask[a, b] = mask[b, a] = False
    np.testing.assert_array_equal(g0[mask], g1[mask])


@pytest.mark.parametrize("algorithm", ["tic", "tvc"])
def test_edge_list_line_order_does_not_change_output(tmp_path, algorithm):
    lines = [f"{a} {b}\n" for a, b in er(12, 8).edges if a < b]
    edges = tmp_path / "graph.edges"
    cfg = tmp_path / "run.cfg"
    cfg.write_text(
        f"n = 12\ntopology = edge_list({edges})\nalgorithm = {algorithm}\n"
        "fading = half_normal(1.0)\ninitial = random_mean(1.0, 1.0)\n"
        "seed = 3\nmax_iters = 40\nnoise_std = 1e-4\n"
    )
    outputs = []
    for order in (lines, list(np.random.default_rng(1).permutation(lines))):
        edges.write_text("".join(order))
        out = tmp_path / f"out{len(outputs)}"
        assert main(["run", str(cfg), "-o", str(out)]) == 0
        outputs.append([(out / name).read_bytes() for name in ("trajectory.csv", "summary.json")])
    assert outputs[0] == outputs[1]


# ---------------------------------------------------------------- audits


def test_adjacency_strong_connectivity():
    ring = np.roll(np.eye(5, dtype=bool), 1, axis=1)  # directed cycle 0->1->...->4->0
    assert is_strongly_connected(ring)
    path = ring.copy()
    path[4, 0] = False
    assert not is_strongly_connected(path)
    assert not is_strongly_connected(path.T)
    assert is_strongly_connected(path | path.T)


@given(n=st.integers(min_value=2, max_value=8), seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=40)
def test_is_strongly_connected_matches_edge_reachability(n, seed):
    rng = np.random.default_rng(seed)
    adj = rng.random((n, n)) < 0.3
    np.fill_diagonal(adj, False)
    g = Digraph(adj)
    closure = adj | np.eye(n, dtype=bool)
    for _ in range(n):
        closure = closure | ((closure.astype(int) @ closure.astype(int)) > 0)
    assert is_strongly_connected(g.adj) == bool(closure.all())


@given(seed=st.integers(min_value=0, max_value=500), B=st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_incremental_audit_matches_sequence_check(seed, B):
    # sparse thresholded realizations so that both verdicts occur
    proc = ChannelProcess(FadingModel.uniform(0.01, 1.0), er(6, seed, p=0.7), seed=seed)
    seq = [proc.realization(k).gains for k in range(9)]
    audit = EpsilonBAudit(0.6, B)
    for h in seq:
        audit.add(h)
    assert audit.satisfied == check_epsilon_B_connectivity(seq, 0.6, B)
    joint = [np.logical_or.reduce([h > 0.6 for h in seq[w * B:(w + 1) * B]]) for w in range(9 // B)]
    assert audit.satisfied == all(is_strongly_connected(j) for j in joint)


@given(seed=st.integers(min_value=0, max_value=500), B=st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_stacked_audit_matches_member_audits(seed, B):
    # three members share one audit; member 1 leaves it after step 4
    procs = [ChannelProcess(FadingModel.uniform(0.01, 1.0), er(6, seed + i, p=0.7), seed=seed + i)
             for i in range(3)]
    stacked, alone = EpsilonBAudit(0.6, B, symmetric=True), [EpsilonBAudit(0.6, B) for _ in procs]
    live = [0, 1, 2]
    for k in range(9):
        if k == 4:
            stacked.keep(np.array([True, False, True]))
            live = [0, 2]
        for i in live:
            alone[i].add(procs[i].realization(k).gains)
        stacked.add(np.array([procs[i].realization(k).gains for i in live]))
    assert list(np.broadcast_to(stacked.verdicts, (2,))) == [alone[0].satisfied, alone[2].satisfied]


@st.composite
def audit_feeds(draw):
    """An audit's shape, window, threshold, pending budget and symmetric
    flag (set only on a feed of symmetric gains), and a feed of gain
    stacks: each step may drop members first (keeping at least one) and
    may read the verdicts after its gains go in."""
    n, m, B = draw(st.integers(2, 8)), draw(st.integers(1, 4)), draw(st.integers(1, 4))
    symmetric, epsilon = draw(st.booleans()), draw(st.sampled_from([0.5, 0.7, 0.9]))
    # a budget of a few windows, or under one, makes short feeds cross it
    budget = draw(st.one_of(st.just(topology.PENDING_BOOLS), st.integers(1, 5 * m * n * n)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    steps, live = [], m
    for _ in range(draw(st.integers(0, 36))):
        drop = None
        if live > 1 and rng.random() < 0.1:
            drop = rng.random(live) < 0.5
            drop[rng.integers(live)] = False
            live -= int(drop.sum())
        gains = rng.random((live, n, n))
        if symmetric:
            gains = np.maximum(gains, np.swapaxes(gains, -1, -2))
        steps.append((drop, gains, rng.random() < 0.3))
    return m, B, epsilon, budget, symmetric and rng.random() < 0.8, steps


@given(feed=audit_feeds())
@settings(max_examples=150, deadline=None)
def test_batched_audit_equals_eager_audit(feed):
    # windows wait in a pending stack and are judged together; every read
    # must show what judging each window union as it completes shows
    m, B, epsilon, budget, symmetric, steps = feed
    members = list(range(m))
    history = {i: [] for i in members}  # each member's effective graphs

    def reference():
        return [all(is_strongly_connected(np.logical_or.reduce(history[i][w * B:(w + 1) * B]))
                    for w in range(len(history[i]) // B)) for i in members]

    with mock.patch.object(topology, "PENDING_BOOLS", budget):
        audit = EpsilonBAudit(epsilon, B, symmetric)
        for drop, gains, read in steps:
            if drop is not None:
                audit.keep(~drop)
                members = [i for i, d in zip(members, drop) if not d]
            audit.add(gains)
            for i, g in zip(members, gains):
                history[i].append(g > epsilon)
            if read:
                assert list(np.broadcast_to(audit.verdicts, (len(members),))) == reference()
                assert audit.satisfied == all(reference())
        assert list(np.broadcast_to(audit.verdicts, (len(members),))) == reference()


@pytest.mark.parametrize("n, m, windows, calls", [(10, 4, 500, 4), (130, 4, 3, 3)])
def test_audit_judges_pending_windows_in_bounded_stacks(n, m, windows, calls, monkeypatch):
    # 163 windows of 4 x 10 x 10 fill the 64 KB pending stack, so 500 take
    # three full stacks and a last one settled by the read; a window over
    # the budget on its own is judged as it completes
    judged = []
    reaches_all = topology._reaches_all
    monkeypatch.setattr(topology, "_reaches_all", lambda adj: judged.append(adj.nbytes) or reaches_all(adj))
    audit = EpsilonBAudit(0.5, 1, symmetric=True)
    gains = np.ones((m, n, n))
    for _ in range(windows):
        audit.add(gains)
    assert audit.satisfied
    assert len(judged) == calls
    assert max(judged) <= max(topology.PENDING_BOOLS, m * n * n)
