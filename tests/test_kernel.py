"""The shared stepping kernel, keyed channel draws, the incremental
windowed-connectivity audit, and the run loop's memory bound."""
import tracemalloc
from dataclasses import replace
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otaconsensus.channel import ChannelProcess, FadingModel
from otaconsensus.cli import main, write_trajectory_csv
from otaconsensus.protocol import InitialStates, IsolationError, ota_step, pilot
from otaconsensus.analysis import mass_audit
from otaconsensus.simulator import (
    ALGORITHMS,
    InitialSpec,
    RunSummary,
    SimulationConfig,
    iterate,
    prepare,
    run,
    run_group,
    spread,
    stream_seeds,
)
from otaconsensus.topology import (
    Digraph,
    EpsilonBAudit,
    TopologySpec,
    check_epsilon_B_connectivity,
    generate_topology,
    is_strongly_connected,
)


def er(n, seed, p=0.5):
    return generate_topology(TopologySpec(kind="erdos_renyi", p=p), n, seed=seed)


def base_config(**overrides):
    kw = dict(
        n=10,
        topology=TopologySpec(kind="erdos_renyi", p=0.5),
        algorithm="tic",
        fading=FadingModel.half_normal(1.0),
        initial=InitialSpec.random_mean(1.0, 1.0),
        seed=42,
    )
    kw.update(overrides)
    return SimulationConfig(**kw)


def take(kernel, steps):
    out = [next(kernel) for _ in range(steps + 1)]
    return tuple(np.array(a) for a in zip(*out))


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
    # spends three slots per step, pilot first
    n, std = 6, 1e-3
    proc = ChannelProcess(FadingModel.uniform(0.5, 1.5), er(n, 2), seed=5)
    S = InitialStates(np.arange(n, dtype=float))
    Y, X, _ = take(iterate(algorithm, S, channel=proc, noise_std=std,
                           noise_rng=np.random.default_rng(9)), 3)
    rng = np.random.default_rng(9)

    def draw():
        return rng.normal(0.0, std, size=n)

    y, x = S.values, np.ones(n)
    if algorithm == "tic":
        gains = proc.realization(0).gains
        sigma = pilot(gains, draw())
    for k in range(1, 4):
        if algorithm == "tvc":
            gains = proc.realization(k - 1).gains
            sigma = pilot(gains, draw())
        y, x = ota_step(gains, sigma, y, x, draw(), draw())  # numerator first
        np.testing.assert_array_equal(Y[k], y)
        np.testing.assert_array_equal(X[k], x)


@pytest.mark.parametrize("algorithm, blocks", [("tic", [0]), ("tvc", list(range(50)))])
def test_kernel_reads_blocks_by_algorithm(algorithm, blocks, monkeypatch):
    # the process is a plain sequence of blocks; which block a step reads is
    # the kernel's rule: tic realizes block 0 once, tvc block k - 1 at step k
    proc = ChannelProcess(FadingModel.half_normal(1.0), er(6, 1), seed=3)
    seen = []
    realization = ChannelProcess.realization
    monkeypatch.setattr(ChannelProcess, "realization",
                        lambda self, k, **out: seen.append(k) or realization(self, k, **out))
    take(iterate(algorithm, InitialStates(np.arange(6.0)), channel=proc), 50)
    assert seen == blocks


@pytest.mark.parametrize("algorithm", ["tic", "tvc"])
def test_kernel_prefix_is_stable(algorithm):
    # a long pass's first rows are bitwise a short pass: the verify suite
    # checks the oracle on the prefix of its mass-conservation pass
    proc = ChannelProcess(FadingModel.half_normal(1.0), er(8, 3), seed=4)
    S = InitialStates(np.linspace(-1.0, 2.0, 8))
    long = take(iterate(algorithm, S, channel=proc), 1000)
    short = take(iterate(algorithm, S, channel=proc), 100)
    for a, b in zip(long, short):
        assert np.array_equal(a[:101], b)


@pytest.mark.parametrize("algorithm, what", [
    ("tic", "the channel"), ("tvc", "the channel at step 1"), ("baseline", "the graph"),
])
def test_kernel_rejects_size_mismatch(algorithm, what):
    # numpy would broadcast one initial value across a 3-node gain matrix
    g = er(3, 0, p=1.0)
    proc = ChannelProcess(FadingModel.constant(1.0), g)
    kernel = iterate(algorithm, InitialStates([1.0]), g=g, channel=proc)
    with pytest.raises(ValueError, match=f"{what} is 3-node but got 1 initial values"):
        list(islice(kernel, 2))


def test_kernel_names_an_unknown_algorithm():
    _, channel, S = prepare(base_config(algorithm="tvc"))
    with pytest.raises(ValueError, match="unknown algorithm 'TVC'"):
        next(iterate("TVC", S, channel=channel))


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
    # writer, which holds one step's block at a time, a fraction of it
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


# ---------------------------------------------------------------- seed groups


def serial_summary(cfg):
    """run()'s summary the way it was computed one run at a time: the
    one-member kernel view to the stop, then mass_audit over the whole
    trajectory."""
    g, channel, S = prepare(cfg)
    audit = EpsilonBAudit(cfg.epsilon, cfg.B) if cfg.algorithm == "tvc" else None
    noise_rng = np.random.default_rng(stream_seeds(cfg.seed)[3])
    rows, streak = [], 0
    for k, row in enumerate(iterate(cfg.algorithm, S, g, channel, cfg.noise_std, noise_rng, audit)):
        rows.append(row)
        if k > 0:
            streak = streak + 1 if spread(row[2]) <= cfg.tol else 0
        if streak >= cfg.tol_window or k == cfg.max_iters:
            break
    Y, X, MU = (np.array(a) for a in zip(*rows))
    target = S.mean()
    return RunSummary(
        converged=streak >= cfg.tol_window,
        iterations_used=k,
        target_average=target,
        final_max_error=float(np.max(np.abs(MU[-1] - target))),
        mass_drift_y=mass_audit((Y, X), S)[0],
        mass_drift_x=mass_audit((Y, X), S)[1],
        epsilon_B_satisfied=None if audit is None else audit.satisfied,
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
        tol_window=draw(st.integers(1, 4)),
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


def test_seed_group_draws_one_block_per_member_step(monkeypatch):
    # a member that has stopped draws no further channel block
    group = [base_config(n=8, algorithm="tvc", seed=s, tol=1e-6, tol_window=2, max_iters=200)
             for s in range(4)]
    calls = 0
    realization = ChannelProcess.realization

    def counted(self, k, **out):
        nonlocal calls
        calls += 1
        return realization(self, k, **out)

    monkeypatch.setattr(ChannelProcess, "realization", counted)
    summaries = run_group(group)
    assert len({s.iterations_used for s in summaries}) > 1
    assert calls == sum(s.iterations_used for s in summaries)


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


def test_batch_replays_only_member_faults(monkeypatch):
    # a programming error is no member's fault: it surfaces at once, not
    # after the batch is run again one config at a time
    calls = 0

    def broken(cfg):
        nonlocal calls
        calls += 1
        raise TypeError("not a member fault")

    monkeypatch.setattr("otaconsensus.simulator.prepare", broken)
    with pytest.raises(TypeError, match="not a member fault"):
        run_group([base_config(seed=s) for s in range(3)])
    assert calls == 1


def test_sweep_memory_holds_no_trajectory(tmp_path):
    # four noisy members use their whole budget; the sweep keeps summaries
    # only, less than one member's trajectory arrays
    n, steps = 60, 1500
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        f"n = {n}\ntopology = erdos_renyi(0.5)\nalgorithm = tvc\nfading = half_normal(1.0)\n"
        f"initial = random_mean(1.0, 1.0)\nseed = 42\nnoise_std = 1e-6\nmax_iters = {steps}\n"
        "[sweep]\nparameter = noise_std\nvalues = 1e-6\nseeds = 0, 1, 2, 3\n"
    )
    tracemalloc.start()
    try:
        assert main(["sweep", str(cfg), "-o", str(tmp_path / "o")]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    rows = (tmp_path / "o" / "sweep.csv").read_text().splitlines()[1:]
    assert [r.split(",")[4] for r in rows] == [str(steps)] * 4
    assert peak < 3 * 8 * (steps + 1) * n


# ---------------------------------------------------------------- keyed draws


def test_no_generator_built_per_block(monkeypatch):
    # block k re-keys the process's one generator; building a generator or
    # a seed sequence per block costs more than drawing a small block
    proc = ChannelProcess(FadingModel.half_normal(1.0), er(12, 0), seed=7, deep_fade_epsilon=1e-3)
    built = []
    for name in ("default_rng", "SeedSequence", "PCG64", "Generator"):
        real = getattr(np.random, name)
        monkeypatch.setattr(np.random, name, lambda *a, real=real, name=name, **kw: built.append(name)
                            or real(*a, **kw))
    out = proc.realization(4).gains.copy()
    for k in (0, 9, 4):
        proc.realization(k, out=out)
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
    seq = [proc.realization(k) for k in range(9)]
    audit = EpsilonBAudit(0.6, B)
    for h in seq:
        audit.add(h.gains)
    assert audit.satisfied == check_epsilon_B_connectivity(seq, 0.6, B)
    joint = [np.logical_or.reduce([h.gains > 0.6 for h in seq[w * B:(w + 1) * B]]) for w in range(9 // B)]
    assert audit.satisfied == all(is_strongly_connected(j) for j in joint)


@given(seed=st.integers(min_value=0, max_value=500), B=st.integers(min_value=1, max_value=4))
@settings(max_examples=30, deadline=None)
def test_stacked_audit_matches_member_audits(seed, B):
    # three members share one audit; member 1 leaves it after step 4
    procs = [ChannelProcess(FadingModel.uniform(0.01, 1.0), er(6, seed + i, p=0.7), seed=seed + i)
             for i in range(3)]
    stacked, alone = EpsilonBAudit(0.6, B), [EpsilonBAudit(0.6, B) for _ in procs]
    live = [0, 1, 2]
    for k in range(9):
        if k == 4:
            stacked.keep(np.array([True, False, True]))
            live = [0, 2]
        for i in live:
            alone[i].add(procs[i].realization(k).gains)
        stacked.add(np.array([procs[i].realization(k).gains for i in live]), symmetric=True)
    assert list(np.broadcast_to(stacked.verdicts, (2,))) == [alone[0].satisfied, alone[2].satisfied]
