"""The shared stepping kernel, pair-keyed channel draws, the incremental
windowed-connectivity audit, and the run loop's memory bound."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otaconsensus.channel import ChannelProcess, FadingModel, NoiseModel
from otaconsensus.cli import main, write_trajectory_csv
from otaconsensus.protocol import (
    InitialStates,
    IsolationError,
    ratio_output,
    tic_initialize,
    tic_step,
    tvc_initialize,
    tvc_step,
)
from otaconsensus.simulator import InitialSpec, SimulationConfig, iterate, run
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
    quiet = run(base_config(algorithm="baseline", noise=NoiseModel(0.0)))
    noisy = run(base_config(algorithm="baseline", noise=NoiseModel(1e-3)))
    assert noisy[0] == quiet[0]
    assert noisy[1] == quiet[1]
    assert quiet[1].converged


@pytest.mark.parametrize("time_varying", [False, True])
def test_kernel_matches_agent_state_wrappers(time_varying):
    proc = ChannelProcess(FadingModel.half_normal(1.0), er(8, 1), seed=3, time_varying=time_varying)
    S = InitialStates(np.linspace(-2.0, 5.0, 8))
    Y, X, MU = take(iterate("tvc" if time_varying else "tic", S, channel=proc), 30)
    if time_varying:
        states = tvc_initialize(S)
    else:
        states = tic_initialize(S, proc.realization(0))
    for k in range(1, 31):
        if time_varying:
            states = tvc_step(states, proc.realization(k - 1))
        else:
            states = tic_step(states, proc.realization(0))
        np.testing.assert_array_equal(Y[k], [st.y_tilde for st in states])
        np.testing.assert_array_equal(X[k], [st.x_tilde for st in states])
        np.testing.assert_array_equal(MU[k], ratio_output(states))


def test_kernel_noise_stream_order():
    # tic spends one pilot draw up front, then two slots per step; tvc
    # spends three slots per step, pilot first
    n, std = 6, 1e-3
    proc = ChannelProcess(FadingModel.uniform(0.5, 1.5), er(n, 2), seed=5, time_varying=True)
    S = InitialStates(np.arange(n, dtype=float))
    Y, X, _ = take(iterate("tvc", S, channel=proc, noise_std=std, noise_rng=np.random.default_rng(9)), 3)
    rng = np.random.default_rng(9)
    states = tvc_initialize(S)
    for k in range(1, 4):
        w, ny, nx = (rng.normal(0.0, std, size=n) for _ in range(3))
        states = tvc_step(states, proc.realization(k - 1), noise_w=w, noise_y=ny, noise_x=nx)
        np.testing.assert_array_equal(Y[k], [st.y_tilde for st in states])
        np.testing.assert_array_equal(X[k], [st.x_tilde for st in states])


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
    cfg = base_config(n=n, algorithm="tvc", noise=NoiseModel(1e-6), max_iters=steps)
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


# ---------------------------------------------------------------- pair-keyed draws


def test_single_generator_per_realization(monkeypatch):
    proc = ChannelProcess(FadingModel.half_normal(1.0), er(12, 0), seed=7, time_varying=True,
                          deep_fade=True, epsilon=1e-3)
    calls = []
    real = np.random.default_rng
    monkeypatch.setattr(np.random, "default_rng", lambda *a: calls.append(a) or real(*a))
    proc.realization(4)
    assert len(calls) == 1


@given(seed=st.integers(min_value=0, max_value=10_000), k=st.integers(min_value=0, max_value=50))
@settings(max_examples=25, deadline=None)
def test_subgraph_gains_match_supergraph(seed, k):
    n = 9
    full = generate_topology(TopologySpec(kind="complete"), n, seed=0)
    sub = er(n, seed, p=0.4)
    model = FadingModel.half_normal(1.0)
    g_full = ChannelProcess(model, full, seed=seed, time_varying=True).realization(k).gains
    g_sub = ChannelProcess(model, sub, seed=seed, time_varying=True).realization(k).gains
    adj = sub.adj
    np.testing.assert_array_equal(g_sub[adj], g_full[adj])
    off = ~adj & ~np.eye(n, dtype=bool)
    assert np.all(g_sub[off] == 0.0)


@pytest.mark.parametrize("model", [FadingModel.half_normal(1.0), FadingModel.uniform(0.2, 2.0)])
def test_deep_fade_leaves_link_gains_untouched(model):
    topo = er(10, 3)
    plain = ChannelProcess(model, topo, seed=4, time_varying=True, epsilon=1e-3)
    faded = ChannelProcess(model, topo, seed=4, time_varying=True, deep_fade=True, epsilon=1e-3)
    adj = topo.adj
    for k in (0, 1, 7):
        np.testing.assert_array_equal(plain.realization(k).gains[adj], faded.realization(k).gains[adj])


def test_pair_scales_scale_only_their_pair():
    topo = er(8, 5)
    a, b = topo.edges[0]
    plain = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=2, time_varying=True)
    scaled = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=2, time_varying=True,
                            pair_scales=(((b, a), 3.0),))
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
    proc = ChannelProcess(FadingModel.uniform(0.01, 1.0), er(6, seed, p=0.7), seed=seed, time_varying=True)
    seq = [proc.realization(k) for k in range(9)]
    audit = EpsilonBAudit(0.6, B)
    for h in seq:
        audit.add(h.gains)
    assert audit.satisfied == check_epsilon_B_connectivity(seq, 0.6, B)
    joint = [np.logical_or.reduce([h.gains > 0.6 for h in seq[w * B:(w + 1) * B]]) for w in range(9 // B)]
    assert audit.satisfied == all(is_strongly_connected(j) for j in joint)
