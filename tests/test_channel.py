import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otaconsensus.channel import ChannelProcess, FadingModel, epoch_blocks
from otaconsensus.simulator import InitialSpec, SimulationConfig
from otaconsensus.topology import Digraph, EpsilonBAudit, TopologySpec, generate_topology


def ring(n):
    return generate_topology(TopologySpec(kind="ring"), n, seed=0)


# ---------------------------------------------------------------- fading


def test_fading_validation():
    with pytest.raises(ValueError):
        FadingModel.constant(0.0)
    with pytest.raises(ValueError):
        FadingModel.half_normal(-1.0)
    with pytest.raises(ValueError):
        FadingModel.uniform(0.0, 1.0)
    with pytest.raises(ValueError):
        FadingModel.uniform(2.0, 1.0)
    with pytest.raises(ValueError):
        FadingModel("rayleigh", gain=1.0)


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50)
def test_fading_samples_strictly_positive(seed):
    rng = np.random.default_rng(seed)
    assert np.all(FadingModel.constant(2.5).draw(rng, 16) == 2.5)
    assert np.all(FadingModel.half_normal(1.0).draw(rng, 16) > 0)
    u = FadingModel.uniform(0.2, 0.9).draw(rng, 16)
    assert np.all((0.2 <= u) & (u < 0.9))


def test_half_normal_redraws_exact_zeros():
    # an exact zero gain would drop a link: each zero is drawn again, as
    # often as it takes, and the other gains keep their first draws
    draws = [np.array([0.0, -1.5, -0.0, 2.0]), np.array([0.0, -4.0]), np.array([3.0])]
    sizes = []

    class Scripted:
        def standard_normal(self, size):
            sizes.append(size)
            return draws.pop(0)

    g = FadingModel.half_normal(1.0).draw(Scripted(), 4)
    assert g.tolist() == [3.0, 1.5, 4.0, 2.0] and sizes == [4, 2, 1]


# ---------------------------------------------------------------- noise


def test_noise_model():
    # Receiver noise is one setting, SimulationConfig.noise_std.
    kw = dict(n=3, topology=TopologySpec(kind="ring"), algorithm="tic",
              fading=FadingModel.constant(1.0), initial=InitialSpec.random_mean(1.0, 1.0), seed=0)
    assert SimulationConfig(**kw).noise_std == 0.0
    assert SimulationConfig(**kw, noise_std=0.1).noise_std == 0.1
    with pytest.raises(ValueError, match="noise_std"):
        SimulationConfig(**kw, noise_std=-0.1)


# ---------------------------------------------------------------- process


def test_process_requires_symmetric_topology():
    directed = Digraph(np.roll(np.eye(3, dtype=bool), 1, axis=1))  # 0 -> 1 -> 2 -> 0
    with pytest.raises(ValueError, match="symmetric"):
        ChannelProcess(FadingModel.constant(1.0), directed)


def test_process_time_varying_resamples():
    proc = ChannelProcess(FadingModel.half_normal(1.0), ring(6), seed=3)
    assert not np.array_equal(proc.realization(0).gains, proc.realization(1).gains)


@given(seed=st.integers(min_value=0, max_value=1000), k=st.integers(min_value=0, max_value=20))
@settings(max_examples=30)
def test_process_realizations_reciprocal_with_self_weight(seed, k):
    proc = ChannelProcess(FadingModel.half_normal(1.0), ring(5), self_weight=1.0, seed=seed)
    r = proc.realization(k)
    np.testing.assert_array_equal(r.gains, r.gains.T)
    np.testing.assert_array_equal(np.diagonal(r.gains), np.ones(5))
    # off-topology entries stay exactly zero
    adj = proc.topology.adj
    off = ~adj & ~np.eye(5, dtype=bool)
    assert np.all(r.gains[off] == 0.0)


@st.composite
def processes(draw):
    n = draw(st.integers(2, 9))
    topology = generate_topology(TopologySpec("erdos_renyi", p=0.5), n, seed=draw(st.integers(0, 1000)))
    links = [(a, b) for a, b in topology.edges if a < b]
    scaled = draw(st.lists(st.sampled_from(links), unique=True, max_size=3))
    return ChannelProcess(
        model=draw(st.sampled_from([
            FadingModel.constant(0.7), FadingModel.half_normal(2.0), FadingModel.uniform(0.1, 1.5),
        ])),
        topology=topology,
        self_weight=draw(st.sampled_from([0.0, 0.5, 1.0])),
        seed=draw(st.integers(0, 10_000)),
        deep_fade_epsilon=draw(st.sampled_from([None, 1e-3, 0.5])),
        pair_scales=tuple((pair, draw(st.floats(1e-3, 1e3))) for pair in scaled),
    )


@given(proc=processes(), k=st.integers(min_value=0, max_value=50))
@settings(max_examples=40, deadline=None)
def test_process_blocks_pass_construction_checks(proc, k):
    # nothing checks a block once built, so every block must be an (n, n)
    # float gain matrix that is finite, nonnegative, with the self_weight
    # diagonal, symmetric and read-only
    n, g = proc.topology.n, proc.realization(k).gains
    assert g.shape == (n, n) and g.dtype == float
    assert np.isfinite(g).all() and (g >= 0).all()
    np.testing.assert_array_equal(np.diagonal(g), np.full(n, proc.self_weight))
    np.testing.assert_array_equal(g, g.T)
    assert not g.flags.writeable


@given(proc=processes(), order=st.permutations(range(8)))
@settings(max_examples=30, deadline=None)
def test_random_access_equals_sequential(proc, order):
    # block k is a pure function of (process, k): neither the blocks read
    # before it nor the epoch cached changes it, across epoch boundaries,
    # and the epochs the kernel writes hold the same blocks
    n, T = proc.topology.n, epoch_blocks(proc.topology.n)
    ks = [0, 1, T - 1, T, T + 1, 2 * T - 1, 3 * T, 3 * T + 2]
    sequential = {k: proc.realization(k).gains for k in sorted(ks)}
    for k in (ks[i] for i in order):
        np.testing.assert_array_equal(proc.realization(k).gains, sequential[k])
    stack = np.full((T, 2, n, n), np.nan)  # the kernel's (T, m, n, n) layout
    for e in (3, 0, 1):
        proc.write_epoch(e, stack[:, 1])
        for k in ks:
            if k // T == e:
                np.testing.assert_array_equal(stack[k % T, 1], sequential[k])
    assert np.isnan(stack[:, 0]).all()


def test_epoch_length_follows_the_pair_count():
    # T = max(1, min(64, 4096 // P)) for the P = n(n-1)/2 pairs
    assert [epoch_blocks(n) for n in (1, 2, 10, 11, 12, 50, 64, 65, 200)] == [64, 64, 64, 64, 62, 3, 2, 1, 1]


@pytest.mark.parametrize("n", [10, 50, 200])
def test_epoch_cache_is_bounded(n):
    # the cached epoch, link gains and fades, holds at most 4096 values
    # when it holds several blocks, and one block's when it holds one
    proc = ChannelProcess(FadingModel.half_normal(1.0), generate_topology(TopologySpec("erdos_renyi", p=0.5), n, 0),
                          seed=1, deep_fade_epsilon=1e-3)
    assert proc._epoch == [None]  # nothing drawn at construction
    proc.realization(5)
    cached = sum(a.size for a in proc._epoch[1:3])
    T = epoch_blocks(n)
    assert cached == T * n * (n - 1) // 2 and (T == 1 or cached <= 4096)


def test_deep_fade_keeps_link_gains_across_an_epoch_boundary():
    # the fades are an epoch of their own, drawn after the gains
    topo = generate_topology(TopologySpec("erdos_renyi", p=0.5), 10, 3)
    plain = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=4)
    faded = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=4, deep_fade_epsilon=1e-3)
    T, adj = epoch_blocks(10), topo.adj
    for k in (T - 1, T, T + 1):
        np.testing.assert_array_equal(plain.realization(k).gains[adj], faded.realization(k).gains[adj])
        assert np.all(faded.realization(k).gains[~adj & ~np.eye(10, dtype=bool)] <= 5e-4)


def test_overflow_is_refused_only_for_the_block_read():
    # with one link's gain scaled to the edge of overflow, some blocks of an
    # epoch overflow: writing the epoch writes the first as inf without
    # raising, reading it raises by name, and the blocks before it read clean
    topo = generate_topology(TopologySpec("ring"), 12, 0)
    proc = ChannelProcess(FadingModel.uniform(0.1, 2.0), topo, seed=7, pair_scales=(((0, 1), 9.02e307),))
    T = epoch_blocks(12)
    out = np.empty((T, 12, 12))
    for e in range(4):
        assert proc.write_epoch(e, out) is None
        overflowing = np.flatnonzero(np.isinf(out).any(axis=(1, 2)))
        if overflowing.size:
            bad = e * T + int(overflowing[0])
            break
    assert out[bad % T, 0, 1] == out[bad % T, 1, 0] == np.inf
    for k in range(bad // T * T, bad):
        assert np.isfinite(proc.realization(k).gains).all()
    with pytest.raises(ValueError, match=rf"^gain of pair \(0,1\) in block {bad} is inf: fading times pair_scales "
                                         "overflows$"):
        proc.realization(bad)


@pytest.mark.parametrize("deep_fade, pair_scales", [
    (None, ()), (1e-3, ()), (None, (((0, 1), 2.0),)), (1e-3, (((1, 0), 0.5), ((2, 3), 3.0))),
])
def test_processes_sharing_a_digraph_draw_as_on_their_own(deep_fade, pair_scales):
    # processes on one Digraph share its pair indices and nothing else:
    # read in turn, each writes and realizes, byte for byte, what a process
    # on a fresh equal Digraph does
    topo, T = ring(12), epoch_blocks(12)

    def process(graph, seed):
        return ChannelProcess(FadingModel.half_normal(1.0), graph, seed=seed, deep_fade_epsilon=deep_fade,
                              pair_scales=pair_scales)

    shared = [process(topo, seed) for seed in (4, 5)]
    fresh = [process(Digraph(topo.adj.copy()), seed) for seed in (4, 5)]
    for e in (0, 1):
        for a, b in zip(shared, fresh):
            out_a, out_b = np.empty((T, 12, 12)), np.empty((T, 12, 12))
            a.write_epoch(e, out_a)
            b.write_epoch(e, out_b)
            assert out_a.tobytes() == out_b.tobytes()
    for k in (0, T - 1, T, 2 * T + 3):
        for a, b in zip(shared, fresh):
            assert a.realization(k).gains.tobytes() == b.realization(k).gains.tobytes()


def test_process_without_links_keeps_its_diagonal():
    proc = ChannelProcess(FadingModel.half_normal(1.0), Digraph(np.zeros((3, 3), dtype=bool)),
                          self_weight=0.5, seed=1)
    np.testing.assert_array_equal(proc.realization(2).gains, 0.5 * np.eye(3))


def test_process_deterministic_in_seed():
    a = ChannelProcess(FadingModel.uniform(0.1, 2.0), ring(8), seed=11)
    b = ChannelProcess(FadingModel.uniform(0.1, 2.0), ring(8), seed=11)
    c = ChannelProcess(FadingModel.uniform(0.1, 2.0), ring(8), seed=12)
    np.testing.assert_array_equal(a.realization(4).gains, b.realization(4).gains)
    assert not np.array_equal(a.realization(4).gains, c.realization(4).gains)


def test_process_rejects_negative_step():
    proc = ChannelProcess(FadingModel.constant(1.0), ring(4))
    with pytest.raises(ValueError):
        proc.realization(-1)
    with pytest.raises(ValueError, match="^epoch index must be nonnegative, got -1$"):
        proc.write_epoch(-1, np.empty((epoch_blocks(4), 4, 4)))


@pytest.mark.parametrize("fields, message", [
    ({"self_weight": -0.5}, "self_weight must be finite and nonnegative, got -0.5"),
    ({"self_weight": float("inf")}, "self_weight must be finite and nonnegative, got inf"),
    ({"seed": -1}, "seed must be nonnegative, got -1"),
    ({"pair_scales": (((1, 0), 0.0),)}, "pair scale for (1,0) must be finite and positive, got 0.0"),
    ({"pair_scales": (((0, 1), float("nan")),)}, "pair scale for (0,1) must be finite and positive, got nan"),
])
def test_process_refuses_a_bad_field(fields, message):
    # the config refuses these first; the process refuses them on its own
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        ChannelProcess(FadingModel.constant(1.0), ring(4), **fields)


def test_deep_fade_requires_finite_positive_epsilon():
    for eps in (0.0, -1e-3, float("inf"), float("nan")):
        with pytest.raises(ValueError, match="epsilon"):
            ChannelProcess(FadingModel.constant(1.0), ring(4), deep_fade_epsilon=eps)


def test_deep_fade_fills_off_links_below_threshold():
    eps = 1e-3
    proc = ChannelProcess(FadingModel.half_normal(1.0), ring(6), seed=5, deep_fade_epsilon=eps)
    r = proc.realization(2)
    adj = proc.topology.adj
    off = ~adj & ~np.eye(6, dtype=bool)
    assert np.all(r.gains[off] > 0.0)
    assert np.all(r.gains[off] <= eps / 2)
    np.testing.assert_array_equal(r.gains, r.gains.T)
    # thresholding must recover exactly the design topology
    strong = r.gains > eps
    np.fill_diagonal(strong, False)
    np.testing.assert_array_equal(strong, proc.topology.adj)


# ---------------------------------------------------------------- effective graph
#
# The effective graph of a step is gains > epsilon; the epsilon-B audit
# reads it through its windowed strong-connectivity verdict.


def audit_verdict(epsilon, *steps):
    """The audit's verdict on one window made of the given steps' gains."""
    audit = EpsilonBAudit(epsilon, len(steps))
    for gains in steps:
        audit.add(gains)
    return audit.satisfied


def test_effective_graph_threshold_strict():
    g = np.array(
        [
            [1.0, 0.5, 0.1],
            [0.5, 1.0, 0.0],
            [0.1, 0.0, 1.0],
        ]
    )
    # 0.1 is not > 0.1, so the weak link drops and node 2 is cut off
    assert not audit_verdict(0.1, g)
    assert audit_verdict(0.0999, g)
    with pytest.raises(ValueError):
        EpsilonBAudit(epsilon=0.0, B=1)


def test_effective_graph_orientation():
    # gains[i, j] > eps means j -> i: receiver i hears transmitter j. A
    # one-way gain is one directed link, so the pair is strongly connected
    # only once the reverse gain shows up in the same window
    g = np.eye(2)
    g[0, 1] = 0.9
    assert not audit_verdict(0.5, g)
    assert not audit_verdict(0.5, g, g)
    assert audit_verdict(0.5, g, g.T)
