import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otaconsensus.channel import ChannelProcess, ChannelRealization, FadingModel
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


# ---------------------------------------------------------------- noise


def test_noise_model():
    # Receiver noise is one setting, SimulationConfig.noise_std.
    kw = dict(n=3, topology=TopologySpec(kind="ring"), algorithm="tic",
              fading=FadingModel.constant(1.0), initial=InitialSpec.random_mean(1.0, 1.0), seed=0)
    assert SimulationConfig(**kw).noise_std == 0.0
    assert SimulationConfig(**kw, noise_std=0.1).noise_std == 0.1
    with pytest.raises(ValueError, match="noise_std"):
        SimulationConfig(**kw, noise_std=-0.1)


# ---------------------------------------------------------------- realization


def test_realization_validates_shape_and_diagonal():
    with pytest.raises(ValueError, match="shape"):
        ChannelRealization(3, np.ones((2, 2)), 1.0)
    g = np.ones((3, 3))
    with pytest.raises(ValueError, match="self_weight"):
        ChannelRealization(3, g, 0.5)
    bad = np.ones((3, 3))
    bad[0, 1] = -0.1
    with pytest.raises(ValueError, match="nonnegative"):
        ChannelRealization(3, bad, 1.0)
    nanned = np.ones((3, 3))
    nanned[0, 1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        ChannelRealization(3, nanned, 1.0)


def test_realization_is_immutable():
    r = ChannelRealization(2, np.ones((2, 2)), 1.0)
    with pytest.raises(ValueError):
        r.gains[0, 1] = 5.0


def test_asymmetric_gains_are_constructible():
    # negative-control audits need to build non-reciprocal matrices by hand
    g = np.array([[1.0, 0.3], [0.7, 1.0]])
    r = ChannelRealization(2, g, 1.0)
    assert r.gains[0, 1] != r.gains[1, 0]


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
    # a process builds its blocks without re-running ChannelRealization's
    # checks; every block must pass them anyway, symmetric and read-only
    r = proc.realization(k)
    fresh = ChannelRealization(proc.topology.n, r.gains, proc.self_weight)
    np.testing.assert_array_equal(fresh.gains, r.gains)
    np.testing.assert_array_equal(r.gains, r.gains.T)
    assert r.n == proc.topology.n and r.self_weight == proc.self_weight
    assert not r.gains.flags.writeable


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
    r = ChannelRealization(3, g, 1.0)
    # 0.1 is not > 0.1, so the weak link drops and node 2 is cut off
    assert not audit_verdict(0.1, r.gains)
    assert audit_verdict(0.0999, r.gains)
    with pytest.raises(ValueError):
        EpsilonBAudit(epsilon=0.0, B=1)


def test_effective_graph_orientation():
    # gains[i, j] > eps means j -> i: receiver i hears transmitter j. A
    # one-way gain is one directed link, so the pair is strongly connected
    # only once the reverse gain shows up in the same window
    g = np.eye(2)
    g[0, 1] = 0.9
    r = ChannelRealization(2, g, 1.0)
    assert not audit_verdict(0.5, r.gains)
    assert not audit_verdict(0.5, r.gains, r.gains)
    assert audit_verdict(0.5, r.gains, r.gains.T)
