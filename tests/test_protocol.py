import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otaconsensus.channel import ChannelProcess, ChannelRealization, FadingModel
from otaconsensus.protocol import (
    AgentState,
    DegenerateStateError,
    InitialStates,
    IsolationError,
    WeightMatrix,
    baseline_step,
    ota_aggregate,
    prop1_weights,
    ratio_output,
    tic_initialize,
    tic_step,
    tvc_initialize,
    tvc_step,
)
from otaconsensus.topology import Digraph, TopologySpec, generate_topology


def sym_realization(gains, self_weight=1.0):
    g = np.asarray(gains, dtype=float)
    return ChannelRealization(g.shape[0], g, self_weight)


def run_tic(S, h, steps):
    states = tic_initialize(S, h)
    hist = [states]
    for _ in range(steps):
        states = tic_step(states, h)
        hist.append(states)
    return hist


def run_tvc(S, proc, steps):
    states = tvc_initialize(S)
    hist = [states]
    for k in range(steps):
        states = tvc_step(states, proc.realization(k))
        hist.append(states)
    return hist


# ---------------------------------------------------------------- aggregation


def test_ota_aggregate_arithmetic():
    assert ota_aggregate([0.5, 1.5], [4, 2]) == 5.0
    assert ota_aggregate([0.0, 0.0], [100, -3]) == 0.0
    assert ota_aggregate([0.5, 1.5], [4, 2], noise=0.25) == 5.25


def test_ota_aggregate_pilot_gives_row_sum():
    row = np.array([1.0, 0.3, 0.0, 2.2])
    assert ota_aggregate(row, np.ones(4)) == pytest.approx(row.sum(), abs=0)


def test_ota_aggregate_length_mismatch():
    with pytest.raises(ValueError, match="length"):
        ota_aggregate([1.0, 2.0], [1.0])


# ---------------------------------------------------------------- baseline


def test_prop1_weights_complete_graph():
    g = generate_topology(TopologySpec(kind="complete"), 3, seed=0)
    w = prop1_weights(g)
    np.testing.assert_allclose(w.entries, np.full((3, 3), 1 / 3), atol=0)


def test_prop1_weights_two_cycle():
    g = Digraph(~np.eye(2, dtype=bool))
    np.testing.assert_array_equal(prop1_weights(g).entries, [[0.5, 0.5], [0.5, 0.5]])


def test_prop1_weights_directed_ring():
    g = generate_topology(TopologySpec(kind="ring", symmetric=False), 3, seed=0)
    w = prop1_weights(g).entries
    # each column holds exactly self and successor at 1/2
    for j in range(3):
        col = w[:, j]
        assert sorted(col) == [0.0, 0.5, 0.5]
        assert col[j] == 0.5
        assert col.sum() == 1.0


def test_prop1_weights_reject_disconnected():
    g = Digraph(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=bool))  # 2 is cut off
    with pytest.raises(ValueError, match="strongly connected"):
        prop1_weights(g)


@given(n=st.integers(min_value=2, max_value=10), seed=st.integers(min_value=0, max_value=100))
@settings(max_examples=30)
def test_prop1_weights_column_stochastic(n, seed):
    from otaconsensus.analysis import audit_column_stochastic

    g = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), n, seed=seed)
    audit = audit_column_stochastic(prop1_weights(g).entries)
    assert audit.is_column_stochastic


def test_weight_matrix_validation():
    with pytest.raises(ValueError, match="square"):
        WeightMatrix(np.ones((2, 3)))
    with pytest.raises(ValueError, match="nonnegative"):
        WeightMatrix(np.array([[1.5, 0.0], [-0.5, 1.0]]))
    with pytest.raises(ValueError, match="sum to 1"):
        WeightMatrix(np.array([[0.9, 0.5], [0.2, 0.5]]))


def test_baseline_step_identity():
    P = WeightMatrix(np.eye(3))
    y, x = baseline_step([1.0, 2.0, 3.0], [1.0, 1.0, 1.0], P)
    np.testing.assert_array_equal(y, [1, 2, 3])
    np.testing.assert_array_equal(x, [1, 1, 1])


def test_baseline_step_complete_graph_one_shot():
    P = WeightMatrix(np.full((3, 3), 1 / 3))
    y, x = baseline_step([3.0, 0.0, 0.0], [1.0, 1.0, 1.0], P)
    np.testing.assert_allclose(y, [1, 1, 1], atol=1e-15)
    np.testing.assert_allclose(x, [1, 1, 1], atol=1e-15)
    np.testing.assert_allclose(y / x, 1.0, atol=1e-15)


@given(seed=st.integers(min_value=0, max_value=200))
@settings(max_examples=25)
def test_baseline_step_preserves_sums(seed):
    rng = np.random.default_rng(seed)
    g = generate_topology(TopologySpec(kind="erdos_renyi", p=0.5), 6, seed=seed)
    P = prop1_weights(g)
    y = rng.normal(size=6)
    x = np.ones(6)
    s0 = y.sum()
    for _ in range(50):
        y, x = baseline_step(y, x, P)
    assert y.sum() == pytest.approx(s0, abs=1e-12 * max(1, abs(s0)))
    assert x.sum() == pytest.approx(6.0, abs=1e-12)


# ---------------------------------------------------------------- tic


def test_tic_initialize_arithmetic():
    # receiver 0 hears 0.5 and 1.5 with no self term
    gains = np.array(
        [
            [0.0, 0.5, 1.5],
            [0.5, 0.0, 0.0],
            [1.5, 0.0, 0.0],
        ]
    )
    h = ChannelRealization(3, gains, 0.0)
    states = tic_initialize(InitialStates(np.array([4.0, 1.0, 1.0])), h)
    assert states[0].sigma == 2.0
    assert states[0].y == 2.0
    assert states[0].x == 0.5
    assert states[0].y_tilde == 4.0 and states[0].x_tilde == 1.0


def test_tic_initialize_self_only():
    gains = np.eye(2)
    h = ChannelRealization(2, gains, 1.0)
    states = tic_initialize(InitialStates(np.array([7.0, -1.0])), h)
    assert states[0].sigma == 1.0 and states[0].y == 7.0


def test_tic_initialize_two_node_symmetry():
    h = sym_realization([[0.0, 0.8], [0.8, 0.0]], self_weight=0.0)
    states = tic_initialize(InitialStates(np.array([1.0, 2.0])), h)
    assert states[0].sigma == states[1].sigma == 0.8


def test_tic_initialize_isolated_node_named():
    gains = np.zeros((2, 2))
    h = ChannelRealization(2, gains, 0.0)
    with pytest.raises(IsolationError, match="node 0"):
        tic_initialize(InitialStates(np.array([1.0, 2.0])), h)


def test_tic_initialize_length_mismatch():
    h = sym_realization(np.eye(3))
    with pytest.raises(ValueError):
        tic_initialize(InitialStates(np.array([1.0, 2.0])), h)


def test_tic_all_equal_initial_values_pin_ratio():
    c = 5.0
    proc = ChannelProcess(
        FadingModel.half_normal(1.0),
        generate_topology(TopologySpec(kind="erdos_renyi", p=0.5), 6, seed=1),
        seed=2,
    )
    h = proc.realization(0)
    hist = run_tic(InitialStates(np.full(6, c)), h, 50)
    for states in hist:
        mu = ratio_output(states)
        np.testing.assert_allclose(mu, c, rtol=1e-12)


def test_tic_two_node_doubly_stochastic_limit():
    # symmetric gains with equal sigmas make the mixing matrix doubly
    # stochastic, so the ratio must converge to the plain average
    h = sym_realization([[1.0, 0.6], [0.6, 1.0]], self_weight=1.0)
    S = InitialStates(np.array([0.0, 2.0]))
    hist = run_tic(S, h, 200)
    mu = ratio_output(hist[-1])
    np.testing.assert_allclose(mu, 1.0, atol=1e-12)


def test_tic_mass_conservation_exact_channel():
    proc = ChannelProcess(
        FadingModel.uniform(0.2, 2.0),
        generate_topology(TopologySpec(kind="erdos_renyi", p=0.5), 8, seed=3),
        seed=4,
    )
    h = proc.realization(0)
    S = InitialStates(np.linspace(-3, 5, 8))
    hist = run_tic(S, h, 300)
    total = S.values.sum()
    for states in hist:
        assert sum(st.y_tilde for st in states) == pytest.approx(total, abs=1e-10)
        assert sum(st.x_tilde for st in states) == pytest.approx(8.0, abs=1e-10)


# ---------------------------------------------------------------- tvc


def test_tvc_initialize_placeholders():
    states = tvc_initialize(InitialStates(np.array([2.0, 3.0])))
    assert states[0].y_tilde == 2.0 and states[0].x_tilde == 1.0
    assert np.isnan(states[0].sigma) and np.isnan(states[0].y) and np.isnan(states[0].x)


def test_tvc_matches_tic_on_constant_channel():
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.5), 7, seed=5)
    proc = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=6, time_varying=False)
    S = InitialStates(np.arange(7, dtype=float))
    tic_hist = run_tic(S, proc.realization(0), 100)
    tvc_hist = run_tvc(S, proc, 100)
    for tic_states, tvc_states in zip(tic_hist, tvc_hist):
        np.testing.assert_allclose(
            [st.y_tilde for st in tic_states], [st.y_tilde for st in tvc_states], rtol=1e-12
        )
        np.testing.assert_allclose(
            [st.x_tilde for st in tic_states], [st.x_tilde for st in tvc_states], rtol=1e-12
        )


def test_tvc_per_step_normalization_is_column_stochastic():
    from otaconsensus.analysis import audit_column_stochastic, build_Hbar

    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), 6, seed=7)
    proc = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=8, time_varying=True)
    for k in range(40):
        audit = audit_column_stochastic(build_Hbar(proc.realization(k)))
        assert audit.is_column_stochastic


def test_tvc_deep_fade_isolation_error():
    h = ChannelRealization(2, np.zeros((2, 2)), 0.0)
    states = tvc_initialize(InitialStates(np.array([1.0, 2.0])))
    with pytest.raises(IsolationError, match="deep fade"):
        tvc_step(states, h)


def test_tvc_stored_normalization_uses_current_block():
    # after a step, y and x must equal the fresh aggregates over the sigma
    # measured in that same block
    topo = generate_topology(TopologySpec(kind="ring"), 4, seed=0)
    proc = ChannelProcess(FadingModel.uniform(0.5, 1.5), topo, seed=9, time_varying=True)
    states = tvc_initialize(InitialStates(np.array([1.0, 2.0, 3.0, 4.0])))
    h0 = proc.realization(0)
    states = tvc_step(states, h0)
    sigma0 = h0.gains.sum(axis=1)
    for j, st in enumerate(states):
        assert st.sigma == pytest.approx(sigma0[j], abs=0)
        assert st.y == pytest.approx(st.y_tilde / sigma0[j], abs=0)
        assert st.x == pytest.approx(st.x_tilde / sigma0[j], abs=0)


# ---------------------------------------------------------------- ratio output


def test_ratio_output_division():
    states = [
        AgentState(y_tilde=2.0, x_tilde=1.0, y=0.0, x=0.0, sigma=1.0),
        AgentState(y_tilde=4.0, x_tilde=2.0, y=0.0, x=0.0, sigma=1.0),
    ]
    np.testing.assert_array_equal(ratio_output(states), [2.0, 2.0])


def test_ratio_output_equals_initial_values_after_init():
    h = sym_realization([[1.0, 0.4], [0.4, 1.0]])
    S = InitialStates(np.array([3.5, -1.25]))
    states = tic_initialize(S, h)
    np.testing.assert_array_equal(ratio_output(states), S.values)


def test_ratio_output_degenerate():
    states = [AgentState(y_tilde=1.0, x_tilde=0.0, y=0.0, x=0.0, sigma=1.0)]
    with pytest.raises(DegenerateStateError, match="node 0"):
        ratio_output(states)


# ---------------------------------------------------------------- invariants


@given(seed=st.integers(min_value=0, max_value=300))
@settings(max_examples=20, deadline=None)
def test_ratio_bounds_with_self_weight(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), n, seed=seed)
    proc = ChannelProcess(FadingModel.half_normal(1.0), topo, self_weight=1.0, seed=seed, time_varying=True)
    S = InitialStates(rng.uniform(-5, 5, size=n))
    lo, hi = S.values.min(), S.values.max()
    states = tvc_initialize(S)
    for k in range(60):
        states = tvc_step(states, proc.realization(k))
        mu = ratio_output(states)
        assert np.all(mu >= lo - 1e-12) and np.all(mu <= hi + 1e-12)


@given(seed=st.integers(min_value=0, max_value=300))
@settings(max_examples=15, deadline=None)
def test_scale_and_shift_equivariance(seed):
    rng = np.random.default_rng(seed)
    n = 5
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), n, seed=seed)
    proc = ChannelProcess(FadingModel.uniform(0.3, 1.7), topo, seed=seed, time_varying=True)
    base_vals = rng.uniform(-2, 2, size=n)
    c = 3.7
    d = -2.0
    hists = {}
    for tag, vals in (("base", base_vals), ("scaled", c * base_vals), ("shifted", base_vals + d)):
        states = tvc_initialize(InitialStates(vals))
        mus = [ratio_output(states)]
        for k in range(50):
            states = tvc_step(states, proc.realization(k))
            mus.append(ratio_output(states))
        hists[tag] = np.array(mus)
    np.testing.assert_allclose(hists["scaled"], c * hists["base"], atol=1e-12)
    np.testing.assert_allclose(hists["shifted"], hists["base"] + d, atol=1e-12)


def test_baseline_and_tic_agree_on_limit():
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), 6, seed=10)
    S = InitialStates(np.array([4.0, -2.0, 0.5, 1.5, 3.0, -1.0]))
    target = S.mean()

    proc = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=11)
    tic_mu = ratio_output(run_tic(S, proc.realization(0), 2000)[-1])

    P = prop1_weights(topo)
    y, x = S.values.copy(), np.ones(6)
    for _ in range(2000):
        y, x = baseline_step(y, x, P)
    base_mu = y / x

    np.testing.assert_allclose(tic_mu, target, atol=1e-8)
    np.testing.assert_allclose(base_mu, target, atol=1e-8)
    np.testing.assert_allclose(tic_mu, base_mu, atol=1e-8)
