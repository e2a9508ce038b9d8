from itertools import islice
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otaconsensus.channel import ChannelProcess, ChannelRealization, FadingModel
from otaconsensus.protocol import (
    COLUMN_SUM_TOL,
    DegenerateStateError,
    InitialStates,
    IsolationError,
    ota_step,
    pilot,
    prop1_weights,
    ratio,
)
from otaconsensus.simulator import iterate
from otaconsensus.topology import Digraph, TopologySpec, generate_topology


def sym_realization(gains, self_weight=1.0):
    g = np.asarray(gains, dtype=float)
    return ChannelRealization(g.shape[0], g, self_weight)


def fixed(h):
    """A channel for iterate whose every realization is the block h."""
    return SimpleNamespace(realization=lambda k: h)


def trajectory(algorithm, S, steps, **kw):
    """The kernel's (y_tilde, x_tilde, mu) for steps 0..steps, as arrays."""
    rows = islice(iterate(algorithm, S, **kw), steps + 1)
    return tuple(np.array(a) for a in zip(*rows))


# ---------------------------------------------------------------- aggregation


def test_ota_aggregate_arithmetic():
    # receiver 0 hears 0.5 * 4 + 1.5 * 2; receiver 1 hears nothing
    gains = np.array([[0.5, 1.5], [0.0, 0.0]])
    y, x = ota_step(gains, np.ones(2), np.array([4.0, 2.0]), np.array([100.0, -3.0]))
    np.testing.assert_array_equal(y, [5.0, 0.0])
    np.testing.assert_array_equal(x, [45.5, 0.0])
    # each transmitter divides by its own sigma; noise adds per receiver
    y, x = ota_step(gains, np.array([2.0, 0.5]), np.array([8.0, 1.0]), np.array([2.0, 0.5]),
                    noise_y=np.array([0.25, 0.0]), noise_x=np.array([0.0, -1.0]))
    np.testing.assert_array_equal(y, [5.25, 0.0])
    np.testing.assert_array_equal(x, [2.0, -1.0])


def test_ota_aggregate_pilot_gives_row_sum():
    row = np.array([1.0, 0.3, 0.0, 2.2])
    gains = np.vstack([row, np.eye(4)[1:]])
    sigma = pilot(gains)
    assert sigma[0] == pytest.approx(row.sum(), abs=0)
    np.testing.assert_array_equal(sigma[1:], [1.0, 1.0, 1.0])
    np.testing.assert_array_equal(pilot(gains, np.full(4, 0.5)), sigma + 0.5)


# ---------------------------------------------------------------- baseline


def test_prop1_weights_complete_graph():
    g = generate_topology(TopologySpec(kind="complete"), 3, seed=0)
    w = prop1_weights(g)
    np.testing.assert_allclose(w, np.full((3, 3), 1 / 3), atol=0)


def test_prop1_weights_two_cycle():
    g = Digraph(~np.eye(2, dtype=bool))
    np.testing.assert_array_equal(prop1_weights(g), [[0.5, 0.5], [0.5, 0.5]])


def test_prop1_weights_directed_ring():
    g = generate_topology(TopologySpec(kind="ring", symmetric=False), 3, seed=0)
    w = prop1_weights(g)
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
    audit = audit_column_stochastic(prop1_weights(g))
    assert audit.is_column_stochastic


def test_weight_matrix_validation():
    # prop1_weights hands out its checked matrix itself: square,
    # nonnegative, column sums 1 within COLUMN_SUM_TOL, and read-only
    g = generate_topology(TopologySpec(kind="erdos_renyi", p=0.5), 7, seed=3)
    w = prop1_weights(g)
    assert w.shape == (7, 7) and np.all(w >= 0)
    assert np.max(np.abs(w.sum(axis=0) - 1.0)) <= COLUMN_SUM_TOL
    with pytest.raises(ValueError, match="read-only"):
        w[0, 0] = 0.5


def test_baseline_step_identity():
    y, x = ota_step(np.eye(3), np.ones(3), np.array([1.0, 2.0, 3.0]), np.ones(3))
    np.testing.assert_array_equal(y, [1, 2, 3])
    np.testing.assert_array_equal(x, [1, 1, 1])


def test_baseline_step_complete_graph_one_shot():
    g = generate_topology(TopologySpec(kind="complete"), 3, seed=0)
    Y, X, MU = trajectory("baseline", InitialStates(np.array([3.0, 0.0, 0.0])), 1, g=g)
    np.testing.assert_allclose(Y[1], [1, 1, 1], atol=1e-15)
    np.testing.assert_allclose(X[1], [1, 1, 1], atol=1e-15)
    np.testing.assert_allclose(MU[1], 1.0, atol=1e-15)


@given(seed=st.integers(min_value=0, max_value=200))
@settings(max_examples=25)
def test_baseline_step_preserves_sums(seed):
    rng = np.random.default_rng(seed)
    g = generate_topology(TopologySpec(kind="erdos_renyi", p=0.5), 6, seed=seed)
    S = InitialStates(rng.normal(size=6))
    Y, X, _ = trajectory("baseline", S, 50, g=g)
    s0 = S.values.sum()
    assert Y[-1].sum() == pytest.approx(s0, abs=1e-12 * max(1, abs(s0)))
    assert X[-1].sum() == pytest.approx(6.0, abs=1e-12)


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
    np.testing.assert_array_equal(pilot(h.gains), [2.0, 0.5, 1.5])
    Y, X, _ = trajectory("tic", InitialStates(np.array([4.0, 1.0, 1.0])), 1, channel=fixed(h))
    assert Y[0, 0] == 4.0 and X[0, 0] == 1.0
    # node 0 transmits y = 4 / 2 = 2 and x = 1 / 2; receivers 1 and 2 hear
    # only node 0, at gains 0.5 and 1.5
    assert Y[1, 1] == 1.0 and X[1, 1] == 0.25
    assert Y[1, 2] == 3.0 and X[1, 2] == 0.75


def test_tic_initialize_self_only():
    h = ChannelRealization(2, np.eye(2), 1.0)
    S = InitialStates(np.array([7.0, -1.0]))
    np.testing.assert_array_equal(pilot(h.gains), [1.0, 1.0])
    Y, X, _ = trajectory("tic", S, 1, channel=fixed(h))
    np.testing.assert_array_equal(Y[1], [7.0, -1.0])
    np.testing.assert_array_equal(X[1], [1.0, 1.0])


def test_tic_initialize_two_node_symmetry():
    h = sym_realization([[0.0, 0.8], [0.8, 0.0]], self_weight=0.0)
    sigma = pilot(h.gains)
    assert sigma[0] == sigma[1] == 0.8


def test_tic_initialize_isolated_node_named():
    h = ChannelRealization(2, np.zeros((2, 2)), 0.0)
    kernel = iterate("tic", InitialStates(np.array([1.0, 2.0])), channel=fixed(h))
    with pytest.raises(IsolationError, match="node 0 is isolated at initialization"):
        next(kernel)


def test_tic_all_equal_initial_values_pin_ratio():
    c = 5.0
    proc = ChannelProcess(
        FadingModel.half_normal(1.0),
        generate_topology(TopologySpec(kind="erdos_renyi", p=0.5), 6, seed=1),
        seed=2,
    )
    _, _, MU = trajectory("tic", InitialStates(np.full(6, c)), 50, channel=proc)
    np.testing.assert_allclose(MU, c, rtol=1e-12)


def test_tic_two_node_doubly_stochastic_limit():
    # symmetric gains with equal sigmas make the mixing matrix doubly
    # stochastic, so the ratio must converge to the plain average
    h = sym_realization([[1.0, 0.6], [0.6, 1.0]], self_weight=1.0)
    S = InitialStates(np.array([0.0, 2.0]))
    _, _, MU = trajectory("tic", S, 200, channel=fixed(h))
    np.testing.assert_allclose(MU[-1], 1.0, atol=1e-12)


def test_tic_mass_conservation_exact_channel():
    proc = ChannelProcess(
        FadingModel.uniform(0.2, 2.0),
        generate_topology(TopologySpec(kind="erdos_renyi", p=0.5), 8, seed=3),
        seed=4,
    )
    S = InitialStates(np.linspace(-3, 5, 8))
    Y, X, _ = trajectory("tic", S, 300, channel=proc)
    np.testing.assert_allclose(Y.sum(axis=1), S.values.sum(), rtol=0, atol=1e-10)
    np.testing.assert_allclose(X.sum(axis=1), 8.0, rtol=0, atol=1e-10)


# ---------------------------------------------------------------- tvc


def test_tvc_initialize_placeholders():
    # tvc has no sigma until the first block's pilot: step 0 seeds the
    # chains with (S, 1) without drawing a realization or any noise
    def no_block(k):
        raise AssertionError(f"realization {k} drawn before step 1")

    noise = np.random.default_rng(0)
    kernel = iterate("tvc", InitialStates(np.array([2.0, 3.0])),
                     channel=SimpleNamespace(realization=no_block), noise_std=0.1, noise_rng=noise)
    y_tilde, x_tilde, mu = next(kernel)
    np.testing.assert_array_equal(y_tilde, [2.0, 3.0])
    np.testing.assert_array_equal(x_tilde, [1.0, 1.0])
    np.testing.assert_array_equal(mu, [2.0, 3.0])
    assert noise.bit_generator.state == np.random.default_rng(0).bit_generator.state


def test_tvc_matches_tic_on_constant_channel():
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.5), 7, seed=5)
    proc = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=6)
    S = InitialStates(np.arange(7, dtype=float))
    Yc, Xc, _ = trajectory("tic", S, 100, channel=proc)
    # tvc re-measures every block; frozen at block 0 it must track tic
    Yv, Xv, _ = trajectory("tvc", S, 100, channel=fixed(proc.realization(0)))
    np.testing.assert_allclose(Yc, Yv, rtol=1e-12)
    np.testing.assert_allclose(Xc, Xv, rtol=1e-12)


def test_tvc_per_step_normalization_is_column_stochastic():
    from otaconsensus.analysis import audit_column_stochastic, build_Hbar

    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), 6, seed=7)
    proc = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=8)
    for k in range(40):
        audit = audit_column_stochastic(build_Hbar(proc.realization(k)))
        assert audit.is_column_stochastic


def test_tvc_deep_fade_isolation_error():
    h = ChannelRealization(2, np.zeros((2, 2)), 0.0)
    kernel = iterate("tvc", InitialStates(np.array([1.0, 2.0])), channel=fixed(h))
    next(kernel)  # step 0 is the initial values: no pilot yet
    with pytest.raises(IsolationError, match=r"node 0 is isolated at step 1: pilot sum"):
        next(kernel)


def test_tvc_stored_normalization_uses_current_block():
    # step k transmits over the sigma measured in block k - 1, the block it
    # aggregates over, never over an earlier block's sigma
    topo = generate_topology(TopologySpec(kind="ring"), 4, seed=0)
    proc = ChannelProcess(FadingModel.uniform(0.5, 1.5), topo, seed=9)
    Y, X, _ = trajectory("tvc", InitialStates(np.array([1.0, 2.0, 3.0, 4.0])), 3, channel=proc)
    for k in range(1, 4):
        gains = proc.realization(k - 1).gains
        y, x = ota_step(gains, pilot(gains), Y[k - 1], X[k - 1])
        np.testing.assert_array_equal(Y[k], y)
        np.testing.assert_array_equal(X[k], x)


# ---------------------------------------------------------------- ratio output


def test_ratio_output_division():
    np.testing.assert_array_equal(ratio(np.array([2.0, 4.0]), np.array([1.0, 2.0])), [2.0, 2.0])


def test_ratio_output_equals_initial_values_after_init():
    h = sym_realization([[1.0, 0.4], [0.4, 1.0]])
    S = InitialStates(np.array([3.5, -1.25]))
    for algorithm in ("tic", "tvc"):
        _, _, MU = trajectory(algorithm, S, 0, channel=fixed(h))
        np.testing.assert_array_equal(MU[0], S.values)


def test_ratio_output_degenerate():
    with pytest.raises(DegenerateStateError, match="node 0"):
        ratio(np.array([1.0]), np.array([0.0]))
    with pytest.raises(DegenerateStateError, match=r"node 1 .*nan at step 3"):
        ratio(np.array([1.0, 1.0]), np.array([1.0, np.nan]), " at step 3")


# ---------------------------------------------------------------- invariants


@given(seed=st.integers(min_value=0, max_value=300))
@settings(max_examples=20, deadline=None)
def test_ratio_bounds_with_self_weight(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), n, seed=seed)
    proc = ChannelProcess(FadingModel.half_normal(1.0), topo, self_weight=1.0, seed=seed)
    S = InitialStates(rng.uniform(-5, 5, size=n))
    lo, hi = S.values.min(), S.values.max()
    _, _, MU = trajectory("tvc", S, 60, channel=proc)
    assert np.all(MU >= lo - 1e-12) and np.all(MU <= hi + 1e-12)


@given(seed=st.integers(min_value=0, max_value=300))
@settings(max_examples=15, deadline=None)
def test_scale_and_shift_equivariance(seed):
    rng = np.random.default_rng(seed)
    n = 5
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), n, seed=seed)
    proc = ChannelProcess(FadingModel.uniform(0.3, 1.7), topo, seed=seed)
    base_vals = rng.uniform(-2, 2, size=n)
    c = 3.7
    d = -2.0
    hists = {}
    for tag, vals in (("base", base_vals), ("scaled", c * base_vals), ("shifted", base_vals + d)):
        hists[tag] = trajectory("tvc", InitialStates(vals), 50, channel=proc)[2]
    np.testing.assert_allclose(hists["scaled"], c * hists["base"], atol=1e-12)
    np.testing.assert_allclose(hists["shifted"], hists["base"] + d, atol=1e-12)


def test_baseline_and_tic_agree_on_limit():
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), 6, seed=10)
    S = InitialStates(np.array([4.0, -2.0, 0.5, 1.5, 3.0, -1.0]))
    target = S.mean()

    proc = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=11)
    tic_mu = trajectory("tic", S, 2000, channel=proc)[2][-1]
    base_mu = trajectory("baseline", S, 2000, g=topo)[2][-1]

    np.testing.assert_allclose(tic_mu, target, atol=1e-8)
    np.testing.assert_allclose(base_mu, target, atol=1e-8)
    np.testing.assert_allclose(tic_mu, base_mu, atol=1e-8)
