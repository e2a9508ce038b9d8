import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otaconsensus.analysis import (
    LimitEstimate,
    PeriodicityError,
    audit_column_stochastic,
    build_Hbar,
    mass_audit,
    matrix_oracle,
    stationary_limit,
)
from otaconsensus.channel import ChannelProcess, ChannelRealization, FadingModel
from otaconsensus.protocol import (
    DegenerateStateError,
    InitialStates,
    IsolationError,
    ratio_output,
    tic_initialize,
    tic_step,
    tvc_initialize,
    tvc_step,
)
from otaconsensus.topology import TopologySpec, generate_topology


def sym_realization(gains, self_weight=1.0):
    g = np.asarray(gains, dtype=float)
    return ChannelRealization(g.shape[0], g, self_weight)


# ---------------------------------------------------------------- build_Hbar


def test_build_hbar_uniform():
    h = sym_realization([[1.0, 1.0], [1.0, 1.0]])
    np.testing.assert_array_equal(build_Hbar(h), np.full((2, 2), 0.5))


def test_build_hbar_arithmetic():
    h = sym_realization([[1.0, 2.0], [2.0, 1.0]])
    np.testing.assert_allclose(build_Hbar(h), [[1 / 3, 2 / 3], [2 / 3, 1 / 3]], atol=1e-16)


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=40)
def test_build_hbar_column_stochastic_under_reciprocity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), n, seed=seed)
    proc = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=seed, time_varying=True)
    audit = audit_column_stochastic(build_Hbar(proc.realization(int(rng.integers(0, 10)))))
    assert audit.is_column_stochastic
    assert audit.max_column_sum_error <= 1e-12
    assert audit.min_entry >= 0


def test_build_hbar_breaks_without_reciprocity():
    # the stochasticity rests on row sums equaling column sums
    h = ChannelRealization(2, np.array([[1.0, 0.3], [0.7, 1.0]]), 1.0)
    audit = audit_column_stochastic(build_Hbar(h))
    assert not audit.is_column_stochastic
    assert audit.max_column_sum_error > 1e-2


def test_build_hbar_isolated_node():
    h = ChannelRealization(2, np.zeros((2, 2)), 0.0)
    with pytest.raises(IsolationError, match="node 0"):
        build_Hbar(h)


# ---------------------------------------------------------------- audit


def test_audit_identity():
    a = audit_column_stochastic(np.eye(4))
    assert a.is_column_stochastic and a.max_column_sum_error == 0.0 and a.min_entry == 0.0


def test_audit_off_by_tenth():
    a = audit_column_stochastic(np.array([[0.9, 0.5], [0.2, 0.5]]))
    assert not a.is_column_stochastic
    assert a.max_column_sum_error == pytest.approx(0.1, abs=1e-15)


def test_audit_negative_entry_rejected():
    a = audit_column_stochastic(np.array([[1.5, 0.0], [-0.5, 1.0]]))
    assert not a.is_column_stochastic
    assert a.min_entry == -0.5


def test_audit_needs_square():
    with pytest.raises(ValueError, match="square"):
        audit_column_stochastic(np.ones((2, 3)))


# ---------------------------------------------------------------- matrix oracle


def test_oracle_k0_returns_initials():
    h = sym_realization([[1.0, 0.5], [0.5, 1.0]])
    S = InitialStates(np.array([4.0, -2.0]))
    Y, X, MU = matrix_oracle([h], S, 0)
    np.testing.assert_array_equal(Y, [[4.0, -2.0]])
    np.testing.assert_array_equal(X, [[1.0, 1.0]])
    np.testing.assert_array_equal(MU, [[4.0, -2.0]])


def test_oracle_constant_sequence_equals_matrix_powers():
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), 5, seed=20)
    proc = ChannelProcess(FadingModel.uniform(0.2, 1.8), topo, seed=21)
    h = proc.realization(0)
    S = InitialStates(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    k_max = 30
    Y, X, MU = matrix_oracle([h] * k_max, S, k_max)
    hbar = build_Hbar(h)
    for k in (0, 1, 7, 30):
        pk = np.linalg.matrix_power(hbar, k)
        np.testing.assert_allclose(Y[k], pk @ S.values, atol=1e-10)
        np.testing.assert_allclose(X[k], pk @ np.ones(5), atol=1e-10)


def test_oracle_validates_sequence_length():
    h = sym_realization([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match="realizations"):
        matrix_oracle([h], InitialStates(np.array([1.0, 2.0])), 5)


def test_oracle_matches_protocol_tic():
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), 6, seed=22)
    proc = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=23)
    h = proc.realization(0)
    S = InitialStates(np.array([3.0, -1.0, 0.0, 2.5, 4.0, -2.0]))
    k_max = 100
    Y, X, MU = matrix_oracle([h] * k_max, S, k_max)
    states = tic_initialize(S, h)
    for k in range(1, k_max + 1):
        states = tic_step(states, h)
        np.testing.assert_allclose([st.y_tilde for st in states], Y[k], atol=1e-10)
        np.testing.assert_allclose([st.x_tilde for st in states], X[k], atol=1e-10)
        np.testing.assert_allclose(ratio_output(states), MU[k], atol=1e-10)


def test_oracle_matches_protocol_tvc():
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), 6, seed=24)
    proc = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=25, time_varying=True)
    S = InitialStates(np.array([3.0, -1.0, 0.0, 2.5, 4.0, -2.0]))
    k_max = 100
    h_seq = [proc.realization(k) for k in range(k_max)]
    Y, X, MU = matrix_oracle(h_seq, S, k_max)
    states = tvc_initialize(S)
    for k in range(1, k_max + 1):
        states = tvc_step(states, h_seq[k - 1])
        np.testing.assert_allclose([st.y_tilde for st in states], Y[k], atol=1e-10)
        np.testing.assert_allclose([st.x_tilde for st in states], X[k], atol=1e-10)


# ---------------------------------------------------------------- stationary limit


def test_stationary_limit_hand_solved():
    hbar = np.array([[0.5, 0.25], [0.5, 0.75]])
    est = stationary_limit(hbar, InitialStates(np.array([1.0, 2.0])))
    np.testing.assert_allclose(est.eigenvector, [1 / 3, 2 / 3], atol=1e-10)
    assert est.predicted_limit == 1.5


def test_stationary_limit_doubly_stochastic_uniform():
    hbar = build_Hbar(sym_realization([[1.0, 0.6], [0.6, 1.0]]))
    est = stationary_limit(hbar, InitialStates(np.array([0.0, 2.0])))
    np.testing.assert_allclose(est.eigenvector, [0.5, 0.5], atol=1e-10)
    assert est.predicted_limit == 1.0


@given(seed=st.integers(min_value=0, max_value=200))
@settings(max_examples=25, deadline=None)
def test_stationary_limit_is_mean_and_fixed_point(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), n, seed=seed)
    proc = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=seed)
    hbar = build_Hbar(proc.realization(0))
    S = InitialStates(rng.uniform(-4, 4, size=n))
    est = stationary_limit(hbar, S)
    assert est.predicted_limit == S.mean()
    assert np.all(est.eigenvector > 0)
    assert est.eigenvector.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(hbar @ est.eigenvector - est.eigenvector)) <= 1e-10


def test_stationary_limit_rejects_periodic():
    # pure swap matrix: bipartite support, no self terms
    hbar = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(PeriodicityError):
        stationary_limit(hbar, InitialStates(np.array([0.0, 2.0])))


def test_stationary_limit_rejects_nonstochastic():
    with pytest.raises(ValueError, match="column-stochastic"):
        stationary_limit(np.array([[0.9, 0.5], [0.2, 0.5]]), InitialStates(np.array([1.0, 2.0])))


def test_wielandt_boundary_case():
    # directed n-cycle plus one extra edge needs the full Wielandt exponent
    # to go positive; it is primitive and must be accepted
    n = 4
    h = np.zeros((n, n))
    for i in range(n):
        h[(i + 1) % n, i] = 1.0
    h[1, n - 1] = 1.0
    # make it column stochastic directly
    h = h / h.sum(axis=0, keepdims=True)
    est = stationary_limit(h, InitialStates(np.ones(n)))
    assert est.predicted_limit == 1.0


def test_immutable_eigenvector():
    est = LimitEstimate(eigenvector=np.array([0.5, 0.5]), predicted_limit=1.0)
    with pytest.raises(ValueError):
        est.eigenvector[0] = 2.0


# ---------------------------------------------------------------- mass audit


def test_mass_audit_single_step_zero():
    S = InitialStates(np.array([1.0, 3.0]))
    Y = np.array([[1.0, 3.0]])
    X = np.array([[1.0, 1.0]])
    assert mass_audit((Y, X), S) == (0.0, 0.0)


def test_mass_audit_long_tic_run():
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.5), 10, seed=30)
    proc = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=31)
    h = proc.realization(0)
    S = InitialStates(np.random.default_rng(32).uniform(0, 2, size=10))
    k_max = 1000
    traj = matrix_oracle([h] * k_max, S, k_max)
    drift_y, drift_x = mass_audit(traj, S)
    assert drift_y <= 1e-9 and drift_x <= 1e-9


def test_mass_audit_flags_non_reciprocal():
    # corrupt one direction of one link; conservation must visibly fail
    gains = np.array(
        [
            [1.0, 0.9, 0.0],
            [0.2, 1.0, 0.8],
            [0.0, 0.8, 1.0],
        ]
    )
    h = ChannelRealization(3, gains, 1.0)
    S = InitialStates(np.array([1.0, 2.0, 3.0]))
    traj = matrix_oracle([h] * 100, S, 100)
    drift_y, drift_x = mass_audit(traj, S)
    assert drift_y > 1e-3 and drift_x > 1e-3


def test_mass_audit_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        mass_audit([], InitialStates(np.array([1.0, 2.0])))
