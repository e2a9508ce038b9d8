import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otaconsensus.analysis import (
    PeriodicityError,
    audit_column_stochastic,
    build_Hbar,
    mass_audit,
    matrix_oracle,
    stationary_limit,
)
from otaconsensus.channel import FADING_KINDS, ChannelProcess, FadingModel, epoch_blocks
from otaconsensus.protocol import InitialStates, IsolationError, NonFiniteStateError
from otaconsensus.simulator import InitialSpec, SimulationConfig, _drive, prepare
from otaconsensus.topology import TopologySpec, generate_topology


# ---------------------------------------------------------------- build_Hbar


def test_build_hbar_uniform():
    h = np.array([[1.0, 1.0], [1.0, 1.0]])
    np.testing.assert_array_equal(build_Hbar(h), np.full((2, 2), 0.5))


def test_build_hbar_arithmetic():
    h = np.array([[1.0, 2.0], [2.0, 1.0]])
    np.testing.assert_allclose(build_Hbar(h), [[1 / 3, 2 / 3], [2 / 3, 1 / 3]], atol=1e-16)


@given(seed=st.integers(min_value=0, max_value=500))
@settings(max_examples=40)
def test_build_hbar_column_stochastic_under_reciprocity(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 9))
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), n, seed=seed)
    proc = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=seed)
    audit = audit_column_stochastic(build_Hbar(proc.realization(int(rng.integers(0, 10))).gains))
    assert audit.is_column_stochastic
    assert audit.max_column_sum_error <= 1e-12
    assert audit.min_entry >= 0


def test_build_hbar_breaks_without_reciprocity():
    # the stochasticity rests on row sums equaling column sums
    h = np.array([[1.0, 0.3], [0.7, 1.0]])
    audit = audit_column_stochastic(build_Hbar(h))
    assert not audit.is_column_stochastic
    assert audit.max_column_sum_error > 1e-2


def test_build_hbar_isolated_node():
    h = np.zeros((2, 2))
    with pytest.raises(IsolationError, match="node 0"):
        build_Hbar(h)


#: A model of each fading kind, its parameters drawn; a kind missing here fails the test that draws one
FADING_MODELS = {
    "constant": st.builds(FadingModel.constant, st.floats(1e-3, 1e3)),
    "half_normal": st.builds(FadingModel.half_normal, st.floats(1e-3, 1e3)),
    "uniform": st.tuples(st.floats(1e-3, 1e3), st.floats(1.0, 1e3)).map(
        lambda lh: FadingModel.uniform(lh[0], lh[0] * lh[1])),
}


@given(n=st.integers(2, 70), model=st.sampled_from(FADING_KINDS).flatmap(FADING_MODELS.__getitem__),
       seed=st.integers(0, 2**32 - 1), e=st.integers(0, 3), deep_fade=st.booleans())
@settings(max_examples=60, deadline=None)
def test_stacked_build_hbar_and_audit_equal_each_block_alone(n, model, seed, e, deep_fade):
    # an epoch of T = 64 (n <= 11) down to 1 (n >= 65) blocks, normalized
    # and audited as one stack: each matrix is bitwise the block's alone,
    # and the stack's audit is the worst of the blocks' audits, of the
    # mixing matrices and of the raw gains, which are not stochastic
    T = epoch_blocks(n)
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.5), n, seed=seed)
    proc = ChannelProcess(model, topo, self_weight=1.0, seed=seed, deep_fade_epsilon=1e-3 if deep_fade else None)
    epoch = np.empty((T, n, n))
    proc.write_epoch(e, epoch)
    hbars = build_Hbar(epoch, e * T + 1)
    assert hbars.shape == (T, n, n)
    for block, hbar in zip(epoch, hbars):
        assert build_Hbar(block).tobytes() == hbar.tobytes()
    assert build_Hbar(np.stack([epoch, epoch])).tobytes() == np.stack([hbars, hbars]).tobytes()
    for stack in (hbars, epoch):
        audit, alone = audit_column_stochastic(stack), [audit_column_stochastic(m) for m in stack]
        assert audit.max_column_sum_error == max(a.max_column_sum_error for a in alone)
        assert audit.min_entry == min(a.min_entry for a in alone)
        assert audit.is_column_stochastic == all(a.is_column_stochastic for a in alone)


@pytest.mark.parametrize("faults, step, error, message", [
    ([(1, "isolated", 2), (2, "overflowed", 0)], 5, IsolationError,
     "node 2 is isolated at step 6: pilot sum 0.0 <= 1e-12"),
    ([(1, "overflowed", 0), (2, "isolated", 2)], 5, NonFiniteStateError,
     "node 0 overflowed at step 6: pilot sum inf is not finite"),
    ([(1, "overflowed", 0), (1, "isolated", 2)], 5, IsolationError,
     "node 2 is isolated at step 6: pilot sum 0.0 <= 1e-12"),
    ([(2, "isolated", 1)], None, IsolationError, "node 1 is isolated: pilot sum 0.0 <= 1e-12"),
], ids=["isolation-first", "overflow-first", "one-block-isolation-before-overflow", "no-step"])
def test_stacked_build_hbar_refuses_its_first_failing_block(faults, step, error, message):
    # three blocks read from the given step on: the first block holding a
    # sum it cannot divide by is refused, named by the step that reads it,
    # whatever a later block holds; within a block, isolation comes first
    stack = np.ones((3, 3, 3))
    for b, fault, j in faults:
        if fault == "isolated":
            stack[b, j] = stack[b, :, j] = 0.0
        else:
            stack[b, j] = 1e308
    with pytest.raises(error) as refused:
        build_Hbar(stack, step)
    assert str(refused.value) == message


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
    h = np.array([[1.0, 0.5], [0.5, 1.0]])
    S = InitialStates(np.array([4.0, -2.0]))
    Y, X, MU = matrix_oracle([build_Hbar(h)], S, 0)
    np.testing.assert_array_equal(Y, [[4.0, -2.0]])
    np.testing.assert_array_equal(X, [[1.0, 1.0]])
    np.testing.assert_array_equal(MU, [[4.0, -2.0]])


def test_oracle_constant_sequence_equals_matrix_powers():
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), 5, seed=20)
    proc = ChannelProcess(FadingModel.uniform(0.2, 1.8), topo, seed=21)
    h = proc.realization(0)
    S = InitialStates(np.array([1.0, 2.0, 3.0, 4.0, 5.0]))
    k_max = 30
    hbar = build_Hbar(h.gains)
    Y, X, MU = matrix_oracle([hbar] * k_max, S, k_max)
    for k in (0, 1, 7, 30):
        pk = np.linalg.matrix_power(hbar, k)
        np.testing.assert_allclose(Y[k], pk @ S.values, atol=1e-10)
        np.testing.assert_allclose(X[k], pk @ np.ones(5), atol=1e-10)


def test_oracle_validates_sequence_length():
    h = np.array([[1.0, 0.5], [0.5, 1.0]])
    with pytest.raises(ValueError, match="mixing matrices"):
        matrix_oracle([build_Hbar(h)], InitialStates(np.array([1.0, 2.0])), 5)


def test_oracle_matches_protocol_tic():
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), 6, seed=22)
    proc = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=23)
    h = proc.realization(0)
    S = InitialStates(np.array([3.0, -1.0, 0.0, 2.5, 4.0, -2.0]))
    k_max = 100
    Y, X, MU = matrix_oracle([build_Hbar(h.gains)] * k_max, S, k_max)
    (_, rows), = _drive("tic", [lambda: (None, proc, S, None, k_max)], record=True)
    for k, (y_tilde, x_tilde, mu) in enumerate(zip(*rows)):
        np.testing.assert_allclose(y_tilde, Y[k], atol=1e-10)
        np.testing.assert_allclose(x_tilde, X[k], atol=1e-10)
        np.testing.assert_allclose(mu, MU[k], atol=1e-10)


def test_oracle_matches_protocol_tvc():
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), 6, seed=24)
    proc = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=25)
    S = InitialStates(np.array([3.0, -1.0, 0.0, 2.5, 4.0, -2.0]))
    k_max = 100
    h_seq = [build_Hbar(proc.realization(k).gains) for k in range(k_max)]
    Y, X, MU = matrix_oracle(h_seq, S, k_max)
    (_, rows), = _drive("tvc", [lambda: (None, proc, S, None, k_max)], record=True)
    for k, (y_tilde, x_tilde, _) in enumerate(zip(*rows)):
        np.testing.assert_allclose(y_tilde, Y[k], atol=1e-10)
        np.testing.assert_allclose(x_tilde, X[k], atol=1e-10)


# ---------------------------------------------------------------- stationary limit


def test_stationary_limit_hand_solved():
    hbar = np.array([[0.5, 0.25], [0.5, 0.75]])
    v = stationary_limit(hbar, InitialStates(np.array([1.0, 2.0])))
    np.testing.assert_allclose(v, [1 / 3, 2 / 3], atol=1e-10)


def test_stationary_limit_doubly_stochastic_uniform():
    hbar = build_Hbar(np.array([[1.0, 0.6], [0.6, 1.0]]))
    v = stationary_limit(hbar, InitialStates(np.array([0.0, 2.0])))
    np.testing.assert_allclose(v, [0.5, 0.5], atol=1e-10)


@given(seed=st.integers(min_value=0, max_value=200))
@settings(max_examples=25, deadline=None)
def test_stationary_limit_is_mean_and_fixed_point(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 8))
    topo = generate_topology(TopologySpec(kind="erdos_renyi", p=0.6), n, seed=seed)
    proc = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=seed)
    hbar = build_Hbar(proc.realization(0).gains)
    S = InitialStates(rng.uniform(-4, 4, size=n))
    v = stationary_limit(hbar, S)
    assert np.all(v > 0)
    assert v.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(hbar @ v - v)) <= 1e-10


def test_stationary_limit_matches_exact_on_slow_mixing_ring():
    # a 200-node ring mixes slowly: a step-size stopping rule halts about
    # 1e-6 away from the fixed point, the direct solve does not. For a
    # reciprocal block the limit is exact: Hbar sigma = G 1 = sigma for the
    # column sums sigma, so the reference is sigma / sum(sigma) (np.linalg.eig
    # strays up to 1.6e-10 from it on this ring's seeds)
    n = 200
    topo = generate_topology(TopologySpec(kind="ring"), n, seed=0)
    block = ChannelProcess(FadingModel.half_normal(1.0), topo, seed=1).realization(0)
    v = stationary_limit(build_Hbar(block.gains), InitialStates(np.linspace(-1.0, 1.0, n)))
    sigma = block.gains.sum(axis=0)
    ref = sigma / sigma.sum()
    assert np.max(np.abs(v - ref)) <= 1e-10 * np.max(np.abs(ref))


@pytest.mark.parametrize("mean", [1e4, 1e9])
def test_stationary_limit_identity_scales_with_mean(mean):
    # (v * total) / (v * n) = total / n for every positive v, so the identity
    # can fail only by rounding, which grows with |mean|; the static block
    # of configs/tic10.cfg
    cfg = SimulationConfig(n=10, topology=TopologySpec("erdos_renyi", p=0.5), algorithm="tic",
                           fading=FadingModel.half_normal(1.0),
                           initial=InitialSpec.random_mean(mean, 1.0), seed=42)
    _, channel, S, *_ = prepare(cfg)
    v = stationary_limit(build_Hbar(channel.realization(0).gains), S)
    assert np.all(v > 0)
    assert v.sum() == pytest.approx(1.0, abs=1e-12)


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
    v = stationary_limit(h, InitialStates(np.ones(n)))
    assert np.all(v > 0)
    assert v.sum() == pytest.approx(1.0, abs=1e-12)


def test_immutable_eigenvector():
    v = stationary_limit(np.array([[0.5, 0.25], [0.5, 0.75]]), InitialStates(np.array([1.0, 2.0])))
    assert not v.flags.writeable
    with pytest.raises(ValueError):
        v[0] = 2.0


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
    traj = matrix_oracle([build_Hbar(h.gains)] * k_max, S, k_max)
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
    S = InitialStates(np.array([1.0, 2.0, 3.0]))
    traj = matrix_oracle([build_Hbar(gains)] * 100, S, 100)
    drift_y, drift_x = mass_audit(traj, S)
    assert drift_y > 1e-3 and drift_x > 1e-3


def test_mass_audit_empty_rejected():
    with pytest.raises(ValueError, match="empty"):
        mass_audit([], InitialStates(np.array([1.0, 2.0])))


@pytest.mark.parametrize("call, message", [
    (lambda: matrix_oracle([], InitialStates([1.0, 2.0]), -1), "k_max must be nonnegative, got -1"),
    (lambda: matrix_oracle([np.full((3, 3), 1 / 3)], InitialStates([1.0, 2.0]), 1),
     "mixing matrix 0 is 3-node, expected 2"),
    (lambda: stationary_limit(np.full((2, 2), 0.5), InitialStates([1.0, 2.0, 3.0])),
     "got 3 initial values for 2-node matrix"),
    (lambda: mass_audit((np.ones((3, 2)), np.ones((3, 3))), InitialStates([1.0, 2.0])),
     "array trajectories must share a (steps, n) shape, got (3, 2) and (3, 3)"),
    (lambda: mass_audit((np.ones((3, 2)), np.ones((3, 2))), InitialStates([1.0, 2.0, 3.0])),
     "trajectory is over 2 nodes but got 3 initial values"),
])
def test_analysis_refuses_mismatched_arguments(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message
