import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otaconsensus.channel import FadingModel
from otaconsensus.simulator import (
    TRAJECTORY_FIELDS,
    InitialSpec,
    SimulationConfig,
    Trajectory,
    make_initial_values,
    prepare,
    run,
    stream_seeds,
)
from otaconsensus.topology import TopologySpec


from standin import base_config


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ValueError, match="n must"):
        base_config(n=1)
    with pytest.raises(ValueError, match="algorithm"):
        base_config(algorithm="gossip")
    with pytest.raises(ValueError, match="max_iters"):
        base_config(max_iters=0)
    with pytest.raises(ValueError, match="tol must"):
        base_config(tol=0.0)
    with pytest.raises(ValueError, match="tol_window"):
        base_config(tol_window=0)
    with pytest.raises(ValueError, match="B must"):
        base_config(B=0)
    with pytest.raises(ValueError, match="noise_std must be finite and nonnegative, got -0.1"):
        base_config(noise_std=-0.1)
    with pytest.raises(ValueError, match="deep_fade"):
        base_config(deep_fade=True)  # algorithm stays tic
    with pytest.raises(ValueError, match=r"pair \(0,1\).*baseline"):
        base_config(algorithm="baseline", pair_scales=(((0, 1), 2.0),))
    with pytest.raises(ValueError, match="explicit initial"):
        base_config(initial=InitialSpec.explicit([1.0, 2.0]))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_every_real_field_rejects_non_finite(bad):
    builds = [
        lambda: base_config(tol=bad),
        lambda: base_config(epsilon=bad),
        lambda: base_config(self_weight=bad),
        lambda: base_config(pair_scales=(((0, 1), bad),)),
        lambda: base_config(noise_std=bad),
        lambda: FadingModel.constant(bad),
        lambda: FadingModel.half_normal(bad),
        lambda: FadingModel.uniform(bad, 1.0),
        lambda: FadingModel.uniform(0.5, bad),
        lambda: InitialSpec.random_mean(bad, 1.0),
        lambda: InitialSpec.random_mean(1.0, bad),
    ]
    for build in builds:
        with pytest.raises(ValueError, match="finite"):
            build()


def test_initial_spec_validation():
    with pytest.raises(ValueError, match="half_width"):
        InitialSpec.random_mean(1.0, -0.5)
    with pytest.raises(ValueError, match="nonempty"):
        InitialSpec.explicit([])
    with pytest.raises(ValueError, match="unknown initial kind"):
        InitialSpec("gaussian")


@pytest.mark.parametrize("call, message", [
    (lambda: InitialSpec("random_mean", target_mean=1.0), "random_mean needs target_mean and half_width"),
    (lambda: Trajectory(np.ones((3, 2)), np.ones((3, 2)), np.ones((3, 3))),
     "trajectory fields must share a (steps, n) shape, got [(3, 2), (3, 3)]"),
    (lambda: Trajectory(np.ones(3), np.ones(3), np.ones(3)), "trajectory fields must share a (steps, n) shape, got [(3,)]"),
])
def test_initial_spec_and_trajectory_refuse_malformed_fields(call, message):
    with pytest.raises(ValueError) as refused:
        call()
    assert str(refused.value) == message


# ---------------------------------------------------------------- initial values


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=50)
def test_random_mean_recenters_exactly(seed):
    S = make_initial_values(InitialSpec.random_mean(1.0, 1.0), 10, seed)
    assert S.values.mean() == pytest.approx(1.0, abs=1e-12)
    # the recentering shift can push values past the drawn interval, but
    # never past twice the half width
    assert np.all(np.abs(S.values - 1.0) <= 2.0 + 1e-9)


def test_explicit_initial_values():
    S = make_initial_values(InitialSpec.explicit([0.0, 2.0]), 2, seed=0)
    assert S.mean() == 1.0
    with pytest.raises(ValueError, match="length 2, expected n=3"):
        base_config(n=3, initial=InitialSpec.explicit([0.0, 2.0]))


def test_half_width_zero_degenerate():
    S = make_initial_values(InitialSpec.random_mean(2.5, 0.0), 5, seed=3)
    np.testing.assert_array_equal(S.values, np.full(5, 2.5))


def test_stream_seeds_stable_and_distinct():
    a = stream_seeds(42)
    assert a == stream_seeds(42)
    assert len(set(a)) == 4
    assert a != stream_seeds(43)


# ---------------------------------------------------------------- runs


def test_tic_run_converges_to_target():
    _, summary = run(base_config())
    assert summary.converged
    assert summary.final_max_error <= 1e-8
    assert summary.target_average == pytest.approx(1.0, abs=1e-12)
    assert summary.epsilon_B_satisfied is None
    assert summary.mass_drift_y <= 1e-9 and summary.mass_drift_x <= 1e-9


def test_run_is_deterministic():
    r1, s1 = run(base_config())
    r2, s2 = run(base_config())
    assert s1 == s2
    assert r1 == r2


def test_records_shape_and_order():
    cfg = base_config(max_iters=50, tol=1e-300)
    traj, summary = run(cfg)
    assert summary.iterations_used == 50
    assert len(traj) == 51 * cfg.n
    for name in TRAJECTORY_FIELDS:
        values = getattr(traj, name)
        assert values.shape == (51, cfg.n)
        assert not values.flags.writeable



def test_trajectory_copies_a_callers_writable_arrays():
    # a caller's writable arrays, or lists, are copied: changing them later
    # leaves the trajectory as built; read-only float64 arrays are held
    y, x, mu = np.arange(6.0).reshape(3, 2), np.ones((3, 2)), [[0.5, 1.0]] * 3
    traj = Trajectory(y, x, mu)
    y[:] = -1.0
    x[0, 0] = 7.0
    mu[0] = [9.0, 9.0]
    assert traj == Trajectory(np.arange(6.0).reshape(3, 2), np.ones((3, 2)), [[0.5, 1.0]] * 3)
    assert not any(getattr(traj, name).flags.writeable for name in TRAJECTORY_FIELDS)
    assert Trajectory(traj.y_tilde, traj.x_tilde, traj.mu).mu is traj.mu
    assert traj != (traj.y_tilde, traj.x_tilde, traj.mu)  # only a Trajectory equals one

def test_all_equal_initials_converge_at_window():
    cfg = base_config(initial=InitialSpec.explicit([5.0] * 10), tol_window=10)
    _, summary = run(cfg)
    assert summary.converged
    assert summary.iterations_used == 10
    # power-of-two equal values keep the ratio bit-exact
    cfg2 = base_config(initial=InitialSpec.explicit([4.0] * 10))
    traj2, summary2 = run(cfg2)
    assert summary2.converged
    assert np.all(traj2.mu == 4.0)


def test_step0_records_raw_initials():
    cfg = base_config(initial=InitialSpec.explicit(list(np.linspace(-1, 3, 10))))
    traj, _ = run(cfg)
    np.testing.assert_array_equal(traj.y_tilde[0], np.linspace(-1, 3, 10))
    np.testing.assert_array_equal(traj.x_tilde[0], np.ones(10))
    np.testing.assert_array_equal(traj.mu[0], np.linspace(-1, 3, 10))


def test_tvc_run_converges_and_reports_connectivity():
    cfg = base_config(algorithm="tvc", max_iters=2000)
    traj, summary = run(cfg)
    assert summary.converged
    assert summary.final_max_error <= 1e-6
    assert summary.epsilon_B_satisfied is True
    # individual chains move even near convergence; the ratio does not
    deltas = np.abs(np.diff(traj.y_tilde[10:], axis=0))
    assert deltas.max() > 1e-3


def test_baseline_run_hits_prop1_limit():
    cfg = base_config(algorithm="baseline", max_iters=5000)
    _, summary = run(cfg)
    assert summary.converged
    assert summary.final_max_error <= cfg.tol


def test_non_convergence_is_reported_not_raised():
    cfg = base_config(max_iters=3)
    _, summary = run(cfg)
    assert not summary.converged
    assert summary.iterations_used == 3


def test_bipartite_without_self_weight_never_converges():
    cfg = SimulationConfig(
        n=2,
        topology=TopologySpec(kind="ring"),
        algorithm="tic",
        fading=FadingModel.constant(1.0),
        initial=InitialSpec.explicit([0.0, 2.0]),
        seed=0,
        self_weight=0.0,
        max_iters=500,
    )
    traj, summary = run(cfg)
    assert not summary.converged
    # the two ratios swap forever: spread stays at 2 at every recorded step
    assert all(np.ptp(mus) == 2.0 for mus in traj.mu)


def test_noise_perturbs_but_keeps_determinism():
    cfg = base_config(noise_std=1e-6, max_iters=200)
    r1, s1 = run(cfg)
    r2, s2 = run(cfg)
    assert r1 == r2 and s1 == s2
    clean, _ = run(base_config(max_iters=200))
    assert r1 != clean
    # same master seed, so the channel and initial values are untouched:
    # step-0 rows agree exactly
    for name in TRAJECTORY_FIELDS:
        np.testing.assert_array_equal(getattr(r1, name)[0], getattr(clean, name)[0])


def test_tic_requires_strong_connectivity(tmp_path):
    f = tmp_path / "disconnected.edges"
    f.write_text("0 1\n2 3\n")
    cfg = base_config(
        n=4,
        topology=TopologySpec(kind="edge_list", path=str(f)),
    )
    with pytest.raises(ValueError, match="strongly connected"):
        run(cfg)


def test_prepare_rebuilds_identical_channel():
    cfg = base_config(algorithm="tvc", max_iters=77)
    g1, ch1, S1, rng1, budget1 = prepare(cfg)
    g2, ch2, S2, rng2, budget2 = prepare(cfg)
    assert g1 == g2
    np.testing.assert_array_equal(S1.values, S2.values)
    for k in (0, 3, 17):
        np.testing.assert_array_equal(ch1.realization(k).gains, ch2.realization(k).gains)
    np.testing.assert_array_equal(rng1.normal(size=5), rng2.normal(size=5))
    assert budget1 == budget2 == 77


def test_deep_fade_run_still_converges():
    cfg = base_config(algorithm="tvc", deep_fade=True, max_iters=2000)
    _, summary = run(cfg)
    assert summary.converged
    assert summary.epsilon_B_satisfied is True


def test_scale_shift_equivariance_at_run_level():
    vals = list(np.linspace(-1.0, 3.0, 10))
    base_cfg = base_config(initial=InitialSpec.explicit(vals), max_iters=300)
    scaled_cfg = base_config(initial=InitialSpec.explicit([3.7 * v for v in vals]), max_iters=300)
    shifted_cfg = base_config(initial=InitialSpec.explicit([v - 2.0 for v in vals]), max_iters=300)
    rb, _ = run(base_cfg)
    rs, _ = run(scaled_cfg)
    rh, _ = run(shifted_cfg)
    steps_common = min(len(rb.mu), len(rs.mu), len(rh.mu))
    b, s, h = (r.mu[:steps_common] for r in (rb, rs, rh))
    np.testing.assert_allclose(s, 3.7 * b, rtol=0, atol=1e-12)
    np.testing.assert_allclose(h, b - 2.0, rtol=0, atol=1e-12)
