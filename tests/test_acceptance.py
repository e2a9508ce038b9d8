"""End-to-end acceptance checks for the consensus toolkit.

Each test prints exactly one verdict line of the form

    [acceptance] NN <name>: PASS|FAIL

so a plain ``pytest tests/test_acceptance.py`` run doubles as the acceptance
report.  Tolerances are pinned here and nowhere else; do not loosen them to
make a failing build pass.
"""

from contextlib import contextmanager
from itertools import islice
from time import perf_counter
from types import SimpleNamespace

import numpy as np
import pytest

from otaconsensus.analysis import (
    PeriodicityError,
    audit_column_stochastic,
    build_Hbar,
    mass_audit,
    matrix_oracle,
    stationary_limit,
)
from otaconsensus.channel import ChannelRealization, FadingModel
from otaconsensus.protocol import InitialStates
from otaconsensus.simulator import (
    InitialSpec,
    SimulationConfig,
    iterate,
    prepare,
    run,
    spread,
)
from otaconsensus.topology import TopologySpec, check_epsilon_B_connectivity

N_SEEDS = 10


def make_config(algorithm: str, seed: int, **kw) -> SimulationConfig:
    defaults = dict(
        n=10,
        topology=TopologySpec("erdos_renyi", p=0.5),
        algorithm=algorithm,
        fading=FadingModel.half_normal(1.0),
        initial=InitialSpec.random_mean(1.0, 1.0),
        seed=seed,
        self_weight=1.0,
    )
    defaults.update(kw)
    return SimulationConfig(**defaults)


def kernel_rows(algorithm: str, S: InitialStates, channel, steps: int):
    """The stepping kernel's y_tilde, x_tilde and ratio for steps 0..steps,
    each as a (steps + 1, n) array."""
    rows = islice(iterate(algorithm, S, channel=channel), steps + 1)
    return tuple(np.array(a) for a in zip(*rows))


@pytest.fixture
def criterion(capsys):
    @contextmanager
    def _criterion(num: int, name: str):
        try:
            yield
        except BaseException:
            with capsys.disabled():
                print(f"[acceptance] {num:02d} {name}: FAIL")
            raise
        else:
            with capsys.disabled():
                print(f"[acceptance] {num:02d} {name}: PASS")

    return _criterion


@pytest.fixture(scope="module")
def tic_runs():
    out = {}
    for seed in range(N_SEEDS):
        cfg = make_config("tic", seed, max_iters=500, tol=1e-12)
        t0 = perf_counter()
        traj, summary = run(cfg)
        out[seed] = (cfg, traj, summary, perf_counter() - t0)
    return out


@pytest.fixture(scope="module")
def tvc_runs():
    out = {}
    for seed in range(N_SEEDS):
        cfg = make_config("tvc", seed, max_iters=2000, tol=1e-9)
        traj, summary = run(cfg)
        out[seed] = (cfg, traj, summary)
    return out


def test_01_tic_reaches_target(criterion, tic_runs):
    with criterion(1, "tic_reaches_target_10_seeds"):
        for seed, (cfg, traj, summary, dt) in tic_runs.items():
            assert summary.converged, f"seed {seed} did not converge"
            assert summary.iterations_used <= 500
            mu_final = traj.mu[-1]
            err = np.max(np.abs(mu_final - 1.0))
            assert err <= 1e-8, f"seed {seed}: max error {err:.3e}"
            assert dt < 1.0, f"seed {seed}: run took {dt:.2f}s"


def test_02_tvc_reaches_target_under_variation(criterion, tvc_runs):
    with criterion(2, "tvc_reaches_target_and_channel_varies"):
        for seed, (cfg, traj, summary) in tvc_runs.items():
            assert summary.converged, f"seed {seed} did not converge"
            assert summary.iterations_used <= 2000
            mu_final = traj.mu[-1]
            err = np.max(np.abs(mu_final - 1.0))
            assert err <= 1e-6, f"seed {seed}: max error {err:.3e}"
            # the numerator state must keep moving once past the transient,
            # otherwise the channel was effectively static
            deltas = np.abs(np.diff(traj.y_tilde[10:], axis=0))
            assert deltas.size and deltas.max() > 1e-3, f"seed {seed}: state froze"


def test_03_every_step_column_stochastic(criterion, tic_runs, tvc_runs):
    with criterion(3, "every_effective_matrix_column_stochastic"):
        for seed, (cfg, _, summary, dt) in tic_runs.items():
            _, channel, _ = prepare(cfg)
            audit = audit_column_stochastic(build_Hbar(channel.realization(0)))
            assert audit.max_column_sum_error <= 1e-12
            assert audit.min_entry >= 0.0
        for seed, (cfg, _, summary) in tvc_runs.items():
            _, channel, _ = prepare(cfg)
            for k in range(summary.iterations_used):
                audit = audit_column_stochastic(build_Hbar(channel.realization(k)))
                assert audit.max_column_sum_error <= 1e-12, f"seed {seed} step {k}"
                assert audit.min_entry >= 0.0, f"seed {seed} step {k}"


def test_04_mass_conservation_long_horizon(criterion):
    with criterion(4, "mass_conserved_over_1000_steps"):
        for algorithm in ("tic", "tvc"):
            cfg = make_config(algorithm, seed=4)
            _, channel, S = prepare(cfg)
            yt, xt, _ = kernel_rows(algorithm, S, channel, 1000)
            drift_y, drift_x = mass_audit((yt, xt), S)
            assert drift_y <= 1e-9, f"{algorithm}: numerator drift {drift_y:.3e}"
            assert drift_x <= 1e-9, f"{algorithm}: denominator drift {drift_x:.3e}"


def test_05_protocol_matches_matrix_oracle(criterion):
    with criterion(5, "protocol_matches_matrix_oracle_20_instances"):
        k_max = 100
        for i in range(20):
            n = 2 + (i % 7)
            time_varying = i % 2 == 1
            cfg = make_config(
                "tvc" if time_varying else "tic",
                seed=1000 + i,
                n=n,
                topology=TopologySpec("erdos_renyi", p=0.7),
            )
            _, channel, S = prepare(cfg)
            h_seq = [channel.realization(k if time_varying else 0) for k in range(k_max)]
            Y, X, MU = kernel_rows(cfg.algorithm, S, channel, k_max)
            Yo, Xo, MUo = matrix_oracle(h_seq, S, k_max)
            for got, want, label in ((Y, Yo, "y"), (X, Xo, "x"), (MU, MUo, "mu")):
                diff = np.max(np.abs(got - want))
                assert diff <= 1e-10, f"instance {i} ({label}): diff {diff:.3e}"


def test_06_baseline_and_tic_share_limit(criterion):
    with criterion(6, "baseline_and_tic_limits_agree"):
        cfg_tic = make_config("tic", seed=6, max_iters=5000, tol=1e-12)
        cfg_base = make_config("baseline", seed=6, max_iters=5000, tol=1e-12)
        _, _, S = prepare(cfg_tic)
        target = S.mean()
        finals = {}
        for cfg in (cfg_tic, cfg_base):
            traj, summary = run(cfg)
            assert summary.converged, f"{cfg.algorithm} did not converge"
            finals[cfg.algorithm] = traj.mu[-1]
        for name, mu in finals.items():
            err = np.max(np.abs(mu - target))
            assert err <= 1e-8, f"{name}: limit error {err:.3e}"
        gap = np.max(np.abs(finals["tic"] - finals["baseline"]))
        assert gap <= 1e-8, f"algorithms disagree by {gap:.3e}"


def test_07_consensus_on_agreement_and_equivariance(criterion):
    with criterion(7, "agreement_fixed_point_and_affine_equivariance"):
        # all-equal initials at a power of two: scaling is exact in binary
        # floating point, so the spread must be exactly zero at every step
        cfg = make_config(
            "tvc", seed=7, initial=InitialSpec.explicit((4.0,) * 10), max_iters=50, tol=1e-300
        )
        mu = run(cfg)[0].mu
        assert all(spread(row) == 0.0 for row in mu)
        assert np.all(mu == 4.0)
        # a non-dyadic constant accumulates rounding only
        cfg5 = make_config(
            "tvc", seed=7, initial=InitialSpec.explicit((5.0,) * 10), max_iters=50, tol=1e-300
        )
        mu5 = run(cfg5)[0].mu
        assert max(spread(row) for row in mu5) <= 5e-13

        # scale and shift equivariance on a shared channel realization
        base_vals = np.random.default_rng(123).uniform(0.0, 2.0, 10)
        runs = {}
        for label, vals in (
            ("base", base_vals),
            ("scaled", 3.7 * base_vals),
            ("shifted", base_vals - 2.0),
        ):
            cfg_v = make_config(
                "tvc",
                seed=7,
                initial=InitialSpec.explicit(tuple(float(v) for v in vals)),
                max_iters=200,
                tol=1e-300,
            )
            runs[label] = run(cfg_v)[0].mu
        assert np.max(np.abs(runs["scaled"] - 3.7 * runs["base"])) <= 1e-12
        assert np.max(np.abs(runs["shifted"] - (runs["base"] - 2.0))) <= 1e-12


def test_08_ratio_stays_in_initial_hull(criterion, tic_runs, tvc_runs):
    with criterion(8, "ratio_bounded_by_initial_extremes"):
        for group in (tic_runs, tvc_runs):
            for seed, entry in group.items():
                cfg, traj = entry[0], entry[1]
                _, _, S = prepare(cfg)
                lo, hi = float(np.min(S.values)), float(np.max(S.values))
                mu = traj.mu
                assert mu.min() >= lo - 1e-12, f"{cfg.algorithm} seed {seed}"
                assert mu.max() <= hi + 1e-12, f"{cfg.algorithm} seed {seed}"


def test_09_alternating_graphs_need_window_two(criterion):
    with criterion(9, "joint_connectivity_window_and_tvc_convergence"):
        h_even = ChannelRealization(
            3, np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]), self_weight=1.0
        )
        h_odd = ChannelRealization(
            3, np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 1.0], [0.0, 1.0, 1.0]]), self_weight=1.0
        )
        h_seq = [h_even, h_odd, h_even, h_odd]
        assert check_epsilon_B_connectivity(h_seq, epsilon=0.5, B=2) is True
        assert check_epsilon_B_connectivity(h_seq, epsilon=0.5, B=1) is False

        S = InitialStates(np.array([0.0, 1.0, 2.0]))
        alternating = SimpleNamespace(realization=lambda k: h_seq[k % 2])
        steps = islice(iterate("tvc", S, channel=alternating), 1, 2001)
        converged_at = None
        for k, (_, _, mu) in enumerate(steps):
            if spread(mu) <= 1e-9:
                converged_at = k + 1
                break
        assert converged_at is not None, "no consensus under alternating graphs"
        assert np.max(np.abs(mu - 1.0)) <= 1e-8


def test_10_designed_failure_modes(criterion):
    with criterion(10, "bipartite_and_nonreciprocal_negative_controls"):
        # zero self-weight on two nodes: states swap forever, spread cannot
        # shrink below half the initial gap
        cfg = make_config(
            "tic",
            seed=10,
            n=2,
            topology=TopologySpec("ring"),
            fading=FadingModel.constant(1.0),
            initial=InitialSpec.explicit((0.0, 2.0)),
            self_weight=0.0,
            max_iters=500,
        )
        traj, summary = run(cfg)
        assert not summary.converged
        mu = traj.mu
        assert min(spread(row) for row in mu[1:]) >= 1.0

        hbar = np.array([[0.0, 1.0], [1.0, 0.0]])
        with pytest.raises(PeriodicityError):
            stationary_limit(hbar, InitialStates(np.array([0.0, 2.0])))

        # non-reciprocal gains: receiver-side pilot sums no longer equal the
        # column sums, so normalization loses column stochasticity
        h_asym = ChannelRealization(2, np.array([[1.0, 2.0], [3.0, 1.0]]), self_weight=1.0)
        audit = audit_column_stochastic(build_Hbar(h_asym))
        assert not audit.is_column_stochastic
        assert audit.max_column_sum_error > 1e-6
