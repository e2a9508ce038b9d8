"""Static-channel consensus across seeds, checked against the matrix limit.

Runs the fixed-normalization protocol on ten random instances, prints the
iteration count and final error for each, then verifies on one instance that
the observed limit matches the stationary-distribution prediction computed
straight from the effective matrix.
"""

import argparse

import numpy as np

from otaconsensus.analysis import build_Hbar, stationary_limit
from otaconsensus.channel import FadingModel
from otaconsensus.simulator import InitialSpec, SimulationConfig, prepare, run
from otaconsensus.topology import TopologySpec


def make_config(seed, n, p):
    return SimulationConfig(
        n=n,
        topology=TopologySpec("erdos_renyi", p=p),
        algorithm="tic",
        fading=FadingModel.half_normal(1.0),
        initial=InitialSpec.random_mean(1.0, 1.0),
        seed=seed,
        max_iters=500,
        tol=1e-12,
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()

    print(f"n={args.n} p={args.p} algorithm=tic fading=half_normal(1.0)")
    print(f"{'seed':>4}  {'iters':>5}  {'final_max_error':>16}")
    for seed in range(args.seeds):
        _, summary = run(make_config(seed, args.n, args.p))
        flag = "" if summary.converged else "  (did not converge)"
        print(f"{seed:>4}  {summary.iterations_used:>5}  {summary.final_max_error:>16.3e}{flag}")

    # cross-check one instance against mean(S), the limit its stationary eigenvector certifies
    cfg = make_config(0, args.n, args.p)
    _, channel, S = prepare(cfg)
    stationary_limit(build_Hbar(channel.realization(0)), S)
    traj, _ = run(cfg)
    mu_final = traj.mu[-1]
    print(f"\npredicted limit   {S.mean():.15f}")
    print(f"observed (seed 0) {mu_final.mean():.15f}")
    print(f"max |observed - predicted| = {np.max(np.abs(mu_final - S.mean())):.3e}")


if __name__ == "__main__":
    main()
