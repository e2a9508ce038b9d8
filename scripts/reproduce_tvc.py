"""Time-varying channel consensus across seeds, plus the noise error floor.

The channel is resampled every block, so convergence rides on joint
connectivity over windows rather than on any single realization.  The second
half of the script adds receiver noise and shows the achievable error
flattening out near the noise level instead of contracting to zero.
"""

import argparse

import numpy as np

from otaconsensus.channel import FadingModel, NoiseModel
from otaconsensus.simulator import InitialSpec, SimulationConfig, run
from otaconsensus.topology import TopologySpec


def make_config(seed, n, p, noise_std=0.0, tol=1e-9):
    return SimulationConfig(
        n=n,
        topology=TopologySpec("erdos_renyi", p=p),
        algorithm="tvc",
        fading=FadingModel.half_normal(1.0),
        initial=InitialSpec.random_mean(1.0, 1.0),
        seed=seed,
        noise=NoiseModel(noise_std),
        max_iters=2000,
        tol=tol,
    )


def final_error(traj, summary):
    return np.max(np.abs(traj.mu[-1] - summary.target_average))


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--n", type=int, default=10)
    ap.add_argument("--p", type=float, default=0.5)
    ap.add_argument("--seeds", type=int, default=10)
    args = ap.parse_args()

    print(f"n={args.n} p={args.p} algorithm=tvc fading=half_normal(1.0) resampled per block")
    print(f"{'seed':>4}  {'iters':>5}  {'final_max_error':>16}  {'eps_B_connected':>15}")
    for seed in range(args.seeds):
        _, summary = run(make_config(seed, args.n, args.p))
        print(
            f"{seed:>4}  {summary.iterations_used:>5}  {summary.final_max_error:>16.3e}"
            f"  {str(summary.epsilon_B_satisfied).lower():>15}"
        )

    print("\nreceiver noise floor (seed 0, tol relaxed to 1e-7):")
    print(f"{'noise_std':>10}  {'iters':>5}  {'final_max_error':>16}")
    for std in (0.0, 1e-8, 1e-5):
        traj, summary = run(make_config(0, args.n, args.p, noise_std=std, tol=1e-7))
        print(f"{std:>10.0e}  {summary.iterations_used:>5}  {final_error(traj, summary):>16.3e}")


if __name__ == "__main__":
    main()
