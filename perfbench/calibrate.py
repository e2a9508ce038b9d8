"""Host-speed reference for the end-to-end times.

On a shared host (here 2 vCPUs at 2.1 GHz) the same code runs up to about
1.6x slower for tens of seconds at a time under neighbour load, which
moves raw medians of a 25 s run by 13-31 % between runs. The child process times this fixed
kernel right after each invocation and scales the invocation's wall time by
REFERENCE_S / kernel time, so wall_s reads as seconds on a host where a
kernel pass takes REFERENCE_S. Measured on that host under such load,
that cut the spread of 25 s medians from 23 % to 5.5 % (sweep-small), and
of 20 s medians from 31 % to 3 % (tvc-dense).

The kernel mixes the kinds of work the program spends its time on:
interpreted loops, numpy generator construction, small matrix products
and float formatting. It never calls the program, so no change to the
program moves it.
"""
import statistics
from time import perf_counter

import numpy as np

# about one kernel pass on an idle 2.1 GHz vCPU of the host this benchmark
# was tuned on; it only sets the scale of wall_s
REFERENCE_S = 0.010


def _kernel_pass() -> float:
    t0 = perf_counter()
    acc = 0
    for i in range(66_000):
        acc += i * i
    for i in range(133):
        np.random.default_rng([7, i, i + 1, 3]).normal()
    a = np.ones((60, 60))
    for _ in range(17):
        a = (a @ a) / 60.0
    [format(x, ".17g") for x in np.linspace(0.0, 1.0, 1666)]
    return perf_counter() - t0


def kernel_seconds() -> float:
    """Median of three passes, so that one interrupted pass does not count."""
    return statistics.median(_kernel_pass() for _ in range(3))
