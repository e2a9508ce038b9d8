"""An exact rational stepper: each noiseless kernel pass held against the
true trajectory over the same float gains and start, stepped in Fractions.

Every double is an exact rational, so the exact pass shows which of the
paper's identities hold exactly, and how far the kernel's rounding takes
its states from them. n is 4 to 6 and the passes are 30 steps long, since
the exact denominators grow with every step.
"""
from fractions import Fraction
from functools import cache

import numpy as np
import pytest

from otaconsensus.channel import FadingModel
from otaconsensus.protocol import prop1_weights
from otaconsensus.simulator import ALGORITHMS, InitialSpec, SimulationConfig, _drive, prepare
from otaconsensus.topology import TopologySpec

STEPS = 30
SEEDS = range(4)


def exact_pass(algorithm, g, channel, S, steps):
    """(y_tilde, x_tilde) at steps 0..steps, each a list of n Fractions:
    the noiseless pass over the blocks the kernel reads (tic's block 0,
    tvc's block k - 1 at step k), each over its exact pilot sums, or over
    baseline's float prop1_weights with sigma = 1."""
    n = len(S.values)
    y, x = [Fraction(v) for v in S.values], [Fraction(1)] * n
    rows = [(y, x)]
    for k in range(1, steps + 1):
        if k == 1 or algorithm == "tvc":
            gains = prop1_weights(g) if algorithm == "baseline" else channel.realization(k - 1).gains
            G = [[Fraction(v) for v in row] for row in gains]
            sigma = [Fraction(1)] * n if algorithm == "baseline" else [sum(row) for row in G]
        sent = ([v / s for v, s in zip(z, sigma)] for z in (y, x))
        y, x = ([sum(a * v for a, v in zip(row, z)) for row in G] for z in sent)
        rows.append((y, x))
    return rows


@cache
def passes(algorithm, topology, seed):
    """prepare's graph and start for a drawn n = 4, 5 or 6 config, its
    exact pass and the kernel's (y_tilde, x_tilde) rows."""
    spec = TopologySpec(topology, p=0.6) if topology == "erdos_renyi" else TopologySpec(topology)
    cfg = SimulationConfig(n=4 + seed % 3, topology=spec, algorithm=algorithm, fading=FadingModel.half_normal(1.0),
                           initial=InitialSpec.random_mean(1.0, 1.0), seed=seed)
    g, channel, S, *_ = prepare(cfg)
    (_, (Y, X, _)), = _drive(algorithm, [lambda: (g, channel, S, None, STEPS)], record=True)
    return g, S, exact_pass(algorithm, g, channel, S, STEPS), (Y, X)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("algorithm", ["tic", "tvc"])
def test_exact_pass_conserves_both_chain_sums(algorithm, seed):
    # the paper's column stochasticity as an identity: over a reciprocal
    # block and its exact pilot sums, every step keeps sum(y) and sum(x) = n
    _, S, rows, _ = passes(algorithm, "erdos_renyi", seed)
    assert all(sum(y) == sum(rows[0][0]) and sum(x) == len(S.values) for y, x in rows)


@pytest.mark.parametrize("topology, seed", [("ring", 2), *(("erdos_renyi", s) for s in SEEDS)])
def test_baseline_sum_follows_the_exact_column_sums(topology, seed):
    # baseline keeps sum(y) only where every 1 + d_j is a power of two:
    # exactly, sum(y') = sum_j c_j y_j for c_j column j's sum of the float
    # weights; on a 6-node ring 1 + d_j = 3 and c_j = 3 fl(1/3) = 1 - 2**-54
    g, _, rows, _ = passes("baseline", topology, seed)
    c = [sum(map(Fraction, column)) for column in prop1_weights(g).T]
    for (y, _), (after, _) in zip(rows, rows[1:]):
        assert sum(after) == sum(cj * yj for cj, yj in zip(c, y))
    if topology == "ring":
        assert c == [1 - Fraction(1, 2**54)] * 6
        assert [sum(y) for y, _ in rows] == [c[0] ** k * sum(rows[0][0]) for k in range(STEPS + 1)]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("algorithm", ALGORITHMS)
def test_kernel_lies_within_a_forward_error_bound_of_the_exact_pass(algorithm, seed):
    # a step's rounding (its pilot sums, the divisions, the products and
    # their sum) puts each term of the exact H_k applied to the kernel's
    # state off by at most gamma_3n = 3nu / (1 - 3nu), u = 2**-53; H_k is
    # nonnegative with unit column sums (baseline's within 2**-53 of 1),
    # so after step K the error's 1-norm is at most gamma_3n times the sum
    # of the kernel's |state|_1 over steps 0..K - 1. Measured over 10
    # seeds per algorithm: at most 0.11 of it
    _, S, rows, kernel = passes(algorithm, "erdos_renyi", seed)
    n, u = len(S.values), 2.0**-53
    gamma = 3 * n * u / (1 - 3 * n * u)
    for states, exact in zip(kernel, zip(*rows)):
        error = [float(sum(abs(Fraction(float(v)) - e) for v, e in zip(row, ex))) for row, ex in zip(states, exact)]
        bound = gamma * np.cumsum(np.abs(states).sum(axis=1))
        assert error[0] == 0.0
        assert all(e <= b for e, b in zip(error[1:], bound))
