"""Stand-ins and helpers the test modules share.

Blocks is a channel stand-in for kernel passes: any sequence of gain
arrays, behind the one channel contract a ChannelProcess meets
(realization(k) and write_epoch(e, out)).

    Blocks(lambda k: g)                           # every block is g
    Blocks(lambda k: g_seq[k % 2])                # blocks that alternate
    Blocks(lambda k: proc.realization(k).gains)   # a process's blocks, but not a process

A pass reads it as it reads a process, but its blocks are not taken for
symmetric, so a tvc pass judges its epsilon-B windows both ways.

take is a recording one-member pass over any such channel (or a graph, for
baseline), measured_sigma the kernel's normalization sums one block at a
time, and base_config the 10-node tic config that tests vary by keyword.
"""
import numpy as np

from otaconsensus.channel import ChannelRealization, FadingModel
from otaconsensus.protocol import pilot_sums, refuse_pilot_sums
from otaconsensus.simulator import InitialSpec, SimulationConfig, _drive
from otaconsensus.topology import TopologySpec


class Blocks:
    """The channel whose block k is the (n, n) gain array gains(k)."""

    def __init__(self, gains):
        self.gains = gains

    def realization(self, k: int) -> ChannelRealization:
        """Block k, wrapped as ChannelProcess.realization(k) gives it."""
        return ChannelRealization(self.gains(k))

    def write_epoch(self, e: int, out: np.ndarray) -> None:
        """Blocks e*T to e*T + T - 1 into out, a (T, n, n) array, each
        drawn in turn: a block that raises does so at its epoch's write."""
        for r, block in enumerate(out):
            block[...] = self.gains(e * len(out) + r)


def take(algorithm, S, steps, g=None, channel=None, noise_std=0.0, noise_rng=None):
    """A recording one-member pass with budget steps: its (y_tilde, x_tilde,
    mu), each a (steps + 1, n) array whose row k is the state after step k."""
    (_, rows), = _drive(algorithm, [lambda: (g, channel, S, noise_rng, steps)], noise_std=noise_std, record=True)
    return rows


def measured_sigma(gains, noise=None, context=""):
    """The normalization sums a pass divides by, as a reference: the
    pilot_sums of gains (a block or a stack of them) plus noise, refused
    by refuse_pilot_sums naming the context."""
    sigma = pilot_sums(gains)
    if noise is not None:
        sigma = sigma + noise
    refuse_pilot_sums(sigma, context)
    return sigma


def base_config(**overrides):
    """A 10-node tic run on ER(0.5) at seed 42, with overrides applied."""
    kw = dict(
        n=10,
        topology=TopologySpec(kind="erdos_renyi", p=0.5),
        algorithm="tic",
        fading=FadingModel.half_normal(1.0),
        initial=InitialSpec.random_mean(1.0, 1.0),
        seed=42,
    )
    kw.update(overrides)
    return SimulationConfig(**kw)
