"""A channel stand-in for kernel passes: any sequence of blocks, behind the
one channel contract a ChannelProcess meets (topology, realization(k) and
write_epoch(e, out)).

    Blocks(lambda k: h)                # every block is h
    Blocks(lambda k: h_seq[k % 2])     # blocks that alternate
    Blocks(proc.realization)           # a process's blocks, but not a process

A pass reads it as it reads a process, but its blocks are not taken for
symmetric, so a tvc pass judges its epsilon-B windows both ways.
"""
from functools import cached_property

import numpy as np

from otaconsensus.topology import Digraph


class Blocks:
    """The channel whose block k is realization(k), a ChannelRealization."""

    def __init__(self, realization):
        self.realization = realization

    @cached_property
    def topology(self) -> Digraph:
        """The links of block 0, realized when a pass first asks for them,
        so a pass that steps nothing realizes nothing."""
        gains = self.realization(0).gains
        return Digraph((gains.T > 0) & ~np.eye(len(gains), dtype=bool))

    def write_epoch(self, e: int, out: np.ndarray) -> None:
        """Blocks e*T to e*T + T - 1 into out, a (T, n, n) array, each
        realized in turn: a block that raises does so at its epoch's write."""
        for r, block in enumerate(out):
            block[...] = self.realization(e * len(out) + r).gains
