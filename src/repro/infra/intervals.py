"""Interval sets and the flat realization layout the generators emit.

An interval set is a pair of parallel ``(starts, ends)`` NumPy arrays,
sorted and pairwise disjoint.  A whole trace realization is one
:class:`FlatTrace`: every node's interval set concatenated in node-id
order, plus offsets, powers and tags — the layout of the trace store
and of :class:`~repro.infra.columns.NodeColumns`, so a realization
travels from generator to store to columns without per-node objects.
"""

from __future__ import annotations

from typing import NamedTuple, Tuple

import numpy as np

__all__ = ["FlatTrace"]

Arr = np.ndarray


class FlatTrace(NamedTuple):
    """One trace realization as flat interval columns.

    Node ``i`` owns ``starts[offsets[i]:offsets[i+1]]`` (and the same
    slice of ``ends``), ``power[i]`` and ``tags[i]``.  The field order
    is :meth:`~repro.infra.columns.NodeColumns.from_flat`'s argument
    order.
    """

    starts: Arr
    ends: Arr
    offsets: Arr
    power: Arr
    tags: Tuple[str, ...]

    @property
    def n(self) -> int:
        """Number of nodes."""
        return len(self.offsets) - 1
