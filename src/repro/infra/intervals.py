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

__all__ = ["FlatTrace", "total_length", "validate"]

Arr = np.ndarray


def validate(starts: Arr, ends: Arr) -> None:
    """Raise ValueError unless (starts, ends) is a valid interval set."""
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    if starts.shape != ends.shape:
        raise ValueError("starts/ends shape mismatch")
    if starts.size == 0:
        return
    if not np.all(ends > starts):
        raise ValueError("empty or inverted interval present")
    if not np.all(starts[1:] >= ends[:-1]):
        raise ValueError("intervals overlap or are unsorted")


def total_length(starts: Arr, ends: Arr) -> float:
    """Sum of interval lengths."""
    if len(starts) == 0:
        return 0.0
    return float(np.sum(np.asarray(ends) - np.asarray(starts)))


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
