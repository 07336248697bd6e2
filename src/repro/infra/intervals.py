"""Interval-set algebra helpers (sorted, disjoint [start, end) arrays).

Small two-pointer routines shared by the trace generators: the
Grid'5000 model intersects per-node renewal schedules with day/night
participation windows, and trace statistics need interval overlap
counts.  All functions take and return parallel ``(starts, ends)``
NumPy arrays that are sorted and pairwise disjoint.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

__all__ = ["intersect", "total_length", "validate"]

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


def intersect(s1: Arr, e1: Arr, s2: Arr, e2: Arr) -> Tuple[Arr, Arr]:
    """Intersection of two interval sets.

    Vectorized pair enumeration: interval ``i`` of the first set
    overlaps exactly the second-set slice ``[lo_i, hi_i)`` where
    ``lo_i`` is the first ``j`` with ``e2[j] > s1[i]`` and ``hi_i`` the
    first with ``s2[j] >= e1[i]`` (both sets are sorted and disjoint,
    so the overlap region is one contiguous run).  Emits the same
    ``(max(start), min(end))`` floats in the same order as the
    historical two-pointer merge (the reference in
    ``tests/oracles/intervals.py``) — only the
    enumeration is batched.
    """
    s1 = np.asarray(s1, dtype=float)
    e1 = np.asarray(e1, dtype=float)
    s2 = np.asarray(s2, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    if s1.size == 0 or s2.size == 0:
        return np.empty(0), np.empty(0)
    lo = np.searchsorted(e2, s1, side="right")
    hi = np.searchsorted(s2, e1, side="left")
    counts = hi - lo
    np.maximum(counts, 0, out=counts)
    total = int(counts.sum())
    if total == 0:
        return np.empty(0), np.empty(0)
    i = np.repeat(np.arange(s1.shape[0]), counts)
    # concatenated ranges lo[i]..hi[i): a ramp minus each row's offset
    offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
    j = np.arange(total) - np.repeat(offsets - lo, counts)
    out_s = np.maximum(s1[i], s2[j])
    out_e = np.minimum(e1[i], e2[j])
    return out_s, out_e
