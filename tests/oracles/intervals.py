"""Interval-set helpers for tests: the two-pointer intersection (the
reference the segmented gate pass is pinned against), a validity check
and a total length."""

from typing import Tuple

import numpy as np

Arr = np.ndarray


def intersect_scalar(s1: Arr, e1: Arr, s2: Arr, e2: Arr) -> Tuple[Arr, Arr]:
    """The historical two-pointer merge, emitting ``(max(start),
    min(end))`` per overlapping pair in merge order."""
    out_s: list[float] = []
    out_e: list[float] = []
    i = j = 0
    n1, n2 = len(s1), len(s2)
    while i < n1 and j < n2:
        lo = max(s1[i], s2[j])
        hi = min(e1[i], e2[j])
        if hi > lo:
            out_s.append(float(lo))
            out_e.append(float(hi))
        # advance whichever interval ends first
        if e1[i] <= e2[j]:
            i += 1
        else:
            j += 1
    return np.asarray(out_s), np.asarray(out_e)


def validate(starts: Arr, ends: Arr) -> None:
    """Raise ValueError unless (starts, ends) is a valid interval set:
    parallel arrays of non-empty, sorted, pairwise disjoint intervals."""
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
