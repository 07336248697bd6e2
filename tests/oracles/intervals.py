"""Two-pointer interval intersection (reference for
:func:`repro.infra.intervals.intersect`)."""

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
