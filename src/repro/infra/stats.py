"""Trace statistics measurement — regenerates Table 2's columns.

Given a realization in flat interval columns (a
:class:`~repro.infra.intervals.FlatTrace` or a
:class:`~repro.infra.columns.NodeColumns` — anything with ``starts``,
``ends``, ``offsets`` and ``power``), :func:`measure_trace` computes the
same summary the paper publishes for each BE-DCI trace: node-count
moments of the "simultaneously available" process sampled on a grid,
availability / unavailability duration quartiles pooled over nodes, and
the power moments.  The Table 2 benchmark compares these measurements
against the :class:`~repro.infra.catalog.TraceSpec` targets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

__all__ = ["TraceStats", "measure_trace", "available_count_series"]


@dataclass(frozen=True)
class TraceStats:
    """Measured analogue of one Table 2 row."""

    n_nodes: int
    mean_nodes: float
    std_nodes: float
    min_nodes: int
    max_nodes: int
    avail_quartiles: Tuple[float, float, float]
    unavail_quartiles: Tuple[float, float, float]
    power_mean: float
    power_std: float

    def row(self) -> str:
        """One formatted Table 2-style row."""
        aq = ",".join(f"{q:.0f}" for q in self.avail_quartiles)
        uq = ",".join(f"{q:.0f}" for q in self.unavail_quartiles)
        return (f"{self.mean_nodes:10.1f} {self.std_nodes:8.1f} "
                f"{self.min_nodes:6d} {self.max_nodes:6d}  "
                f"av[{aq}] unav[{uq}]  "
                f"power {self.power_mean:.0f}±{self.power_std:.0f}")


def available_count_series(trace, horizon: float,
                           step: float = 600.0) -> np.ndarray:
    """Number of available nodes sampled every ``step`` seconds.

    The count at a grid point ``g`` is the number of interval starts
    ``<= g`` minus the number of ends ``<= g`` — two sorted searches
    over the flat columns, O(total intervals log) rather than
    O(nodes * samples).
    """
    if horizon <= 0 or step <= 0:
        raise ValueError("horizon and step must be positive")
    # Sample strictly inside (0, horizon): at t=0 the stationary-start
    # events are still firing and at t=horizon every interval has been
    # clipped shut, so both edges would report spurious zeros.
    grid = np.arange(step, horizon - step / 2, step)
    if trace.starts.size == 0:
        return np.zeros(grid.shape[0])
    opened = np.searchsorted(np.sort(trace.starts), grid, side="right")
    closed = np.searchsorted(np.sort(trace.ends), grid, side="right")
    return (opened - closed).astype(float)


def _duration_quartiles(durations: np.ndarray) -> Tuple[float, float, float]:
    if durations.size == 0:
        return (0.0, 0.0, 0.0)
    q = np.percentile(durations, [25, 50, 75])
    return (float(q[0]), float(q[1]), float(q[2]))


def measure_trace(trace, horizon: float,
                  step: float = 600.0) -> TraceStats:
    """Compute Table 2-style statistics for a realization.

    Boundary-censored observations are excluded, as failure-trace
    archives do: a node's first availability interval (clipped by the
    stationary start and length-biased — the interval overlapping a
    random time origin is systematically long) and its last one
    (clipped by the horizon) do not enter the duration statistics;
    unavailability durations are the gaps between consecutive
    availability intervals of one node.
    """
    counts = available_count_series(trace, horizon, step)
    starts, ends = trace.starts, trace.ends
    total = starts.shape[0]
    # first[k]: interval k opens its node; first[k + 1]: k closes it
    first = np.zeros(total + 1, dtype=bool)
    first[trace.offsets] = True
    av = (ends - starts)[~first[:-1] & ~first[1:]]
    un = (starts[1:] - ends[:-1])[~first[1:-1]]
    powers = np.asarray(trace.power, dtype=float)
    return TraceStats(
        n_nodes=len(trace.offsets) - 1,
        mean_nodes=float(np.mean(counts)),
        std_nodes=float(np.std(counts)),
        min_nodes=int(np.min(counts)),
        max_nodes=int(np.max(counts)),
        avail_quartiles=_duration_quartiles(av),
        unavail_quartiles=_duration_quartiles(un),
        power_mean=float(np.mean(powers)) if powers.size else 0.0,
        power_std=float(np.std(powers)) if powers.size else 0.0,
    )
