"""Best-effort Grid availability model (Grid'5000 Gantt substitution).

Paper §4.1.1: "a node is available in Best Effort Grid traces when it
does not compute regular tasks" — the authors derived ``g5klyo`` and
``g5kgre`` from the December-2010 Gantt utilization charts of the Lyon
and Grenoble clusters.  Cluster utilization has two time scales:

* *fast churn* — regular jobs start and finish continuously, so a
  best-effort slot lives seconds-to-minutes (Table 2's quartiles:
  median 51 s on Lyon!);
* *slow tides* — nights and week-ends leave large parts of the cluster
  free, which is why the available-node count swings between 6 and 226
  on Lyon (mean 90.6, std 105.4 — larger than the mean).

We model the fast churn with the same quartile-fitted alternating
renewal process as desktop grids, and the slow tide with a sinusoidal
*participation gate*: node ``i`` of ``N`` only participates while
``gate(t) >= i/N`` where ``gate`` oscillates with a one-day period.
Intersecting the two interval sets reproduces both scales without any
proprietary data.
"""

from __future__ import annotations

import math
from typing import Tuple

import numpy as np

from repro.infra.intervals import FlatTrace
from repro.infra.renewal import RenewalTraceGenerator

__all__ = ["GanttTraceGenerator", "gate_matrix", "intersect_gated"]


def gate_matrix(n_nodes: int, period: float, phase: float, horizon: float,
                depth: float = 1.0, base: float = 0.5
                ) -> Tuple[np.ndarray, np.ndarray]:
    """Every node's participation windows as padded ``(n, W)`` rows.

    Node ``i`` participates while ``base + (depth/2)*sin(2*pi*t/period
    + phase)`` exceeds its threshold ``(i + 0.5) / n``.  Row ``i`` holds
    that node's windows over [0, horizon): one arc per period, the
    floats of ``t = lo_off + k*period`` clipped to ``max(0, t)`` and
    ``min(horizon, t + width)``.  A node whose threshold the gate never
    reaches has none; one the gate always exceeds has the single window
    ``(0, horizon)``.

    Rows are padded so that ``searchsorted`` becomes a count: the arcs
    that end before t=0 become ``(-inf, -inf)`` and the slots past the
    horizon ``(+inf, +inf)``.  For a finite interval ``[s, e)``, the
    number of row cells with ``end <= s`` (or ``start < e``) is then
    the row's leading ``-inf`` cells plus the ``searchsorted`` count
    over its real windows.
    """
    if period <= 0 or horizon <= 0:
        raise ValueError("period and horizon must be positive")
    amp = depth / 2.0
    lo, hi = base - amp, base + amp
    thr = (np.arange(n_nodes) + 0.5) / n_nodes
    arc = np.flatnonzero((thr > lo) & (thr < hi))
    width_cols = 1
    if arc.size:
        # sin(x) > s on (asin(s), pi - asin(s)) within each 2*pi cycle;
        # math.asin per row keeps the libm floats of the scalar form
        a = np.array([math.asin(x) for x in ((thr[arc] - base) / amp)
                      .tolist()])
        w = period / (2.0 * math.pi)
        lo_off = (a * w - phase * w) % period
        width = (math.pi - 2.0 * a) * w
        # k = -1, 0, 1, ... while k < n_max: the arange form's floats
        n_max = np.maximum(
            0, np.ceil((horizon - lo_off) / period).astype(np.int64)) + 2
        width_cols = int(n_max.max()) + 1
        k = np.arange(-1, width_cols - 1, dtype=float)
        t = lo_off[:, None] + k * period
        valid = (k[None, :] < n_max[:, None]) & (t < horizon)
        e0 = t + width[:, None]
        keep = valid & (e0 > 0.0)
        pad = np.where(valid, -np.inf, np.inf)
    gs = np.full((n_nodes, width_cols), np.inf)
    ge = np.full((n_nodes, width_cols), np.inf)
    always = thr <= lo
    gs[always, 0] = 0.0
    ge[always, 0] = horizon
    if arc.size:
        gs[arc] = np.where(keep, np.maximum(0.0, t), pad)
        ge[arc] = np.where(keep, np.minimum(horizon, e0), pad)
    return gs, ge


def intersect_gated(trace: FlatTrace, gs: np.ndarray, ge: np.ndarray
                    ) -> FlatTrace:
    """Each node's intervals intersected with its row of gate windows,
    for every node in one segmented pass.

    Interval ``[s, e)`` of node ``i`` overlaps exactly the windows
    ``lo..hi-1`` of row ``i``: ``lo`` counts the windows ending at or
    before ``s``, ``hi`` those starting before ``e`` (see
    :func:`gate_matrix` for the padding that makes both plain counts).
    Every overlapping pair emits ``(max(s1, s2), min(e1, e2))``,
    interval-major then window-major within each node — the floats and
    order of a per-node ``searchsorted`` intersection.
    """
    s1, e1, offsets = trace.starts, trace.ends, trace.offsets
    node = np.repeat(np.arange(trace.n), np.diff(offsets))
    lo = np.zeros(s1.shape[0], dtype=np.int64)
    hi = np.zeros(s1.shape[0], dtype=np.int64)
    for col in range(gs.shape[1]):
        lo += ge[node, col] <= s1
        hi += gs[node, col] < e1
    counts = np.maximum(hi - lo, 0)
    ends_at = np.zeros(s1.shape[0] + 1, dtype=np.int64)
    np.cumsum(counts, out=ends_at[1:])
    total = int(ends_at[-1])
    row = np.repeat(np.arange(s1.shape[0]), counts)
    col = np.arange(total) - np.repeat(ends_at[:-1] - lo, counts)
    win = node[row]
    return FlatTrace(np.maximum(s1[row], gs[win, col]),
                     np.minimum(e1[row], ge[win, col]),
                     ends_at[offsets], trace.power, trace.tags)


class GanttTraceGenerator:
    """Renewal churn modulated by a day-period participation gate.

    Parameters
    ----------
    renewal:
        The fast-churn generator (quartile-fitted, power 3000 nops/s
        and homogeneous for Grid'5000 per Table 2).
    gate_period:
        Tide period in seconds (default one day).
    gate_depth:
        0 disables the tide (plain renewal); 1 gives full swings where
        at the trough almost no node participates.
    """

    def __init__(self, renewal: RenewalTraceGenerator,
                 gate_period: float = 86400.0, gate_depth: float = 1.0):
        if not 0.0 <= gate_depth <= 1.0:
            raise ValueError("gate_depth must be in [0, 1]")
        self.renewal = renewal
        self.gate_period = float(gate_period)
        self.gate_depth = float(gate_depth)

    def nodes_for_mean(self, mean_available: float) -> int:
        """Node count matching Table 2's mean available count.

        The sinusoidal gate halves average participation (mean gate
        value is ``base=0.5``), on top of the renewal availability.
        """
        p = self.renewal.p_avail
        participation = 0.5 if self.gate_depth > 0 else 1.0
        return max(1, int(round(mean_available / (p * participation))))

    def generate(self, rng: np.random.Generator, n_nodes: int,
                 horizon: float, tag: str = "") -> FlatTrace:
        """Realize nodes: renewal schedule ∩ participation windows.

        The renewal schedules come from the bulk-vectorized generator
        and are gated by :func:`intersect_gated` in one pass.
        """
        if n_nodes <= 0:
            raise ValueError("n_nodes must be positive")
        phase = rng.random() * 2.0 * math.pi
        trace = self.renewal.generate(rng, n_nodes, horizon, tag=tag)
        if self.gate_depth <= 0.0:
            return trace
        gs, ge = gate_matrix(n_nodes, self.gate_period, phase, horizon,
                             depth=self.gate_depth)
        return intersect_gated(trace, gs, ge)
