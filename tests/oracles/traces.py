"""Per-node trace realization (reference for the columnar generators).

The historical path built one :class:`~repro.infra.node.Node` per host
in the renewal generator, intersected each gated node with its own
``gate_windows`` in a loop (building every host a second time), and
flattened the node list back into columns.  The runtime generators now
emit flat interval columns directly; this module keeps the per-node
path verbatim so ``tests/test_trace_columns.py`` can require the two to
agree array for array, RNG state included.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.infra.catalog import SPOT, TraceSpec
from repro.infra.columns import NodeColumns
from repro.infra.gantt import GanttTraceGenerator
from repro.infra.node import Node
from repro.infra.renewal import RenewalTraceGenerator
from repro.infra.spot import SpotMarket, spot_intervals

Arr = np.ndarray
_EMPTY = np.empty(0, dtype=np.float64)


# ------------------------------------------------------------ intervals
def intersect(s1: Arr, e1: Arr, s2: Arr, e2: Arr) -> Tuple[Arr, Arr]:
    """Intersection of two interval sets by ``searchsorted`` pair
    enumeration: interval ``i`` of the first set overlaps the
    second-set slice ``[lo_i, hi_i)``, ``lo_i`` the first ``j`` with
    ``e2[j] > s1[i]`` and ``hi_i`` the first with ``s2[j] >= e1[i]``.
    Emits the floats and order of the two-pointer merge in
    ``oracles/intervals.py``."""
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
    offsets = np.concatenate(([0], np.cumsum(counts[:-1])))
    j = np.arange(total) - np.repeat(offsets - lo, counts)
    return np.maximum(s1[i], s2[j]), np.minimum(e1[i], e2[j])


def gate_windows(threshold: float, period: float, phase: float,
                 horizon: float, depth: float = 1.0,
                 base: float = 0.5) -> Tuple[Arr, Arr]:
    """One node's windows where ``base + (depth/2)*sin(2*pi*t/period +
    phase)`` exceeds ``threshold``, over [0, horizon)."""
    if period <= 0 or horizon <= 0:
        raise ValueError("period and horizon must be positive")
    amp = depth / 2.0
    lo, hi = base - amp, base + amp
    if threshold <= lo:
        return np.array([0.0]), np.array([horizon])
    if threshold >= hi:
        return np.empty(0), np.empty(0)
    s = (threshold - base) / amp
    a = math.asin(s)
    w = period / (2.0 * math.pi)
    lo_off = (a * w - phase * w) % period
    width = (math.pi - 2.0 * a) * w
    n_max = max(0, int(math.ceil((horizon - lo_off) / period))) + 2
    t = lo_off + np.arange(-1, n_max, dtype=float) * period
    t = t[t < horizon]
    e0 = t + width
    keep = e0 > 0.0
    return np.maximum(0.0, t[keep]), np.minimum(horizon, e0[keep])


# ----------------------------------------------------------- generators
def renewal_nodes(gen: RenewalTraceGenerator, rng: np.random.Generator,
                  n_nodes: int, horizon: float, tag: str = "",
                  id_offset: int = 0) -> List[Node]:
    """The renewal generator's historical ``Node``-list form."""
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    powers = gen.draw_power(rng, n_nodes)
    cycle = gen.avail_dist.mean() + gen.unavail_dist.mean()
    k = max(4, int(horizon / cycle * 1.5) + 6)
    n = n_nodes
    in_avail = rng.random(n) < gen.p_avail
    first = np.where(
        in_avail,
        gen._length_biased_batch(rng, n, gen.avail_dist),
        gen._length_biased_batch(rng, n, gen.unavail_dist))
    t0 = -first * rng.random(n)
    av = gen.avail_dist.ppf(rng.random((n, k)))
    un = gen.unavail_dist.ppf(rng.random((n, k)))
    starts, ends = gen._assemble_bulk(in_avail, first, t0, av, un)
    covered = ends[:, -1] >= horizon
    flat_s, flat_e, offsets = gen._clip_rows(
        starts[covered], ends[covered], horizon)
    nodes: List[Node] = []
    row = 0
    for i in range(n):
        if covered[i]:
            s_arr = flat_s[offsets[row]:offsets[row + 1]]
            e_arr = flat_e[offsets[row]:offsets[row + 1]]
            row += 1
        else:
            s_arr, e_arr = gen._node_schedule(rng, horizon)
        nodes.append(Node(id_offset + i, float(powers[i]),
                          s_arr, e_arr, tag=tag))
    return nodes


def gantt_nodes(gen: GanttTraceGenerator, rng: np.random.Generator,
                n_nodes: int, horizon: float, tag: str = "",
                id_offset: int = 0) -> List[Node]:
    """The gated generator's historical per-node form: one renewal
    ``Node`` list, then each node rebuilt from its own
    ``gate_windows`` + ``intersect``."""
    if n_nodes <= 0:
        raise ValueError("n_nodes must be positive")
    phase = rng.random() * 2.0 * math.pi
    base_nodes = renewal_nodes(gen.renewal, rng, n_nodes, horizon,
                               tag=tag, id_offset=id_offset)
    if gen.gate_depth <= 0.0:
        return base_nodes
    nodes = []
    for i, bn in enumerate(base_nodes):
        thr = (i + 0.5) / n_nodes
        gs, ge = gate_windows(thr, gen.gate_period, phase,
                              horizon, depth=gen.gate_depth)
        s, e = intersect(bn.starts, bn.ends, gs, ge)
        nodes.append(Node(id_offset + i, bn.power, s, e, tag=tag))
    return nodes


def spot_nodes(rng: np.random.Generator, market: SpotMarket, budget: float,
               power_mean: float, power_std: float,
               max_instances: int | None = None, tag: str = "spot",
               id_offset: int = 0) -> List[Node]:
    """The bid ladder's historical ``Node``-list form."""
    intervals = spot_intervals(market, budget, max_instances)
    n = len(intervals)
    if power_std > 0:
        powers = np.maximum(rng.normal(power_mean, power_std, n), 50.0)
    else:
        powers = np.full(n, power_mean)
    return [Node(id_offset + i, float(powers[i]), s, e, tag=tag)
            for i, (s, e) in enumerate(intervals)]


def materialize_nodes(spec: TraceSpec, rng: np.random.Generator,
                      horizon: float, max_nodes: int | None = None
                      ) -> List[Node]:
    """``TraceSpec.materialize`` in its historical ``Node``-list form."""
    natural = spec.natural_node_count()
    n = natural if max_nodes is None else min(natural, int(max_nodes))
    if n <= 0:
        raise ValueError("node cap must be positive")
    if spec.family == SPOT:
        market = SpotMarket(rng, horizon, spec.spot_params)
        return spot_nodes(rng, market, spec.spot_budget, spec.power_mean,
                          spec.power_std, max_instances=n, tag=spec.name)
    if spec._gated():
        gen = GanttTraceGenerator(spec._renewal(),
                                  gate_depth=spec.gate_depth)
        return gantt_nodes(gen, rng, n, horizon, tag=spec.name)
    return renewal_nodes(spec._renewal(), rng, n, horizon, tag=spec.name)


# ------------------------------------------------------------ flattening
def from_raw(raw: Sequence[Tuple[Arr, Arr, float, str]]) -> NodeColumns:
    """The historical per-node flattening into a columns template:
    ``[(starts, ends, power, tag), ...]`` in node-id order."""
    if any(s.shape != e.shape for s, e, _p, _t in raw):
        raise ValueError("starts and ends must have identical shapes")
    offsets = np.zeros(len(raw) + 1, dtype=np.int64)
    np.cumsum([s.shape[0] for s, _e, _p, _t in raw], dtype=np.int64,
              out=offsets[1:])
    return NodeColumns.from_flat(
        np.concatenate([_EMPTY, *(s for s, _e, _p, _t in raw)]),
        np.concatenate([_EMPTY, *(e for _s, e, _p, _t in raw)]),
        offsets, [p for _s, _e, p, _t in raw],
        [tag for _s, _e, _p, tag in raw])


def nodes_to_columns(nodes: Sequence[Node]) -> NodeColumns:
    """A ``Node`` list flattened the historical way."""
    return from_raw([(n.starts, n.ends, n.power, n.tag) for n in nodes])


def nodes_of(trace) -> List[Node]:
    """Split a flat realization (``FlatTrace`` or ``NodeColumns``) into
    ``Node`` objects over views of its arrays, for per-node asserts."""
    o = trace.offsets
    return [Node(i, float(trace.power[i]), trace.starts[o[i]:o[i + 1]],
                 trace.ends[o[i]:o[i + 1]], tag=trace.tags[i])
            for i in range(len(o) - 1)]

