"""Columnar (struct-of-arrays) storage for one trace realization.

A 10^5-host realization as :class:`~repro.infra.node.Node` objects
costs one Python object, two array headers and a per-node validation
pass per host — rebuilt for *every* execution sharing the realization.
:class:`NodeColumns` stores the whole realization as five flat arrays:

* ``starts`` / ``ends`` — every node's availability intervals,
  concatenated in node-id order;
* ``offsets`` — ``int64[n+1]``; node ``i`` owns the slice
  ``starts[offsets[i]:offsets[i+1]]``;
* ``power`` — ``float64[n]`` computing speeds;
* ``cursor`` — ``int64[n]`` per-node scan cursors (absolute flat
  indices), the only mutable column.

The interval arrays, offsets and powers are immutable and shared
zero-copy across executions (they are validated once, by
:meth:`NodeColumns.from_flat` — the generators' and the trace store's
layout — or by ``from_nodes`` for traces loaded from files);
:meth:`NodeColumns.fresh` hands each
execution its own cursor array — the per-execution cost of "rebuild
all nodes" collapses to one ``offsets[:-1].copy()``.

The :class:`~repro.infra.pool.NodePool` keeps plain ``int`` ids and
reads intervals straight off the columns; :class:`ColumnNode` is the
flyweight it hands to the middleware for an acquired id, exposing the
part of the :class:`~repro.infra.node.Node` API the middleware reads
(``node_id``, ``power``, ``tag``, ``cloud``, ``interval_at``,
``next_available``), so the middleware cannot tell the two apart.
:meth:`NodeColumns.first_interval` reads every node's first interval
after a time without touching a cursor — the pool's t=0 filing.

Cursor semantics match ``Node._advance`` exactly: monotone ``t``
queries move the cursor to the first interval whose end exceeds ``t``.
Trace nodes are never cloud workers, so ``ColumnNode.cloud`` is always
False (cloud workers stay :class:`~repro.infra.node.Node` objects).
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple

import numpy as np

__all__ = ["NodeColumns", "ColumnNode"]

_EMPTY = np.empty(0, dtype=np.float64)


class NodeColumns:
    """One trace realization as struct-of-arrays (see module docstring)."""

    __slots__ = ("n", "starts", "ends", "offsets", "power", "tags",
                 "cursor")

    def __init__(self, starts: np.ndarray, ends: np.ndarray,
                 offsets: np.ndarray, power: np.ndarray,
                 tags: Tuple[str, ...], cursor: np.ndarray):
        self.n = len(offsets) - 1
        self.starts = starts
        self.ends = ends
        self.offsets = offsets
        self.power = power
        self.tags = tags
        self.cursor = cursor

    # ------------------------------------------------------------------
    @classmethod
    def from_nodes(cls, nodes: Sequence) -> "NodeColumns":
        """Build the template from trace :class:`~repro.infra.node.Node`
        objects; the column index is the node id, so they must be
        numbered ``0..n-1`` in order (cloud workers are rejected too)."""
        for i, node in enumerate(nodes):
            if node.node_id != i or node.cloud:
                raise ValueError(f"expected trace node {i}, got {node!r}")
        offsets = np.zeros(len(nodes) + 1, dtype=np.int64)
        np.cumsum([n.starts.shape[0] for n in nodes], dtype=np.int64,
                  out=offsets[1:])
        return cls.from_flat(
            np.concatenate([_EMPTY, *(n.starts for n in nodes)]),
            np.concatenate([_EMPTY, *(n.ends for n in nodes)]),
            offsets, [n.power for n in nodes], [n.tag for n in nodes])

    @classmethod
    def from_flat(cls, starts: np.ndarray, ends: np.ndarray,
                  offsets: np.ndarray, power: np.ndarray,
                  tags: Sequence[str]) -> "NodeColumns":
        """Build the template from already-flat arrays, zero-copy, and
        freeze them.

        This is the layout the trace generators emit
        (:class:`~repro.infra.intervals.FlatTrace`) and the trace
        store's on-disk layout (``starts``/``ends``/``bounds``/
        ``powers``/``tags``), so neither a fresh realization nor a
        store hit is ever split per node: the generated or mmap-backed
        arrays become the columns directly.  One vectorized pass
        validates the layout (offsets run from 0 to ``len(starts)``
        without decreasing, one finite positive power and one tag per node)
        and the intervals (positive-length, sorted and non-overlapping
        per node).
        """
        starts = np.ascontiguousarray(starts, dtype=np.float64)
        ends = np.ascontiguousarray(ends, dtype=np.float64)
        offsets = np.ascontiguousarray(offsets, dtype=np.int64)
        power = np.ascontiguousarray(power, dtype=np.float64)
        tags = tuple(tags)
        if starts.ndim != 1 or starts.shape != ends.shape:
            raise ValueError("starts and ends must have identical shapes")
        n = len(offsets) - 1
        total = len(starts)
        if (n < 0 or offsets[0] != 0 or offsets[-1] != total
                or np.any(np.diff(offsets) < 0)):
            raise ValueError("offsets must run from 0 to len(starts) "
                             "without decreasing")
        if power.shape != (n,) or len(tags) != n:
            raise ValueError("power and tags must hold one entry per node")
        usable = (power > 0) & (power < np.inf)
        if not np.all(usable):
            bad = float(power[np.argmax(~usable)])
            raise ValueError(f"node power must be finite and positive, "
                             f"got {bad}")
        if not np.all(ends > starts):
            raise ValueError("intervals must be positive-length")
        # sortedness within each node: every adjacent pair must
        # satisfy starts[k+1] >= ends[k] except across node borders
        gap_ok = starts[1:] >= ends[:-1]
        borders = offsets[1:-1] - 1  # last interval index per node
        gap_ok[borders[(borders >= 0) & (borders < total - 1)]] = True
        if not np.all(gap_ok):
            raise ValueError("intervals must be sorted and "
                             "non-overlapping")
        for arr in (starts, ends, offsets, power):
            arr.setflags(write=False)
        return cls(starts, ends, offsets, power, tags,
                   cursor=offsets[:-1].copy())

    def fresh(self) -> "NodeColumns":
        """A per-execution instance: shared immutable columns, own cursor."""
        return NodeColumns(self.starts, self.ends, self.offsets,
                           self.power, self.tags,
                           cursor=self.offsets[:-1].copy())

    # ------------------------------------------------------------------
    # per-node scans (i is the node id; t must be non-decreasing)
    # ------------------------------------------------------------------
    def advance(self, i: int, t: float) -> int:
        """Move node ``i``'s cursor to its first interval with end > t."""
        ends = self.ends
        cursor = self.cursor
        cur = cursor[i]
        hi = self.offsets[i + 1]
        while cur < hi and ends[cur] <= t:
            cur += 1
        cursor[i] = cur
        return cur

    def interval_at(self, i: int, t: float
                    ) -> Optional[Tuple[float, float]]:
        """The availability interval of node ``i`` containing ``t``."""
        cur = self.advance(i, t)
        if cur < self.offsets[i + 1] and self.starts[cur] <= t:
            return (float(self.starts[cur]), float(self.ends[cur]))
        return None

    def next_available(self, i: int, t: float
                       ) -> Optional[Tuple[float, float]]:
        """First interval of node ``i`` with end > t (current or next)."""
        cur = self.advance(i, t)
        if cur >= self.offsets[i + 1]:
            return None
        return (float(self.starts[cur]), float(self.ends[cur]))

    # ------------------------------------------------------------------
    def first_interval(self, after: float
                       ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(ids, start, end) of every node's first interval ending
        after ``after`` — :meth:`next_available` from a fresh cursor —
        without moving any cursor; nodes with none are excluded.  Ends
        increase within a node, so one cumulative count of the ends
        ``<= after`` gives each node's number of intervals to skip."""
        lo, hi = self.offsets[:-1], self.offsets[1:]
        done = np.zeros(len(self.ends) + 1, dtype=np.int64)
        np.cumsum(self.ends <= after, out=done[1:])
        first = lo + (done[hi] - done[lo])
        ids = np.flatnonzero(first < hi)
        return ids, self.starts[first[ids]], self.ends[first[ids]]

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"<NodeColumns n={self.n} "
                f"intervals={self.starts.shape[0]}>")


class ColumnNode:
    """Flyweight `Node`-API view over one :class:`NodeColumns` index.

    Created lazily by the pool for the node it hands to the middleware;
    cheap scalar state (``power``, ``tag``) is bound at construction,
    interval scans delegate to the shared columns (so the cursor is the
    column cursor — the pool keeps one view per id for stable
    identity).
    """

    __slots__ = ("_cols", "node_id", "power", "tag")

    #: trace nodes are never cloud workers
    cloud = False

    def __init__(self, cols: NodeColumns, i: int):
        self._cols = cols
        self.node_id = int(i)
        self.power = float(cols.power[i])
        self.tag = cols.tags[i]

    # -- Node API ------------------------------------------------------
    def interval_at(self, t: float) -> Optional[Tuple[float, float]]:
        return self._cols.interval_at(self.node_id, t)

    def next_available(self, t: float) -> Optional[Tuple[float, float]]:
        return self._cols.next_available(self.node_id, t)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<ColumnNode {self.node_id} power={self.power:.0f}>"
