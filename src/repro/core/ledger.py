"""Columnar worker-handle ledger: the Scheduler's per-tick billing state.

Algorithm 2 is a per-tick scan over every Cloud worker the service
manages, so its cost scales with the supplement size: the 10^5-node
profile showed ``_bill_and_manage`` and the per-handle
``BillingMeter.charge → PriceBook.rate`` chain consuming ~40 % of run
wall — thousands of Python calls per tick, each re-resolving a price
that never changes.  The :class:`HandleLedger` stores one run's
:class:`~repro.cloud.worker.CloudWorkerHandle` billing state as flat
NumPy columns —

* ``billed_busy`` — busy CPU·seconds already billed per handle;
* ``last_busy``   — last instant the handle was observed computing;
* ``ever_assigned`` / ``stopped`` — lifecycle flags;
* ``node_ids``    — the handles' node ids (bulk usage snapshots);

so the scheduler computes every handle's busy-second delta in one
vectorized pass and drops to Python only for the handles that actually
charge (``delta > 0``) or transition (idle-grace release).

Sync contract (load-bearing): the ledger columns are the scan's
working state, and the handle objects' attributes are kept *exactly*
mirrored — every mutation of ``billed_busy`` / ``last_busy`` /
``ever_assigned`` / ``stopped`` goes through a ledger method
(:meth:`set_billed`, :meth:`touch_busy_bulk`, :meth:`mark_stopped`, and
:meth:`set_billed_bulk`), which writes both sides.  External readers (tests,
reports) keep seeing plain handle attributes; writing a handle
attribute directly would desync the columns and is therefore reserved
to this module.  Charge *order* is equally load-bearing: bulk indices
are always processed ascending — the historical ``run.handles``
iteration order — so the per-handle ``credits.bill`` sequence (ledger
entries, escrow clamping) stays byte-identical to the scalar loop the
columns replaced (pinned by ``tests/test_ledger_billing.py``).

``by_node`` indexes handles by ``node_id`` so starvation callbacks
(:meth:`~repro.core.scheduler.SpeQuloSScheduler._stop_by_node`) stop
scanning the handle list.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

__all__ = ["HandleLedger"]


class HandleLedger:
    """Flat-array mirror of one QoS run's worker handles."""

    __slots__ = ("handles", "by_node", "n", "active", "billed_busy",
                 "last_busy", "ever_assigned", "stopped", "node_ids",
                 "_live_idx", "_live_ids")

    def __init__(self, capacity: int = 8):
        #: the run's handles in launch order (the historical
        #: ``run.handles`` list — billing order depends on it)
        self.handles: List = []
        #: node_id -> handle (starvation stops, O(1))
        self.by_node: Dict[int, object] = {}
        self.n = 0
        #: handles not yet stopped (replaces the O(handles) sum)
        self.active = 0
        self.billed_busy = np.zeros(capacity, dtype=np.float64)
        self.last_busy = np.zeros(capacity, dtype=np.float64)
        self.ever_assigned = np.zeros(capacity, dtype=bool)
        self.stopped = np.zeros(capacity, dtype=bool)
        self.node_ids = np.zeros(capacity, dtype=np.int64)
        #: memoized live views — the live set only changes at launch /
        #: stop transitions, not on every billing tick
        self._live_idx: Optional[np.ndarray] = None
        self._live_ids: Optional[list] = None

    # ------------------------------------------------------------------
    def _grow(self, need: int) -> None:
        cap = max(need, 2 * len(self.billed_busy))
        for name in ("billed_busy", "last_busy", "ever_assigned",
                     "stopped", "node_ids"):
            old = getattr(self, name)
            new = np.zeros(cap, dtype=old.dtype)
            new[:self.n] = old[:self.n]
            setattr(self, name, new)

    def append(self, handle) -> int:
        """Register a freshly launched handle; returns its index."""
        i = self.n
        if i >= len(self.billed_busy):
            self._grow(i + 1)
        self.handles.append(handle)
        handle.ledger_index = i
        self.by_node[handle.node.node_id] = handle
        self.billed_busy[i] = handle.billed_busy
        self.last_busy[i] = handle.last_busy
        self.ever_assigned[i] = handle.ever_assigned
        self.stopped[i] = handle.stopped
        self.node_ids[i] = handle.node.node_id
        self.n = i + 1
        if not handle.stopped:
            self.active += 1
        self._live_idx = None
        self._live_ids = None
        return i

    def get_by_node(self, node_id: int):
        return self.by_node.get(node_id)

    # ------------------------------------------------------------------
    # mutations (write the column AND the mirrored handle attribute)
    # ------------------------------------------------------------------
    def set_billed(self, handle, total: float) -> None:
        """Scalar billed-busy update (stop-time settlements)."""
        self.billed_busy[handle.ledger_index] = total
        handle.billed_busy = total

    def set_billed_bulk(self, idx: np.ndarray, totals: np.ndarray) -> None:
        """Billed-busy update for the tick's charged handles.

        ``idx`` must be ascending — the historical charge order.
        """
        self.billed_busy[idx] = totals
        handles = self.handles
        for i, total in zip(idx.tolist(), totals.tolist()):
            handles[i].billed_busy = total

    def touch_busy_bulk(self, idx: np.ndarray, now: float) -> None:
        """Mark the tick's busy handles (assignment + idle tracking)."""
        self.ever_assigned[idx] = True
        self.last_busy[idx] = now
        handles = self.handles
        for i in idx.tolist():
            h = handles[i]
            h.ever_assigned = True
            h.last_busy = now

    def mark_stopped(self, handle) -> None:
        i = handle.ledger_index
        if not self.stopped[i]:
            self.active -= 1
        self.stopped[i] = True
        handle.stopped = True
        self._live_idx = None
        self._live_ids = None

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def live_indices(self) -> np.ndarray:
        """Indices of not-yet-stopped handles, ascending (charge order).

        Memoized between launch/stop transitions; callers must treat
        the returned array as read-only.
        """
        if self._live_idx is None:
            self._live_idx = np.flatnonzero(~self.stopped[:self.n])
        return self._live_idx

    def live_node_ids(self, live: Optional[np.ndarray] = None) -> list:
        if live is None:
            if self._live_ids is None:
                self._live_ids = \
                    self.node_ids[self.live_indices()].tolist()
            return self._live_ids
        return self.node_ids[live].tolist()

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HandleLedger n={self.n} active={self.active}>"
