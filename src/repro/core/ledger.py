"""Columnar worker-handle ledger: the Scheduler's per-worker billing state.

Algorithm 2 is a per-tick scan over every Cloud worker the service
manages, so its cost scales with the supplement size.  The
:class:`HandleLedger` stores one run's Cloud worker state as flat NumPy
columns —

* ``billed_busy`` — busy CPU·seconds already billed per handle;
* ``last_busy``   — last instant the handle was observed computing;
* ``ever_assigned`` / ``stopped`` — lifecycle flags;
* ``node_ids``    — the handles' node ids (bulk usage snapshots);

so the scheduler computes every handle's busy-second delta in one
vectorized pass and drops to Python only for the handles that
transition (idle-grace release).  The columns are the only copy of
this state: a :class:`~repro.cloud.worker.CloudWorkerHandle` holds the
instance, deployment and its ``ledger_index`` into them, nothing else.

Charge *order* is load-bearing: indices are always processed ascending
— the run's launch order — so the per-handle clamp sequence of
:meth:`~repro.core.credit.CreditSystem.bill_many` (ledger entries,
escrow clamping) stays byte-identical to the per-handle loop the
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
    """Flat-array billing and lifecycle state of one QoS run's workers."""

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
        """Register a freshly launched handle; returns its index.

        Its worker starts live, never assigned, with nothing billed,
        and counts as last busy when its instance finishes booting.
        """
        i = self.n
        if i >= len(self.billed_busy):
            self._grow(i + 1)
        self.handles.append(handle)
        handle.ledger_index = i
        node_id = handle.node.node_id
        self.by_node[node_id] = handle
        # columns past ``n`` are still zero: nothing billed, never
        # assigned, not stopped
        self.last_busy[i] = handle.instance.boot_end
        self.node_ids[i] = node_id
        self.n = i + 1
        self.active += 1
        self._live_idx = None
        self._live_ids = None
        return i

    def get_by_node(self, node_id: int):
        return self.by_node.get(node_id)

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def touch_busy_bulk(self, idx: np.ndarray, now: float) -> None:
        """Mark the tick's busy handles (assignment + idle tracking)."""
        self.ever_assigned[idx] = True
        self.last_busy[idx] = now

    def mark_stopped(self, i: int) -> None:
        if not self.stopped[i]:
            self.active -= 1
        self.stopped[i] = True
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

    def live_node_ids(self) -> list:
        """Node ids of :meth:`live_indices`, memoized the same way."""
        if self._live_ids is None:
            self._live_ids = self.node_ids[self.live_indices()].tolist()
        return self._live_ids

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<HandleLedger n={self.n} active={self.active}>"
