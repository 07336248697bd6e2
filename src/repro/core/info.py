"""Information module: BoT execution monitoring and history (§3.2).

"The Information module stores in a database the BoT completion history
as a time series of the number of completed tasks, the number of tasks
assigned to workers and the number of tasks waiting in the scheduler
queue."  One :class:`BoTMonitor` per QoS-enabled BoT subscribes to the
DG server's observer protocol and records exactly that; the key design
point the paper stresses — *infrastructure idiosyncrasies are hidden*,
BOINC and XWHEP feed the same unified format — holds here because both
middleware emit the same events.

The archive side (used by the Oracle's statistical prediction, the
history-fed routers and the admission controller) stores, per finished
execution, the completion-time grid ``tc(x)`` for ``x = 1%..100%``
plus the credits the execution billed, under an *environment key*
(BE-DCI, middleware, BoT category), through the
:class:`~repro.history.plane.HistoryPlane` — whose backend is
pluggable (in-memory by default, persistent SQLite for cross-run
learning; see :mod:`repro.history`).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple, Union

import numpy as np

# GRID_FRACTIONS and tc_grid moved to repro.history.records; re-exported
# here because monitors produce the grids the archive consumes.
from repro.history import (
    GRID_FRACTIONS,
    ExecutionRecord,
    HistoryPlane,
    HistoryStore,
    tc_grid,
)
from repro.middleware.base import GTID
from repro.workload.bot import BagOfTasks

__all__ = ["BoTMonitor", "GRID_FRACTIONS", "InformationModule", "tc_grid"]


class BoTMonitor:
    """Per-BoT real-time execution record (one per registerQoS call).

    All times are *relative to the QoS registration / submission
    instant* (``t0``), matching the paper's completion-ratio curves.
    """

    def __init__(self, bot: BagOfTasks, t0: float):
        self.bot = bot
        self.bot_id = bot.bot_id
        self.t0 = float(t0)
        self.total = bot.size
        self.arrived = 0
        self.completion_times: List[float] = []   # sorted by construction
        self.assignment_times: List[float] = []   # first assignments
        #: sampled (t, completed, assigned, waiting) series
        self.series: List[Tuple[float, int, int, int]] = []
        self.completed_at_time: Optional[float] = None
        #: first_half_variance_max once it can no longer change
        self._half_var_max: Optional[float] = None

    # ----------------------------------------------------------- events
    def on_task_arrived(self, gtid: GTID, t: float) -> None:
        if gtid[0] != self.bot_id:
            return
        self.arrived += 1

    def on_task_first_assigned(self, gtid: GTID, t: float) -> None:
        if gtid[0] != self.bot_id:
            return
        self.assignment_times.append(t - self.t0)

    def on_task_completed(self, gtid: GTID, t: float) -> None:
        if gtid[0] != self.bot_id:
            return
        self.completion_times.append(t - self.t0)

    def on_bot_completed(self, bot_id: str, t: float) -> None:
        if bot_id != self.bot_id:
            return
        self.completed_at_time = t - self.t0

    def sample(self, t: float) -> None:
        """Record a (t, completed, assigned, waiting) monitoring point."""
        rel = t - self.t0
        completed = len(self.completion_times)
        assigned = len(self.assignment_times)
        waiting = max(0, self.arrived - assigned)
        self.series.append((rel, completed, assigned, waiting))

    # ---------------------------------------------------------- queries
    @property
    def completed_count(self) -> int:
        return len(self.completion_times)

    @property
    def assigned_count(self) -> int:
        return len(self.assignment_times)

    @property
    def done(self) -> bool:
        return self.completed_count >= self.total

    def fraction_completed(self) -> float:
        return self.completed_count / self.total

    def tc(self, fraction: float) -> Optional[float]:
        """Elapsed time when ``fraction`` of the BoT completed, or None."""
        return self._at_fraction(self.completion_times, fraction)

    def ta(self, fraction: float) -> Optional[float]:
        """Elapsed time when ``fraction`` of the BoT was assigned."""
        return self._at_fraction(self.assignment_times, fraction)

    def _at_fraction(self, series: List[float],
                     fraction: float) -> Optional[float]:
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        k = max(1, math.ceil(fraction * self.total))
        if k > len(series):
            return None
        return series[k - 1]

    def execution_variance(self, fraction: float) -> Optional[float]:
        """``var(x) = tc(x) - ta(x)`` (§3.5, Execution Variance).

        The lag between assigning and completing the x-th fraction; a
        sudden growth signals the system left its steady state.
        """
        c = self.tc(fraction)
        a = self.ta(fraction)
        if c is None or a is None:
            return None
        return c - a

    def first_half_variance_max(self) -> float:
        """``max(var(x), x = 1 %..50 %)`` over the defined points (0.0
        if none) — the Execution Variance trigger's reference (§3.5).

        Every grid point reads entry ``k <= ceil(total / 2)`` of the
        two append-only series, so once both hold that many entries
        the maximum is final and is memoized.  Before that it is
        recomputed: under cloud duplication ``ta`` can lag ``tc``
        (external completions assign nothing).
        """
        ref = self._half_var_max
        if ref is not None:
            return ref
        ref = 0.0
        for pct in range(1, 51):
            v = self.execution_variance(pct / 100.0)
            if v is not None and v > ref:
                ref = v
        half = math.ceil(0.5 * self.total)
        if (len(self.completion_times) >= half
                and len(self.assignment_times) >= half):
            self._half_var_max = ref
        return ref

    def grid(self) -> np.ndarray:
        """Archived ``tc`` percent grid for this (finished) execution."""
        return tc_grid(self.completion_times, self.total)


class InformationModule:
    """Registry of live monitors plus the execution-history archive.

    ``store`` accepts a :class:`~repro.history.plane.HistoryPlane`
    (shared, possibly persistent) or any bare
    :class:`~repro.history.records.HistoryStore` backend, which is
    wrapped in a fresh plane; by default the archive is in-memory and
    private to this module, exactly as before the history plane
    existed.  ``self.plane`` is the query surface; ``self.store``
    remains the raw backend for callers that predate the plane.
    """

    def __init__(self, store: Union[HistoryPlane, HistoryStore,
                                    None] = None):
        self.monitors: Dict[str, BoTMonitor] = {}
        self.plane: HistoryPlane = HistoryPlane.ensure(store)
        self.store: HistoryStore = self.plane.backend

    # ------------------------------------------------------------- live
    def register(self, bot: BagOfTasks, t0: float) -> BoTMonitor:
        if bot.bot_id in self.monitors:
            raise ValueError(f"BoT {bot.bot_id!r} already registered")
        mon = BoTMonitor(bot, t0)
        self.monitors[bot.bot_id] = mon
        return mon

    def monitor(self, bot_id: str) -> BoTMonitor:
        return self.monitors[bot_id]

    # ---------------------------------------------------------- archive
    def archive_execution(self, env_key: str, mon: BoTMonitor,
                          credits_spent: float = 0.0,
                          provider: str = "") -> None:
        """Store a finished execution's profile for future predictions.

        ``provider`` tags the record with the cloud that supplemented
        the execution (the history plane's provider dimension: learned
        credit costs become per-cloud).
        """
        self.plane.archive(env_key, mon, credits_spent=credits_spent,
                           provider=provider)

    def history(self, env_key: str) -> List[ExecutionRecord]:
        return self.plane.fetch(env_key)
