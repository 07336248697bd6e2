"""The history plane: one query surface over the execution archive.

The Information module's archive used to be a bare store that only the
Oracle read, one process at a time.  The :class:`HistoryPlane` promotes
it to a first-class subsystem: a thin façade over any
:class:`~repro.history.records.HistoryStore` backend (in-memory by
default, :class:`~repro.history.persistent.PersistentHistoryStore` for
cross-run learning) plus the derived queries every consumer needs —

* the Oracle: per-environment α calibration, ±20 % success rates and
  α residuals (§3.4);
* the routers: smoothed per-DCI throughput estimates and per-category
  slowdown summaries (load probes fed by history instead of
  instantaneous counts, learned category→DCI affinities);
* the admission controller: predicted credit cost of a declared BoT
  from the environment's archived spend per task.

Environment keys are ``"<dci>//<CATEGORY>"`` (the DCI name identifies
trace + middleware); DCI-level queries aggregate over every category
bucket of one DCI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.history.calibration import fit_alpha, prediction_success
from repro.history.records import (
    ExecutionRecord,
    HistoryStore,
    InMemoryHistoryStore,
    env_key_of,
    tc_grid,
)

__all__ = ["EnvSummary", "HistoryPlane"]

#: completion fraction whose tc defines the ideal time (§2.2)
_IDEAL_FRACTION = 0.9


@dataclass(frozen=True)
class EnvSummary:
    """Per-environment archive digest (``repro history stats``)."""

    env_key: str
    records: int
    mean_makespan: float
    #: smoothed sustained rate, tasks per hour
    throughput_per_hour: float
    #: mean tail slowdown (makespan / ideal time), NaN if undefined
    mean_slowdown: float
    #: mean ideal/makespan — the fraction of an execution during which
    #: the DCI delivered its steady-state rate (1.0 = no tail)
    availability: float
    #: mean credits billed per task, the admission cost basis
    cost_per_task: float


class HistoryPlane:
    """Pluggable-backend archive plus the query API consumers share."""

    def __init__(self, backend: Optional[HistoryStore] = None,
                 smoothing: float = 0.3):
        self.backend: HistoryStore = (backend if backend is not None
                                      else InMemoryHistoryStore())
        if not 0.0 < smoothing <= 1.0:
            raise ValueError("smoothing must be in (0, 1]")
        #: EWMA factor for the throughput estimates (1.0 = last record)
        self.smoothing = smoothing

    @classmethod
    def ensure(cls, obj) -> "HistoryPlane":
        """Coerce a plane / backend / None into a plane."""
        if isinstance(obj, cls):
            return obj
        return cls(backend=obj)

    # ------------------------------------------------------------ store
    def add(self, rec: ExecutionRecord) -> None:
        self.backend.add(rec)

    def fetch(self, env_key: str) -> List[ExecutionRecord]:
        return self.backend.fetch(env_key)

    def env_keys(self) -> List[str]:
        return self.backend.env_keys()

    def __len__(self) -> int:
        return len(self.backend)

    def close(self) -> None:
        """Close the backend if it holds a resource (a persistent
        archive's database connection); in-memory planes need nothing."""
        close = getattr(self.backend, "close", None)
        if close is not None:
            close()

    def archive(self, env_key: str, monitor,
                credits_spent: float = 0.0,
                provider: str = "") -> ExecutionRecord:
        """Archive a finished :class:`~repro.core.info.BoTMonitor`.

        ``provider`` is the environment's provider dimension — the
        cloud that supplemented the execution — so archived credit
        costs can be learned per cloud (heterogeneous price books).
        """
        if not monitor.done:
            raise ValueError("cannot archive an unfinished execution")
        rec = ExecutionRecord(
            env_key=env_key, n_tasks=monitor.total,
            makespan=monitor.completion_times[-1],
            grid=tc_grid(monitor.completion_times, monitor.total),
            credits_spent=credits_spent, provider=provider)
        self.backend.add(rec)
        return rec

    def gc(self, vacuum: bool = True) -> Tuple[int, int]:
        """Reclaim stale-salt records when the backend supports it."""
        gc = getattr(self.backend, "gc", None)
        if gc is None:
            return 0, 0
        return gc(vacuum=vacuum)

    # ------------------------------------------------------ tc(x) grids
    def grids(self, env_key: str) -> np.ndarray:
        """Stacked per-execution ``tc(x)`` grids, shape (k, 100)."""
        history = self.fetch(env_key)
        if not history:
            return np.empty((0, 100))
        return np.vstack([rec.grid for rec in history])

    def makespans(self, env_key: str) -> np.ndarray:
        return np.asarray([rec.makespan for rec in self.fetch(env_key)])

    # ------------------------------------------------------ calibration
    def alpha(self, env_key: str, fraction: float) -> Tuple[float, int]:
        """Calibrated α for an environment at a completion ratio.

        Uses every archived execution of the environment: base
        prediction ``p_i = tc_i(fraction) / fraction``, actual
        ``a_i = makespan_i``.  Returns ``(1.0, 0)`` cold.
        """
        history = self.fetch(env_key)
        if not history:
            return 1.0, 0
        p = [rec.tc_at(fraction) / fraction for rec in history]
        a = [rec.makespan for rec in history]
        return fit_alpha(p, a), len(history)

    def success_rate(self, env_key: str, fraction: float,
                     alpha: float) -> float:
        """Historical ±20 % success rate of α-scaled predictions."""
        history = self.fetch(env_key)
        if not history:
            return float("nan")
        hits = 0
        used = 0
        for rec in history:
            base = rec.tc_at(fraction)
            if not math.isfinite(base) or base <= 0:
                continue
            used += 1
            if prediction_success(alpha * base / fraction, rec.makespan):
                hits += 1
        return hits / used if used else float("nan")

    def alpha_residuals(self, env_key: str, fraction: float,
                        alpha: Optional[float] = None) -> np.ndarray:
        """Signed errors ``a_i - α·p_i`` of the calibrated predictions.

        ``alpha=None`` fits it from the same records first.  Entries
        with an unusable base prediction are dropped.
        """
        history = self.fetch(env_key)
        if not history:
            return np.empty(0)
        if alpha is None:
            alpha, _ = self.alpha(env_key, fraction)
        out = []
        for rec in history:
            base = rec.tc_at(fraction)
            if not math.isfinite(base) or base <= 0:
                continue
            out.append(rec.makespan - alpha * base / fraction)
        return np.asarray(out)

    # ------------------------------------------- throughput / slowdown
    def _rate_pairs(self, env_key: str) -> List[Tuple[int, float]]:
        """(n_tasks, makespan) pairs, skipping grid decodes when the
        backend offers the cheap projection (SQL backends do)."""
        getter = getattr(self.backend, "fetch_rates", None)
        if getter is not None:
            return getter(env_key)
        return [(rec.n_tasks, rec.makespan)
                for rec in self.fetch(env_key)]

    def _ewma_rate(self, pairs) -> Optional[float]:
        """EWMA of per-record sustained rates (tasks/second)."""
        estimate = None
        for n_tasks, makespan in pairs:
            if makespan <= 0:
                continue
            rate = n_tasks / makespan
            estimate = rate if estimate is None else (
                self.smoothing * rate + (1 - self.smoothing) * estimate)
        return estimate

    def throughput(self, env_key: str) -> Optional[float]:
        """Smoothed sustained rate (tasks/second) of an environment.

        EWMA over the archive in insertion order, so recent executions
        dominate — a DCI that degraded shows it without an operator
        resetting anything.  None with no usable history.
        """
        return self._ewma_rate(self._rate_pairs(env_key))

    def dci_throughput(self, dci: str) -> Optional[float]:
        """Smoothed rate over every category bucket of one DCI,
        weighted by each bucket's record count.  Runs per routing
        decision on the history-fed policies, so it only touches the
        (n_tasks, makespan) projection — grids stay un-decoded.
        """
        total_weight = 0
        acc = 0.0
        prefix = f"{dci}//"
        for env_key in self.env_keys():
            if not env_key.startswith(prefix):
                continue
            pairs = self._rate_pairs(env_key)
            est = self._ewma_rate(pairs)
            if est is None:
                continue
            acc += est * len(pairs)
            total_weight += len(pairs)
        if total_weight == 0:
            return None
        return acc / total_weight

    def mean_slowdown(self, env_key: str) -> Optional[float]:
        """Mean tail slowdown (makespan over ``tc(0.9)/0.9``) archived
        for an environment; None without usable records."""
        vals = []
        for rec in self.fetch(env_key):
            ideal = rec.tc_at(_IDEAL_FRACTION) / _IDEAL_FRACTION
            if math.isfinite(ideal) and ideal > 0 and rec.makespan > 0:
                vals.append(rec.makespan / ideal)
        if not vals:
            return None
        return float(np.mean(vals))

    def dci_slowdown(self, dci: str, category: str) -> Optional[float]:
        return self.mean_slowdown(env_key_of(dci, category))

    # ------------------------------------------------- admission basis
    def cost_per_task(self, env_key: str,
                      provider: Optional[str] = None) -> Optional[float]:
        """Mean credits billed per task in this environment.

        ``provider`` selects the environment's provider dimension:
        records from that cloud — plus untagged legacy records, which
        are provider-agnostic — enter the mean, while records tagged
        with *other* clouds are excluded (learned costs are per-cloud:
        the same DCI supplemented from a pricier provider predicts
        pricier).  A provider the bucket has never seen falls back to
        the all-provider mean, mirroring the optimistic cold-start of
        α = 1.
        """
        history = self.fetch(env_key)
        if provider is not None:
            filtered = [rec for rec in history
                        if rec.provider == provider or not rec.provider]
            if filtered:
                history = filtered
        pairs = [(rec.credits_spent, rec.n_tasks)
                 for rec in history if rec.n_tasks > 0]
        if not pairs:
            return None
        return float(np.mean([spent / n for spent, n in pairs]))

    def predicted_cost(self, env_key: str, n_tasks: int,
                       provider: Optional[str] = None) -> Optional[float]:
        """Predicted credit cost of a declared BoT, or None cold."""
        per_task = self.cost_per_task(env_key, provider=provider)
        if per_task is None:
            return None
        return per_task * n_tasks

    def provider_costs(self) -> Dict[str, Tuple[int, float]]:
        """Per-cloud cost learning across every environment:
        ``{provider: (records, mean credits per task)}`` over records
        carrying a provider tag (``repro history stats`` prints it)."""
        acc: Dict[str, List[float]] = {}
        for env_key in self.env_keys():
            for rec in self.fetch(env_key):
                if rec.provider and rec.n_tasks > 0:
                    acc.setdefault(rec.provider, []).append(
                        rec.credits_spent / rec.n_tasks)
        return {provider: (len(vals), float(np.mean(vals)))
                for provider, vals in sorted(acc.items())}

    # --------------------------------------------------------- summary
    def summarize(self, env_key: str) -> EnvSummary:
        history = self.fetch(env_key)
        makespans = [rec.makespan for rec in history]
        slowdown = self.mean_slowdown(env_key)
        rate = self.throughput(env_key)
        cost = self.cost_per_task(env_key)
        return EnvSummary(
            env_key=env_key,
            records=len(history),
            mean_makespan=float(np.mean(makespans)) if makespans
            else float("nan"),
            throughput_per_hour=3600.0 * rate if rate is not None
            else float("nan"),
            mean_slowdown=slowdown if slowdown is not None
            else float("nan"),
            availability=1.0 / slowdown if slowdown else float("nan"),
            cost_per_task=cost if cost is not None else float("nan"))

    def summary(self) -> Dict[str, EnvSummary]:
        """Every environment's digest, key-sorted."""
        return {env: self.summarize(env) for env in self.env_keys()}
