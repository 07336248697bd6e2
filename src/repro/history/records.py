"""Execution-history records and archive backends.

The production SpeQuloS keeps BoT execution history in MySQL; the
reproduction archives, per finished execution, the completion-time
grid ``tc(x)`` for ``x = 1%..100%`` plus the task count, makespan and
credits spent, under an *environment key* (BE-DCI, middleware, BoT
category — ``"<dci>//<CATEGORY>"``).

The in-memory store (the default for simulations) lives here; the
SQLite backend, with code-fingerprint salting and torn-row handling, is
:class:`repro.history.persistent.PersistentHistoryStore` (``:memory:``
or a file path).  Both implement the same :class:`HistoryStore`
interface, so the :class:`~repro.history.plane.HistoryPlane` (and
through it the Oracle) does not care which one it reads.
"""

from __future__ import annotations

import json
import math
import sqlite3
from dataclasses import dataclass
from typing import Dict, List, Protocol

import numpy as np

__all__ = ["GRID_FRACTIONS", "ExecutionRecord", "HistoryStore",
           "InMemoryHistoryStore", "env_key_of",
           "migrate_provider_column", "split_env_key", "tc_grid"]

#: percent grid on which execution history archives tc(x)
GRID_FRACTIONS = np.arange(1, 101) / 100.0


def tc_grid(completion_times: List[float], total: int) -> np.ndarray:
    """``tc(x)`` for x = 1%..100% (NaN where not yet reached)."""
    out = np.full(100, np.nan)
    n = len(completion_times)
    for i, frac in enumerate(GRID_FRACTIONS):
        k = max(1, math.ceil(frac * total))
        if k <= n:
            out[i] = completion_times[k - 1]
    return out


def env_key_of(dci: str, category: str) -> str:
    """History bucket: same BE-DCI + same BoT category (§4.3.3 fits α
    per trace, middleware and category; the DCI name is expected to
    identify trace + middleware)."""
    return f"{dci}//{category}"


def split_env_key(env_key: str) -> tuple:
    """``(dci, category)`` halves of an environment key."""
    dci, _, category = env_key.rpartition("//")
    return dci, category


@dataclass(frozen=True)
class ExecutionRecord:
    """Archived summary of one finished BoT execution.

    ``grid[i]`` is ``tc((i+1)/100)`` — elapsed seconds when (i+1) % of
    the BoT had completed — NaN-padded if the grid was truncated.
    ``credits_spent`` is what the execution's QoS order billed (0 for
    plain-monitoring runs); the admission controller's predicted cost
    comes from it.  ``provider`` is the environment key's *provider
    dimension*: the cloud that supplemented the execution ("" for
    plain-monitoring or pre-economics records), so learned credit
    costs can be split per cloud under heterogeneous price books.
    """

    env_key: str
    n_tasks: int
    makespan: float
    grid: np.ndarray
    credits_spent: float = 0.0
    provider: str = ""

    def tc_at(self, fraction: float) -> float:
        """tc(fraction) looked up on the percent grid (nearest cell)."""
        if not 0.0 < fraction <= 1.0:
            raise ValueError("fraction must be in (0, 1]")
        idx = min(99, max(0, int(round(fraction * 100)) - 1))
        return float(self.grid[idx])


class HistoryStore(Protocol):
    """Interface shared by archive backends."""

    def add(self, rec: ExecutionRecord) -> None: ...

    def fetch(self, env_key: str) -> List[ExecutionRecord]: ...

    def env_keys(self) -> List[str]: ...

    def __len__(self) -> int: ...


def encode_grid(grid: np.ndarray) -> str:
    """JSON form of a tc grid (NaN cells as nulls) for SQLite backends."""
    return json.dumps([None if np.isnan(v) else float(v) for v in grid])


def migrate_provider_column(conn: sqlite3.Connection) -> None:
    """Add the provider column to a pre-economics ``executions`` table.

    ``CREATE TABLE IF NOT EXISTS`` leaves an existing archive's schema
    untouched, so databases created before the provider dimension need
    the column grafted on (old rows read back as provider "").
    """
    cols = [row[1] for row in
            conn.execute("PRAGMA table_info(executions)").fetchall()]
    if "provider" not in cols:
        conn.execute("ALTER TABLE executions "
                     "ADD COLUMN provider TEXT NOT NULL DEFAULT ''")


def decode_grid(grid_json: str) -> np.ndarray:
    return np.array([np.nan if v is None else v
                     for v in json.loads(grid_json)])


class InMemoryHistoryStore:
    """Dict-of-lists archive; the default for simulations."""

    def __init__(self) -> None:
        self._data: Dict[str, List[ExecutionRecord]] = {}
        self._count = 0

    def add(self, rec: ExecutionRecord) -> None:
        self._data.setdefault(rec.env_key, []).append(rec)
        self._count += 1

    def fetch(self, env_key: str) -> List[ExecutionRecord]:
        return list(self._data.get(env_key, ()))

    def fetch_rates(self, env_key: str) -> List[tuple]:
        """(n_tasks, makespan) pairs only — the throughput probes run
        per routing decision and never need the grids."""
        return [(rec.n_tasks, rec.makespan)
                for rec in self._data.get(env_key, ())]

    def env_keys(self) -> List[str]:
        return sorted(self._data)

    def __len__(self) -> int:
        return self._count
