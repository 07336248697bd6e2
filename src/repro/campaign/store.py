"""Content-addressed result store for campaign executions.

Every finished :class:`~repro.experiments.runner.ExecutionResult` /
:class:`~repro.experiments.runner.MultiTenantResult` (plus arbitrary
JSON-serializable payloads, e.g. the EDGI deployment summary) is
archived in a stdlib-SQLite table keyed by a SHA-256 digest of the
canonical JSON form of its configuration, a code-version salt, and an
optional extra-parameters key.  Identical configs therefore simulate
once per store lifetime, across processes and CI runs.

Losslessness is load-bearing: figures regenerated from a warm store
must be byte-identical to a cold run, so payloads round-trip floats via
JSON's shortest-repr encoding (exact for IEEE doubles, including
NaN/inf) and arrays element-wise.  Only ``wall_seconds`` legitimately
differs between two computations of the same config; it is excluded
from the identity comparison used to detect serial/parallel
divergence.

Invalidation is automatic: the digest salt embeds
:func:`code_fingerprint`, a hash of every semantics-bearing source
file (simulator, middleware, core, workload, infra, cloud, deployment,
plus the runner/config modules), so any change to simulation code
makes old entries unreachable — no human has to remember to bump
anything.  :data:`CODE_VERSION` stays as a manual escape hatch for
forced invalidation, ``REPRO_CODE_SALT`` overrides the salt ad hoc,
and :meth:`ResultStore.invalidate` drops entries explicitly.
"""

from __future__ import annotations

import hashlib
import json
import os
import sqlite3
import time
import warnings
from dataclasses import asdict, dataclass, is_dataclass
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.experiments.config import (
    DCISpec,
    ExecutionConfig,
    MultiTenantConfig,
    ScenarioConfig,
)
from repro.experiments.runner import (
    DCIOutcome,
    ExecutionResult,
    FederatedResult,
    FederatedTenantOutcome,
    MultiTenantResult,
    TenantOutcome,
)

__all__ = ["CODE_VERSION", "ResultStore", "StoreStats", "config_digest",
           "current_store", "default_store", "default_store_path",
           "encode_result", "decode_result", "set_cache_enabled",
           "set_default_store"]

#: manual salt component for forced invalidation; day-to-day staleness
#: protection comes from :func:`code_fingerprint` (see module doc)
CODE_VERSION = "campaign-v1"

#: packages (under src/repro/) whose source defines simulation
#: semantics — their bytes feed the digest salt
_SEMANTIC_PACKAGES = ("simulator", "middleware", "core", "history",
                      "economics", "workload", "infra", "cloud",
                      "deployment", "analysis")
_SEMANTIC_FILES = (os.path.join("experiments", "config.py"),
                   os.path.join("experiments", "harness.py"),
                   os.path.join("experiments", "runner.py"))

_fingerprint: Optional[str] = None


def code_fingerprint() -> str:
    """Hash of every semantics-bearing source file (cached per process).

    Two processes running the same simulation code agree on it; any
    edit to simulation code changes it, automatically orphaning stale
    store entries without anyone having to bump :data:`CODE_VERSION`.
    """
    global _fingerprint
    if _fingerprint is None:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        paths = [os.path.join(root, rel) for rel in _SEMANTIC_FILES]
        for pkg in _SEMANTIC_PACKAGES:
            for dirpath, _dirs, files in os.walk(os.path.join(root, pkg)):
                paths.extend(os.path.join(dirpath, name)
                             for name in files if name.endswith(".py"))
        digest = hashlib.sha256()
        for path in sorted(paths):
            digest.update(os.path.relpath(path, root).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
        _fingerprint = digest.hexdigest()[:16]
    return _fingerprint

_EXEC_SCALARS = ("makespan", "censored", "n_tasks", "ideal_time",
                 "slowdown", "pct_tasks_in_tail", "pct_time_in_tail",
                 "credits_provisioned", "credits_spent",
                 "workers_launched", "cloud_cpu_hours",
                 "cloud_completions", "events", "wall_seconds")
_STREAM_SCALARS = ("pool_provisioned", "pool_spent", "workers_peak",
                   "events", "wall_seconds")


def _jsonable(obj: Any) -> Any:
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON-serializable: {type(obj).__name__}")


def _canonical(payload: Any) -> str:
    """Key-sorted form — for digests and identity comparisons only."""
    return json.dumps(payload, sort_keys=True, default=_jsonable)


def _payload_json(payload: Any) -> str:
    """Storage form: insertion order preserved, so a decoded payload
    iterates exactly like the freshly computed one (table 5 renders
    rows in dict order — sorting here would make warm runs differ)."""
    return json.dumps(payload, default=_jsonable)


def _code_salt(salt: Optional[str] = None) -> str:
    if salt:
        return salt
    env = os.environ.get("REPRO_CODE_SALT")
    if env:
        return env
    return f"{CODE_VERSION}-{code_fingerprint()}"


def config_digest(key: Any, extra: Optional[Dict[str, Any]] = None,
                  salt: Optional[str] = None) -> str:
    """Stable content digest of a config (or plain-dict key).

    The digest covers every field of the config, the config *type*, the
    code-version salt, and any extra parameters (e.g. middleware-knob
    overrides that live outside the config dataclass) — change any of
    them and the digest changes.
    """
    if is_dataclass(key) and not isinstance(key, type):
        kind, fields = type(key).__name__, asdict(key)
    elif isinstance(key, dict):
        kind, fields = "dict", key
    else:
        raise TypeError(f"unsupported store key: {type(key).__name__}")
    body = _canonical({"kind": kind, "salt": _code_salt(salt),
                       "fields": fields, "extra": extra})
    return hashlib.sha256(body.encode()).hexdigest()


# ---------------------------------------------------------------------------
# payload codecs
# ---------------------------------------------------------------------------
def encode_result(result: Any) -> Tuple[str, str]:
    """(kind, canonical JSON payload) for a storable result."""
    if isinstance(result, ExecutionResult):
        d = {name: getattr(result, name) for name in _EXEC_SCALARS}
        d["config"] = asdict(result.config)
        d["completion_times"] = result.completion_times
        d["tc_grid"] = result.tc_grid
        d["server_stats"] = result.server_stats
        return "execution", _payload_json(d)
    if isinstance(result, (FederatedResult, MultiTenantResult)):
        d = {name: getattr(result, name) for name in _STREAM_SCALARS}
        d["config"] = asdict(result.config)
        d["tenants"] = [asdict(t) for t in result.tenants]
        if isinstance(result, MultiTenantResult):
            return "multi_tenant", _payload_json(d)
        d["dcis"] = [asdict(o) for o in result.dcis]
        return "federated", _payload_json(d)
    return "json", _payload_json(result)


def decode_result(kind: str, payload: str) -> Any:
    d = json.loads(payload)
    if kind == "execution":
        return ExecutionResult(
            config=ExecutionConfig(**d["config"]),
            completion_times=np.asarray(d["completion_times"], dtype=float),
            tc_grid=np.asarray(d["tc_grid"], dtype=float),
            server_stats=d["server_stats"],
            **{name: d[name] for name in _EXEC_SCALARS})
    if kind == "multi_tenant":
        cfg = dict(d["config"])
        cfg["categories"] = tuple(cfg["categories"])
        if cfg.get("arrivals") is not None:
            cfg["arrivals"] = tuple(cfg["arrivals"])
        return MultiTenantResult(
            config=MultiTenantConfig(**cfg),
            tenants=[TenantOutcome(**t) for t in d["tenants"]],
            **{name: d[name] for name in _STREAM_SCALARS})
    if kind == "federated":
        # ScenarioConfig re-tuples its own sequence fields
        cfg = dict(d["config"])
        cfg["dcis"] = [DCISpec(**spec) for spec in cfg["dcis"]]
        return FederatedResult(
            config=ScenarioConfig(**cfg),
            tenants=[FederatedTenantOutcome(**t) for t in d["tenants"]],
            dcis=[DCIOutcome(**o) for o in d["dcis"]],
            **{name: d[name] for name in _STREAM_SCALARS})
    if kind == "json":
        return d
    raise ValueError(f"unknown payload kind {kind!r}")


#: what decoding a torn or garbled payload raises (JSONDecodeError and
#: config validation are ValueErrors; a missing or misshapen member is
#: a KeyError/TypeError)
_DECODE_ERRORS = (ValueError, KeyError, TypeError)


def _decodes(kind: str, payload: str) -> bool:
    try:
        decode_result(kind, payload)
    except _DECODE_ERRORS:
        return False
    return True


def comparable_payload(payload: str) -> str:
    """The payload with per-run timing stripped — two computations of
    the same config must agree on this form exactly."""
    d = json.loads(payload)
    if isinstance(d, dict):
        d.pop("wall_seconds", None)
    return _canonical(d)


# ---------------------------------------------------------------------------
@dataclass
class StoreStats:
    """Per-process-lifetime cache accounting for one store handle."""

    hits: int = 0
    misses: int = 0
    puts: int = 0
    #: re-puts whose timing-stripped payload disagreed with the stored
    #: one — always a bug (non-deterministic simulation or stale salt)
    conflicts: int = 0
    #: rows whose payload did not decode (torn write, bit rot): dropped
    #: by :meth:`ResultStore.get` (as a miss) or :meth:`ResultStore.gc`
    corrupt: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def summary(self) -> str:
        text = (f"{self.hits} hits, {self.misses} misses "
                f"({100.0 * self.hit_rate:.0f}% hit rate), "
                f"{self.puts} stored")
        if self.conflicts:
            text += f", {self.conflicts} CONFLICTS"
        if self.corrupt:
            text += f", {self.corrupt} corrupt rows dropped"
        return text


class ResultStore:
    """SQLite-backed content-addressed archive of campaign results."""

    _SCHEMA = """
    CREATE TABLE IF NOT EXISTS results (
        digest TEXT PRIMARY KEY,
        kind TEXT NOT NULL,
        label TEXT NOT NULL,
        mode TEXT NOT NULL,
        salt TEXT NOT NULL,
        created_at REAL NOT NULL,
        payload TEXT NOT NULL
    );
    CREATE INDEX IF NOT EXISTS idx_results_label ON results (label);
    """

    def __init__(self, path: Optional[str] = None,
                 salt: Optional[str] = None):
        self.path = path or default_store_path()
        parent = os.path.dirname(self.path)
        if self.path != ":memory:" and parent:
            os.makedirs(parent, exist_ok=True)
        self._salt = _code_salt(salt)
        self._conn = sqlite3.connect(self.path)
        self._conn.executescript(self._SCHEMA)
        self._conn.commit()
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    def digest(self, key: Any, extra: Optional[Dict[str, Any]] = None
               ) -> str:
        return config_digest(key, extra=extra, salt=self._salt)

    def get(self, key: Any, extra: Optional[Dict[str, Any]] = None
            ) -> Optional[Any]:
        """The stored result for a config, or None (counted as hit/miss).

        A row whose payload does not decode counts as ``corrupt``: it is
        deleted and reported as a miss, so the caller recomputes and
        :meth:`put` stores a fresh row.
        """
        digest = self.digest(key, extra)
        row = self._conn.execute(
            "SELECT kind, payload FROM results WHERE digest = ?",
            (digest,)).fetchone()
        if row is not None:
            try:
                result = decode_result(*row)
            except _DECODE_ERRORS:
                self._drop_corrupt([digest])
            else:
                self.stats.hits += 1
                return result
        self.stats.misses += 1
        return None

    def _drop_corrupt(self, digests: List[str]) -> None:
        self.stats.corrupt += len(digests)
        self._conn.executemany("DELETE FROM results WHERE digest = ?",
                               [(d,) for d in digests])
        self._conn.commit()

    def contains(self, key: Any,
                 extra: Optional[Dict[str, Any]] = None) -> bool:
        """Presence check that does not touch the hit/miss counters."""
        row = self._conn.execute(
            "SELECT 1 FROM results WHERE digest = ?",
            (self.digest(key, extra),)).fetchone()
        return row is not None

    def put(self, key: Any, result: Any,
            extra: Optional[Dict[str, Any]] = None,
            mode: str = "serial") -> str:
        """Archive one result; returns its digest.

        Re-putting an existing digest keeps the first record but
        verifies the new payload is identical up to timing — a
        serial/parallel (or cross-process) divergence is counted in
        ``stats.conflicts`` and warned about, never silently absorbed.
        """
        digest = self.digest(key, extra)
        kind, payload = encode_result(result)
        label = key.label() if hasattr(key, "label") else kind
        cur = self._conn.execute(
            "INSERT OR IGNORE INTO results "
            "(digest, kind, label, mode, salt, created_at, payload) "
            "VALUES (?, ?, ?, ?, ?, ?, ?)",
            (digest, kind, label, mode, self._salt, time.time(), payload))
        if cur.rowcount == 0:
            (stored,) = self._conn.execute(
                "SELECT payload FROM results WHERE digest = ?",
                (digest,)).fetchone()
            if comparable_payload(stored) != comparable_payload(payload):
                self.stats.conflicts += 1
                warnings.warn(
                    f"store conflict for {label}: recomputed result "
                    f"(mode={mode}) differs from the stored record — "
                    "simulation is non-deterministic or CODE_VERSION "
                    "is stale", RuntimeWarning, stacklevel=2)
        else:
            self.stats.puts += 1
        self._conn.commit()
        return digest

    def mode_of(self, key: Any,
                extra: Optional[Dict[str, Any]] = None) -> Optional[str]:
        """Execution mode ('serial' | 'parallel') the record came from."""
        row = self._conn.execute(
            "SELECT mode FROM results WHERE digest = ?",
            (self.digest(key, extra),)).fetchone()
        return row[0] if row else None

    def invalidate(self, key: Any = None,
                   extra: Optional[Dict[str, Any]] = None) -> int:
        """Drop one entry (or every entry when ``key`` is None)."""
        if key is None:
            cur = self._conn.execute("DELETE FROM results")
        else:
            cur = self._conn.execute(
                "DELETE FROM results WHERE digest = ?",
                (self.digest(key, extra),))
        self._conn.commit()
        return cur.rowcount

    def gc(self, vacuum: bool = True) -> Tuple[int, int]:
        """Drop stale-salt records and current ones that do not decode.

        Stale records are unreachable anyway (every lookup digest
        embeds the current salt), so GC only reclaims space — a store
        that survived many code edits (e.g. CI's cached one) otherwise
        accretes dead rows forever.  Current-salt rows whose payload
        does not decode are dropped too and counted in
        ``stats.corrupt``.  Returns ``(rows, payload_bytes)`` reclaimed,
        both kinds together; ``vacuum`` compacts the database file
        afterwards so the bytes actually return to the filesystem.
        """
        (rows, nbytes) = self._conn.execute(
            "SELECT COUNT(*), COALESCE(SUM(LENGTH(payload)), 0) "
            "FROM results WHERE salt != ?", (self._salt,)).fetchone()
        corrupt = [
            (digest, len(payload)) for digest, kind, payload
            in self._conn.execute(
                "SELECT digest, kind, payload FROM results WHERE salt = ?",
                (self._salt,)).fetchall()
            if not _decodes(kind, payload)]
        self._drop_corrupt([digest for digest, _n in corrupt])
        rows += len(corrupt)
        nbytes += sum(n for _digest, n in corrupt)
        if rows:
            self._conn.execute("DELETE FROM results WHERE salt != ?",
                               (self._salt,))
            self._conn.commit()
            if vacuum:
                self._conn.execute("VACUUM")
        return int(rows), int(nbytes)

    def breakdown(self) -> Dict[str, Dict[str, int]]:
        """Record counts per payload kind, split current/stale salt."""
        out: Dict[str, Dict[str, int]] = {}
        rows = self._conn.execute(
            "SELECT kind, salt = ?, COUNT(*) FROM results "
            "GROUP BY kind, salt = ? ORDER BY kind",
            (self._salt, self._salt)).fetchall()
        for kind, current, count in rows:
            bucket = out.setdefault(kind, {"current": 0, "stale": 0})
            bucket["current" if current else "stale"] += int(count)
        return out

    def file_bytes(self) -> int:
        """On-disk size of the database (0 for in-memory stores)."""
        if self.path == ":memory:" or not os.path.exists(self.path):
            return 0
        return os.path.getsize(self.path)

    def labels(self) -> List[str]:
        rows = self._conn.execute(
            "SELECT label FROM results ORDER BY label").fetchall()
        return [r[0] for r in rows]

    def __len__(self) -> int:
        (n,) = self._conn.execute("SELECT COUNT(*) FROM results").fetchone()
        return int(n)

    def close(self) -> None:
        self._conn.close()


# ---------------------------------------------------------------------------
# process-wide default store
# ---------------------------------------------------------------------------
_default_store: Optional[ResultStore] = None
_cache_enabled = os.environ.get("REPRO_NO_CACHE", "").lower() \
    in ("", "0", "false")


def default_store_path() -> str:
    """``REPRO_STORE`` or ``<repo>/benchmarks/.campaign_store/results.sqlite``
    (gitignored; CI persists it between runs via actions/cache)."""
    env = os.environ.get("REPRO_STORE")
    if env:
        return env
    root = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    return os.path.join(root, "benchmarks", ".campaign_store",
                        "results.sqlite")


def default_store() -> Optional[ResultStore]:
    """The process-wide store (lazily opened), or None when caching is
    off (``REPRO_NO_CACHE=1`` / :func:`set_cache_enabled`)."""
    global _default_store
    if not _cache_enabled:
        return None
    if _default_store is None:
        _default_store = ResultStore(default_store_path())
    return _default_store


def current_store() -> Optional[ResultStore]:
    """The default store if one is already open (never opens one)."""
    return _default_store if _cache_enabled else None


def set_default_store(store: Optional[ResultStore]
                      ) -> Optional[ResultStore]:
    """Swap the process-wide store; returns the previous one."""
    global _default_store
    previous, _default_store = _default_store, store
    return previous


def set_cache_enabled(enabled: bool) -> None:
    global _cache_enabled
    _cache_enabled = enabled
