"""Scenario harness: the single world-assembly path for all executions.

Both simulation paths of :mod:`repro.experiments.runner` — the
single-BoT :func:`~repro.experiments.runner.run_execution` and the
tenant stream behind :func:`~repro.experiments.runner.run_federated`
(whose one-DCI projection is :func:`~repro.experiments.runner.
run_multi_tenant`) — and the EDGI deployment preset assemble their
worlds here: trace realizations wrapped in node pools, middleware
servers, cloud drivers and one SpeQuloS service, completion observers
and accounting afterwards.  A :class:`ScenarioHarness` holds N DCIs
(each a trace realization + middleware server + cloud driver), one
lazily created SpeQuloS over all of them, shared stop-on-completion
watchers and per-DCI accounting probes.

RNG discipline (drift-critical): every component draws from an
independent, explicitly labelled stream —

* trace realization   ``[seed, *stream, 0xACE]``
* node-pool shuffle   ``[seed, *stream, 0xB00]``
* cloud worker powers ``[seed, *stream, 0xC10]``

where ``stream`` is empty for single-DCI scenarios (bit-identical to
the historical layout) and ``(dci_index,)`` in a federation, so two
DCIs sharing a trace name still realize *different* environments.

Trace-realization cache (two tiers): materialized interval arrays are
cached per ``(trace, seed-stream, cap, horizon)``.  L1 is a true-LRU
in-process dict — paired with/without runs, the 18-combination
strategy grid and every DCI of a federated sweep replay the same
environments, so regeneration would be pure waste.  Capacity comes
from ``REPRO_TRACE_CACHE`` (default 6; federated scenarios materialize
several traces per execution and would silently thrash a smaller
cache).  L2 is the content-addressed on-disk
:class:`~repro.experiments.trace_store.TraceStore` shared across
processes: an L1 miss first tries the store (memory-mapped, no
regeneration), and fresh realizations are archived on the way in, so
`CampaignExecutor` shards — keyed by ``(trace, seed)`` — land on warm
entries by construction.  Hit/miss/eviction counters are kept on the
cache object; ``disk_hits`` counts L2 promotions.  Only raw interval
arrays are cached, and they are **read-only** (a mutating consumer
fails loudly instead of silently corrupting every future execution
sharing the realization) — Node objects carry a scan cursor and are
rebuilt per execution.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.cloud.api import ComputeDriver
from repro.cloud.registry import get_driver
from repro.core.admission import DEFERRED, GRANTED
from repro.core.info import InformationModule
from repro.core.scheduler import CloudArbiter, SchedulerConfig
from repro.core.service import SpeQuloS
from repro.experiments.trace_store import default_trace_store
from repro.history import HistoryPlane
from repro.infra.catalog import get_trace_spec
from repro.infra.columns import NodeColumns
from repro.infra.node import Node
from repro.infra.pool import NodePool
from repro.middleware import resolve_server
from repro.middleware.base import DGServer
from repro.simulator.engine import Simulation

__all__ = ["TraceCache", "TRACE_CACHE", "AssemblyCache", "ASSEMBLY_CACHE",
           "HarnessDCI", "ScenarioHarness"]


# ---------------------------------------------------------------------------
# trace realization cache (per process, true LRU)
# ---------------------------------------------------------------------------
_TraceKey = Tuple[str, Tuple[int, ...], int, float]
_RawNodes = List[Tuple[np.ndarray, np.ndarray, float, str]]


class _CacheEntry:
    """One cached realization: flat store-layout arrays and/or the
    per-node raw view list, whichever was cheapest to obtain.

    Disk hits arrive flat (five array handles); the per-node views are
    only built if an object-Node consumer actually asks
    (:meth:`TraceCache.materialize`) — columnar consumers go straight
    to :meth:`~repro.infra.columns.NodeColumns.from_flat` and never
    pay the 10^5-iteration split.  Generated realizations arrive raw.
    """

    __slots__ = ("flat", "_raw")

    def __init__(self, flat: Optional[Tuple] = None,
                 raw: Optional[_RawNodes] = None):
        self.flat = flat
        self._raw = raw

    @property
    def raw(self) -> _RawNodes:
        if self._raw is None:
            starts, ends, bounds, powers, tags = self.flat
            self._raw = [
                (np.asarray(starts[bounds[i]:bounds[i + 1]]),
                 np.asarray(ends[bounds[i]:bounds[i + 1]]),
                 float(powers[i]), tags[i])
                for i in range(bounds.shape[0] - 1)]
        return self._raw


class TraceCache:
    """Two-tier cache of materialized trace realizations (raw arrays).

    L1: in-process LRU of realizations.  L2: the shared
    content-addressed on-disk :class:`~repro.experiments.trace_store.
    TraceStore` (disabled under ``REPRO_NO_CACHE=1``).  All cached
    arrays are read-only; Node and column rebuilds share them
    zero-copy.  Derived per-execution state (columns templates, pool
    filings) lives one level up, in :class:`AssemblyCache`.
    """

    def __init__(self) -> None:
        self._entries: "OrderedDict[_TraceKey, _CacheEntry]" = OrderedDict()
        self.hits = 0
        self.misses = 0       # L1 misses (may still hit disk)
        self.disk_hits = 0    # L1 misses served by the on-disk store
        self.evictions = 0

    @staticmethod
    def capacity() -> int:
        """Entry cap from ``REPRO_TRACE_CACHE`` (default 6, min 1)."""
        return max(1, int(os.environ.get("REPRO_TRACE_CACHE", "6")))

    def materialize(self, trace: str, seed: int, cap: int, horizon: float,
                    stream: Sequence[int] = ()) -> List[Node]:
        """Nodes of one trace realization, rebuilt from cached arrays.

        ``stream`` extends the RNG label (a federated scenario passes
        the DCI index so same-trace DCIs realize independently); the
        empty stream reproduces the historical single-DCI layout.
        """
        raw = self._entry_for((trace, (seed, *stream), cap, horizon)).raw
        return [Node(i, power, starts, ends, tag=tag)
                for i, (starts, ends, power, tag) in enumerate(raw)]

    def columns_template(self, trace: str, seed: int, cap: int,
                         horizon: float,
                         stream: Sequence[int] = ()) -> NodeColumns:
        """One realization as an immutable columnar template, built
        afresh from the cached arrays on every call (the caller keeps
        it — see :class:`AssemblyCache`; executions run on its
        :meth:`~repro.infra.columns.NodeColumns.fresh` cursor copies).
        """
        entry = self._entry_for((trace, (seed, *stream), cap, horizon))
        if entry.flat is not None:
            return NodeColumns.from_flat(*entry.flat)
        return NodeColumns.from_raw(entry.raw)

    def _entry_for(self, key: _TraceKey) -> "_CacheEntry":
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            entry = self._materialize_miss(key)
            while len(self._entries) >= self.capacity():
                self._entries.popitem(last=False)
                self.evictions += 1
            self._entries[key] = entry
        else:
            # LRU: a hit refreshes the entry so hot environments survive
            # campaign sweeps that touch more traces than the cache holds.
            self.hits += 1
            self._entries.move_to_end(key)
        return entry

    def _materialize_miss(self, key: _TraceKey) -> "_CacheEntry":
        """L1 miss: promote from the disk store, else generate + archive.

        Disk promotions stay in the store's flat layout (per-node views
        are only split off lazily, see :class:`_CacheEntry`).  The
        generated arrays are frozen before anything else sees them:
        every execution rebuilt from this entry shares them zero-copy,
        so a mutating consumer must fail loudly.
        """
        trace, (seed, *stream), cap, horizon = key
        store = default_trace_store()
        if store is not None:
            flat = store.load_flat(key)
            if flat is not None:
                self.disk_hits += 1
                return _CacheEntry(flat=flat)
        rng = np.random.default_rng([seed, *stream, 0xACE])
        nodes = get_trace_spec(trace).materialize(rng, horizon, cap)
        raw = [(n.starts, n.ends, n.power, n.tag) for n in nodes]
        for starts, ends, _power, _tag in raw:
            starts.setflags(write=False)
            ends.setflags(write=False)
        if store is not None:
            try:
                store.save(key, raw)
            except OSError:
                pass  # a full/read-only disk must not fail the run
        return _CacheEntry(raw=raw)

    # ------------------------------------------------------------------
    def keys(self) -> List[_TraceKey]:
        return list(self._entries)

    def clear(self) -> None:
        self._entries.clear()

    def reset_stats(self) -> None:
        self.hits = self.misses = self.disk_hits = self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def summary(self) -> str:
        return (f"{self.hits} hits, {self.misses} misses "
                f"({self.disk_hits} from disk), "
                f"{self.evictions} evictions, {len(self)} entries "
                f"(cap {self.capacity()})")


#: process-wide cache shared by every runner entry point
TRACE_CACHE = TraceCache()


# ---------------------------------------------------------------------------
# assembly-skeleton cache (per process)
# ---------------------------------------------------------------------------
class AssemblyCache:
    """Per-process cache of world-assembly skeletons.

    Keyed like a trace realization — ``(trace, seed-stream, cap,
    horizon)`` — a skeleton is the realization's immutable columns
    template plus its captured t=0 pool filing (``None`` for a
    degenerate trace, whose filing is not capturable).  Both are
    execution-independent, so repeated executions over one environment
    (the strategy grid, sweep shards, warm bench rounds) restore the
    pool onto a fresh cursor copy instead of re-deriving it.
    Skeletons pin their template beyond the trace LRU; the map is
    bounded by the number of distinct realizations a process touches.
    """

    def __init__(self) -> None:
        self._skeletons: dict = {}
        self.hits = 0
        self.misses = 0

    def skeleton(self, trace: str, seed: int, cap: int, horizon: float,
                 stream: Sequence[int] = ()
                 ) -> Tuple[NodeColumns, Optional[dict]]:
        """``(template, filing)`` for one realization."""
        key = (trace, (seed, *stream), cap, horizon)
        skel = self._skeletons.get(key)
        if skel is not None:
            self.hits += 1
            return skel
        self.misses += 1
        template = TRACE_CACHE.columns_template(trace, seed, cap,
                                                horizon, stream)
        probe = NodePool(template.fresh())
        filing = probe.capture_filing() if probe.vector_filed else None
        skel = self._skeletons[key] = (template, filing)
        return skel

    def clear(self) -> None:
        self._skeletons.clear()

    def reset_stats(self) -> None:
        self.hits = self.misses = 0

    def __len__(self) -> int:
        return len(self._skeletons)

    def summary(self) -> str:
        return (f"{self.hits} hits, {self.misses} misses, "
                f"{len(self)} skeletons")


#: process-wide assembly-skeleton cache (see AssemblyCache)
ASSEMBLY_CACHE = AssemblyCache()


# ---------------------------------------------------------------------------
@dataclass
class HarnessDCI:
    """One assembled BE-DCI: server over a node pool + supporting cloud.

    Doubles as a routing target (:mod:`repro.core.routing` reads
    ``name`` and the ``server`` load probes).
    """

    name: str
    server: DGServer
    driver: ComputeDriver
    pool: NodePool


class ScenarioHarness:
    """Builds and drives one simulated world of N DCIs + one SpeQuloS.

    The harness owns the :class:`Simulation` and the DCI registry;
    the SpeQuloS service is created lazily (plain-monitoring baselines
    never pay for one) and automatically connected to every DCI, in
    declaration order.  Entry points remain responsible for their own
    submission streams — the harness provides the shared verbs:
    :meth:`build_dci`/:meth:`add_dci` assembly, :meth:`admit_pooled`
    QoS admission, :meth:`stop_when_complete` watchers, and the
    accounting probes (:meth:`cloud_task_count`, :meth:`workers_peak`).
    """

    def __init__(self, horizon: float,
                 arbiter: Optional[CloudArbiter] = None,
                 scheduler_config: Optional[SchedulerConfig] = None,
                 history=None, pricebook=None):
        self.sim = Simulation(horizon=horizon)
        self.arbiter = arbiter
        self.scheduler_config = scheduler_config
        #: the scenario's history plane: a fresh in-memory archive by
        #: default (bit-identical to the pre-plane behavior), or the
        #: shared persistent plane when the scenario opts in — the
        #: SpeQuloS Information module archives into it and the
        #: Oracle / routers / admission controller read through it
        self.history: HistoryPlane = HistoryPlane.ensure(history)
        #: the scenario's price book (economics plane): None keeps the
        #: paper's uniform exchange rate; the SpeQuloS billing meter
        #: and cost-aware routing read per-provider rates from it
        self.pricebook = pricebook
        self.dcis: "OrderedDict[str, HarnessDCI]" = OrderedDict()
        self._service: Optional[SpeQuloS] = None

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def add_dci(self, name: str, server: DGServer, driver: ComputeDriver,
                pool: Optional[NodePool] = None) -> HarnessDCI:
        """Register pre-built DCI parts (deployment presets build their
        own servers/pools to preserve historical RNG streams)."""
        if name in self.dcis:
            raise ValueError(f"DCI {name!r} already assembled")
        dci = HarnessDCI(name=name, server=server, driver=driver,
                         pool=pool if pool is not None else server.pool)
        self.dcis[name] = dci
        if self._service is not None:
            self._service.connect_dci(name, server, driver)
        return dci

    def build_dci(self, name: str, trace: str, middleware: str, seed: int,
                  cap: int, provider: str = "simulation",
                  stream: Sequence[int] = (),
                  middleware_config: Optional[object] = None) -> HarnessDCI:
        """Assemble one DCI from its declarative description.

        The pool comes from the :data:`ASSEMBLY_CACHE` skeleton of the
        realization: restored from the captured filing onto a fresh
        cursor copy of the template — structurally identical to a
        freshly filed pool (same draw-list order, same RNG streams),
        just without re-deriving it.
        """
        template, filing = ASSEMBLY_CACHE.skeleton(
            trace, seed, cap, self.sim.horizon, stream)
        rng = np.random.default_rng([seed, *stream, 0xB00])
        if filing is not None:
            pool = NodePool.from_filing(template.fresh(), filing, rng=rng)
        else:  # degenerate trace: the filing isn't capturable
            pool = NodePool(template.fresh(), rng=rng)
        server = resolve_server(middleware)(
            self.sim, pool, config=middleware_config, name=name)
        driver = get_driver(provider, self.sim,
                            rng=np.random.default_rng([seed, *stream, 0xC10]))
        return self.add_dci(name, server, driver, pool)

    # ------------------------------------------------------------------
    # service
    # ------------------------------------------------------------------
    @property
    def service(self) -> SpeQuloS:
        """The SpeQuloS instance over every DCI (created on first use)."""
        if self._service is None:
            self._service = SpeQuloS(
                self.sim, info=InformationModule(store=self.history),
                arbiter=self.arbiter,
                scheduler_config=self.scheduler_config,
                pricebook=self.pricebook)
            for dci in self.dcis.values():
                self._service.connect_dci(dci.name, dci.server, dci.driver)
        return self._service

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def admit_pooled(self, sub, dci_name: str, combo,
                     pool_id: str) -> str:
        """Admit one tenant submission on a DCI against a shared pool.

        Returns the admission verdict: ``"granted"`` (a pooled QoS
        order is opened), or — when the arbiter carries an
        :class:`~repro.core.admission.AdmissionController` whose
        predicted cost exceeds the pool's uncommitted remainder —
        ``"rejected"`` (no order, the BoT runs best-effort) or
        ``"deferred"`` (the order is retried every ``retry_period``
        until the pool can cover it).  The BoT is registered
        (monitored) and submitted to its BE-DCI in every case.
        """
        service = self.service
        service.register_qos(sub.bot, dci_name, combo,
                             deadline=sub.deadline)
        ctrl = self.arbiter.admission if self.arbiter is not None else None
        verdict = GRANTED
        if ctrl is not None:
            pool = service.credits.get_pool(pool_id)
            env = service.env_key(dci_name, sub.bot.category)
            verdict = ctrl.evaluate(
                sub.bot_id, env, sub.bot.size, pool,
                credits=service.credits,
                provider=self.dcis[dci_name].driver.name).verdict
        if verdict == GRANTED:
            service.order_qos_pooled(sub.bot_id, pool_id)
        elif verdict == DEFERRED:
            self.sim.at(self.sim.now + ctrl.retry_period,
                        self._retry_deferred, sub, dci_name, pool_id)
        self.dcis[dci_name].server.submit_bot(sub.bot, at=self.sim.now)
        return verdict

    def _retry_deferred(self, sub, dci_name: str, pool_id: str) -> None:
        """Re-evaluate a deferred QoS claim; keep retrying until the
        pool covers it, the BoT completes, or the horizon ends."""
        service = self.service
        ctrl = self.arbiter.admission if self.arbiter is not None else None
        if ctrl is None:
            return
        pool = service.credits.get_pool(pool_id)
        if pool is None or pool.closed or service.monitor(sub.bot_id).done:
            return
        env = service.env_key(dci_name, sub.bot.category)
        decision = ctrl.evaluate(sub.bot_id, env, sub.bot.size, pool,
                                 credits=service.credits,
                                 provider=self.dcis[dci_name].driver.name)
        if decision.verdict == GRANTED:
            service.order_qos_pooled(sub.bot_id, pool_id)
        else:
            self.sim.at(self.sim.now + ctrl.retry_period,
                        self._retry_deferred, sub, dci_name, pool_id)

    def schedule_deposits(self, policies):
        """Tick deposit policies over the scenario's virtual time.

        Promotes the one-off deposit helpers into scheduled economics
        objects: each policy (:class:`~repro.economics.deposits.
        AccountTopUp`, :class:`~repro.economics.deposits.PoolTopUp`,
        :class:`~repro.economics.deposits.AllowanceRation`, or
        anything with ``period`` + ``apply(credits, now)``) fires
        every ``period`` simulated seconds against the service's
        credit system.  Returns the started
        :class:`~repro.economics.deposits.DepositSchedule`.
        """
        from repro.economics.deposits import DepositSchedule
        return DepositSchedule(self.sim, self.service.credits,
                               policies).start()

    def stop_when_complete(self, bot_ids: Iterable[str]) -> None:
        """Stop the simulation once every listed BoT has completed.

        One shared watcher is attached to every assembled server, so
        completions count no matter which DCI hosts the BoT.  The stop
        is terminal for the scenario, so a stop hook tears the servers
        down (cancelling dead dispatch wake-up timers) once the event
        loop has exited — transcript-invisible by construction, since
        post-stop events never execute.
        """
        pending = set(bot_ids)
        sim = self.sim

        class _StopWhenAllDone:
            def on_bot_completed(self, bot_id: str, t: float) -> None:
                pending.discard(bot_id)
                if not pending:
                    sim.stop()

        watcher = _StopWhenAllDone()
        for dci in self.dcis.values():
            dci.server.add_observer(watcher)
        sim.add_stop_hook(self._teardown_servers)

    def _teardown_servers(self) -> None:
        for dci in self.dcis.values():
            dci.server.teardown()

    def run(self, until: Optional[float] = None) -> float:
        return self.sim.run(until=until)

    # ------------------------------------------------------------------
    # accounting probes
    # ------------------------------------------------------------------
    def cloud_task_count(self, name: str) -> int:
        """Tasks executed by the DCI's cloud workers.

        Flat/Reschedule cloud assignments are counted by the server;
        Cloud-duplication completions are tracked per coordinator, so
        runs bound to this DCI's server contribute theirs.
        """
        dci = self.dcis[name]
        total = dci.server.stats.cloud_assignments
        if self._service is not None:
            for run in self._service.scheduler.runs.values():
                if run.server is dci.server and run.coordinator is not None:
                    total += run.coordinator.completions
        return total

    def workers_peak(self) -> int:
        """Exact peak of concurrently alive cloud workers, all clouds.

        One delta-sweep over every driver's instance history — the
        number a federation's *global* worker budget is checked
        against (summing per-driver peaks would over-count, since each
        cloud peaks at a different time).
        """
        from repro.cloud.api import peak_concurrency
        return peak_concurrency(inst for dci in self.dcis.values()
                                for inst in dci.driver.instances.values())

    def runs_for_server(self, server: DGServer) -> List:
        """QoS runs bound to one DCI's server (accounting helper)."""
        if self._service is None:
            return []
        return [run for run in self._service.scheduler.runs.values()
                if run.server is server]

    def routing_targets(self) -> List[HarnessDCI]:
        """The DCIs as an ordered routing-target list."""
        return list(self.dcis.values())
