"""In-process layer tracing for the traced benchmark run.

The tracer wraps calls into each layer's *public* functions from the
outside — class attributes and module-level names of ``repro`` are
replaced by timing wrappers before any world is built — so the program
itself is unchanged.  Every wrapped call is a span (name, start, end,
parent); spans are kept in compact in-memory arrays and written out
once the run ends.  A layer's self time is its spans' duration minus
the time covered by their child spans.

Engine callbacks are attributed at the engine's public boundary: the
callables handed to ``Simulation.at``/``schedule``/``schedule_batch``/
``register_batch`` are wrapped and charged to the layer of the module
that owns them.  Wrappers are cached per callable and per simulation,
so two schedules of the same callable carry the same wrapper object
and the engine's batch-run detection (which compares callables) takes
exactly the code paths of an untraced run.  (The only trace the tracer
leaves on a program object is that cache, an attribute of each traced
``Simulation``.)

No process-global counter dict of the program is read; every count
below comes from the wrapped calls themselves, or from the hit/miss
attributes of the public trace and assembly caches.
"""

from __future__ import annotations

import gc
import inspect
import time
from array import array
from typing import Callable, Dict, List, Optional

import numpy as np

from repro.campaign import executor as campaign_executor
from repro.campaign.executor import CampaignExecutor
from repro.campaign.store import ResultStore
from repro.cloud.api import ComputeDriver
from repro.core import routing
from repro.core.admission import AdmissionController
from repro.core.credit import CreditSystem
from repro.core.info import BoTMonitor
from repro.core.oracle import Oracle
from repro.core.scheduler import CloudArbiter
from repro.economics.billing import BillingMeter
from repro.experiments import runner
from repro.experiments.harness import (
    ASSEMBLY_CACHE,
    TRACE_CACHE,
    ScenarioHarness,
    TraceCache,
)
from repro.experiments.trace_store import TraceStore
from repro.history.persistent import PersistentHistoryStore
from repro.history.plane import HistoryPlane
from repro.infra.pool import NodePool
from repro.middleware.base import DGServer
from repro.middleware.boinc import BoincServer
from repro.middleware.xwhep import XWHepServer
from repro.simulator.engine import Simulation
from repro.workload import tenants

#: NodePool's public calls (the dispatch plane's boundary)
POOL_METHODS = ("acquire", "acquire_many", "release", "preempted",
                "has_ready", "idle_count", "next_future_start",
                "ready_hint")
#: attribute of a Simulation holding its traced-callback cache
CALLBACK_CACHE = "perfbench_callbacks"
#: BoTMonitor's observer callbacks
OBSERVER_METHODS = ("on_task_arrived", "on_task_first_assigned",
                    "on_task_completed", "on_bot_completed", "sample")


def layer_of(fn) -> str:
    """Layer owning a callable: its module under ``repro``, with the
    SpeQuloS scheduler split out of the rest of ``repro.core``."""
    module = getattr(fn, "__module__", None) or ""
    parts = module.split(".")
    if len(parts) < 2 or parts[0] != "repro":
        return "other"
    if parts[1] == "core" and len(parts) > 2 and parts[2] == "scheduler":
        return "core.scheduler"
    return parts[1]


def public_functions(cls) -> List[str]:
    """Names of the plain public methods a class defines itself."""
    return [name for name, obj in vars(cls).items()
            if not name.startswith("_") and inspect.isfunction(obj)]


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.count: List[int] = []
        self.total: List[float] = []
        self.self_time: List[float] = []
        # span records, one entry per span, in start order
        self.rec_name = array("i")
        self.rec_parent = array("q")
        self.rec_start = array("d")
        self.rec_end = array("d")
        # open spans (arrays, so tracing allocates no tracked objects
        # of its own): record index and seconds covered by children
        self.open_idx = array("q")
        self.child = array("d")
        # counts measured at the wrapped calls
        self.acquire_hits = 0
        self.bulk_nodes = 0
        self.fetch_hits = 0
        self.disk_loads = 0
        self.store_get_hits = 0
        self.bill_amounts = 0
        self._last_sim = None
        self._last_cache: dict = {}
        self._scheduling = False
        # collector pauses: parent span index, start, end
        self.gc_parent = array("q")
        self.gc_start = array("d")
        self.gc_end = array("d")
        self.gc_seconds = 0.0

    # ------------------------------------------------------------------
    # span machinery
    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.count.append(0)
            self.total.append(0.0)
            self.self_time.append(0.0)
        return nid

    def wrap(self, fn: Callable, name: str,
             post: Optional[Callable] = None) -> Callable:
        """``fn`` as a span named ``name``; ``post(args, result)`` runs
        after a call that returned (outside the span)."""
        nid = self.name_id(name)
        clock = self.clock
        open_idx, child = self.open_idx, self.child
        rec_name, rec_parent = self.rec_name, self.rec_parent
        rec_start, rec_end = self.rec_start, self.rec_end
        count, total, self_time = self.count, self.total, self.self_time

        def traced(*args, **kwargs):
            idx = len(rec_start)
            rec_name.append(nid)
            rec_parent.append(open_idx[-1] if open_idx else -1)
            rec_end.append(0.0)
            start = clock()
            rec_start.append(start)
            open_idx.append(idx)
            child.append(0.0)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                covered = child.pop()
                open_idx.pop()
                rec_end[idx] = end
                dur = end - start
                count[nid] += 1
                total[nid] += dur
                self_time[nid] += dur - covered
                if child:
                    child[-1] += dur
            if post is not None:
                post(args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__module__ = getattr(fn, "__module__", None)
        return traced

    def patch(self, owner, attrs, name: str,
              post: Optional[Callable] = None) -> None:
        """Replace ``owner.<attr>`` by a span wrapper for every attr the
        owner defines itself (``{attr}`` in ``name`` is substituted)."""
        for attr in attrs:
            if attr not in vars(owner):
                continue
            setattr(owner, attr, self.wrap(getattr(owner, attr),
                                           name.format(attr=attr), post))

    # ------------------------------------------------------------------
    # engine boundary
    # ------------------------------------------------------------------
    def callback(self, sim, fn):
        """The cached traced wrapper of one engine callback.

        The cache lives on the simulation itself: its wrappers hold the
        callbacks, which hold the world, which holds the simulation, so
        any cache outside that cycle would keep every world alive.
        """
        if sim is self._last_sim:
            cache = self._last_cache
        else:
            cache = vars(sim).setdefault(CALLBACK_CACHE, {})
            self._last_sim, self._last_cache = sim, cache
        wrapped = cache.get(fn)
        if wrapped is None:
            wrapped = self.wrap(fn, f"{layer_of(fn)}.handler")
            cache[fn] = wrapped
            cache[wrapped] = wrapped  # re-wrapping is the identity
        return wrapped

    def _patch_engine(self) -> None:
        tracer = self
        at, schedule = Simulation.at, Simulation.schedule
        schedule_batch = Simulation.schedule_batch
        register_batch = Simulation.register_batch
        unregister_batch = Simulation.unregister_batch
        sched_span = self.wrap(lambda f, *a, **k: f(*a, **k),
                               "simulator.schedule")

        def outermost(inner):
            def call(sim, *args, **kwargs):
                if tracer._scheduling:
                    return inner(sim, *args, **kwargs)
                tracer._scheduling = True
                try:
                    return sched_span(inner, sim, *args, **kwargs)
                finally:
                    tracer._scheduling = False
            return call

        def traced_at(sim, time_, fn, *args, **kwargs):
            return at(sim, time_, tracer.callback(sim, fn), *args, **kwargs)

        def traced_register_batch(sim, fn, batch_fn):
            register_batch(sim, tracer.callback(sim, fn), self.wrap(
                batch_fn, f"{layer_of(batch_fn)}.batch_handler"))

        def traced_unregister_batch(sim, fn):
            unregister_batch(sim, tracer.callback(sim, fn))

        Simulation.at = outermost(traced_at)
        Simulation.schedule = outermost(schedule)
        Simulation.schedule_batch = outermost(schedule_batch)
        Simulation.register_batch = traced_register_batch
        Simulation.unregister_batch = traced_unregister_batch
        self.patch(Simulation, ("run",), "simulator.run")

    # ------------------------------------------------------------------
    def install(self) -> "Tracer":
        """Patch every layer boundary (before any world is built)."""
        self._patch_engine()

        def on_acquire(args, result):
            if result is not None:
                self.acquire_hits += 1

        def on_acquire_many(args, result):
            self.bulk_nodes += len(result)

        self.patch(NodePool, ("acquire",), "infra.pool.acquire", on_acquire)
        self.patch(NodePool, ("acquire_many",), "infra.pool.acquire_many",
                   on_acquire_many)
        self.patch(NodePool, POOL_METHODS[2:], "infra.pool.{attr}")

        def on_load(args, result):
            if result is not None:
                self.disk_loads += 1

        self.patch(TraceCache, ("materialize", "materialize_columns",
                                "materialize_pool", "columns_template"),
                   "infra.trace.cache")
        self.patch(TraceStore, ("load_flat",), "infra.trace.load", on_load)
        self.patch(TraceStore, ("save",), "infra.trace.save")

        def on_fetch(args, result):
            if result is not None:
                self.fetch_hits += 1

        self.patch(DGServer, ("submit_bot",), "middleware.submit_bot")
        for cls in (DGServer, BoincServer, XWHepServer):
            self.patch(cls, ("fetch_for_cloud",),
                       "middleware.fetch_for_cloud", on_fetch)
            self.patch(cls, ("cloud_usage_of",), "middleware.cloud_usage_of")

        self.patch(CloudArbiter, public_functions(CloudArbiter),
                   "core.arbiter")
        self.patch(Oracle, public_functions(Oracle), "core.oracle")
        self.patch(BoTMonitor, OBSERVER_METHODS, "core.info.observer")
        for obj in vars(routing).values():
            if inspect.isclass(obj) and issubclass(obj, routing.Router):
                self.patch(obj, ("route",), "core.routing.route")
        self.patch(AdmissionController, ("evaluate", "release"),
                   "core.admission")

        def on_bill_many(args, result):
            self.bill_amounts += len(args[2])

        def on_bill(args, result):
            self.bill_amounts += 1

        self.patch(CreditSystem, ("bill",), "economics.bill", on_bill)
        self.patch(CreditSystem, ("bill_many",), "economics.bill_many",
                   on_bill_many)
        self.patch(BillingMeter, ("charge", "charge_many"),
                   "economics.{attr}")

        self.patch(ComputeDriver, ("create_node", "destroy_node"),
                   "cloud.{attr}")

        self.patch(HistoryPlane, public_functions(HistoryPlane),
                   "history.plane")
        self.patch(PersistentHistoryStore, ("add", "fetch", "fetch_rates"),
                   "history.db")

        def on_get(args, result):
            if result is not None:
                self.store_get_hits += 1

        self.patch(ResultStore, ("get",), "campaign.store.get", on_get)
        self.patch(ResultStore, ("put",), "campaign.store.put")
        self.patch(CampaignExecutor, ("run",), "campaign.executor.run")
        self.patch(campaign_executor, ("run_execution",),
                   "experiments.run_execution")

        self.patch(ScenarioHarness, ("build_dci",), "experiments.build_dci")
        self.patch(runner, ("make_bot", "generate_tenants"),
                   "workload.{attr}")
        self.patch(tenants, ("make_bot",), "workload.make_bot")

        gc.callbacks.append(self._on_gc)
        return self

    def _on_gc(self, phase: str, info: dict) -> None:
        """Collector pauses, as ``python.gc`` spans of their own arrays
        (a pause can start inside a wrapper's bookkeeping, so it must
        not append to the main span arrays) and as child time of the
        span they interrupt."""
        if phase == "start":
            self.gc_parent.append(self.open_idx[-1] if self.open_idx
                                  else -1)
            self.gc_start.append(self.clock())
            return
        if len(self.gc_end) == len(self.gc_start):
            return  # tracing began mid-collection
        end = self.clock()
        self.gc_end.append(end)
        dur = end - self.gc_start[-1]
        self.gc_seconds += dur
        if self.child:
            self.child[-1] += dur

    def exclude(self, seconds: float) -> None:
        """Charge ``seconds`` of measuring work (the host-speed probe)
        to nobody: the interrupted span treats it as child time."""
        if self.child:
            self.child[-1] += seconds

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def _get(self, table: List, name: str):
        nid = self._ids.get(name)
        return table[nid] if nid is not None else 0

    def calls(self, *names: str) -> int:
        return sum(self._get(self.count, n) for n in names)

    def self_s(self, *names: str) -> float:
        return float(sum(self._get(self.self_time, n) for n in names))

    def total_s(self, *names: str) -> float:
        return float(sum(self._get(self.total, n) for n in names))

    def prefixed(self, prefix: str) -> List[str]:
        return [n for n in self.names if n.startswith(prefix)]

    def metrics(self) -> Dict[str, float]:
        """Per-layer counts, ratios and self times of the traced run."""
        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        sched_calls = self.calls("simulator.schedule")
        acquire_calls = self.calls("infra.pool.acquire")
        nodes = self.acquire_hits + self.bulk_nodes
        fetch_calls = self.calls("middleware.fetch_for_cloud")
        get_calls = self.calls("campaign.store.get")
        l1 = TRACE_CACHE.hits + TRACE_CACHE.misses
        assembly = ASSEMBLY_CACHE.hits + ASSEMBLY_CACHE.misses
        economics = ("economics.bill", "economics.bill_many",
                     "economics.charge", "economics.charge_many")
        return {
            "simulator.self_s": self.self_s("simulator.run"),
            "simulator.schedule_calls": sched_calls,
            "simulator.schedule_us": 1e6 * ratio(
                self.total_s("simulator.schedule"), sched_calls),
            "simulator.batch_calls": self.calls(
                *[n for n in self.names if n.endswith(".batch_handler")]),
            "middleware.handler_s": self.self_s(
                "middleware.handler", "middleware.batch_handler"),
            "middleware.handler_calls": self.calls(
                "middleware.handler", "middleware.batch_handler"),
            "middleware.submit_s": self.self_s("middleware.submit_bot"),
            "middleware.fetch_for_cloud_calls": fetch_calls,
            "middleware.fetch_for_cloud_hit_ratio": ratio(self.fetch_hits,
                                                          fetch_calls),
            "middleware.fetch_for_cloud_s": self.self_s(
                "middleware.fetch_for_cloud"),
            "middleware.cloud_usage_s": self.self_s(
                "middleware.cloud_usage_of"),
            "infra.pool.s": self.self_s(*self.prefixed("infra.pool.")),
            "infra.pool.acquire_calls": acquire_calls,
            "infra.pool.acquire_many_calls": self.calls(
                "infra.pool.acquire_many"),
            "infra.pool.nodes_acquired": nodes,
            "infra.pool.bulk_share": ratio(self.bulk_nodes, nodes),
            "infra.pool.acquire_hit_ratio": ratio(self.acquire_hits,
                                                  acquire_calls),
            "infra.trace.generate_s": self.self_s("infra.trace.cache"),
            "infra.trace.l1_hit_ratio": ratio(TRACE_CACHE.hits, l1),
            "infra.trace.disk_loads": self.disk_loads,
            "infra.trace.load_s": self.self_s("infra.trace.load"),
            "infra.trace.save_s": self.self_s("infra.trace.save"),
            "core.scheduler.tick_calls": self.calls(
                "core.scheduler.handler", "core.scheduler.batch_handler"),
            "core.scheduler.tick_s": self.self_s(
                "core.scheduler.handler", "core.scheduler.batch_handler"),
            "core.arbiter.s": self.self_s("core.arbiter"),
            "core.oracle.calls": self.calls("core.oracle"),
            "core.oracle.s": self.self_s("core.oracle"),
            "core.info.observer_s": self.self_s("core.info.observer"),
            "core.routing.route_calls": self.calls("core.routing.route"),
            "core.routing.s": self.self_s("core.routing.route"),
            "core.admission.calls": self.calls("core.admission"),
            "core.admission.s": self.self_s("core.admission"),
            "economics.bill_calls": self.calls("economics.bill"),
            "economics.bill_many_calls": self.calls("economics.bill_many"),
            "economics.charges": self.bill_amounts,
            "economics.s": self.self_s(*economics),
            "cloud.launches": self.calls("cloud.create_node"),
            "cloud.s": self.self_s("cloud.create_node", "cloud.destroy_node"),
            "cloud.handler_s": self.self_s("cloud.handler",
                                           "cloud.batch_handler"),
            "history.plane_calls": self.calls("history.plane"),
            "history.plane_s": self.self_s("history.plane"),
            "history.db_s": self.self_s("history.db"),
            "campaign.store.put_calls": self.calls("campaign.store.put"),
            "campaign.store.put_s": self.self_s("campaign.store.put"),
            "campaign.store.get_s": self.self_s("campaign.store.get"),
            "campaign.store.hit_ratio": ratio(self.store_get_hits,
                                              get_calls),
            "campaign.executor.overhead_s": (
                self.total_s("campaign.executor.run")
                - self.total_s("experiments.run_execution")),
            "experiments.build_dci_calls": self.calls(
                "experiments.build_dci"),
            "experiments.build_dci_s": self.self_s("experiments.build_dci"),
            "experiments.assembly_hit_ratio": ratio(ASSEMBLY_CACHE.hits,
                                                    assembly),
            "experiments.handler_s": self.self_s(
                "experiments.handler", "experiments.batch_handler"),
            "workload.make_bot_s": self.self_s("workload.make_bot",
                                               "workload.generate_tenants"),
            "python.gc_s": self.gc_seconds,
            "python.gc_collections": len(self.gc_end),
            "trace.spans": len(self.rec_start),
        }

    def save(self, path: str) -> None:
        """Write every span (name id, parent index, start, end)."""
        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.rec_name, dtype=np.int32),
                 parent=np.frombuffer(self.rec_parent, dtype=np.int64),
                 start=np.frombuffer(self.rec_start, dtype=np.float64),
                 end=np.frombuffer(self.rec_end, dtype=np.float64),
                 gc_parent=np.frombuffer(self.gc_parent, dtype=np.int64),
                 gc_start=np.frombuffer(self.gc_start, dtype=np.float64),
                 gc_end=np.frombuffer(self.gc_end, dtype=np.float64))


class BatchCounter:
    """Counts batch-handler calls without tracing anything else — the
    untraced reference run's only probe, so the traced run can prove
    it took the same batched paths."""

    def __init__(self) -> None:
        self.calls = 0

    def install(self) -> "BatchCounter":
        register_batch = Simulation.register_batch
        counter = self

        def counted_register_batch(sim, fn, batch_fn):
            def counted(argslist):
                counter.calls += 1
                return batch_fn(argslist)
            register_batch(sim, fn, counted)

        Simulation.register_batch = counted_register_batch
        return self
