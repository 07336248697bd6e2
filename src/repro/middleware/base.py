"""Shared desktop-grid server machinery.

Both middleware models (BOINC, XtremWeb-HEP) share the same skeleton:

* a *pending queue* of execution units waiting for a worker;
* a *dispatch loop* that pairs pending units with idle available nodes
  from the :class:`~repro.infra.pool.NodePool`;
* per-task bookkeeping (:class:`TaskState`) feeding the observer
  protocol that the SpeQuloS Information module and the metric
  collectors subscribe to;
* the cloud-worker integration points used by the three deployment
  strategies of §3.5: *Flat* (cloud nodes join the ordinary pool),
  *Reschedule* (:meth:`DGServer.fetch_for_cloud` serves pending work
  first, then duplicates of running work) and *Cloud duplication*
  (:meth:`DGServer.external_complete` merges results computed on a
  separate cloud-side server).

Subclasses implement unit selection and the execution lifecycle —
that is exactly where the two middleware differ in how they survive
volatility.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Deque, Dict, List, Optional, Protocol, Set, Tuple

from repro.infra.node import Node
from repro.infra.pool import NodePool
from repro.simulator.engine import Event, Simulation
from repro.workload.bot import BagOfTasks, Task

__all__ = ["DGServer", "ServerObserver", "ServerStats", "TaskState",
           "GTID"]

#: Global task id: (bot_id, task_id) — servers can host several BoTs.
GTID = Tuple[str, int]


class ServerObserver(Protocol):
    """Callbacks the server emits; all methods are optional no-ops."""

    def on_task_arrived(self, gtid: GTID, t: float) -> None: ...

    def on_task_first_assigned(self, gtid: GTID, t: float) -> None: ...

    def on_task_completed(self, gtid: GTID, t: float) -> None: ...

    def on_bot_completed(self, bot_id: str, t: float) -> None: ...


@dataclass
class ServerStats:
    """Aggregate event counters (tests and diagnostics)."""

    arrivals: int = 0
    assignments: int = 0
    completions: int = 0
    discarded_results: int = 0
    preemptions: int = 0
    timeouts: int = 0
    reissues: int = 0
    cloud_assignments: int = 0
    suspensions: int = 0
    resumes: int = 0


@dataclass(eq=False)
class TaskState:
    """Server-side state of one task (BOINC: workunit).

    Identity semantics (``eq=False``): two states are the same object
    or different tasks; sets of states are used for candidate scans.

    ``done`` flips exactly once; late or duplicate results arriving
    afterwards are discarded (counted in
    :attr:`ServerStats.discarded_results`).

    The Reschedule pick orders tasks by ``cloud_dups`` and
    ``first_assign_time``; on a server-admitted state those two change
    only through :meth:`DGServer._mark_assigned` and
    :meth:`DGServer._add_cloud_dups`, which keep the fetch heap fresh.
    """

    gtid: GTID
    task: Task
    done: bool = False
    arrival_time: float = 0.0
    first_assign_time: Optional[float] = None
    completion_time: Optional[float] = None
    #: number of live cloud-side duplicates (Reschedule bookkeeping)
    cloud_dups: int = 0
    #: node ids that ever received this task (BOINC one-result-per-user)
    workers: set = field(default_factory=set)
    #: BOINC: validated results so far
    ok_results: int = 0
    #: whether the task currently sits in the pending queue (XWHEP)
    queued: bool = False


class _BotProgress:
    """Per-BoT completion accounting and task index.

    ``uncompleted`` keeps the BoT's arrived-but-not-done gtids in
    arrival order (a dict used as an ordered set) and ``assigned``
    counts tasks assigned at least once — both are maintained
    incrementally so the monitor-tick queries
    (:meth:`DGServer.uncompleted_gtids`, :meth:`DGServer.
    assigned_count`) stop scanning every task the server ever hosted.
    """

    __slots__ = ("bot", "total", "arrived", "completed", "submit_time",
                 "uncompleted", "assigned")

    def __init__(self, bot: BagOfTasks, submit_time: float):
        self.bot = bot
        self.total = bot.size
        self.arrived = 0
        self.completed = 0
        self.submit_time = submit_time
        #: arrived, not-yet-done gtids in arrival order (ordered set)
        self.uncompleted: Dict[GTID, None] = {}
        #: tasks with a first_assign_time
        self.assigned = 0


class DGServer:
    """Abstract desktop-grid server (see module docstring).

    Parameters
    ----------
    sim, pool:
        The shared event engine and the BE-DCI node pool.
    name:
        Label used in diagnostics.
    """

    #: observer callbacks dispatched through pre-bound method lists
    OBSERVER_EVENTS = ("on_task_arrived", "on_task_first_assigned",
                       "on_task_completed", "on_bot_completed")

    def __init__(self, sim: Simulation, pool: NodePool, name: str = "dg"):
        self.sim = sim
        self.pool = pool
        self.name = name
        self.stats = ServerStats()
        self.tasks: Dict[GTID, TaskState] = {}
        #: arrived, not-yet-done tasks: the Reschedule candidates
        self._incomplete: Set[TaskState] = set()
        # Lazily-invalidated min-heap over the Reschedule candidates,
        # entries (*_fetch_key(st), seq, st).  None until the first
        # candidate pick builds it from _incomplete, so servers that
        # never serve a Reschedule worker push nothing.  Once built,
        # every key change of an incomplete task pushes a fresh entry
        # (_mark_assigned, _add_cloud_dups), so the least fresh entry
        # IS the argmin over _incomplete; outdated entries are dropped
        # when popped.  seq breaks ties between entries of one task
        # before the (uncomparable) TaskState is reached.
        self._fetch_heap: Optional[List[Tuple]] = None
        self._fetch_seq = 0
        self.pending: Deque = deque()
        self.observers: List[ServerObserver] = []
        #: per observer (parallel to ``observers``): its methods bound
        #: once in add_observer, by event name
        self._obs_bound: List[Dict[str, object]] = []
        #: event name -> bound observer methods (built in add_observer,
        #: so _emit never pays a getattr per event per observer)
        self._obs_methods: Dict[str, List] = {
            name: [] for name in self.OBSERVER_EVENTS}
        self._bots: Dict[str, _BotProgress] = {}
        self._busy: Dict[int, GTID] = {}          # node_id -> gtid
        self._wakeup: Optional[Event] = None
        #: nodes flagged as cloud workers currently registered via Flat
        self._flat_cloud: Dict[int, Node] = {}
        #: node_id -> callback fired (async) when that node goes idle;
        #: used by dedicated cloud workers to fetch their next unit
        self._idle_callbacks: Dict[int, object] = {}
        #: exact busy-time accounting for cloud workers (billing is for
        #: CPU actually used, §3.3's "Cloud worker usage")
        self._cloud_busy_acc: Dict[int, float] = {}
        self._cloud_busy_since: Dict[int, float] = {}
        # A submitted BoT's simultaneous arrivals (the paper's SMALL/BIG
        # categories all arrive at t=0) drain as one engine batch call
        # instead of thousands of per-event dispatches.
        sim.register_batch(self._arrive, self._arrive_batch)

    # ------------------------------------------------------------------
    # load probes (federated routing, repro.core.routing)
    # ------------------------------------------------------------------
    def busy_count(self) -> int:
        """Workers currently executing an execution unit."""
        return len(self._busy)

    def backlog(self) -> int:
        """Execution units queued but not yet assigned to a worker."""
        return len(self.pending)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------
    def submit_bot(self, bot: BagOfTasks, at: float = 0.0) -> None:
        """Submit a BoT; tasks arrive at ``at + task.arrival``."""
        if bot.bot_id in self._bots:
            raise ValueError(f"BoT {bot.bot_id!r} already submitted")
        self._bots[bot.bot_id] = _BotProgress(bot, at)
        for task in bot:
            self.sim.at(at + task.arrival, self._arrive, bot.bot_id, task)

    def _arrive(self, bot_id: str, task: Task) -> None:
        self._arrive_one(bot_id, task)
        self._dispatch()

    def _arrive_one(self, bot_id: str, task: Task) -> None:
        t = self.sim.now
        gtid = (bot_id, task.task_id)
        st = TaskState(gtid=gtid, task=task, arrival_time=t)
        self.tasks[gtid] = st
        self._incomplete.add(st)
        if self._fetch_heap is not None:
            self._note_fetch_candidate(st)
        prog = self._bots[bot_id]
        prog.arrived += 1
        prog.uncompleted[gtid] = None
        self.stats.arrivals += 1
        self._emit("on_task_arrived", gtid, t)
        self._enqueue_new(st)

    def _arrive_batch(self, argslist) -> None:
        """Batched form of :meth:`_arrive` (same instant, seq order).

        Replays the per-event body per args tuple — exact by
        construction.  Subclasses whose dispatch order provably cannot
        depend on interleaving (XWHEP's node-agnostic FIFO pick)
        override this with a single merged dispatch.
        """
        for bot_id, task in argslist:
            self._arrive_one(bot_id, task)
            self._dispatch()

    # ------------------------------------------------------------------
    # hooks for subclasses
    # ------------------------------------------------------------------
    def _enqueue_new(self, st: TaskState) -> None:
        """Queue the execution unit(s) for a newly arrived task."""
        raise NotImplementedError

    def _pick_unit(self, node: Node):
        """Pop the next pending unit this node may execute, or None."""
        raise NotImplementedError

    def _execute(self, unit, node: Node, interval_end: float) -> None:
        """Start the unit on the node (schedule its lifecycle events)."""
        raise NotImplementedError

    def _fetch_eligible(self, st: TaskState, node: Node) -> bool:
        """Whether a Reschedule duplicate of the (incomplete) task may
        go to this cloud worker."""
        raise NotImplementedError

    def _execute_cloud(self, unit, node: Node, is_dup: bool) -> None:
        """Start a unit on a dedicated cloud worker; ``is_dup`` marks a
        duplicate of running work rather than a pending unit."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    # dispatch loop
    # ------------------------------------------------------------------

    #: below this queue length the bulk pass gains nothing over the
    #: scalar loop (both are transcript-identical; this is pure tuning)
    _BULK_MIN = 4

    def _dispatch(self) -> None:
        """Pair pending units with available idle nodes.

        Bulk fast path — provably the scalar loop, draw for draw.
        Simulate :meth:`_dispatch_scalar` over a queue whose first
        ``n_live`` non-done entries are each consumable by *any* drawn
        node (the :meth:`_bulk_eligible` precondition): every
        successful acquire strips the done heads in front of the next
        live entry and consumes that entry, so the loop performs
        exactly ``k = n_live`` acquires when the queue ends with a
        live entry, and ``n_live + 1`` when trailing done entries (or
        an all-done queue) force one extra acquire whose pick comes
        back None and whose node is set aside.  Acquires schedule no
        events and :meth:`_execute` consumes no RNG, so hoisting all
        draws in front of all executes (one :meth:`NodePool.
        acquire_many`) leaves both the RNG stream and the event-seq
        allocation order byte-identical.  If the pool runs dry after
        ``g < k`` draws, the scalar loop breaks with the queue cut
        after the ``g``-th consumed live entry (done heads in front of
        an un-consumed live entry survive — the strip that would have
        removed them never ran) and arms the wake-up; the bulk pass
        reproduces that exact remainder.  Queues the precondition
        cannot certify (BOINC with assignment history) take
        :meth:`_dispatch_scalar` unchanged.

        Routing: the bulk pre-pass scans the whole queue (O(n)), so
        it must be amortized by many assignments.  In steady state a
        task finish releases *one* node into a long queue — there the
        scalar loop is O(1) (acquire, pick, dry, stop) while the
        pre-pass would re-scan thousands of entries per event.  The
        pool's O(1) :meth:`~repro.infra.pool.NodePool.ready_hint`
        routes those to the scalar loop; arrival storms and wake-ups
        with many returning nodes stay bulk.  The hint is advisory
        only — both loops are transcript-identical, so routing can
        never change results.
        """
        pending = self.pending
        n = len(pending)
        if n == 0:
            return
        t = self.sim.now
        if (n < self._BULK_MIN
                or self.pool.ready_hint(t) < self._BULK_MIN):
            self._dispatch_scalar()
            return
        plist = list(pending)
        live_idx = [i for i, st in enumerate(plist) if not st.done]
        n_live = len(live_idx)
        if n_live and not self._bulk_eligible(plist, live_idx):
            self._dispatch_scalar()
            return
        k = n_live
        if n_live == 0 or live_idx[-1] != n - 1:
            k += 1  # trailing done entries cost one set-aside acquire
        got = self.pool.acquire_many(t, k)
        g = len(got)
        s = min(g, n_live)
        units = [plist[i] for i in live_idx[:s]]
        # Consume the queue exactly as the scalar picks would have
        # (before executing: _execute never touches the queue).
        if g == k:
            pending.clear()
        else:
            cut = live_idx[s - 1] + 1 if s else 0
            for _ in range(cut):
                pending.popleft()
        self._consume_bulk(units)
        execute = self._execute
        for unit, (node, end) in zip(units, got):
            execute(unit, node, end)
        for node, _end in got[n_live:]:  # the set-aside extra draw
            self.pool.release(node, t)
        if pending:
            self._arm_wakeup()

    def _dispatch_scalar(self) -> None:
        """The historical `_dispatch` body, verbatim — the route for
        short queues and steady-state single-node dispatches, for
        queues the bulk precondition cannot certify, and the
        transcript reference the bulk pass is pinned against."""
        t = self.sim.now
        set_aside: List[Tuple[Node, float]] = []
        while self.pending:
            got = self.pool.acquire(t)
            if got is None:
                break
            node, end = got
            unit = self._pick_unit(node)
            if unit is None:
                # Nothing this node may run (e.g. BOINC already has a
                # replica of every pending workunit on it) — set it
                # aside so acquire() does not hand it straight back.
                set_aside.append((node, end))
                continue
            self._execute(unit, node, end)
        for node, _end in set_aside:
            self.pool.release(node, t)
        if self.pending:
            self._arm_wakeup()

    def _bulk_eligible(self, plist: List[TaskState],
                       live_idx: List[int]) -> bool:
        """Whether every live pending entry (``plist[i]`` for ``i`` in
        ``live_idx``) is consumable by any node the pool may draw — the
        bulk precondition.  Base: unit picks that never inspect the
        node (XWHEP FIFO) always qualify; BOINC narrows this (see its
        override)."""
        return True

    def _consume_bulk(self, units: List[TaskState]) -> None:
        """Apply :meth:`_pick_unit`'s per-unit side effects to a bulk
        pick (XWHEP clears ``queued``; BOINC's pick only deletes)."""

    def _arm_wakeup(self) -> None:
        """Schedule a dispatch retry when an away node next returns.

        Every other dispatch trigger (release, reissue, arrival) is
        event-driven; this covers the one case with no event of its
        own — all nodes simultaneously away.
        """
        t = self.sim.now
        if self._wakeup is not None and not self._wakeup.cancelled:
            return
        nxt = self.pool.next_future_start(t)
        if nxt is None or nxt <= t:
            return
        self._wakeup = self.sim.at(nxt, self._on_wakeup)

    def _on_wakeup(self) -> None:
        self._wakeup = None
        if self.pending:
            self._dispatch()

    def teardown(self) -> None:
        """End-of-run cleanup: cancel the pending dispatch wake-up so a
        drained simulation doesn't keep a dead timer in the event heap.
        Only safe once the run has terminally stopped (cancelling a
        wake-up mid-run would change the dispatch schedule); the
        harness wires this through the engine's stop hooks."""
        if self._wakeup is not None:
            self._wakeup.cancel()
            self._wakeup = None

    def close(self) -> None:
        """End-of-scenario release, once results are collected: tear
        down the wake-up timer, every observer subscription and every
        idle callback.  Those are the server's references into the
        world that observes it (monitors, watchers, cloud agents), so
        with the engine closed too the world frees itself by reference
        counting.  Idempotent."""
        self.teardown()
        self.observers = []
        self._obs_bound = []
        self._obs_methods = {name: [] for name in self.OBSERVER_EVENTS}
        self._idle_callbacks.clear()

    # ------------------------------------------------------------------
    # completion bookkeeping (shared by all paths)
    # ------------------------------------------------------------------
    def _mark_assigned(self, st: TaskState, node: Node) -> None:
        t = self.sim.now
        self.stats.assignments += 1
        if node.cloud:
            self.stats.cloud_assignments += 1
            self._cloud_busy_since[node.node_id] = t
        st.workers.add(node.node_id)
        self._busy[node.node_id] = st.gtid
        if st.first_assign_time is None:
            st.first_assign_time = t  # fetch key moves off inf
            if self._fetch_heap is not None:
                self._note_fetch_candidate(st)
            prog = self._bots.get(st.gtid[0])
            if prog is not None:
                prog.assigned += 1
            self._emit("on_task_first_assigned", st.gtid, t)

    def _node_freed(self, node: Node) -> None:
        self._busy.pop(node.node_id, None)
        since = self._cloud_busy_since.pop(node.node_id, None)
        if since is not None:
            acc = self._cloud_busy_acc.get(node.node_id, 0.0)
            self._cloud_busy_acc[node.node_id] = acc + (self.sim.now - since)
        cb = self._idle_callbacks.get(node.node_id)
        if cb is not None:
            # Fire asynchronously so the agent sees a settled server.
            self.sim.schedule(0.0, cb)  # type: ignore[arg-type]

    def cloud_usage_of(self, node_ids, now: float):
        """Bulk ``(busy_seconds, busy)`` per node id: total CPU seconds
        each cloud worker spent computing here (including the in-flight
        unit — the §3.3 billing basis) and whether it is busy now."""
        acc = self._cloud_busy_acc
        since_map = self._cloud_busy_since
        busy_map = self._busy
        # comprehensions over ``in``/subscript keep the per-id work in
        # straight bytecode (no per-id method calls on the hot path)
        totals = [
            (acc[nid] if nid in acc else 0.0) + (now - since_map[nid])
            if nid in since_map
            else (acc[nid] if nid in acc else 0.0)
            for nid in node_ids]
        busy = [nid in busy_map for nid in node_ids]
        return totals, busy

    def register_idle_callback(self, node: Node, cb) -> None:
        """Ask to be notified (next event round) whenever ``node`` goes
        idle on this server — used by Reschedule cloud agents."""
        self._idle_callbacks[node.node_id] = cb

    def unregister_idle_callback(self, node: Node) -> None:
        self._idle_callbacks.pop(node.node_id, None)

    def _complete_task(self, st: TaskState) -> None:
        """Mark a task done (idempotent) and propagate BoT completion."""
        if st.done:
            return
        t = self.sim.now
        st.done = True
        self._incomplete.discard(st)
        st.completion_time = t
        self.stats.completions += 1
        self._emit("on_task_completed", st.gtid, t)
        prog = self._bots.get(st.gtid[0])
        if prog is not None:
            prog.completed += 1
            prog.uncompleted.pop(st.gtid, None)
            if prog.completed == prog.total:
                self._emit("on_bot_completed", st.gtid[0], t)

    def external_complete(self, gtid: GTID, t: float) -> bool:
        """A result for this task was computed outside this server
        (cloud-duplication strategy).  Returns True if it was news."""
        st = self.tasks.get(gtid)
        if st is None or st.done:
            return False
        self._complete_task(st)
        return True

    # ------------------------------------------------------------------
    # cloud integration (Reschedule)
    # ------------------------------------------------------------------
    def fetch_for_cloud(self, node: Node) -> Optional[TaskState]:
        """Reschedule strategy: hand a unit to a dedicated cloud worker.

        Serves a pending unit first (:meth:`_pick_unit`), then a
        duplicate of the least-served incomplete task
        (:meth:`_fetch_candidate_pick`); returns None when nothing
        useful remains.  The returned unit is *already started* on
        ``node`` by this call (:meth:`_execute_cloud`).
        """
        unit = self._pick_unit(node)
        if unit is not None:
            self._execute_cloud(unit, node, False)
            return unit
        best = self._fetch_candidate_pick(node)
        if best is not None:
            self._execute_cloud(best, node, True)
        return best

    @staticmethod
    def _fetch_key(st: TaskState) -> Tuple:
        """The Reschedule ordering: fewest cloud duplicates, then the
        oldest first assignment (never assigned last), then gtid — a
        total order, so set iteration order cannot leak into picks."""
        return (st.cloud_dups,
                st.first_assign_time if st.first_assign_time is not None
                else float("inf"),
                st.gtid)

    def _note_fetch_candidate(self, st: TaskState) -> None:
        """Push the task's *current* key onto the (built) fetch heap."""
        self._fetch_seq += 1
        heappush(self._fetch_heap, (*self._fetch_key(st),
                                    self._fetch_seq, st))

    def _add_cloud_dups(self, st: TaskState, delta: int) -> None:
        """Count a cloud duplicate started (+1) or ended (-1) — with
        the first assignment in :meth:`_mark_assigned`, the only write
        site of a fetch-key component."""
        st.cloud_dups += delta
        if self._fetch_heap is not None and not st.done:
            self._note_fetch_candidate(st)

    def _fetch_candidate_pick(self, node: Node) -> Optional[TaskState]:
        """The :meth:`_fetch_eligible` incomplete task with the least
        :meth:`_fetch_key`, from the lazily-invalidated heap.

        Completed and outdated entries are dropped; valid entries the
        hook rejects for *this* node are set aside and pushed back.
        The first fresh eligible entry is the argmin over
        ``_incomplete`` (unique gtid tiebreak + every key change
        pushing a fresh entry).
        """
        heap = self._fetch_heap
        if heap is None or (len(heap) > 64
                            and len(heap) > 4 * len(self._incomplete)):
            self._rebuild_fetch_heap()
            heap = self._fetch_heap
        key, eligible = self._fetch_key, self._fetch_eligible
        best: Optional[TaskState] = None
        stash: List[Tuple] = []
        while heap:
            entry = heappop(heap)
            cand = entry[4]
            if cand.done:
                continue  # retired; drop every copy for good
            if entry[:3] != key(cand):
                continue  # outdated key; a fresh entry exists below
            stash.append(entry)  # valid: the heap keeps it
            if eligible(cand, node):
                best = cand  # its key changes next; entry dies lazily
                break
        for entry in stash:
            heappush(heap, entry)
        return best

    def _rebuild_fetch_heap(self) -> None:
        """Heapify ``_incomplete`` at current keys: the lazy first
        build, and compaction once outdated entries far outnumber the
        candidates."""
        key = self._fetch_key
        heap = []
        for st in self._incomplete:
            self._fetch_seq += 1
            heap.append((*key(st), self._fetch_seq, st))
        heapify(heap)
        self._fetch_heap = heap

    # ------------------------------------------------------------------
    # cloud integration (Flat)
    # ------------------------------------------------------------------
    def add_cloud_node(self, node: Node) -> None:
        """Flat strategy: the cloud worker joins the ordinary pool."""
        if not node.cloud:
            raise ValueError("add_cloud_node expects a cloud node")
        self._flat_cloud[node.node_id] = node
        self.pool.add(node, self.sim.now)
        self._dispatch()

    def remove_cloud_node(self, node: Node) -> None:
        """Withdraw a Flat cloud worker; a running unit finishes first
        (the SpeQuloS scheduler stops billing when the node goes idle)."""
        self._flat_cloud.pop(node.node_id, None)
        self.pool.remove(node)

    def is_busy(self, node: Node) -> bool:
        """Whether the node currently executes a unit of this server."""
        return node.node_id in self._busy

    # ------------------------------------------------------------------
    # queries used by SpeQuloS and the experiment runner
    # ------------------------------------------------------------------
    def bot_progress(self, bot_id: str) -> Tuple[int, int, int]:
        """(total, arrived, completed) for a BoT."""
        prog = self._bots[bot_id]
        return prog.total, prog.arrived, prog.completed

    def bot_completed(self, bot_id: str) -> bool:
        prog = self._bots[bot_id]
        return prog.completed == prog.total

    def uncompleted_gtids(self, bot_id: str) -> List[GTID]:
        """Tasks of the BoT not yet done (arrived ones only).

        Served from the per-BoT index in arrival order — the same
        sequence the historical scan over ``tasks`` produced — so the
        cloud-duplication queue order is unchanged.
        """
        prog = self._bots.get(bot_id)
        if prog is None:
            return []
        return list(prog.uncompleted)

    def assigned_count(self, bot_id: str) -> int:
        """Tasks of the BoT that were assigned at least once."""
        prog = self._bots.get(bot_id)
        return prog.assigned if prog is not None else 0

    # ------------------------------------------------------------------
    def add_observer(self, obs: ServerObserver) -> None:
        """Subscribe; the observer's methods are bound once, here —
        methods added to the object afterwards are not seen."""
        self.observers.append(obs)
        bound = {}
        for name, lst in self._obs_methods.items():
            fn = getattr(obs, name, None)
            if fn is not None:
                lst.append(fn)
                bound[name] = fn
        self._obs_bound.append(bound)

    def remove_observer(self, obs: ServerObserver) -> None:
        """Unsubscribe ``obs`` (no-op if it is not subscribed).

        Safe from inside an observer callback: the method lists are
        rebuilt, not edited, so an :meth:`_emit` in progress finishes
        over the list it started with and skips no other observer; the
        removal takes effect from the next event.
        """
        keep = [i for i, o in enumerate(self.observers) if o is not obs]
        if len(keep) == len(self.observers):
            return
        self.observers = [self.observers[i] for i in keep]
        self._obs_bound = [self._obs_bound[i] for i in keep]
        self._obs_methods = {
            name: [b[name] for b in self._obs_bound if name in b]
            for name in self.OBSERVER_EVENTS}

    def _emit(self, method: str, *args) -> None:
        for fn in self._obs_methods[method]:
            fn(*args)
