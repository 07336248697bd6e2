"""Deterministic discrete-event simulation engine.

Design notes
------------
The whole reproduction is trace-driven simulation (paper §4): BOINC and
XtremWeb-HEP servers, tens of thousands of volatile workers, the
SpeQuloS monitor loop and cloud workers all advance a shared virtual
clock.  The engine below is a classic event-heap:

* events are ``(time, priority, seq)``-ordered — ``priority`` lets
  infrastructure events (a node dying) run before policy events (the
  SpeQuloS tick) scheduled at the same instant, and ``seq`` makes
  FIFO order among equal keys deterministic;
* events are cancellable in O(1) (lazy deletion: the heap entry stays,
  the callback is dropped when popped);
* time never goes backwards; scheduling in the past raises.

Same-timestamp coalescing: the heap holds *buckets* — one per
``(time, priority)`` key — rather than individual events.  A volunteer
DCI is bursty at scale (thousands of nodes churn on the same monitor
tick), and with per-event heap entries every one of those k events
pays an O(log n) sift; a bucket pays one sift and k list appends.
Events append to their key's open bucket in ``seq`` order, so draining
a bucket front-to-back replays the exact ``(time, priority, seq)``
total order of the flat heap.  The one subtlety is a callback
scheduling an event that must run *before* the remainder of the bucket
being drained (same time, lower priority — e.g. a node death raised
from a policy callback's own instant): before each event the drain
loop compares the heap top against the event's key and, when the top
precedes it, pushes the bucket remainder back and switches.  Same-key
buckets can therefore coexist in the heap; their seq ranges are
disjoint and ordered, so bucket ``first_seq`` ordering stays exact.
Heap entries are plain ``(time, priority, first_seq, bucket)`` tuples
— ``first_seq`` is globally unique, so every heap comparison resolves
in C without ever touching the bucket object.

Batched dispatch: a drained bucket whose consecutive events share one
callable can be handed to a *batch handler* registered via
:meth:`Simulation.register_batch` — one Python call with the argument
list instead of k calls.  The contract (enforced, not assumed) is that
the batch call must be indistinguishable from running the k events
front-to-back:

* the run is maximal-consecutive: an interleaved event with a
  different callable splits the batch, preserving seq order;
* events cancelled before the run starts are excluded exactly like the
  per-event path skips them;
* a batch handler must not cancel an event inside its own run (the
  per-event path could honour it mid-way; the engine checks after the
  call and raises), must not :meth:`stop` the simulation (per-event
  stop() halts mid-bucket; raises immediately), and must not schedule
  a same-time *higher-urgency* event (the per-event path would preempt
  the remainder of the run; :meth:`at` raises).  Handlers that need
  any of those behaviours simply stay unregistered and keep exact
  per-event dispatch.
* ``events_processed`` counts every event of the run; ``now`` is the
  bucket time throughout.  Mid-batch introspection (``pending()``)
  sees the whole run as already consumed — handlers that introspect
  the queue should not be batch-registered.

Collector-free drains: a drain creates no cyclic garbage (a fired or
cancelled :class:`Event` drops its callback and arguments, so an event
kept by the object it calls back — a replica's timeout — cannot close a
cycle), so the cycle collector would only walk the live world and free
nothing.  :meth:`Simulation.run` therefore pauses the process's cycle
collector for the drain and restores the caller's setting on exit.
:meth:`Simulation.close` drops everything the engine holds once the
results are collected, so a finished world dies by reference counting
instead of waiting for the next collection.

There is deliberately no wall-clock access, and the collector pause is
the only process state a drain touches: one :class:`Simulation` per
execution, so campaigns can run executions in parallel processes
without interference.
"""

from __future__ import annotations

import gc
import heapq
import itertools
import math
import weakref
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

__all__ = ["Event", "Simulation", "SimulationError", "weak_callback"]


class SimulationError(RuntimeError):
    """Raised on engine misuse (scheduling in the past, running twice...)."""


class Event:
    """A scheduled callback.

    Events are created through :meth:`Simulation.schedule` /
    :meth:`Simulation.at`.  Keeping a reference allows cancellation;
    dropping it is fine (the engine owns the heap entry).  Once fired
    or cancelled an event drops its callback and arguments (``fn`` and
    ``args`` become None), so a kept event never pins what it called.
    """

    __slots__ = ("time", "priority", "seq", "fn", "args", "cancelled")

    def __init__(self, time: float, priority: int, seq: int,
                 fn: Callable[..., Any], args: tuple):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.fn = fn
        self.args = args
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the callback from running.  Idempotent.

        Drops the callback and its arguments, like a fired event does.
        """
        self.cancelled = True
        self.fn = self.args = None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = ("cancelled" if self.cancelled
                 else "pending" if self.fn is not None else "fired")
        name = getattr(self.fn, "__qualname__", repr(self.fn))
        return f"<Event t={self.time:.3f} p={self.priority} {name} {state}>"


def weak_callback(method: Callable[..., Any]) -> Callable[..., Any]:
    """``method`` (a bound method) as a callback that does not keep its
    object alive; once the object is gone, calls do nothing.

    For the back-edges from a world's parts to their owner (a cloud
    agent reporting starvation to its scheduler, a scheduler reporting
    a finished run to its service): a strong back-edge would make the
    whole world one reference cycle that only the cycle collector can
    free.
    """
    ref = weakref.WeakMethod(method)

    def call(*args: Any) -> Any:
        fn = ref()
        return None if fn is None else fn(*args)

    return call


#: Default priority for ordinary events.
PRIORITY_NORMAL = 0
#: Infrastructure events (node up/down) that must precede policy at equal t.
PRIORITY_INFRA = -10
#: Monitoring / accounting events that must observe a settled state.
PRIORITY_MONITOR = 10


class _Bucket:
    """All queued events sharing one ``(time, priority)`` key.

    ``events`` is append-only and seq-sorted by construction (events
    are created with a monotonic counter and appended immediately).
    The bucket's heap entry carries ``first_seq`` to break ties between
    same-key buckets — their seq ranges are disjoint (a remainder
    pushed back mid-drain always precedes any bucket opened later), so
    comparing the first element orders the whole lists.  Trimming
    cancelled leaders (:meth:`Simulation.peek`) keeps ranges within
    their original bounds, so the frozen entry seq stays order-exact.
    """

    __slots__ = ("time", "priority", "events")

    def __init__(self, time: float, priority: int):
        self.time = time
        self.priority = priority
        self.events: list[Event] = []


#: heap entry: (time, priority, first_seq, bucket) — compared in C
_HeapEntry = Tuple[float, int, int, _Bucket]


class Simulation:
    """A single-threaded discrete-event simulator.

    Parameters
    ----------
    horizon:
        Hard stop (virtual seconds).  :meth:`run` never advances the
        clock past it; executions that would exceed it are reported as
        censored by the experiment runner.
    """

    def __init__(self, horizon: float = math.inf):
        if horizon <= 0:
            raise SimulationError("horizon must be positive")
        self.now: float = 0.0
        self.horizon = float(horizon)
        self._heap: list[_HeapEntry] = []
        #: (time, priority) -> the bucket still accepting appends
        self._open: dict[tuple[float, int], _Bucket] = {}
        #: bucket currently being drained by run() (its remaining
        #: events live outside the heap) + drain position
        self._active: Optional[_Bucket] = None
        self._active_idx = 0
        self._seq = itertools.count()
        self._running = False
        self._stopped = False
        self._in_batch = False
        #: callable -> batch handler (see register_batch)
        self._batch: Dict[Callable[..., Any], Callable[[list], Any]] = {}
        #: callbacks fired when run() exits via stop() (see add_stop_hook)
        self._stop_hooks: List[Callable[[], None]] = []
        self.events_processed = 0

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def schedule(self, delay: float, fn: Callable[..., Any], *args: Any,
                 priority: int = PRIORITY_NORMAL) -> Event:
        """Schedule ``fn(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self.at(self.now + delay, fn, *args, priority=priority)

    def at(self, time: float, fn: Callable[..., Any], *args: Any,
           priority: int = PRIORITY_NORMAL) -> Event:
        """Schedule ``fn(*args)`` at absolute virtual time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule at t={time!r} < now={self.now!r}")
        if self._in_batch:
            active = self._active
            if time == active.time and priority < active.priority:
                raise SimulationError(
                    f"batch handler for {fn!r} scheduled a same-time "
                    f"higher-urgency event (priority {priority} < "
                    f"{active.priority}); per-event dispatch would preempt "
                    "the rest of the batch — unregister the batch handler")
        ev = Event(float(time), priority, next(self._seq), fn, args)
        key = (ev.time, priority)
        bucket = self._open.get(key)
        if bucket is None:
            bucket = _Bucket(ev.time, priority)
            self._open[key] = bucket
            heapq.heappush(self._heap, (ev.time, priority, ev.seq, bucket))
        bucket.events.append(ev)
        return ev

    def schedule_batch(self, delay: float, fn: Callable[..., Any],
                       argslist: Sequence[tuple],
                       priority: int = PRIORITY_NORMAL) -> List[Event]:
        """Schedule ``fn(*args)`` once per args tuple, all at one instant.

        The events share one ``(time, priority)`` bucket in seq order,
        so a batch handler registered for ``fn`` receives them as a
        single call when the bucket drains.
        """
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        t = self.now + delay
        return [self.at(t, fn, *args, priority=priority)
                for args in argslist]

    # ------------------------------------------------------------------
    # batch-handler registry
    # ------------------------------------------------------------------
    def register_batch(self, fn: Callable[..., Any],
                       batch_fn: Callable[[list], Any]) -> None:
        """Register ``batch_fn(argslist)`` as the batched form of ``fn``.

        When a drained bucket holds two or more consecutive live events
        for ``fn``, the engine makes one ``batch_fn([args, ...])`` call
        (args tuples in seq order) instead of per-event calls.  The
        handler must be observationally identical to running the events
        one by one — see the module docstring for the enforced contract.
        Bound methods are fine as keys (they hash by instance+function).
        """
        if not callable(fn) or not callable(batch_fn):
            raise SimulationError("register_batch expects two callables")
        self._batch[fn] = batch_fn

    def unregister_batch(self, fn: Callable[..., Any]) -> None:
        self._batch.pop(fn, None)

    def add_stop_hook(self, fn: Callable[[], None]) -> None:
        """Run ``fn()`` when :meth:`run` returns because of :meth:`stop`.

        Hooks fire after the event loop has exited, so they may cancel
        or discard still-scheduled events without affecting the
        transcript (those events were never going to execute).  They
        are for terminal cleanup — e.g. the harness cancelling dead
        dispatch wake-up timers once a campaign's watcher stops the
        run.  Hooks do not fire on a horizon/`until` drain (the run
        may legitimately be continued in phases).
        """
        if not callable(fn):
            raise SimulationError("add_stop_hook expects a callable")
        self._stop_hooks.append(fn)

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def run(self, until: Optional[float] = None) -> float:
        """Process events in order until the heap drains.

        ``until`` (absolute time) bounds this call; the overall
        ``horizon`` bounds the simulation.  Returns the clock value when
        the run stops.  May be called repeatedly to advance in phases.

        The process's cycle collector is paused for the drain (a drain
        makes no cyclic garbage, so collections would only walk the live
        world) and put back as the caller had it when the call returns,
        raises or stops — a caller's own ``gc.disable()`` stays in force.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        limit = self.horizon if until is None else min(float(until), self.horizon)
        self._running = True
        self._stopped = False
        gc_was_enabled = gc.isenabled()
        gc.disable()
        try:
            heap = self._heap
            while heap:
                if heap[0][0] > limit:
                    break
                bucket = heapq.heappop(heap)[3]
                # Detach from appends: events scheduled at this key while
                # it drains open a fresh bucket (their seqs are larger, so
                # they run after the remainder — exact flat-heap order).
                key = (bucket.time, bucket.priority)
                if self._open.get(key) is bucket:
                    del self._open[key]
                self._drain(bucket, heap)
                if self._stopped:
                    break
            if not self._stopped and until is not None and limit > self.now \
                    and (not heap or heap[0][0] > limit):
                # Bounded run with nothing left before the bound: the
                # clock advances to the bound even on a drained heap, so
                # phased callers (tick loops) see time move.  Unbounded
                # runs still rest at the last event time so completion
                # timestamps stay exact.
                self.now = limit
            if self._stopped:
                for fn in self._stop_hooks:
                    fn()
            return self.now
        finally:
            self._running = False
            self._active = None
            if gc_was_enabled:
                gc.enable()

    def close(self) -> None:
        """Release the finished world: cancel every queued event (which
        drops its callback) and clear the heap, the open buckets, the
        batch table and the stop hooks.

        Those are the engine's references into the world it drove (bound
        methods of servers, schedulers and harnesses that in turn hold
        the simulation), so once the caller has collected its results
        and calls this, the world frees itself by reference counting.
        The clock and ``events_processed`` stay readable; idempotent.
        """
        if self._running:
            raise SimulationError("close() called from inside run()")
        for _t, _p, _s, bucket in self._heap:
            for ev in bucket.events:
                ev.cancel()
        self._heap.clear()
        self._open.clear()
        self._batch.clear()
        self._stop_hooks.clear()

    def _drain(self, bucket: _Bucket, heap: list) -> None:
        """Run one bucket's events front-to-back (seq order).

        Before each event, yields to the heap top if a callback queued
        something that precedes the rest of this bucket (same time,
        lower priority, or same key with smaller first_seq can't happen
        — remainders keep the smallest seqs); the live remainder is
        pushed back as its own bucket.  Also pushes the remainder back
        on :meth:`stop` so a later run resumes mid-bucket correctly.

        Consecutive live events sharing a batch-registered callable are
        collapsed into one handler call; the heap-top check before the
        run covers every event in it, because nothing a contract-abiding
        batch handler schedules can precede the run's own key (same-time
        higher-urgency scheduling raises in :meth:`at`, and same-key
        events get strictly larger seqs).
        """
        events = bucket.events
        time, priority = bucket.time, bucket.priority
        self._active = bucket
        batch_table = self._batch
        i = 0
        n = len(events)  # fixed: detached buckets never grow
        while i < n:
            ev = events[i]
            if ev.cancelled:
                i += 1
                self._active_idx = i
                continue
            if heap:
                top = heap[0]
                tt = top[0]
                if tt < time or (tt == time and (
                        top[1] < priority
                        or (top[1] == priority and top[2] < ev.seq))):
                    self._push_remainder(events, i)
                    break
            fn = ev.fn
            if batch_table and i + 1 < n:
                batch_fn = batch_table.get(fn)
                if batch_fn is not None:
                    # Maximal consecutive run of live events for fn
                    # (interior cancelled events are skipped exactly like
                    # the per-event path skips them).
                    j = i + 1
                    while j < n and (events[j].cancelled
                                     or events[j].fn == fn):
                        j += 1
                    run = [e for e in events[i:j] if not e.cancelled]
                    if len(run) > 1:
                        i = j
                        self._active_idx = j
                        self.now = time
                        self.events_processed += len(run)
                        argslist = [e.args for e in run]
                        for e in run:
                            e.fn = e.args = None
                        self._in_batch = True
                        try:
                            batch_fn(argslist)
                        finally:
                            self._in_batch = False
                        for e in run:
                            if e.cancelled:
                                raise SimulationError(
                                    f"batch handler for {fn!r} cancelled "
                                    f"{e!r} inside its own batch; the "
                                    "per-event path would have honoured "
                                    "the cancellation mid-run — "
                                    "unregister the batch handler")
                        continue
            i += 1
            self._active_idx = i
            self.now = ev.time
            self.events_processed += 1
            args = ev.args
            ev.fn = ev.args = None
            fn(*args)
            if self._stopped:
                self._push_remainder(events, i)
                break
        self._active = None
        self._active_idx = 0

    def _push_remainder(self, events: list[Event], i: int) -> None:
        """Re-queue the undrained tail of the active bucket."""
        tail = [ev for ev in events[i:] if not ev.cancelled]
        if not tail:
            return
        first = tail[0]
        bucket = _Bucket(first.time, first.priority)
        bucket.events = tail
        heapq.heappush(self._heap,
                       (first.time, first.priority, first.seq, bucket))

    def stop(self) -> None:
        """Stop the current :meth:`run` after the active callback returns."""
        if self._in_batch:
            raise SimulationError(
                "stop() called from inside a batch handler; the per-event "
                "path would halt mid-bucket — unregister the batch handler "
                "for callbacks that may stop the simulation")
        self._stopped = True

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued.

        Prunes cancelled entries while counting (the same garbage
        :meth:`peek` pops from the top): a heap churned by
        cancellations used to keep every dead event in memory until
        its time came around.  The heap list object is mutated in
        place — :meth:`run` holds an alias to it.  Mid-run, the
        remainder of the bucket being drained counts too (those events
        live outside the heap until re-queued).
        """
        heap = self._heap
        live = [ev for _, _, _, b in heap for ev in b.events
                if not ev.cancelled]
        if len(live) != sum(len(b.events) for _, _, _, b in heap):
            # Rebuild one seq-sorted bucket per key; a sorted entry list
            # is a valid heap, and merging same-key bucket splits is safe
            # (their seq ranges are disjoint, the merge stays sorted).
            live.sort(key=lambda ev: (ev.time, ev.priority, ev.seq))
            buckets: list[_Bucket] = []
            for ev in live:
                if (not buckets or buckets[-1].time != ev.time
                        or buckets[-1].priority != ev.priority):
                    buckets.append(_Bucket(ev.time, ev.priority))
                buckets[-1].events.append(ev)
            heap[:] = [(b.events[0].time, b.priority, b.events[0].seq, b)
                       for b in buckets]
            self._open = {(b.time, b.priority): b for b in buckets}
        count = len(live)
        if self._active is not None:
            count += sum(1 for ev in self._active.events[self._active_idx:]
                         if not ev.cancelled)
        return count

    def peek(self) -> Optional[float]:
        """Time of the next live event, or None if the heap is drained."""
        active = self._active
        if active is not None and any(
                not ev.cancelled
                for ev in active.events[self._active_idx:]):
            # Mid-run the drained bucket's tail lives outside the heap,
            # and its time (== now) can't be beaten by anything queued.
            return active.time
        heap = self._heap
        while heap:
            bucket = heap[0][3]
            events = bucket.events
            skip = 0
            while skip < len(events) and events[skip].cancelled:
                skip += 1
            if skip < len(events):
                if skip:
                    # Trimming cancelled leaders keeps same-key bucket
                    # seq ranges inside their original bounds, so the
                    # frozen entry first_seq still orders the heap.
                    del events[:skip]
                return bucket.time
            heapq.heappop(heap)
            if self._open.get((bucket.time, bucket.priority)) is bucket:
                del self._open[(bucket.time, bucket.priority)]
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        queued = sum(len(b.events) for _, _, _, b in self._heap)
        return (f"<Simulation t={self.now:.3f} pending={queued} "
                f"processed={self.events_processed}>")
