"""Property pins for the shared Reschedule candidate heap.

:meth:`DGServer.fetch_for_cloud` serves a dedicated cloud worker a
pending unit first, then a duplicate of the least-served incomplete
task: the argmin of ``(cloud_dups, first_assign_time|inf, gtid)`` over
``_incomplete`` among the tasks the middleware's ``_fetch_eligible``
hook accepts (BOINC: one result per user; XWHEP: not queued).  Both
middleware answer it from one lazily-invalidated heap
(:meth:`_fetch_candidate_pick`).  The heap pick is exact iff it is
built from current keys and every later key change of an incomplete
task pushes a fresh entry — through the two choke points,
:meth:`_mark_assigned` (first assignment) and :meth:`_add_cloud_dups`,
plus admission in :meth:`_arrive_one`.

The hypothesis test replays random interleavings of exactly those
transitions on either middleware — new tasks, first assignments, cloud
duplicates started and returned, XWHEP re-queues, completions — and
checks the heap pick against the naive scan (``fetch_candidate_scan``
in ``tests/oracles/boinc.py``, the historical loop) at every step,
including the lazy first build.  The twin-world tests then run real
executions once as is and once with the pick replaced by that scan.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.config import ExecutionConfig
from repro.experiments.runner import run_execution
from repro.infra.pool import NodePool
from repro.middleware import make_server
from repro.middleware.base import DGServer
from repro.simulator.engine import Simulation
from repro.workload.bot import BagOfTasks, Task
from oracles.boinc import fetch_candidate_scan

_MAX_TASKS = 64


def _server(kind="boinc"):
    sim = Simulation(horizon=1e9)
    server = make_server(kind, sim, NodePool((),))
    # registers the BoT; the helpers below replay its arrivals by hand
    server.submit_bot(BagOfTasks(bot_id="b", tasks=[
        Task(task_id=i, nops=1000.0) for i in range(_MAX_TASKS)]))
    return server


def _node(nid, cloud=False):
    return SimpleNamespace(node_id=nid, cloud=cloud, power=1000.0)


# Each helper drives the production transition itself, so the heap sees
# exactly the pushes the real code paths make.
def _new_wu(server, idx):
    server._arrive_one("b", Task(task_id=idx, nops=1000.0))  # admission
    return server.tasks[("b", idx)]


def _assign(server, wu, nid, t):
    server.sim.now = t
    wu.queued = False                                # XWHEP _pick_unit
    server._mark_assigned(wu, _node(nid))            # first assignment


def _cloud_start(server, wu, nid, t):
    server.sim.now = t
    wu.queued = False
    server._execute_cloud(wu, _node(nid, cloud=True), True)


def _cloud_finish(server, wu):
    if wu.cloud_dups > 0:
        server._add_cloud_dups(wu, -1)               # duplicate returned


def _requeue(server, wu):
    wu.queued = True                                 # XWHEP _detect


def _complete(server, wu):
    server._complete_task(wu)                        # entries retire lazily


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_heap_pick_matches_naive_scan_under_random_interleavings(data):
    kind = data.draw(st.sampled_from(["boinc", "xwhep"]), label="kind")
    server = _server(kind)
    wus = []
    node_ids = [0, 1, 2, 3]
    n_steps = data.draw(st.integers(5, 40), label="steps")
    for step in range(n_steps):
        t = float(step)
        op = data.draw(st.sampled_from(
            ["new", "assign", "cloud_start", "cloud_finish", "requeue",
             "complete", "pick", "pick", "pick"]), label=f"op{step}")
        live = [w for w in wus if not w.done]
        if op == "new" or not live:
            wus.append(_new_wu(server, len(wus)))
        elif op == "assign":
            _assign(server, data.draw(st.sampled_from(live)),
                    data.draw(st.sampled_from(node_ids)), t)
        elif op == "cloud_start":
            _cloud_start(server, data.draw(st.sampled_from(live)),
                         data.draw(st.sampled_from(node_ids)), t)
        elif op == "cloud_finish":
            _cloud_finish(server, data.draw(st.sampled_from(live)))
        elif op == "requeue":
            _requeue(server, data.draw(st.sampled_from(live)))
        elif op == "complete":
            _complete(server, data.draw(st.sampled_from(live)))
        else:
            node = _node(data.draw(st.sampled_from(node_ids)))
            expected = fetch_candidate_scan(server, node)
            got = server._fetch_candidate_pick(node)
            assert got is expected
            assert server._fetch_heap is not None
        if server._fetch_heap is None:
            # lazy: nothing is pushed before the first pick builds it
            assert server._fetch_seq == 0
    # a final pick per node: the heap must still agree after the dust
    # settles (stale entries dropped, stashed ones restored intact)
    for nid in node_ids:
        node = _node(nid)
        assert server._fetch_candidate_pick(node) \
            is fetch_candidate_scan(server, node)


def test_pick_on_empty_heap_returns_none():
    server = _server()
    assert server._fetch_candidate_pick(_node(0)) is None


def test_pick_prefers_fewest_cloud_dups_then_oldest_assignment():
    server = _server()
    a = _new_wu(server, 0)
    b = _new_wu(server, 1)
    c = _new_wu(server, 2)
    _assign(server, a, 7, t=5.0)
    _assign(server, b, 7, t=1.0)
    _cloud_start(server, c, 8, t=0.0)  # c has a duplicate already
    # b assigned earliest among the 0-dup candidates
    assert server._fetch_candidate_pick(_node(9)) is b
    # both 0-dup candidates already ran on node 9 (one-result-per-
    # user): the pick falls through to c despite its duplicate
    _assign(server, a, 9, t=6.0)
    _assign(server, b, 9, t=6.0)
    assert server._fetch_candidate_pick(_node(9)) is c


def test_xwhep_pick_skips_queued_tasks():
    server = _server("xwhep")
    a = _new_wu(server, 0)
    b = _new_wu(server, 1)
    assert server._fetch_candidate_pick(_node(0)) is None  # both queued
    _assign(server, b, 1, t=2.0)
    assert server._fetch_candidate_pick(_node(0)) is b
    _assign(server, a, 2, t=1.0)
    assert server._fetch_candidate_pick(_node(0)) is a  # older assignment
    _requeue(server, a)
    assert server._fetch_candidate_pick(_node(0)) is b
    # the same node is fine: XWHEP has no one-result-per-user rule
    assert server._fetch_candidate_pick(_node(1)) is b


def test_stale_entries_are_dropped_not_resurrected():
    server = _server()
    a = _new_wu(server, 0)
    assert server._fetch_candidate_pick(_node(5)) is a  # builds the heap
    _cloud_start(server, a, 1, t=0.0)
    _cloud_start(server, a, 2, t=0.0)
    _cloud_finish(server, a)
    heap_before = len(server._fetch_heap)
    pick = server._fetch_candidate_pick(_node(5))
    assert pick is a
    # the stale (older-key) entries surfaced and were discarded
    assert len(server._fetch_heap) < heap_before


def test_compaction_bounds_heap_growth():
    server = _server()
    a = _new_wu(server, 0)
    assert server._fetch_candidate_pick(_node(5)) is a  # builds the heap
    for nid in range(300):  # churn one candidate's key repeatedly
        _cloud_start(server, a, 10 + nid, t=0.0)
        _cloud_finish(server, a)
    assert len(server._fetch_heap) > 64
    assert server._fetch_candidate_pick(_node(5)) is a
    # the pick triggered a rebuild: far fewer entries than pushes
    assert len(server._fetch_heap) <= 4 * max(1, len(server._incomplete)) + 1


@pytest.mark.parametrize("kind", ["boinc", "xwhep"])
def test_heap_is_built_lazily_from_current_keys(kind):
    """Key changes before the first pick push nothing; the first pick
    heapifies ``_incomplete`` at its current keys."""
    server = _server(kind)
    wus = [_new_wu(server, i) for i in range(5)]
    _assign(server, wus[3], 0, t=1.0)
    _assign(server, wus[1], 0, t=2.0)
    _cloud_start(server, wus[3], 1, t=3.0)
    _complete(server, wus[0])
    assert server._fetch_heap is None and server._fetch_seq == 0
    assert server._fetch_candidate_pick(_node(2)) is wus[1]
    assert len(server._fetch_heap) == len(server._incomplete) == 4


# ---------------------------------------------------------------------------
# twin worlds: real executions, heap pick vs the naive scan
# ---------------------------------------------------------------------------
def _transcript(res):
    return (res.events, res.makespan, res.censored,
            [float(x) for x in res.completion_times],
            res.credits_provisioned, res.credits_spent,
            res.workers_launched, res.cloud_cpu_hours,
            res.cloud_completions, res.server_stats)


@pytest.mark.parametrize("seed", [3, 11])
@pytest.mark.parametrize("strategy", ["9C-C-R", "9A-G-R"])
@pytest.mark.parametrize("middleware", ["boinc", "xwhep"])
def test_execution_transcript_equals_naive_scan_world(middleware, strategy,
                                                      seed, monkeypatch):
    cfg = ExecutionConfig("seti", middleware, "SMALL", seed,
                          strategy=strategy, bot_size=60)
    hits = []
    pick = DGServer._fetch_candidate_pick

    def counting_pick(self, node):
        got = pick(self, node)
        hits.append(got is not None)
        return got

    monkeypatch.setattr(DGServer, "_fetch_candidate_pick", counting_pick)
    heap_world = _transcript(run_execution(cfg))
    # the duplicate path really served candidates (the pin is not vacuous)
    assert sum(hits) > 0
    monkeypatch.setattr(DGServer, "_fetch_candidate_pick",
                        fetch_candidate_scan)
    assert _transcript(run_execution(cfg)) == heap_world


@pytest.mark.parametrize("middleware", ["boinc", "xwhep"])
@pytest.mark.parametrize("strategy", [None, "9C-C-F", "9C-C-D"])
def test_no_reschedule_run_never_builds_the_heap(middleware, strategy,
                                                 monkeypatch):
    """Executions without Reschedule workers pay nothing for the pick."""
    built = []
    rebuild = DGServer._rebuild_fetch_heap
    monkeypatch.setattr(DGServer, "_rebuild_fetch_heap",
                        lambda self: (built.append(self), rebuild(self)))
    run_execution(ExecutionConfig("seti", middleware, "SMALL", 3,
                                  strategy=strategy, bot_size=60))
    assert built == []
