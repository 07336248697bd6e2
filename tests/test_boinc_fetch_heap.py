"""Property pins for the BOINC cloud-fetch candidate heap (PR 9).

``BoincServer.fetch_for_cloud`` used to argmin-scan every incomplete
workunit per fetch; it now pops a lazily-invalidated heap keyed
``(cloud_dups, first_assign_time|inf, gtid)``.  The heap pick is exact
iff every key mutation of an incomplete workunit pushes a fresh entry
— the sites are ``_enqueue_new`` (new candidate), ``_execute`` (first
assignment), ``_execute_cloud`` (duplicate started) and ``_finish``
(duplicate returned).  The hypothesis driver below replays random
interleavings of exactly those transitions — including completions,
retired entries and per-node ineligibility — and checks the heap pick
(:meth:`_fetch_candidate_pick`) against the naive scan
(``fetch_candidate_scan`` in ``tests/oracles/boinc.py``, the
historical loop) after every step.
"""

from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infra.pool import NodePool
from repro.middleware.base import TaskState
from repro.middleware.boinc import BoincServer
from repro.simulator.engine import Simulation
from oracles.boinc import fetch_candidate_scan


def _server():
    sim = Simulation(horizon=1e9)
    return BoincServer(sim, NodePool((),))


def _node(nid):
    return SimpleNamespace(node_id=nid)


# Model of the real mutation sites: each helper applies the same state
# change the production code path does, followed by the same
# _note_fetch_candidate push.
def _new_wu(server, idx):
    st_ = TaskState(gtid=("b", idx), task=None)
    server.tasks[st_.gtid] = st_
    server._incomplete.add(st_)
    server._note_fetch_candidate(st_)          # _enqueue_new
    return st_


def _assign(server, wu, nid, t):
    fresh_fat = wu.first_assign_time is None
    wu.workers.add(nid)
    if fresh_fat:
        wu.first_assign_time = t
        server._note_fetch_candidate(wu)       # _execute / _mark_assigned


def _cloud_start(server, wu, nid, t):
    fresh_fat = wu.first_assign_time is None
    wu.workers.add(nid)
    if fresh_fat:
        wu.first_assign_time = t
    wu.cloud_dups += 1
    server._note_fetch_candidate(wu)           # _execute_cloud


def _cloud_finish(server, wu):
    if wu.cloud_dups <= 0:
        return
    wu.cloud_dups -= 1
    if not wu.done:
        server._note_fetch_candidate(wu)       # _finish (dup returned)


def _complete(server, wu):
    wu.done = True
    server._incomplete.discard(wu)             # entries retire lazily


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_heap_pick_matches_naive_scan_under_random_interleavings(data):
    server = _server()
    wus = []
    node_ids = [0, 1, 2, 3]
    n_steps = data.draw(st.integers(5, 40), label="steps")
    for step in range(n_steps):
        t = float(step)
        op = data.draw(st.sampled_from(
            ["new", "assign", "cloud_start", "cloud_finish",
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
        elif op == "complete":
            _complete(server, data.draw(st.sampled_from(live)))
        else:
            node = _node(data.draw(st.sampled_from(node_ids)))
            expected = fetch_candidate_scan(server, node)
            got = server._fetch_candidate_pick(node)
            assert got is expected
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
    # ineligible for node 7 (one-result-per-user): falls to never-
    # assigned?  No — a is also node 7's; c is eligible despite dups
    _assign(server, a, 9, t=6.0)
    _assign(server, b, 9, t=6.0)
    assert server._fetch_candidate_pick(_node(9)) is c


def test_stale_entries_are_dropped_not_resurrected():
    server = _server()
    a = _new_wu(server, 0)
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
    for _ in range(300):  # churn one candidate's key repeatedly
        _cloud_start(server, a, 1, t=0.0)
        _cloud_finish(server, a)
    assert len(server._fetch_heap) > 64
    assert server._fetch_candidate_pick(_node(5)) is a
    # the pick triggered a rebuild: far fewer entries than pushes
    assert len(server._fetch_heap) <= 4 * max(1, len(server._incomplete)) + 1
