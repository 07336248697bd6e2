"""Transcript-equality pins for the vectorized dispatch plane.

Two layers of pins:

* ``acquire_many`` vs ``k`` sequential scalar ``acquire`` calls — the
  RNG draw sequence and the returned (node, end) pairs must be
  byte-identical under random acquire/release/preempt churn;
* bulk ``_dispatch`` vs the kept scalar reference ``_dispatch_scalar``
  — two identical worlds, one with the bulk path disabled, must emit
  identical observer-event transcripts, stats, event counts and final
  RNG states for both middleware models.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infra.node import Node
from repro.infra.pool import NodePool
from repro.middleware import make_server
from repro.simulator.engine import Simulation
from repro.workload.bot import BagOfTasks, Task
from oracles.traces import from_raw


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------
def _rand_fleet(seed: int, n: int, ready_at_zero: bool = False):
    """Raw per-node arrays with sorted, non-overlapping intervals.

    ``ready_at_zero`` pulls every node's first interval start to 0 so
    an arrival storm meets a full ready pool — the regime where the
    dispatch ready-hint routes to the bulk pass."""
    g = np.random.default_rng(seed)
    raw = []
    for _ in range(n):
        k = int(g.integers(1, 5))
        pts = np.sort(g.choice(400, size=2 * k, replace=False)).astype(float)
        starts, ends = pts[0::2].copy(), pts[1::2].copy()
        if ready_at_zero:
            starts[0] = 0.0
        raw.append((starts, ends,
                    float(g.integers(1, 4)) * 500.0, "trace"))
    return raw


def _pool_pair(fleet_seed: int, n: int, rng_seed: int):
    """Two structurally identical columnar pools with equal RNG state."""
    raw = _rand_fleet(fleet_seed, n)
    template = from_raw(raw)
    return (NodePool(template.fresh(), rng=np.random.default_rng(rng_seed)),
            NodePool(template.fresh(), rng=np.random.default_rng(rng_seed)))


class _Recorder:
    """Observer recording every emitted event, in order."""

    def __init__(self):
        self.events = []

    def on_task_arrived(self, gtid, t):
        self.events.append(("arrived", gtid, t))

    def on_task_first_assigned(self, gtid, t):
        self.events.append(("first_assigned", gtid, t))

    def on_task_completed(self, gtid, t):
        self.events.append(("completed", gtid, t))

    def on_bot_completed(self, bot_id, t):
        self.events.append(("bot_completed", bot_id, t))


def _bot(seed: int, size: int) -> BagOfTasks:
    g = np.random.default_rng(seed)
    tasks = [Task(task_id=i, nops=float(g.integers(1, 60)) * 1000.0)
             for i in range(size)]
    return BagOfTasks(bot_id="b0", tasks=tasks, category="SMALL")


def _run_world(kind: str, bulk: bool, fleet_seed: int, n_nodes: int,
               rng_seed: int, bot_seed: int, bot_size: int,
               ready_at_zero: bool = False):
    """Assemble and drain one world; return its full transcript."""
    raw = _rand_fleet(fleet_seed, n_nodes, ready_at_zero)
    template = from_raw(raw)
    sim = Simulation(horizon=400_000.0)
    pool = NodePool(template.fresh(),
                    rng=np.random.default_rng(rng_seed))
    server = make_server(kind, sim, pool)
    if not bulk:  # force the scalar reference for every queue length
        server._BULK_MIN = 10 ** 9
    rec = _Recorder()
    server.add_observer(rec)
    server.submit_bot(_bot(bot_seed, bot_size), at=0.0)
    sim.run()
    return (rec.events, vars(server.stats).copy(),
            pool._rng.bit_generator.state, sim.events_processed, sim.now)


# ---------------------------------------------------------------------------
# acquire_many vs scalar acquire
# ---------------------------------------------------------------------------
@settings(max_examples=60, deadline=None)
@given(fleet_seed=st.integers(0, 1000), n=st.integers(1, 8),
       rng_seed=st.integers(0, 1000), data=st.data())
def test_acquire_many_equals_sequential_acquires(fleet_seed, n, rng_seed,
                                                 data):
    """Bulk acquisition replays the scalar draw sequence exactly —
    same (node, end) pairs, same RNG state — including dry draws and
    interleaved release/preempt churn between batches."""
    pool_a, pool_b = _pool_pair(fleet_seed, n, rng_seed)
    t = 0.0
    for _round in range(6):
        t += float(data.draw(st.integers(0, 80), label="dt"))
        k = data.draw(st.integers(0, n + 2), label="k")
        got_a = pool_a.acquire_many(t, k)
        got_b = []
        for _ in range(k):
            g = pool_b.acquire(t)
            if g is None:
                break
            got_b.append(g)
        assert ([(nd.node_id, end) for nd, end in got_a]
                == [(nd.node_id, end) for nd, end in got_b])
        assert (pool_a._rng.bit_generator.state
                == pool_b._rng.bit_generator.state)
        t += float(data.draw(st.integers(0, 80), label="dt2"))
        for (na, end_a), (nb, _eb) in zip(got_a, got_b):
            if t < end_a:
                pool_a.release(na, t)
                pool_b.release(nb, t)
            else:
                pool_a.preempted(na, t)
                pool_b.preempted(nb, t)
    assert pool_a._ready_end_of == pool_b._ready_end_of


# ---------------------------------------------------------------------------
# bulk _dispatch vs the scalar reference
# ---------------------------------------------------------------------------
@settings(max_examples=25, deadline=None)
@given(kind=st.sampled_from(["boinc", "xwhep"]),
       fleet_seed=st.integers(0, 400), n_nodes=st.integers(2, 10),
       rng_seed=st.integers(0, 400), bot_seed=st.integers(0, 400),
       bot_size=st.integers(1, 12), ready_zero=st.booleans())
def test_bulk_dispatch_transcript_equals_scalar(kind, fleet_seed, n_nodes,
                                                rng_seed, bot_seed,
                                                bot_size, ready_zero):
    """The bulk pairing pass is byte-identical to the scalar loop:
    observer events, stats, processed event count, final clock and the
    pool RNG state all match under arrival storms, preemption waves,
    BOINC timeouts/reissues (which route the pass back to the scalar
    reference) and XWHEP reissue churn.  ``ready_zero`` fleets start
    with every node available so the ready-hint actually routes the
    storm to the bulk pass (scattered fleets mostly exercise the
    hint's scalar routing)."""
    ev_b, stats_b, rng_b, n_b, now_b = _run_world(
        kind, True, fleet_seed, n_nodes, rng_seed, bot_seed, bot_size,
        ready_at_zero=ready_zero)
    ev_s, stats_s, rng_s, n_s, now_s = _run_world(
        kind, False, fleet_seed, n_nodes, rng_seed, bot_seed, bot_size,
        ready_at_zero=ready_zero)
    assert ev_b == ev_s
    assert stats_b == stats_s
    assert rng_b == rng_s
    assert n_b == n_s
    assert now_b == now_s


@pytest.mark.parametrize("kind", ["boinc", "xwhep"])
def test_bulk_dispatch_path_actually_taken(kind, monkeypatch):
    """Guard against the fast path silently never engaging: a fresh
    arrival storm over an available pool must run at least one bulk
    pass (every bulk pass draws through ``acquire_many``)."""
    batches = []
    acquire_many = NodePool.acquire_many
    monkeypatch.setattr(
        NodePool, "acquire_many",
        lambda self, t, k: (batches.append(k), acquire_many(self, t, k))[1])
    _run_world(kind, True, fleet_seed=7, n_nodes=8, rng_seed=1,
               bot_seed=3, bot_size=10, ready_at_zero=True)
    assert batches


# ---------------------------------------------------------------------------
# wake-up teardown
# ---------------------------------------------------------------------------
def test_teardown_cancels_armed_wakeup():
    """A drained run must not keep a dead dispatch wake-up event in the
    heap once the server is torn down."""
    sim = Simulation(horizon=10_000.0)
    node = Node(0, 1000.0, np.asarray([500.0]), np.asarray([600.0]))
    pool = NodePool([node], rng=np.random.default_rng(0))
    server = make_server("xwhep", sim, pool)
    server.submit_bot(BagOfTasks(
        bot_id="b0", tasks=[Task(task_id=0, nops=1000.0)]), at=0.0)
    sim.run(until=100.0)  # arrival found no node: wake-up armed at 500
    assert server._wakeup is not None and not server._wakeup.cancelled
    server.teardown()
    assert server._wakeup is None
    assert sim.pending() == 0


def test_stop_hook_tears_down_harness_servers():
    """The stop-when-complete watcher wires server teardown through the
    engine's stop hooks: after a stopped run no wake-up survives."""
    from repro.experiments.harness import ScenarioHarness

    harness = ScenarioHarness(horizon=1_000_000.0)
    raw = _rand_fleet(11, 6)
    template = from_raw(raw)
    sim = harness.sim
    pool = NodePool(template.fresh(), rng=np.random.default_rng(2))
    server = make_server("xwhep", sim, pool)
    from repro.cloud.registry import get_driver
    driver = get_driver("simulation", sim, rng=np.random.default_rng(3))
    harness.add_dci("d0", server, driver)
    server.submit_bot(_bot(5, 6), at=0.0)
    harness.stop_when_complete(["b0"])
    harness.run()
    assert server._wakeup is None or server._wakeup.cancelled
