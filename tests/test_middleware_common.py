"""Shared DGServer machinery: observers, multi-BoT, Flat cloud nodes,
busy accounting — behaviours common to both middleware models."""

import numpy as np
import pytest

from repro.infra.node import Node
from repro.infra.pool import NodePool
from repro.middleware import MIDDLEWARE_NAMES, make_server
from repro.middleware.boinc import BoincConfig
from repro.simulator.engine import Simulation
from repro.workload.bot import BagOfTasks, Task


def stable(nid, power=1000.0):
    return Node(nid, power, np.array([0.0]), np.array([1e9]))


def bot_of(n, nops=1000.0, bot_id="b"):
    return BagOfTasks(bot_id=bot_id,
                      tasks=[Task(i, nops) for i in range(n)],
                      wall_clock=1.0)


def build(kind, n_nodes=4, config=None):
    sim = Simulation(horizon=1e7)
    pool = NodePool([stable(i) for i in range(n_nodes)],
                    rng=np.random.default_rng(0))
    return sim, make_server(kind, sim, pool, config=config)


def test_make_server_names():
    assert MIDDLEWARE_NAMES == ("boinc", "xwhep")
    with pytest.raises(ValueError):
        build("condor")


@pytest.mark.parametrize("kind", MIDDLEWARE_NAMES)
def test_observer_event_order_and_counts(kind):
    sim, srv = build(kind)
    events = []

    class Obs:
        def on_task_arrived(self, gtid, t):
            events.append(("arrive", gtid, t))

        def on_task_first_assigned(self, gtid, t):
            events.append(("assign", gtid, t))

        def on_task_completed(self, gtid, t):
            events.append(("complete", gtid, t))

        def on_bot_completed(self, bot_id, t):
            events.append(("bot", bot_id, t))

    srv.add_observer(Obs())
    srv.submit_bot(bot_of(3))
    sim.run()
    kinds = [e[0] for e in events]
    assert kinds.count("arrive") == 3
    assert kinds.count("assign") == 3
    assert kinds.count("complete") == 3
    assert kinds.count("bot") == 1
    # per task: arrive precedes assign precedes complete
    for i in range(3):
        seq = [k for k, g, _ in events if g == ("b", i)]
        assert seq == ["arrive", "assign", "complete"]


@pytest.mark.parametrize("kind", MIDDLEWARE_NAMES)
def test_duplicate_bot_rejected(kind):
    sim, srv = build(kind)
    bot = bot_of(2)
    srv.submit_bot(bot)
    with pytest.raises(ValueError):
        srv.submit_bot(bot)


@pytest.mark.parametrize("kind", MIDDLEWARE_NAMES)
def test_bot_progress_accounting(kind):
    sim, srv = build(kind)
    srv.submit_bot(bot_of(5))
    sim.run()
    total, arrived, completed = srv.bot_progress("b")
    assert (total, arrived, completed) == (5, 5, 5)
    assert srv.bot_completed("b")
    assert srv.uncompleted_gtids("b") == []


@pytest.mark.parametrize("kind", MIDDLEWARE_NAMES)
def test_flat_cloud_node_validation(kind):
    sim, srv = build(kind)
    with pytest.raises(ValueError):
        srv.add_cloud_node(stable(99))  # not flagged as cloud


@pytest.mark.parametrize("kind", MIDDLEWARE_NAMES)
def test_flat_cloud_node_joins_and_leaves(kind):
    sim, srv = build(kind, n_nodes=2,
                     config=BoincConfig(target_nresults=1, min_quorum=1)
                     if kind == "boinc" else None)
    cloud = Node.stable(99, power=10_000.0)
    srv.submit_bot(bot_of(6, nops=100_000.0))
    sim.at(1.0, srv.add_cloud_node, cloud)
    done = {}

    class Obs:
        def on_bot_completed(self, bid, t):
            done["t"] = t
            sim.stop()

    srv.add_observer(Obs())
    sim.run()
    assert srv.stats.cloud_assignments >= 1
    assert srv.cloud_usage_of([cloud.node_id], sim.now)[0][0] > 0.0
    srv.remove_cloud_node(cloud)
    assert cloud not in srv.pool


@pytest.mark.parametrize("kind", MIDDLEWARE_NAMES)
def test_cloud_busy_seconds_tracks_inflight(kind):
    cfg = BoincConfig(target_nresults=1, min_quorum=1) \
        if kind == "boinc" else None
    sim, srv = build(kind, n_nodes=1, config=cfg)
    cloud = Node.stable(99, power=1000.0)
    srv.submit_bot(bot_of(1, nops=1_000_000.0))  # 1000 s on the cloud
    sim.at(0.5, srv.add_cloud_node, cloud)
    checked = {}

    def check():
        checked["busy"] = srv.cloud_usage_of([cloud.node_id], sim.now)[0][0]
    sim.at(100.0, check)
    sim.run(until=200.0)
    # the cloud worker may or may not have won the task against the
    # regular node; if it did, in-flight busy time accrues linearly
    if srv.is_busy(cloud):
        assert checked["busy"] == pytest.approx(100.0 - 0.5, abs=1.0)
    else:
        assert checked["busy"] == 0.0


@pytest.mark.parametrize("kind", MIDDLEWARE_NAMES)
def test_idle_callback_fired_on_node_free(kind):
    cfg = BoincConfig(target_nresults=1, min_quorum=1) \
        if kind == "boinc" else None
    sim, srv = build(kind, n_nodes=0 or 1, config=cfg)
    cloud = Node.stable(99, power=1000.0)
    pings = []
    srv.register_idle_callback(cloud, lambda: pings.append(sim.now))
    srv.submit_bot(bot_of(1, nops=1000.0))
    # hand the unit to the cloud node directly
    sim.at(0.0, srv.fetch_for_cloud, cloud)
    sim.run()
    assert pings  # notified after its unit completed
    srv.unregister_idle_callback(cloud)


@pytest.mark.parametrize("kind", MIDDLEWARE_NAMES)
def test_remove_observer_inside_callback_skips_no_observer(kind):
    """An observer unsubscribing (itself, or a later one) from inside
    on_bot_completed must not make the running fan-out skip anyone;
    the removal counts from the next event on."""
    sim, srv = build(kind, n_nodes=6)
    srv.submit_bot(bot_of(2, bot_id="alpha"))
    srv.submit_bot(bot_of(2, nops=5000.0, bot_id="beta"))
    seen = []

    class Obs:
        def __init__(self, name, drop=()):
            self.name = name
            self.drop = drop

        def on_bot_completed(self, bid, t):
            seen.append((bid, self.name))
            for obs in self.drop:
                srv.remove_observer(obs)

    last = Obs("last")
    middle = Obs("middle")
    first = Obs("first")
    first.drop = (first, last)
    for obs in (first, middle, last):
        srv.add_observer(obs)
    sim.run()
    assert seen == [("alpha", "first"), ("alpha", "middle"),
                    ("alpha", "last"), ("beta", "middle")]
    assert srv.observers == [middle]
    srv.remove_observer(first)  # not subscribed any more: a no-op
    assert srv.observers == [middle]


@pytest.mark.parametrize("kind", MIDDLEWARE_NAMES)
def test_close_drops_observers_and_idle_callbacks(kind):
    sim, srv = build(kind)
    srv.add_observer(type("Obs", (), {"on_task_arrived":
                                      lambda self, g, t: None})())
    srv.register_idle_callback(stable(99), lambda: None)
    srv.close()
    assert srv.observers == [] and srv._idle_callbacks == {}
    assert all(not fns for fns in srv._obs_methods.values())


@pytest.mark.parametrize("kind", MIDDLEWARE_NAMES)
def test_two_bots_complete_independently(kind):
    sim, srv = build(kind, n_nodes=6)
    srv.submit_bot(bot_of(3, bot_id="alpha"))
    srv.submit_bot(bot_of(3, nops=5000.0, bot_id="beta"))
    finished = []

    class Obs:
        def on_bot_completed(self, bid, t):
            finished.append((bid, t))

    srv.add_observer(Obs())
    sim.run()
    names = [b for b, _ in finished]
    assert set(names) == {"alpha", "beta"}
    t_alpha = dict(finished)["alpha"]
    t_beta = dict(finished)["beta"]
    assert t_alpha < t_beta  # alpha's tasks are 5x shorter
