"""Collector-free drains.

:meth:`~repro.simulator.engine.Simulation.run` pauses the process's
cycle collector for the drain.  That is sound only while two
properties hold, and this module pins both on every world the paper's
executions and the federated scenarios assemble:

* **a drain makes no cyclic garbage** — with the world still
  referenced right after the drain, ``gc.collect()`` finds nothing;
* **a finished world frees itself by reference counting** — after the
  runner's ``close()`` and dropping the result, ``gc.collect()`` finds
  nothing again.

It also pins the pause itself (the caller's collector state comes back
after a normal, a raising and a stopped drain) and that the results do
not depend on allocator or collector state: identity-hashed task sets
(``_incomplete``) are iterated, so object addresses must not leak into
any transcript.
"""

import gc

import numpy as np
import pytest

from repro.core.credit import CREDITS_PER_CPU_HOUR
from repro.core.strategies import parse_combo
from repro.experiments import DCISpec, ScenarioConfig
from repro.experiments.config import ExecutionConfig
from repro.experiments.harness import ScenarioHarness
from repro.experiments.runner import run_execution, run_federated
from repro.middleware import MIDDLEWARE_NAMES
from repro.simulator.engine import Simulation
from repro.workload.generator import make_bot

#: no SpeQuloS, then one strategy of each deployment family:
#: Flat, Reschedule, Cloud-duplication
STRATEGIES = (None, "9C-C-F", "9C-C-R", "9C-C-D")


@pytest.fixture
def collected_at_close(monkeypatch):
    """``gc.collect()`` results taken inside every ``ScenarioHarness.
    close()``, just before it runs: the drain is over, the world is
    still referenced, nothing is torn down yet."""
    counts = []
    original = ScenarioHarness.close

    def close(self):
        counts.append(gc.collect())
        original(self)

    monkeypatch.setattr(ScenarioHarness, "close", close)
    return counts


def _assert_collector_free(job, collected_at_close):
    assert gc.isenabled()
    job()  # warm the trace and assembly caches
    gc.collect()
    collected_at_close.clear()
    result = job()
    assert collected_at_close == [0], "the drain made cyclic garbage"
    del result
    assert gc.collect() == 0, "the closed world needed the collector"
    assert gc.isenabled()


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("middleware", MIDDLEWARE_NAMES)
def test_execution_drain_is_collector_free(middleware, strategy,
                                           collected_at_close):
    cfg = ExecutionConfig("seti", middleware, "SMALL", 3,
                          strategy=strategy, bot_size=60)
    _assert_collector_free(lambda: run_execution(cfg), collected_at_close)


@pytest.mark.parametrize("strategy", ("9C-C-R", "9C-C-D"))
def test_censored_execution_is_collector_free(strategy, collected_at_close):
    """The horizon cuts the BoT off with its cloud workers still
    attached: the runner's finalize and close must still leave nothing
    for the collector."""
    cfg = ExecutionConfig("seti", "xwhep", "SMALL", 3, strategy=strategy,
                          bot_size=60, horizon_days=0.11)
    assert run_execution(cfg).censored
    _assert_collector_free(lambda: run_execution(cfg), collected_at_close)


def test_federated_drain_is_collector_free(monkeypatch, tmp_path,
                                           collected_at_close):
    monkeypatch.setenv("REPRO_HISTORY", str(tmp_path / "history.sqlite"))
    cfg = ScenarioConfig(
        dcis=(DCISpec(trace="seti", middleware="boinc"),
              DCISpec(trace="nd", middleware="xwhep", max_nodes=10)),
        seed=6000, n_tenants=4, bot_size=20, strategy="9C-C-R",
        pool_fraction=0.05, arrival_rate_per_hour=2.0, horizon_days=2.0,
        admission="defer", history="persistent")
    _assert_collector_free(lambda: run_federated(cfg), collected_at_close)


# ---------------------------------------------------------------------------
# the pause restores the caller's collector state
# ---------------------------------------------------------------------------
def _drain_recording_gc_state(sim):
    seen = []
    sim.at(1.0, lambda: seen.append(gc.isenabled()))
    return seen


def test_drain_pauses_and_restores_the_collector():
    sim = Simulation()
    seen = _drain_recording_gc_state(sim)
    assert gc.isenabled()
    sim.run()
    assert seen == [False]
    assert gc.isenabled()


def test_collector_restored_after_a_drain_that_raised():
    sim = Simulation()

    def boom():
        raise ValueError("callback failed")

    sim.at(1.0, boom)
    with pytest.raises(ValueError):
        sim.run()
    assert gc.isenabled()


def test_collector_restored_after_stop():
    sim = Simulation()
    seen = _drain_recording_gc_state(sim)
    sim.at(2.0, sim.stop)
    sim.at(3.0, lambda: seen.append("never"))
    sim.run()
    assert seen == [False]
    assert gc.isenabled()
    sim.run()  # resuming after the stop pauses and restores again
    assert seen == [False, "never"]
    assert gc.isenabled()


def test_callers_disabled_collector_stays_disabled():
    sim = Simulation()
    seen = _drain_recording_gc_state(sim)
    gc.disable()
    try:
        sim.run()
        assert not gc.isenabled()
    finally:
        gc.enable()
    assert seen == [False]


def test_fired_and_cancelled_events_drop_their_callbacks():
    sim = Simulation()
    payload = object()
    fired = sim.at(1.0, lambda x: None, payload)
    dropped = sim.at(2.0, lambda x: None, payload)
    dropped.cancel()
    sim.run()
    assert (fired.fn, fired.args) == (None, None)
    assert (dropped.fn, dropped.args) == (None, None)
    assert not fired.cancelled and dropped.cancelled


def test_close_cancels_queued_events_and_keeps_the_clock():
    sim = Simulation()
    sim.at(1.0, lambda: None)
    later = sim.at(5.0, lambda: None)
    sim.register_batch(print, print)
    sim.add_stop_hook(print)
    sim.run(until=2.0)
    sim.close()
    assert later.cancelled and later.fn is None
    assert sim.pending() == 0 and sim.peek() is None
    assert (sim.now, sim.events_processed) == (2.0, 1)
    assert not sim._batch and not sim._stop_hooks
    sim.close()  # idempotent


# ---------------------------------------------------------------------------
# transcripts do not depend on allocator or collector state
# ---------------------------------------------------------------------------
class _Recorder:
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


def _qos_transcript(middleware: str, seed: int = 11):
    """One QoS execution (the runner's world, plus a recorder): every
    observer event, server stats, the pool and cloud RNG states, the
    clock, the event count and the BoT's completion times."""
    cfg = ExecutionConfig("seti", middleware, "SMALL", seed,
                          strategy="9C-C-R", bot_size=80)
    harness = ScenarioHarness(cfg.horizon)
    dci = harness.build_dci(cfg.env_name(), cfg.trace, cfg.middleware,
                            cfg.seed, cfg.node_cap())
    bot = make_bot(cfg.category, np.random.default_rng([cfg.seed, 0xB07]),
                   bot_id="bot", size_override=cfg.bot_size)
    service = harness.service
    service.register_qos(bot, cfg.env_name(), parse_combo(cfg.strategy))
    provision = 0.1 * bot.workload_cpu_hours * CREDITS_PER_CPU_HOUR
    service.credits.deposit("user", provision)
    service.order_qos(bot.bot_id, "user", provision)
    rec = _Recorder()
    dci.server.add_observer(rec)
    harness.stop_when_complete([bot.bot_id])
    dci.server.submit_bot(bot, at=0.0)
    harness.run()
    transcript = (rec.events, vars(dci.server.stats).copy(),
                  dci.pool._rng.bit_generator.state,
                  dci.driver.rng.bit_generator.state,
                  harness.sim.now, harness.sim.events_processed,
                  list(service.monitor(bot.bot_id).completion_times),
                  service.run_for(bot.bot_id).workers_launched)
    harness.close()
    return transcript


def _churned(middleware):
    """Allocate and free junk first, so every object of the world lands
    at a different address (and identity hash) than in a clean run."""
    junk = [{"i": i, "pad": [i] * (i % 7)} for i in range(40_000)]
    del junk[::3]
    transcript = _qos_transcript(middleware)
    del junk
    return transcript


def _eager_collector(middleware):
    """Collect as often as the collector can outside the drain."""
    saved = gc.get_threshold()
    gc.set_threshold(1, 1, 1)
    try:
        return _qos_transcript(middleware)
    finally:
        gc.set_threshold(*saved)


@pytest.mark.parametrize("middleware", MIDDLEWARE_NAMES)
def test_transcript_independent_of_allocator_and_collector(middleware):
    reference = _qos_transcript(middleware)
    assert reference[0] and reference[7] > 0  # QoS workers did launch
    assert _churned(middleware) == reference
    assert _eager_collector(middleware) == reference
