"""Transcript-equality pins for the columnar billing path.

The scheduler's vectorized ``_bill_and_manage``, its batched
``stop_all`` settlement and its single-worker starvation stops must be
byte-identical to the historical per-handle loop
(``tests/oracles/billing.py``): same clamp sequence, same floats in the
credit ledger and the meter's per-provider dicts, same handle lifecycle
decisions — under arbitrary busy trajectories, including escrow
exhaustion mid-tick (with handles after the shortfall clamped in the
same batch) and mid-interval stops with unbilled usage.  A hypothesis
test runs twin worlds through identical random trajectories and
compares full state after every step.

Also pinned here: ``BillingMeter.charge_many`` against sequential
scalar charges, the ledger's column/counter invariants, and the
``PriceBook`` static-rate cache semantics.
"""

from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cloud.worker import CloudWorkerHandle
from repro.core.credit import CreditSystem
from repro.core.scheduler import QoSRun, SchedulerConfig, SpeQuloSScheduler
from repro.core.strategies import (
    DEPLOY_FLAT,
    SIZE_CONSERVATIVE,
    SIZE_GREEDY,
    StrategyCombo,
)
from repro.economics.billing import BillingMeter
from repro.economics.pricing import PriceBook
from oracles.billing import (
    bill_and_manage_scalar,
    charge,
    stop_all_scalar,
    stop_handle,
)


# --------------------------------------------------------------- stubs
class _StubServer:
    """Busy accounting only — what the billing scan reads."""

    def __init__(self):
        self.busy_sec = {}      # node_id -> accumulated busy seconds
        self.busy_now = set()   # node_ids currently computing

    def is_busy(self, node):
        return node.node_id in self.busy_now

    def cloud_usage_of(self, node_ids, now):
        return ([self.busy_sec.get(n, 0.0) for n in node_ids],
                [n in self.busy_now for n in node_ids])

    def remove_cloud_node(self, node):
        pass


class _StubDriver:
    name = "stubcloud"

    def destroy_node(self, instance):
        pass


def _make_handle(nid):
    inst = SimpleNamespace(node=SimpleNamespace(node_id=nid),
                           boot_end=0.0)
    return CloudWorkerHandle(inst, DEPLOY_FLAT)


def _build_world(n_handles, provision, greedy, idle_grace,
                 allowance=None):
    """One run over ``n_handles`` Flat workers.  ``allowance`` (a
    fraction of ``provision``) bills a shared pool under an
    arbitration cap instead of a private order."""
    credits = CreditSystem()
    credits.deposit("u", provision)
    if allowance is None:
        credits.order("b", "u", provision)
    else:
        credits.open_pool("p", "u", provision)
        credits.join_pool("b", "p")
        credits.set_allowance("b", allowance * provision)
    server = _StubServer()
    cfg = SchedulerConfig(idle_grace=idle_grace)
    sched = SpeQuloSScheduler(SimpleNamespace(now=0.0), info=None,
                              credits=credits, config=cfg)
    combo = StrategyCombo(size=SIZE_GREEDY if greedy
                          else SIZE_CONSERVATIVE, deploy=DEPLOY_FLAT)
    run = QoSRun(bot_id="b", server=server, driver=_StubDriver(),
                 monitor=None, oracle=None, combo=combo, started=True)
    sched.runs["b"] = run
    for nid in range(n_handles):
        run.ledger.append(_make_handle(nid))
        sched._active_total += 1
        sched._active_by_server[server] = \
            sched._active_by_server.get(server, 0) + 1
    return sched, run, server


def _handle_state(run):
    led = run.ledger
    n = led.n
    return list(zip(led.billed_busy[:n].tolist(),
                    led.last_busy[:n].tolist(),
                    led.ever_assigned[:n].tolist(),
                    led.stopped[:n].tolist()))


def _assert_ledger_consistent(run):
    """Counter/index consistency with the columns."""
    led = run.ledger
    n = led.n
    assert n == len(run.handles)
    assert led.active == int((~led.stopped[:n]).sum())
    assert led.live_indices().tolist() == \
        np.flatnonzero(~led.stopped[:n]).tolist()
    for i, h in enumerate(run.handles):
        assert h.ledger_index == i
        assert led.node_ids[i] == h.node.node_id
        assert led.by_node[h.node.node_id] is h


# ----------------------------------------------- scan transcript equality
def _assert_twins_equal(vec, run_v, ref, run_r):
    """Full-state equality of the twin worlds, exact floats."""
    assert vec.credits.ledger == ref.credits.ledger
    assert vec.credits.get_order("b").spent == \
        ref.credits.get_order("b").spent
    assert vec.meter.spent_by_provider == ref.meter.spent_by_provider
    assert vec.meter.cpu_seconds_by_provider == \
        ref.meter.cpu_seconds_by_provider
    assert _handle_state(run_v) == _handle_state(run_r)
    assert run_v.stop_reason == run_r.stop_reason
    assert run_v.active_workers() == run_r.active_workers()
    assert vec._active_total == ref._active_total
    _assert_ledger_consistent(run_v)
    _assert_ledger_consistent(run_r)


def test_vectorized_scan_matches_per_handle_reference():
    """Twin worlds — columnar billing vs the per-handle oracle — through
    random busy trajectories with mid-interval starvation stops, ending
    with a completion teardown.  The regimes that make charge ordering
    observable must actually be reached: ticks that exhaust the escrow,
    ticks whose batch clamps handles after the first shortfall, and
    single-worker stops that settle nonzero unbilled usage.
    """
    seen = {"exhausting_ticks": 0, "clamped_after_shortfall": 0,
            "stops_with_usage": 0}

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def check(data):
        n = data.draw(st.integers(1, 6), label="handles")
        greedy = data.draw(st.booleans(), label="greedy")
        idle_grace = data.draw(st.sampled_from([None, 60.0, 180.0]),
                               label="idle_grace")
        # small provisions force clamping/exhaustion; big ones keep
        # every charge covered
        provision = data.draw(st.sampled_from([0.02, 0.3, 3.0, 1e4]),
                              label="provision")
        allowance = data.draw(st.sampled_from([None, 0.5, 1.0]),
                              label="allowance")
        vec, run_v, srv_v = _build_world(n, provision, greedy, idle_grace,
                                         allowance)
        ref, run_r, srv_r = _build_world(n, provision, greedy, idle_grace,
                                         allowance)
        # (deltas charged, shortfall index) of every batch
        batches = []
        charge_many = vec.meter.charge_many

        def spy(bot_id, provider, busy_deltas, now):
            batches.append((len(busy_deltas),
                            charge_many(bot_id, provider, busy_deltas, now)))
            return batches[-1][1]

        vec.meter.charge_many = spy

        def accrue(label):
            incs = data.draw(st.lists(
                st.floats(0.0, 90.0, allow_nan=False,
                          allow_infinity=False),
                min_size=n, max_size=n), label=label)
            for srv in (srv_v, srv_r):
                for i, inc in enumerate(incs):
                    srv.busy_sec[i] = srv.busy_sec.get(i, 0.0) + inc

        n_ticks = data.draw(st.integers(1, 7), label="ticks")
        now = 0.0
        for _ in range(n_ticks):
            # mid-interval: some workers starve and stop, settling the
            # usage they accrued since the last tick on their own
            now += 30.0
            vec.sim.now = now
            ref.sim.now = now
            accrue("mid-interval usage")
            for i in data.draw(st.lists(st.integers(0, n - 1),
                                        max_size=2), label="starved"):
                if (not run_v.ledger.stopped[i] and srv_v.busy_sec[i]
                        > run_v.ledger.billed_busy[i]):
                    seen["stops_with_usage"] += 1
                vec._stop_by_node(run_v, run_v.handles[i].node)
                stop_handle(ref, run_r, run_r.handles[i])
                _assert_twins_equal(vec, run_v, ref, run_r)

            now += 30.0
            vec.sim.now = now
            ref.sim.now = now
            accrue("tick usage")
            busy = data.draw(st.lists(st.booleans(), min_size=n,
                                      max_size=n), label="busy")
            for srv in (srv_v, srv_r):
                srv.busy_now = {i for i, b in enumerate(busy) if b}
            batches.clear()
            vec._bill_and_manage(run_v)
            bill_and_manage_scalar(ref, run_r)
            if batches and batches[0][1] >= 0:
                seen["exhausting_ticks"] += 1
                size, fail = batches[0]
                if fail < size - 1:
                    seen["clamped_after_shortfall"] += 1
            _assert_twins_equal(vec, run_v, ref, run_r)

        # the BoT completes: usage accrued since the last tick is
        # settled in one batch (vec) vs handle by handle (ref)
        now += 30.0
        for srv in (srv_v, srv_r):
            for i in range(n):
                srv.busy_sec[i] = srv.busy_sec.get(i, 0.0) + 45.0
        vec.sim.now = now
        ref.sim.now = now
        vec.stop_all(run_v, reason="bot completed")
        stop_all_scalar(ref, run_r, reason="bot completed")
        _assert_twins_equal(vec, run_v, ref, run_r)

    check()
    assert seen["exhausting_ticks"] > 0
    assert seen["clamped_after_shortfall"] > 0
    assert seen["stops_with_usage"] > 0


def test_exhausting_tick_stops_everything_like_the_oracle():
    """A tick whose second charge overruns the escrow bills the first
    handle in full, clamps the second, settles the third at zero and
    stops the run — the same end state as the per-handle oracle."""
    worlds = []
    for tick in (lambda s, r: s._bill_and_manage(r),
                 bill_and_manage_scalar):
        sched, run, srv = _build_world(3, provision=20.0, greedy=False,
                                       idle_grace=None)
        for i in range(3):
            srv.busy_sec[i] = 3600.0  # 15 credits each at the paper rate
        sched.sim.now = 60.0
        tick(sched, run)
        worlds.append((sched, run))
    (vec, run_v), (ref, run_r) = worlds
    assert run_v.stop_reason == "credits exhausted"
    assert run_v.ledger.stopped[:3].all()
    assert run_v.active_workers() == 0
    assert vec.credits.ledger == ref.credits.ledger
    assert [e for e in vec.credits.ledger if e[0] == "bill"] == [
        ("bill", "b", 15.0), ("bill", "b", 5.0)]
    _assert_twins_equal(vec, run_v, ref, run_r)


def test_stop_by_node_uses_the_index():
    sched, run, _srv = _build_world(4, provision=100.0, greedy=False,
                                    idle_grace=None)
    target = run.handles[2]
    sched._stop_by_node(run, target.node)
    assert run.ledger.stopped[target.ledger_index]
    assert run.active_workers() == 3
    assert sched._active_total == 3
    # a node the run never launched is a no-op
    sched._stop_by_node(run, SimpleNamespace(node_id=999))
    assert run.active_workers() == 3


# ------------------------------------------------- charge_many equality
@given(data=st.data())
@settings(max_examples=80, deadline=None)
def test_charge_many_matches_sequential_charges(data):
    """Every delta is billed, the ones after a shortfall clamped."""
    provision = data.draw(st.sampled_from([0.01, 0.5, 20.0, 1e5]))
    # the scheduler only charges handles that computed since the last
    # tick, so batches hold positive deltas only
    deltas = data.draw(st.lists(
        st.floats(1e-6, 400.0, allow_nan=False, allow_infinity=False),
        min_size=0, max_size=10))
    book = PriceBook.uniform(
        data.draw(st.sampled_from([15.0, 3.5, 120.0])))

    def fresh():
        credits = CreditSystem()
        credits.deposit("u", provision)
        credits.order("b", "u", provision)
        return BillingMeter(credits, book)

    seq, batch = fresh(), fresh()
    expected_fail = -1
    for i, d in enumerate(deltas):
        billed, asked = charge(seq, "b", "p", d, now=60.0)
        if billed < asked - 1e-9 and expected_fail < 0:
            expected_fail = i
    got_fail = batch.charge_many("b", "p", deltas, now=60.0)
    assert got_fail == expected_fail
    assert batch.credits.ledger == seq.credits.ledger
    assert batch.credits.get_order("b").spent == \
        seq.credits.get_order("b").spent
    assert batch.spent_by_provider == seq.spent_by_provider
    assert batch.cpu_seconds_by_provider == seq.cpu_seconds_by_provider


# --------------------------------------------------- static-rate caching
def test_static_book_caches_and_set_rate_invalidates():
    book = PriceBook.uniform(15.0)
    assert book.is_static()
    assert book.rate("ec2", now=0.0) == 15.0
    assert ("ec2", "ondemand") in book._rate_cache
    assert book.rate("ec2", now=9999.0) == 15.0  # served from cache
    book.set_rate("ec2", 30.0)
    assert book._rate_cache == {}  # invalidated
    assert book.rate("ec2", now=0.0) == 30.0


def test_time_varying_book_never_caches():
    book = PriceBook({"spotty": lambda now: 10.0 + now})
    assert not book.is_static()
    assert book.rate("spotty", now=0.0) == 10.0
    assert book.rate("spotty", now=5.0) == 15.0
    assert book._rate_cache == {}


def test_ledger_grows_past_initial_capacity():
    run = QoSRun(bot_id="b", server=None, driver=None, monitor=None,
                 oracle=None, combo=None)
    handles = [_make_handle(i) for i in range(40)]
    for h in handles:
        run.ledger.append(h)
    assert len(run.ledger) == 40
    assert run.handles == handles
    assert np.array_equal(run.ledger.node_ids[:40], np.arange(40))
    assert run.active_workers() == 40
