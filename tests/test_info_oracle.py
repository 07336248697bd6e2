"""Information module monitors, history stores, Oracle predictions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.info import BoTMonitor, InformationModule, tc_grid
from repro.core.oracle import Oracle, fit_alpha, prediction_success
from repro.history import PersistentHistoryStore
from repro.history.records import ExecutionRecord, InMemoryHistoryStore
from repro.workload.bot import BagOfTasks, Task


def bot_of(n=10, bot_id="b"):
    return BagOfTasks(bot_id=bot_id,
                      tasks=[Task(i, 1000.0) for i in range(n)],
                      wall_clock=1.0)


def feed_monitor(mon, completions, assignments=None):
    """Drive a monitor through a synthetic event sequence."""
    assignments = assignments if assignments is not None else completions
    for i, t in enumerate(assignments):
        mon.on_task_first_assigned((mon.bot_id, i), t)
    for i, t in enumerate(completions):
        mon.on_task_completed((mon.bot_id, i), t)
    if len(completions) == mon.total:
        mon.on_bot_completed(mon.bot_id, completions[-1])


# ---------------------------------------------------------------- monitor
def test_monitor_counts_and_fractions():
    mon = BoTMonitor(bot_of(10), t0=0.0)
    feed_monitor(mon, [float(i + 1) for i in range(5)])
    assert mon.completed_count == 5
    assert mon.fraction_completed() == 0.5
    assert not mon.done


def test_monitor_tc_ta():
    mon = BoTMonitor(bot_of(10), t0=0.0)
    feed_monitor(mon, [float(i + 1) for i in range(10)],
                 assignments=[0.5 * (i + 1) for i in range(10)])
    assert mon.tc(0.5) == pytest.approx(5.0)
    assert mon.ta(0.5) == pytest.approx(2.5)
    assert mon.execution_variance(0.5) == pytest.approx(2.5)
    assert mon.done


def test_monitor_relative_to_t0():
    mon = BoTMonitor(bot_of(2), t0=100.0)
    mon.on_task_completed(("b", 0), 150.0)
    assert mon.completion_times == [50.0]


def test_monitor_ignores_other_bots():
    mon = BoTMonitor(bot_of(2), t0=0.0)
    mon.on_task_completed(("other", 0), 1.0)
    assert mon.completed_count == 0


def test_monitor_tc_none_before_reached():
    mon = BoTMonitor(bot_of(10), t0=0.0)
    feed_monitor(mon, [1.0, 2.0])
    assert mon.tc(0.5) is None
    assert mon.execution_variance(0.9) is None


def test_monitor_sample_series():
    mon = BoTMonitor(bot_of(4), t0=0.0)
    mon.on_task_arrived(("b", 0), 0.0)
    mon.on_task_arrived(("b", 1), 0.0)
    mon.on_task_first_assigned(("b", 0), 1.0)
    mon.sample(10.0)
    t, completed, assigned, waiting = mon.series[-1]
    assert (t, completed, assigned, waiting) == (10.0, 0, 1, 1)


def test_tc_grid_shape_and_nan_padding():
    grid = tc_grid([1.0, 2.0, 3.0], total=10)
    assert grid.shape == (100,)
    assert grid[9] == pytest.approx(1.0)   # tc(10%) = 1st completion
    assert grid[29] == pytest.approx(3.0)
    assert math.isnan(grid[99])


# ------------------------------------------------------------------ stores
@pytest.mark.parametrize("store_factory", [
    InMemoryHistoryStore,
    lambda: PersistentHistoryStore(":memory:", salt="test")])
def test_store_roundtrip(store_factory):
    store = store_factory()
    rec = ExecutionRecord("env1", 100, 1234.5,
                          np.linspace(10, 1234.5, 100))
    store.add(rec)
    store.add(ExecutionRecord("env2", 10, 99.0, np.full(100, np.nan)))
    assert len(store) == 2
    assert store.env_keys() == ["env1", "env2"]
    got = store.fetch("env1")
    assert len(got) == 1
    assert got[0].makespan == 1234.5
    assert np.allclose(got[0].grid, rec.grid)


def test_sqlite_store_preserves_nan():
    store = PersistentHistoryStore(":memory:", salt="test")
    grid = np.full(100, np.nan)
    grid[49] = 55.0
    store.add(ExecutionRecord("e", 10, 100.0, grid))
    got = store.fetch("e")[0]
    assert math.isnan(got.grid[0])
    assert got.grid[49] == 55.0


def test_record_tc_at():
    rec = ExecutionRecord("e", 100, 200.0, np.arange(1.0, 101.0))
    assert rec.tc_at(0.5) == pytest.approx(50.0)
    assert rec.tc_at(1.0) == pytest.approx(100.0)
    with pytest.raises(ValueError):
        rec.tc_at(0.0)


def test_info_module_register_and_archive():
    info = InformationModule()
    bot = bot_of(4)
    mon = info.register(bot, t0=0.0)
    with pytest.raises(ValueError):
        info.register(bot, t0=0.0)
    feed_monitor(mon, [1.0, 2.0, 3.0, 4.0])
    info.archive_execution("envX", mon)
    assert len(info.history("envX")) == 1


def test_archive_unfinished_rejected():
    info = InformationModule()
    mon = info.register(bot_of(4), t0=0.0)
    with pytest.raises(ValueError):
        info.archive_execution("envX", mon)


# ----------------------------------------------------------------- alpha
def test_fit_alpha_perfect_history():
    # actual = 2 * base everywhere -> alpha = 2
    p = [100.0, 200.0, 300.0]
    a = [200.0, 400.0, 600.0]
    assert fit_alpha(p, a) == pytest.approx(2.0)


def test_fit_alpha_is_weighted_median():
    p = [100.0, 100.0, 100.0]
    a = [110.0, 120.0, 500.0]  # outlier should not drag the fit
    alpha = fit_alpha(p, a)
    assert alpha == pytest.approx(1.2)


def test_fit_alpha_empty_history_returns_one():
    assert fit_alpha([], []) == 1.0


def test_fit_alpha_ignores_nan_and_nonpositive():
    p = [float("nan"), -5.0, 100.0]
    a = [100.0, 100.0, 150.0]
    assert fit_alpha(p, a) == pytest.approx(1.5)


@settings(max_examples=30, deadline=None)
@given(ratios=st.lists(st.floats(0.5, 3.0), min_size=1, max_size=30),
       scale=st.floats(10.0, 1e4))
def test_property_fit_alpha_minimizes_l1(ratios, scale):
    p = np.full(len(ratios), scale)
    a = scale * np.asarray(ratios)
    alpha = fit_alpha(p, a)
    def loss(x):
        return np.abs(x * p - a).sum()
    # the optimum is no worse than nearby candidates
    assert loss(alpha) <= loss(alpha * 1.05) + 1e-6
    assert loss(alpha) <= loss(alpha * 0.95) + 1e-6


# ------------------------------------------------------------- prediction
def test_prediction_success_window():
    assert prediction_success(100.0, 100.0)
    assert prediction_success(100.0, 80.0)
    assert prediction_success(100.0, 120.0)
    assert not prediction_success(100.0, 79.0)
    assert not prediction_success(100.0, 121.0)
    assert not prediction_success(0.0, 50.0)


def make_history(info, env, makespans, n=10):
    """Archive executions with linear profiles scaled to makespans."""
    for k, mk in enumerate(makespans):
        bot = bot_of(n, bot_id=f"h{env}-{k}")
        mon = info.register(bot, t0=0.0)
        feed_monitor(mon, list(np.linspace(mk / n, mk, n)))
        info.archive_execution(env, mon)


def test_oracle_alpha_learns_scaling():
    """History where tails double the extrapolation: alpha ~ 2."""
    info = InformationModule()
    for k in range(5):
        bot = bot_of(10, bot_id=f"h{k}")
        mon = info.register(bot, t0=0.0)
        # steady to 50% at t=50, then slow: makespan 200
        times = list(np.linspace(10, 50, 5)) + list(np.linspace(80, 200, 5))
        feed_monitor(mon, times)
        info.archive_execution("envA", mon)
    oracle = Oracle(info)
    alpha, n = oracle.alpha_for("envA", 0.5)
    assert n == 5
    assert alpha == pytest.approx(2.0, rel=0.05)


def test_oracle_predict_live_bot():
    info = InformationModule()
    make_history(info, "envB", [100.0] * 4)
    live = bot_of(10, bot_id="live")
    mon = info.register(live, t0=0.0)
    feed_monitor(mon, list(np.linspace(5, 50, 5)))  # 50% done at t=50
    pred = Oracle(info).predict("live", "envB")
    assert pred is not None
    assert pred.at_fraction == pytest.approx(0.5)
    # base = 50/0.5 = 100; history is linear so alpha ~ 1
    assert pred.predicted_completion == pytest.approx(100.0, rel=0.05)
    assert pred.uncertainty == pytest.approx(1.0)


def test_oracle_predict_without_progress_returns_none():
    info = InformationModule()
    mon = info.register(bot_of(10, bot_id="fresh"), t0=0.0)
    assert Oracle(info).predict("fresh", "envC") is None


def test_oracle_no_history_alpha_one():
    info = InformationModule()
    oracle = Oracle(info)
    alpha, n = oracle.alpha_for("nowhere", 0.5)
    assert alpha == 1.0 and n == 0
    assert math.isnan(oracle.success_rate("nowhere", 0.5, 1.0))
