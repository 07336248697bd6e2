"""Strategy combinations: parsing, triggers, sizing (§3.5)."""

import math

import numpy as np
import pytest

from repro.core.info import BoTMonitor
from repro.core.strategies import (
    ALL_COMBOS,
    DEPLOY_CLOUD_DUP,
    SIZE_CONSERVATIVE,
    SIZE_GREEDY,
    WHEN_ASSIGNMENT,
    WHEN_COMPLETION,
    WHEN_VARIANCE,
    StrategyCombo,
    parse_combo,
)
from repro.experiments.config import ExecutionConfig
from repro.experiments.runner import run_execution
from repro.workload.bot import BagOfTasks, Task


def monitor(n=100, completions=(), assignments=None):
    bot = BagOfTasks(bot_id="b", tasks=[Task(i, 1000.0) for i in range(n)],
                     wall_clock=1.0)
    mon = BoTMonitor(bot, t0=0.0)
    assignments = assignments if assignments is not None else completions
    for i, t in enumerate(assignments):
        mon.on_task_first_assigned(("b", i), t)
    for i, t in enumerate(completions):
        mon.on_task_completed(("b", i), t)
    return mon


# ----------------------------------------------------------------- parsing
def test_parse_names_roundtrip():
    for combo in ALL_COMBOS:
        assert parse_combo(combo.name).name == combo.name


def test_all_combos_is_full_grid():
    assert len(ALL_COMBOS) == 18
    assert len({c.name for c in ALL_COMBOS}) == 18


def test_parse_case_insensitive():
    c = parse_combo("9a-g-d")
    assert c.when == WHEN_ASSIGNMENT
    assert c.size == SIZE_GREEDY
    assert c.deploy == DEPLOY_CLOUD_DUP


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_combo("9C-C")
    with pytest.raises(ValueError):
        parse_combo("XX-C-R")


def test_default_combo_is_papers_choice():
    c = StrategyCombo()
    assert c.name == "9C-C-R"
    assert c.threshold == 0.9


def test_combo_validation():
    with pytest.raises(ValueError):
        StrategyCombo(threshold=1.0)
    with pytest.raises(ValueError):
        StrategyCombo(variance_factor=1.0)


# ---------------------------------------------------------------- triggers
def test_completion_threshold_fires_at_90pct():
    combo = StrategyCombo(when=WHEN_COMPLETION)
    mon = monitor(100, completions=[float(i) for i in range(89)])
    assert not combo.should_start(mon)
    mon.on_task_completed(("b", 89), 89.0)
    assert combo.should_start(mon)


def test_assignment_threshold_fires_on_assignments():
    combo = StrategyCombo(when=WHEN_ASSIGNMENT)
    mon = monitor(100, completions=[],
                  assignments=[float(i) for i in range(90)])
    assert combo.should_start(mon)
    assert not StrategyCombo(when=WHEN_COMPLETION).should_start(mon)


def test_custom_threshold():
    combo = StrategyCombo(when=WHEN_COMPLETION, threshold=0.5)
    mon = monitor(100, completions=[float(i) for i in range(50)])
    assert combo.should_start(mon)


def test_variance_needs_half_completion():
    combo = StrategyCombo(when=WHEN_VARIANCE)
    mon = monitor(10, completions=[1.0, 2.0],
                  assignments=[0.5, 0.6])
    assert not combo.should_start(mon)


def test_variance_fires_when_lag_doubles():
    """First half: var(x) ~ 1 s; later completions lag 10 s behind
    their assignments -> trigger."""
    combo = StrategyCombo(when=WHEN_VARIANCE)
    n = 10
    assignments = [float(i) for i in range(n)]
    completions = [a + 1.0 for a in assignments[:5]] + \
                  [a + 10.0 for a in assignments[5:8]]
    mon = monitor(n, completions=completions, assignments=assignments)
    assert combo.should_start(mon)


def test_variance_quiet_execution_never_fires():
    combo = StrategyCombo(when=WHEN_VARIANCE)
    n = 10
    assignments = [float(i) for i in range(n)]
    completions = [a + 1.0 for a in assignments[:8]]
    mon = monitor(n, completions=completions, assignments=assignments)
    assert not combo.should_start(mon)


def _uncached_variance_trigger(combo, mon):
    """The §3.5 D trigger with its reference maximum recomputed on
    every call (the historical loop)."""
    c = mon.fraction_completed()
    if c <= 0.5:
        return False
    ref = 0.0
    for pct in range(1, 51):
        v = mon.execution_variance(pct / 100.0)
        if v is not None and v > ref:
            ref = v
    cur = mon.execution_variance(math.floor(c * 100) / 100.0)
    if cur is None or ref <= 0.0:
        return False
    return cur >= combo.variance_factor * ref


def test_variance_reference_memoized_only_once_both_halves_final():
    # 60 % completed but only 40 % assigned (cloud duplication completes
    # tasks without assigning them): ta(x) is undefined above 40 %
    mon = monitor(n=10, completions=[1, 2, 3, 4, 5, 6],
                  assignments=[0, 0, 0, 0])
    assert mon.first_half_variance_max() == 4.0
    assert mon._half_var_max is None
    mon.on_task_first_assigned(("b", 4), 0.0)   # var(50 %) = 5
    assert mon.first_half_variance_max() == 5.0
    assert mon._half_var_max == 5.0
    mon.on_task_first_assigned(("b", 5), 0.0)   # beyond the first half
    assert mon.first_half_variance_max() == 5.0


@pytest.mark.parametrize("strategy", ["D-G-D", "D-C-R"])
@pytest.mark.parametrize("middleware", ["boinc", "xwhep"])
def test_memoized_variance_trigger_equals_recomputed(middleware, strategy,
                                                     monkeypatch):
    memo_state = []
    trigger = StrategyCombo._variance_trigger

    def checked(self, mon):
        memo_state.append(mon._half_var_max is not None)
        got = trigger(self, mon)
        assert got == _uncached_variance_trigger(self, mon)
        return got

    monkeypatch.setattr(StrategyCombo, "_variance_trigger", checked)
    run_execution(ExecutionConfig("seti", middleware, "SMALL", 3,
                                  strategy=strategy, bot_size=60))
    assert any(memo_state), "the memoized reference was never used"


# ------------------------------------------------------------------ sizing
def test_greedy_starts_s_workers():
    combo = StrategyCombo(size=SIZE_GREEDY)
    mon = monitor(100, completions=[float(i) for i in range(90)])
    assert combo.workers_to_start(mon, cpu_hours=25.0, now=100.0) == 25


def test_greedy_minimum_one():
    combo = StrategyCombo(size=SIZE_GREEDY)
    mon = monitor(100, completions=[1.0])
    assert combo.workers_to_start(mon, cpu_hours=0.4, now=1.0) == 1


def test_conservative_caps_by_remaining_time():
    """90% done at t=3600 -> tr = 400 s (~0.111 h); S=25 cpu.h; budget
    allows 25/0.111 = 225 workers, capped at S=25."""
    combo = StrategyCombo(size=SIZE_CONSERVATIVE)
    mon = monitor(100, completions=list(np.linspace(40, 3600, 90)))
    n = combo.workers_to_start(mon, cpu_hours=25.0, now=3600.0)
    assert n == 25


def test_conservative_fewer_when_remaining_is_long():
    """50% done at t=7200 -> tr = 2 h; S=10 -> only 5 workers."""
    combo = StrategyCombo(size=SIZE_CONSERVATIVE)
    mon = monitor(100, completions=list(np.linspace(144, 7200, 50)))
    n = combo.workers_to_start(mon, cpu_hours=10.0, now=7200.0)
    assert n == 5


def test_conservative_literal_max_variant():
    combo = StrategyCombo(size=SIZE_CONSERVATIVE,
                          conservative_literal_max=True)
    mon = monitor(100, completions=list(np.linspace(144, 7200, 50)))
    n = combo.workers_to_start(mon, cpu_hours=10.0, now=7200.0)
    assert n == 10  # max(S/tr=5, S=10)


def test_conservative_without_progress_falls_back_to_greedy():
    combo = StrategyCombo(size=SIZE_CONSERVATIVE)
    mon = monitor(100)
    assert combo.workers_to_start(mon, cpu_hours=12.0, now=0.0) == 12


def test_with_threshold_returns_new_combo():
    c = StrategyCombo()
    c2 = c.with_threshold(0.8)
    assert c.threshold == 0.9 and c2.threshold == 0.8
    assert c2.name == c.name
