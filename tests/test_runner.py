"""Experiment runner: configs, determinism, pairing, campaigns."""

import numpy as np
import pytest

from repro.experiments.config import (
    SCALES,
    ExecutionConfig,
    get_scale,
)
from repro.experiments.runner import run_campaign, run_execution
from repro.middleware.boinc import BoincConfig
from repro.middleware.xwhep import XWHepConfig


def quick_cfg(**kw):
    base = dict(trace="nd", middleware="xwhep", category="SMALL",
                seed=5, bot_size=60)
    base.update(kw)
    return ExecutionConfig(**base)


# ------------------------------------------------------------------ config
def test_config_validation():
    with pytest.raises(ValueError):
        quick_cfg(trace="lhc")
    with pytest.raises(ValueError):
        quick_cfg(middleware="condor")
    with pytest.raises(ValueError):
        quick_cfg(category="HUGE")
    with pytest.raises(ValueError):
        quick_cfg(credit_fraction=0.0)
    with pytest.raises(ValueError):
        quick_cfg(provider="nosuchcloud")


def test_with_strategy_pairs_configs():
    base = quick_cfg()
    speq = base.with_strategy("9C-C-R")
    assert speq.seed == base.seed
    assert speq.trace == base.trace
    assert base.strategy is None and speq.strategy == "9C-C-R"


def test_node_cap_scales_with_replication():
    xw = quick_cfg(bot_size=100)
    bo = quick_cfg(middleware="boinc", bot_size=100)
    assert bo.node_cap() >= xw.node_cap()


def test_node_cap_explicit_override():
    assert quick_cfg(max_nodes=42).node_cap() == 42


def test_node_cap_bounded_by_natural_size():
    cfg = quick_cfg(trace="spot10", bot_size=10_000)
    assert cfg.node_cap() <= 87


def test_scales_registry():
    assert get_scale("quick") is SCALES["quick"]
    assert get_scale("full").size_factor == 1.0
    with pytest.raises(KeyError):
        get_scale("gigantic")


def test_scale_bot_size():
    quick = SCALES["quick"]
    assert quick.bot_size("SMALL") == 250
    assert quick.bot_size("BIG") == 2500
    assert SCALES["full"].bot_size("SMALL") is None


# ------------------------------------------------------------------ runner
def test_execution_result_fields():
    res = run_execution(quick_cfg())
    assert res.makespan > 0
    assert not res.censored
    assert res.n_tasks == 60
    assert res.completion_times.shape == (60,)
    assert res.tc_grid.shape == (100,)
    assert res.slowdown >= 1.0
    assert res.ideal_time > 0
    assert res.credits_provisioned == 0.0
    assert res.events > 0
    assert res.server_stats["completions"] == 60


def test_same_seed_reproduces_exactly():
    a = run_execution(quick_cfg())
    b = run_execution(quick_cfg())
    assert a.makespan == b.makespan
    assert np.allclose(a.completion_times, b.completion_times)


def test_different_seeds_differ():
    a = run_execution(quick_cfg(seed=5))
    b = run_execution(quick_cfg(seed=6))
    assert a.makespan != b.makespan


def test_speq_run_provisions_credits():
    res = run_execution(quick_cfg().with_strategy("9C-C-R"))
    # provision = 10% x 60 x 11000s / 3600 x 15 credits
    expected = 0.10 * 60 * 11_000 / 3600 * 15
    assert res.credits_provisioned == pytest.approx(expected, rel=1e-6)
    assert 0.0 <= res.credits_used_pct <= 100.0


def test_speq_never_slower_much_and_often_faster():
    base = run_execution(quick_cfg(seed=11))
    speq = run_execution(quick_cfg(seed=11).with_strategy("9C-C-R"))
    assert speq.makespan <= base.makespan * 1.05


def test_middleware_override_runner():
    slow = run_execution(quick_cfg(middleware="xwhep", seed=12),
                         middleware_config=XWHepConfig(worker_timeout=3600.0))
    fast = run_execution(quick_cfg(middleware="xwhep", seed=12),
                         middleware_config=XWHepConfig(worker_timeout=120.0))
    # longer detection can only delay completion
    assert slow.makespan >= fast.makespan - 1e-6


def test_boinc_delay_bound_override():
    res = run_execution(quick_cfg(middleware="boinc", seed=13),
                        middleware_config=BoincConfig(delay_bound=3600.0))
    assert res.makespan > 0


def test_campaign_serial_matches_individual():
    # store=None: exercise raw execution, not the campaign cache
    cfgs = [quick_cfg(seed=s) for s in (1, 2, 3)]
    serial = run_campaign(cfgs, n_jobs=1, store=None)
    assert [r.makespan for r in serial] == \
        [run_execution(c).makespan for c in cfgs]


def test_campaign_parallel_order_and_determinism():
    # store=None so the parallel run genuinely fans out over the pool
    cfgs = [quick_cfg(seed=s) for s in range(8)]
    serial = run_campaign(cfgs, n_jobs=1, store=None)
    parallel = run_campaign(cfgs, n_jobs=2, store=None)
    assert [r.makespan for r in serial] == [r.makespan for r in parallel]
    assert [r.config.seed for r in parallel] == list(range(8))


# ------------------------------------------------------------- trace cache
def test_trace_cache_is_true_lru(monkeypatch):
    from repro.experiments.harness import TraceCache
    monkeypatch.setenv("REPRO_TRACE_CACHE", "3")
    cache = TraceCache()
    horizon = 3600.0

    def key(seed):
        return ("nd", (seed,), 4, horizon)

    for seed in (1, 2, 3):
        cache.columns_template("nd", seed, 4, horizon)
    assert cache.keys() == [key(1), key(2), key(3)]

    # a hit refreshes recency: key(1) moves to the back...
    cache.columns_template("nd", 1, 4, horizon)
    assert cache.keys() == [key(2), key(3), key(1)]

    # ...so a miss evicts the least recently USED (key 2), not the
    # oldest inserted (key 1)
    cache.columns_template("nd", 4, 4, horizon)
    assert key(1) in cache.keys()
    assert key(2) not in cache.keys()
    assert cache.keys() == [key(3), key(1), key(4)]
    assert cache.hits == 1 and cache.misses == 4 and cache.evictions == 1


def test_trace_cache_capacity_is_env_configurable(monkeypatch):
    from repro.experiments.harness import TraceCache
    cache = TraceCache()
    monkeypatch.setenv("REPRO_TRACE_CACHE", "2")
    for seed in (1, 2, 3):
        cache.columns_template("nd", seed, 4, 3600.0)
    assert len(cache) == 2 and cache.evictions == 1
    monkeypatch.delenv("REPRO_TRACE_CACHE")
    assert TraceCache.capacity() == 6  # documented default
    monkeypatch.setenv("REPRO_TRACE_CACHE", "0")
    assert TraceCache.capacity() == 1  # clamped to at least one entry


def test_trace_cache_streams_realize_independently():
    """Same (trace, seed) under different DCI streams must neither
    collide in the cache nor produce the same realization."""
    from repro.experiments.harness import TraceCache
    cache = TraceCache()
    a = cache.columns_template("nd", 7, 4, 3600.0)
    b = cache.columns_template("nd", 7, 4, 3600.0, stream=(1,))
    assert len(cache) == 2 and cache.misses == 2
    assert a.starts.tolist() != b.starts.tolist()
    assert "2 misses" in cache.summary()


def test_trace_cache_hit_reuses_realization_but_rebuilds_nodes():
    from repro.experiments.harness import TraceCache
    cache = TraceCache()
    a = cache.columns_template("nd", 9, 4, 3600.0)
    b = cache.columns_template("nd", 9, 4, 3600.0)
    assert len(cache) == 1
    assert cache.hits == 1 and cache.misses == 1
    # same cached interval arrays back both per-execution templates
    assert a is not b and a.cursor is not b.cursor
    assert a.starts is b.starts


def test_censoring_at_horizon():
    # an impossible deadline: 1000-task bot, horizon of ~2 minutes
    cfg = ExecutionConfig(trace="g5klyo", middleware="xwhep",
                          category="SMALL", seed=3, bot_size=200,
                          horizon_days=0.002)
    res = run_execution(cfg)
    assert res.censored
    assert res.makespan == pytest.approx(cfg.horizon)
    assert res.completion_times.shape == (200,)
