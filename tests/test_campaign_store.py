"""Content-addressed store: digests, lossless round-trips, stats."""

import dataclasses
import sqlite3
import warnings

import numpy as np
import pytest

from repro.campaign.executor import CampaignExecutor
from repro.campaign.store import (
    ResultStore,
    comparable_payload,
    config_digest,
    decode_result,
    encode_result,
)
from repro.experiments.config import (
    DCISpec,
    ExecutionConfig,
    MultiTenantConfig,
    ScenarioConfig,
)
from repro.experiments.runner import (
    run_execution,
    run_federated,
    run_multi_tenant,
)


def quick_cfg(**kw):
    base = dict(trace="nd", middleware="xwhep", category="SMALL",
                seed=5, bot_size=40)
    base.update(kw)
    return ExecutionConfig(**base)


@pytest.fixture
def store():
    s = ResultStore(":memory:")
    yield s
    s.close()


# ----------------------------------------------------------------- digests
def test_digest_changes_when_any_config_field_changes():
    base = quick_cfg()
    variants = dict(trace="seti", middleware="boinc", category="BIG",
                    seed=6, strategy="9C-C-R", strategy_threshold=0.8,
                    credit_fraction=0.2, bot_size=41, max_nodes=10,
                    horizon_days=10.0, provider="ec2")
    assert set(variants) == {f.name for f in dataclasses.fields(base)}
    for field, value in variants.items():
        changed = dataclasses.replace(base, **{field: value})
        assert config_digest(changed) != config_digest(base), field


def test_digest_covers_type_salt_and_extra():
    cfg = quick_cfg()
    assert config_digest(cfg) == config_digest(cfg)
    assert config_digest(cfg, salt="other") != config_digest(cfg)
    assert config_digest(cfg, extra={"delay_bound": 60.0}) \
        != config_digest(cfg)
    # a dict key with the same fields is a different kind
    assert config_digest(dataclasses.asdict(cfg)) != config_digest(cfg)


def test_digest_rejects_unknown_keys():
    with pytest.raises(TypeError):
        config_digest(42)


def test_default_salt_embeds_code_fingerprint(monkeypatch):
    """Staleness protection is automatic: the salt hashes the
    simulation source, so editing it orphans old records without a
    manual CODE_VERSION bump."""
    import repro.campaign.store as store_mod
    monkeypatch.delenv("REPRO_CODE_SALT", raising=False)
    fp = store_mod.code_fingerprint()
    assert len(fp) == 16 and fp == store_mod.code_fingerprint()
    assert store_mod._code_salt() == f"{store_mod.CODE_VERSION}-{fp}"
    # explicit and env salts still win
    assert store_mod._code_salt("pinned") == "pinned"
    monkeypatch.setenv("REPRO_CODE_SALT", "forced")
    assert store_mod._code_salt() == "forced"


# ------------------------------------------------------------- round-trips
def assert_execution_results_equal(a, b):
    for field in dataclasses.fields(a):
        va, vb = getattr(a, field.name), getattr(b, field.name)
        if isinstance(va, np.ndarray):
            assert np.array_equal(va, vb, equal_nan=True), field.name
        else:
            assert va == vb, field.name


def test_execution_result_roundtrip_is_lossless(store):
    res = run_execution(quick_cfg(strategy="9C-C-R"))
    store.put(res.config, res)
    back = store.get(res.config)
    assert_execution_results_equal(res, back)
    # and the re-encoded payload is byte-identical (caching can never
    # change figure numbers)
    assert encode_result(back) == encode_result(res)


def test_multi_tenant_result_roundtrip_is_lossless(store):
    cfg = MultiTenantConfig(trace="nd", middleware="xwhep", seed=3,
                            n_tenants=2, bot_size=20,
                            categories=("SMALL",), policy="fairshare",
                            max_total_workers=4, deadline_factor=0.5)
    res = run_multi_tenant(cfg)
    store.put(cfg, res)
    back = store.get(cfg)
    assert back.config == cfg
    assert encode_result(back) == encode_result(res)
    assert len(back.tenants) == len(res.tenants)
    for ta, tb in zip(res.tenants, back.tenants):
        assert ta == tb
    assert np.array_equal(back.slowdowns, res.slowdowns)


def test_json_payload_roundtrip(store):
    key = {"experiment": "edgi", "seed": 5}
    store.put(key, {"XW@LAL": 100, "EC2": 3})
    assert store.get(key) == {"XW@LAL": 100, "EC2": 3}


def test_json_payload_preserves_key_order(store):
    """Warm and cold runs must render identically: table 5 iterates
    its summary dict, so the store may not re-sort payload keys."""
    key = {"experiment": "order"}
    summary = {"XW@LAL": 1, "XW@LRI": 2, "EGI": 3, "EC2": 4}
    store.put(key, summary)
    assert list(store.get(key)) == list(summary)


def test_nan_and_inf_survive_roundtrip():
    kind, payload = encode_result({"vals": [1.0, float("nan"),
                                            float("inf")]})
    back = decode_result(kind, payload)
    assert back["vals"][0] == 1.0
    assert np.isnan(back["vals"][1])
    assert back["vals"][2] == float("inf")


# ------------------------------------------------------------------- stats
def test_hit_miss_accounting(store):
    cfg = quick_cfg()
    assert store.get(cfg) is None
    res = run_execution(cfg)
    store.put(cfg, res)
    assert store.get(cfg) is not None
    assert (store.stats.hits, store.stats.misses, store.stats.puts) \
        == (1, 1, 1)
    assert store.stats.hit_rate == 0.5
    assert "1 hits, 1 misses" in store.stats.summary()


def test_contains_does_not_touch_counters(store):
    cfg = quick_cfg()
    assert not store.contains(cfg)
    store.put(cfg, run_execution(cfg))
    assert store.contains(cfg)
    assert store.stats.lookups == 0


# ------------------------------------------------- conflicts / invalidation
def test_identical_reput_is_silent_despite_wall_seconds(store):
    cfg = quick_cfg()
    res = run_execution(cfg)
    store.put(cfg, res)
    rerun = dataclasses.replace(res, wall_seconds=res.wall_seconds + 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        store.put(cfg, rerun, mode="parallel")
    assert store.stats.conflicts == 0
    assert len(store) == 1


def test_divergent_reput_warns_and_counts_conflict(store):
    cfg = quick_cfg()
    res = run_execution(cfg)
    store.put(cfg, res)
    bogus = dataclasses.replace(res, makespan=res.makespan + 1.0)
    with pytest.warns(RuntimeWarning, match="store conflict"):
        store.put(cfg, bogus)
    assert store.stats.conflicts == 1
    # divergence must be visible in the CI-grepped stats line
    assert "1 CONFLICTS" in store.stats.summary()
    # first record wins
    assert store.get(cfg).makespan == res.makespan


def test_comparable_payload_strips_timing_only():
    res = run_execution(quick_cfg())
    _, payload = encode_result(res)
    other = dataclasses.replace(res, wall_seconds=1e9)
    _, payload2 = encode_result(other)
    assert payload != payload2
    assert comparable_payload(payload) == comparable_payload(payload2)


def test_invalidate_single_and_all(store):
    a, b = quick_cfg(seed=1), quick_cfg(seed=2)
    store.put(a, run_execution(a))
    store.put(b, run_execution(b))
    assert len(store) == 2
    assert store.invalidate(a) == 1
    assert not store.contains(a) and store.contains(b)
    assert store.invalidate() == 1
    assert len(store) == 0


def test_salted_stores_do_not_share_entries(tmp_path):
    path = str(tmp_path / "store.sqlite")
    cfg = quick_cfg()
    res = run_execution(cfg)
    v1 = ResultStore(path, salt="v1")
    v1.put(cfg, res)
    assert v1.get(cfg) is not None
    v2 = ResultStore(path, salt="v2")
    assert v2.get(cfg) is None  # unreachable under the new salt
    v1.close()
    v2.close()


# ------------------------------------------------------------ gc + stats
def test_gc_drops_only_stale_salt_records(tmp_path):
    path = str(tmp_path / "store.sqlite")
    cfg = quick_cfg()
    res = run_execution(cfg)
    old = ResultStore(path, salt="v1")
    old.put(cfg, res)
    old.put(quick_cfg(seed=6), run_execution(quick_cfg(seed=6)))
    old.close()
    cur = ResultStore(path, salt="v2")
    cur.put(cfg, res)
    assert len(cur) == 3
    rows, nbytes = cur.gc()
    assert rows == 2 and nbytes > 0
    assert len(cur) == 1
    assert cur.get(cfg) is not None  # current record survives
    # idempotent: a second pass reclaims nothing
    assert cur.gc() == (0, 0)
    cur.close()


def test_gc_vacuum_shrinks_the_file(tmp_path):
    path = str(tmp_path / "store.sqlite")
    old = ResultStore(path, salt="v1")
    for seed in range(5, 9):
        cfg = quick_cfg(seed=seed)
        old.put(cfg, run_execution(cfg))
    old.close()
    cur = ResultStore(path, salt="v2")
    before = cur.file_bytes()
    rows, _ = cur.gc(vacuum=True)
    assert rows == 4
    assert cur.file_bytes() < before
    cur.close()


def test_breakdown_splits_current_and_stale(tmp_path):
    path = str(tmp_path / "store.sqlite")
    cfg = quick_cfg()
    res = run_execution(cfg)
    old = ResultStore(path, salt="v1")
    old.put(cfg, res)
    old.put({"k": 1}, {"v": 2})
    old.close()
    cur = ResultStore(path, salt="v2")
    cur.put(cfg, res)
    assert cur.breakdown() == {
        "execution": {"current": 1, "stale": 1},
        "json": {"current": 0, "stale": 1}}
    assert cur.file_bytes() > 0
    cur.close()


def test_in_memory_store_reports_zero_file_bytes(store):
    assert store.file_bytes() == 0
    assert store.gc() == (0, 0)


# ------------------------------------------------------------ torn rows
def tear_payload(path, digest):
    """Cut one stored payload to half its length (a torn write)."""
    with sqlite3.connect(path) as conn:
        (payload,) = conn.execute(
            "SELECT payload FROM results WHERE digest = ?",
            (digest,)).fetchone()
        conn.execute("UPDATE results SET payload = ? WHERE digest = ?",
                     (payload[:len(payload) // 2], digest))
    conn.close()


TORN_CASES = [
    (quick_cfg(strategy="9C-C-R"), run_execution),
    (MultiTenantConfig(trace="nd", middleware="xwhep", seed=3,
                       n_tenants=2, bot_size=20, max_total_workers=4),
     run_multi_tenant),
    (ScenarioConfig(dcis=(DCISpec("nd", "xwhep"), DCISpec("seti", "boinc")),
                    seed=3, n_tenants=2, bot_size=20),
     run_federated),
]


@pytest.mark.parametrize("cfg, run", TORN_CASES,
                         ids=["execution", "multi_tenant", "federated"])
def test_torn_row_is_recomputed_by_the_executor(tmp_path, cfg, run):
    path = str(tmp_path / "store.sqlite")
    store = ResultStore(path)
    store.put(cfg, run(cfg))
    tear_payload(path, store.digest(cfg))
    (result,) = CampaignExecutor(store=store, n_jobs=1).run([cfg])
    fresh = run(cfg)
    assert (comparable_payload(encode_result(result)[1])
            == comparable_payload(encode_result(fresh)[1]))
    assert store.stats.corrupt == 1
    assert store.stats.conflicts == 0
    assert "1 corrupt rows dropped" in store.stats.summary()
    # the recomputed row replaced the torn one and decodes
    assert store.get(cfg) is not None
    store.close()


def test_gc_reclaims_torn_current_rows(tmp_path):
    path = str(tmp_path / "store.sqlite")
    store = ResultStore(path)
    torn, whole = quick_cfg(), quick_cfg(seed=6)
    store.put(torn, run_execution(torn))
    store.put(whole, run_execution(whole))
    tear_payload(path, store.digest(torn))
    rows, nbytes = store.gc()
    assert rows == 1 and nbytes > 0
    assert store.stats.corrupt == 1
    assert not store.contains(torn) and store.contains(whole)
    assert store.gc() == (0, 0)
    store.close()


# ------------------------------------------------------------- persistence
def test_store_accepts_bare_relative_path(tmp_path, monkeypatch):
    """REPRO_STORE=results.sqlite (no directory part) must work."""
    monkeypatch.chdir(tmp_path)
    s = ResultStore("bare.sqlite")
    s.put({"k": 1}, {"v": 2})
    s.close()
    assert (tmp_path / "bare.sqlite").exists()


def test_store_persists_across_handles(tmp_path):
    path = str(tmp_path / "store.sqlite")
    cfg = quick_cfg()
    res = run_execution(cfg)
    first = ResultStore(path)
    first.put(cfg, res, mode="parallel")
    first.close()
    second = ResultStore(path)
    assert second.mode_of(cfg) == "parallel"
    assert_execution_results_equal(second.get(cfg), res)
    assert second.labels() == [cfg.label()]
    second.close()
