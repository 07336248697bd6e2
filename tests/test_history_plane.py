"""History plane: backends, round-trips, queries, salting.

The losslessness bar mirrors the campaign store's: a record fetched
back from any backend (in-memory, persistent salted SQLite, under
the code-fingerprint salt or an explicit one) must be *exactly* the record archived — IEEE doubles included
— so an α fitted from persisted history equals the α fitted from the
same records in memory, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.history import (
    ExecutionRecord,
    HistoryPlane,
    InMemoryHistoryStore,
    PersistentHistoryStore,
    env_key_of,
    fit_alpha,
    open_history_plane,
    split_env_key,
)

# ---------------------------------------------------------------- strategies
finite_time = st.floats(min_value=1e-3, max_value=1e9,
                        allow_nan=False, allow_infinity=False)


@st.composite
def records(draw, env_key="dci-a//SMALL"):
    """One archivable record with a partially NaN-padded grid."""
    n_filled = draw(st.integers(min_value=1, max_value=100))
    times = sorted(draw(st.lists(finite_time, min_size=n_filled,
                                 max_size=n_filled)))
    grid = np.full(100, np.nan)
    grid[:n_filled] = times
    return ExecutionRecord(
        env_key=env_key,
        n_tasks=draw(st.integers(min_value=1, max_value=10000)),
        makespan=times[-1],
        grid=grid,
        credits_spent=draw(st.floats(min_value=0.0, max_value=1e6,
                                     allow_nan=False)),
        provider=draw(st.sampled_from(("", "ec2", "stratuslab"))))


def _assert_identical(a: ExecutionRecord, b: ExecutionRecord) -> None:
    assert a.env_key == b.env_key
    assert a.n_tasks == b.n_tasks
    assert a.makespan == b.makespan          # exact, not approx
    assert a.credits_spent == b.credits_spent
    assert a.provider == b.provider
    assert np.array_equal(a.grid, b.grid, equal_nan=True)


BACKENDS = [InMemoryHistoryStore,
            lambda: PersistentHistoryStore(":memory:"),   # code salt
            lambda: PersistentHistoryStore(":memory:", salt="s1")]


# ---------------------------------------------------------------- round-trip
@pytest.mark.parametrize("make_store", BACKENDS)
@settings(max_examples=25, deadline=None)
@given(recs=st.lists(
    records(), min_size=1, max_size=5,
    unique_by=lambda r: (r.n_tasks, r.makespan, r.credits_spent,
                         r.grid.tobytes())))
def test_archive_fetch_round_trip_is_lossless(make_store, recs):
    store = make_store()
    for rec in recs:
        store.add(rec)
    back = store.fetch("dci-a//SMALL")
    assert len(back) == len(recs)
    for orig, rt in zip(recs, back):
        _assert_identical(orig, rt)


@settings(max_examples=25, deadline=None)
@given(recs=st.lists(
    records(), min_size=1, max_size=6,
    # the persistent store dedups byte-identical records (replay
    # idempotence); feed distinct ones so both backends hold the
    # same multiset
    unique_by=lambda r: (r.n_tasks, r.makespan, r.credits_spent,
                         r.grid.tobytes())))
def test_alpha_from_persisted_records_equals_in_memory_alpha(recs):
    """The satellite bar: persistence must not perturb calibration."""
    mem = HistoryPlane(InMemoryHistoryStore())
    sql = HistoryPlane(PersistentHistoryStore(":memory:"))
    for rec in recs:
        mem.add(rec)
        sql.add(rec)
    for fraction in (0.25, 0.5, 0.9):
        a_mem, n_mem = mem.alpha("dci-a//SMALL", fraction)
        a_sql, n_sql = sql.alpha("dci-a//SMALL", fraction)
        assert (a_mem, n_mem) == (a_sql, n_sql)
        # and both equal the direct fit over the raw records
        p = [r.tc_at(fraction) / fraction for r in recs]
        a = [r.makespan for r in recs]
        assert a_mem == fit_alpha(p, a)


def test_persistent_add_is_idempotent(tmp_path):
    store = PersistentHistoryStore(str(tmp_path / "h.sqlite"), salt="s1")
    rec = ExecutionRecord("e//X", 10, 100.0, np.full(100, 7.0), 1.5)
    store.add(rec)
    store.add(rec)
    assert len(store) == 1
    store.add(ExecutionRecord("e//X", 10, 101.0, np.full(100, 7.0), 1.5))
    assert len(store) == 2


def test_persistent_salting_hides_and_gcs_stale_records(tmp_path):
    path = str(tmp_path / "h.sqlite")
    old = PersistentHistoryStore(path, salt="old")
    old.add(ExecutionRecord("e//X", 10, 100.0, np.full(100, 5.0)))
    new = PersistentHistoryStore(path, salt="new")
    # stale-salt records are invisible to the current code version
    assert len(new) == 0
    assert new.fetch("e//X") == []
    assert new.env_keys() == []
    assert new.stale_count() == 1
    rows, nbytes = new.gc()
    assert rows == 1 and nbytes > 0
    assert new.stale_count() == 0
    # ...while same-salt records survive across handles
    new.add(ExecutionRecord("e//X", 10, 100.0, np.full(100, 5.0)))
    again = PersistentHistoryStore(path, salt="new")
    assert len(again) == 1


def _tear_grid(store, makespan):
    """Cut one stored grid to half its length, as a torn write would."""
    store._conn.execute(
        "UPDATE executions SET grid = SUBSTR(grid, 1, LENGTH(grid) / 2) "
        "WHERE makespan = ?", (makespan,))
    store._conn.commit()


def test_persistent_fetch_drops_torn_rows_instead_of_crashing(tmp_path):
    """A torn grid row is a counted ``corrupt`` miss: fetch deletes it
    and returns only the whole records, never a partial one."""
    store = PersistentHistoryStore(str(tmp_path / "h.sqlite"), salt="s")
    for mk in (100.0, 200.0, 300.0):
        store.add(ExecutionRecord("e//X", 10, mk, np.full(100, mk)))
    _tear_grid(store, 200.0)
    got = store.fetch("e//X")
    assert [r.makespan for r in got] == [100.0, 300.0]
    assert all(np.array_equal(r.grid, np.full(100, r.makespan))
               for r in got)
    assert store.corrupt == 1
    assert len(store) == 2
    assert store.fetch_rates("e//X") == [(10, 100.0), (10, 300.0)]
    assert [r.makespan for r in store.fetch("e//X")] == [100.0, 300.0]
    assert store.corrupt == 1


@pytest.mark.parametrize("grid", ["[1.0, [2.0]]", '["a"]', "7", "null"])
def test_persistent_fetch_rejects_grids_that_are_not_float_lists(
        tmp_path, grid):
    store = PersistentHistoryStore(str(tmp_path / "h.sqlite"), salt="s")
    store.add(ExecutionRecord("e//X", 10, 100.0, np.full(100, 1.0)))
    store._conn.execute("UPDATE executions SET grid = ?", (grid,))
    assert store.fetch("e//X") == [] and store.corrupt == 1


def test_persistent_gc_reclaims_undecodable_current_rows(tmp_path):
    path = str(tmp_path / "h.sqlite")
    PersistentHistoryStore(path, salt="old").add(
        ExecutionRecord("e//X", 10, 50.0, np.full(100, 5.0)))
    store = PersistentHistoryStore(path, salt="new")
    for mk in (100.0, 200.0):
        store.add(ExecutionRecord("e//X", 10, mk, np.full(100, mk)))
    _tear_grid(store, 100.0)
    rows, nbytes = store.gc()
    assert rows == 2 and nbytes > 0
    assert store.corrupt == 1 and store.stale_count() == 0
    assert [r.makespan for r in store.fetch("e//X")] == [200.0]


def test_plane_gc_delegates_and_defaults_to_noop():
    assert HistoryPlane(InMemoryHistoryStore()).gc() == (0, 0)
    path_store = PersistentHistoryStore(":memory:", salt="s")
    assert HistoryPlane(path_store).gc() == (0, 0)


# ------------------------------------------------------------------- queries
def _plane_with(env, triples):
    """Plane holding (n_tasks, makespan, credits) records with flat
    grids (tc constant: no tail; slowdown 1)."""
    plane = HistoryPlane()
    for n, mk, credits in triples:
        grid = np.linspace(mk / 100.0, mk, 100)
        plane.add(ExecutionRecord(env, n, mk, grid, credits))
    return plane


def test_grids_and_makespans_shapes():
    plane = _plane_with("d//S", [(10, 100.0, 0.0), (10, 200.0, 0.0)])
    assert plane.grids("d//S").shape == (2, 100)
    assert plane.grids("missing//S").shape == (0, 100)
    assert list(plane.makespans("d//S")) == [100.0, 200.0]


def test_throughput_is_ewma_over_archive_order():
    plane = HistoryPlane(smoothing=0.5)
    env = "d//S"
    for n, mk in ((100, 100.0), (100, 400.0)):  # rates 1.0, 0.25
        plane.add(ExecutionRecord(env, n, mk, np.full(100, mk)))
    assert plane.throughput(env) == pytest.approx(0.5 * 0.25 + 0.5 * 1.0)
    assert plane.throughput("missing//S") is None


def test_dci_throughput_aggregates_categories_by_record_count():
    plane = HistoryPlane(smoothing=1.0)  # last record wins per env
    plane.add(ExecutionRecord("d//A", 100, 100.0, np.full(100, 1.0)))  # 1.0
    plane.add(ExecutionRecord("d//B", 100, 200.0, np.full(100, 1.0)))  # 0.5
    plane.add(ExecutionRecord("d//B", 100, 200.0, np.full(100, 1.0)))
    # weighted by counts: (1*1.0 + 2*0.5) / 3
    assert plane.dci_throughput("d") == pytest.approx(2.0 / 3.0)
    assert plane.dci_throughput("other") is None


def test_mean_slowdown_and_availability():
    plane = HistoryPlane()
    env = "d//S"
    # ideal = tc(0.9)/0.9 = 90/0.9 = 100; makespan 150 -> slowdown 1.5
    grid = np.linspace(1.0, 100.0, 100)
    grid[-1] = 150.0
    plane.add(ExecutionRecord(env, 100, 150.0, grid))
    assert plane.mean_slowdown(env) == pytest.approx(1.5)
    summary = plane.summarize(env)
    assert summary.availability == pytest.approx(1 / 1.5)
    assert plane.mean_slowdown("missing//S") is None


def test_predicted_cost_scales_mean_cost_per_task():
    plane = _plane_with("d//S", [(10, 100.0, 20.0), (20, 100.0, 20.0)])
    # per task: mean(2.0, 1.0) = 1.5
    assert plane.cost_per_task("d//S") == pytest.approx(1.5)
    assert plane.predicted_cost("d//S", 40) == pytest.approx(60.0)
    assert plane.predicted_cost("missing//S", 40) is None


def test_alpha_residuals_drop_unusable_bases():
    plane = HistoryPlane()
    env = "d//S"
    grid = np.full(100, np.nan)
    grid[49] = 50.0
    plane.add(ExecutionRecord(env, 100, 120.0, grid))
    plane.add(ExecutionRecord(env, 100, 120.0, np.full(100, np.nan)))
    res = plane.alpha_residuals(env, 0.5, alpha=1.0)
    assert list(res) == [pytest.approx(120.0 - 100.0)]
    # alpha=None fits first: one usable record -> exact fit -> residual 0
    assert plane.alpha_residuals(env, 0.5)[0] == pytest.approx(0.0)


def test_summary_covers_every_env_key_sorted():
    plane = _plane_with("b//S", [(10, 100.0, 1.0)])
    plane.add(ExecutionRecord("a//S", 10, 50.0,
                              np.linspace(0.5, 50.0, 100)))
    assert list(plane.summary()) == ["a//S", "b//S"]
    assert plane.summary()["b//S"].records == 1


# -------------------------------------------------------------------- modes
def test_open_history_plane_modes(tmp_path, monkeypatch):
    assert isinstance(open_history_plane(None).backend,
                      InMemoryHistoryStore)
    assert isinstance(open_history_plane("memory").backend,
                      InMemoryHistoryStore)
    monkeypatch.setenv("REPRO_HISTORY", str(tmp_path / "h.sqlite"))
    plane = open_history_plane("persistent")
    assert isinstance(plane.backend, PersistentHistoryStore)
    assert plane.backend.path == str(tmp_path / "h.sqlite")
    with pytest.raises(ValueError):
        open_history_plane("mysql")


def test_env_key_helpers_round_trip():
    key = env_key_of("dci0-seti-boinc", "SMALL")
    assert key == "dci0-seti-boinc//SMALL"
    assert split_env_key(key) == ("dci0-seti-boinc", "SMALL")


def test_plane_archive_requires_finished_monitor():
    class _Mon:
        done = False
    with pytest.raises(ValueError):
        HistoryPlane().archive("e//X", _Mon())


def test_plane_smoothing_validation():
    with pytest.raises(ValueError):
        HistoryPlane(smoothing=0.0)
    with pytest.raises(ValueError):
        HistoryPlane(smoothing=1.5)


def test_ensure_passes_planes_through_and_wraps_backends():
    plane = HistoryPlane()
    assert HistoryPlane.ensure(plane) is plane
    store = InMemoryHistoryStore()
    assert HistoryPlane.ensure(store).backend is store
    assert isinstance(HistoryPlane.ensure(None).backend,
                      InMemoryHistoryStore)


def test_info_module_reads_and_archives_through_the_plane():
    """The refactor's contract: InformationModule is a plane consumer."""
    from repro.core.info import InformationModule
    from repro.workload.bot import BagOfTasks, Task

    shared = HistoryPlane()
    info = InformationModule(store=shared)
    assert info.plane is shared
    assert info.store is shared.backend
    bot = BagOfTasks(bot_id="b", tasks=[Task(i, 1000.0) for i in range(4)],
                     wall_clock=1.0)
    mon = info.register(bot, 0.0)
    for i in range(4):
        mon.on_task_completed(("b", i), float(i + 1))
    info.archive_execution("e//X", mon, credits_spent=3.25)
    (rec,) = shared.fetch("e//X")
    assert rec.makespan == 4.0
    assert rec.credits_spent == 3.25
    assert math.isfinite(rec.tc_at(1.0))


# --------------------------------------------- provider dimension (economics)
def _rec(env, n, makespan, spent, provider=""):
    grid = np.full(100, np.nan)
    grid[-1] = makespan
    return ExecutionRecord(env, n, makespan, grid,
                           credits_spent=spent, provider=provider)


def test_cost_per_task_filters_by_provider():
    plane = HistoryPlane()
    env = "dci-a//SMALL"
    plane.add(_rec(env, 10, 100.0, 50.0, provider="stratuslab"))   # 5/task
    plane.add(_rec(env, 10, 100.0, 150.0, provider="ec2"))         # 15/task
    assert plane.cost_per_task(env) == pytest.approx(10.0)
    assert plane.cost_per_task(env, provider="stratuslab") == \
        pytest.approx(5.0)
    assert plane.cost_per_task(env, provider="ec2") == pytest.approx(15.0)
    # untagged legacy records are provider-agnostic: they join every
    # provider's estimate instead of being superseded by tagged ones
    plane.add(_rec(env, 10, 100.0, 250.0))
    assert plane.cost_per_task(env, provider="ec2") == \
        pytest.approx((15.0 + 25.0) / 2.0)
    # a provider the bucket never saw: only the provider-agnostic
    # (untagged) records speak for it
    assert plane.cost_per_task(env, provider="nimbus") == \
        pytest.approx(25.0)
    assert plane.predicted_cost(env, 20, provider="stratuslab") == \
        pytest.approx(20 * (5.0 + 25.0) / 2.0)


def test_provider_costs_aggregates_across_envs():
    plane = HistoryPlane()
    plane.add(_rec("a//SMALL", 10, 50.0, 60.0, provider="ec2"))
    plane.add(_rec("b//BIG", 10, 50.0, 20.0, provider="ec2"))
    plane.add(_rec("a//SMALL", 10, 50.0, 30.0, provider="stratuslab"))
    plane.add(_rec("a//SMALL", 10, 50.0, 99.0))   # untagged: excluded
    costs = plane.provider_costs()
    assert costs["ec2"] == (2, pytest.approx(4.0))
    assert costs["stratuslab"] == (1, pytest.approx(3.0))
    assert "" not in costs


def test_admission_reads_per_provider_cost():
    from repro.core.admission import AdmissionController
    from repro.core.credit import CreditSystem
    plane = HistoryPlane()
    env = "dci-a//SMALL"
    plane.add(_rec(env, 10, 100.0, 50.0, provider="stratuslab"))
    plane.add(_rec(env, 10, 100.0, 1000.0, provider="ec2"))
    credits = CreditSystem()
    credits.deposit("u", 120.0)
    pool = credits.open_pool("p", "u", 120.0)
    ctrl = AdmissionController(plane, mode="reject")
    # 20 tasks: 100 credits from stratuslab history (fits), 2000 from ec2
    assert ctrl.evaluate("b1", env, 20, pool,
                         provider="stratuslab").verdict == "granted"
    ctrl.release("b1")
    assert ctrl.evaluate("b2", env, 20, pool,
                         provider="ec2").verdict == "rejected"


def test_sqlite_migration_adds_provider_column(tmp_path):
    """A persistent archive written before the provider dimension
    (digest and salt columns, no provider column) migrates in place."""
    import sqlite3
    path = str(tmp_path / "old.sqlite")
    conn = sqlite3.connect(path)
    conn.executescript("""
        CREATE TABLE executions (
            id INTEGER PRIMARY KEY AUTOINCREMENT,
            digest TEXT NOT NULL UNIQUE,
            env_key TEXT NOT NULL, salt TEXT NOT NULL,
            n_tasks INTEGER NOT NULL,
            makespan REAL NOT NULL, grid TEXT NOT NULL,
            credits_spent REAL NOT NULL DEFAULT 0.0,
            created_at REAL NOT NULL);
    """)
    conn.execute("INSERT INTO executions "
                 "(digest, env_key, salt, n_tasks, makespan, grid, "
                 "credits_spent, created_at) "
                 "VALUES ('d0', 'a//SMALL', 'test', 5, 10.0, '[10.0]', "
                 "2.5, 0.0)")
    conn.commit()
    conn.close()
    store = PersistentHistoryStore(path, salt="test")  # migrates in place
    (rec,) = store.fetch("a//SMALL")
    assert rec.provider == ""                 # legacy rows read back
    assert rec.credits_spent == 2.5
    store.add(_rec("a//SMALL", 5, 11.0, 3.0, provider="ec2"))
    assert store.fetch("a//SMALL")[1].provider == "ec2"


# -------------------------------------------------- archive pruning policies
def _prune_store(tmp_path, n=5, env="a//SMALL"):
    store = PersistentHistoryStore(str(tmp_path / "h.sqlite"),
                                   salt="test")
    for i in range(n):
        store.add(_rec(env, 10, 100.0 + i, 1.0))
    return store


def test_prune_caps_records_per_env(tmp_path):
    store = _prune_store(tmp_path, n=5)
    for i in range(3):
        store.add(_rec("b//BIG", 10, 200.0 + i, 1.0))
    rows, nbytes = store.prune(max_per_env=2)
    assert rows == 4 and nbytes > 0
    # the newest two of each environment survive, in insertion order
    assert [r.makespan for r in store.fetch("a//SMALL")] == [103.0, 104.0]
    assert [r.makespan for r in store.fetch("b//BIG")] == [201.0, 202.0]
    assert store.prune(max_per_env=2) == (0, 0)


def test_prune_ages_out_old_records(tmp_path):
    import time as _time
    store = _prune_store(tmp_path, n=3)
    # pretend the first two records are 10 days old
    store._conn.execute(
        "UPDATE executions SET created_at = ? WHERE makespan < 102.0",
        (_time.time() - 10 * 86400.0,))
    store._conn.commit()
    rows, _ = store.prune(max_age_days=5.0)
    assert rows == 2
    assert [r.makespan for r in store.fetch("a//SMALL")] == [102.0]


def test_prune_leaves_stale_salt_records_to_gc(tmp_path):
    path = str(tmp_path / "h.sqlite")
    old = PersistentHistoryStore(path, salt="old")
    old.add(_rec("a//SMALL", 10, 1.0, 1.0))
    old.close()
    store = PersistentHistoryStore(path, salt="new")
    for i in range(3):
        store.add(_rec("a//SMALL", 10, 100.0 + i, 1.0))
    rows, _nbytes = store.prune(max_per_env=1)
    assert rows == 2
    assert len(store) == 1
    assert store.stale_count() == 1           # untouched by prune
    assert store.gc()[0] == 1


def test_prune_validates_arguments(tmp_path):
    store = _prune_store(tmp_path, n=1)
    with pytest.raises(ValueError):
        store.prune(max_per_env=0)
    with pytest.raises(ValueError):
        store.prune(max_age_days=0.0)
    assert store.prune() == (0, 0)            # no policy = no-op
