"""On-disk trace-realization store: roundtrip, two-tier promotion,
read-only sharing, fingerprint invalidation, and GC."""

import os

import numpy as np
import pytest

from repro.experiments import trace_store as ts
from repro.experiments.harness import TraceCache
from repro.experiments.trace_store import TraceStore
from repro.infra.intervals import FlatTrace


@pytest.fixture
def store(tmp_path):
    """A fresh store in tmp, installed as the process default."""
    st = TraceStore(root=str(tmp_path / "traces"))
    prev = ts.set_default_trace_store(st)
    yield st
    ts.set_default_trace_store(prev)


KEY = ("nd", (7,), 5, 3600.0)


def _realize(cache=None):
    if cache is None:  # NB: an empty TraceCache is falsy (len == 0)
        cache = TraceCache()
    return cache.columns_template("nd", 7, 5, 3600.0), cache


def _same_realization(a, b):
    for name in ("starts", "ends", "offsets", "power"):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()
    assert tuple(a.tags) == tuple(b.tags)


# ------------------------------------------------------------- roundtrip
def test_save_load_roundtrip_bit_identical(store):
    cols, _ = _realize()
    assert store.saves == 1
    flat = store.load_flat(KEY)
    assert flat is not None and flat.n == len(cols)
    _same_realization(cols, flat)


def test_fresh_cache_promotes_from_disk_without_regenerating(store):
    cols1, cache1 = _realize()
    # a second process is modelled by a fresh L1 over the same store
    cols2, cache2 = _realize()
    assert cache1.disk_hits == 0 and cache1.misses == 1
    assert cache2.disk_hits == 1 and cache2.misses == 1
    assert store.saves == 1          # nothing regenerated or re-saved
    _same_realization(cols1, cols2)


def test_missing_key_counts_a_miss(store):
    assert store.load_flat(("nd", (99,), 5, 3600.0)) is None
    assert store.misses == 1


def test_save_is_idempotent(store):
    _realize()
    flat = store.load_flat(KEY)
    store.save(KEY, flat)
    assert store.saves == 1
    current, stale = store.entries()
    assert (current, stale) == (1, 0)


# ------------------------------------------------------------- read-only
def test_generated_arrays_are_read_only(store):
    cols, _ = _realize()
    with pytest.raises(ValueError):
        cols.starts[0] = -1.0
    with pytest.raises(ValueError):
        cols.ends[0] = -1.0


def test_disk_loaded_arrays_are_read_only(store):
    _realize()
    cols, _ = _realize()  # served from disk by a fresh L1
    with pytest.raises(ValueError):
        cols.starts[0] = -1.0


def test_rebuilt_nodes_share_the_cached_arrays(store):
    _realize()
    cache = TraceCache()
    a, _ = _realize(cache)
    b, _ = _realize(cache)
    assert a is not b and a.cursor is not b.cursor
    assert a.starts is b.starts  # zero-copy across executions


# ------------------------------------------------------- invalidation/GC
def test_stale_fingerprint_entries_are_unreachable_and_gced(store):
    _realize()
    path = store.path_for(KEY)
    stale = path.replace(store.fingerprint + ".npz", "deadbeef0000.npz")
    os.rename(path, stale)
    assert store.load_flat(KEY) is None     # content-addressed: stale
    assert store.entries() == (0, 1)
    removed, nbytes = store.gc()
    assert removed == 1 and nbytes > 0
    assert store.entries() == (0, 0)
    assert not os.path.exists(stale)


def test_gc_keeps_current_entries(store):
    _realize()
    assert store.gc() == (0, 0)
    assert store.entries() == (1, 0)


def test_key_digest_separates_streams_caps_horizons(store):
    paths = {store.path_for(k) for k in [
        ("nd", (7,), 5, 3600.0),
        ("nd", (8,), 5, 3600.0),
        ("nd", (7, 1), 5, 3600.0),
        ("nd", (7,), 6, 3600.0),
        ("nd", (7,), 5, 7200.0),
    ]}
    assert len(paths) == 5


def test_summary_reports_two_tier_stats(store):
    _realize()
    _realize()
    assert "1 saved" in store.summary()
    assert "1 current" in store.summary()


# ------------------------------------------------------------- mmap path
def test_load_uses_mmap_not_fallback(store):
    _realize()
    flat = store.load_flat(KEY)
    assert store.mmap_fallbacks == 0
    assert isinstance(flat.starts, np.memmap)  # mapped, not read


def test_empty_realization_roundtrips(store):
    empty = np.empty(0)
    store.save(("empty", (), 0, 1.0),
               FlatTrace(empty, empty, np.zeros(1, dtype=np.int64),
                         empty, ()))
    flat = store.load_flat(("empty", (), 0, 1.0))
    assert flat.n == 0 and flat.starts.size == 0 and flat.tags == ()


# ------------------------------------------------------- torn entries
def test_torn_entry_is_dropped_and_regenerated(store):
    """A stored ``.npz`` cut to half its length (an interrupted copy,
    a full disk) is a miss: counted ``corrupt``, deleted, regenerated
    and re-archived — never a crash of the run that reads it."""
    cols, _ = _realize()
    path = store.path_for(KEY)
    with open(path, "rb") as fh:
        blob = fh.read()
    with open(path, "wb") as fh:
        fh.write(blob[:len(blob) // 2])
    assert store.load_flat(KEY) is None
    assert store.corrupt == 1
    assert not os.path.exists(path)
    again, cache = _realize()   # a fresh L1 regenerates and re-saves
    assert cache.disk_hits == 0
    assert store.saves == 2 and os.path.exists(path)
    _same_realization(cols, again)
    assert "1 corrupt" in store.summary()


@pytest.mark.parametrize("member", ["starts", "bounds"])
def test_garbled_entry_is_dropped_and_regenerated(store, member,
                                                  monkeypatch):
    """An entry that decodes but fails the columns validation (the mmap
    path skips the zip CRC) is a ``corrupt`` miss too: world assembly
    regenerates the realization instead of crashing on every run."""
    import numpy as np

    from repro.experiments import harness as hs

    def pool_draws():           # cold in-process caches: read the disk
        monkeypatch.setattr(hs, "TRACE_CACHE", TraceCache())
        monkeypatch.setattr(hs, "ASSEMBLY_CACHE", hs.AssemblyCache())
        harness = hs.ScenarioHarness(horizon=3600.0)
        pool = harness.build_dci("d", trace="nd", middleware="xwhep",
                                 seed=7, cap=5, stream=(3,)).pool
        return [(n.node_id, end) for n, end in pool.acquire_many(0.0, 5)]

    clean = pool_draws()        # generates and archives the entry
    key = ("nd", (7, 3), 5, 3600.0)
    path = store.path_for(key)
    with np.load(path) as npz:
        arrays = {name: npz[name] for name in npz.files}
    if member == "starts":      # intervals no longer positive-length
        arrays["starts"] = arrays["ends"] + 1.0
    else:                       # offsets disagree with the intervals
        arrays["bounds"] = arrays["bounds"][::-1].copy()
    with open(path, "wb") as fh:
        np.savez(fh, **arrays)
    assert pool_draws() == clean
    assert store.corrupt == 1
    assert store.saves == 2 and os.path.exists(path)


# ------------------------------------------------- generator fingerprint
def test_fingerprint_hashes_exactly_the_generator_modules():
    """Only the modules a realization is produced by are hashed: the
    trace catalog and its transitive ``repro.infra`` imports.  Pool,
    columns and other consumers are left out, so editing them keeps
    every stored realization valid."""
    import ast

    infra = os.path.join(os.path.dirname(ts.__file__), os.pardir, "infra")
    closure, todo = set(), ["catalog.py"]
    while todo:
        name = todo.pop()
        if name in closure:
            continue
        closure.add(name)
        with open(os.path.join(infra, name)) as fh:
            tree = ast.parse(fh.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module:
                if node.module.startswith("repro.infra."):
                    todo.append(node.module.split(".")[2] + ".py")
                elif node.module == "repro.infra":
                    todo.extend(a.name + ".py" for a in node.names)
    assert set(ts.GENERATOR_SOURCES) == closure
    assert set(ts.GENERATOR_SOURCES) == {
        "catalog.py", "gantt.py", "intervals.py", "quantile.py",
        "renewal.py", "spot.py"}
    assert not {"pool.py", "columns.py", "node.py"} & \
        set(ts.GENERATOR_SOURCES)
