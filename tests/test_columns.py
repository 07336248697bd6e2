"""Columnar node storage: validation, Node-API parity, pool parity.

The contract under test is substitutability: a :class:`NodeColumns`
realization behind the pool must be observationally identical to the
historical list-of-:class:`Node` construction — same interval answers,
same RNG draw sequence, same probe results — because every fixed-seed
golden in the repo depends on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infra.columns import ColumnNode, NodeColumns
from repro.infra.node import Node
from repro.infra.pool import NodePool
from oracles.traces import from_raw


def _fleet_raw(seed: int, n: int = 30):
    """Random per-node raw arrays in the trace cache's entry format."""
    rng = np.random.default_rng(seed)
    raw = []
    for i in range(n):
        k = int(rng.integers(0, 4))
        starts, ends = [], []
        t = 0.0
        for j in range(k):
            if j == 0 and i % 3 == 0:
                s = 0.0          # a third of the fleet is up at t=0
            else:
                t += float(rng.uniform(0.1, 5.0))
                s = t
            t = s + float(rng.uniform(0.5, 10.0))
            starts.append(s)
            ends.append(t)
        raw.append((np.asarray(starts, dtype=float),
                    np.asarray(ends, dtype=float),
                    float(rng.uniform(1.0, 10.0)), f"host{i}"))
    return raw


def _nodes_of(raw):
    return [Node(i, p, s, e, tag=tag)
            for i, (s, e, p, tag) in enumerate(raw)]


# ------------------------------------------------------------- validation
def test_from_raw_rejects_bad_power():
    with pytest.raises(ValueError, match="power"):
        from_raw([(np.array([0.0]), np.array([1.0]),
                   0.0, "")])


@pytest.mark.parametrize("power", [np.nan, np.inf])
def test_from_flat_rejects_non_finite_power(power):
    with pytest.raises(ValueError, match="finite and positive"):
        NodeColumns.from_flat(np.array([0.0]), np.array([1.0]),
                              np.array([0, 1]), np.array([power]), ("x",))


def test_from_raw_rejects_shape_mismatch():
    with pytest.raises(ValueError, match="shapes"):
        from_raw([(np.array([0.0, 2.0]), np.array([1.0]),
                   1.0, "")])


def test_from_raw_rejects_empty_intervals():
    with pytest.raises(ValueError, match="positive-length"):
        from_raw([(np.array([1.0]), np.array([1.0]),
                   1.0, "")])


def test_from_raw_rejects_overlap_within_a_node():
    with pytest.raises(ValueError, match="sorted"):
        from_raw([(np.array([0.0, 1.0]), np.array([2.0, 3.0]),
                   1.0, "")])


def test_from_raw_allows_overlap_across_node_borders():
    """The sortedness check is per node; adjacent nodes' intervals are
    unrelated (every node starts its own timeline)."""
    cols = from_raw([
        (np.array([0.0]), np.array([10.0]), 1.0, "a"),
        (np.array([0.0]), np.array([5.0]), 1.0, "b"),
    ])
    assert cols.interval_at(0, 1.0) == (0.0, 10.0)
    assert cols.interval_at(1, 1.0) == (0.0, 5.0)


def test_template_arrays_are_immutable():
    cols = from_raw(_fleet_raw(1, n=5))
    with pytest.raises(ValueError):
        cols.starts[0] = -1.0
    with pytest.raises(ValueError):
        cols.offsets[0] = 7


def test_fresh_shares_columns_but_not_cursor():
    template = from_raw(_fleet_raw(2, n=12))
    a, b = template.fresh(), template.fresh()
    assert a.starts is b.starts and a.offsets is b.offsets
    assert a.cursor is not b.cursor
    # advancing one execution's cursors must not leak into the other
    for i in range(len(a)):
        a.advance(i, 1e9)
    assert np.array_equal(b.cursor, template.offsets[:-1])


# ------------------------------------------------------- Node-API parity
def test_column_node_matches_node_answers():
    raw = _fleet_raw(3, n=20)
    cols = from_raw(raw).fresh()
    nodes = _nodes_of(raw)
    probes = [0.0, 0.5, 1.0, 3.0, 7.5, 12.0, 30.0, 100.0]
    for i, node in enumerate(nodes):
        view = ColumnNode(cols, i)
        assert view.node_id == node.node_id
        assert view.power == node.power
        assert view.tag == node.tag
        assert not view.cloud
        for t in probes:  # monotone, as the simulation guarantees
            assert view.interval_at(t) == node.interval_at(t)
            assert view.next_available(t) == node.next_available(t)


#: per-node interval lists around t=0: ends before, at and after 0,
#: plus nodes with no interval at all
_signed_fleet = st.lists(
    st.lists(st.integers(-6, 6), max_size=6, unique=True)
    .map(sorted).map(lambda pts: [(float(pts[i]), float(pts[i + 1]))
                                  for i in range(0, len(pts) - 1, 2)]),
    max_size=10)


@settings(max_examples=200, deadline=None)
@given(fleet=_signed_fleet, after=st.sampled_from([-2.0, 0.0, 0.5, 3.0]))
def test_first_interval_matches_next_available_from_fresh_cursor(
        fleet, after):
    raw = [(np.array([s for s, _ in ivs], dtype=float),
            np.array([e for _, e in ivs], dtype=float), 1.0, "")
           for ivs in fleet]
    template = from_raw(raw)
    ids, starts, ends = template.first_interval(after)
    got = dict(zip(ids.tolist(), zip(starts.tolist(), ends.tolist())))
    want = {}
    for i in range(len(raw)):
        nxt = template.fresh().next_available(i, after)
        if nxt is not None:
            want[i] = nxt
    assert got == want
    assert np.array_equal(template.cursor, template.offsets[:-1])


def test_from_nodes_requires_dense_in_order_trace_ids():
    nodes = _nodes_of(_fleet_raw(5, n=6))
    cols = NodeColumns.from_nodes(nodes)
    assert len(cols) == 6 and cols.tags == tuple(n.tag for n in nodes)
    with pytest.raises(ValueError, match="trace node 0"):
        NodeColumns.from_nodes(nodes[1:])
    with pytest.raises(ValueError, match="trace node 0"):
        NodeColumns.from_nodes([Node.stable(0, 5.0)])


@pytest.mark.parametrize("garble", ["reversed", "decreasing", "power",
                                    "tags"])
def test_from_flat_rejects_inconsistent_layouts(garble):
    cols = from_raw(_fleet_raw(8, n=5))
    o = cols.offsets
    flat = dict(starts=cols.starts, ends=cols.ends, offsets=o,
                power=cols.power, tags=cols.tags)
    key = "offsets" if garble in ("reversed", "decreasing") else garble
    flat[key] = {"reversed": o[::-1],
                 "decreasing": np.r_[0, o[-1] + 1, o[2:]],
                 "power": cols.power[:-1],
                 "tags": cols.tags + ("extra",)}[garble]
    with pytest.raises(ValueError, match="offsets|one entry per node"):
        NodeColumns.from_flat(**flat)


# ----------------------------------------------------------- pool parity
def _drive(pool: NodePool):
    """A deterministic acquire/release/probe workload transcript."""
    transcript = []
    held = []
    for step in range(80):
        t = float(step)
        transcript.append(("ready", pool.has_ready(t)))
        got = pool.acquire(t)
        if got is not None:
            node, end = got
            transcript.append(("acq", node.node_id, node.power,
                               node.tag, end))
            held.append((node, end))
        else:
            transcript.append(("dry",))
        if held and step % 3 == 0:
            node, end = held.pop(0)
            if end <= t:
                pool.preempted(node, t)
            else:
                pool.release(node, t)
        transcript.append(("idle", pool.idle_count(t)))
        transcript.append(("next", pool.next_future_start(t)))
    transcript.append(("size", pool.size))
    return transcript


@pytest.mark.parametrize("seed", range(4))
def test_columnar_pool_replays_object_pool_exactly(seed):
    raw = _fleet_raw(100 + seed, n=40)
    obj_pool = NodePool(_nodes_of(raw),
                        rng=np.random.default_rng([seed, 7]))
    col_pool = NodePool(from_raw(raw).fresh(),
                        rng=np.random.default_rng([seed, 7]))
    assert _drive(obj_pool) == _drive(col_pool)


def test_columnar_pool_handles_pre_zero_intervals():
    """Intervals ending at/before t=0 are skipped by the filing, with
    no cursor advance; behaviour still matches the object pool."""
    raw = _fleet_raw(200, n=10)
    raw[4] = (np.array([-5.0, 2.0]), np.array([-1.0, 6.0]), 2.0, "warp")
    raw[7] = (np.array([-3.0]), np.array([-2.0]), 1.0, "gone")
    obj_pool = NodePool(_nodes_of(raw), rng=np.random.default_rng(5))
    col_pool = NodePool(from_raw(raw).fresh(),
                        rng=np.random.default_rng(5))
    assert _drive(obj_pool) == _drive(col_pool)


def test_acquired_view_identity_is_stable():
    """The pool hands out ONE ColumnNode per id (cursor aliasing would
    corrupt scans if two views existed for one node)."""
    raw = [(np.array([0.0]), np.array([1e9]), 1.0, "a")]
    pool = NodePool(from_raw(raw).fresh(),
                    rng=np.random.default_rng(0))
    node, _end = pool.acquire(0.0)
    pool.release(node, 1.0)
    again, _end = pool.acquire(2.0)
    assert again is node


def test_cloud_nodes_coexist_with_columnar_members():
    """Dynamically added cloud workers stay Node objects; the weighted
    cloud-vs-regular pick still works over columnar members."""
    raw = [(np.array([0.0]), np.array([1e9]), 1.0, f"h{i}")
           for i in range(3)]
    pool = NodePool(from_raw(raw).fresh(),
                    rng=np.random.default_rng(1),
                    cloud_poll_weight=10.0)
    cloud = Node.stable(10_000, 5.0)
    pool.add(cloud, at=0.0)
    got = {pool.acquire(0.0)[0].node_id for _ in range(4)}
    assert got == {0, 1, 2, 10_000}
    assert pool.acquire(0.0) is None
    assert cloud in pool
    pool.remove(cloud)
    assert cloud not in pool


# ------------------------------------------- epoch vs overflow-heap merge
#: per-node interval lists on a coarse 10 s grid, so epoch entries and
#: refiled overflow-heap entries keep falling due at the same instant
_grid_fleet = st.lists(
    st.lists(st.integers(0, 20), min_size=2, max_size=6, unique=True)
    .map(sorted).map(lambda pts: [(10.0 * pts[i], 10.0 * pts[i + 1])
                                  for i in range(0, len(pts) - 1, 2)]),
    min_size=1, max_size=12)


@settings(max_examples=150, deadline=None)
@given(fleet=_grid_fleet, seed=st.integers(0, 2 ** 16), data=st.data())
def test_epoch_merge_replays_the_all_heap_pool(fleet, seed, data):
    """A columnar pool (t=0 filing in sorted epoch arrays, later
    refiles in overflow heaps) against an object pool (every filing in
    the heaps): promotion and stale sweeps must process due entries in
    the same ``(key, id)`` order when both stores fall due at once —
    including equal keys, which a removed and re-added node leaves in
    both stores (its epoch entry and its fresh heap entry), and which
    a node released inside its filing interval leaves in both stale
    stores."""
    raw = [(np.array([s for s, _ in ivs]), np.array([e for _, e in ivs]),
            1000.0, "grid") for ivs in fleet]
    nodes = _nodes_of(raw)
    obj = NodePool(nodes, rng=np.random.default_rng(seed))
    col = NodePool(from_raw(raw).fresh(),
                   rng=np.random.default_rng(seed))
    held = {id(obj): [], id(col): []}
    t = 0.0
    for _ in range(data.draw(st.integers(1, 25), label="steps")):
        t += data.draw(st.sampled_from([0.0, 5.0, 10.0]), label="dt")
        op = data.draw(st.sampled_from(
            ["acquire", "acquire_many", "return", "readd", "has_ready",
             "idle_count", "next_future_start"]), label="op")
        k = data.draw(st.integers(1, 4), label="k")
        nid = data.draw(st.integers(0, len(fleet) - 1), label="nid")
        out = []
        for pool in (obj, col):
            mine = held[id(pool)]
            if op == "acquire":
                got = pool.acquire(t)
                got = [] if got is None else [got]
            elif op == "acquire_many":
                got = pool.acquire_many(t, k)
            else:
                got = []
            mine.extend(got)
            if op == "return" and mine:
                node, end = mine.pop(0)
                if end <= t:
                    pool.preempted(node, t)
                else:
                    pool.release(node, t)
            elif op == "readd" and all(n.node_id != nid for n, _ in mine):
                node = (nodes[nid] if pool is obj
                        else ColumnNode(col._columns, nid))
                pool.remove(node)
                pool.add(node, at=t)
            probe = (getattr(pool, op)(t) if op in (
                "has_ready", "idle_count", "next_future_start") else None)
            out.append(([(n.node_id, end) for n, end in got], probe,
                         sorted(pool._ready_end_of), pool.size))
        assert out[0] == out[1]
        assert (obj._rng.bit_generator.state
                == col._rng.bit_generator.state)


# ---------------------------------------------------------- pool filing
def test_pool_from_filing_replays_fresh_filing_exactly():
    """A pool applying a cached t=0 filing must be indistinguishable
    from a freshly filed one and from the object pool — same draw-list
    order, same stores — so the RNG draw sequence (and every
    fixed-seed golden) is unchanged when the harness caches the
    filing.  The degenerate realization (intervals ending at/before
    t=0) files through the same pure function."""
    degenerate = _fleet_raw(200, n=10)
    degenerate[4] = (np.array([-5.0, 2.0]), np.array([0.0, 6.0]), 2.0, "w")
    degenerate[7] = (np.array([-3.0]), np.array([-2.0]), 1.0, "gone")
    for raw in (_fleet_raw(300, n=40), degenerate):
        template = from_raw(raw)
        filing = NodePool.file(template)
        assert np.array_equal(template.cursor, template.offsets[:-1])
        fresh = NodePool(template.fresh(),
                         rng=np.random.default_rng([9, 1]))
        restored = NodePool.from_filing(template.fresh(), filing,
                                        rng=np.random.default_rng([9, 1]))
        obj = NodePool(_nodes_of(raw), rng=np.random.default_rng([9, 1]))
        assert _drive(fresh) == _drive(restored) == _drive(obj)


def test_build_dci_restores_the_cached_filing():
    """The second assembly of one realization is an ASSEMBLY_CACHE hit
    whose pool, restored from the captured filing, draws exactly like
    the first build's and like a freshly filed pool."""
    from repro.experiments.harness import (
        ASSEMBLY_CACHE,
        TRACE_CACHE,
        ScenarioHarness,
    )

    horizon = 2 * 86400.0 + 1.0  # a realization no other test assembles
    pools = []
    for expect_hit in (False, True):
        hits, misses = ASSEMBLY_CACHE.hits, ASSEMBLY_CACHE.misses
        harness = ScenarioHarness(horizon=horizon)
        pools.append(harness.build_dci("d", trace="nd", middleware="xwhep",
                                       seed=3, cap=25).pool)
        assert (ASSEMBLY_CACHE.hits - hits,
                ASSEMBLY_CACHE.misses - misses) == \
            ((1, 0) if expect_hit else (0, 1))
    fresh = NodePool(TRACE_CACHE.columns_template("nd", 3, 25,
                                                  horizon).fresh(),
                     rng=np.random.default_rng([3, 0xB00]))
    assert _drive(pools[0]) == _drive(pools[1]) == _drive(fresh)
