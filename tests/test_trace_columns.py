"""Columnar trace realization equals the per-node reference exactly.

The generators emit flat ``(starts, ends, offsets, power, tags)``
columns without building one ``Node`` per host; ``oracles/traces.py``
keeps the historical per-node path (``Node``-list renewal generator,
per-node ``gate_windows`` + ``intersect``, ``from_raw`` flattening).
Both must agree array for array, byte for byte, and leave the
generator RNG in the same state — every stored realization, drift
golden and benchmark digest depends on it.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infra.catalog import TRACE_NAMES, get_trace_spec
from repro.infra.quantile import PiecewiseLogQuantile
from repro.infra.renewal import RenewalTraceGenerator
from oracles.traces import materialize_nodes, nodes_to_columns, renewal_nodes

DAY = 86400.0


def _assert_same(flat, cols):
    for name in ("starts", "ends", "offsets", "power"):
        got, want = getattr(flat, name), getattr(cols, name)
        assert got.dtype == want.dtype, name
        assert got.tobytes() == want.tobytes(), name
    assert tuple(flat.tags) == cols.tags


def _realize_both(spec, rng_label, horizon, cap):
    rng, ref_rng = (np.random.default_rng(rng_label) for _ in range(2))
    flat = spec.materialize(rng, horizon, cap)
    cols = nodes_to_columns(materialize_nodes(spec, ref_rng, horizon, cap))
    _assert_same(flat, cols)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    return flat


@given(trace=st.sampled_from(TRACE_NAMES),
       seed=st.integers(0, 2**32 - 1),
       stream=st.lists(st.integers(0, 7), max_size=2),
       cap=st.one_of(st.just(1), st.integers(2, 60), st.none()),
       horizon=st.sampled_from([600.0, DAY, 3 * DAY]))
@settings(max_examples=60, deadline=None)
def test_columnar_realization_equals_per_node_oracle(trace, seed, stream,
                                                     cap, horizon):
    spec = get_trace_spec(trace)
    if cap is None and trace == "seti":
        cap = 400   # seti's natural 86 631 hosts: see the test below
    _realize_both(spec, [seed, *stream, 0xACE], horizon, cap)


@pytest.mark.slow
def test_natural_size_seti_equals_oracle():
    """Full-size seti (86 631 hosts), gated, at a horizon short enough
    that every row is covered by the bulk draw."""
    spec = get_trace_spec("seti")
    flat = _realize_both(spec, [5, 0xACE], 600.0, None)
    assert flat.n == spec.natural_node_count()


@pytest.fixture
def walks(monkeypatch):
    """Horizons of every scalar-walk call (columnar and oracle alike)."""
    seen = []
    walk = RenewalTraceGenerator._node_schedule

    def counted(self, rng, horizon):
        seen.append(horizon)
        return walk(self, rng, horizon)

    monkeypatch.setattr(RenewalTraceGenerator, "_node_schedule", counted)
    return seen


@pytest.mark.parametrize("trace,horizon", [("seti", 3 * DAY),
                                           ("g5klyo", DAY),
                                           ("g5kgre", 3 * DAY)])
def test_realizations_with_scalar_walk_rows_equal_oracle(trace, horizon,
                                                         walks):
    """At 1-3 days a few percent of the rows fall back to the scalar
    walk; the columnar path must interleave them in node order."""
    _realize_both(get_trace_spec(trace), [3, 0xACE], horizon, 2000)
    # each side walked the same rows, and there were some
    assert 0 < len(walks) < 2000 and len(walks) % 2 == 0


def test_every_row_on_the_scalar_walk_equals_oracle(monkeypatch, walks):
    """A cycle mean far above the real one shrinks the bulk draw to
    its 4-cycle minimum, so at a 60-day horizon no row is covered and
    every row takes the scalar walk (the walk's own draw sizes come
    from the same mean on both sides)."""
    gen = get_trace_spec("nd")._renewal()
    for dist in (gen.avail_dist, gen.unavail_dist):
        monkeypatch.setattr(dist, "mean", lambda: 1e9)
    rng, ref_rng = (np.random.default_rng([8, 0xACE]) for _ in range(2))
    flat = gen.generate(rng, 25, 60 * DAY, tag="nd")
    assert len(walks) == 25
    cols = nodes_to_columns(renewal_nodes(gen, ref_rng, 25, 60 * DAY,
                                          tag="nd"))
    _assert_same(flat, cols)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_edgi_shared_stream_equals_oracle():
    """EDGI realizes nd, then g5klyo, from one shared generator."""
    rng, ref_rng = (np.random.default_rng([5, 0xED61]) for _ in range(2))
    horizon = 7 * DAY
    for trace, cap in (("nd", 180), ("g5klyo", 200)):
        spec = get_trace_spec(trace)
        flat = spec.materialize(rng, horizon, cap)
        cols = nodes_to_columns(materialize_nodes(spec, ref_rng, horizon,
                                                  cap))
        _assert_same(flat, cols)
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def test_quantile_mean_is_memoized():
    q = PiecewiseLogQuantile((61, 531, 5407), tail_factor=40)
    assert q.mean() is q.mean()
