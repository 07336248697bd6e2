"""Property tests pinning the vectorized availability hot path
float-for-float against scalar reference walks.

The drift goldens pin end-to-end results; these tests pin the
*internal* equivalences those goldens rely on, so a future edit that
re-associates a float sum or drops a boundary case fails here with a
usable message instead of as an opaque golden diff:

* ``gantt.intersect_gated`` (one node's segmented pass) against the
  historical two-pointer merge;
* ``gantt.gate_matrix`` (every node's arange-form windows at once)
  against the per-step loop;
* ``RenewalTraceGenerator``'s bulk boundary assembly + clipping
  against a scalar per-node walk using the same float association.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infra.catalog import get_trace_spec
from repro.infra.gantt import gate_matrix, intersect_gated
from repro.infra.intervals import FlatTrace
from repro.infra.renewal import RenewalTraceGenerator
from oracles.intervals import intersect_scalar, validate
from oracles.traces import nodes_of


# --------------------------------------------------------------- helpers
def _interval_set(rng, n):
    if n == 0:
        return np.empty(0), np.empty(0)
    bounds = np.cumsum(rng.exponential(1.0, 2 * n))
    return bounds[0::2], bounds[1::2]


def _intersect(s1, e1, s2, e2):
    """One node's intervals gated by one unpadded row of windows."""
    trace = FlatTrace(s1, e1, np.array([0, len(s1)]), np.array([1.0]),
                      ("",))
    out = intersect_gated(trace, s2[None, :], e2[None, :])
    return out.starts, out.ends


# ------------------------------------------------------------- intersect
@given(seed=st.integers(0, 2**32 - 1),
       n1=st.integers(0, 40), n2=st.integers(0, 40))
@settings(max_examples=120, deadline=None)
def test_intersect_matches_two_pointer_reference(seed, n1, n2):
    rng = np.random.default_rng(seed)
    s1, e1 = _interval_set(rng, n1)
    s2, e2 = _interval_set(rng, n2)
    vs, ve = _intersect(s1, e1, s2, e2)
    rs, re_ = intersect_scalar(s1, e1, s2, e2)
    assert vs.tobytes() == rs.tobytes()
    assert ve.tobytes() == re_.tobytes()


def test_intersect_with_touching_boundaries_emits_nothing():
    # adjacent-only overlap (hi == lo) must not produce empty intervals
    s, e = _intersect(np.array([0.0, 10.0]), np.array([5.0, 15.0]),
                      np.array([5.0]), np.array([10.0]))
    assert s.size == 0 and e.size == 0


# ---------------------------------------------------------- gate_windows
def _gate_windows_scalar(threshold, period, phase, horizon,
                         depth=1.0, base=0.5):
    """The historical per-step loop, kept verbatim as the reference."""
    amp = depth / 2.0
    lo, hi = base - amp, base + amp
    if threshold <= lo:
        return np.array([0.0]), np.array([horizon])
    if threshold >= hi:
        return np.empty(0), np.empty(0)
    s = (threshold - base) / amp
    a = math.asin(s)
    w = period / (2.0 * math.pi)
    lo_off = (a * w - phase * w) % period
    width = (math.pi - 2.0 * a) * w
    starts, ends = [], []
    k0 = -1
    t = lo_off + k0 * period
    while t < horizon:
        s0, e0 = t, t + width
        if e0 > 0:
            starts.append(max(0.0, s0))
            ends.append(min(horizon, e0))
        k0 += 1
        t = lo_off + k0 * period
    return np.asarray(starts), np.asarray(ends)


@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 40))
@settings(max_examples=150, deadline=None)
def test_gate_windows_matches_scalar_loop(seed, n):
    rng = np.random.default_rng(seed)
    period = float(rng.uniform(10.0, 2e5))
    phase = float(rng.uniform(0.0, 2.0 * math.pi))
    horizon = float(rng.uniform(50.0, 2e6))
    depth = float(rng.uniform(0.05, 1.0))
    gs, ge = gate_matrix(n, period, phase, horizon, depth=depth)
    for i in range(n):
        real = np.isfinite(gs[i])
        # padding: arcs ending before t=0 lead, empty slots trail
        assert np.all(gs[i][~real] == ge[i][~real])
        assert real.sum() == np.isfinite(ge[i]).sum()
        rs, re_ = _gate_windows_scalar((i + 0.5) / n, period, phase,
                                       horizon, depth=depth)
        assert gs[i][real].tobytes() == rs.tobytes()
        assert ge[i][real].tobytes() == re_.tobytes()


# ------------------------------------------------------- renewal bulk path
def _assemble_scalar(in_avail, first, t0, av_row, un_row):
    """Per-node walk mirroring the bulk path's exact float association:
    ``starts = (t0 + exclA) + exclG`` with sequentially accumulated
    cumulative sums, ``ends = starts + A``."""
    k = av_row.shape[0]
    if in_avail:
        A = np.concatenate(([first], av_row[:k - 1]))
        G = un_row.copy()
        g_shift = 1  # row starts available: G[j] excluded until j >= 1
    else:
        A = av_row.copy()
        G = np.concatenate(([first], un_row[:k - 1]))
        g_shift = 0  # row starts in a gap: G[0] precedes A[0]
    starts = np.empty(k)
    ends = np.empty(k)
    cum_a = 0.0
    cum_g = 0.0
    for j in range(k):
        excl_a = cum_a
        if g_shift:
            g_term = cum_g          # exclusive sum of gaps
        else:
            g_term = cum_g + G[j]   # inclusive sum of gaps
        starts[j] = (t0 + excl_a) + g_term
        ends[j] = starts[j] + A[j]
        cum_a += A[j]
        cum_g += G[j]
    return starts, ends


def _clip_scalar(starts_row, ends_row, horizon):
    """The historical per-row clip (keep → clip → re-check)."""
    keep = (ends_row > 0.0) & (starts_row < horizon)
    s_arr = np.clip(starts_row[keep], 0.0, None)
    e_arr = np.minimum(ends_row[keep], horizon)
    ok = e_arr > s_arr
    return s_arr[ok], e_arr[ok]


@given(seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 12), k=st.integers(2, 24))
@settings(max_examples=80, deadline=None)
def test_bulk_assembly_matches_scalar_walk(seed, n, k):
    rng = np.random.default_rng(seed)
    in_avail = rng.random(n) < 0.5
    first = rng.exponential(100.0, n)
    t0 = -first * rng.random(n)
    av = rng.exponential(300.0, (n, k))
    un = rng.exponential(150.0, (n, k))
    starts, ends = RenewalTraceGenerator._assemble_bulk(
        in_avail, first, t0, av, un)
    for i in range(n):
        rs, re_ = _assemble_scalar(bool(in_avail[i]), float(first[i]),
                                   float(t0[i]), av[i], un[i])
        assert starts[i].tobytes() == rs.tobytes()
        assert ends[i].tobytes() == re_.tobytes()


@given(seed=st.integers(0, 2**32 - 1),
       n=st.integers(1, 10), k=st.integers(2, 20))
@settings(max_examples=80, deadline=None)
def test_vectorized_clip_matches_per_row_reference(seed, n, k):
    rng = np.random.default_rng(seed)
    horizon = float(rng.uniform(100.0, 5000.0))
    starts = rng.uniform(-500.0, horizon * 1.5, (n, k))
    starts.sort(axis=1)
    ends = starts + rng.exponential(200.0, (n, k))
    flat_s, flat_e, offsets = RenewalTraceGenerator._clip_rows(
        starts, ends, horizon)
    for i in range(n):
        rs, re_ = _clip_scalar(starts[i], ends[i], horizon)
        assert flat_s[offsets[i]:offsets[i + 1]].tobytes() == rs.tobytes()
        assert flat_e[offsets[i]:offsets[i + 1]].tobytes() == re_.tobytes()


def test_generate_bulk_and_fallback_agree_on_interval_invariants():
    """End to end: every generated schedule is sorted, disjoint,
    clipped to [0, horizon], whichever path produced it."""
    spec = get_trace_spec("nd")
    rng = np.random.default_rng(11)
    nodes = nodes_of(spec.materialize(rng, horizon=86400.0, max_nodes=60))
    assert nodes
    for node in nodes:
        validate(node.starts, node.ends)
        if node.starts.size:
            assert node.starts[0] >= 0.0
            assert node.ends[-1] <= 86400.0
