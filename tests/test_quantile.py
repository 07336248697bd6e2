"""Piecewise log-linear quantile sampler: exactness and properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.infra.quantile import PiecewiseLogQuantile


def test_quartiles_exact_by_construction():
    q = PiecewiseLogQuantile((10, 100, 1000))
    assert q.ppf(np.array([0.25]))[0] == pytest.approx(10, rel=1e-6)
    assert q.ppf(np.array([0.5]))[0] == pytest.approx(100, rel=1e-6)
    assert q.ppf(np.array([0.75]))[0] == pytest.approx(1000, rel=1e-6)


def test_ppf_monotone():
    q = PiecewiseLogQuantile((61, 531, 5407), tail_factor=40)
    u = np.linspace(0, 1, 501)
    v = q.ppf(u)
    assert np.all(np.diff(v) >= 0)


def test_tail_factor_controls_maximum():
    q = PiecewiseLogQuantile((10, 100, 1000), tail_factor=7)
    assert q.ppf(np.array([1.0]))[0] == pytest.approx(7000, rel=1e-6)


def test_floor_factor_controls_minimum():
    q = PiecewiseLogQuantile((10, 100, 1000), floor_factor=0.5)
    assert q.ppf(np.array([0.0]))[0] == pytest.approx(5.0, rel=1e-6)


def test_floor_clamped_to_one_second():
    q = PiecewiseLogQuantile((2, 4, 8), floor_factor=0.25)
    assert q.q_min == 1.0


def test_sample_statistics_match_quartiles():
    q = PiecewiseLogQuantile((21, 51, 63), tail_factor=600)
    rng = np.random.default_rng(1)
    s = q.sample(rng, 40000)
    got = np.percentile(s, [25, 50, 75])
    assert got[0] == pytest.approx(21, rel=0.08)
    assert got[1] == pytest.approx(51, rel=0.08)
    assert got[2] == pytest.approx(63, rel=0.08)


def test_sample_bounds():
    q = PiecewiseLogQuantile((10, 100, 1000), tail_factor=40)
    rng = np.random.default_rng(2)
    s = q.sample(rng, 10000)
    assert s.min() >= q.q_min - 1e-9
    assert s.max() <= q.q_max + 1e-9


def test_mean_between_min_and_max():
    q = PiecewiseLogQuantile((10, 100, 1000))
    assert q.q_min < q.mean() < q.q_max


def test_mean_increases_with_tail_factor():
    base = PiecewiseLogQuantile((10, 100, 1000), tail_factor=5).mean()
    heavy = PiecewiseLogQuantile((10, 100, 1000), tail_factor=500).mean()
    assert heavy > base


@pytest.mark.parametrize("tail", [float("nan"), float("inf")])
def test_non_finite_tail_factor_rejected(tail):
    with pytest.raises(ValueError, match="tail_factor"):
        PiecewiseLogQuantile((10, 100, 1000), tail_factor=tail)


def test_invalid_quartiles_rejected():
    with pytest.raises(ValueError):
        PiecewiseLogQuantile((100, 10, 1000))
    with pytest.raises(ValueError):
        PiecewiseLogQuantile((0, 10, 100))
    with pytest.raises(ValueError):
        PiecewiseLogQuantile((10, 100, 1000), tail_factor=0.5)
    with pytest.raises(ValueError):
        PiecewiseLogQuantile((10, 100, 1000), floor_factor=0.0)


def test_ppf_rejects_out_of_range():
    q = PiecewiseLogQuantile((10, 100, 1000))
    with pytest.raises(ValueError):
        q.ppf(np.array([-0.1]))
    with pytest.raises(ValueError):
        q.ppf(np.array([1.1]))


def test_negative_sample_size_rejected():
    q = PiecewiseLogQuantile((10, 100, 1000))
    with pytest.raises(ValueError):
        q.sample(np.random.default_rng(0), -1)


def test_equal_quartiles_degenerate_ok():
    q = PiecewiseLogQuantile((5, 5, 5))
    s = q.sample(np.random.default_rng(3), 100)
    assert np.all(s > 0)


@settings(max_examples=30, deadline=None)
@given(q1=st.floats(1.0, 1e3), r2=st.floats(1.0, 50.0),
       r3=st.floats(1.0, 50.0),
       tail=st.floats(1.0, 1000.0))
def test_property_samples_positive_and_bounded(q1, r2, r3, tail):
    """Any valid quartile triple yields positive, bounded samples."""
    quartiles = (q1, q1 * r2, q1 * r2 * r3)
    q = PiecewiseLogQuantile(quartiles, tail_factor=tail)
    s = q.sample(np.random.default_rng(0), 256)
    assert np.all(s > 0)
    assert np.all(s <= q.q_max + 1e-6)


@settings(max_examples=30, deadline=None)
@given(u=st.lists(st.floats(0.0, 1.0), min_size=2, max_size=64))
def test_property_ppf_monotone_in_u(u):
    q = PiecewiseLogQuantile((61, 531, 5407))
    u_sorted = np.sort(np.asarray(u))
    v = q.ppf(u_sorted)
    assert np.all(np.diff(v) >= -1e-12)
