"""The metric store: served windows, exact whole-series aggregates."""

import numpy as np
import pytest

from repro.telemetry.store import EWMA_ALPHA, MetricSeries, MetricStore


class TestMetricSeries:
    def test_append_and_latest(self):
        s = MetricSeries("m", capacity=16)
        s.append(0.0, 1.0)
        s.append(900.0, 2.0)
        assert s.latest() == (900.0, 2.0)
        assert s.size == 2

    def test_window_bounds_are_half_open(self):
        s = MetricSeries("m", capacity=16)
        for i in range(10):
            s.append(i * 100.0, float(i))
        times, values = s.window(200.0, 500.0)
        assert times.tolist() == [200.0, 300.0, 400.0]
        assert values.tolist() == [2.0, 3.0, 4.0]

    def test_unbounded_window_is_chronological(self):
        s = MetricSeries("m", capacity=4)
        for i in range(11):
            s.append(float(i), float(i * i))
        times, values = s.window()
        assert times.tolist() == [7.0, 8.0, 9.0, 10.0]
        assert np.all(np.diff(times) > 0)
        assert values.tolist() == [49.0, 64.0, 81.0, 100.0]

    def test_ring_eviction_drops_oldest(self):
        s = MetricSeries("m", capacity=8)
        for i in range(20):
            s.append(float(i), float(i))
        assert s.size == 8
        assert s.dropped == 12
        times, _ = s.window()
        assert times[0] == 12.0 and times[-1] == 19.0

    def test_aggregates_survive_eviction(self):
        s = MetricSeries("m", capacity=4)
        for i in range(100):
            s.append(float(i), float(i))
        # The window serves only 96..99, but the aggregates see everything.
        summ = s.summary()
        assert summ.min == 0.0
        assert summ.max == 99.0
        assert summ.count == 100

    def test_quantiles_exact_after_window_wraps(self):
        values = np.random.default_rng(7).lognormal(size=100)
        s = MetricSeries("m", capacity=4)
        for i, v in enumerate(values):
            s.append(float(i), float(v))
        summ = s.summary()
        assert s.size == 4
        for q in (0.5, 0.9, 0.99):
            assert summ.quantiles[q] == np.percentile(values, q * 100)
        assert (summ.min, summ.max) == (values.min(), values.max())

    def test_ewma_matches_recurrence_bit_for_bit(self):
        values = np.random.default_rng(3).normal(size=500)
        s = MetricSeries("m", capacity=8)
        for i, v in enumerate(values):
            s.append(float(i), float(v))
        ewma = 0.0
        for i, v in enumerate(values.tolist()):
            ewma = v if i == 0 else EWMA_ALPHA * v + (1 - EWMA_ALPHA) * ewma
        assert s.summary().ewma == ewma

    def test_ewma_tracks_level_shift(self):
        s = MetricSeries("m", capacity=64)
        for i in range(100):
            s.append(float(i), 1.0)
        assert s.summary().ewma == pytest.approx(1.0)
        for i in range(100, 200):
            s.append(float(i), 5.0)
        assert s.summary().ewma == pytest.approx(5.0, abs=0.01)

    def test_out_of_order_append_rejected(self):
        s = MetricSeries("m")
        s.append(100.0, 1.0)
        with pytest.raises(ValueError):
            s.append(50.0, 2.0)

    def test_summary_fields(self):
        s = MetricSeries("m", capacity=8)
        for i in range(10):
            s.append(float(i), float(i))
        summ = s.summary()
        assert summ.name == "m"
        assert summ.count == 10
        assert summ.dropped == 2
        assert summ.last == 9.0
        assert summ.min == 0.0 and summ.max == 9.0
        assert set(summ.quantiles) == {0.5, 0.9, 0.99}

    def test_bad_capacity_rejected(self):
        with pytest.raises(ValueError):
            MetricSeries("m", capacity=0)


class TestMetricStore:
    def test_lazy_series_creation(self):
        store = MetricStore()
        assert "x" not in store
        store.append("x", 0.0, 1.0)
        assert "x" in store
        assert store.names() == ["x"]

    def test_window_of_unknown_metric_is_empty(self):
        store = MetricStore()
        times, values = store.window("nope")
        assert len(times) == 0 and len(values) == 0

    def test_summary_of_unknown_metric_raises(self):
        with pytest.raises(KeyError):
            MetricStore().summary("nope")

    def test_store_capacity_propagates(self):
        store = MetricStore(capacity=4)
        for i in range(10):
            store.append("x", float(i), float(i))
        assert store.series("x").size == 4
