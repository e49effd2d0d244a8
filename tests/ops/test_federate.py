"""Fleet metric federation: naming, alignment, sum vs weighted mean."""

import numpy as np
import pytest

from repro.ops.federate import (
    SUM_METRICS,
    federate_series,
    federated_names,
    member_metric,
    parse_fleet_metric,
    rollup_metric,
)
from repro.telemetry.store import DEFAULT_CAPACITY, MetricSeries


def snap(name, times, values, capacity=DEFAULT_CAPACITY):
    series = MetricSeries(name, capacity=capacity)
    for t, v in zip(times, values):
        series.append(float(t), float(v))
    return series.snapshot()


class TestNames:
    def test_member_and_rollup_names(self):
        assert member_metric("west", "gflops.system") == "fleet.west.gflops.system"
        assert rollup_metric("gflops.system") == "fleet.gflops.system"

    def test_parse_member_name(self):
        members = ("west", "east")
        assert parse_fleet_metric("fleet.west.tlb.miss_rate", members) == (
            "west",
            "tlb.miss_rate",
        )

    def test_parse_rollup_name(self):
        assert parse_fleet_metric("fleet.tlb.miss_rate", ("west", "east")) == (
            None,
            "tlb.miss_rate",
        )

    def test_parse_rejects_bare_names(self):
        assert parse_fleet_metric("gflops.system", ("west",)) is None

    def test_metric_shadowing_member_prefix_resolves_to_member(self):
        # "fleet.west.x" with a member literally named "west" must pick
        # the member, not a metric called "west.x".
        assert parse_fleet_metric("fleet.west.x", ("west",)) == ("west", "x")

    def test_federated_names_complete_and_sorted(self):
        names = federated_names(("b", "a"), ["m2", "m1"])
        assert names == sorted(names)
        assert "fleet.m1" in names and "fleet.a.m2" in names
        assert len(names) == 2 + 2 * 2


class TestFederateSeries:
    def test_capacity_metric_sums(self):
        merged = federate_series(
            "gflops.system",
            {
                "west": snap("gflops.system", [0, 900], [1.0, 2.0]),
                "east": snap("gflops.system", [0, 900], [10.0, 20.0]),
            },
            {"west": 32, "east": 64},
        )
        assert merged.name == "fleet.gflops.system"
        assert np.array_equal(merged.values, [11.0, 22.0])

    def test_per_node_metric_weighted_mean(self):
        merged = federate_series(
            "tlb.miss_rate",
            {
                "west": snap("tlb.miss_rate", [0], [1.0]),
                "east": snap("tlb.miss_rate", [0], [4.0]),
            },
            {"west": 32, "east": 96},
        )
        # (1*32 + 4*96) / 128 = 3.25
        assert merged.values[0] == pytest.approx(3.25)

    def test_misaligned_timestamps_use_reporting_members(self):
        merged = federate_series(
            "tlb.miss_rate",
            {
                "west": snap("tlb.miss_rate", [0, 900], [2.0, 6.0]),
                "east": snap("tlb.miss_rate", [900, 1800], [10.0, 12.0]),
            },
            {"west": 10, "east": 30},
        )
        assert np.array_equal(merged.times, [0, 900, 1800])
        # t=0: west only; t=900: both (weighted); t=1800: east only.
        assert merged.values[0] == pytest.approx(2.0)
        assert merged.values[1] == pytest.approx((6.0 * 10 + 10.0 * 30) / 40)
        assert merged.values[2] == pytest.approx(12.0)

    def test_dropped_counts_aligned_times_before_the_window(self):
        merged = federate_series(
            "tlb.miss_rate",
            {
                "west": snap("tlb.miss_rate", [0, 900, 1800], [1.0] * 3, capacity=1),
                "east": snap("tlb.miss_rate", [900, 1800, 2700], [1.0] * 3, capacity=2),
            },
            {"west": 1, "east": 1},
        )
        # Every aligned time counts; the window starts at the oldest
        # point a member still serves (1800).
        assert merged.count == 4
        assert np.array_equal(merged.times, [1800, 2700])
        assert merged.dropped == merged.count - merged.size == 2

    def test_empty_members_yield_empty_rollup(self):
        merged = federate_series("x", {"west": None}, {})
        assert merged.count == 0 and merged.size == 0

    def test_quantiles_exact_over_merge(self):
        values = list(range(1, 101))
        merged = federate_series(
            "gflops.system",
            {"only": snap("gflops.system", list(range(100)), values)},
            {"only": 1},
        )
        assert merged.quantiles[0.5] == pytest.approx(np.percentile(values, 50))

    def test_sum_metrics_cover_capacity_series(self):
        assert "gflops.system" in SUM_METRICS
        assert "nodes.reporting" in SUM_METRICS
        assert "tlb.miss_rate" not in SUM_METRICS
