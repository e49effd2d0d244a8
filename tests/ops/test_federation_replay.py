"""Satellite determinism contract: for a two-member fleet campaign, the
online service state must equal ``replay()`` state — per member AND for
the federated ``fleet.*`` namespace.

Live path: ``ingest_fleet`` taps each member's bus as it runs (serial
member path).  Replay path: an *independent* ``run_fleet`` of the same
spec, streamed through ``replay_fleet_into_hub`` — the canonical
``replay_events`` ordering.  Both hubs must agree on everything the
query API serves from samples and records.
"""

import asyncio

import numpy as np
import pytest

from repro.fleet.runner import run_fleet
from repro.ops import SUM_METRICS, CampaignHub, ingest_fleet, member_metric, rollup_metric
from repro.ops.ingest import replay_fleet_into_hub

#: Series that replay reproduces exactly (jobs.active is documented to
#: undercount in replay: only finished jobs leave accounting records).
DETERMINISTIC_SERIES = (
    "gflops.system",
    "fxu.sys_user_ratio",
    "tlb.miss_rate",
    "dcache.miss_rate",
    "nodes.reporting",
)


@pytest.fixture(scope="module")
def live_hub(tiny_fleet_spec):
    hub = CampaignHub()
    asyncio.run(ingest_fleet(hub, "fed", tiny_fleet_spec))
    return hub


@pytest.fixture(scope="module")
def fleet(tiny_fleet_spec):
    return run_fleet(tiny_fleet_spec)


@pytest.fixture(scope="module")
def replay_hub(tiny_fleet_spec, fleet):
    hub = CampaignHub()
    hub.register(
        "fed",
        kind="fleet",
        members=tuple(m.name for m in tiny_fleet_spec.members),
        node_weights={m.name: m.n_nodes for m in tiny_fleet_spec.members},
    )
    replay_fleet_into_hub(hub, "fed", fleet)
    hub.complete("fed")
    return hub


def _assert_snapshots_equal(a, b, label):
    assert np.array_equal(a.times, b.times), label
    assert np.array_equal(a.values, b.values), label
    assert a.count == b.count and a.dropped == b.dropped, label
    assert a.summary() == b.summary(), label


class TestPerMember:
    def test_member_series_equal(self, live_hub, replay_hub, tiny_fleet_spec):
        for member in tiny_fleet_spec.members:
            for metric in DETERMINISTIC_SERIES:
                name = f"fleet.{member.name}.{metric}"
                _assert_snapshots_equal(
                    live_hub.series_snapshot("fed", name),
                    replay_hub.series_snapshot("fed", name),
                    name,
                )

    def test_member_alerts_equal(self, live_hub, replay_hub):
        live, _ = live_hub.alerts_since("fed", 0)
        rep, _ = replay_hub.alerts_since("fed", 0)
        # Same alerts per member; global interleaving may differ (live
        # members run serially, replay streams member by member too, so
        # here even the order matches).
        assert live == rep

    def test_member_rollups_equal(self, live_hub, replay_hub, tiny_fleet_spec):
        for member in tiny_fleet_spec.members:
            live = [
                r.job_id for _, r in live_hub.job_rollups("fed", member=member.name)
            ]
            rep = [
                r.job_id for _, r in replay_hub.job_rollups("fed", member=member.name)
            ]
            assert live == rep and live, member.name


class TestFederated:
    def test_rollup_series_equal(self, live_hub, replay_hub):
        for metric in DETERMINISTIC_SERIES:
            name = f"fleet.{metric}"
            _assert_snapshots_equal(
                live_hub.series_snapshot("fed", name),
                replay_hub.series_snapshot("fed", name),
                name,
            )

    def test_metric_namespaces_equal(self, live_hub, replay_hub):
        assert live_hub.metric_names("fed") == replay_hub.metric_names("fed")

    def test_federated_sum_is_member_sum(self, live_hub, tiny_fleet_spec):
        """At every timestamp the capacity rollup equals the sum of the
        members that reported there."""
        rollup = live_hub.series_snapshot("fed", "fleet.gflops.system")
        members = [
            live_hub.series_snapshot("fed", f"fleet.{m.name}.gflops.system")
            for m in tiny_fleet_spec.members
        ]
        expected = np.zeros(len(rollup.times))
        for snap in members:
            idx = np.searchsorted(rollup.times, snap.times)
            expected[idx] += snap.values
        assert np.allclose(rollup.values, expected, rtol=0, atol=1e-12)
        assert rollup.values.max() > 0

    def test_job_reports_equal(self, live_hub, replay_hub):
        rollups = live_hub.job_rollups("fed")
        job_id = rollups[0][1].job_id
        assert live_hub.job_report("fed", job_id) == replay_hub.job_report(
            "fed", job_id
        )


class TestCappedRollup:
    """A capped hub serves short windows, but fleet rollups still
    aggregate every aligned time of the campaign."""

    @pytest.fixture(scope="class")
    def capped_hub(self, tiny_fleet_spec, fleet):
        hub = CampaignHub(store_capacity=8)
        hub.register(
            "fed",
            kind="fleet",
            members=tuple(m.name for m in tiny_fleet_spec.members),
            node_weights={m.name: m.n_nodes for m in tiny_fleet_spec.members},
        )
        replay_fleet_into_hub(hub, "fed", fleet)
        return hub

    @pytest.mark.parametrize("metric", sorted(SUM_METRICS))
    def test_rollup_covers_every_member_sample(self, capped_hub, fleet, metric):
        sample_times = set()
        for result in fleet.members:
            t = result.dataset.collector.interval_table()
            sample_times.update(t.end[(t.seconds > 0) & (t.n_nodes > 0)].tolist())
        rollup = capped_hub.series_snapshot("fed", rollup_metric(metric))
        assert rollup.count == len(sample_times)
        assert rollup.dropped == rollup.count - rollup.size
        assert rollup.dropped > 0
        for result in fleet.members:
            member = capped_hub.series_snapshot(
                "fed", member_metric(result.spec.name, metric)
            )
            assert member.size <= 8
            assert rollup.max >= member.max
