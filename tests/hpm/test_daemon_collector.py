"""Node daemons and the 15-minute system-wide collector."""

import numpy as np
import pytest

from repro.hpm.collector import SAMPLE_INTERVAL_SECONDS, SystemCollector
from repro.hpm.daemon import DaemonUnavailable, NodeDaemon
from repro.power2.counters import rates_vector
from repro.power2.node import Node
from repro.sim.engine import Simulator


def make_nodes(n=4, rate=1e6):
    nodes = [Node(i) for i in range(n)]
    for node in nodes:
        node.install_rates(
            0.0, rates_vector({"fpu0_fp_add": rate, "cycles": 3e7}), busy=True
        )
    return nodes


class TestDaemon:
    def test_serves_snapshots(self):
        d = NodeDaemon.for_node(make_nodes(1)[0])
        r = d.request_snapshot(10.0)
        assert r.values["user.fpu0_fp_add"] == pytest.approx(1e7, rel=1e-9)

    def test_down_daemon_raises(self):
        d = NodeDaemon.for_node(Node(0))
        d.mark_down()
        with pytest.raises(DaemonUnavailable):
            d.request_snapshot(1.0)
        with pytest.raises(DaemonUnavailable):
            d.request_vector(1.0)
        d.mark_up()
        d.request_snapshot(1.0)

    def test_vector_matches_dict_snapshot(self):
        node = make_nodes(1)[0]
        d = NodeDaemon.for_node(node)
        vec = d.request_vector(5.0)
        snap = d.request_snapshot(5.0).values
        assert vec[0] == snap["user.fxu0"]


class TestCollector:
    def test_paper_cadence(self):
        assert SAMPLE_INTERVAL_SECONDS == 900.0

    def test_attach_takes_baseline_and_samples(self):
        sim = Simulator()
        daemons = [NodeDaemon.for_node(n) for n in make_nodes()]
        col = SystemCollector(daemons)
        col.attach(sim)
        sim.run(until=3 * 900.0)
        assert len(col.samples) == 4  # baseline + 3

    def test_interval_totals_sum_nodes(self):
        daemons = [NodeDaemon.for_node(n) for n in make_nodes(n=3, rate=2e6)]
        col = SystemCollector(daemons)
        col.collect(0.0)
        col.collect(100.0)
        ivs = col.intervals()
        assert len(ivs) == 1
        assert ivs[0].totals["user.fpu0_fp_add"] == pytest.approx(3 * 2e8, rel=1e-6)
        assert ivs[0].n_nodes == 3
        assert ivs[0].seconds == 100.0

    def test_missing_node_skipped_for_interval(self):
        daemons = [NodeDaemon.for_node(n) for n in make_nodes(n=2)]
        col = SystemCollector(daemons)
        col.collect(0.0)
        daemons[1].mark_down()
        col.collect(100.0)
        assert col.samples[1].missing == (1,)
        ivs = col.intervals()
        assert ivs[0].n_nodes == 1

    def test_node_recovery_rejoins(self):
        daemons = [NodeDaemon.for_node(n) for n in make_nodes(n=2)]
        col = SystemCollector(daemons)
        col.collect(0.0)
        daemons[1].mark_down()
        col.collect(100.0)
        daemons[1].mark_up()
        col.collect(200.0)
        assert col.intervals()[1].n_nodes == 1  # down in 'before' sample

    def test_interval_matrix(self):
        daemons = [NodeDaemon.for_node(n) for n in make_nodes(n=2, rate=1e6)]
        col = SystemCollector(daemons)
        for t in (0.0, 50.0, 100.0):
            col.collect(t)
        times, counts = col.interval_matrix("user.fpu0_fp_add")
        np.testing.assert_allclose(times, [50.0, 100.0])
        np.testing.assert_allclose(counts, [1e8, 1e8], rtol=1e-6)
        with pytest.raises(KeyError, match="user.bogus"):
            col.interval_matrix("user.bogus")

    def test_snapshot_for_compatibility_view(self):
        daemons = [NodeDaemon.for_node(n) for n in make_nodes(n=2)]
        col = SystemCollector(daemons)
        s = col.collect(10.0)
        snap = s.snapshot_for(1)
        assert snap["user.fpu0_fp_add"] == pytest.approx(1e7, rel=1e-9)

    def test_needs_daemons(self):
        with pytest.raises(ValueError):
            SystemCollector([])

    def test_intervals_cache_invalidation(self):
        daemons = [NodeDaemon.for_node(n) for n in make_nodes(n=1)]
        col = SystemCollector(daemons)
        col.collect(0.0)
        col.collect(10.0)
        assert len(col.intervals()) == 1
        col.collect(20.0)
        assert len(col.intervals()) == 2


class TestSampleSeries:
    def test_backwards_counter_names_node_counter_and_times(self):
        import re

        from repro.hpm.collector import SampleSeries, SystemSample
        from repro.power2.counters import FLAT_NAMES

        before = np.zeros((2, len(FLAT_NAMES)), dtype=np.int64)
        before[1, 3] = 10
        after = before.copy()
        after[1, 3] = 4
        series = SampleSeries()
        series.append(SystemSample(time=900.0, node_ids=(5, 6), matrix=before))
        with pytest.raises(
            ValueError,
            match=rf"software counter {re.escape(FLAT_NAMES[3])} on node 6 went backwards "
            r"between samples at t=900 and t=1800",
        ):
            series.append(SystemSample(time=1800.0, node_ids=(5, 6), matrix=after))
