"""PHPM parallel job reports."""

import numpy as np
import pytest

from repro.hpm.phpm import ParallelJobReport
from repro.pbs.job import JobRecord
from repro.power2.counters import ROW_SIZE, flat_row


def record(per_node_flops, sys_ratios=None, wall=1000.0):
    """Synthetic job record with specified per-node flop counts."""
    n = len(per_node_flops)
    sys_ratios = sys_ratios or [0.02] * n
    deltas = np.zeros((n, ROW_SIZE), dtype=np.int64)
    for nid, (flops, ratio) in enumerate(zip(per_node_flops, sys_ratios)):
        user_fxu = 2.0 * flops
        deltas[nid] = flat_row(
            {
                "user.fpu0_fp_add": int(flops),
                "user.fxu0": int(user_fxu / 2),
                "user.fxu1": int(user_fxu / 2),
                "system.fxu0": int(ratio * user_fxu),
            }
        )
    return JobRecord(
        job_id=9,
        user=1,
        app_name="cfd",
        nodes_requested=n,
        node_ids=tuple(range(n)),
        submit_time=0.0,
        start_time=0.0,
        end_time=wall,
        deltas=deltas,
    )


class TestReductions:
    def test_reduce_sums_and_bounds(self):
        rep = ParallelJobReport(record([1e9, 2e9, 3e9]))
        red = rep.reduce("user.fpu0_fp_add")
        assert red.total == pytest.approx(6e9)
        assert red.minimum == pytest.approx(1e9)
        assert red.maximum == pytest.approx(3e9)
        assert red.mean == pytest.approx(2e9)
        assert red.imbalance == pytest.approx(1.5)

    def test_missing_counter_reduces_to_zero(self):
        rep = ParallelJobReport(record([1e9]))
        red = rep.reduce("user.tlb_mis")
        assert red.total == 0.0
        assert red.imbalance == 1.0

    def test_unknown_counter_rejected(self):
        rep = ParallelJobReport(record([1e9]))
        with pytest.raises(KeyError, match="user.bogus"):
            rep.reduce("user.bogus")

    def test_reductions_batch(self):
        rep = ParallelJobReport(record([1e9, 1e9]))
        out = rep.reductions(["user.fxu0", "user.fxu1"])
        assert set(out) == {"user.fxu0", "user.fxu1"}

    def test_empty_record_rejected(self):
        rec = record([])
        with pytest.raises(ValueError):
            ParallelJobReport(rec)


class TestBalance:
    def test_balanced_job(self):
        rep = ParallelJobReport(record([1e9] * 8))
        assert rep.flop_imbalance() == pytest.approx(1.0)
        assert rep.stragglers() == []

    def test_straggler_detected_worst_first(self):
        rep = ParallelJobReport(record([1e9, 1e9, 1e9, 1e8]))
        stragglers = rep.stragglers()
        assert len(stragglers) == 1
        assert stragglers[0].node_id == 3

    def test_paging_straggler_diagnosed(self):
        """§6: the slow node's system-mode counters give paging away."""
        rep = ParallelJobReport(
            record([1e9, 1e9, 5e7], sys_ratios=[0.02, 0.02, 4.0])
        )
        worst = rep.stragglers()[0]
        assert worst.node_id == 2
        assert worst.paging_suspect

    def test_healthy_straggler_not_paging_suspect(self):
        rep = ParallelJobReport(record([1e9, 1e9, 5e7]))
        worst = rep.stragglers()[0]
        assert not worst.paging_suspect

    def test_flop_shares_sum_to_one(self):
        rep = ParallelJobReport(record([3e9, 1e9, 4e9]))
        shares = [d.flop_share for d in rep.diagnose_nodes()]
        assert sum(shares) == pytest.approx(1.0)

    def test_diagnoses_sorted_by_flops(self):
        rep = ParallelJobReport(record([3e9, 1e9, 4e9]))
        flops = [d.flops for d in rep.diagnose_nodes()]
        assert flops == sorted(flops)


class TestSummary:
    def test_summary_mentions_imbalance_and_stragglers(self):
        rep = ParallelJobReport(
            record([1e9, 1e9, 1e7], sys_ratios=[0.02, 0.02, 3.0])
        )
        text = rep.summary()
        assert "imbalance" in text
        assert "paging" in text

    def test_summary_balanced(self):
        text = ParallelJobReport(record([1e9, 1e9])).summary()
        assert "stragglers" not in text
