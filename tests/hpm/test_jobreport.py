"""Per-job report files: render + parse round-trip."""

import numpy as np
import pytest

from repro.hpm.jobreport import parse_job_report, render_job_report, summarize_deltas
from repro.pbs.job import JobRecord
from repro.power2.counters import flat_row


def record() -> JobRecord:
    return JobRecord(
        job_id=42,
        user=7,
        app_name="multiblock_cfd",
        nodes_requested=2,
        node_ids=(3, 5),
        submit_time=10.0,
        start_time=100.0,
        end_time=1100.0,
        deltas=np.array(
            [
                flat_row({"user.fpu0_fp_add": 1000, "user.fxu0": 2000, "system.fxu0": 10}),
                flat_row({"user.fpu0_fp_add": 1500, "user.fxu0": 2500, "system.fxu0": 20}),
            ]
        ),
    )


class TestRender:
    def test_contains_header_and_meta(self):
        text = render_job_report(record())
        assert text.startswith("# RS2HPM job report v1")
        assert "job_id: 42" in text
        assert "app: multiblock_cfd" in text
        assert "[node 3]" in text and "[node 5]" in text

    def test_contains_derived_rates(self):
        text = render_job_report(record())
        assert "mflops_per_node:" in text
        assert "system_user_fxu_ratio:" in text


class TestRoundTrip:
    def test_parse_recovers_record(self):
        r = record()
        parsed = parse_job_report(render_job_report(r))
        assert parsed.job_id == r.job_id
        assert parsed.node_ids == r.node_ids
        assert parsed.counter_deltas == r.counter_deltas
        assert parsed.walltime_seconds == pytest.approx(r.walltime_seconds)

    def test_derived_rates_recomputed_not_trusted(self):
        text = render_job_report(record())
        # Tamper with the derived line; counters win on re-parse.
        tampered = text.replace("mflops_per_node:", "mflops_per_node: 99999 #")
        parsed = parse_job_report(tampered)
        assert parsed.total_mflops < 1.0


class TestParseErrors:
    def test_rejects_non_report(self):
        with pytest.raises(ValueError, match="not an RS2HPM"):
            parse_job_report("hello world")

    def test_rejects_missing_fields(self):
        with pytest.raises(ValueError, match="missing fields"):
            parse_job_report("# RS2HPM job report v1\njob_id: 1")

    def test_rejects_malformed_counter_line(self):
        text = render_job_report(record()) + "user.bad_line\n"
        with pytest.raises(ValueError, match="malformed counter"):
            parse_job_report(text)

    @pytest.mark.parametrize(
        "node_ids, body, match",
        [
            # A section for a node the header does not list.
            ("3", "[node 3]\nuser.fxu0 = 1\n[node 7]\nuser.fxu0 = 1", r"nodes \[7\] not in"),
            # A listed node with no section.
            ("3,5", "[node 3]\nuser.fxu0 = 1", r"no counter section for nodes \[5\]"),
            # The same node twice: the second section must not win.
            ("7", "[node 7]\nuser.fxu0 = 1\n[node 7]\nuser.fxu0 = 4", "duplicate section"),
            ("7", "[node 7]\nuser.bogus = 5", "unknown counter 'user.bogus'"),
            ("7", "[node 7]\nuser.fxu0 = -3", "negative count user.fxu0"),
        ],
        ids=["stray-section", "missing-section", "duplicate", "unknown", "negative"],
    )
    def test_rejects_inconsistent_report(self, node_ids, body, match):
        text = (
            "# RS2HPM job report v1\njob_id: 1\nuser: 0\napp: a\nnodes_requested: 1\n"
            f"node_ids: {node_ids}\nsubmit_time: 0.000\nstart_time: 0.000\n"
            f"end_time: 10.000\n{body}\n"
        )
        with pytest.raises(ValueError, match=match):
            parse_job_report(text)


class TestSummarize:
    def test_summary_mentions_key_rates(self):
        deltas = {
            "user.fpu0_fp_add": 17.4e6,
            "user.fxu0": 13e6,
            "user.fxu1": 14e6,
        }
        line = summarize_deltas(deltas, 1.0, 1)
        assert "Mflops/node" in line
        assert "flops/memref" in line
