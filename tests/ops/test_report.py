"""The per-job performance page renderer."""

import pytest

from repro.ops.report import (
    PAGING_RATIO_THRESHOLD,
    job_critical_path,
    render_performance_report,
)
from repro.telemetry.service import TelemetryService


@pytest.fixture(scope="module")
def table(tiny_dataset):
    service = TelemetryService.replay(tiny_dataset.collector, tiny_dataset.accounting.records)
    return service.rollups


class TestRender:
    def test_sections_present(self, table, tiny_dataset):
        rollup = table.finished[0]
        text = render_performance_report(rollup, table, campaign="camp")
        for section in (
            "performance report",
            "app        :",
            "placement  :",
            "timeline   :",
            "throughput :",
            "rank       :",
            "kernel time:",
            "attribution:",
        ):
            assert section in text, section

    def test_untraced_campaign_notes_missing_attribution(self, table):
        text = render_performance_report(table.finished[0], table)
        assert "untraced campaign" in text

    def test_traced_attribution_renders_chain(self, table, tiny_dataset):
        rollup = table.finished[0]
        path = job_critical_path(tiny_dataset.tracer.spans, rollup.job_id)
        assert path is not None
        text = render_performance_report(rollup, table, path=path)
        assert "critical   :" in text and "dominant   :" in text
        assert "untraced" not in text

    def test_member_shown_for_fleet_jobs(self, table):
        text = render_performance_report(
            table.finished[0], table, campaign="fed", member="west"
        )
        assert "fed (member west)" in text

    def test_rank_counts_every_finished_job(self, table):
        text = render_performance_report(table.finished[0], table)
        assert f"of {len(table.finished)} finished jobs" in text

    def test_paging_verdict_tracks_threshold(self, table):
        rollup = table.finished[0]
        text = render_performance_report(rollup, table)
        if rollup.system_user_fxu_ratio > PAGING_RATIO_THRESHOLD:
            assert "PAGING SUSPECT" in text
        else:
            assert "healthy" in text

    def test_missing_job_path_is_none(self, tiny_dataset):
        assert job_critical_path(tiny_dataset.tracer.spans, 10**9) is None
