"""MPCDF-style per-job performance pages.

The RS2HPM epilogue file (:mod:`repro.hpm.jobreport`) is a raw counter
dump "for later processing"; the MPCDF HPC monitoring system turned the
same node-level samples into a *rendered* page per job — utilization
against peak, memory behaviour, where the wall time went.  This module
is that page for the reproduction: one finished job's frozen rollup,
placed against the campaign's distribution, with critical-path
attribution when the campaign ran traced.

Everything is derived from data the streaming layer already holds (the
rollup table and, optionally, recorded job spans), so the ops service
can serve report pulls without touching the raw dataset.
"""

from __future__ import annotations

from repro.hpm.derived import DerivedRates, workload_rates
from repro.power2.config import POWER2_590
from repro.telemetry.rollup import JobRollup, RollupTable
from repro.tracing.critical_path import JobCriticalPath, analyze_jobs
from repro.tracing.span import PHASE_KINDS
from repro.workload.traces import SECONDS_PER_DAY

#: The §6 paging signature threshold on the system/user FXU ratio.
PAGING_RATIO_THRESHOLD = 0.5


def _fmt_time(t: float) -> str:
    day, rem = divmod(t, SECONDS_PER_DAY)
    hh, mm = divmod(int(rem) // 60, 60)
    return f"d{int(day):03d} {hh:02d}:{mm:02d}"


def job_critical_path(spans, job_id: int) -> JobCriticalPath | None:
    """The recorded attribution for one job, if its spans were kept."""
    for path in analyze_jobs(spans):
        if path.job_id == job_id:
            return path
    return None


def _rank_line(rollup: JobRollup, table: RollupTable) -> str:
    """Where this job sits in the campaign's finished-job distribution."""
    totals = sorted((r.total_mflops for r in table.finished), reverse=True)
    rank = 1 + sum(1 for v in totals if v > rollup.total_mflops)
    n = len(totals)
    pct = 100.0 * (n - rank) / n if n > 1 else 100.0
    return f"#{rank} of {n} finished jobs by total Mflops (p{pct:.0f})"


def render_performance_report(
    rollup: JobRollup,
    table: RollupTable,
    *,
    campaign: str = "",
    member: str | None = None,
    path: JobCriticalPath | None = None,
    peak_mflops: float = POWER2_590.peak_mflops,
) -> str:
    """One job's performance page as operator text."""
    rec = rollup.record
    n_nodes = max(len(rec.node_ids), 1)
    wall = rec.walltime_seconds
    rates: DerivedRates | None = None
    if wall > 0 and rec.node_ids:
        rates = workload_rates(rec.summed_row, wall, n_nodes)

    where = f"{campaign} (member {member})" if member else campaign
    lines = [
        f"=== job {rec.job_id} performance report "
        f"{'— ' + where if where else ''}".rstrip() + " ===",
        f"app        : {rec.app_name}   user {rec.user}",
        f"placement  : {rec.nodes_requested} nodes requested, "
        f"{len(rec.node_ids)} allocated",
        f"timeline   : submitted {_fmt_time(rec.submit_time)}, "
        f"queued {rec.queue_wait_seconds:.0f}s, "
        f"ran {_fmt_time(rec.start_time)} -> {_fmt_time(rec.end_time)} "
        f"({wall:.0f}s wall, {rollup.node_seconds:.0f} node-seconds)",
        f"throughput : {rollup.total_mflops:.1f} Mflops total · "
        f"{rollup.mflops_per_node:.2f} Mflops/node · "
        f"{100.0 * rollup.mflops_per_node / peak_mflops:.1f}% of node peak "
        f"({peak_mflops:.0f})",
        f"rank       : {_rank_line(rollup, table)}",
    ]
    if rates is not None:
        lines.append(
            f"memory     : flops/mem-inst {rates.flops_per_memory_inst:.3f} · "
            f"fma flop fraction {rates.fma_flop_fraction:.1%} · "
            f"tlb {rates.tlb_miss_rate:.3f} M/s · "
            f"dcache {rates.dcache_miss_rate:.3f} M/s"
        )
        lines.append(
            f"traffic    : dma {rates.dma_bytes_per_s / 1e6:.2f} MB/s per node · "
            f"fpu balance {rates.fpu_ratio:.2f}"
        )
    ratio = rollup.system_user_fxu_ratio
    suspect = ratio > PAGING_RATIO_THRESHOLD
    lines.append(
        f"kernel time: sys/usr FXU ratio {ratio:.3f} "
        + (
            f"-> PAGING SUSPECT (>{PAGING_RATIO_THRESHOLD} is the §6 signature)"
            if suspect
            else "(healthy)"
        )
    )
    if path is not None and path.wall_seconds > 0:
        parts = " · ".join(
            f"{kind} {path.fraction(kind):.1%}"
            for kind in PHASE_KINDS
            if path.breakdown.get(kind, 0.0) > 0
        )
        lines.append(f"attribution: {parts}")
        chain = " -> ".join(f"{name} ({sec:.0f}s)" for name, sec in path.chain)
        lines.append(f"critical   : {chain}")
        lines.append(f"dominant   : {path.dominant}")
    else:
        lines.append(
            "attribution: (untraced campaign — serve/report with --trace "
            "records per-phase spans)"
        )
    return "\n".join(lines)
