"""Per-job RS2HPM report files.

§3: the PBS prologue/epilogue scripts "obtain counter values at the
beginning and end of each job for these nodes.  These values are written
to a file for later processing and viewing by both users and system
personnel."  This module is that file format: a plain-text render of one
job's per-node counter deltas plus the headline derived rates, and a
parser so stored reports round-trip.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from repro.hpm.derived import workload_rates
from repro.pbs.job import JobRecord
from repro.power2.counters import FLAT_INDEX, FLAT_NAMES, ROW_SIZE

_HEADER = "# RS2HPM job report v1"
#: A node section lists its counters alphabetically.
_SORTED_NAMES = sorted(FLAT_NAMES)


def render_job_report(record: JobRecord) -> str:
    """Render one finished job as the epilogue report text."""
    lines = [
        _HEADER,
        f"job_id: {record.job_id}",
        f"user: {record.user}",
        f"app: {record.app_name}",
        f"nodes_requested: {record.nodes_requested}",
        f"node_ids: {','.join(str(n) for n in record.node_ids)}",
        f"submit_time: {record.submit_time:.3f}",
        f"start_time: {record.start_time:.3f}",
        f"end_time: {record.end_time:.3f}",
    ]
    wall = record.walltime_seconds
    if wall > 0 and record.node_ids:
        rates = workload_rates(record.summed_row, wall, len(record.node_ids))
        lines.append(f"mflops_per_node: {rates.mflops_total:.4f}")
        lines.append(f"system_user_fxu_ratio: {rates.system_user_fxu_ratio:.4f}")
    for nid, row in sorted(zip(record.node_ids, record.deltas.tolist())):
        lines.append(f"[node {nid}]")
        for name in _SORTED_NAMES:
            lines.append(f"{name} = {row[FLAT_INDEX[name]]}")
    return "\n".join(lines) + "\n"


def parse_job_report(text: str) -> JobRecord:
    """Parse a report back into a :class:`JobRecord`.

    Derived-rate lines are ignored (they are recomputed from the
    counters, never trusted from the file).  A report whose node
    sections disagree with its ``node_ids`` line, repeat a node, name an
    unknown counter or carry a negative count is rejected.
    """
    lines = [ln.rstrip() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0] != _HEADER:
        raise ValueError("not an RS2HPM job report")
    meta: dict[str, str] = {}
    sections: dict[int, np.ndarray] = {}
    current: np.ndarray | None = None
    for ln in lines[1:]:
        if ln.startswith("[node "):
            nid = int(ln[len("[node ") : -1])
            if nid in sections:
                raise ValueError(f"duplicate section for node {nid}")
            current = sections[nid] = np.zeros(ROW_SIZE, dtype=np.int64)
        elif current is not None:
            name, _, value = ln.partition(" = ")
            if not value:
                raise ValueError(f"malformed counter line: {ln!r}")
            name = name.strip()
            if name not in FLAT_INDEX:
                raise ValueError(f"unknown counter {name!r} for node {nid}")
            count = int(value)
            if count < 0:
                raise ValueError(f"negative count {name} = {count} for node {nid}")
            current[FLAT_INDEX[name]] = count
        else:
            key, _, value = ln.partition(": ")
            if not value:
                raise ValueError(f"malformed header line: {ln!r}")
            meta[key.strip()] = value.strip()

    required = {
        "job_id",
        "user",
        "app",
        "nodes_requested",
        "node_ids",
        "submit_time",
        "start_time",
        "end_time",
    }
    missing = required - set(meta)
    if missing:
        raise ValueError(f"report missing fields: {sorted(missing)}")
    node_ids = tuple(int(x) for x in meta["node_ids"].split(",") if x)
    if len(set(node_ids)) != len(node_ids):
        raise ValueError(f"node_ids repeats a node: {meta['node_ids']}")
    strays = sorted(set(sections) - set(node_ids))
    if strays:
        raise ValueError(f"sections for nodes {strays} not in node_ids")
    absent = [nid for nid in node_ids if nid not in sections]
    if absent:
        raise ValueError(f"no counter section for nodes {absent}")

    return JobRecord(
        job_id=int(meta["job_id"]),
        user=int(meta["user"]),
        app_name=meta["app"],
        nodes_requested=int(meta["nodes_requested"]),
        node_ids=node_ids,
        submit_time=float(meta["submit_time"]),
        start_time=float(meta["start_time"]),
        end_time=float(meta["end_time"]),
        deltas=np.array([sections[nid] for nid in node_ids]).reshape(-1, ROW_SIZE),
    )


def summarize_deltas(deltas: Mapping[str, float], seconds: float, n_nodes: int) -> str:
    """One-paragraph human summary of a counter block (used by the CLI)."""
    r = workload_rates(deltas, seconds, n_nodes)
    return (
        f"{r.mflops_total:.1f} Mflops/node over {seconds:.0f}s on {n_nodes} nodes "
        f"({r.gflops_system():.2f} Gflops system); "
        f"Mips {r.mips_total:.1f}, fma fraction {r.fma_flop_fraction:.0%}, "
        f"flops/memref {r.flops_per_memory_inst:.2f}, "
        f"sys/user FXU {r.system_user_fxu_ratio:.2f}"
    )
