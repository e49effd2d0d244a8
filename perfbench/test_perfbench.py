"""Self-tests of the benchmark.  Run from the repository root with

    python -m pytest perfbench -q

The campaign workloads are shrunk to a few simulated days here, so the
tests exercise every layer's wrappers in seconds.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from record_fingerprints import HostClock  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.fixture
def small(monkeypatch):
    """Shrink the campaign workloads to a few simulated days."""
    monkeypatch.setattr(workloads, "PAPER_DAYS", 8)
    monkeypatch.setattr(workloads, "SHARD_DAYS", 4)
    monkeypatch.setattr(workloads, "SWEEP_DAYS", 1)
    monkeypatch.setattr(workloads, "SWEEP_SEEDS_PER_SEED", 1)


def operate(name: str, seed: int, tracer=None):
    workload = workloads.WORKLOADS[name](seed)
    r = run.Run(workloads, workload, seed, HostClock)
    r.reference = None  # the shrunk inputs have no recorded fingerprint
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        wall, _, outcome = r.operation(tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    assert r.failed == 0 and outcome is not None
    return wall, outcome


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_fingerprints_match(small, name):
    _, plain = operate(name, 1)
    tracer = layers.Tracer(HostClock)
    wall, traced = operate(name, 1, tracer)
    assert traced.fingerprint == plain.fingerprint
    metrics = tracer.op_metrics()
    own = sum(metrics[f"{layer}.self_s"] for layer in layers.LAYERS)
    assert 0 < own <= wall
    assert own + metrics["bench.self_s"] == pytest.approx(wall, rel=0.05)


def test_every_wrapper_is_removed(small):
    import repro.core.study as study
    import repro.telemetry.service as service

    originals = (study.WorkloadStudy.run, service.TelemetryService.__dict__["replay"])
    tracer = layers.Tracer(HostClock)
    tracer.install()
    assert len(tracer.leftover_wrappers()) >= len(layers.ENTRY_POINTS)
    tracer.uninstall()
    assert tracer.leftover_wrappers() == []
    assert (study.WorkloadStudy.run, service.TelemetryService.__dict__["replay"]) == originals


def test_each_layer_reports_on_its_workload(small):
    where = {
        "paper_serial": ("workload", "core", "sim", "pbs", "power2", "hpm",
                         "telemetry", "analysis"),
        "paper_sharded": ("parallel", "telemetry"),
        "whatif_sweep": ("faults", "stats", "sweep"),
        "memsim_streams": ("power2",),
    }
    for name, active in where.items():
        tracer = layers.Tracer(HostClock)
        operate(name, 1, tracer)
        metrics = tracer.op_metrics()
        for layer in active:
            assert metrics[f"{layer}.self_s"] > 0, (name, layer)


def test_metric_names_match_the_contract():
    pattern = re.compile(r"[A-Za-z0-9_.-]+")
    e2e, per_layer = BENCHMARK["end_to_end"], BENCHMARK["per_layer"]
    names = [m["name"] for m in e2e + per_layer]
    assert all(pattern.fullmatch(n) and len(n) <= 64 for n in names)
    assert len(names) == len(set(names))
    assert len(e2e) <= 16 and len(per_layer) <= 128
    tracer = layers.Tracer(HostClock)
    produced = set(tracer.op_metrics()) | {"traced_wall_s", "tracing_overhead_frac"}
    assert produced == {m["name"] for m in per_layer}


def test_seed_changes_the_generated_inputs(small):
    def inputs(name, seed):
        state = workloads.WORKLOADS[name](seed).setup()
        if name == "paper_serial":
            state = state[0]
        if name in ("paper_serial", "paper_sharded"):
            return [(s.time, s.app_name, s.nodes) for s in state.submissions]
        if name == "whatif_sweep":
            return [c.config for c in state.cells]
        return {k: v.tolist() for k, v in state[0].items()}

    for name in workloads.WORKLOADS:
        assert inputs(name, 0) == inputs(name, 0)
        assert inputs(name, 0) != inputs(name, 1)


def test_reference_fingerprints_cover_held_out_seed():
    refs = run.load_references()
    held_out = str(refs["held_out_seed"])
    for name in workloads.WORKLOADS:
        assert {"0", held_out} <= set(refs["seeds"][name])


def test_run_prints_declared_metrics():
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        out = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "memsim_streams",
             "--seed", "0", "--seconds", "1", "--trace", str(trace)],
            cwd=ROOT, capture_output=True, text=True, timeout=180, check=True,
        )
        result = json.loads(out.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in BENCHMARK[key]}


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "paper_serial", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert out.stdout == ""
