"""Outside-in tracing: time the public entry points of each layer.

The traced run patches the functions and methods listed in
:data:`ENTRY_POINTS` inside the benchmark process, records one span per
call on a stack, and restores every original afterwards.  A span's self
time is its duration minus the time its child spans cover, so the
``<layer>.self_s`` values partition the traced operation's wall time
(together with ``bench.self_s``, the benchmark's own code).

Known blind spots, left to in-program tracing:

* work reached only through private handlers, such as the PBS
  ``_end_job`` epilogue run from a simulator event, counts as
  ``sim.self_s``;
* time spent inside shard worker processes shows only as
  ``parallel.execute_s``: the wrappers are inherited by forked workers
  but pass straight through there, so their spans are never recorded.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import pickle
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

#: Layers, in the order the per-layer metrics list them.
LAYERS = (
    "workload",
    "core",
    "sim",
    "pbs",
    "power2",
    "hpm",
    "telemetry",
    "analysis",
    "parallel",
    "faults",
    "stats",
    "sweep",
)


@dataclass(frozen=True)
class EntryPoint:
    """One public function or method timed as a span of ``layer``.

    ``key`` groups entry points into one metric (``analysis.tables``
    covers all four table builders); ``on_return`` sees the call's
    arguments and result and adds counts to the tracer.
    """

    layer: str
    key: str
    module: str
    qualname: str
    on_return: Callable[["Tracer", tuple, Any], None] | None = None


def _count_submissions(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["workload.submissions"] += len(result.submissions)


def _observe_dataset(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.observe_dataset(result)


def _observe_shards(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["parallel.shards"] += len(result)
    counter = _ByteCounter()
    pickle.dump(result, counter)
    tracer.counts["parallel.result_bytes"] += counter.n


def _observe_sweep(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["sweep.cells"] += len(result.results)
    tracer.counts["sweep.reused"] += result.reused


def _observe_dcache(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["power2.dcache_accesses"] += len(args[1])
    tracer.counts["power2.dcache_misses"] += result.misses


def _observe_tlb(tracer: "Tracer", args: tuple, result: Any) -> None:
    tracer.counts["power2.tlb_accesses"] += len(args[1])
    tracer.counts["power2.tlb_misses"] += result.misses


class _ByteCounter:
    """A write-only file that only counts, so sizing a pickle of shard
    results does not hold a second copy of them in memory."""

    def __init__(self) -> None:
        self.n = 0

    def write(self, data) -> int:
        self.n += len(data)
        return len(data)


_STREAMS = "repro.power2.streams"
_ANALYSIS_TABLES = (
    ("repro.analysis.tables", "table1"),
    ("repro.analysis.tables", "table2"),
    ("repro.analysis.tables", "table3"),
    ("repro.analysis.tables", "table4"),
    ("repro.analysis.report", "headline_report"),
    ("repro.analysis.report", "paper_comparison"),
)

ENTRY_POINTS: tuple[EntryPoint, ...] = (
    EntryPoint("workload", "workload.trace", "repro.workload.traces", "generate_trace",
               _count_submissions),
    EntryPoint("workload", "workload.trace", "repro.workload.traces", "generate_shard_trace",
               _count_submissions),
    EntryPoint("core", "core.build", "repro.core.study", "WorkloadStudy.__init__"),
    EntryPoint("core", "core.run", "repro.core.study", "WorkloadStudy.run", _observe_dataset),
    EntryPoint("sim", "sim.run", "repro.sim.engine", "Simulator.run"),
    EntryPoint("sim", "sim.step", "repro.sim.engine", "Simulator.step"),
    EntryPoint("pbs", "pbs.submit", "repro.pbs.scheduler", "PBSServer.submit"),
    EntryPoint("pbs", "pbs.schedule_pass", "repro.pbs.scheduler", "PBSServer.schedule_pass"),
    EntryPoint("pbs", "pbs.kill", "repro.pbs.scheduler", "PBSServer.kill_jobs_on_node"),
    EntryPoint("pbs", "pbs.summed_deltas", "repro.pbs.job", "JobRecord.summed_deltas"),
    EntryPoint("power2", "power2.accrual", "repro.power2.batch", "CounterStore.sync_slots"),
    EntryPoint("power2", "power2.accrual", "repro.power2.batch", "CounterStore.sync_one"),
    EntryPoint("power2", "power2.accrual", "repro.power2.batch", "CounterStore.install"),
    EntryPoint("power2", "power2.dcache", "repro.power2.dcache", "SetAssociativeCache.run",
               _observe_dcache),
    EntryPoint("power2", "power2.tlb", "repro.power2.tlb", "TLB.run", _observe_tlb),
    *(
        EntryPoint("power2", "power2.streams", _STREAMS, name)
        for name in (
            "sequential_stream",
            "strided_stream",
            "blocked_stream",
            "multiblock_stream",
            "random_stream",
        )
    ),
    EntryPoint("hpm", "hpm.collect", "repro.hpm.collector", "SystemCollector.collect"),
    EntryPoint("hpm", "hpm.intervals", "repro.hpm.collector", "SampleSeries.intervals"),
    EntryPoint("telemetry", "telemetry.publish", "repro.telemetry.bus", "EventBus.publish"),
    EntryPoint("telemetry", "telemetry.replay", "repro.telemetry.service",
               "TelemetryService.replay"),
    *(EntryPoint("analysis", "analysis.tables", m, n) for m, n in _ANALYSIS_TABLES),
    *(
        EntryPoint("analysis", "analysis.figures", "repro.analysis.figures", f"figure{i}")
        for i in range(1, 6)
    ),
    EntryPoint("analysis", "analysis.export", "repro.analysis.export", "dataset_summary"),
    EntryPoint("analysis", "analysis.export", "repro.analysis.export", "dataset_to_json"),
    EntryPoint("parallel", "parallel.run", "repro.parallel.runner", "run_parallel_study",
               _observe_dataset),
    EntryPoint("parallel", "parallel.execute", "repro.parallel.runner", "execute_shards",
               _observe_shards),
    EntryPoint("parallel", "parallel.merge", "repro.parallel.merge", "merge_shard_results"),
    EntryPoint("faults", "faults.arm", "repro.faults.injector", "FaultInjector.arm"),
    EntryPoint("faults", "faults.finalize", "repro.faults.injector", "FaultInjector.finalize"),
    EntryPoint("stats", "stats.collect_metrics", "repro.stats.metrics", "collect_metrics"),
    EntryPoint("sweep", "sweep.plan", "repro.sweep.planner", "plan_sweep"),
    EntryPoint("sweep", "sweep.run", "repro.sweep.executor", "run_sweep", _observe_sweep),
    EntryPoint("sweep", "sweep.cell", "repro.sweep.executor", "execute_cell"),
)


class Tracer:
    """Span stack, per-layer self time and counts for traced operations.

    ``clock`` is any object with a ``now()`` in seconds.  Spans are kept
    in memory as ``(name, layer, start, duration, depth, op)`` tuples and
    written out once, by :meth:`write_chrome`.
    """

    def __init__(self, clock) -> None:
        self.clock = clock
        self.pid = os.getpid()
        self.spans: list[tuple[str, str, float, float, int, int]] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self.op = 0
        self.reset()

    # ------------------------------------------------------------------
    # Per-operation accumulators
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Start a new operation's accumulators (spans are kept)."""
        self._stack: list[list[float]] = []
        self._active: dict[str, int] = defaultdict(int)
        self.layer_self: dict[str, float] = defaultdict(float)
        self.key_self: dict[str, float] = defaultdict(float)
        self.key_incl: dict[str, float] = defaultdict(float)
        self.key_durations: dict[str, list[float]] = defaultdict(list)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, float] = defaultdict(float)

    def _enter(self, key: str) -> float:
        self._stack.append([0.0])
        self._active[key] += 1
        self.calls[key] += 1
        return self.clock.now()

    def _exit(self, layer: str, key: str, name: str, start: float) -> None:
        duration = self.clock.now() - start
        children = self._stack.pop()[0]
        own = duration - children
        self.layer_self[layer] += own
        self.key_self[key] += own
        if self._stack:
            self._stack[-1][0] += duration
        self._active[key] -= 1
        if self._active[key] == 0:
            self.key_incl[key] += duration
            self.key_durations[key].append(duration)
        self.spans.append((name, layer, start, duration, len(self._stack), self.op))

    def span(self, layer: str, key: str, name: str):
        """Context manager for a span opened by the benchmark itself."""
        return _Span(self, layer, key, name)

    def observe_dataset(self, dataset) -> None:
        """Counts read from a finished campaign's outputs, so they are the
        same whether the campaign ran in-process or in shard workers."""
        counts = self.counts
        counts["sim.events"] += dataset.events_processed
        counts["pbs.jobs"] += len(dataset.accounting)
        samples = dataset.collector.samples
        counts["hpm.passes"] += len(samples)
        retained = sum(s.matrix.nbytes for s in samples)
        counts["hpm.retained_bytes"] = max(counts["hpm.retained_bytes"], retained)
        log = dataset.faults
        if log is not None:
            counts["faults.injected"] += len(log.events)
            counts["pbs.jobs_killed"] += log.jobs_killed
            counts["pbs.jobs_requeued"] += log.jobs_requeued
            counts["hpm.passes_dropped"] += log.passes_dropped

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def _wrap(self, fn: Callable, ep: EntryPoint) -> Callable:
        tracer = self
        layer, key, on_return = ep.layer, ep.key, ep.on_return
        name = ep.qualname

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if os.getpid() != tracer.pid:  # a forked shard worker
                return fn(*args, **kwargs)
            start = tracer._enter(key)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(layer, key, name, start)
            if on_return is not None:
                with tracer.span("bench", "bench.observe", f"observe {name}"):
                    on_return(tracer, args, result)
            return result

        wrapper.__perfbench_wrapped__ = True
        return wrapper

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch every entry point (and every module that re-exports a
        patched function under any name)."""
        if self._patches:
            raise RuntimeError("tracer is already installed")
        for ep in ENTRY_POINTS:
            module = importlib.import_module(ep.module)
            owner_name, _, attr = ep.qualname.rpartition(".")
            if owner_name:
                self._patch_method(getattr(module, owner_name), attr, ep)
            else:
                self._patch_function(getattr(module, attr), ep)

    def _patch_method(self, cls: type, attr: str, ep: EntryPoint) -> None:
        todo = [cls]
        while todo:
            klass = todo.pop()
            todo.extend(klass.__subclasses__())
            raw = klass.__dict__.get(attr)
            if raw is None:
                continue
            if isinstance(raw, classmethod):
                self._set(klass, attr, classmethod(self._wrap(raw.__func__, ep)))
            else:
                self._set(klass, attr, self._wrap(raw, ep))

    def _patch_function(self, fn: Callable, ep: EntryPoint) -> None:
        wrapper = self._wrap(fn, ep)
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self._set(module, attr, wrapper)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @staticmethod
    def leftover_wrappers() -> list[str]:
        """Names of wrappers still installed anywhere in ``repro``."""
        found = []
        for mod_name, module in list(sys.modules.items()):
            if not (mod_name == "repro" or mod_name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                candidates = [(attr, value)]
                if isinstance(value, type) and value.__module__.startswith("repro"):
                    candidates = [
                        (f"{attr}.{a}", getattr(v, "__func__", v))
                        for a, v in vars(value).items()
                    ]
                for name, obj in candidates:
                    if getattr(obj, "__perfbench_wrapped__", False):
                        found.append(f"{mod_name}.{name}")
        return found

    # ------------------------------------------------------------------
    # Results
    # ------------------------------------------------------------------
    def op_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the operation since the last reset."""
        incl = self.key_incl
        calls = self.calls
        counts = self.counts
        sim_run = incl["sim.run"]
        cells = counts["sweep.cells"]
        dcache_n = counts["power2.dcache_accesses"]
        tlb_n = counts["power2.tlb_accesses"]
        out = {f"{layer}.self_s": self.layer_self[layer] for layer in LAYERS}
        out["bench.self_s"] = self.layer_self["bench"]
        out.update(
            {
                "workload.trace_s": incl["workload.trace"],
                "workload.submissions": counts["workload.submissions"],
                "core.build_s": incl["core.build"],
                "sim.events": counts["sim.events"],
                "sim.events_per_s": (
                    counts["sim.events"] / sim_run if sim_run > 0 else 0.0
                ),
                "pbs.jobs": counts["pbs.jobs"],
                "pbs.jobs_killed": counts["pbs.jobs_killed"],
                "pbs.jobs_requeued": counts["pbs.jobs_requeued"],
                "pbs.summed_deltas_calls": calls["pbs.summed_deltas"],
                "pbs.summed_deltas_s": incl["pbs.summed_deltas"],
                "power2.accrual_calls": calls["power2.accrual"],
                "power2.accrual_s": incl["power2.accrual"],
                "power2.dcache_accesses": dcache_n,
                "power2.dcache_s": incl["power2.dcache"],
                "power2.tlb_accesses": tlb_n,
                "power2.tlb_s": incl["power2.tlb"],
                "power2.streams_s": incl["power2.streams"],
                "power2.dcache_miss_ratio": (
                    counts["power2.dcache_misses"] / dcache_n if dcache_n else 0.0
                ),
                "power2.tlb_miss_ratio": (
                    counts["power2.tlb_misses"] / tlb_n if tlb_n else 0.0
                ),
                "hpm.passes": counts["hpm.passes"],
                "hpm.passes_dropped": counts["hpm.passes_dropped"],
                "hpm.collect_s": self.key_self["hpm.collect"],
                "hpm.intervals_s": incl["hpm.intervals"],
                "hpm.retained_mb": counts["hpm.retained_bytes"] / 2**20,
                "telemetry.publish_calls": calls["telemetry.publish"],
                "telemetry.publish_s": incl["telemetry.publish"],
                "telemetry.replay_s": incl["telemetry.replay"],
                "analysis.tables_s": incl["analysis.tables"],
                "analysis.figures_s": incl["analysis.figures"],
                "analysis.export_s": incl["analysis.export"],
                "parallel.shards": counts["parallel.shards"],
                "parallel.execute_s": incl["parallel.execute"],
                # The merge is the only caller of the replay here.
                "parallel.merge_s": incl["parallel.merge"] - incl["telemetry.replay"],
                "parallel.result_mb": counts["parallel.result_bytes"] / 2**20,
                "faults.injected": counts["faults.injected"],
                "faults.arm_s": incl["faults.arm"],
                "stats.collect_metrics_s": incl["stats.collect_metrics"],
                "sweep.cells": cells,
                "sweep.cell_s": (
                    statistics.median(self.key_durations["sweep.cell"])
                    if self.key_durations["sweep.cell"]
                    else 0.0
                ),
                "sweep.cache_hit_frac": counts["sweep.reused"] / cells if cells else 0.0,
            }
        )
        return out

    def write_chrome(self, path: Path) -> None:
        """Write every recorded span as Chrome trace-event JSON (one trace
        process per traced operation), viewable in Perfetto."""
        events = [
            {
                "name": name,
                "cat": layer,
                "ph": "X",
                "ts": round(start * 1e6, 3),
                "dur": round(duration * 1e6, 3),
                "pid": op,
                "tid": 0,
                "args": {"depth": depth},
            }
            for name, layer, start, duration, depth, op in self.spans
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


class _Span:
    def __init__(self, tracer: Tracer, layer: str, key: str, name: str) -> None:
        self.tracer, self.layer, self.key, self.name = tracer, layer, key, name

    def __enter__(self) -> "_Span":
        self.start = self.tracer._enter(self.key)
        return self

    def __exit__(self, *exc) -> None:
        self.tracer._exit(self.layer, self.key, self.name, self.start)
