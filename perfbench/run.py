#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload paper_serial --seed 0 --seconds 15 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` alternates untraced and traced operations and prints the
per-layer metrics, writing the spans to ``.bench_out/trace-<workload>.json``
(Chrome trace-event JSON, viewable in Perfetto).  Times are reference
seconds (see ``refclock.py``).  Progress goes to stderr; the last line
of stdout is the result.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from refclock import RefClock  # noqa: E402

#: Fresh-process set-ups per run; ``setup_s`` is their median.
SETUP_PROBES = 3
#: Upper bound on operations per run (short workloads).
MAX_OPS = 60


def load_benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_references() -> dict:
    return json.loads((HERE / "fingerprints.json").read_text())


def import_program():
    """Import the program from the checkout's ``src``; exit 2 without it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def rss_mb(who: int) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


class Run:
    """Operations of one workload at one seed, with their checks."""

    def __init__(self, workloads, workload, seed: int, clock: RefClock) -> None:
        self.module = workloads
        self.workload = workload
        self.seed = seed
        self.clock = clock
        refs = load_references()["seeds"].get(workload.name, {})
        self.reference = refs.get(str(seed))
        self.first = None
        self.attempted = 0
        self.failed = 0

    def operation(self, tracer=None):
        """One set-up and execution; returns (wall, execute wall, outcome),
        the outcome ``None`` when the operation failed."""
        clock = self.clock
        start = clock.now()
        executed = start
        outcome = None
        try:
            if tracer is None:
                state = self.workload.setup()
                executed = clock.now()
                outcome = self.workload.execute(state, clock)
            else:
                with tracer.span("bench", "bench.op", f"{self.workload.name} op"):
                    outcome = self.workload.execute(self.workload.setup(), clock)
        except self.module.CheckFailed as exc:
            print(f"perfbench: check failed: {exc}", file=sys.stderr)
            self.failed += exc.failed
        except Exception:
            traceback.print_exc()
            self.failed += self.workload.operations
        end = clock.now()
        self.attempted += self.workload.operations
        if outcome is not None:
            self._check(outcome.fingerprint)
        # The set-up state holds the campaign's collector; drop it before
        # the next operation allocates its own.
        state = None
        gc.collect()
        return end - start, end - executed, outcome

    def _check(self, fingerprint) -> None:
        if self.first is None:
            self.first = fingerprint
            if self.reference is not None:
                bad = self.module.mismatches(self.reference, fingerprint)
                if bad:
                    print(f"perfbench: {bad} fingerprint(s) differ from the "
                          f"reference at seed {self.seed}", file=sys.stderr)
                self.failed += bad
        else:
            bad = self.module.mismatches(self.first, fingerprint)
            if bad:
                print(f"perfbench: {bad} fingerprint(s) differ between operations",
                      file=sys.stderr)
            self.failed += bad


def repeat(seconds: float, body, *, minimum: int = 1) -> None:
    """Call ``body(i)`` until another call would overrun ``seconds``."""
    start = time.perf_counter()
    i = 0
    while i < MAX_OPS:
        t = time.perf_counter()
        body(i)
        i += 1
        now = time.perf_counter()
        if i >= minimum and (now - start) + (now - t) > seconds:
            break


def setup_probe(workload: str, seed: int) -> float:
    """Reference seconds from a fresh interpreter's start to set-up done."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        check=True,
        capture_output=True,
        text=True,
        timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def warm(values: list[float]) -> list[float]:
    """Drop the first operation when there are others: it fills the
    program's caches and grows the heap, a fresh-process cost that the
    set-up probes measure instead."""
    return values[1:] if len(values) > 1 else values


def plain_metrics(run: Run, args) -> dict[str, float]:
    executes: list[float] = []
    rates: list[float] = []
    memory: dict[str, float] = {}

    def body(i: int) -> None:
        _, execute, outcome = run.operation()
        executes.append(execute)
        rates.append(outcome.work / outcome.sim_s if outcome is not None else 0.0)
        if i == 0:
            # Memory of one operation: later ones fork their workers
            # from a parent that has already held a campaign.
            peak = rss_mb(resource.RUSAGE_SELF)
            memory["peak_rss_mb"] = peak
            memory["worker_peak_rss_mb"] = (
                rss_mb(resource.RUSAGE_CHILDREN) if run.workload.uses_workers else peak
            )

    repeat(args.seconds, body)
    setup = statistics.median(
        setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)
    )
    return {
        "setup_s": setup,
        "wall_s": setup + statistics.median(warm(executes)),
        "work_per_s": statistics.median(warm(rates)),
        **memory,
    }


def traced_metrics(run: Run, args) -> dict[str, float]:
    from layers import Tracer

    tracer = Tracer(run.clock)
    plain: list[float] = []
    traced: list[float] = []
    per_op: list[dict[str, float]] = []

    def body(i: int) -> None:
        if i % 2 == 0:
            plain.append(run.operation()[0])
            return
        tracer.reset()
        tracer.op = len(traced)
        tracer.install()
        try:
            wall, _, _ = run.operation(tracer)
        finally:
            tracer.uninstall()
        leftover = tracer.leftover_wrappers()
        if leftover:
            raise RuntimeError(f"wrappers left installed: {leftover}")
        traced.append(wall)
        per_op.append(tracer.op_metrics())

    repeat(args.seconds, body, minimum=2)
    out = {k: statistics.median(m[k] for m in per_op) for k in per_op[0]}
    out["traced_wall_s"] = statistics.median(traced)
    out["tracing_overhead_frac"] = (
        out["traced_wall_s"] / statistics.median(warm(plain)) - 1.0
    )
    path = ROOT / ".bench_out" / f"trace-{args.workload}.json"
    tracer.write_chrome(path)
    print(f"perfbench: {len(tracer.spans)} spans written to {path}", file=sys.stderr)
    return out


def result_line(run: Run, values: dict[str, float], declared: list[dict]) -> str:
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        missing = sorted(set(names) - set(values))
        extra = sorted(set(values) - set(names))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: missing {missing}, "
                           f"undeclared {extra}")
    return json.dumps(
        {
            "correct": run.failed == 0,
            "attempted": run.attempted,
            "failed": run.failed,
            "metrics": {
                m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                for m in declared
            },
        }
    )


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: time one set-up and print it")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    clock = RefClock().start()
    lead = time.perf_counter() - _PROCESS_START
    try:
        workloads = import_program()
        if args.workload not in workloads.WORKLOADS:
            print(f"perfbench: unknown workload {args.workload!r}; choose from "
                  f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
            return 2
        workload = workloads.WORKLOADS[args.workload](args.seed)
        if args.setup_probe:
            workload.setup()
            print(lead + clock.now())
            return 0
        benchmark = load_benchmark()
        run = Run(workloads, workload, args.seed, clock)
        if args.trace:
            values = traced_metrics(run, args)
            declared = benchmark["per_layer"]
        else:
            values = plain_metrics(run, args)
            declared = benchmark["end_to_end"]
        line = result_line(run, values, declared)
    finally:
        clock.stop()
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
