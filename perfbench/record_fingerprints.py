#!/usr/bin/env python3
"""Record the reference fingerprints the benchmark checks outputs against.

Runs one operation per workload and seed and writes
``perfbench/fingerprints.json``.  Seeds 0-11 cover the seeds the
benchmark is usually run at; ``HELD_OUT_SEED`` is recorded too but is
never used while tuning the benchmark.  Rerun this only for a change
that is meant to alter the program's outputs, and say so in the change.

    python3 perfbench/record_fingerprints.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402

HELD_OUT_SEED = 1998
SEEDS = [*range(12), HELD_OUT_SEED]


class HostClock:
    @staticmethod
    def now() -> float:
        return time.perf_counter()


def main() -> int:
    workloads = run.import_program()
    path = HERE / "fingerprints.json"
    doc = {"held_out_seed": HELD_OUT_SEED, "seeds": {}}
    for name in workloads.WORKLOADS:
        recorded = doc["seeds"][name] = {}
        for seed in SEEDS:
            workload = workloads.WORKLOADS[name](seed)
            outcome = workload.execute(workload.setup(), HostClock)
            recorded[str(seed)] = outcome.fingerprint
            print(f"{name} seed {seed}: recorded", file=sys.stderr)
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
