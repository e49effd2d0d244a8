"""Sharded parallel campaign execution with a deterministic merge.

The 270-day × 144-node campaign is this reproduction's hot path; this
package splits it into independent day-range shards, runs them across
``multiprocessing`` workers, and merges the outputs — counter series,
job accounting, telemetry rollups, trace spans — into one
:class:`~repro.core.study.StudyDataset`.

The design invariant everything else leans on: **the merged result is a
pure function of the shard plan**, never of the worker count or
scheduling order.  See docs/PARALLEL.md for the shard model, the RNG
spawning scheme, and the boundary semantics.
"""

from repro.parallel.checkpoint import (
    CHECKPOINT_VERSION,
    config_fingerprint,
    load_shard_result,
    save_shard_result,
    sha256_fingerprint,
)
from repro.parallel.merge import (
    JOB_ID_STRIDE,
    SPAN_ID_STRIDE,
    merge_shard_results,
)
from repro.parallel.plan import DEFAULT_SHARD_DAYS, Shard, plan_shards
from repro.parallel.runner import (
    ShardExecutionError,
    execute_shards,
    run_parallel_study,
)
from repro.parallel.worker import (
    ShardResult,
    SimulatedWorkerCrash,
    run_shard,
    shard_trace,
)

__all__ = [
    "CHECKPOINT_VERSION",
    "DEFAULT_SHARD_DAYS",
    "JOB_ID_STRIDE",
    "SPAN_ID_STRIDE",
    "Shard",
    "ShardExecutionError",
    "ShardResult",
    "SimulatedWorkerCrash",
    "config_fingerprint",
    "execute_shards",
    "load_shard_result",
    "merge_shard_results",
    "plan_shards",
    "run_parallel_study",
    "run_shard",
    "save_shard_result",
    "sha256_fingerprint",
    "shard_trace",
]
