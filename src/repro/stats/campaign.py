"""The concrete campaign repeat unit: seed in, metric dict out.

``ConfigRepeatSpec`` is the picklable description of one repeat — a
:class:`StudyConfig` whose seed the repeat layer varies, plus an
optional shard width.  The batch runner fans a batch of seeds across
worker processes (the same pool context policy as
:mod:`repro.parallel.runner`); because each repeat is a pure function of
its seed, the collected samples are identical whatever worker count
executed them.
"""

from __future__ import annotations

import dataclasses
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Callable, Sequence

from repro.core.study import StudyConfig, run_campaign
from repro.parallel.runner import pool_context
from repro.stats.metrics import DEFAULT_TARGET_METRIC, collect_metrics
from repro.stats.repeater import Repeater, RepeatResult
from repro.stats.stopping import StoppingRule


@dataclass(frozen=True)
class ConfigRepeatSpec:
    """One repeat over a resolved :class:`StudyConfig` (seed varied).

    It carries the *whole* frozen config — machine geometry, switch
    fabric, scheduler policy, fault profile — so ``sp2-study repeat`` and
    a sweep cell with overridden TLB entries or memory size get the same
    ``mean ± hw [n, rule]`` treatment.  The spec is picklable (all nested
    configs are frozen dataclasses of plain values), so batches fan
    across the worker pool.
    """

    config: StudyConfig
    #: Shard width for within-campaign sharded execution (None = serial).
    shard_days: int | None = None

    def run_one(self, seed: int) -> dict[str, float]:
        cfg = (
            self.config
            if seed == self.config.seed
            else dataclasses.replace(self.config, seed=seed)
        )
        return collect_metrics(run_campaign(cfg, shard_days=self.shard_days))


def _config_repeat_task(payload: tuple[ConfigRepeatSpec, int]) -> dict[str, float]:
    spec, seed = payload
    return spec.run_one(seed)


def make_config_batch_runner(
    spec: ConfigRepeatSpec,
    *,
    workers: int = 1,
) -> Callable[[Sequence[int]], list[dict[str, float]]]:
    """A batch executor over a full config, order preserved."""

    def run_batch(seeds: Sequence[int]) -> list[dict[str, float]]:
        payloads = [(spec, int(s)) for s in seeds]
        n_procs = min(workers, len(payloads))
        if n_procs <= 1:
            return [_config_repeat_task(p) for p in payloads]
        with ProcessPoolExecutor(max_workers=n_procs, mp_context=pool_context()) as pool:
            return list(pool.map(_config_repeat_task, payloads))

    return run_batch


@dataclass
class CampaignRepeater:
    """A :class:`~repro.stats.repeater.Repeater` bound to ``sp2-study``."""

    spec: ConfigRepeatSpec
    rules: Sequence[StoppingRule] = ()
    max_repeats: int = 256
    batch_size: int = 8
    target_metric: str = DEFAULT_TARGET_METRIC
    confidence: float = 0.95
    workers: int = 1
    on_batch: Callable | None = None

    def run(
        self, *, seed0: int = 0, seeds: Sequence[int] | None = None
    ) -> RepeatResult:
        repeater = Repeater(
            run_one=self.spec.run_one,
            rules=self.rules,
            max_repeats=self.max_repeats,
            batch_size=self.batch_size,
            target_metric=self.target_metric,
            confidence=self.confidence,
            batch_runner=make_config_batch_runner(self.spec, workers=self.workers),
            on_batch=self.on_batch,
        )
        return repeater.run(seed0=seed0, seeds=seeds)
