"""Synthetic memory address streams and access-pattern validation.

The campaign's fast path uses *analytic* miss ratios per kernel
(:class:`repro.workload.kernels.AccessPattern`).  This module closes the
loop: it generates the address streams those patterns describe —
sequential walks, strided walks, blocked (tiled) sweeps, multi-block
solver visits, uniform random — runs them through the reference
:class:`~repro.power2.dcache.SetAssociativeCache` and
:class:`~repro.power2.tlb.TLB` simulators, and reports how well the
analytic ratios predict the simulated ones.

Used by ``tests/power2/test_streams.py`` and the
``examples/cache_exploration.py`` walkthrough of §5's memory-hierarchy
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.power2.config import MachineConfig, POWER2_590
from repro.power2.dcache import CacheStats, SetAssociativeCache
from repro.power2.tlb import TLB


def sequential_stream(
    n: int, *, element_bytes: int = 8, base: int = 0
) -> np.ndarray:
    """A no-reuse sequential walk (Table 4's bound)."""
    if n <= 0:
        raise ValueError("stream length must be positive")
    return base + np.arange(n, dtype=np.int64) * element_bytes


def strided_stream(
    n: int, stride_bytes: int, *, base: int = 0
) -> np.ndarray:
    """A constant-stride walk — §5's 'large memory strides' case."""
    if stride_bytes <= 0:
        raise ValueError("stride must be positive")
    return base + np.arange(n, dtype=np.int64) * stride_bytes


def blocked_stream(
    n_blocks: int,
    block_bytes: int,
    passes_per_block: int,
    *,
    element_bytes: int = 8,
    base: int = 0,
) -> np.ndarray:
    """A tiled sweep: each block is walked ``passes_per_block`` times
    before moving on — how the §5 matmul achieves its reuse."""
    if min(n_blocks, block_bytes, passes_per_block) <= 0:
        raise ValueError("blocked stream parameters must be positive")
    per_block = block_bytes // element_bytes
    one_block = np.arange(per_block, dtype=np.int64) * element_bytes
    walks = [
        base + b * block_bytes + one_block
        for b in range(n_blocks)
        for _ in range(passes_per_block)
    ]
    return np.concatenate(walks)

def multiblock_stream(
    rng: np.random.Generator,
    n_blocks: int,
    block_bytes: int,
    touches: int,
    *,
    element_bytes: int = 8,
    run_length: int = 64,
) -> np.ndarray:
    """A multiblock solver's visit pattern: short sequential runs inside
    randomly chosen blocks — cache-friendly inside a run, TLB-hostile
    across blocks (the §7 'relatively high TLB miss rates' shape)."""
    if min(n_blocks, block_bytes, touches, run_length) <= 0:
        raise ValueError("multiblock stream parameters must be positive")
    per_block = block_bytes // element_bytes
    runs = []
    for _ in range(touches):
        block = int(rng.integers(n_blocks))
        start = int(rng.integers(max(1, per_block - run_length)))
        idx = np.arange(start, min(per_block, start + run_length), dtype=np.int64)
        runs.append(block * block_bytes + idx * element_bytes)
    return np.concatenate(runs)


def random_stream(
    rng: np.random.Generator, n: int, span_bytes: int, *, element_bytes: int = 8
) -> np.ndarray:
    """Uniform random touches over a span — the worst case."""
    if n <= 0 or span_bytes <= 0:
        raise ValueError("random stream parameters must be positive")
    return rng.integers(0, span_bytes // element_bytes, size=n).astype(np.int64) * element_bytes


@dataclass(frozen=True)
class StreamMeasurement:
    """Simulated miss behaviour of one stream."""

    accesses: int
    dcache_miss_ratio: float
    tlb_miss_ratio: float
    dcache_stats: CacheStats

    def matches(
        self,
        predicted_dcache: float,
        predicted_tlb: float,
        *,
        rel: float = 0.25,
        absolute: float = 0.002,
    ) -> bool:
        """Whether analytic predictions agree with the simulation."""

        def close(a: float, b: float) -> bool:
            return abs(a - b) <= max(absolute, rel * max(a, b))

        return close(self.dcache_miss_ratio, predicted_dcache) and close(
            self.tlb_miss_ratio, predicted_tlb
        )


def measure_stream(
    addresses: np.ndarray,
    *,
    config: MachineConfig | None = None,
    write_fraction: float = 0.0,
    seed: int = 0,
) -> StreamMeasurement:
    """Run a stream through the reference D-cache and TLB simulators.

    ``write_fraction`` is the chance each access is a store, in [0, 1].
    Both walks' stats invariants are checked before returning.
    """
    if not 0.0 <= write_fraction <= 1.0:
        raise ValueError(f"write_fraction must be in [0, 1], got {write_fraction}")
    cfg = config or POWER2_590
    addrs = np.asarray(addresses, dtype=np.int64)
    cache = SetAssociativeCache(cfg.dcache)
    tlb = TLB(cfg.tlb)
    if write_fraction > 0.0:
        rng = np.random.default_rng(seed)
        writes = rng.random(addrs.size) < write_fraction
    else:
        writes = None
    cache.run(addrs, writes).check()
    tlb.run(addrs).check()
    return StreamMeasurement(
        accesses=int(addrs.size),
        dcache_miss_ratio=cache.stats.miss_ratio,
        tlb_miss_ratio=tlb.stats.miss_ratio,
        dcache_stats=cache.stats,
    )
