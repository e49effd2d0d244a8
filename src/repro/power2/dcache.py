"""Set-associative cache simulator.

This is the *reference* model of the POWER2 data cache: 256 kB, 4-way,
256-byte lines, write-back with write-allocate, true LRU.  It is used to

* derive the analytic per-kernel miss ratios the fast campaign model
  consumes (see :mod:`repro.workload.kernels`);
* regenerate Table 4's "Sequential Access" column from first principles
  (a cache miss every 32 real*8 elements for a 256-byte line);
* model the write-back traffic behind the ``dcache_store`` counter
  ("occurs when the D-cache destination for incoming data currently
  contains data which has been modified", Table 1).

Access streams are NumPy arrays of byte addresses.  :meth:`run` walks a
whole stream with the shared per-set LRU walk of
:mod:`repro.power2.lruwalk`: every set steps together as numpy
operations, and the last few busy sets finish in a plain Python loop.
:meth:`access` is the scalar definition of one reference and the
oracle the walk is tested against; both leave bit-identical stats and
state, and calls to the two (and :meth:`flush`) may be mixed freely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.power2.config import CacheGeometry
from repro.power2.lruwalk import walk


@dataclass
class CacheStats:
    """Counters accumulated by a cache walk."""

    accesses: int = 0
    hits: int = 0
    misses: int = 0
    #: Lines fetched from memory (== misses for this blocking cache);
    #: feeds the ``dcache_reload`` counter.
    reloads: int = 0
    #: Dirty lines written back to memory on eviction; feeds the
    #: ``dcache_store`` counter.
    writebacks: int = 0

    @property
    def miss_ratio(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0

    def check(self) -> None:
        """Internal consistency: hits + misses == accesses, etc."""
        if self.hits + self.misses != self.accesses:
            raise AssertionError("hits + misses != accesses")
        if self.reloads != self.misses:
            raise AssertionError("blocking cache must reload once per miss")
        if self.writebacks > self.misses:
            raise AssertionError("cannot write back more lines than were evicted")


class SetAssociativeCache:
    """True-LRU, write-back, write-allocate set-associative cache."""

    def __init__(self, geometry: CacheGeometry | None = None) -> None:
        self.geometry = geometry or CacheGeometry()
        g = self.geometry
        self._n_sets = g.n_sets
        self._assoc = g.associativity
        self._line_shift = int(g.line_bytes).bit_length() - 1
        if (1 << self._line_shift) != g.line_bytes:
            raise ValueError("line size must be a power of two")
        # tags[set, way] = line tag (-1 empty); lru[set, way] = age rank
        # (0 = most recent); dirty[set, way] marks modified lines.
        self._tags = np.full((self._n_sets, self._assoc), -1, dtype=np.int64)
        self._lru = np.tile(np.arange(self._assoc), (self._n_sets, 1))
        self._dirty = np.zeros((self._n_sets, self._assoc), dtype=bool)
        self.stats = CacheStats()

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def flush(self) -> int:
        """Invalidate everything; returns the number of dirty lines flushed."""
        dirty = int(self._dirty.sum())
        self._tags.fill(-1)
        self._dirty.fill(False)
        self._lru = np.tile(np.arange(self._assoc), (self._n_sets, 1))
        return dirty

    def _touch(self, set_idx: int, way: int) -> None:
        """Promote ``way`` to most-recently-used within its set."""
        age = self._lru[set_idx, way]
        older = self._lru[set_idx] < age
        self._lru[set_idx, older] += 1
        self._lru[set_idx, way] = 0

    def access(self, address: int, *, write: bool = False) -> bool:
        """One byte-address access; returns ``True`` on a hit."""
        if address < 0:
            raise ValueError(f"negative address {address}")
        line = int(address) >> self._line_shift
        set_idx = line % self._n_sets
        tag = line // self._n_sets
        ways = self._tags[set_idx]
        self.stats.accesses += 1
        hit_ways = np.nonzero(ways == tag)[0]
        if hit_ways.size:
            way = int(hit_ways[0])
            self.stats.hits += 1
            self._touch(set_idx, way)
            if write:
                self._dirty[set_idx, way] = True
            return True
        # Miss: evict the LRU way (or fill an empty one — empty ways were
        # initialized with distinct ages so argmax picks them first only
        # if they are oldest; prefer empties explicitly).
        self.stats.misses += 1
        self.stats.reloads += 1
        empty = np.nonzero(ways == -1)[0]
        if empty.size:
            way = int(empty[0])
        else:
            way = int(np.argmax(self._lru[set_idx]))
            if self._dirty[set_idx, way]:
                self.stats.writebacks += 1
        self._tags[set_idx, way] = tag
        self._dirty[set_idx, way] = bool(write)
        self._touch(set_idx, way)
        return False

    def run(self, addresses: np.ndarray, writes: np.ndarray | None = None) -> CacheStats:
        """Walk an address stream; returns the stats accumulated so far."""
        addrs = np.asarray(addresses, dtype=np.int64)
        if addrs.ndim != 1:
            raise ValueError("address stream must be one-dimensional")
        w = None
        if writes is not None:
            w = np.asarray(writes, dtype=bool)
            if w.shape != addrs.shape:
                raise ValueError("writes mask must match the address stream")
        if addrs.size and int(addrs.min()) < 0:
            raise ValueError("negative address in the stream")
        lines = addrs >> self._line_shift
        hits, misses, writebacks = walk(
            self._tags,
            self._lru,
            self._dirty,
            lines % self._n_sets,
            lines // self._n_sets,
            w,
        )
        self.stats.accesses += int(addrs.size)
        self.stats.hits += hits
        self.stats.misses += misses
        self.stats.reloads += misses
        self.stats.writebacks += writebacks
        return self.stats

    # ------------------------------------------------------------------
    # Analytic helpers
    # ------------------------------------------------------------------
    def contains(self, address: int) -> bool:
        line = int(address) >> self._line_shift
        set_idx = line % self._n_sets
        tag = line // self._n_sets
        return bool((self._tags[set_idx] == tag).any())

    @staticmethod
    def sequential_miss_ratio(geometry: CacheGeometry, element_bytes: int = 8) -> float:
        """Miss ratio of a no-reuse sequential walk.

        §5: "For real*8 data, we would experience a cache-miss every 32
        elements" for the 256-byte line — i.e. ``element_bytes /
        line_bytes``.
        """
        return element_bytes / geometry.line_bytes

    @staticmethod
    def strided_miss_ratio(
        geometry: CacheGeometry, stride_bytes: int, element_bytes: int = 8
    ) -> float:
        """Miss ratio of a no-reuse strided walk: one miss per line touched."""
        if stride_bytes <= 0:
            raise ValueError("stride must be positive")
        return min(1.0, max(stride_bytes, element_bytes) / geometry.line_bytes)
