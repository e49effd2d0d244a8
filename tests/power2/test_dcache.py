"""Reference D-cache simulator: LRU, write-back, and §5's analytics."""

import numpy as np
import pytest

from repro.power2.config import CacheGeometry, POWER2_590
from repro.power2.dcache import SetAssociativeCache


def small_cache(assoc: int = 2, line: int = 64, total: int = 1024) -> SetAssociativeCache:
    return SetAssociativeCache(CacheGeometry(total_bytes=total, line_bytes=line, associativity=assoc))


class TestBasics:
    def test_first_access_misses_second_hits(self):
        c = small_cache()
        assert c.access(0) is False
        assert c.access(8) is True  # same line

    def test_distinct_lines_miss_independently(self):
        c = small_cache(line=64)
        assert c.access(0) is False
        assert c.access(64) is False

    def test_stats_accounting(self):
        c = small_cache()
        for a in (0, 8, 64, 0):
            c.access(a)
        s = c.stats
        assert s.accesses == 4 and s.hits == 2 and s.misses == 2
        s.check()

    def test_reset_stats(self):
        c = small_cache()
        c.access(0)
        c.reset_stats()
        assert c.stats.accesses == 0

    def test_contains(self):
        c = small_cache()
        c.access(128)
        assert c.contains(128) and c.contains(129)
        assert not c.contains(0)


class TestLRU:
    def test_lru_eviction_order(self):
        # 2-way cache with 64-byte lines and 8 sets: addresses 0, 1024,
        # 2048 all map to set 0.
        c = small_cache(assoc=2, line=64, total=1024)
        c.access(0)
        c.access(1024)
        c.access(0)  # touch 0 so 1024 is LRU
        c.access(2048)  # evicts 1024
        assert c.access(0) is True
        assert c.access(1024) is False

    def test_working_set_within_assoc_always_hits(self):
        c = small_cache(assoc=4, line=64, total=2048)
        set_stride = 2048 // 4  # lines mapping to the same set
        addrs = [i * set_stride for i in range(4)]
        for a in addrs:
            c.access(a)
        c.reset_stats()
        for _ in range(10):
            for a in addrs:
                assert c.access(a) is True


class TestWriteback:
    def test_dirty_eviction_counts_writeback(self):
        c = small_cache(assoc=1, line=64, total=512)  # direct-mapped, 8 sets
        c.access(0, write=True)
        c.access(512)  # same set, evicts dirty line
        assert c.stats.writebacks == 1

    def test_clean_eviction_no_writeback(self):
        c = small_cache(assoc=1, line=64, total=512)
        c.access(0)
        c.access(512)
        assert c.stats.writebacks == 0

    def test_write_hit_marks_dirty(self):
        c = small_cache(assoc=1, line=64, total=512)
        c.access(0)  # clean fill
        c.access(8, write=True)  # write hit dirties it
        c.access(512)  # eviction must write back
        assert c.stats.writebacks == 1

    def test_flush_reports_dirty_lines(self):
        c = small_cache()
        c.access(0, write=True)
        c.access(64, write=True)
        c.access(128)
        assert c.flush() == 2
        assert c.access(0) is False  # everything invalidated


class TestRun:
    def test_run_stream(self):
        c = small_cache()
        stats = c.run(np.array([0, 8, 16, 64]))
        assert stats.accesses == 4

    def test_run_with_writes_mask(self):
        c = small_cache(assoc=1, line=64, total=512)
        c.run(np.array([0, 512]), writes=np.array([True, False]))
        assert c.stats.writebacks == 1

    def test_negative_address_rejected(self):
        """Tag -1 would alias the empty-way marker and hit a cold cache."""
        c = small_cache()
        with pytest.raises(ValueError, match="negative address"):
            c.access(-256)
        with pytest.raises(ValueError, match="negative address"):
            c.run(np.array([0, 64, -256]))
        assert c.stats.accesses == 0
        assert not c.contains(0)

    def test_stream_must_be_one_dimensional(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            small_cache().run(np.zeros((2, 2), dtype=np.int64))

    def test_writes_mask_shape_checked(self):
        c = small_cache()
        with pytest.raises(ValueError):
            c.run(np.array([0, 1]), writes=np.array([True]))


class TestPaperAnchors:
    def test_sequential_miss_every_32_elements(self):
        """§5: 'For real*8 data, we would experience a cache-miss every
        32 elements' on the 256-byte line."""
        ratio = SetAssociativeCache.sequential_miss_ratio(POWER2_590.dcache)
        assert ratio == pytest.approx(1.0 / 32.0)

    def test_sequential_simulation_matches_analytic(self):
        c = SetAssociativeCache(POWER2_590.dcache)
        addrs = np.arange(0, 64 * 1024, 8)  # 8k sequential real*8 reads
        stats = c.run(addrs)
        assert stats.miss_ratio == pytest.approx(1.0 / 32.0, rel=0.01)

    def test_strided_miss_ratio_saturates(self):
        g = POWER2_590.dcache
        assert SetAssociativeCache.strided_miss_ratio(g, 256) == 1.0
        assert SetAssociativeCache.strided_miss_ratio(g, 512) == 1.0

    def test_strided_simulation_matches_analytic(self):
        c = SetAssociativeCache(POWER2_590.dcache)
        stride = 64
        addrs = np.arange(0, 4 * 1024 * 1024, stride)  # beyond capacity: no reuse
        stats = c.run(addrs)
        analytic = SetAssociativeCache.strided_miss_ratio(POWER2_590.dcache, stride)
        assert stats.miss_ratio == pytest.approx(analytic, rel=0.01)

    def test_in_cache_working_set_hits(self):
        """The §5 matmul fits in 256 kB and reuses it heavily."""
        c = SetAssociativeCache(POWER2_590.dcache)
        addrs = np.tile(np.arange(0, 128 * 1024, 8), 3)  # 128 kB, 3 passes
        stats = c.run(addrs)
        # Only the first pass misses.
        assert stats.miss_ratio < 0.012

    def test_nonpositive_stride_rejected(self):
        with pytest.raises(ValueError):
            SetAssociativeCache.strided_miss_ratio(POWER2_590.dcache, 0)
