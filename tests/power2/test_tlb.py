"""Reference TLB simulator."""

import numpy as np
import pytest

from repro.power2.config import POWER2_590, TLBGeometry
from repro.power2.tlb import TLB


class TestBasics:
    def test_first_touch_misses_then_hits(self):
        t = TLB()
        assert t.access(0) is False
        assert t.access(4095) is True  # same page
        assert t.access(4096) is False  # next page

    def test_stats(self):
        t = TLB()
        for a in (0, 100, 5000, 0):
            t.access(a)
        assert t.stats.accesses == 4
        assert t.stats.hits + t.stats.misses == 4

    def test_flush_invalidates(self):
        t = TLB()
        t.access(0)
        t.flush()
        assert t.access(0) is False

    def test_reset_stats(self):
        t = TLB()
        t.access(0)
        t.reset_stats()
        assert t.stats.accesses == 0


class TestCapacity:
    def test_512_pages_fit(self):
        """§2: 512 TLB entries — a 2 MB working set translates without
        misses after the first touch."""
        t = TLB()
        pages = np.arange(512) * 4096
        for p in pages:
            t.access(int(p))
        t.reset_stats()
        for p in pages:
            assert t.access(int(p)) is True

    def test_working_set_beyond_capacity_thrashes(self):
        t = TLB(TLBGeometry(entries=8, associativity=2))
        pages = np.arange(64) * 4096
        for _ in range(3):
            for p in pages:
                t.access(int(p))
        # Far more pages than entries: virtually everything misses.
        assert t.stats.miss_ratio > 0.9


class TestPaperAnchors:
    def test_sequential_miss_every_512_elements(self):
        """§5: 'a TLB miss every 512 elements' for real*8 on 4 kB pages."""
        assert TLB.sequential_miss_ratio(POWER2_590.tlb) == pytest.approx(1.0 / 512.0)

    def test_sequential_simulation_matches_analytic(self):
        t = TLB()
        stats = t.run(np.arange(0, 512 * 4096, 8))
        assert stats.miss_ratio == pytest.approx(1.0 / 512.0, rel=0.01)

    def test_large_stride_raises_miss_rate(self):
        """§5: 'We might expect high TLB miss rates from programs
        accessing data with large memory strides.'"""
        small = TLB.strided_miss_ratio(POWER2_590.tlb, 8)
        large = TLB.strided_miss_ratio(POWER2_590.tlb, 2048)
        assert large > 100 * small

    def test_page_stride_saturates(self):
        assert TLB.strided_miss_ratio(POWER2_590.tlb, 4096) == 1.0

    def test_nonpositive_stride_rejected(self):
        with pytest.raises(ValueError):
            TLB.strided_miss_ratio(POWER2_590.tlb, -8)


class TestEdgeCases:
    def test_non_power_of_two_page_rejected(self):
        with pytest.raises(ValueError):
            TLB(TLBGeometry(page_bytes=3000))

    def test_empty_run_is_zero_length_interval(self):
        stats = TLB().run(np.array([], dtype=np.int64))
        assert (stats.accesses, stats.hits, stats.misses) == (0, 0, 0)
        assert stats.miss_ratio == 0.0

    def test_lru_evicts_least_recently_used_way(self):
        # One set, two ways: touching A keeps it resident while C
        # evicts B, the older translation.
        t = TLB(TLBGeometry(entries=2, associativity=2))
        a, b, c = 0, 4096, 8192
        assert t.access(a) is False
        assert t.access(b) is False
        assert t.access(a) is True  # refresh A
        assert t.access(c) is False  # evicts B
        assert t.access(a) is True
        assert t.access(b) is False  # B was the victim

    def test_negative_address_rejected(self):
        """Tag -1 would alias the empty-way marker and hit a cold TLB."""
        t = TLB()
        with pytest.raises(ValueError, match="negative address"):
            t.access(-4096)
        with pytest.raises(ValueError, match="negative address"):
            t.run(np.array([0, 4096, -4096]))
        assert t.stats.accesses == 0

    def test_stats_check(self):
        t = TLB()
        t.run(np.arange(0, 8 * 4096, 1024))
        t.stats.check()
        t.stats.hits += 1
        with pytest.raises(AssertionError):
            t.stats.check()

    def test_flush_mid_stream_restarts_cold(self):
        t = TLB()
        t.run(np.arange(0, 16 * 4096, 4096))
        t.flush()
        t.reset_stats()
        stats = t.run(np.arange(0, 16 * 4096, 4096))
        assert stats.misses == 16

    def test_sequential_ratio_scales_with_element_size(self):
        g = POWER2_590.tlb
        assert TLB.sequential_miss_ratio(g, 16) == pytest.approx(2.0 / 512.0)

    def test_sub_element_stride_floors_at_element_size(self):
        g = POWER2_590.tlb
        assert TLB.strided_miss_ratio(g, 1) == TLB.strided_miss_ratio(g, 8)
