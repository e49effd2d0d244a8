"""Address-stream generators and analytic-vs-simulated validation."""

import numpy as np
import pytest

from repro.power2.config import POWER2_590
from repro.power2.dcache import SetAssociativeCache
from repro.power2.streams import (
    blocked_stream,
    measure_stream,
    multiblock_stream,
    random_stream,
    sequential_stream,
    strided_stream,
)
from repro.power2.tlb import TLB
from repro.util.rng import RngStreams


def rng():
    return RngStreams(3).get("streams")


class TestGenerators:
    def test_sequential_shape(self):
        s = sequential_stream(10, element_bytes=8, base=100)
        np.testing.assert_array_equal(s, 100 + np.arange(10) * 8)

    def test_strided(self):
        s = strided_stream(5, 4096)
        assert s[1] - s[0] == 4096

    def test_blocked_revisits_blocks(self):
        s = blocked_stream(2, 64, 3, element_bytes=8)
        assert s.size == 2 * 3 * 8
        # First three walks are the same block.
        np.testing.assert_array_equal(s[:8], s[8:16])

    def test_multiblock_within_span(self):
        s = multiblock_stream(rng(), n_blocks=4, block_bytes=4096, touches=20)
        assert s.min() >= 0
        assert s.max() < 4 * 4096

    def test_random_within_span(self):
        s = random_stream(rng(), 100, 1 << 16)
        assert s.min() >= 0 and s.max() < (1 << 16)

    @pytest.mark.parametrize(
        "fn,args",
        [
            (sequential_stream, (0,)),
            (strided_stream, (10, 0)),
            (blocked_stream, (0, 64, 1)),
            (random_stream, (rng(), 0, 64)),
        ],
    )
    def test_invalid_parameters_rejected(self, fn, args):
        with pytest.raises(ValueError):
            fn(*args)


class TestValidation:
    """The campaign's analytic miss ratios vs the reference simulators."""

    def test_sequential_prediction_holds(self):
        stream = sequential_stream(200_000)
        m = measure_stream(stream)
        predicted_d = SetAssociativeCache.sequential_miss_ratio(POWER2_590.dcache)
        predicted_t = TLB.sequential_miss_ratio(POWER2_590.tlb)
        assert m.matches(predicted_d, predicted_t)

    @pytest.mark.parametrize("stride", [16, 64, 512, 4096])
    def test_strided_prediction_holds(self, stride):
        stream = strided_stream(60_000, stride)
        m = measure_stream(stream)
        predicted_d = SetAssociativeCache.strided_miss_ratio(POWER2_590.dcache, stride)
        predicted_t = TLB.strided_miss_ratio(POWER2_590.tlb, stride)
        assert m.matches(predicted_d, predicted_t)

    def test_blocked_reuse_slashes_miss_ratio(self):
        """Tiling below cache capacity: reuse factor ≈ passes."""
        flat = measure_stream(sequential_stream(96_000))
        tiled = measure_stream(
            blocked_stream(n_blocks=6, block_bytes=128 * 1024, passes_per_block=8)
        )
        assert tiled.dcache_miss_ratio < 0.2 * flat.dcache_miss_ratio

    def test_multiblock_tlb_hostility(self):
        """Block-hopping hurts the TLB far more than the cache — the
        mechanism behind the workload's tlb_locality_factor."""
        hopping = measure_stream(
            multiblock_stream(
                rng(), n_blocks=2048, block_bytes=64 * 1024, touches=3000, run_length=32
            )
        )
        ratio = hopping.tlb_miss_ratio / max(hopping.dcache_miss_ratio, 1e-9)
        # A pure sequential walk has tlb/dcache = 256/4096 = 1/16; block
        # hopping pushes the ratio up by an order of magnitude.
        assert ratio > 4.0 * (256 / 4096)

    def test_random_stream_thrashes(self):
        m = measure_stream(random_stream(rng(), 50_000, 64 << 20))
        assert m.dcache_miss_ratio > 0.9
        assert m.tlb_miss_ratio > 0.9

    def test_write_fraction_generates_writebacks(self):
        stream = strided_stream(30_000, 256)  # every access a new line
        clean = measure_stream(stream)
        dirty = measure_stream(stream, write_fraction=1.0)
        assert clean.dcache_stats.writebacks == 0
        assert dirty.dcache_stats.writebacks > 0

    @pytest.mark.parametrize("fraction", [-0.5, 1.0001, 7.0, float("nan")])
    def test_write_fraction_outside_unit_interval_rejected(self, fraction):
        with pytest.raises(ValueError, match="write_fraction"):
            measure_stream(strided_stream(16, 256), write_fraction=fraction)
