"""Differential equivalence: the per-set LRU walk vs. the scalar oracle.

``SetAssociativeCache.run`` and ``TLB.run`` step every set together
(:mod:`repro.power2.lruwalk`); ``access()`` is the per-reference
definition.  These tests drive a simulator through random mixes of
``run()`` chunks, single ``access()`` calls and ``flush()``, drive a twin
through ``access()`` alone, and demand equal stats and byte-equal
``_tags``, ``_lru`` and ``_dirty`` (which way holds each line included)
after every operation.  Each case runs twice: once with the default
switch to the Python tail, once with every step vectorized.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.power2 import lruwalk
from repro.power2.config import POWER2_590, CacheGeometry, TLBGeometry
from repro.power2.dcache import SetAssociativeCache
from repro.power2.streams import (
    blocked_stream,
    multiblock_stream,
    random_stream,
    sequential_stream,
    strided_stream,
)
from repro.power2.tlb import TLB
from repro.util.rng import RngStreams

#: Default switch to the Python tail, and "vectorize every step".
THRESHOLDS = [lruwalk.VECTOR_MIN_SETS, 1]


def assert_same_state(fast, oracle):
    assert fast.stats == oracle.stats
    for name in ("_tags", "_lru", "_dirty"):
        if hasattr(oracle, name):
            a, b = getattr(fast, name), getattr(oracle, name)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes(), name


def access_all(sim, addrs, writes=None):
    if writes is None:
        for a in addrs:
            sim.access(a)
    else:
        for a, w in zip(addrs, writes):
            sim.access(a, write=w)


# ---------------------------------------------------------------------------
# Strategies
# ---------------------------------------------------------------------------

ways = st.sampled_from([1, 2, 4])
n_sets = st.integers(min_value=1, max_value=6)
block = st.sampled_from([16, 64])


@st.composite
def schedules(draw, *, writes: bool):
    """(block bytes, ways, sets, pre-warm, operations) over a span a few
    times the capacity, so hits, evictions and write-backs all occur."""
    w, s, b = draw(ways), draw(n_sets), draw(block)
    span = draw(st.integers(min_value=1, max_value=4 * w * s + 2)) * b
    addr = st.integers(min_value=0, max_value=span - 1)
    flag = st.booleans() if writes else st.just(False)
    warm = draw(st.lists(st.tuples(addr, flag), max_size=24))
    op = st.one_of(
        st.tuples(st.just("run"), st.lists(st.tuples(addr, flag), max_size=120)),
        st.tuples(st.just("access"), st.tuples(addr, flag)),
        st.tuples(st.just("flush"), st.none()),
    )
    return b, w, s, warm, draw(st.lists(op, min_size=1, max_size=8))


def drive(fast, oracle, warm, ops, *, writes: bool):
    for sim in (fast, oracle):
        access_all(sim, [a for a, _ in warm], [w for _, w in warm] if writes else None)
    assert_same_state(fast, oracle)
    for kind, arg in ops:
        if kind == "run":
            addrs = [a for a, _ in arg]
            flags = [w for _, w in arg] if writes else None
            if writes:
                got = fast.run(np.array(addrs, dtype=np.int64), np.array(flags, dtype=bool))
            else:
                got = fast.run(np.array(addrs, dtype=np.int64))
            assert got is fast.stats
            access_all(oracle, addrs, flags)
        elif kind == "access":
            a, w = arg
            if writes:
                assert fast.access(a, write=w) == oracle.access(a, write=w)
            else:
                assert fast.access(a) == oracle.access(a)
        else:
            assert fast.flush() == oracle.flush()
        assert_same_state(fast, oracle)


# ---------------------------------------------------------------------------
# Property tests
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("threshold", THRESHOLDS)
class TestRandomSchedules:
    @given(schedules(writes=True))
    @settings(max_examples=150, deadline=None)
    def test_cache_run_matches_access(self, threshold, schedule):
        b, w, s, warm, ops = schedule
        geometry = CacheGeometry(total_bytes=b * w * s, line_bytes=b, associativity=w)
        with mock.patch.object(lruwalk, "VECTOR_MIN_SETS", threshold):
            drive(
                SetAssociativeCache(geometry), SetAssociativeCache(geometry), warm, ops,
                writes=True,
            )

    @given(schedules(writes=False))
    @settings(max_examples=150, deadline=None)
    def test_tlb_run_matches_access(self, threshold, schedule):
        b, w, s, warm, ops = schedule
        geometry = TLBGeometry(entries=w * s, page_bytes=b, associativity=w)
        with mock.patch.object(lruwalk, "VECTOR_MIN_SETS", threshold):
            drive(TLB(geometry), TLB(geometry), warm, ops, writes=False)


# ---------------------------------------------------------------------------
# The benchmark's stream shapes at the POWER2 geometry
# ---------------------------------------------------------------------------


def memsim_shapes(seed: int) -> dict[str, np.ndarray]:
    """The seven address-stream shapes of the ``memsim_streams``
    workload, plus a stream that maps into one cache set."""
    rng = RngStreams(seed).get("memsim-equivalence")
    base = int(rng.integers(0, 1 << 12)) * 8
    return {
        "sequential": sequential_stream(12_000, base=base),
        "stride64": strided_stream(3_000, 64, base=base),
        "stride512": strided_stream(3_000, 512, base=base),
        "stride4096": strided_stream(1_500, 4096, base=base),
        "blocked": blocked_stream(2, 32 * 1024, passes_per_block=2, base=base),
        "multiblock": multiblock_stream(
            rng, n_blocks=2048, block_bytes=64 * 1024, touches=300, run_length=32
        ),
        "random": random_stream(rng, 4_000, 64 << 20),
        "one_set": strided_stream(6_000, 64 * 1024, base=base),
    }


SHAPES = memsim_shapes(1998)


@pytest.mark.parametrize("name", sorted(SHAPES))
def test_power2_streams_match_access(name):
    addrs = SHAPES[name]
    writes = np.random.default_rng(1998).random(addrs.size) < 0.3
    oracle = SetAssociativeCache(POWER2_590.dcache)
    access_all(oracle, addrs.tolist(), writes.tolist())
    tlb_oracle = TLB(POWER2_590.tlb)
    access_all(tlb_oracle, addrs.tolist())
    oracle.stats.check()
    tlb_oracle.stats.check()
    if name in ("one_set", "random"):
        assert oracle.stats.writebacks > 0  # dirty evictions are exercised
    for threshold in THRESHOLDS:
        with mock.patch.object(lruwalk, "VECTOR_MIN_SETS", threshold):
            cache = SetAssociativeCache(POWER2_590.dcache)
            cache.run(addrs, writes)
            assert_same_state(cache, oracle)
            tlb = TLB(POWER2_590.tlb)
            tlb.run(addrs)
            assert_same_state(tlb, tlb_oracle)


def test_one_set_stream_uses_one_set():
    """The worst case for stepping sets together: every reference lands
    in the same cache set, so each step holds one reference."""
    addrs = SHAPES["one_set"]
    g = POWER2_590.dcache
    sets = (addrs // g.line_bytes) % g.n_sets
    assert np.unique(sets).size == 1
