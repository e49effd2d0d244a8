"""Job records: counter-delta algebra (§3's flop counting, §6's ratio)."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pbs.job import JobRecord, JobSpec, JobState
from repro.power2.counters import BROKEN_COUNTERS, FLAT_NAMES, flat_row


def record(counters=None, **overrides) -> JobRecord:
    """A record from per-node flat-labelled counts ``{node_id: {name: n}}``."""
    counters = (
        counters
        if counters is not None
        else {
            0: {
                "user.fpu0_fp_add": 3_000_000,
                "user.fpu0_fp_mul": 1_000_000,
                "user.fpu0_fp_muladd": 2_000_000,
                "user.fxu0": 5_000_000,
                "user.fxu1": 5_000_000,
                "system.fxu0": 500_000,
                "system.fxu1": 500_000,
            },
            1: {
                "user.fpu1_fp_add": 1_000_000,
                "user.fpu1_fp_muladd": 500_000,
                "user.fxu0": 2_000_000,
                "user.fxu1": 2_000_000,
                "system.fxu0": 100_000,
                "system.fxu1": 100_000,
            },
        }
    )
    base = dict(
        job_id=1,
        user=3,
        app_name="multiblock_cfd",
        nodes_requested=2,
        node_ids=tuple(counters),
        submit_time=0.0,
        start_time=100.0,
        end_time=1100.0,
        deltas=np.array([flat_row(c) for c in counters.values()]),
    )
    base.update(overrides)
    return JobRecord(**base)


class TestTimes:
    def test_walltime_and_wait(self):
        r = record()
        assert r.walltime_seconds == 1000.0
        assert r.queue_wait_seconds == 100.0
        assert r.node_seconds == 2000.0


class TestFlopAlgebra:
    def test_summed_deltas_adds_across_nodes(self):
        d = record().summed_deltas()
        assert d["user.fxu0"] == 7_000_000

    def test_flops_from_deltas_fma_counts_twice(self):
        d = record().summed_deltas()
        flops = JobRecord.flops_from_deltas(d)
        # adds (3e6 + 1e6) + muls (1e6) + 2 × fma (2e6 + 0.5e6)
        assert flops == 4e6 + 1e6 + 2 * 2.5e6

    def test_total_mflops(self):
        r = record()
        assert r.total_mflops == pytest.approx(10e6 / 1000.0 / 1e6)

    def test_mflops_per_node(self):
        r = record()
        assert r.mflops_per_node == pytest.approx(r.total_mflops / 2)

    def test_zero_walltime_yields_zero_rate(self):
        r = record(end_time=100.0)
        assert r.total_mflops == 0.0


class TestSystemUserRatio:
    def test_ratio(self):
        r = record()
        assert r.system_user_fxu_ratio == pytest.approx(1.2e6 / 14e6)

    def test_ratio_with_zero_user(self):
        r = record(
            counters={0: {"system.fxu0": 10, "user.fxu0": 0}},
        )
        assert r.system_user_fxu_ratio == float("inf")

    def test_ratio_all_zero(self):
        r = record(counters={0: {}})
        assert r.system_user_fxu_ratio == 0.0


class TestJobSpec:
    def test_wide_threshold_is_64(self):
        class P:
            walltime_seconds = 1.0
            memory_bytes_per_node = 0.0
            user_rates = None
            system_rates = None
            mflops_per_node = 0.0

        narrow = JobSpec(1, 0, "a", 64, 0.0, P())
        wide = JobSpec(2, 0, "a", 65, 0.0, P())
        assert not narrow.is_wide
        assert wide.is_wide

    def test_invalid_nodes_rejected(self):
        class P:
            pass

        with pytest.raises(ValueError):
            JobSpec(1, 0, "a", 0, 0.0, P())

    def test_starts_queued(self):
        class P:
            pass

        assert JobSpec(1, 0, "a", 1, 0.0, P()).state is JobState.QUEUED


class TestRegisterReuseProperties:
    def test_flops_per_memory_inst(self):
        r = record()
        d = r.summed_deltas()
        expected = JobRecord.flops_from_deltas(d) / (
            d["user.fxu0"] + d["user.fxu1"]
        )
        assert r.flops_per_memory_inst == pytest.approx(expected)

    def test_flops_per_memory_inst_no_fxu(self):
        r = record(counters={0: {"user.fpu0_fp_add": 100}})
        assert r.flops_per_memory_inst == 0.0

    def test_fma_flop_fraction(self):
        r = record()
        d = r.summed_deltas()
        fma = d["user.fpu0_fp_muladd"] + d.get("user.fpu1_fp_muladd", 0)
        assert r.fma_flop_fraction == pytest.approx(
            2 * fma / JobRecord.flops_from_deltas(d)
        )

    def test_fma_fraction_no_flops(self):
        r = record(counters={0: {"user.fxu0": 100}})
        assert r.fma_flop_fraction == 0.0


class DictRecord:
    """The dict-of-dicts job record the array record replaced: per-node
    ``{name: delta}`` dicts, re-summed on every derived property.  Kept
    here as the differential oracle."""

    def __init__(self, counter_deltas, start_time, end_time):
        self.counter_deltas = counter_deltas
        self.node_ids = tuple(counter_deltas)
        self.walltime_seconds = end_time - start_time

    def summed_deltas(self):
        total = {}
        for per_node in self.counter_deltas.values():
            for name, v in per_node.items():
                total[name] = total.get(name, 0) + v
        return total

    @staticmethod
    def flops(d):
        return (
            d.get("user.fpu0_fp_add", 0)
            + d.get("user.fpu1_fp_add", 0)
            + d.get("user.fpu0_fp_mul", 0)
            + d.get("user.fpu1_fp_mul", 0)
            + d.get("user.fpu0_fp_div", 0)
            + d.get("user.fpu1_fp_div", 0)
            + 2 * d.get("user.fpu0_fp_muladd", 0)
            + 2 * d.get("user.fpu1_fp_muladd", 0)
        )

    @property
    def total_mflops(self):
        wall = self.walltime_seconds
        if wall <= 0:
            return 0.0
        return self.flops(self.summed_deltas()) / wall / 1e6

    @property
    def mflops_per_node(self):
        if not self.node_ids:
            return 0.0
        return self.total_mflops / len(self.node_ids)

    @property
    def flops_per_memory_inst(self):
        d = self.summed_deltas()
        fxu = d.get("user.fxu0", 0) + d.get("user.fxu1", 0)
        if fxu == 0:
            return 0.0
        return self.flops(d) / fxu

    @property
    def fma_flop_fraction(self):
        d = self.summed_deltas()
        fma = d.get("user.fpu0_fp_muladd", 0) + d.get("user.fpu1_fp_muladd", 0)
        flops = self.flops(d)
        return 2.0 * fma / flops if flops > 0 else 0.0

    @property
    def system_user_fxu_ratio(self):
        d = self.summed_deltas()
        user = d.get("user.fxu0", 0) + d.get("user.fxu1", 0)
        system = d.get("system.fxu0", 0) + d.get("system.fxu1", 0)
        if user == 0:
            return float("inf") if system else 0.0
        return system / user


#: The counters the derived properties read, plus the broken divides.
_DERIVED_INPUTS = [
    name
    for name in FLAT_NAMES
    if name.split(".", 1)[1] in BROKEN_COUNTERS
    or name.endswith(("_fp_add", "_fp_mul", "_fp_muladd", ".fxu0", ".fxu1"))
]
_DERIVED = (
    "total_mflops",
    "mflops_per_node",
    "flops_per_memory_inst",
    "fma_flop_fraction",
    "system_user_fxu_ratio",
)

_node_counts = st.dictionaries(
    st.sampled_from(_DERIVED_INPUTS + list(FLAT_NAMES)),
    # Zero-heavy so zero-FXU and zero-flop cases come up often; the top
    # of the range exceeds 2**53, where int and float division differ.
    st.one_of(st.just(0), st.integers(0, 1000), st.integers(0, 2**60 // 64)),
    max_size=12,
)


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


class TestArrayRecordMatchesDictOracle:
    @settings(max_examples=300, deadline=None)
    @given(
        per_node=st.lists(_node_counts, min_size=1, max_size=6),
        wall=st.one_of(st.just(0.0), st.floats(1e-3, 1e7)),
    )
    def test_bit_equal(self, per_node, wall):
        node_ids = tuple(range(10, 10 + len(per_node)))
        oracle = DictRecord(dict(zip(node_ids, per_node)), 100.0, 100.0 + wall)
        r = JobRecord(
            job_id=1,
            user=0,
            app_name="app",
            nodes_requested=len(node_ids),
            node_ids=node_ids,
            submit_time=0.0,
            start_time=100.0,
            end_time=100.0 + wall,
            deltas=np.array([flat_row(c) for c in per_node]),
        )
        summed = oracle.summed_deltas()
        assert r.summed_deltas() == {name: summed.get(name, 0) for name in FLAT_NAMES}
        for prop in _DERIVED:
            assert _bits(getattr(r, prop)) == _bits(getattr(oracle, prop)), prop

    @pytest.mark.parametrize(
        "counts, expected",
        [
            ({"system.fxu0": 7}, float("inf")),  # zero user FXU, system work
            ({"user.fpu0_fp_add": 5}, 0.0),  # zero user and system FXU
        ],
    )
    def test_zero_user_fxu(self, counts, expected):
        r = record(counters={4: counts})
        oracle = DictRecord({4: counts}, r.start_time, r.end_time)
        assert r.system_user_fxu_ratio == oracle.system_user_fxu_ratio == expected

    def test_broken_div_columns_count_as_flops(self):
        counts = {"user.fpu0_fp_div": 1_000, "user.fpu1_fp_div": 3_000}
        r = record(counters={0: counts, 1: {"user.fxu0": 8_000}})
        oracle = DictRecord({0: counts, 1: {"user.fxu0": 8_000}}, r.start_time, r.end_time)
        for prop in _DERIVED:
            assert _bits(getattr(r, prop)) == _bits(getattr(oracle, prop)), prop

    def test_deltas_are_read_only_and_summed_once(self):
        r = record()
        with pytest.raises(ValueError):
            r.deltas[0, 0] = 1
        assert r.summed_row is r.summed_row
        np.testing.assert_array_equal(r.summed_row, r.deltas.sum(axis=0))

    def test_shape_must_match_node_ids(self):
        with pytest.raises(ValueError, match="shape"):
            record(node_ids=(0, 1, 2))
