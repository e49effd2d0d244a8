"""The POWER2 hardware performance monitor — Table 1's 22 counters.

The physical monitor is 22 32-bit counters on the SCU chip, organized as
five counters each for the FXU, FPU0, FPU1 and SCU groups and two for the
ICU.  This module reproduces:

* the exact NAS counter selection of Table 1 (:data:`COUNTER_LAYOUT`);
* the user/system mode split (RS2HPM reports both; §6's paging finding
  rests on comparing system-mode and user-mode FXU counts);
* 32-bit wraparound — counters are narrow, and the collection scripts
  must difference snapshots modulo 2³²;
* the **broken divide counter**: "An implementation error in the
  hardware monitor prevented the proper reporting of the division
  operations" (§3).  Divides execute and cost cycles, but both FPU
  divide counters always read zero, exactly as in the paper
  (Table 3's Mflops-div row).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from repro.power2.pipeline import ExecutionResult

#: 2³² — the counters are 32 bits wide.
COUNTER_MODULUS = 1 << 32


class Mode(enum.Enum):
    """Processor privilege mode a count accrued in."""

    USER = "user"
    SYSTEM = "system"


@dataclass(frozen=True)
class CounterSpec:
    """One row of Table 1."""

    name: str
    group: str
    slot: int
    description: str


#: The NAS SP2 RS2HPM counter selection, in Table 1's order.
COUNTER_LAYOUT: tuple[CounterSpec, ...] = (
    CounterSpec("fxu0", "FXU", 0, "number of instructions executed by Execution unit 0"),
    CounterSpec("fxu1", "FXU", 1, "number of instructions executed by Execution unit 1"),
    CounterSpec("dcache_mis", "FXU", 2, "FPU and FXU requests for data not in the D-cache"),
    CounterSpec("tlb_mis", "FXU", 3, "FPU and FXU requests for data not on a TLB-mapped page"),
    CounterSpec("cycles", "FXU", 4, "cycles in this mode"),
    CounterSpec("fpu0", "FPU0", 0, "arithmetic instructions executed by Math 0"),
    CounterSpec("fpu0_fp_add", "FPU0", 1, "floating point adds executed by Math 0"),
    CounterSpec("fpu0_fp_mul", "FPU0", 2, "floating point multiplies executed by Math 0"),
    CounterSpec("fpu0_fp_div", "FPU0", 3, "floating point divides executed by Math 0 (broken: reads 0)"),
    CounterSpec("fpu0_fp_muladd", "FPU0", 4, "floating point multiply-adds executed by Math 0"),
    CounterSpec("fpu1", "FPU1", 0, "arithmetic instructions executed by Math 1"),
    CounterSpec("fpu1_fp_add", "FPU1", 1, "floating point adds executed by Math 1"),
    CounterSpec("fpu1_fp_mul", "FPU1", 2, "floating point multiplies executed by Math 1"),
    CounterSpec("fpu1_fp_div", "FPU1", 3, "floating point divides executed by Math 1 (broken: reads 0)"),
    CounterSpec("fpu1_fp_muladd", "FPU1", 4, "floating point multiply-adds executed by Math 1"),
    CounterSpec("icu0", "ICU", 0, "number of type I instructions executed"),
    CounterSpec("icu1", "ICU", 1, "number of type II instructions executed"),
    CounterSpec("icache_reload", "SCU", 0, "data transfers from memory to the I-cache"),
    CounterSpec("dcache_reload", "SCU", 1, "data transfers from memory to the D-cache"),
    CounterSpec("dcache_store", "SCU", 2, "transfers of modified D-cache data back to memory"),
    CounterSpec("dma_read", "SCU", 3, "data transfers from memory to an I/O device"),
    CounterSpec("dma_write", "SCU", 4, "data transfers to memory from an I/O device"),
)

COUNTER_NAMES: tuple[str, ...] = tuple(spec.name for spec in COUNTER_LAYOUT)
_INDEX: dict[str, int] = {name: i for i, name in enumerate(COUNTER_NAMES)}

#: Counters the hardware bug zeroes out (§3).
BROKEN_COUNTERS: frozenset[str] = frozenset({"fpu0_fp_div", "fpu1_fp_div"})
#: Bank positions of the broken counters (shared with the batched store).
BROKEN_INDICES: tuple[int, ...] = tuple(_INDEX[name] for name in sorted(BROKEN_COUNTERS))
_BROKEN_INDICES = list(BROKEN_INDICES)

#: Flat labels in :meth:`HardwareMonitor.snapshot_vector` order.
FLAT_NAMES: tuple[str, ...] = tuple(
    f"{mode}.{name}" for mode in ("user", "system") for name in COUNTER_NAMES
)
#: Flat label → column of a counter row: the one name→column map every
#: row consumer (job records, interval rows, reports) goes through.
FLAT_INDEX: dict[str, int] = {name: i for i, name in enumerate(FLAT_NAMES)}


#: Number of counters in a bank (22 for the NAS selection).
BANK_SIZE = len(COUNTER_LAYOUT)
#: Width of one node's flat counter row (user bank then system bank).
ROW_SIZE = 2 * BANK_SIZE


def counter_index(name: str) -> int:
    """Position of a counter in a snapshot vector."""
    try:
        return _INDEX[name]
    except KeyError:
        raise KeyError(f"unknown counter {name!r}; see COUNTER_NAMES") from None


def flat_index(name: str) -> int:
    """Column of a flat label (``user.fxu0`` …) in a counter row."""
    try:
        return FLAT_INDEX[name]
    except KeyError:
        raise KeyError(f"unknown counter {name!r}; see FLAT_NAMES") from None


def flat_row(counts: Mapping[str, int]) -> np.ndarray:
    """Pack flat-labelled counts into an int64 counter row (absent
    counters are zero; an unknown label raises)."""
    row = np.zeros(ROW_SIZE, dtype=np.int64)
    for name, value in counts.items():
        row[flat_index(name)] = value
    return row


def rates_vector(amounts: Mapping[str, float]) -> np.ndarray:
    """Pack per-counter amounts into a bank-ordered float vector.

    The campaign fast path accrues counters as ``bank += vector * dt``;
    this is the constructor for those vectors.
    """
    vec = np.zeros(BANK_SIZE, dtype=np.float64)
    for name, amount in amounts.items():
        if amount < 0:
            raise ValueError(f"negative rate for {name}: {amount}")
        vec[counter_index(name)] = amount
    return vec


class CounterBank:
    """One mode's bank of 22 wrapping 32-bit counters.

    Values accumulate internally in float (event counts from the analytic
    model are fractional); reads quantize to integers and wrap modulo
    2³², which is what the collection daemon actually sees.
    """

    def __init__(self) -> None:
        self._values = np.zeros(len(COUNTER_LAYOUT), dtype=np.float64)

    def add(self, name: str, amount: float) -> None:
        if amount < 0:
            raise ValueError(f"cannot decrement counter {name} by {amount}")
        self._values[counter_index(name)] += amount

    def add_many(self, amounts: Mapping[str, float]) -> None:
        for name, amount in amounts.items():
            self.add(name, amount)

    def add_vector(self, vec: np.ndarray) -> None:
        """Accrue a bank-ordered event vector (campaign fast path)."""
        if vec.shape != self._values.shape:
            raise ValueError(f"expected shape {self._values.shape}, got {vec.shape}")
        self._values += vec

    def raw(self, name: str) -> float:
        """Unwrapped accumulated total (simulation-side ground truth)."""
        return float(self._values[counter_index(name)])

    def raw_vector(self) -> np.ndarray:
        """Copy of the unwrapped accumulator vector."""
        return self._values.copy()

    def hardware_read(self, name: str) -> int:
        """What the physical 32-bit register reads: wrapped, and zero for
        the broken divide counters.

        The cycles counter wraps every ≈64 s at 66.7 MHz, which is why
        RS2HPM's kernel extension sampled the registers continuously and
        accumulated into wide software counters (see :meth:`read`).
        """
        if name in BROKEN_COUNTERS:
            return 0
        return int(self._values[counter_index(name)]) % COUNTER_MODULUS

    def read(self, name: str) -> int:
        """The RS2HPM software counter: 64-bit accumulated value.

        Still zero for the broken divide counters — the accumulation
        can't recover events the hardware never reported.
        """
        if name in BROKEN_COUNTERS:
            return 0
        return int(self._values[counter_index(name)])

    def snapshot(self) -> dict[str, int]:
        """Read every software counter, as the RS2HPM daemon serves them.

        One vectorized cast instead of 22 scalar reads; ``astype`` and
        ``int()`` both truncate toward zero, so the dict is identical to
        the read-by-read construction.
        """
        vals = self._values.astype(np.int64)
        vals[_BROKEN_INDICES] = 0
        return dict(zip(COUNTER_NAMES, vals.tolist()))

    def snapshot_vector(self) -> np.ndarray:
        """Vectorized :meth:`snapshot`: bank-ordered int64, broken
        counters zeroed.  The campaign-scale collector uses this."""
        out = self._values.astype(np.int64)
        out[_BROKEN_INDICES] = 0
        return out

    def reset(self) -> None:
        self._values.fill(0.0)


def wrapped_delta(before: int, after: int) -> int:
    """Difference of two raw 32-bit hardware reads, tolerating one wrap.

    This is what the kernel extension computes on every fast sample
    before accumulating into the wide software counters.
    """
    for v in (before, after):
        if not 0 <= v < COUNTER_MODULUS:
            raise ValueError(f"counter read {v} out of 32-bit range")
    return (after - before) % COUNTER_MODULUS


def snapshot_delta(before: Mapping[str, int], after: Mapping[str, int]) -> dict[str, int]:
    """Per-counter difference of two software-counter snapshots."""
    missing = set(before) ^ set(after)
    if missing:
        raise ValueError(f"snapshots disagree on counters: {sorted(missing)}")
    out: dict[str, int] = {}
    for name in before:
        d = after[name] - before[name]
        if d < 0:
            raise ValueError(
                f"software counter {name} went backwards ({before[name]} -> {after[name]})"
            )
        out[name] = d
    return out


def execution_event_counts(result: ExecutionResult) -> dict[str, float]:
    """Map an executed block to the counter events it generates.

    Pure function shared by the phase-level monitor path and the
    campaign rate-vector builder, so both accrue identical events.
    """
    d = result.dispatch
    return {
        "fxu0": d.fxu0,
        "fxu1": d.fxu1,
        "dcache_mis": result.dcache_misses,
        "tlb_mis": result.tlb_misses,
        "cycles": result.cycles,
        "fpu0": d.fpu0,
        "fpu0_fp_add": d.fpu0_add,
        "fpu0_fp_mul": d.fpu0_mul,
        "fpu0_fp_div": d.fpu0_div,
        "fpu0_fp_muladd": d.fpu0_fma,
        "fpu1": d.fpu1,
        "fpu1_fp_add": d.fpu1_add,
        "fpu1_fp_mul": d.fpu1_mul,
        "fpu1_fp_div": d.fpu1_div,
        "fpu1_fp_muladd": d.fpu1_fma,
        "icu0": d.icu_type1,
        "icu1": d.icu_type2,
        "icache_reload": result.icache_reloads,
        "dcache_reload": result.dcache_reloads,
        "dcache_store": result.dcache_writebacks,
    }


class HardwareMonitor:
    """The per-CPU monitor: a user bank plus a system bank.

    Work executed on the node is accrued via :meth:`accrue` (CPU events
    from an :class:`~repro.power2.pipeline.ExecutionResult`) and
    :meth:`accrue_dma` (SCU DMA transfer events, which are not tied to a
    privilege mode in Table 1's selection — we bank them as user reads
    the way RS2HPM's system-wide reports did).
    """

    def __init__(self) -> None:
        self.banks: dict[Mode, CounterBank] = {
            Mode.USER: CounterBank(),
            Mode.SYSTEM: CounterBank(),
        }

    def accrue(self, result: ExecutionResult, mode: Mode = Mode.USER) -> None:
        """Account one executed block's events in ``mode``'s bank."""
        self.banks[mode].add_many(execution_event_counts(result))

    def accrue_raw(self, amounts: Mapping[str, float], mode: Mode) -> None:
        """Directly accrue counter events (paging, idle cycles, ...)."""
        self.banks[mode].add_many(amounts)

    def accrue_dma(self, *, reads: float = 0.0, writes: float = 0.0) -> None:
        """DMA transfer events from the I/O subsystem (message passing
        and disk traffic, §5)."""
        bank = self.banks[Mode.USER]
        if reads:
            bank.add("dma_read", reads)
        if writes:
            bank.add("dma_write", writes)

    def snapshot(self) -> dict[str, dict[str, int]]:
        """Both banks, keyed ``user.*`` / ``system.*`` like RS2HPM output."""
        return {mode.value: bank.snapshot() for mode, bank in self.banks.items()}

    def flat_snapshot(self) -> dict[str, int]:
        """RS2HPM's flat label form, e.g. ``user.fxu0``/``system.cycles``.

        The PBS prologue/epilogue takes one of these per node per job;
        profiling showed the per-name ``read()`` loop was a campaign
        hotspot, so both banks are quantized with one cast each (same
        truncation semantics, same insertion order).
        """
        vals = np.empty(2 * BANK_SIZE, dtype=np.int64)
        vals[:BANK_SIZE] = self.banks[Mode.USER]._values
        vals[BANK_SIZE:] = self.banks[Mode.SYSTEM]._values
        for idx in _BROKEN_INDICES:
            vals[idx] = 0
            vals[BANK_SIZE + idx] = 0
        return dict(zip(FLAT_NAMES, vals.tolist()))

    def snapshot_vector(self, out: np.ndarray | None = None) -> np.ndarray:
        """Both banks as one int64 vector ordered like :data:`FLAT_NAMES`
        (user bank then system bank) — the collector's fast path.

        Pass ``out`` (shape ``(2·BANK_SIZE,)``, int64) to write in place
        and skip the allocations; profiling showed the per-sample
        collector loop dominated by exactly these temporaries.
        """
        if out is None:
            out = np.empty(2 * BANK_SIZE, dtype=np.int64)
        elif out.shape != (2 * BANK_SIZE,):
            raise ValueError(f"out must have shape ({2 * BANK_SIZE},)")
        out[:BANK_SIZE] = self.banks[Mode.USER]._values  # casts to int64
        out[BANK_SIZE:] = self.banks[Mode.SYSTEM]._values
        for idx in _BROKEN_INDICES:
            out[idx] = 0
            out[BANK_SIZE + idx] = 0
        return out

    def reset(self) -> None:
        for bank in self.banks.values():
            bank.reset()


def table1() -> Iterable[tuple[str, str, str]]:
    """Rows for regenerating Table 1: (label, group[slot], description)."""
    for spec in COUNTER_LAYOUT:
        label = ("fpop." if spec.name.startswith(("fpu0_fp_", "fpu1_fp_")) else "user.") + (
            spec.name.split("_", 1)[1] if spec.name.startswith(("fpu0_fp_", "fpu1_fp_")) else spec.name
        )
        yield label, f"{spec.group}[{spec.slot}]", spec.description
