"""Job specifications, states, and accounting records."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence, runtime_checkable

import numpy as np

from repro.power2.counters import FLAT_INDEX, FLAT_NAMES, ROW_SIZE


@runtime_checkable
class ExecutionProfile(Protocol):
    """What PBS needs to know to run a job (implemented by
    :class:`repro.workload.profile.JobProfile`).

    The profile describes a job's steady-state behaviour on *each* of its
    dedicated nodes: per-second counter rate vectors for the user and
    system banks (bank-ordered, see
    :func:`repro.power2.counters.rates_vector`), the wall time the job
    will hold its nodes, and its per-node memory demand.
    """

    @property
    def walltime_seconds(self) -> float: ...

    @property
    def memory_bytes_per_node(self) -> float: ...

    @property
    def user_rates(self) -> np.ndarray: ...

    @property
    def system_rates(self) -> np.ndarray: ...

    @property
    def mflops_per_node(self) -> float: ...


class JobState(enum.Enum):
    QUEUED = "Q"
    RUNNING = "R"
    EXITED = "E"
    #: Killed by a node failure with no retries left (never requeued).
    KILLED = "K"


@dataclass
class JobSpec:
    """One submission to the PBS server."""

    job_id: int
    user: int
    app_name: str
    nodes_requested: int
    submit_time: float
    profile: ExecutionProfile
    state: JobState = JobState.QUEUED
    #: How many times a node failure has sent this job back to the queue.
    retries: int = 0

    def __post_init__(self) -> None:
        if self.nodes_requested <= 0:
            raise ValueError("jobs must request at least one node")
        if self.submit_time < 0:
            raise ValueError("submit time cannot be negative")

    @property
    def is_wide(self) -> bool:
        """Jobs over 64 nodes needed the queues drained (§6)."""
        return self.nodes_requested > 64


#: Columns of the paper's flop count: adds, multiplies and (broken,
#: always zero) divides on both FPUs; fma columns count twice (§3).
_FLOP_COLS = tuple(
    FLAT_INDEX[f"user.fpu{unit}_fp_{op}"] for op in ("add", "mul", "div") for unit in (0, 1)
)
_FMA_COLS = (FLAT_INDEX["user.fpu0_fp_muladd"], FLAT_INDEX["user.fpu1_fp_muladd"])
_USER_FXU_COLS = (FLAT_INDEX["user.fxu0"], FLAT_INDEX["user.fxu1"])
_SYSTEM_FXU_COLS = (FLAT_INDEX["system.fxu0"], FLAT_INDEX["system.fxu1"])


def row_flops(row: Sequence[int]) -> int:
    """The paper's flop count from one counter row (``FLAT_NAMES``
    order): adds + multiplies + 2 × fma, summed over both FPUs
    (divides unreported, §3)."""
    return sum(row[i] for i in _FLOP_COLS) + 2 * sum(row[i] for i in _FMA_COLS)


def row_system_user_fxu_ratio(row: Sequence[int]) -> float:
    """§6's paging signature from one counter row: system-mode vs
    user-mode FXU counts (``inf`` for system work with no user work)."""
    user = row[_USER_FXU_COLS[0]] + row[_USER_FXU_COLS[1]]
    system = row[_SYSTEM_FXU_COLS[0]] + row[_SYSTEM_FXU_COLS[1]]
    if user == 0:
        return float("inf") if system else 0.0
    return system / user


@dataclass(eq=False)
class JobRecord:
    """Epilogue-time accounting for one finished job.

    ``deltas`` holds the per-node prologue→epilogue counter differences
    the RS2HPM prologue/epilogue scripts wrote (§3): a read-only
    ``(len(node_ids), 44)`` int64 array, row *i* for ``node_ids[i]``,
    columns in :data:`~repro.power2.counters.FLAT_NAMES` order.  It
    defaults to all zeros.  The column sum over nodes is taken once, at
    construction, and every derived rate reads it.  Records compare by
    identity.
    """

    job_id: int
    user: int
    app_name: str
    nodes_requested: int
    node_ids: tuple[int, ...]
    submit_time: float
    start_time: float
    end_time: float
    deltas: np.ndarray | None = None

    def __post_init__(self) -> None:
        shape = (len(self.node_ids), ROW_SIZE)
        if self.deltas is None:
            self.deltas = np.zeros(shape, dtype=np.int64)
        deltas = np.asarray(self.deltas, dtype=np.int64)
        if deltas.shape != shape:
            raise ValueError(
                f"job {self.job_id}: counter deltas have shape {deltas.shape}, "
                f"expected {shape}"
            )
        deltas.flags.writeable = False
        self.deltas = deltas
        total = deltas.sum(axis=0)
        total.flags.writeable = False
        self._total = total

    @property
    def walltime_seconds(self) -> float:
        return self.end_time - self.start_time

    @property
    def queue_wait_seconds(self) -> float:
        return self.start_time - self.submit_time

    @property
    def node_seconds(self) -> float:
        return self.walltime_seconds * len(self.node_ids)

    @property
    def summed_row(self) -> np.ndarray:
        """Counter deltas summed over the job's nodes: the cached,
        read-only int64 44-vector."""
        return self._total

    def summed_deltas(self) -> dict[str, int]:
        """Counter deltas summed over the job's nodes, flat-labelled."""
        return dict(zip(FLAT_NAMES, self._total.tolist()))

    @property
    def counter_deltas(self) -> dict[int, dict[str, int]]:
        """Per-node flat-labelled deltas, built on each access (a view
        of :attr:`deltas` for reports and inspection)."""
        return {
            nid: dict(zip(FLAT_NAMES, row))
            for nid, row in zip(self.node_ids, self.deltas.tolist())
        }

    @staticmethod
    def flops_from_deltas(deltas: Mapping[str, int]) -> float:
        """The paper's flop count from flat-labelled counters (see
        :func:`row_flops`)."""
        return row_flops([deltas.get(name, 0) for name in FLAT_NAMES])

    @property
    def total_mflops(self) -> float:
        """Whole-job Mflops rate (Figure 4's y-axis for 16-node jobs)."""
        wall = self.walltime_seconds
        if wall <= 0:
            return 0.0
        return row_flops(self._total.tolist()) / wall / 1e6

    @property
    def mflops_per_node(self) -> float:
        """Per-node Mflops rate (Figure 3's y-axis)."""
        if not self.node_ids:
            return 0.0
        return self.total_mflops / len(self.node_ids)

    @property
    def flops_per_memory_inst(self) -> float:
        """§7: 'The ratio of flops to memory references was 1.0' for
        the batch jobs (memory ≈ FXU0+FXU1, the §5 approximation)."""
        d = self._total.tolist()
        fxu = d[_USER_FXU_COLS[0]] + d[_USER_FXU_COLS[1]]
        if fxu == 0:
            return 0.0
        return row_flops(d) / fxu

    @property
    def fma_flop_fraction(self) -> float:
        """Fraction of this job's flops produced by fma instructions."""
        d = self._total.tolist()
        fma = d[_FMA_COLS[0]] + d[_FMA_COLS[1]]
        flops = row_flops(d)
        return 2.0 * fma / flops if flops > 0 else 0.0

    @property
    def system_user_fxu_ratio(self) -> float:
        """§6's paging signature: system-mode vs user-mode FXU counts."""
        return row_system_user_fxu_ratio(self._total.tolist())
