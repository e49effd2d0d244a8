"""The 15-minute system-wide collection cron job.

§3: "At 15-minute intervals, the cron daemon runs a script to collect
data from all the SP2 nodes which are available for user jobs and stores
this data for later analysis."  The collector polls every node daemon,
stores one :class:`SystemSample` per interval, and differences it
against the previous sample into one 44-wide interval row; the analysis
layer builds the daily/15-minute rate series behind Figure 1 and the
5.7 Gflops 15-minute maximum from those rows.

Storage is an ``(n_nodes, 44)`` int64 matrix per sample (user bank then
system bank, see :data:`repro.power2.counters.FLAT_NAMES`); a 270-day
campaign takes ~26k samples × 144 nodes, so the per-sample path must be
vectorized (profiled: the dict-based path was 30× slower).
"""

from __future__ import annotations

import dataclasses
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.hpm.daemon import DaemonUnavailable, NodeDaemon
from repro.power2.counters import FLAT_NAMES, ROW_SIZE, flat_index
from repro.sim.engine import Simulator
from repro.sim.periodic import PeriodicTask

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.telemetry.bus import EventBus
    from repro.tracing.tracer import Tracer

#: The paper's sampling cadence.
SAMPLE_INTERVAL_SECONDS = 15 * 60.0

_AVAILABLE = operator.attrgetter("available")


@dataclass(frozen=True)
class SystemSample:
    """One cron pass: per-node counter snapshots at one instant."""

    time: float
    node_ids: tuple[int, ...]
    #: Shape (len(node_ids), 44): user bank then system bank per row.
    matrix: np.ndarray
    #: Node ids that did not answer this pass (telemetry's node-gap
    #: rule alerts on them).
    missing: tuple[int, ...] = ()

    def nodes(self) -> list[int]:
        return sorted(self.node_ids)

    def snapshot_for(self, node_id: int) -> dict[str, int]:
        """One node's flat-labelled snapshot (compatibility view)."""
        row = self.matrix[self.node_ids.index(node_id)]
        return {name: int(v) for name, v in zip(FLAT_NAMES, row)}


@dataclass(frozen=True, eq=False)
class IntervalCounts:
    """Summed counter deltas between two consecutive samples."""

    start: float
    end: float
    #: The deltas summed over the nodes present in both samples: a
    #: read-only int64 row in :data:`FLAT_NAMES` order.
    row: np.ndarray
    n_nodes: int
    #: True when this interval spans one or more dropped collector
    #: passes: its counts are real (the counters kept accumulating) but
    #: cover more than one cadence period, so per-interval *rates* are
    #: effectively interpolated across the gap.
    interpolated: bool = False

    @property
    def seconds(self) -> float:
        return self.end - self.start

    @property
    def totals(self) -> dict[str, int]:
        """The nonzero summed deltas by flat label, built on each access."""
        return {name: v for name, v in zip(FLAT_NAMES, self.row.tolist()) if v}


def _sample_delta(before: SystemSample, after: SystemSample) -> IntervalCounts:
    """Counter deltas between two samples, summed over the nodes present
    in both (a node missing from either is skipped, as the real scripts
    had to do).  A counter that decreased raises :class:`ValueError`
    naming the node, the counter and both sample times."""
    if before.node_ids == after.node_ids:
        common = before.node_ids
        diff = after.matrix - before.matrix
    else:
        common = sorted(set(before.node_ids) & set(after.node_ids))
        bi = [before.node_ids.index(n) for n in common]
        ai = [after.node_ids.index(n) for n in common]
        diff = after.matrix[ai] - before.matrix[bi]
    if (diff < 0).any():
        i, col = np.argwhere(diff < 0)[0]
        raise ValueError(
            f"software counter {FLAT_NAMES[col]} on node {common[i]} went "
            f"backwards between samples at t={before.time:g} and t={after.time:g}"
        )
    row = diff.sum(axis=0)
    row.flags.writeable = False
    return IntervalCounts(start=before.time, end=after.time, row=row, n_nodes=len(common))


@dataclass(frozen=True, eq=False)
class IntervalTable:
    """A series' intervals as columns: entry *i* of every array is
    interval *i* (all arrays read-only)."""

    start: np.ndarray
    end: np.ndarray
    #: ``(n_intervals, 44)`` int64 summed deltas.
    rows: np.ndarray
    n_nodes: np.ndarray

    def __len__(self) -> int:
        return len(self.start)

    @property
    def seconds(self) -> np.ndarray:
        return self.end - self.start


class SampleSeries:
    """Interval algebra over an ordered run of :class:`SystemSample`.

    Base of :class:`SystemCollector` (which *produces* samples on the
    simulation clock); the parallel merge builds a plain series from the
    rebased shard samples.  Each sample is differenced against its
    predecessor once, when it is appended, and the interval is kept as
    one 44-wide row — the only interval the analysis layer and telemetry
    (live and replayed) ever read.
    """

    def __init__(
        self,
        samples: "list[SystemSample] | None" = None,
        *,
        cadence: float | None = None,
    ) -> None:
        self.samples: list[SystemSample] = []
        #: Nominal sample spacing; intervals spanning well over one
        #: cadence period (dropped passes) are flagged interpolated.
        #: ``None`` disables flagging.
        self.cadence = cadence
        # Interval rows live in a buffer grown by doubling; the
        # per-interval scalars in lists.
        self._rows = np.zeros((0, ROW_SIZE), dtype=np.int64)
        self._starts: list[float] = []
        self._ends: list[float] = []
        self._n_nodes: list[int] = []
        self._interpolated: list[bool] = []
        self._table: IntervalTable | None = None
        for sample in samples or ():
            self.append(sample)

    def append(self, sample: SystemSample) -> IntervalCounts | None:
        """Store a sample and the interval it closes (``None`` for the
        first sample).  With a known cadence, an interval spanning a
        collector gap carries ``interpolated=True``."""
        prev = self.samples[-1] if self.samples else None
        self.samples.append(sample)
        if prev is None:
            return None
        iv = _sample_delta(prev, sample)
        if self.cadence is not None and iv.seconds > self.cadence * 1.5:
            iv = dataclasses.replace(iv, interpolated=True)
        n = len(self._starts)
        if n == len(self._rows):
            grown = np.zeros((max(64, 2 * n), ROW_SIZE), dtype=np.int64)
            grown[:n] = self._rows[:n]
            self._rows = grown
        self._rows[n] = iv.row
        self._starts.append(iv.start)
        self._ends.append(iv.end)
        self._n_nodes.append(iv.n_nodes)
        self._interpolated.append(iv.interpolated)
        self._table = None
        return iv

    def interval_table(self) -> IntervalTable:
        """Every interval so far as columns (cached until the next
        :meth:`append`)."""
        if self._table is None:
            n = len(self._starts)
            columns = [
                np.array(self._starts, dtype=np.float64),
                np.array(self._ends, dtype=np.float64),
                self._rows[:n].view(),
                np.array(self._n_nodes, dtype=np.int64),
            ]
            for col in columns:
                col.flags.writeable = False
            self._table = IntervalTable(*columns)
        return self._table

    def intervals(self) -> list[IntervalCounts]:
        """Counter deltas between consecutive samples, summed over the
        nodes present in both (a node missing from either is skipped for
        that interval, as the real scripts had to do)."""
        return [
            IntervalCounts(start, end, row, n_nodes, interpolated)
            for start, end, row, n_nodes, interpolated in zip(
                self._starts,
                self._ends,
                self.interval_table().rows,
                self._n_nodes,
                self._interpolated,
            )
        ]

    def gap_intervals(self) -> list[IntervalCounts]:
        """The intervals that span dropped collector passes."""
        return [iv for iv in self.intervals() if iv.interpolated]

    def interval_matrix(self, counter: str) -> tuple[np.ndarray, np.ndarray]:
        """(interval end times, per-interval summed counts) for one
        counter — the fast path for time-series analysis.  An unknown
        counter name raises :class:`KeyError`."""
        t = self.interval_table()
        return t.end.copy(), t.rows[:, flat_index(counter)].astype(float)


class SystemCollector(SampleSeries):
    """Collects and stores system-wide samples on the simulation clock."""

    def __init__(
        self,
        daemons: list[NodeDaemon],
        *,
        interval: float = SAMPLE_INTERVAL_SECONDS,
        bus: "EventBus | None" = None,
        tracer: "Tracer | None" = None,
    ) -> None:
        if not daemons:
            raise ValueError("collector needs at least one node daemon")
        super().__init__(cadence=interval)
        self.daemons = daemons
        self.interval = interval
        self.bus = bus
        #: Span tracer; each cron pass becomes one span on the machine
        #: timeline (sample publication happens inside it, so alerts
        #: fired from the sample carry this span's id).
        self.tracer = tracer
        #: Fault-injection hook: when set, the next cron pass is lost
        #: (no sample stored) — the §3 pipeline's missing data files.
        self._drop_next = False
        self.passes_dropped = 0
        # Batched fast path: when every daemon's node shares one counter
        # store (every SP2Machine's nodes do), a cron pass is a single
        # masked sweep over the store instead of a per-daemon loop.
        self._store = None
        self._slots: list[int] = []
        self._ids = tuple(d.node_id for d in daemons)
        nodes = [d.interface.node for d in daemons]
        store = getattr(nodes[0], "_store", None)
        if store is not None and all(
            getattr(n, "_store", None) is store for n in nodes
        ):
            self._store = store
            self._slots = [n._slot for n in nodes]

    def attach(self, sim: Simulator) -> PeriodicTask:
        """Arm the cron job; also takes the t=0 baseline sample."""
        self.collect(sim.now)
        return PeriodicTask(sim, self.interval, lambda s: self.collect(s.now), name="rs2hpm-cron")

    def drop_next_pass(self) -> None:
        """Suppress the next cron pass (fault injection)."""
        self._drop_next = True

    def collect(self, now: float) -> SystemSample | None:
        """One cron pass over all node daemons.

        Returns ``None`` (and stores nothing) when the pass was dropped
        by fault injection; the next successful pass's interval then
        spans the gap and is flagged interpolated.
        """
        if self._drop_next:
            self._drop_next = False
            self.passes_dropped += 1
            if self.bus is not None:
                from repro.telemetry.bus import TOPIC_COLLECTOR_GAP, CollectorGap

                self.bus.publish(
                    TOPIC_COLLECTOR_GAP,
                    CollectorGap(time=now, passes_dropped=self.passes_dropped),
                )
            return None
        if self.tracer is None or not self.tracer.enabled:
            return self._collect(now)
        from repro.tracing.span import CAT_HPM

        with self.tracer.span("cron-pass", CAT_HPM) as span:
            sample = self._collect(now)
            span.args["nodes"] = len(sample.node_ids)
            span.args["missing"] = len(sample.missing)
        return sample

    def _collect(self, now: float) -> SystemSample:
        if self._store is not None:
            ids, missing, matrix = self._collect_batched(now)
        else:
            ids, missing, matrix = self._collect_scalar(now)
        sample = SystemSample(
            time=now, node_ids=tuple(ids), matrix=matrix, missing=tuple(missing)
        )
        interval = self.append(sample)
        self._publish(sample, interval)
        return sample

    def _collect_scalar(self, now: float):
        """Per-daemon polling loop (detached scalar nodes)."""
        matrix = np.empty((len(self.daemons), len(FLAT_NAMES)), dtype=np.int64)
        ids: list[int] = []
        missing: list[int] = []
        row = 0
        for daemon in self.daemons:
            try:
                daemon.request_vector(now, out=matrix[row])
            except DaemonUnavailable:
                missing.append(daemon.node_id)
                continue
            ids.append(daemon.node_id)
            row += 1
        matrix = matrix[:row].copy() if row < len(self.daemons) else matrix
        return ids, missing, matrix

    def _collect_batched(self, now: float):
        """One masked sweep over the shared counter store.

        Unreachable nodes are masked *out of the sweep entirely* — the
        scalar path never syncs a node whose daemon is down, and a down
        node's clock advancing in two pieces instead of one would change
        its accumulators bitwise.  Gap flagging (``missing``) follows the
        same daemon order as the scalar loop.  When every daemon answers
        (the common pass) the precomputed ids and slots are used as is.
        """
        if all(map(_AVAILABLE, self.daemons)):
            ids, missing, slots = self._ids, (), self._slots
        else:
            ids, missing, slots = [], [], []
            for daemon, node_id, slot in zip(self.daemons, self._ids, self._slots):
                if daemon.available:
                    ids.append(node_id)
                    slots.append(slot)
                else:
                    missing.append(node_id)
        self._store.sync_slots(slots, now)
        matrix = self._store.snapshot_matrix(slots)
        return ids, missing, matrix

    def _publish(self, sample: SystemSample, interval: IntervalCounts | None) -> None:
        """Feed the streaming side: the sample and the interval it closed."""
        if self.bus is None:
            return
        from repro.telemetry.bus import TOPIC_SAMPLE, SampleTaken

        self.bus.publish(
            TOPIC_SAMPLE, SampleTaken(time=sample.time, sample=sample, interval=interval)
        )
