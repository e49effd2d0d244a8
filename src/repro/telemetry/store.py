"""Compact in-memory time-series store for the live telemetry feed.

The paper stores every 15-minute interval and derives each figure from
that record; the store works the same way:

* **every point is kept** — each metric holds two growable ``float64``
  columns (times, values) that double when full, so an append is
  amortized O(1).  Memory therefore grows with the campaign: 16 B per
  point, about 17 KB per simulated day for the eleven-metric catalog
  (4.6 MB at 270 days);
* **aggregates are exact and computed when asked** — count, EWMA, min,
  max and the p50/p90/p99 quantiles come from the full column
  (:func:`summarize`) when a query reads them, never from streaming
  estimates;
* **``capacity`` limits only the served window** — windowed queries,
  ``size`` and ``dropped`` cover the last ``capacity`` points, so an
  operator view stays bounded however long the campaign runs.

The long-running service layer (:mod:`repro.ops`) also needs **snapshot
isolation**: a query handler that awaits between reads must see one
consistent view of a series even while the ingest side keeps appending.
:meth:`MetricSeries.snapshot` returns an immutable
:class:`SeriesSnapshot` whose arrays are read-only views of the column
prefix — later appends write past that prefix, or into a regrown
buffer, so the views never change — and caches it until the next
append; :meth:`MetricStore.snapshot` does it store-wide.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

#: Default served-window length per metric (≈43 days of 15-minute samples).
DEFAULT_CAPACITY = 4096

#: EWMA smoothing factor (≈ a 2.5-hour memory at 15-minute cadence).
EWMA_ALPHA = 0.1

#: Quantiles every summary reports, exact over the whole series.
QUANTILES = (0.5, 0.9, 0.99)


@dataclass(frozen=True)
class MetricSummary:
    """Campaign-wide aggregate view of one metric."""

    name: str
    count: int
    dropped: int
    last: float
    ewma: float
    min: float
    max: float
    quantiles: dict[float, float]


@dataclass(frozen=True)
class SeriesSnapshot:
    """An immutable point-in-time view of one series.

    ``all_times``/``all_values`` hold every point appended so far,
    chronologically; the served window is what follows the first
    ``dropped`` of them.  The aggregates cover every point, so a reader
    can mix raw-window math and campaign-wide statistics without ever
    observing a concurrent append in between — the isolation contract
    the asyncio query handlers rely on.
    """

    name: str
    dropped: int
    ewma: float
    min: float
    max: float
    quantiles: dict[float, float]
    all_times: np.ndarray = field(repr=False)
    all_values: np.ndarray = field(repr=False)

    @property
    def count(self) -> int:
        return len(self.all_times)

    @property
    def size(self) -> int:
        return self.count - self.dropped

    @property
    def times(self) -> np.ndarray:
        return self.all_times[self.dropped:]

    @property
    def values(self) -> np.ndarray:
        return self.all_values[self.dropped:]

    def latest(self) -> tuple[float, float] | None:
        if not self.count:
            return None
        return float(self.all_times[-1]), float(self.all_values[-1])

    def window(
        self, t0: float | None = None, t1: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Chronological ``(times, values)`` of the served window with
        ``t0 <= t < t1``."""
        times = self.times
        lo = 0 if t0 is None else int(np.searchsorted(times, t0))
        hi = len(times) if t1 is None else int(np.searchsorted(times, t1))
        return times[lo:hi], self.values[lo:hi]

    def summary(self) -> MetricSummary:
        last = self.latest()
        return MetricSummary(
            name=self.name,
            count=self.count,
            dropped=self.dropped,
            last=last[1] if last else 0.0,
            ewma=self.ewma,
            min=self.min,
            max=self.max,
            quantiles=dict(self.quantiles),
        )


def summarize(
    name: str, times: np.ndarray, values: np.ndarray, dropped: int = 0
) -> SeriesSnapshot:
    """Freeze a series' full columns into a snapshot with exact aggregates.

    The EWMA runs the recurrence in append order; the quantiles come
    from ``np.percentile`` over every point.  The first ``dropped``
    points lie outside the served window.  An empty series reports
    zeros.
    """
    times.flags.writeable = False
    values.flags.writeable = False
    if len(values):
        points = values.tolist()
        ewma = points[0]
        for v in points[1:]:
            ewma = EWMA_ALPHA * v + (1 - EWMA_ALPHA) * ewma
        lo, hi = float(values.min()), float(values.max())
        quantiles = np.percentile(values, [q * 100.0 for q in QUANTILES]).tolist()
    else:
        ewma = lo = hi = 0.0
        quantiles = [0.0] * len(QUANTILES)
    return SeriesSnapshot(
        name=name,
        dropped=dropped,
        ewma=ewma,
        min=lo,
        max=hi,
        quantiles=dict(zip(QUANTILES, quantiles)),
        all_times=times,
        all_values=values,
    )


def _grown(column: np.ndarray, n: int) -> np.ndarray:
    out = np.empty(max(64, 2 * n), dtype=np.float64)
    out[:n] = column[:n]
    return out


class MetricSeries:
    """Every point of one metric, in two growable columns."""

    def __init__(self, name: str, *, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.name = name
        self.capacity = capacity
        self._times = np.empty(0, dtype=np.float64)
        self._values = np.empty(0, dtype=np.float64)
        self.count = 0  # total points ever appended
        self._last_time = float("-inf")
        self._snapshot: SeriesSnapshot | None = None

    def append(self, time: float, value: float) -> None:
        """Amortized O(1): store one point."""
        if time < self._last_time:
            raise ValueError(
                f"{self.name}: appends must be time-ordered "
                f"({time} < {self._last_time})"
            )
        self._last_time = time
        n = self.count
        if n == len(self._times):
            self._times = _grown(self._times, n)
            self._values = _grown(self._values, n)
        self._times[n] = time
        self._values[n] = value
        self.count = n + 1
        self._snapshot = None

    @property
    def size(self) -> int:
        """Points in the served window."""
        return min(self.count, self.capacity)

    @property
    def dropped(self) -> int:
        """Points older than the served window."""
        return self.count - self.size

    def snapshot(self) -> SeriesSnapshot:
        """Read-only views of every point plus exact aggregates (cached
        until the next :meth:`append`)."""
        if self._snapshot is None:
            n = self.count
            self._snapshot = summarize(
                self.name, self._times[:n], self._values[:n], self.dropped
            )
        return self._snapshot

    def window(
        self, t0: float | None = None, t1: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Chronological ``(times, values)`` of the served window with
        ``t0 <= t < t1``."""
        return self.snapshot().window(t0, t1)

    def latest(self) -> tuple[float, float] | None:
        if self.count == 0:
            return None
        return float(self._times[self.count - 1]), float(self._values[self.count - 1])

    def summary(self) -> MetricSummary:
        return self.snapshot().summary()


@dataclass(frozen=True)
class StoreSnapshot:
    """Immutable view of a whole store (or a named subset of it)."""

    series: dict[str, SeriesSnapshot]

    def names(self) -> list[str]:
        return sorted(self.series)

    def __contains__(self, name: str) -> bool:
        return name in self.series

    def __getitem__(self, name: str) -> SeriesSnapshot:
        return self.series[name]

    @property
    def points_dropped(self) -> int:
        """Points older than the served windows, summed over series."""
        return sum(s.dropped for s in self.series.values())


class MetricStore:
    """Named metric series, created lazily on first append."""

    def __init__(self, *, capacity: int = DEFAULT_CAPACITY) -> None:
        self.capacity = capacity
        self._series: dict[str, MetricSeries] = {}

    def series(self, name: str) -> MetricSeries:
        s = self._series.get(name)
        if s is None:
            s = self._series[name] = MetricSeries(name, capacity=self.capacity)
        return s

    def append(self, name: str, time: float, value: float) -> None:
        self.series(name).append(time, value)

    def names(self) -> list[str]:
        return sorted(self._series)

    def snapshot(self, names: list[str] | None = None) -> StoreSnapshot:
        """Immutable view of every series (or just ``names``, skipping
        unknown ones) — one consistent read for handlers that await."""
        picked = self._series if names is None else {
            n: self._series[n] for n in names if n in self._series
        }
        return StoreSnapshot(series={n: s.snapshot() for n, s in picked.items()})

    @property
    def points_dropped(self) -> int:
        """Points older than the served windows, summed over series."""
        return sum(s.dropped for s in self._series.values())

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def window(
        self, name: str, t0: float | None = None, t1: float | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        if name not in self._series:
            return np.empty(0), np.empty(0)
        return self._series[name].window(t0, t1)

    def latest(self, name: str) -> tuple[float, float] | None:
        s = self._series.get(name)
        return s.latest() if s else None

    def summary(self, name: str) -> MetricSummary:
        if name not in self._series:
            raise KeyError(f"unknown metric {name!r}; have {self.names()}")
        return self._series[name].summary()
