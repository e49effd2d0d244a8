"""A clock that reads in reference seconds, immune to host speed swings.

The shared 2-vCPU hosts this benchmark runs on change speed by up to
1.7x in phases lasting a few seconds: a fixed pure-Python loop takes
0.14 s in one phase and 0.25 s in the next, and process CPU time swings
with wall time, so neither ``perf_counter`` nor ``process_time`` gives a
steady reading.  Per-run medians of a repeated 30-day campaign spread
by 33% in host seconds (quartile distance over median) and by 8% on
this clock.

How it works: every ``PERIOD_S`` of host time a ``SIGALRM`` handler runs
a fixed probe loop and times it.  Host time between two ticks is
converted to reference time at the speed known at the start of the
segment, ``REFERENCE_PROBE_S / probe`` with ``probe`` the latest probe
duration, so the clock is continuous and monotone, and a phase change
shows within one period.  (The fastest or the median of the last few
probes tracks worse: repeated 15-day campaigns spread by 12% and 8% on
those clocks, by 7% on this one, and by 14% in host seconds.)  Time
spent inside the probe is excluded, so the probes do not count towards
what is measured.

A probe of 0.3 ms almost never sees the hypervisor take the vCPU away,
yet the stolen stretches add up: a sharded operation that lost 1.3 s of
vCPU time to steal read 14% longer than its neighbours on the probes
alone.  So each segment is also scaled by the share of the vCPUs' busy
time that was not stolen (``/proc/stat``) in the segment before it.

Only the main thread runs the handler, and only between bytecodes, so
the measured program sees no change of state.  Forked workers do not
inherit the interval timer.  Work that only waits (the parent of a
worker pool) is still read at the speed the parent's probe measures.
"""

from __future__ import annotations

import signal
import time

#: Host seconds between probes.
PERIOD_S = 0.05
#: A typical probe duration on the reference box (CPython 3.11, 2 vCPU),
#: so a reference second reads close to a host second there.
REFERENCE_PROBE_S = 0.00033


def probe() -> float:
    """Time one fixed unit of interpreter work (dict, int and call mix)."""
    start = time.perf_counter()
    table: dict[int, int] = {}
    acc = 0
    for j in range(1500):
        key = j & 63
        table[key] = table.get(key, 0) + j
        acc += j * j % 7
    return time.perf_counter() - start


def cpu_ticks() -> tuple[int, int]:
    """Busy and stolen ticks of all vCPUs so far (``/proc/stat``); zeros
    where the file does not exist, which turns the steal correction off."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
    except OSError:
        return 0, 0
    user, nice, system, _idle, _iowait, irq, softirq, steal = map(int, fields[1:9])
    return user + nice + system + irq + softirq, steal


class RefClock:
    """Reference-second clock driven by periodic probes.

    ``now()`` may be called from anywhere, including wrappers that run
    while the handler is pending: the state is one tuple swapped in a
    single assignment, so a reader never sees half an update.
    """

    def __init__(self) -> None:
        rate = REFERENCE_PROBE_S / min(probe() for _ in range(3))
        self._ticks = cpu_ticks()
        # (reference time at mark, host time at mark, reference s per host s)
        self._state = (0.0, time.perf_counter(), rate)
        self._previous_handler = None
        self._running = False

    def now(self) -> float:
        ref, mark, rate = self._state
        return ref + (time.perf_counter() - mark) * rate

    def _tick(self, signum, frame) -> None:
        ref, mark, rate = self._state
        ref += (time.perf_counter() - mark) * rate
        busy, stolen = cpu_ticks()
        busy, stolen = busy - self._ticks[0], stolen - self._ticks[1]
        self._ticks = (self._ticks[0] + busy, self._ticks[1] + stolen)
        kept = busy / (busy + stolen) if busy + stolen > 0 else 1.0
        duration = probe()
        self._state = (ref, time.perf_counter(), REFERENCE_PROBE_S / duration * kept)

    def start(self) -> "RefClock":
        if not self._running:
            self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
            self._running = True
        return self

    def stop(self) -> None:
        if self._running:
            signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
            signal.signal(signal.SIGALRM, self._previous_handler or signal.SIG_DFL)
            self._running = False
