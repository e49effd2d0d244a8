"""Discrete-event kernel: ordering, cancellation, horizons."""

import pytest

from repro.sim.engine import Simulator


class TestScheduling:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        fired = []
        sim.schedule(3.0, lambda s: fired.append("c"))
        sim.schedule(1.0, lambda s: fired.append("a"))
        sim.schedule(2.0, lambda s: fired.append("b"))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_ties_fire_fifo(self):
        sim = Simulator()
        fired = []
        for tag in "abc":
            sim.schedule(5.0, lambda s, t=tag: fired.append(t))
        sim.run()
        assert fired == ["a", "b", "c"]

    def test_same_time_events_fire_in_scheduling_order(self):
        """Ties break on scheduling order, whatever the time order of
        the calls and however schedule/schedule_at are mixed."""
        sim = Simulator()
        fired = []
        plan = [(2.0, "a"), (1.0, "b"), (2.0, "c"), (1.0, "d"), (2.0, "e"), (1.0, "f")]
        for i, (t, tag) in enumerate(plan):
            if i % 2:
                sim.schedule_at(t, lambda s, tag=tag: fired.append(tag))
            else:
                sim.schedule(t, lambda s, tag=tag: fired.append(tag))
        sim.run()
        assert fired == ["b", "d", "f", "a", "c", "e"]

    def test_same_time_event_from_handler_fires_after_queued_ties(self):
        sim = Simulator()
        fired = []

        def first(s):
            fired.append("first")
            s.schedule(0.0, lambda s2: fired.append("spawned"))

        sim.schedule(1.0, first)
        sim.schedule(1.0, lambda s: fired.append("queued"))
        sim.run()
        assert fired == ["first", "queued", "spawned"]

    def test_clock_advances_to_event_time(self):
        sim = Simulator()
        seen = []
        sim.schedule(2.5, lambda s: seen.append(s.now))
        sim.run()
        assert seen == [2.5]
        assert sim.now == 2.5

    def test_handler_can_schedule_more(self):
        sim = Simulator()
        fired = []

        def first(s):
            fired.append("first")
            s.schedule(1.0, lambda s2: fired.append("second"))

        sim.schedule(1.0, first)
        sim.run()
        assert fired == ["first", "second"]
        assert sim.now == 2.0

    def test_negative_delay_rejected(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-0.1, lambda s: None)

    def test_schedule_at_in_past_rejected(self):
        sim = Simulator()
        sim.schedule(1.0, lambda s: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(0.5, lambda s: None)


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        sim = Simulator()
        fired = []
        ev = sim.schedule(1.0, lambda s: fired.append("x"))
        ev.cancel()
        sim.run()
        assert fired == []

    def test_peek_skips_cancelled(self):
        sim = Simulator()
        ev = sim.schedule(1.0, lambda s: None)
        sim.schedule(2.0, lambda s: None)
        ev.cancel()
        assert sim.peek() == 2.0


    def test_peek_and_step_skip_cancelled_heads(self):
        sim = Simulator()
        fired = []
        heads = [sim.schedule(1.0, lambda s, i=i: fired.append(i)) for i in range(3)]
        sim.schedule(1.0, lambda s: fired.append("live-tie"))
        later = sim.schedule(2.0, lambda s: fired.append("later"))
        for ev in heads:
            ev.cancel()
        assert sim.peek() == 1.0
        assert sim.step() is True
        assert fired == ["live-tie"] and sim.now == 1.0
        later.cancel()
        assert sim.peek() is None
        assert sim.step() is False
        assert fired == ["live-tie"] and sim.events_processed == 1

    def test_step_skips_cancelled_head_without_peek(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda s: fired.append("dead")).cancel()
        sim.schedule(3.0, lambda s: fired.append("live"))
        assert sim.step() is True
        assert fired == ["live"] and sim.now == 3.0


class TestRun:
    def test_until_stops_before_later_events(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda s: fired.append(1))
        sim.schedule(10.0, lambda s: fired.append(10))
        sim.run(until=5.0)
        assert fired == [1]
        assert sim.now == 5.0  # clock parked at the horizon

    def test_event_exactly_on_horizon_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(5.0, lambda s: fired.append(5))
        sim.run(until=5.0)
        assert fired == [5]

    def test_max_events(self):
        sim = Simulator()
        fired = []
        for i in range(10):
            sim.schedule(float(i + 1), lambda s, i=i: fired.append(i))
        with pytest.warns(RuntimeWarning, match="truncated"):
            sim.run(max_events=3)
        assert fired == [0, 1, 2]

    def test_step_returns_false_on_empty_queue(self):
        assert Simulator().step() is False

    def test_events_processed_counter(self):
        sim = Simulator()
        for _ in range(4):
            sim.schedule(1.0, lambda s: None)
        sim.run()
        assert sim.events_processed == 4

    def test_empty_run_is_noop(self):
        sim = Simulator()
        sim.run()
        assert sim.now == 0.0


class TestTruncation:
    def test_exhaustion_warns_and_reports_next_event(self):
        sim = Simulator()
        for i in range(5):
            sim.schedule(float(i + 1), lambda s: None)
        with pytest.warns(RuntimeWarning, match="max_events=2"):
            sim.run(max_events=2)
        assert sim.events_processed == 2

    def test_exhaustion_publishes_bus_event(self):
        from repro.telemetry.bus import TOPIC_SIM_TRUNCATED, EventBus

        sim = Simulator()
        sim.bus = EventBus()
        seen = []
        sim.bus.subscribe(TOPIC_SIM_TRUNCATED, seen.append)
        for i in range(5):
            sim.schedule(float(i + 1), lambda s: None)
        with pytest.warns(RuntimeWarning):
            sim.run(max_events=3)
        (ev,) = seen
        assert ev.events_processed == 3
        assert ev.time == 3.0
        assert ev.next_event_time == 4.0

    def test_draining_exactly_max_events_is_not_truncation(self):
        import warnings as _warnings

        sim = Simulator()
        for i in range(3):
            sim.schedule(float(i + 1), lambda s: None)
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            sim.run(max_events=3)
        assert sim.events_processed == 3

    def test_events_beyond_horizon_are_not_truncation(self):
        import warnings as _warnings

        sim = Simulator()
        sim.schedule(1.0, lambda s: None)
        sim.schedule(10.0, lambda s: None)
        with _warnings.catch_warnings():
            _warnings.simplefilter("error")
            sim.run(until=5.0, max_events=1)
        assert sim.now == 5.0
