"""DES kernel: events, timeouts, processes, conditions, determinism."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import (
    AllOf,
    AnyOf,
    Event,
    Interrupt,
    Process,
    SimulationError,
    Simulator,
    Timeout,
)


class TestEvent:
    def test_initial_state(self, sim):
        ev = sim.event()
        assert not ev.triggered
        assert not ev.processed

    def test_succeed_delivers_value(self, sim):
        ev = sim.event()
        ev.succeed(42)
        assert ev.triggered and ev.ok
        assert ev.value == 42

    def test_value_before_trigger_raises(self, sim):
        ev = sim.event()
        with pytest.raises(RuntimeError):
            _ = ev.value

    def test_double_trigger_rejected(self, sim):
        ev = sim.event()
        ev.succeed(1)
        with pytest.raises(RuntimeError):
            ev.succeed(2)
        with pytest.raises(RuntimeError):
            ev.fail(ValueError("x"))

    def test_fail_requires_exception(self, sim):
        ev = sim.event()
        with pytest.raises(TypeError):
            ev.fail("not an exception")

    def test_callback_after_processing_runs_immediately(self, sim):
        ev = sim.event()
        ev.succeed("done")
        sim.run()
        hits = []
        ev.add_callback(lambda e: hits.append(e.value))
        assert hits == ["done"]

    def test_delayed_succeed(self, sim):
        ev = sim.event()
        ev.succeed("late", delay=500)
        sim.run()
        assert sim.now == 500

    def test_negative_delay_rejected(self, sim):
        ev = sim.event()
        with pytest.raises(ValueError):
            ev.succeed(delay=-1)


class TestTimeout:
    def test_fires_at_exact_time(self, sim):
        t = sim.timeout(1234, value="v")
        sim.run()
        assert sim.now == 1234
        assert t.value == "v"

    def test_zero_delay_allowed(self, sim):
        t = sim.timeout(0)
        sim.run()
        assert t.processed and sim.now == 0

    def test_negative_delay_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.timeout(-5)

    def test_ordering_between_timeouts(self, sim):
        order = []

        def waiter(d, tag):
            yield sim.timeout(d)
            order.append(tag)

        sim.process(waiter(30, "c"))
        sim.process(waiter(10, "a"))
        sim.process(waiter(20, "b"))
        sim.run()
        assert order == ["a", "b", "c"]

    def test_fifo_tiebreak_at_same_time(self, sim):
        order = []

        def waiter(tag):
            yield sim.timeout(10)
            order.append(tag)

        for tag in "abcde":
            sim.process(waiter(tag))
        sim.run()
        assert order == list("abcde")


class TestProcess:
    def test_return_value(self, sim):
        def body():
            yield sim.timeout(1)
            return 99

        proc = sim.process(body())
        sim.run()
        assert proc.value == 99

    def test_close_stops_suspended_processes(self, sim):
        """close() ends every process still parked at a yield (running
        its finally clauses) and leaves finished ones alone."""
        log = []

        def parked():
            try:
                yield sim.event()  # never triggered
            finally:
                log.append("parked closed")

        def finished():
            yield 1
            log.append("finished")

        p = sim.process(parked())
        sim.process(finished())
        sim.run()
        assert log == ["finished"] and p.is_alive
        sim.close()
        assert log == ["finished", "parked closed"]

    def test_requires_generator(self, sim):
        with pytest.raises(TypeError):
            Process(sim, lambda: None)  # type: ignore[arg-type]

    def test_join_another_process(self, sim):
        def child():
            yield sim.timeout(50)
            return "child-result"

        def parent():
            result = yield sim.process(child())
            return ("got", result)

        p = sim.process(parent())
        sim.run()
        assert p.value == ("got", "child-result")
        assert sim.now == 50

    def test_exception_propagates_to_joiner(self, sim):
        def child():
            yield sim.timeout(5)
            raise ValueError("boom")

        def parent():
            try:
                yield sim.process(child())
            except ValueError as exc:
                return str(exc)

        p = sim.process(parent())
        sim.run()
        assert p.value == "boom"

    def test_unhandled_failure_raises_at_run(self, sim):
        def body():
            yield sim.timeout(1)
            raise RuntimeError("unseen")

        sim.process(body())
        with pytest.raises(SimulationError):
            sim.run()

    def test_yielding_non_event_fails_process(self, sim):
        def body():
            yield "not an event"  # type: ignore[misc]

        sim.process(body())
        with pytest.raises(SimulationError):
            sim.run()

    def test_yielding_int_sleeps(self, sim):
        # a bare non-negative int is a flattened sleep: same semantics
        # as yielding sim.timeout(n), without building the Timeout
        log = []

        def body():
            got = yield 42
            log.append((sim.now, got))

        sim.process(body())
        sim.run()
        assert log == [(42, None)]

    def test_yielding_negative_int_fails_process(self, sim):
        def body():
            yield -1

        sim.process(body())
        with pytest.raises(SimulationError):
            sim.run()

    def test_is_alive_lifecycle(self, sim):
        def body():
            yield sim.timeout(10)

        p = sim.process(body())
        assert p.is_alive
        sim.run()
        assert not p.is_alive

    def test_interrupt_wakes_waiter(self, sim):
        log = []

        def sleeper():
            try:
                yield sim.timeout(1000)
            except Interrupt as i:
                log.append(("interrupted", i.cause, sim.now))

        def poker(target):
            yield sim.timeout(10)
            target.interrupt("wake up")

        t = sim.process(sleeper())
        sim.process(poker(t))
        sim.run()
        assert log == [("interrupted", "wake up", 10)]

    def test_interrupt_finished_process_rejected(self, sim):
        def body():
            yield sim.timeout(1)

        p = sim.process(body())
        sim.run()
        with pytest.raises(RuntimeError):
            p.interrupt()


class TestConditions:
    def test_any_of_returns_first(self, sim):
        def body():
            result = yield sim.any_of([sim.timeout(30, "slow"), sim.timeout(10, "fast")])
            return list(result.values())

        p = sim.process(body())
        sim.run()
        assert p.value == ["fast"]
        # AnyOf fires at the first event; the sim continues to drain the
        # second timeout afterwards.

    def test_all_of_waits_for_all(self, sim):
        def body():
            result = yield sim.all_of([sim.timeout(30, "a"), sim.timeout(10, "b")])
            return sorted(v for v in result.values())

        p = sim.process(body())
        sim.run()
        assert p.value == ["a", "b"]
        assert sim.now == 30

    def test_empty_all_of_fires_immediately(self, sim):
        def body():
            yield sim.all_of([])
            return sim.now

        p = sim.process(body())
        sim.run()
        assert p.value == 0

    def test_any_of_failure_propagates(self, sim):
        def failer():
            yield sim.timeout(5)
            raise KeyError("k")

        def body():
            try:
                yield sim.any_of([sim.process(failer()), sim.timeout(100)])
            except KeyError:
                return "caught"

        p = sim.process(body())
        sim.run()
        assert p.value == "caught"


class TestDefusal:
    """Failure-propagation fixes: consumed failures are defused, raced
    late failures are not (see the "Defusal semantics" section of
    repro.sim.core)."""

    def test_interrupted_waiter_defuses_stale_failure(self, sim):
        # The waiter abandons `failing` when interrupted; the stale
        # callback must take responsibility for the later failure so the
        # run does not abort.
        failing = sim.event()
        log = []

        def waiter():
            try:
                yield failing
            except Interrupt:
                log.append("interrupted")
                yield sim.timeout(100)

        def poker(target):
            yield sim.timeout(5)
            target.interrupt("move on")
            failing.fail(RuntimeError("stale"))

        w = sim.process(waiter())
        sim.process(poker(w))
        sim.run()  # must not raise SimulationError
        assert log == ["interrupted"]
        assert failing.defused

    def test_raced_any_of_late_failure_surfaces(self, sim):
        # The AnyOf already triggered when the slow branch fails: nobody
        # consumes the failure, so it must escalate instead of being
        # silently swallowed by the condition's stale callback.
        def failer():
            yield sim.timeout(30)
            raise KeyError("late")

        def body():
            yield sim.any_of([sim.timeout(10), sim.process(failer())])
            yield sim.timeout(100)  # outlive the late failure

        sim.process(body())
        with pytest.raises(SimulationError, match="unhandled event failure"):
            sim.run()

    def test_consumed_any_of_failure_is_defused(self, sim):
        failer_proc = []

        def failer():
            yield sim.timeout(5)
            raise KeyError("k")

        def body():
            failer_proc.append(sim.process(failer()))
            try:
                yield sim.any_of([failer_proc[0], sim.timeout(100)])
            except KeyError:
                return "caught"

        p = sim.process(body())
        sim.run()
        assert p.value == "caught"
        assert failer_proc[0].defused

    def test_explicit_defuse_suppresses_escalation(self, sim):
        ev = sim.event()
        ev.fail(RuntimeError("expected"))
        ev.defuse()
        sim.run()  # must not raise
        assert ev.defused

    def test_undefused_failure_still_raises_with_callbacks(self, sim):
        # A registered callback alone is not consumption: only throwing
        # into a waiter (or an explicit defuse) is.
        ev = sim.event()
        ev.add_callback(lambda e: None)
        ev.fail(RuntimeError("nobody consumed this"))
        with pytest.raises(SimulationError, match="unhandled event failure"):
            sim.run()


@pytest.mark.parametrize("mode", [True, False], ids=["fastpath", "legacy"])
class TestRunUntilBoundary:
    """``until`` is inclusive and the clock is monotonic — on both
    scheduler paths."""

    def test_record_at_exactly_until_fires(self, mode):
        sim = Simulator(direct_resume=mode)
        fired = []

        def body():
            yield 400
            fired.append(sim.now)

        sim.process(body())
        end = sim.run(until=400)
        assert fired == [400]
        assert end == 400 and sim.now == 400

    def test_record_just_past_until_stays_on_heap(self, mode):
        sim = Simulator(direct_resume=mode)
        fired = []

        def body():
            yield 401
            fired.append(sim.now)

        sim.process(body())
        sim.run(until=400)
        assert fired == []
        assert sim.now == 400
        assert sim.peek() == 401
        # resuming picks the record up exactly where it was left
        sim.run()
        assert fired == [401]

    def test_past_horizon_never_rewinds_clock(self, mode):
        sim = Simulator(direct_resume=mode)

        def body():
            yield 600

        sim.process(body())
        sim.run(until=500)
        assert sim.now == 500
        # horizon in the past, record still pending: clock must hold
        assert sim.run(until=100) == 500
        assert sim.now == 500
        # same with an empty heap
        sim.run()
        assert sim.now == 600
        assert sim.run(until=100) == 600

    def test_defused_records_do_not_disturb_the_clock(self, mode):
        sim = Simulator(direct_resume=mode)
        ev = sim.event()
        ev.fail(RuntimeError("expected"))
        ev.defuse()
        sim.timeout(300)
        sim.run(until=200)  # pops the defused record at t=0
        assert sim.now == 200
        sim.run(until=400)
        assert sim.now == 400

    def test_zero_horizon_fires_time_zero_records(self, mode):
        sim = Simulator(direct_resume=mode)
        fired = []

        def body():
            yield 0
            fired.append(sim.now)

        sim.process(body())
        sim.run(until=0)
        assert fired == [0] and sim.now == 0


class TestRun:
    def test_run_until_horizon(self, sim):
        sim.timeout(1000)
        end = sim.run(until=400)
        assert end == 400
        assert sim.peek() == 1000

    def test_run_empty_heap_with_until_advances_clock(self, sim):
        sim.run(until=777)
        assert sim.now == 777

    def test_peek_empty(self, sim):
        assert sim.peek() is None

    def test_nested_run_rejected(self, sim):
        def body():
            sim.run()
            yield sim.timeout(1)

        sim.process(body())
        with pytest.raises(SimulationError):
            sim.run()


class TestDeterminism:
    @settings(max_examples=25, deadline=None)
    @given(delays=st.lists(st.integers(0, 1000), min_size=1, max_size=30))
    def test_identical_runs_produce_identical_traces(self, delays):
        def execute():
            sim = Simulator()
            trace = []

            def waiter(d, i):
                yield sim.timeout(d)
                trace.append((sim.now, i))

            for i, d in enumerate(delays):
                sim.process(waiter(d, i))
            sim.run()
            return trace

        assert execute() == execute()

    @settings(max_examples=25, deadline=None)
    @given(delays=st.lists(st.integers(0, 1000), min_size=1, max_size=30))
    def test_clock_never_goes_backwards(self, delays):
        sim = Simulator()
        stamps = []

        def waiter(d):
            yield sim.timeout(d)
            stamps.append(sim.now)

        for d in delays:
            sim.process(waiter(d))
        sim.run()
        assert stamps == sorted(stamps)
