"""Tests for the simulation engine: clock, ordering, run modes."""

import pytest
from hypothesis import given, strategies as st

from repro.sim import Simulator, SimulationError, StopSimulation


def test_initial_time_defaults_to_zero():
    assert Simulator().now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    done = []

    def proc(sim):
        yield sim.timeout(5.0)
        done.append(sim.now)

    sim.process(proc(sim))
    sim.run()
    assert done == [5.0]


def test_run_until_time_sets_clock_exactly():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)

    sim.process(proc(sim))
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_time_does_not_fire_later_events():
    sim = Simulator()
    fired = []

    def proc(sim):
        yield sim.timeout(5.0)
        fired.append("early")
        yield sim.timeout(10.0)
        fired.append("late")

    sim.process(proc(sim))
    sim.run(until=7.0)
    assert fired == ["early"]
    # later event still pending; continue run
    sim.run(until=20.0)
    assert fired == ["early", "late"]


def test_run_until_past_raises():
    sim = Simulator()
    sim.run(until=50.0)
    # NaN compares false with every time, so it is no horizon either.
    for until in (10.0, float("nan")):
        with pytest.raises(SimulationError):
            sim.run(until=until)
    assert sim.now == 50.0


def test_run_until_event_returns_value():
    sim = Simulator()

    def producer(sim):
        yield sim.timeout(3.0)
        return "result"

    proc = sim.process(producer(sim))
    assert sim.run(until=proc) == "result"
    assert sim.now == 3.0


def test_run_until_event_reraises_failure():
    sim = Simulator()

    def boom(sim):
        yield sim.timeout(1.0)
        raise ValueError("boom")

    proc = sim.process(boom(sim))
    with pytest.raises(ValueError, match="boom"):
        sim.run(until=proc)


def test_run_until_event_never_triggering_raises():
    sim = Simulator()
    never = sim.event()

    def proc(sim):
        yield sim.timeout(1.0)

    sim.process(proc(sim))
    with pytest.raises(SimulationError):
        sim.run(until=never)


def test_exhausted_run_until_event_detaches_the_absorber():
    """Regression: run(until=event) used to leave its failure-absorbing
    callback attached after exhausting the heap, so a *later* failure of
    that event was silently defused instead of raised."""
    sim = Simulator()
    never = sim.event()

    def proc(sim):
        yield sim.timeout(1.0)

    sim.process(proc(sim))
    with pytest.raises(SimulationError):
        sim.run(until=never)

    never.fail(RuntimeError("late failure"))
    with pytest.raises(RuntimeError, match="late failure"):
        sim.run()


def test_stop_simulation_during_run_until_event_detaches_the_absorber():
    sim = Simulator()
    target = sim.event()

    def stopper(sim):
        yield sim.timeout(1.0)
        raise StopSimulation

    sim.process(stopper(sim))
    assert sim.run(until=target) is None

    target.fail(RuntimeError("failed after stop"))
    with pytest.raises(RuntimeError, match="failed after stop"):
        sim.run()


def test_run_until_failing_event_raises_exactly_once():
    """The double-raise path: step() must stay silent (the absorber defuses
    the failure) so run() is the single place the exception surfaces."""
    sim = Simulator()
    target = sim.event()

    def failer(sim):
        yield sim.timeout(1.0)
        target.fail(RuntimeError("boom"))

    sim.process(failer(sim))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run(until=target)
    # The failure was delivered and defused; a further run() is clean.
    assert sim.run() is None


def test_unhandled_process_exception_raises_from_run():
    sim = Simulator()

    def boom(sim):
        yield sim.timeout(1.0)
        raise RuntimeError("unhandled")

    sim.process(boom(sim))
    with pytest.raises(RuntimeError, match="unhandled"):
        sim.run()


def test_same_time_events_fifo_order():
    sim = Simulator()
    order = []

    def proc(sim, tag):
        yield sim.timeout(1.0)
        order.append(tag)

    for tag in "abcde":
        sim.process(proc(sim, tag))
    sim.run()
    assert order == list("abcde")


def test_step_on_empty_heap_raises():
    with pytest.raises(SimulationError):
        Simulator().step()


def test_peek_reports_next_event_time():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(4.0)

    sim.process(proc(sim))
    sim.step()  # process initialization event at t=0
    assert sim.peek() == 4.0


def test_stop_simulation_exits_run():
    sim = Simulator()
    log = []

    def stopper(sim):
        yield sim.timeout(2.0)
        log.append("stopping")
        raise StopSimulation

    def other(sim):
        yield sim.timeout(5.0)
        log.append("should not run")

    sim.process(stopper(sim))
    sim.process(other(sim))
    sim.run()
    assert log == ["stopping"]
    assert sim.now == 2.0


def test_negative_delay_rejected():
    sim = Simulator()
    for delay in (-1.0, float("nan")):
        with pytest.raises(ValueError):
            sim.timeout(delay)
        event = sim.event()
        with pytest.raises(SimulationError):
            event.succeed(delay=delay)
        with pytest.raises(SimulationError):
            event.fail(RuntimeError("late"), delay=delay)
        assert not event.triggered
    assert len(sim) == 0
    sim.timeout(float("inf"))  # an infinite delay stays legal


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_clock_is_monotone_over_random_timeouts(delays):
    """Property: the simulation clock never goes backwards."""
    sim = Simulator()
    observed = []

    def waiter(sim, delay):
        yield sim.timeout(delay)
        observed.append(sim.now)

    for delay in delays:
        sim.process(waiter(sim, delay))
    sim.run()
    assert observed == sorted(observed)
    assert len(observed) == len(delays)


@given(st.lists(st.one_of(st.integers(0, 40).map(lambda q: q * 225.0),
                          st.floats(min_value=0.0, max_value=10 * 900.0)),
                min_size=1, max_size=40))
def test_events_fire_in_time_order(delays):
    """Property: firing order sorts by time, FIFO within equal times, for
    near and far delays alike (quarter-hour multiples up to 10 x 900 s make
    exact ties common)."""
    sim = Simulator()
    fired = []
    for tag, delay in enumerate(delays):
        sim.timeout(delay, tag).callbacks.append(
            lambda event: fired.append((sim.now, event.value)))
    assert len(sim) == len(delays)
    sim.run()
    assert fired == sorted((delay, tag) for tag, delay in enumerate(delays))
    assert len(sim) == 0


# -- empty-heap peek ----------------------------------------------------------

def test_peek_on_empty_heap_raises():
    with pytest.raises(SimulationError, match="empty event heap"):
        Simulator().peek()


def test_peek_on_exhausted_heap_raises():
    sim = Simulator()

    def proc(sim):
        yield sim.timeout(1.0)

    sim.process(proc(sim))
    sim.run()
    with pytest.raises(SimulationError):
        sim.peek()
