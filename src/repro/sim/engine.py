"""The simulation engine: clock, event heap and run loop."""

from __future__ import annotations

import heapq
from itertools import count
from time import perf_counter
from typing import Any, Generator, Optional

from repro.sim.process import (
    AllOf,
    AnyOf,
    Event,
    PRIORITY_NORMAL,
    Process,
    Timeout,
)

__all__ = [
    "Simulator",
    "SimulationError",
    "StopSimulation",
    "WHEEL_TICK",
    "default_tracer",
    "set_default_tracer",
]

# Coalesced timer wheel: far-future homogeneous timeouts (think times,
# backoffs, periodic pumps) dominate the heap at scale.  Instead of one heap
# entry each, they are appended to a per-tick bucket; a single *marker* entry
# per active bucket sits in the heap at the bucket's start time with an
# internal priority that sorts strictly before every real event.  When a
# marker reaches the top, the bucket's entries — which kept their original
# ``(time, priority, eid)`` triples — are pushed back into the (now much
# smaller) heap.  Pop order is therefore exactly the no-wheel order: the
# total order on ``(time, priority, eid)`` does not depend on when an entry
# physically entered the heap.
WHEEL_TICK = 900.0  # seconds per bucket
_WHEEL_MIN_DELAY = 2.0 * WHEEL_TICK  # guarantees the marker lands in the future
PRIORITY_WHEEL = -1  # internal: sorts before PRIORITY_URGENT (0)

# The kernel's tracer slot.  `repro.sim` must stay importable without
# `repro.obs`, so the tracer is duck-typed: anything with the
# on_schedule/on_event/on_resume/on_process_start/on_process_end methods of
# `repro.obs.trace.SimTracer` works.  With no tracer installed the run loop
# pays one `is None` check per step.
_default_tracer = None


def set_default_tracer(tracer) -> None:
    """Install ``tracer`` on every subsequently constructed :class:`Simulator`.

    Pass ``None`` to uninstall.  Diagnostics-only: simulators on the report
    path run untraced unless `repro profile`/the benchmark harness wraps
    them (see :func:`repro.obs.trace.traced_simulation`).
    """
    global _default_tracer
    _default_tracer = tracer


def default_tracer():
    """The currently installed default tracer (``None`` when untraced)."""
    return _default_tracer


class SimulationError(RuntimeError):
    """Raised for kernel-level misuse (e.g. scheduling into the past)."""


class StopSimulation(Exception):
    """Raise inside a callback/process to stop :meth:`Simulator.run` early."""


class Simulator:
    """A discrete-event simulator with a deterministic event order.

    Events scheduled for the same time fire in (priority, FIFO) order, which
    makes every run fully reproducible for a fixed seed.  Time is a float in
    arbitrary units; the TeraGrid substrate uses seconds.
    """

    def __init__(
        self, start_time: float = 0.0, tracer=None, wheel: bool = True
    ) -> None:
        self._now = float(start_time)
        self._heap: list[tuple[float, int, int, Event]] = []
        self._eid = count()
        self._active_process: Optional[Process] = None
        self._tracer = tracer if tracer is not None else _default_tracer
        # Timer wheel state: bucket index -> list of deferred heap entries.
        # ``wheel=False`` disables coalescing: the reference kernel the
        # equivalence tests compare against.
        self._wheel_enabled = bool(wheel)
        self._wheel: dict[int, list[tuple[float, int, int, Event]]] = {}
        self._wheel_count = 0
        # Per-run id source: the last id minted of each kind.
        self._last_ids: dict[str, int] = {}

    # -- introspection -------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently being resumed, if any."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event.

        Raises :class:`SimulationError` when no events remain — an empty
        heap has no "next event time", and silently returning a sentinel
        (or leaking ``IndexError``) hid bugs in callers.
        """
        self._settle()
        if not self._heap:
            raise SimulationError("peek() on an empty event heap")
        return self._heap[0][0]

    def next_id(self, kind: str) -> int:
        """Mint the next id of ``kind`` (``"job"``, ``"workflow"``, ...).

        Each kind counts from 1 in the order its ids are minted, so a run's
        ids depend only on the run, never on what the process simulated
        before it.
        """
        last = self._last_ids.get(kind, 0) + 1
        self._last_ids[kind] = last
        return last

    def __len__(self) -> int:
        # Logical pending-event count: heap entries minus one marker per
        # active wheel bucket, plus the bucketed entries themselves.
        return len(self._heap) - len(self._wheel) + self._wheel_count

    # -- event factories ------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event, to be succeeded/failed by user code."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event that triggers ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: Generator[Event, Any, Any], name: Optional[str] = None
    ) -> Process:
        """Start ``generator`` as a process at the current time."""
        return Process(self, generator, name=name)

    def all_of(self, events) -> AllOf:
        """Event that triggers when all of ``events`` have triggered."""
        return AllOf(self, events)

    def any_of(self, events) -> AnyOf:
        """Event that triggers when any of ``events`` has triggered."""
        return AnyOf(self, events)

    # -- scheduling ------------------------------------------------------------
    def _schedule(
        self, event: Event, delay: float = 0.0, priority: int = PRIORITY_NORMAL
    ) -> None:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        when = self._now + delay
        if (
            self._wheel_enabled
            and priority == PRIORITY_NORMAL
            and delay >= _WHEEL_MIN_DELAY
            and type(event) is Timeout
        ):
            # delay >= 2 ticks guarantees bucket_start > now, so the marker
            # itself is never scheduled into the past.
            bucket = int(when // WHEEL_TICK)
            entries = self._wheel.get(bucket)
            if entries is None:
                self._wheel[bucket] = entries = []
                heapq.heappush(
                    self._heap,
                    (bucket * WHEEL_TICK, PRIORITY_WHEEL, next(self._eid), bucket),  # type: ignore[arg-type]
                )
            entries.append((when, priority, next(self._eid), event))
            self._wheel_count += 1
        else:
            heapq.heappush(self._heap, (when, priority, next(self._eid), event))
        if self._tracer is not None:
            self._tracer.on_schedule(len(self))

    def _settle(self) -> None:
        """Flush wheel buckets whose marker has reached the top of the heap.

        Bucketed entries kept their original ``(time, priority, eid)``
        triples, and the marker priority sorts before every real event at
        the bucket's start time, so flushing here — before any pop the
        caller observes — reproduces the exact no-wheel pop order.
        """
        heap = self._heap
        while heap and heap[0][1] == PRIORITY_WHEEL:
            _when, _priority, _eid, bucket = heapq.heappop(heap)
            entries = self._wheel.pop(bucket)  # type: ignore[arg-type]
            self._wheel_count -= len(entries)
            push = heapq.heappush
            for entry in entries:
                push(heap, entry)

    # -- run loop ----------------------------------------------------------------
    def step(self) -> None:
        """Process exactly one event (advancing the clock to it)."""
        if not self._heap:
            raise SimulationError("step() on an empty event heap")
        self._settle()
        when, _priority, _eid, event = heapq.heappop(self._heap)
        self._now = when
        tracer = self._tracer
        if tracer is None:
            event._run_callbacks()
        else:
            started = perf_counter()
            try:
                event._run_callbacks()
            finally:
                tracer.on_event(event, when, perf_counter() - started)
        if not event.ok and not event.defused:
            raise event.value

    def run(self, until: Optional[float | Event] = None) -> Any:
        """Run the simulation.

        ``until`` may be:

        * ``None`` — run until the event heap is empty;
        * a number — run until the clock reaches that time (the clock is set
          to exactly ``until`` on return, even if no event fires then);
        * an :class:`Event` — run until that event has been processed, and
          return its value (re-raising its exception on failure).
        """
        if until is None:
            while self._heap:
                try:
                    self.step()
                except StopSimulation:
                    return None
            return None

        if isinstance(until, Event):
            target = until
            if target.processed:
                if not target.ok:
                    raise target.value
                return target.value
            # Absorb a failure so step() does not double-raise; run() raises.
            def _absorb(e: Event) -> None:
                e.defused = True

            target._add_callback(_absorb)
            try:
                while self._heap and not target.processed:
                    try:
                        self.step()
                    except StopSimulation:
                        return None
            finally:
                # If we leave without processing the target (heap exhausted,
                # StopSimulation, or an unrelated failure propagating out of
                # step()), detach the absorber: otherwise a later failure of
                # the event would be silently defused with nobody waiting.
                if not target.processed and target.callbacks is not None:
                    try:
                        target.callbacks.remove(_absorb)
                    except ValueError:
                        pass
            if not target.processed:
                raise SimulationError(
                    "run(until=event) exhausted the event heap before the "
                    "event triggered"
                )
            if not target.ok:
                raise target.value
            return target.value

        horizon = float(until)
        if horizon < self._now:
            raise SimulationError(
                f"run(until={horizon}) is in the past (now={self._now})"
            )
        while True:
            # Settle before testing the horizon: a wheel marker's time is the
            # bucket *start*, which may precede every real entry in it.
            self._settle()
            if not self._heap or self._heap[0][0] > horizon:
                break
            try:
                self.step()
            except StopSimulation:
                return None
        self._now = horizon
        return None
