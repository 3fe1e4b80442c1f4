"""Events, processes and condition events for the simulation kernel.

The design follows the classic generator-coroutine pattern: a *process* is a
Python generator that ``yield``\\ s :class:`Event` objects.  When a yielded
event triggers, the kernel resumes the generator with the event's value (or
throws the event's exception into it).  A :class:`Process` is itself an
:class:`Event` that triggers when the generator finishes, so processes can
wait on one another and be composed with :class:`AllOf` / :class:`AnyOf`.

Failure semantics: a failed event delivered to at least one waiter is
*defused*; a failed event that nobody handles is re-raised by
:meth:`repro.sim.engine.Simulator.step` so that errors never pass silently.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Generator, Iterable, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

__all__ = [
    "Event",
    "Timeout",
    "Process",
    "Interrupt",
    "ConditionEvent",
    "AllOf",
    "AnyOf",
]

# Scheduling priorities: events scheduled at the same simulated time fire in
# priority order, then in scheduling (FIFO) order.  URGENT is used for process
# initialization and interrupts so they preempt same-time timeouts.
PRIORITY_URGENT = 0
PRIORITY_NORMAL = 1


class Event:
    """A one-shot occurrence that callbacks (and processes) can wait on.

    An event goes through three stages: *pending* (created, not triggered),
    *triggered* (given a value/exception and scheduled on the event heap) and
    *processed* (its callbacks have run).  Events may only trigger once.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_triggered", "_processed", "defused")

    def __init__(self, sim: "Simulator") -> None:
        self.sim = sim
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = None
        self._ok: bool = True
        self._triggered = False
        self._processed = False
        #: set when a failure has been delivered to (or absorbed by) a waiter
        self.defused = False

    # -- state inspection -------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has been given a value or an exception."""
        return self._triggered

    @property
    def processed(self) -> bool:
        """True once the event's callbacks have been executed."""
        return self._processed

    @property
    def ok(self) -> bool:
        """True if the event succeeded (valid only after triggering)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or exception, if it failed)."""
        return self._value

    # -- triggering --------------------------------------------------------
    def succeed(self, value: Any = None, delay: float = 0.0) -> "Event":
        """Trigger the event successfully with ``value``.

        ``delay`` schedules the callbacks that far in the future; the event
        counts as triggered immediately (it cannot be triggered twice).
        """
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        # Schedule first: a rejected delay must leave the event untriggered.
        self.sim._schedule(self, delay=delay)
        self._triggered = True
        self._value = value
        self._ok = True
        return self

    def fail(self, exception: BaseException, delay: float = 0.0) -> "Event":
        """Trigger the event with an exception.

        Waiting processes have the exception thrown into them; if nobody is
        waiting, the simulator raises it at the top level.
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() requires an exception, got {exception!r}")
        if self._triggered:
            raise RuntimeError(f"{self!r} has already been triggered")
        self.sim._schedule(self, delay=delay)
        self._triggered = True
        self._value = exception
        self._ok = False
        return self

    # -- kernel hooks -------------------------------------------------------
    def _add_callback(self, callback: Callable[["Event"], None]) -> None:
        if self.callbacks is None:
            # Already processed: deliver immediately (still at current time).
            callback(self)
        else:
            self.callbacks.append(callback)

    def _run_callbacks(self) -> None:
        callbacks, self.callbacks = self.callbacks, None
        self._processed = True
        assert callbacks is not None
        for callback in callbacks:
            callback(self)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        state = (
            "processed"
            if self._processed
            else ("triggered" if self._triggered else "pending")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"


class Timeout(Event):
    """An event that triggers automatically after ``delay`` simulated time."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulator", delay: float, value: Any = None) -> None:
        if not delay >= 0:
            raise ValueError(f"timeout delay must be >= 0: {delay!r}")
        super().__init__(sim)
        self.delay = float(delay)
        self._triggered = True
        self._value = value
        sim._schedule(self, delay=self.delay)


class Initialize(Event):
    """Internal event that starts a process at its creation time."""

    __slots__ = ()

    def __init__(self, sim: "Simulator", process: "Process") -> None:
        super().__init__(sim)
        self._triggered = True
        self.callbacks.append(process._resume)  # type: ignore[union-attr]
        sim._schedule(self, delay=0.0, priority=PRIORITY_URGENT)


class Interrupt(Exception):
    """Thrown into a process by :meth:`Process.interrupt`."""

    @property
    def cause(self) -> Any:
        return self.args[0] if self.args else None


class Process(Event):
    """Wraps a generator; triggers (as an event) when the generator returns.

    The generator's ``return`` value becomes the event value.  Exceptions
    escaping the generator fail the event; if no other process is waiting on
    it, the simulation run raises the exception.
    """

    __slots__ = ("_generator", "_target", "name")

    def __init__(
        self,
        sim: "Simulator",
        generator: Generator[Event, Any, Any],
        name: Optional[str] = None,
    ) -> None:
        if not hasattr(generator, "throw"):
            raise TypeError(f"process() requires a generator, got {generator!r}")
        super().__init__(sim)
        self._generator = generator
        self._target: Optional[Event] = None
        self.name = name or getattr(generator, "__name__", "process")
        # Duck-typed tracer slot (see repro.sim.engine): the kernel must not
        # import repro.obs, so hooks guard on the simulator's attribute.
        tracer = getattr(sim, "_tracer", None)
        if tracer is not None:
            tracer.on_process_start(self, sim.now)
        Initialize(sim, self)

    @property
    def is_alive(self) -> bool:
        """True while the underlying generator has not finished."""
        return not self._triggered

    def interrupt(self, cause: Any = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        Interrupting a finished process is an error; an interrupted process
        is detached from whatever event it was waiting on.
        """
        if self._triggered:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        interrupt_event = Event(self.sim)
        interrupt_event._triggered = True
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event.defused = True  # delivered by construction
        interrupt_event.callbacks.append(self._resume)  # type: ignore[union-attr]
        self.sim._schedule(interrupt_event, delay=0.0, priority=PRIORITY_URGENT)

    # -- kernel -------------------------------------------------------------
    def _resume(self, event: Event) -> None:
        # Detach from the event we were waiting for (relevant on interrupts,
        # where the waited-on event is still pending).
        if self._target is not None and self._target is not event:
            if self._target.callbacks is not None:
                try:
                    self._target.callbacks.remove(self._resume)
                except ValueError:  # pragma: no cover - defensive
                    pass
        self._target = None
        self.sim._active_process = self
        tracer = getattr(self.sim, "_tracer", None)
        if tracer is not None:
            tracer.on_resume(self, self.sim.now)
        try:
            if event._ok:
                next_event = self._generator.send(event._value)
            else:
                event.defused = True
                next_event = self._generator.throw(event._value)
        except StopIteration as stop:
            self.sim._active_process = None
            if tracer is not None:
                tracer.on_process_end(self, self.sim.now)
            self.succeed(stop.value)
            return
        except BaseException as exc:
            self.sim._active_process = None
            if tracer is not None:
                tracer.on_process_end(self, self.sim.now)
            self.fail(exc)
            return
        self.sim._active_process = None
        if not isinstance(next_event, Event):
            raise TypeError(
                f"process {self.name!r} yielded a non-event: {next_event!r}"
            )
        if next_event.sim is not self.sim:
            raise RuntimeError("cannot wait on an event from another simulator")
        self._target = next_event
        next_event._add_callback(self._resume)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"<Process {self.name!r} {'done' if self._triggered else 'alive'}>"


class ConditionEvent(Event):
    """Base for composite events over a fixed set of child events."""

    __slots__ = ("events", "_pending")

    def __init__(self, sim: "Simulator", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self.events = tuple(events)
        for event in self.events:
            if event.sim is not sim:
                raise RuntimeError("condition spans multiple simulators")
        self._pending = len(self.events)
        if not self.events:
            self.succeed({})
            return
        for event in self.events:
            event._add_callback(self._check)

    def _collect(self) -> dict[Event, Any]:
        return {e: e.value for e in self.events if e.processed and e.ok}

    def _check(self, event: Event) -> None:  # pragma: no cover - abstract
        raise NotImplementedError


class AllOf(ConditionEvent):
    """Triggers when *all* child events have triggered (fails on first failure)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            event.defused = True
            self.fail(event.value)
            return
        self._pending -= 1
        if self._pending == 0:
            self.succeed(self._collect())


class AnyOf(ConditionEvent):
    """Triggers when *any* child event triggers (fails on first failure)."""

    __slots__ = ()

    def _check(self, event: Event) -> None:
        if self._triggered:
            return
        if not event.ok:
            event.defused = True
            self.fail(event.value)
            return
        self.succeed(self._collect())
