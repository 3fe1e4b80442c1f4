"""Retry policy and failure taxonomy for the fault-tolerant runner.

The runner distinguishes two failure families and treats them oppositely:

* **Transient infrastructure failures** — a worker process died
  (``BrokenProcessPool`` / killed mid-task), or a task exceeded its
  wall-clock timeout.  These say nothing about the task itself, so the
  runner retries them: bounded attempts, exponential backoff, and a
  *deterministic* seeded jitter (a pure function of ``(seed, task key,
  attempt)``) so two runs of the same sweep back off identically.
* **Task exceptions** — the task's own code raised.  Retrying would
  re-raise deterministically, so these are never retried; they are
  recorded as structured :class:`TaskFailure` results and the sweep
  continues around them.
"""

from __future__ import annotations

import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.sim.rng import derive_seed

__all__ = [
    "RetryPolicy",
    "TaskFailure",
    "TaskTimeout",
    "FAILURE_EXCEPTION",
    "FAILURE_TIMEOUT",
    "FAILURE_WORKER_CRASH",
    "wall_clock_limit",
]

#: ``TaskFailure.kind`` values.
FAILURE_EXCEPTION = "exception"      # the task's own code raised (not retried)
FAILURE_TIMEOUT = "timeout"          # exceeded the wall-clock limit (retried)
FAILURE_WORKER_CRASH = "worker-crash"  # the worker process died (retried)

#: Failure kinds the runner may retry.
TRANSIENT_KINDS = frozenset({FAILURE_TIMEOUT, FAILURE_WORKER_CRASH})


class TaskTimeout(Exception):
    """Raised (via SIGALRM) when a task exceeds its wall-clock limit."""


@dataclass(frozen=True)
class TaskFailure:
    """Structured record of one task that could not produce a result.

    Appears in place of the task's partial result; ``merge`` never sees it —
    the runner substitutes a failure report for the whole experiment instead
    of attempting a merge over holes.
    """

    experiment_id: str
    index: int
    seed: int
    kind: str  # one of FAILURE_* above
    error_type: str = ""
    message: str = ""
    attempts: int = 1

    def describe(self) -> str:
        detail = f"{self.error_type}: {self.message}" if self.error_type else self.message
        return (
            f"task {self.index} (seed {self.seed}) {self.kind} "
            f"after {self.attempts} attempt(s): {detail}".rstrip(": ")
        )


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and deterministic jitter.

    ``max_attempts`` counts every try including the first; transient
    failures are retried until it is exhausted, then the runner makes one
    final *degraded* in-process attempt (see ``parallel.py``).  Task
    exceptions are never retried regardless of this policy.
    """

    max_attempts: int = 5
    base_delay: float = 0.2     # seconds before the first retry
    backoff_factor: float = 2.0
    max_delay: float = 10.0
    jitter: float = 0.5         # fraction of the delay drawn as jitter
    seed: int = field(default=0)

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.base_delay < 0 or self.max_delay < 0:
            raise ValueError("delays must be >= 0")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be within [0, 1]")

    def should_retry(self, kind: str, attempt: int) -> bool:
        """Whether a failure of ``kind`` on try number ``attempt`` retries."""
        return kind in TRANSIENT_KINDS and attempt < self.max_attempts

    def delay(self, task_key: str, attempt: int) -> float:
        """Backoff before retry number ``attempt`` (1 = first retry).

        Deterministic: the jitter is derived from ``(policy seed, task key,
        attempt)`` via the same SHA-256 derivation the simulation seeds use,
        so identical sweeps sleep identically — no wall-clock or process
        state leaks into the schedule.
        """
        raw = self.base_delay * self.backoff_factor ** (attempt - 1)
        capped = min(raw, self.max_delay)
        if self.jitter == 0.0 or capped == 0.0:
            return capped
        unit = derive_seed(self.seed, f"backoff/{task_key}/{attempt}") / 2 ** 64
        # Jitter shrinks the delay (never grows it): full-jitter style keeps
        # the cap honest while decorrelating retry storms.
        return capped * (1.0 - self.jitter * unit)


@contextmanager
def wall_clock_limit(seconds):
    """Raise :class:`TaskTimeout` if the body runs longer than ``seconds``.

    Implemented with ``SIGALRM``, so it interrupts Python-level work (sleeps,
    event loops, simulation steps) but not a stuck C extension — the runner
    backstops that case with a driver-side watchdog that kills the worker
    pool.  No-op when ``seconds`` is falsy, on platforms without ``SIGALRM``,
    or off the main thread (signals only deliver there).
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    message = f"exceeded wall-clock limit of {seconds:g}s"
    fired = []

    def _alarm(signum, frame):
        fired.append(True)
        raise TaskTimeout(message)

    previous = signal.signal(signal.SIGALRM, _alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    if fired:
        # The alarm raised where it landed; inside a gc callback or a
        # ``__del__`` Python reports that as unraisable and drops it, and the
        # body runs on.  A fired alarm still fails the task.
        raise TaskTimeout(message)
