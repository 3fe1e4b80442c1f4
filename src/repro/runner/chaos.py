"""Chaos injection for the experiment runner — prove the fault tolerance.

Enabled by the ``REPRO_CHAOS`` environment variable, a comma-separated list
of ``kind:probability`` entries::

    REPRO_CHAOS=kill:0.2,hang:0.1,corrupt:0.05

* ``kill`` — the worker process calls ``os._exit`` at task pickup, which
  the parent observes as a ``BrokenProcessPool`` (a real segfault's
  signature).  Only fires inside pool workers, never in the parent, so the
  CLI itself is never chaos-killed.
* ``hang`` — the worker sleeps ``REPRO_CHAOS_HANG_SECONDS`` (default 30)
  before doing the work, simulating a stuck task; with a task timeout
  configured the worker-side alarm converts it into a retryable timeout.
* ``corrupt`` — the just-written entry of either on-disk store (a task
  result or a campaign artifact) has bytes flipped, so the next read must
  detect the damage (checksum) and quarantine it.

Every decision is drawn from a deterministic RNG keyed by
``(REPRO_CHAOS_SEED, site key, attempt)``: the same sweep under the same
chaos spec injects the same faults, which is what lets the chaos test
suite assert *byte-identical* final reports — retries recompute exactly
what the faults destroyed.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.sim.rng import derive_seed

__all__ = ["ChaosConfig", "chaos_from_env", "CHAOS_ENV", "KILL_EXIT_CODE"]

CHAOS_ENV = "REPRO_CHAOS"
CHAOS_SEED_ENV = "REPRO_CHAOS_SEED"
CHAOS_HANG_ENV = "REPRO_CHAOS_HANG_SECONDS"

#: Exit status of a chaos-killed worker (mimics an abnormal death; any
#: worker exit breaks a ``ProcessPoolExecutor`` regardless of status).
KILL_EXIT_CODE = 87

_KINDS = ("kill", "hang", "corrupt")


@dataclass(frozen=True)
class ChaosConfig:
    """Parsed ``REPRO_CHAOS`` spec plus derived knobs."""

    kill: float = 0.0
    hang: float = 0.0
    corrupt: float = 0.0
    seed: int = 0
    hang_seconds: float = 30.0

    @property
    def active(self) -> bool:
        return self.kill > 0 or self.hang > 0 or self.corrupt > 0

    @classmethod
    def parse(
        cls, spec: str, seed: int = 0, hang_seconds: float = 30.0
    ) -> "ChaosConfig":
        """Parse ``kind:p[,kind:p...]``; unknown kinds or bad p raise."""
        probabilities = dict.fromkeys(_KINDS, 0.0)
        for entry in spec.split(","):
            entry = entry.strip()
            if not entry:
                continue
            kind, _, raw = entry.partition(":")
            kind = kind.strip()
            if kind not in _KINDS:
                raise ValueError(
                    f"unknown chaos kind {kind!r} in {CHAOS_ENV}; "
                    f"expected one of {', '.join(_KINDS)}"
                )
            try:
                probability = float(raw)
            except ValueError:
                raise ValueError(
                    f"chaos probability for {kind!r} must be a number, got {raw!r}"
                ) from None
            if not 0.0 <= probability <= 1.0:
                raise ValueError(
                    f"chaos probability for {kind!r} must be in [0, 1], "
                    f"got {probability}"
                )
            probabilities[kind] = probability
        return cls(seed=seed, hang_seconds=hang_seconds, **probabilities)

    # -- decisions ----------------------------------------------------------
    def _draw(self, site: str) -> float:
        """Uniform [0, 1) draw, a pure function of ``(seed, site)``."""
        return derive_seed(self.seed, f"chaos/{site}") / 2 ** 64

    def should_kill(self, task_key: str, attempt: int) -> bool:
        return self.kill > 0 and self._draw(f"kill/{task_key}/{attempt}") < self.kill

    def should_hang(self, task_key: str, attempt: int) -> bool:
        return self.hang > 0 and self._draw(f"hang/{task_key}/{attempt}") < self.hang

    def should_corrupt(self, cache_key: str, nonce: int) -> bool:
        return (
            self.corrupt > 0
            and self._draw(f"corrupt/{cache_key}/{nonce}") < self.corrupt
        )

    # -- worker-side injection ---------------------------------------------
    def pre_task(self, task_key: str, attempt: int) -> None:
        """Maybe kill or stall the current *worker* process.

        Destructive injections are gated to child processes: the in-process
        (serial / degraded) execution path must always survive chaos, which
        is exactly the graceful-degradation property the harness proves.
        """
        if not self.active or multiprocessing.parent_process() is None:
            return
        if self.should_kill(task_key, attempt):
            os._exit(KILL_EXIT_CODE)
        if self.should_hang(task_key, attempt):
            time.sleep(self.hang_seconds)


#: Write sequence numbers per entry name, so repeated writes of one entry
#: draw fresh corruption decisions (process-local; chaos only).
_corrupt_nonces: dict[str, int] = {}


def maybe_corrupt_entry(config: "ChaosConfig", path: Path, cache_key: str) -> bool:
    """Flip bytes in a just-written store entry with the configured odds."""
    if not config.corrupt:
        return False
    nonce = _corrupt_nonces.get(cache_key, 0)
    _corrupt_nonces[cache_key] = nonce + 1
    if not config.should_corrupt(cache_key, nonce):
        return False
    data = bytearray(path.read_bytes())
    if not data:
        return False
    # Damage both the header and the payload midpoint: whichever layout the
    # cache uses, a checksum must notice.
    data[0] ^= 0xFF
    data[len(data) // 2] ^= 0xFF
    path.write_bytes(bytes(data))
    return True


def chaos_from_env(environ=os.environ) -> ChaosConfig:
    """The active chaos configuration (all-zero when ``REPRO_CHAOS`` unset)."""
    spec = environ.get(CHAOS_ENV, "")
    seed = int(environ.get(CHAOS_SEED_ENV, "0") or "0")
    hang_seconds = float(environ.get(CHAOS_HANG_ENV, "30") or "30")
    if not spec:
        return ChaosConfig(seed=seed, hang_seconds=hang_seconds)
    return ChaosConfig.parse(spec, seed=seed, hang_seconds=hang_seconds)
