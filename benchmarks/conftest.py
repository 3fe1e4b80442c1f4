"""Benchmark plumbing: run an experiment once, time it, archive its output.

Each bench regenerates one table/figure of DESIGN.md §4.  The rendered text
is printed (visible with ``pytest -s``) and written to
``benchmarks/results/<id>.txt`` so EXPERIMENTS.md can be assembled from the
archived artifacts.  Alongside the prose, each bench emits a
machine-readable ``results/BENCH_<id>.json`` (wall-clock, host cores, and —
for the serial regeneration benches, which run under the sim tracer —
sim-event throughput in events/sec) so trend tooling never has to parse
BENCH.md.
"""

import json
import os
import time
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"
BENCH_LOG = Path(__file__).parent / "BENCH.md"


def _write_bench_json(name: str, payload: dict) -> Path:
    """Archive one bench's numbers as ``results/BENCH_<name>.json``."""
    RESULTS_DIR.mkdir(exist_ok=True)
    path = RESULTS_DIR / f"BENCH_{name}.json"
    payload = {"timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"), **payload}
    path.write_text(
        json.dumps(payload, indent=2, sort_keys=True, default=repr) + "\n",
        encoding="utf-8",
    )
    return path


@pytest.fixture
def regenerate(benchmark):
    """Run ``experiment_id`` once under the benchmark timer; archive output.

    The run happens under a :class:`~repro.obs.trace.SimTracer`, so the JSON
    artifact carries the deterministic sim-event count and the derived
    events/sec throughput (the number the ROADMAP's scale-tier work tracks).
    """

    def inner(experiment_id: str, **knobs):
        from repro.experiments import run_experiment
        from repro.obs import traced_simulation

        started = time.perf_counter()
        with traced_simulation() as tracer:
            output = benchmark.pedantic(
                lambda: run_experiment(experiment_id, **knobs),
                rounds=1,
                iterations=1,
            )
        wall_seconds = time.perf_counter() - started
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{experiment_id}.txt"
        path.write_text(str(output) + "\n", encoding="utf-8")
        events = tracer.events_total
        json_path = _write_bench_json(
            experiment_id,
            {
                "experiment": experiment_id,
                "knobs": dict(knobs),
                "wall_seconds": wall_seconds,
                "host_cores": os.cpu_count() or 1,
                "sim_events": events,
                "events_per_second": (
                    events / wall_seconds if wall_seconds > 0 else 0.0
                ),
            },
        )
        print(f"\n{output}\n[archived to {path} and {json_path}]")
        return output

    return inner


@pytest.fixture
def parallel_speedup():
    """Time one experiment serial vs parallel; archive + log the ratio.

    Runs the experiment's task fan-out at ``jobs=1`` and ``jobs=N`` with the
    result cache off (honest wall-clock), asserts the outputs are identical
    (the determinism contract is part of the benchmark), writes the numbers
    to ``results/<id>_parallel.txt`` and appends a BENCH entry.
    """

    def inner(experiment_id: str, jobs: int = 4, **knobs):
        from repro.experiments.base import _campaign_cache
        from repro.runner import ParallelRunner

        # Both legs must start cold: the in-process campaign memo (which
        # forked workers would also inherit) would otherwise hand one leg
        # precomputed simulations and corrupt the ratio.
        _campaign_cache.clear()
        started = time.perf_counter()
        serial_output = ParallelRunner(jobs=1).run(experiment_id, **knobs)
        serial_seconds = time.perf_counter() - started

        _campaign_cache.clear()
        started = time.perf_counter()
        parallel_output = ParallelRunner(jobs=jobs).run(experiment_id, **knobs)
        parallel_seconds = time.perf_counter() - started

        assert parallel_output.text == serial_output.text
        assert parallel_output.data == serial_output.data

        speedup = serial_seconds / parallel_seconds if parallel_seconds else 0.0
        cores = os.cpu_count() or 1
        summary = (
            f"{experiment_id} serial {serial_seconds:.1f}s vs "
            f"{jobs}-worker {parallel_seconds:.1f}s -> {speedup:.2f}x "
            f"({cores} cores available)"
        )
        RESULTS_DIR.mkdir(exist_ok=True)
        path = RESULTS_DIR / f"{experiment_id}_parallel.txt"
        path.write_text(summary + "\n", encoding="utf-8")
        stamp = time.strftime("%Y-%m-%d")
        with BENCH_LOG.open("a", encoding="utf-8") as handle:
            handle.write(f"- {stamp}: {summary}\n")
        numbers = {
            "experiment": experiment_id,
            "knobs": dict(knobs),
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "speedup": speedup,
            "jobs": jobs,
            "host_cores": cores,
        }
        json_path = _write_bench_json(f"{experiment_id}_parallel", numbers)
        print(f"\n{summary}\n[archived to {path} and {json_path}]")
        return {
            "serial_seconds": serial_seconds,
            "parallel_seconds": parallel_seconds,
            "speedup": speedup,
            "jobs": jobs,
            "cores": cores,
        }

    return inner
