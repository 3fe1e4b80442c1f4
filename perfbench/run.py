"""The repository benchmark: one workload per run, correctness-checked.

Run from the repository root::

    python3 perfbench/run.py --workload paper-federation --seed 1 --seconds 40 --trace 0
    python3 perfbench/run.py --all --seed 1   # every workload, then writes BENCHMARK.json

Each repetition ("unit") runs in a fresh interpreter (``perfbench/unit.py``)
with private cache and artifact directories under ``.perfbench/``, so module
globals such as the id counters and the campaign memo start clean every
time.  A run repeats the workload's unit configurations in turn until
``--seconds`` have passed and each has run ``spec.MIN_REPS`` times;
``wall_s`` adds up each configuration's median repetition.  With
``--trace 1`` one traced pass over the configurations follows and gives
the per-layer metrics.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric with its unit, the provenance and the output digests.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
import spec  # noqa: E402

#: Variables that would change what the program does or where it writes.
CLEARED_ENV = ("REPRO_CHAOS", "REPRO_JOBS", "REPRO_CACHE_DIR", "REPRO_ARTIFACT_DIR")
#: Wall-clock limit of one unit process.
UNIT_TIMEOUT = 150.0


class BenchmarkError(RuntimeError):
    """The benchmark could not measure (as opposed to a failed check)."""


def git_commit(root: Path) -> str:
    """HEAD's commit id, or ``unknown`` outside a git checkout."""
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, text=True,
                              capture_output=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - platforms without affinity
        return os.cpu_count() or 1


class Runner:
    """Spawns unit processes for one workload run."""

    def __init__(self, workload: str, work: Path, trace_dir: Path | None = None) -> None:
        self.workload = workload
        self.work = work
        self.trace_dir = trace_dir or work / "trace"
        self.env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
        self.env["TMPDIR"] = str(work / "tmp")
        (work / "tmp").mkdir(parents=True, exist_ok=True)
        self.count = 0

    def unit(self, config: dict, traced: bool = False) -> dict:
        """Run one unit in a fresh interpreter and return its result."""
        self.count += 1
        unit_dir = self.work / f"unit-{self.count}"
        unit_dir.mkdir()
        request_path = unit_dir / "request.json"
        result_path = unit_dir / "result.json"
        request = {
            "workload": self.workload,
            "config": config,
            "traced": traced,
            "work": str(unit_dir),
            "run_id": f"{self.workload}-{self.count}",
            "trace_path": str(self.trace_dir / f"unit-{self.count}.npz"),
        }
        request["spawned_at"] = time.time()
        request_path.write_text(json.dumps(request), encoding="utf-8")
        try:
            done = subprocess.run(
                [sys.executable, str(HERE / "unit.py"), str(request_path),
                 str(result_path)],
                cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=UNIT_TIMEOUT,
            )
        except subprocess.TimeoutExpired as exc:
            raise BenchmarkError(f"unit {self.count} exceeded {UNIT_TIMEOUT} s") from exc
        if done.returncode != 0 or not result_path.exists():
            raise BenchmarkError(
                f"unit {self.count} exited {done.returncode}:\n{done.stderr[-4000:]}"
            )
        result = json.loads(result_path.read_text(encoding="utf-8"))
        shutil.rmtree(unit_dir, ignore_errors=True)
        return result


def measure(workload: str, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    """Run ``workload``: its metrics, operation counts and output digests."""
    configs = spec.unit_configs(workload, seed)
    # Spans of the latest traced run stay behind for inspection.
    trace_dir = ROOT / ".perfbench" / "trace" / workload
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
    runner = Runner(workload, work, trace_dir)
    deadline = time.monotonic() + seconds
    units: list[list[dict]] = [[] for _ in configs]
    index = 0
    while time.monotonic() < deadline or len(units[index]) < spec.MIN_REPS:
        units[index].append(runner.unit(configs[index]))
        index = (index + 1) % len(configs)
    traced = [runner.unit(config, traced=True) for config in configs] if trace else []

    attempted, failed, problems = tally(units, traced)
    wall_s = sum(statistics.median(u["wall_s"] for u in reps) for reps in units)
    records = sum(reps[0]["records"] for reps in units)
    days = sum(reps[0]["days"] for reps in units)
    everyone = [u for reps in units for u in reps]
    metrics = {
        "setup_s": statistics.median(u["setup_s"] for u in everyone),
        "wall_s": wall_s,
        "sim_day_s": wall_s / days,
        "records_per_s": records / wall_s,
        "peak_rss_mb": statistics.median(u["rss_mb"] for u in everyone),
    }
    per_layer = None
    if trace:
        per_layer = merge_layers([u["layers"] for u in traced])
        per_layer["trace.overhead_ratio"] = sum(u["wall_s"] for u in traced) / wall_s
        silent = [name for name in spec.MUST_FIRE[workload] if not per_layer[name]]
        failed += len(silent)
        problems += [f"per-layer metric {name} is zero" for name in silent]
    return {
        "metrics": metrics,
        "per_layer": per_layer,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "units": runner.count,
        "digests": [reps[0]["ops"] for reps in units],
        "walls": [[u["wall_s"] for u in reps] for reps in units],
        "numpy": everyone[0]["numpy"],
    }


def tally(units: list[list[dict]], traced: list[dict]) -> tuple[int, int, list[str]]:
    """Operations attempted and failed over a run's unit results.

    ``units[k]`` are the untraced repetitions of configuration ``k`` and
    ``traced[k]`` its traced one, if any.  An operation fails when its own
    check failed, or when its digest differs from the first repetition's.
    """
    attempted = failed = 0
    problems = []
    for unit in [u for reps in units for u in reps] + traced:
        for op in unit["ops"]:
            attempted += 1
            if not op["ok"]:
                failed += 1
                problems.append(f"{op['op']}: {op['detail']}")
    for reps, extra in zip(units, traced or [None] * len(units)):
        mismatches = checks.digest_failures(reps + ([extra] if extra else []))
        failed += len(mismatches)
        problems += mismatches
    return attempted, failed, problems


def merge_layers(reports: list[dict]) -> dict[str, float]:
    """Per-layer metrics over the traced units of a run.

    Units add up, except the event-heap high-water mark, which is a maximum.
    """
    summary = {key: {} for key in ("calls", "busy", "self", "layer_self", "layer_total")}
    stats: dict[str, float] = {}
    extra = {"sim.events": 0, "sim.heap_high_water": 0, "campaigns": 0,
             "campaigns_reused": 0}
    for report in reports:
        for key, table in summary.items():
            for name, value in report["summary"][key].items():
                table[name] = table.get(name, 0) + value
        for name, value in report["stats"].items():
            stats[name] = stats.get(name, 0) + value
        for name, value in report["extra"].items():
            if name == "sim.heap_high_water":
                extra[name] = max(extra[name], value)
            else:
                extra[name] += value
    return layers.layer_metrics(summary, stats, extra)


def provenance(seed: int, numpy_version: str) -> dict:
    return {
        "nproc": nproc(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(ROOT),
        "seed": seed,
    }


def run_one(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    work = ROOT / ".perfbench" / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(work, ignore_errors=True)
    try:
        return measure(workload, seed, seconds, trace, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def print_report(workload: str, seed: int, outcome: dict) -> None:
    units = {name: unit for name, unit, *_ in spec.END_TO_END}
    for name, value in outcome["metrics"].items():
        print(f"{workload:17s} {name:14s} {value:14.6g} {units[name]}")
    for name, value in (outcome["per_layer"] or {}).items():
        print(f"{workload:17s} {name:44s} {value:14.6g} {spec.metric_unit(name)}")
    print(f"{workload:17s} operations {outcome['attempted']} attempted, "
          f"{outcome['failed']} failed, {outcome['units']} processes")
    for problem in outcome["problems"]:
        print(f"{workload:17s} FAILED {problem}")
    for index, walls in enumerate(outcome["walls"]):
        print(f"{workload:17s} repetitions {index} wall_s "
              + " ".join(f"{wall:.4f}" for wall in walls))
    for index, ops in enumerate(outcome["digests"]):
        for op in ops:
            if op["digest"]:
                print(f"{workload:17s} digest {index} {op['op']} {op['digest']}")
    print(f"{workload:17s} provenance "
          f"{json.dumps(provenance(seed, outcome['numpy']), sort_keys=True)}")


def write_spec() -> Path:
    path = ROOT / "BENCHMARK.json"
    path.write_text(json.dumps(spec.benchmark_json(), indent=2) + "\n", encoding="utf-8")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(spec.WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload, then write BENCHMARK.json")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated benchmark still kills and waits for its unit process.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    if not args.all and args.workload is None:
        parser.error("give --workload NAME or --all")

    workloads = list(spec.WORKLOADS) if args.all else [args.workload]
    outcomes = {}
    for workload in workloads:
        try:
            outcomes[workload] = run_one(workload, args.seed, args.seconds, bool(args.trace))
        except BenchmarkError as exc:
            print(f"perfbench: {workload}: {exc}", file=sys.stderr)
            return 1
        print_report(workload, args.seed, outcomes[workload])
    if args.all:
        print(f"wrote {write_spec()}")

    key = "per_layer" if args.trace else "metrics"
    units = {name: unit for name, unit, *_ in spec.END_TO_END}
    metrics = {}
    for workload, outcome in outcomes.items():
        # With --all, one JSON line carries every workload's metrics.
        prefix = f"{workload}." if args.all else ""
        for name, value in outcome[key].items():
            unit = units.get(name) or spec.metric_unit(name)
            metrics[prefix + name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": all(o["failed"] == 0 for o in outcomes.values()),
        "attempted": sum(o["attempted"] for o in outcomes.values()),
        "failed": sum(o["failed"] for o in outcomes.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
