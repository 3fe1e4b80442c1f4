"""One benchmark unit: a fresh interpreter running one configuration.

Usage: ``python3 perfbench/unit.py REQUEST.json RESULT.json``

The request names the workload, the unit configuration from
:func:`spec.unit_configs`, whether to trace, the private working directory
and the wall-clock instant the parent spawned this process (``setup_s`` runs
from there to the start of the timed phase).  The result holds the timings,
the operations with their digests and check outcomes, peak memory (read
before the output checks run), and for traced units the raw per-layer
aggregates.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import spec  # noqa: E402

#: The wrapper on ``run_scenario`` every unit carries, traced or not: it
#: counts the records minted and days simulated, a handful of calls a unit.
_SCENARIO_COUNTER = tuple(w for w in spec.WRAPPED if w[2] == "workloads.run_scenario")


def _tuples(value):
    """JSON lists back to the tuples the experiments' knobs expect."""
    if isinstance(value, list):
        return tuple(_tuples(item) for item in value)
    if isinstance(value, dict):
        return {key: _tuples(item) for key, item in value.items()}
    return value


class Timed:
    """The timed phase of a unit, traced or not."""

    def __init__(self, traced: bool, run_id: str) -> None:
        self.tracer = layers.LayerTracer(run_id)
        self.traced = traced
        self.sim = None
        self.wall_s = 0.0

    def run(self, body):
        from repro.obs import traced_simulation

        wrapped = spec.WRAPPED if self.traced else _SCENARIO_COUNTER
        sim_trace = traced_simulation() if self.traced else nullcontext()
        with self.tracer.installed(wrapped), sim_trace as self.sim:
            started = time.perf_counter()
            try:
                return body()
            finally:
                self.wall_s = time.perf_counter() - started

    def minted(self) -> tuple[int, int, float]:
        """Campaigns simulated, records minted and days simulated."""
        stats = self.tracer.stats
        return (
            stats["workloads.run_scenario.campaigns"],
            stats["workloads.run_scenario.records"],
            stats["workloads.run_scenario.days"],
        )

    def layer_report(self, reused: int, trace_path: Path) -> dict:
        """Raw per-layer aggregates of the timed phase."""
        self.tracer.write(trace_path)
        layer_of = {name: layer for *_, name, layer in spec.WRAPPED}
        return {
            "summary": layers.summarize(self.tracer.spans(), layer_of),
            "stats": self.tracer.stats,
            "extra": {
                "sim.events": self.sim.events_total,
                "sim.heap_high_water": self.sim.heap_high_water,
                "campaigns": self.minted()[0] + reused,
                "campaigns_reused": reused,
            },
        }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _op(name: str, digest: str, problems: list[str]) -> dict:
    return {"op": name, "ok": not problems, "detail": "; ".join(problems),
            "digest": digest}


def paper_federation(config: dict, timed: Timed) -> dict:
    """Run ``config["campaigns"]`` one after another, then check each.

    The campaigns share the process's module-global id counters, so a later
    campaign's job ids start where the previous one's ended; every
    repetition runs them in the same order, so its digests still match.
    """
    from repro.scenarios.oracle import check_scenario
    from repro.users.population import PopulationSpec
    from repro.workloads import synthetic
    from repro.workloads.synthetic import ScenarioConfig

    scenarios = [
        ScenarioConfig(
            scale=campaign["scale"],
            days=campaign["days"],
            seed=campaign["seed"],
            population=PopulationSpec(scale=campaign["population_scale"]),
        )
        for campaign in config["campaigns"]
    ]
    capacity = checks.site_capacity(config["campaigns"][0]["scale"])
    ready = time.time()
    # Looked up at call time, so the traced run sees the wrapper.
    results = timed.run(lambda: [synthetic.run_scenario(s) for s in scenarios])
    rss_mb = peak_rss_mb()
    ops = []
    for scenario, result in zip(scenarios, results):
        report = check_scenario(result)
        problems = [f"oracle {v.invariant}: {v.detail}" for v in report.violations]
        problems += checks.capacity_violations(result.records, capacity)
        ops.append(_op(f"campaign:{scenario.seed}",
                       checks.records_digest(result.records), problems))
    _campaigns, records, days = timed.minted()
    return {
        "ready": ready,
        "rss_mb": rss_mb,
        "records": records,
        "days": days,
        "reused": 0,
        "ops": ops,
    }


def fast_suite(config: dict, timed: Timed, work: Path) -> dict:
    """Regenerate ``config["requests"]`` through ``ParallelRunner(jobs=1)``.

    Three passes make up the timed phase.  The cold pass runs every request
    with a fresh result cache and artifact store (the runner's write path).
    The warm pass runs the ``config["warm"]`` experiments again against a new
    store over the same directory and another fresh cache, with the
    in-process campaign memo cleared, so their campaign is read back from
    disk.  The cached pass asks the cold pass's cache for every request.
    Warm and cached reports must be byte-identical to the cold ones.
    """
    import repro.experiments  # noqa: F401  (registers every experiment)
    from repro.experiments import base
    from repro.runner import ArtifactStore, ParallelRunner, ResultCache

    requests = [(eid, _tuples(knobs)) for eid, knobs in config["requests"]]
    warm = [(eid, knobs) for eid, knobs in requests if eid in config["warm"]]

    def runner(cache: str) -> ParallelRunner:
        return ParallelRunner(jobs=1, cache=ResultCache(root=work / cache),
                              artifacts=ArtifactStore(root=work / "artifacts"))

    passes = [("cold", runner("cache"), requests),
              ("warm", runner("warm-cache"), warm),
              ("cached", runner("cache"), requests)]

    def body() -> list:
        outputs = []
        for name, pass_runner, pass_requests in passes:
            if name == "warm":
                base._campaign_cache.clear()
            outputs.append(pass_runner.run_many(pass_requests))
        return outputs

    ready = time.time()
    outputs = timed.run(body)
    rss_mb = peak_rss_mb()
    ops = []
    cold: dict[str, str] = {}
    for (name, pass_runner, pass_requests), pass_outputs in zip(passes, outputs):
        failed = {f.experiment_id: f.describe() for f in pass_runner.failures}
        for (experiment_id, _knobs), output in zip(pass_requests, pass_outputs):
            digest = checks.text_digest(str(output))
            problems = [failed[experiment_id]] if experiment_id in failed else []
            if not output.text.strip():
                problems.append("empty report")
            if cold.setdefault(experiment_id, digest) != digest:
                problems.append(f"{name} report differs from the cold one")
            ops.append(_op(f"{name}:{experiment_id}", digest, problems))
    _campaigns, records, days = timed.minted()
    return {
        "ready": ready,
        "rss_mb": rss_mb,
        "records": records,
        "days": days,
        "reused": sum(r.campaign_stats["reused"] for _, r, _ in passes),
        "ops": ops,
    }


def run(request: dict) -> dict:
    import numpy

    timed = Timed(request["traced"], request["run_id"])
    if request["workload"] == "paper-federation":
        out = paper_federation(request["config"], timed)
    else:
        out = fast_suite(request["config"], timed, Path(request["work"]))
    out["setup_s"] = out.pop("ready") - request["spawned_at"]
    out["wall_s"] = timed.wall_s
    out["numpy"] = numpy.__version__
    if request["traced"]:
        out["layers"] = timed.layer_report(out["reused"], Path(request["trace_path"]))
    return out


def main(argv: list[str]) -> int:
    request = json.loads(Path(argv[1]).read_text(encoding="utf-8"))
    result = run(request)
    Path(argv[2]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
