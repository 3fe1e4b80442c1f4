"""What the benchmark measures: workloads, metrics, and the layer map.

``BENCHMARK.json`` at the repository root is generated from this module
(``python3 perfbench/run.py --all`` rewrites it), so the workload reasons,
metric units and bounds live in exactly one place.

Inputs are derived from the benchmark seed here and handed to the program as
plain configuration; the program never sees the benchmark seed itself.
"""

from __future__ import annotations

import hashlib

#: Seconds one run measures (the ``--seconds`` the harness passes).  Host
#: speed drifts over tens of seconds, so a run measures as long as the time
#: budget for 4 + 22 runs per workload allows.
RUN_SECONDS = 40

# -- workloads -----------------------------------------------------------------

#: Each unit configuration runs at least this often in a run, however long
#: it takes, so every configuration's digests are compared across
#: repetitions and its time is the median of several.
MIN_REPS = 3

#: Paper-federation campaigns per run.  One coupled campaign's cost is
#: heavy-tailed across seeds, because a deep queue at the largest site forms
#: or does not: 0.25 simulated days took 0.2-2.7 s over 40 seeds on a 2-core
#: host (coefficient of variation 0.74), 0.1 days 0.1-0.5 s (0.49).  So a
#: run measures many short campaigns with independent seeds.
PAPER_CAMPAIGNS = 48
#: Unit configurations the campaigns are split into; a unit runs its share
#: of the campaigns one after another in one interpreter.
PAPER_UNITS = 4
#: Simulated days per paper-federation campaign.
PAPER_DAYS = 0.1
PAPER_SCALE = "full"
PAPER_POPULATION_SCALE = 0.5

#: The ``run-all --fast`` subset ``fast-suite`` runs, with knobs shrunk so a
#: unit takes a few seconds.  The T-tables, F2 and F9 share one campaign
#: (artifact save, result-cache puts, measurement); A4 adds outages and A5
#: the lossy AMIE exchange.  F5 (10-15 s, seed-sensitive), F1, F3, F4,
#: F6-F8, A1-A3 and R1 are left out for time; F5's metascheduler is
#: measured on paper-federation.
FAST_SUITE = (
    ("T1", {"days": 4.0}),
    ("T2", {"days": 4.0}),
    ("T3", {"days": 4.0}),
    ("T4", {"days": 4.0}),
    ("T5", {"days": 4.0}),
    ("T6", {"days": 4.0}),
    ("T7", {"days": 4.0}),
    ("T8", {"days": 4.0}),
    ("F2", {"days": 4.0}),
    ("F9", {"days": 4.0}),
    ("A4", {"days": 2.0, "mtbf_days": (2.0, 0.75)}),
    ("A5", {"days": 1.0, "regimes": ("hostile",)}),
)
#: Experiments a unit regenerates a second time, against a new store over
#: the same directory and a fresh result cache: the runner's read path.
WARM = ("T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8", "F2", "F9")
#: Independently seeded copies of the suite per run, one per unit
#: configuration: one copy's cost varies with its seed (mostly A4's
#: outages), and the copies average that out.
FAST_SETS = 2

WORKLOADS = {
    "paper-federation": (
        f"{PAPER_CAMPAIGNS} short coupled campaigns on the full 8-site "
        f"federation at population 0.5: a third of the traced time is the EASY "
        f"scheduler's own code, a third the event kernel"
    ),
    "fast-suite": (
        f"{FAST_SETS} seeds of the run-all --fast T-tables, A4 and A5 through "
        f"ParallelRunner(jobs=1), then the tables again from the stored "
        f"campaign: runner writes and reads, measurement, outages, lossy AMIE"
    ),
}


def derive(seed: int, label: str) -> int:
    """A 31-bit input seed for ``label``, a pure function of the run seed."""
    digest = hashlib.sha256(f"perfbench/{int(seed)}/{label}".encode()).digest()
    return int.from_bytes(digest[:4], "big") & 0x7FFFFFFF


def unit_configs(workload: str, seed: int) -> list[dict]:
    """The distinct unit configurations one run of ``workload`` measures.

    A unit is one fresh interpreter executing one configuration; the run
    repeats units until its time is up, and repetitions of a configuration
    must produce identical digests.
    """
    if workload == "paper-federation":
        per_unit = PAPER_CAMPAIGNS // PAPER_UNITS
        return [
            {
                "campaigns": [
                    {
                        "seed": derive(seed, f"paper:{k}"),
                        "days": PAPER_DAYS,
                        "scale": PAPER_SCALE,
                        "population_scale": PAPER_POPULATION_SCALE,
                    }
                    for k in range(unit * per_unit, (unit + 1) * per_unit)
                ]
            }
            for unit in range(PAPER_UNITS)
        ]
    if workload == "fast-suite":
        configs = []
        for copy in range(FAST_SETS):
            # The tables share one campaign, exactly as in run-all --fast.
            requests = []
            for experiment_id, knobs in FAST_SUITE:
                label = "campaign" if experiment_id in WARM else experiment_id
                knobs = dict(knobs, seed=derive(seed, f"fast:{copy}:{label}"))
                requests.append([experiment_id, knobs])
            configs.append({"requests": requests, "warm": list(WARM)})
        return configs
    raise KeyError(f"unknown workload {workload!r}; known: {sorted(WORKLOADS)}")


# -- metrics -------------------------------------------------------------------

#: ``(name, unit, better, bound)``.  On the shared 2-core host the benchmark
#: was built on, the speed of a fixed Python loop drifted by up to 50% over
#: minutes and 25% within seconds, so every time metric gets the widest
#: bound allowed; memory does not drift.
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("wall_s", "s", "lower", 0.25),
    ("sim_day_s", "s", "lower", 0.25),
    ("records_per_s", "1/s", "higher", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.1),
)

#: Wrapped public functions: ``(module, attribute, span name, layer)``.
#: A span name reads ``<module>.<function>``; metrics append ``.calls``,
#: ``.s`` (busy time) or a named statistic.
WRAPPED = (
    ("repro.sim.engine", "Simulator.run", "sim.run", "sim"),
    ("repro.infra.scheduler.base", "BatchScheduler.submit",
     "infra.scheduler.submit", "infra.scheduler"),
    ("repro.infra.scheduler.base", "BatchScheduler.build_profile",
     "infra.scheduler.build_profile", "infra.scheduler"),
    ("repro.infra.scheduler.base", "BatchScheduler.can_start_now",
     "infra.scheduler.can_start_now", "infra.scheduler"),
    ("repro.infra.scheduler.base", "BatchScheduler.earliest_start",
     "infra.scheduler.earliest_start", "infra.scheduler"),
    ("repro.infra.metascheduler", "Metascheduler.select",
     "infra.metascheduler.select", "infra.metascheduler"),
    ("repro.infra.accounting", "CentralAccountingDB.ingest",
     "infra.accounting.ingest", "infra.accounting"),
    ("repro.infra.amie", "AmieIngestEndpoint.receive",
     "infra.amie.receive", "infra.amie"),
    ("repro.infra.amie", "AmieIngestEndpoint.reconcile",
     "infra.amie.reconcile", "infra.amie"),
    ("repro.users.population", "build_population",
     "users.build_population", "users"),
    ("repro.users.behavior", "sample_job", "users.sample_job", "users"),
    ("repro.workloads.synthetic", "run_scenario",
     "workloads.run_scenario", "workloads"),
    ("repro.core.records", "build_identity_views",
     "core.build_identity_views", "core"),
    ("repro.core.classifier", "AttributeClassifier.classify",
     "core.classify", "core"),
    ("repro.core.classifier", "HeuristicClassifier.classify",
     "core.classify", "core"),
    ("repro.core.metrics", "compute_metrics", "core.compute_metrics", "core"),
    ("repro.runner.artifacts", "ArtifactStore.save",
     "runner.artifacts.save", "runner"),
    ("repro.runner.artifacts", "ArtifactStore.load",
     "runner.artifacts.load", "runner"),
    ("repro.runner.cache", "ResultCache.put", "runner.cache.put", "runner"),
    ("repro.runner.cache", "ResultCache.get", "runner.cache.get", "runner"),
    ("repro.experiments.base", "execute_task",
     "experiments.execute_task", "experiments"),
    ("repro.experiments.base", "merge_tasks",
     "experiments.merge_tasks", "experiments"),
)

LAYERS = tuple(dict.fromkeys(layer for *_, layer in WRAPPED))

#: The layer -> metric -> workload map: ``(metrics, end-to-end metrics they
#: should move, workloads they move them on, workloads predicted unchanged)``.
#: Both workloads simulate, so no workload bypasses the simulation layers.
LAYER_MAP = (
    (("sim.events", "sim.heap_high_water", "sim.run.self_s"),
     "sim_day_s", "paper-federation; fast-suite", "-"),
    (("infra.scheduler.submit.calls", "infra.scheduler.submit.s",
      "infra.scheduler.build_profile.calls", "infra.scheduler.build_profile.s",
      "infra.scheduler.can_start_now.calls", "infra.scheduler.can_start_now.s",
      "infra.scheduler.can_start_now.start_ratio",
      "infra.scheduler.earliest_start.calls", "infra.scheduler.earliest_start.s",
      "infra.scheduler.profile_builds_per_job"),
     "sim_day_s, records_per_s; wall_s", "paper-federation; fast-suite", "-"),
    (("infra.metascheduler.select.calls", "infra.metascheduler.select.s"),
     "sim_day_s", "paper-federation", "-"),
    (("infra.accounting.ingest.calls", "infra.accounting.ingest.records",
      "infra.accounting.ingest.s", "infra.amie.receive.calls",
      "infra.amie.receive.accept_ratio", "infra.amie.receive.s",
      "infra.amie.reconcile.s"),
     "wall_s", "fast-suite", "-"),
    (("users.build_population.s", "users.sample_job.calls",
      "users.sample_job.s"),
     "sim_day_s", "paper-federation", "-"),
    (("workloads.run_scenario.calls", "workloads.run_scenario.s"),
     "wall_s", "fast-suite", "-"),
    (("core.build_identity_views.calls", "core.build_identity_views.s",
      "core.classify.calls", "core.classify.records", "core.classify.s",
      "core.classify.calls_per_campaign", "core.compute_metrics.calls",
      "core.compute_metrics.s"),
     "wall_s", "fast-suite", "paper-federation"),
    (("runner.artifacts.save.calls", "runner.artifacts.save.bytes",
      "runner.artifacts.save.s", "runner.artifacts.load.calls",
      "runner.artifacts.load.bytes", "runner.artifacts.load.s",
      "runner.cache.put.calls", "runner.cache.put.s", "runner.cache.get.calls",
      "runner.cache.get.hit_ratio", "runner.campaign_reuse_ratio",
      "experiments.execute_task.calls", "experiments.execute_task.s",
      "experiments.merge_tasks.s"),
     "wall_s", "fast-suite", "paper-federation"),
    # Busy time of each layer outside the wrapped calls it makes into other
    # layers: where the time went.
    (tuple(f"{layer}.self_s" for layer in LAYERS), "wall_s", "all", "-"),
    (("trace.overhead_ratio",), "-", "all", "-"),
)

#: Per-layer metrics whose larger value is the better one; the rest are work
#: or time, where less is better.
HIGHER_IS_BETTER = frozenset({
    "infra.scheduler.can_start_now.start_ratio",
    "infra.amie.receive.accept_ratio",
    "runner.cache.get.hit_ratio",
    "runner.campaign_reuse_ratio",
})


def metric_unit(name: str) -> str:
    """Unit of a per-layer metric, read off its last name component."""
    stat = name.rsplit(".", 1)[-1]
    if stat == "s" or stat.endswith("_s"):
        return "s"
    if stat == "bytes":
        return "bytes"
    if stat.endswith(("ratio", "_per_job", "_per_campaign")):
        return "ratio"
    return "count"


PER_LAYER = tuple(name for names, *_ in LAYER_MAP for name in names)


#: Per-layer metrics that must be non-zero on a workload's traced run, so a
#: wrapper that never fires, or a path the workload was meant to exercise
#: and does not, cannot report a silent zero.
MUST_FIRE = {
    "paper-federation": (
        "sim.events", "sim.run.self_s", "infra.scheduler.submit.calls",
        "infra.scheduler.build_profile.calls", "infra.scheduler.can_start_now.calls",
        "infra.scheduler.earliest_start.calls", "infra.metascheduler.select.calls",
        "infra.accounting.ingest.calls", "infra.accounting.ingest.records",
        "users.build_population.s", "users.sample_job.calls",
        "workloads.run_scenario.calls",
    ),
    "fast-suite": (
        "sim.events", "infra.scheduler.submit.calls",
        "infra.scheduler.build_profile.calls", "infra.scheduler.can_start_now.calls",
        "infra.accounting.ingest.calls", "infra.amie.receive.calls",
        "infra.amie.reconcile.s", "workloads.run_scenario.calls",
        "core.build_identity_views.calls", "core.classify.calls",
        "core.classify.records", "core.compute_metrics.calls",
        "runner.artifacts.save.calls", "runner.artifacts.save.bytes",
        "runner.artifacts.load.calls", "runner.artifacts.load.bytes",
        "runner.cache.put.calls", "runner.cache.get.calls",
        "runner.cache.get.hit_ratio", "runner.campaign_reuse_ratio",
        "experiments.execute_task.calls", "experiments.merge_tasks.s",
    ),
}


def benchmark_json() -> dict:
    """The repository's ``BENCHMARK.json`` document."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS.items()],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {
                "name": name,
                "unit": metric_unit(name),
                "better": "higher" if name in HIGHER_IS_BETTER else "lower",
            }
            for name in PER_LAYER
        ],
    }
