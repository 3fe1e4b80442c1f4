"""Every wrapper fires on the workload the layer map says exercises it.

Runs one traced unit of each workload, shrunk, in a fresh interpreter, so a
wrapper installed on a name nothing calls, or a path such as the runner's
disk reads that the workload no longer takes, shows up as a zero here
rather than as a silent zero in a benchmark report.
"""

import pytest

import run
import spec

SMALL = {
    "paper-federation": [{
        "campaigns": [
            dict(spec.unit_configs("paper-federation", 1)[0]["campaigns"][0], days=0.05)
        ]
    }],
    "fast-suite": [{
        "requests": [
            ["T1", {"days": 1.0, "seed": 3}],
            ["T2", {"days": 1.0, "seed": 3}],
            ["T4", {"days": 1.0, "seed": 3}],
            ["A5", {"days": 0.5, "seed": 3, "regimes": ["hostile"]}],
        ],
        "warm": ["T1", "T4"],
    }],
}


def test_must_fire_names_per_layer_metrics():
    for names in spec.MUST_FIRE.values():
        assert set(names) <= set(spec.PER_LAYER)


@pytest.mark.parametrize("workload", sorted(spec.WORKLOADS))
def test_wrappers_fire(workload, tmp_path):
    runner = run.Runner(workload, tmp_path)
    traced = [runner.unit(config, traced=True) for config in SMALL[workload]]
    metrics = run.merge_layers([u["layers"] for u in traced])
    silent = [name for name in spec.MUST_FIRE[workload] if not metrics[name]]
    assert silent == []
    assert all(op["ok"] for u in traced for op in u["ops"]), traced[0]["ops"]
    assert set(spec.PER_LAYER) - {"trace.overhead_ratio"} == set(metrics)
