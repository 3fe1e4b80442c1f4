"""Self-time arithmetic and wrapper installation of the layer tracer."""

import pytest

import layers
import spec

LAYER_OF = {"root": "a", "child": "b", "grandchild": "c", "again": "b"}


def test_self_time_subtracts_children():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("child", 1.0, 3.0, 0),
        ("grandchild", 1.5, 2.5, 1),
        ("child", 6.0, 9.0, 0),
    ]
    assert layers.self_times(spans) == pytest.approx([5.0, 1.0, 1.0, 3.0])


def test_overlapping_children_count_once():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("child", 1.0, 4.0, 0),
        ("child", 2.0, 5.0, 0),
        ("child", 4.5, 6.0, 0),
    ]
    # Union of the children is [1, 6]: 5 s covered.
    assert layers.self_times(spans)[0] == pytest.approx(5.0)


def test_child_time_outside_the_parent_is_not_subtracted():
    spans = [("root", 0.0, 4.0, -1), ("child", 3.0, 6.0, 0)]
    assert layers.self_times(spans) == pytest.approx([3.0, 3.0])


def test_leaf_self_time_is_its_duration():
    assert layers.self_times([("root", 2.0, 2.5, -1)]) == pytest.approx([0.5])


def test_summary_counts_recursion_once_and_keeps_layers_within_wall():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("child", 1.0, 5.0, 0),
        ("again", 2.0, 4.0, 1),  # same layer "b" nested in "child"
        ("child", 2.5, 3.0, 2),  # same name nested in itself
        ("grandchild", 6.0, 7.0, 0),
    ]
    summary = layers.summarize(spans, LAYER_OF)
    assert summary["calls"] == {"root": 1, "child": 2, "again": 1, "grandchild": 1}
    assert summary["busy"]["child"] == pytest.approx(4.0)
    assert summary["layer_total"]["b"] == pytest.approx(4.0)
    assert summary["layer_self"] == pytest.approx({"a": 5.0, "b": 4.0, "c": 1.0})
    # Self time of every layer adds up to the root's duration.
    assert sum(summary["layer_self"].values()) == pytest.approx(10.0)
    for layer, total in summary["layer_total"].items():
        assert total <= 10.0


def test_layer_metrics_names_every_per_layer_metric():
    summary = layers.summarize([], {})
    stats = dict.fromkeys(layers._STATS, 0)
    stats["_disk_loads"] = 0
    extra = {"sim.events": 0, "sim.heap_high_water": 0, "campaigns": 0,
             "campaigns_reused": 0}
    metrics = layers.layer_metrics(summary, stats, extra)
    assert set(spec.PER_LAYER) - {"trace.overhead_ratio"} == set(metrics)


def test_installed_wraps_aliases_and_restores_them():
    import repro.core
    import repro.core.metrics
    import repro.experiments.t2_usage as t2

    original = repro.core.metrics.compute_metrics
    classification = t2.AttributeClassifier().classify([])
    tracer = layers.LayerTracer("test")
    with tracer.installed():
        assert repro.core.compute_metrics is not original
        assert t2.compute_metrics is repro.core.metrics.compute_metrics
        t2.compute_metrics([], classification)
    assert repro.core.metrics.compute_metrics is original
    assert repro.core.compute_metrics is original
    assert t2.compute_metrics is original
    assert [name for name, *_ in tracer.spans()] == ["core.compute_metrics"]
