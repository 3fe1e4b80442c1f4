"""Layer tracer: spans around the public functions of each layer.

The benchmark measures the program from outside.  :class:`LayerTracer`
replaces each function named in :data:`spec.WRAPPED` with a wrapper that
records one span per call: name, start, end and parent span, in compact
arrays kept in memory and written out when the unit ends.  A layer's self
time is its spans' duration minus the part covered by their child spans.

Wrappers go onto the defining class or module, and every module-level alias
that already holds the original (``from repro.core import compute_metrics``
and the like) is re-pointed at the wrapper, so import order does not decide
which calls are seen.  :meth:`LayerTracer.installed` restores the originals
on exit, so output checks that run afterwards are not traced.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Optional, Sequence

import spec

#: Extra statistics a wrapper gathers besides calls and time.
_STATS = (
    "infra.scheduler.can_start_now.true",
    "infra.accounting.ingest.records",
    "infra.amie.receive.accepted",
    "core.classify.records",
    "runner.artifacts.save.bytes",
    "runner.artifacts.load.bytes",
    "runner.cache.get.hits",
    "workloads.run_scenario.campaigns",
    "workloads.run_scenario.records",
    "workloads.run_scenario.days",
)


class LayerTracer:
    """Spans of one unit (one process, one ``run_id``)."""

    def __init__(self, run_id: str = "") -> None:
        self.run_id = run_id
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self._stack: list[int] = []
        self.stats = dict.fromkeys(_STATS, 0)

    # -- recording -------------------------------------------------------------
    def name_id(self, name: str) -> int:
        found = self._name_ids.get(name)
        if found is None:
            found = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return found

    def wrap(self, function: Callable, name: str,
             observe: Optional[Callable] = None) -> Callable:
        """``function`` recording one ``name`` span per call.

        ``observe(stats, args, result)`` runs after the span has closed, so
        the statistics it gathers are not charged to the span.
        """
        name_id = self.name_id(name)
        names, starts, ends, parents = self.name, self.start, self.end, self.parent
        stack = self._stack
        stats = self.stats

        @functools.wraps(function)
        def traced(*args, **kwargs):
            index = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(perf_counter())
            try:
                result = function(*args, **kwargs)
            finally:
                ends[index] = perf_counter()
                stack.pop()
            if observe is not None:
                observe(stats, args, result)
            return result

        return traced

    @contextmanager
    def installed(self, wrapped: Sequence[tuple] = spec.WRAPPED):
        """Wrap every ``(module, attribute, name, layer)`` for the block."""
        from repro.runner.artifacts import STATS

        undo: list[tuple[object, str, object]] = []
        originals: dict[int, Callable] = {}
        self.stats["_disk_loads"] = STATS.loads
        try:
            for module_name, attribute, name, _layer in wrapped:
                owner = importlib.import_module(module_name)
                *path, leaf = attribute.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = owner.__dict__[leaf]
                wrapper = self.wrap(original, name, _OBSERVERS.get(name))
                undo.append((owner, leaf, original))
                setattr(owner, leaf, wrapper)
                if not path:
                    originals[id(original)] = wrapper
            undo.extend(_rebind_aliases(originals))
            yield self
        finally:
            for owner, leaf, original in reversed(undo):
                setattr(owner, leaf, original)

    # -- output ----------------------------------------------------------------
    def spans(self) -> list[tuple[str, float, float, int]]:
        return [
            (self.names[n], s, e, p)
            for n, s, e, p in zip(self.name, self.start, self.end, self.parent)
        ]

    def write(self, path: Path) -> None:
        """Write the spans to ``path`` (``.npz``): one array per field.

        ``name`` indexes ``names``; ``parent`` is a span index or -1.
        """
        import numpy

        path.parent.mkdir(parents=True, exist_ok=True)
        numpy.savez(
            path,
            run_id=numpy.array(self.run_id),
            names=numpy.array(self.names, dtype=str),
            name=numpy.frombuffer(self.name, dtype=numpy.int32),
            start=numpy.frombuffer(self.start, dtype=numpy.float64),
            end=numpy.frombuffer(self.end, dtype=numpy.float64),
            parent=numpy.frombuffer(self.parent, dtype=numpy.int32),
        )


def _rebind_aliases(originals: dict[int, Callable]) -> list[tuple]:
    """Point module globals that still hold an original at its wrapper."""
    undo = []
    for module_name, module in list(sys.modules.items()):
        if not module_name.startswith("repro") or module is None:
            continue
        for attribute, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None and getattr(module, attribute) is not wrapper:
                undo.append((module, attribute, value))
                setattr(module, attribute, wrapper)
    return undo


# -- per-call statistics ----------------------------------------------------------

def _count_true(stats, args, result):
    if result:
        stats["infra.scheduler.can_start_now.true"] += 1


def _count_ingested(stats, args, result):
    added, duplicates = result
    stats["infra.accounting.ingest.records"] += added + duplicates


def _count_accepted(stats, args, result):
    if result:
        stats["infra.amie.receive.accepted"] += 1


def _count_classified(stats, args, result):
    # Every classified record lands in exactly one identity view.
    stats["core.classify.records"] += sum(
        len(view.records) for view in result.views.values()
    )


def _saved_bytes(stats, args, result):
    store, key = args[0], args[1]
    stats["runner.artifacts.save.bytes"] += store.path_for(key).stat().st_size


def _loaded_bytes(stats, args, result):
    # Only loads that read the disk count; the store memoizes the rest.
    from repro.runner.artifacts import STATS

    if STATS.loads > stats["_disk_loads"]:
        stats["_disk_loads"] = STATS.loads
        store, key = args[0], args[1]
        stats["runner.artifacts.load.bytes"] += store.path_for(key).stat().st_size


def _count_minted(stats, args, result):
    stats["workloads.run_scenario.campaigns"] += 1
    stats["workloads.run_scenario.records"] += len(result.records)
    stats["workloads.run_scenario.days"] += result.config.days


def _count_hits(stats, args, result):
    if result[0]:
        stats["runner.cache.get.hits"] += 1


_OBSERVERS = {
    "infra.scheduler.can_start_now": _count_true,
    "infra.accounting.ingest": _count_ingested,
    "infra.amie.receive": _count_accepted,
    "core.classify": _count_classified,
    "runner.artifacts.save": _saved_bytes,
    "runner.artifacts.load": _loaded_bytes,
    "runner.cache.get": _count_hits,
    "workloads.run_scenario": _count_minted,
}


# -- aggregation ------------------------------------------------------------------

def covered(start: float, end: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, end]`` covered by the union of ``intervals``."""
    total = 0.0
    reach = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, reach), min(hi, end)
        if hi > lo:
            total += hi - lo
            reach = hi
    return total


def self_times(spans: Sequence[tuple[str, float, float, int]]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    ``spans`` are ``(name, start, end, parent index)`` with ``-1`` for a
    root.  Children may overlap each other; the covered part counts once.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for _name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    return [
        (end - start) - covered(start, end, children.get(index, ()))
        for index, (_name, start, end, _parent) in enumerate(spans)
    ]


def _outermost(spans, key: Callable[[str], str]) -> list[bool]:
    """Whether no ancestor of each span shares its ``key``."""
    flags = []
    for _name, _start, _end, parent in spans:
        own = key(_name)
        while parent >= 0 and key(spans[parent][0]) != own:
            parent = spans[parent][3]
        flags.append(parent < 0)
    return flags


def summarize(spans: Sequence[tuple[str, float, float, int]],
              layer_of: dict[str, str]) -> dict:
    """Per-name calls and busy time, per-layer self and inclusive time.

    Busy time (``.s``) counts a span only when no ancestor has the same
    name, so recursion and ``super()`` chains are not counted twice; a
    layer's inclusive time likewise counts its outermost spans only.
    """
    selfs = self_times(spans)
    by_name = _outermost(spans, lambda name: name)
    by_layer = _outermost(spans, lambda name: layer_of[name])
    out = {key: {} for key in ("calls", "busy", "self", "layer_self", "layer_total")}
    calls, busy, own_time = out["calls"], out["busy"], out["self"]
    layer_self, layer_total = out["layer_self"], out["layer_total"]
    for (name, start, end, _parent), own, top_name, top_layer in zip(
        spans, selfs, by_name, by_layer
    ):
        layer = layer_of[name]
        calls[name] = calls.get(name, 0) + 1
        own_time[name] = own_time.get(name, 0.0) + own
        layer_self[layer] = layer_self.get(layer, 0.0) + own
        if top_name:
            busy[name] = busy.get(name, 0.0) + (end - start)
        if top_layer:
            layer_total[layer] = layer_total.get(layer, 0.0) + (end - start)
    return out


def layer_metrics(summary: dict, stats: dict, extra: dict) -> dict[str, float]:
    """The per-layer metrics of :data:`spec.PER_LAYER` from one summary.

    ``extra`` supplies what spans cannot: ``sim.events``,
    ``sim.heap_high_water``, ``campaigns`` (campaigns measured: simulated
    or loaded from the store) and ``campaigns_reused`` (of those, loaded).
    """
    calls, busy = summary["calls"], summary["busy"]

    def ratio(top: float, bottom: float) -> float:
        return top / bottom if bottom else 0.0

    out: dict[str, float] = {}
    for name in spec.PER_LAYER:
        prefix, stat = name.rsplit(".", 1)
        if stat == "calls":
            out[name] = calls.get(prefix, 0)
        elif stat == "s":
            out[name] = busy.get(prefix, 0.0)
        elif stat == "self_s":
            out[name] = summary["layer_self"].get(prefix, 0.0)
    out["sim.run.self_s"] = summary["self"].get("sim.run", 0.0)
    out["infra.scheduler.can_start_now.start_ratio"] = ratio(
        stats["infra.scheduler.can_start_now.true"],
        calls.get("infra.scheduler.can_start_now", 0),
    )
    out["infra.scheduler.profile_builds_per_job"] = ratio(
        calls.get("infra.scheduler.build_profile", 0),
        calls.get("infra.scheduler.submit", 0),
    )
    out["infra.accounting.ingest.records"] = stats["infra.accounting.ingest.records"]
    out["infra.amie.receive.accept_ratio"] = ratio(
        stats["infra.amie.receive.accepted"], calls.get("infra.amie.receive", 0)
    )
    out["core.classify.records"] = stats["core.classify.records"]
    out["core.classify.calls_per_campaign"] = ratio(
        calls.get("core.classify", 0), extra["campaigns"]
    )
    out["runner.artifacts.save.bytes"] = stats["runner.artifacts.save.bytes"]
    out["runner.artifacts.load.bytes"] = stats["runner.artifacts.load.bytes"]
    out["runner.cache.get.hit_ratio"] = ratio(
        stats["runner.cache.get.hits"], calls.get("runner.cache.get", 0)
    )
    out["runner.campaign_reuse_ratio"] = ratio(
        extra["campaigns_reused"], extra["campaigns"]
    )
    out["sim.events"] = extra["sim.events"]
    out["sim.heap_high_water"] = extra["sim.heap_high_water"]
    return out
