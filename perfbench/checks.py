"""Output checks the benchmark runs outside the timed region."""

from __future__ import annotations

import hashlib
from typing import Iterable, Mapping


def peak_cores(records: Iterable) -> dict[str, int]:
    """Peak concurrently busy cores per resource, from usage records.

    A job holds its cores over ``[start_time, end_time)``: one ending at the
    instant another starts frees its cores first.
    """
    edges: dict[str, list[tuple[float, int]]] = {}
    for record in records:
        if record.start_time is None:
            continue
        site = edges.setdefault(record.resource, [])
        site.append((record.start_time, record.cores))
        site.append((record.end_time, -record.cores))
    peaks = {}
    for resource, points in edges.items():
        busy = peak = 0
        for _time, delta in sorted(points):
            busy += delta
            peak = max(peak, busy)
        peaks[resource] = peak
    return peaks


def capacity_violations(records: Iterable, capacity: Mapping[str, int]) -> list[str]:
    """Resources whose peak busy cores exceed ``nodes x cores_per_node``."""
    return [
        f"{resource}: peak {peak} cores > capacity {capacity.get(resource, 0)}"
        for resource, peak in sorted(peak_cores(records).items())
        if peak > capacity.get(resource, 0)
    ]


def site_capacity(scale: str) -> dict[str, int]:
    """Cores per site of the named federation preset."""
    from repro.workloads import federation_specs

    return {
        site.name: site.nodes * site.cores_per_node
        for site in federation_specs(scale)
    }


def records_digest(records: Iterable) -> str:
    """sha256 over the records' reprs, in accounting-stream order."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(repr(record).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_failures(units: Iterable[Mapping]) -> list[str]:
    """Operations whose digest differs from the first repetition's.

    ``units`` are the results of repetitions of one configuration, each with
    ``ops``: ``[{"op": name, "digest": hex, ...}]``.  Every operation of a
    later repetition that disagrees with the first counts once.
    """
    first: dict[str, str] = {}
    failures = []
    for repetition, unit in enumerate(units):
        for op in unit["ops"]:
            expected = first.setdefault(op["op"], op["digest"])
            if op["digest"] != expected:
                failures.append(
                    f"{op['op']}: repetition {repetition} digest "
                    f"{op['digest'][:12]} != {expected[:12]}"
                )
    return failures
