"""Output checks: the capacity invariant, digests, operation tally."""

from types import SimpleNamespace

import checks
import run


def job(resource, cores, start, end):
    return SimpleNamespace(resource=resource, cores=cores, start_time=start,
                           end_time=end)


def test_capacity_check_fires_on_an_oversubscribed_site():
    # Ten overlapping jobs on the small federation's 512-core ranger: the
    # shape of a merged ten-cell artifact (4,704 cores in use).
    records = [job("ranger", 470, 0.0 + i, 100.0) for i in range(10)]
    records.append(job("ranger", 4, 50.0, 60.0))
    violations = checks.capacity_violations(records, checks.site_capacity("small"))
    assert violations == ["ranger: peak 4704 cores > capacity 512"]


def test_back_to_back_jobs_fit():
    # A job ending at the instant the next starts frees its cores first.
    records = [job("abe", 192, 0.0, 10.0), job("abe", 192, 10.0, 20.0),
               job("abe", 8, None, 5.0)]
    assert checks.peak_cores(records) == {"abe": 192}
    assert checks.capacity_violations(records, checks.site_capacity("small")) == []


def test_unknown_resource_is_a_violation():
    assert checks.capacity_violations([job("nowhere", 1, 0.0, 1.0)], {"abe": 8})


def test_records_digest_is_order_sensitive():
    a, b = job("abe", 1, 0.0, 1.0), job("abe", 2, 0.0, 1.0)
    assert checks.records_digest([a, b]) == checks.records_digest([a, b])
    assert checks.records_digest([a, b]) != checks.records_digest([b, a])


def unit(digest, ok=True):
    return {"ops": [{"op": "T1", "ok": ok, "detail": "", "digest": digest}]}


def test_digest_mismatch_counts_as_a_failed_operation():
    attempted, failed, problems = run.tally([[unit("aa"), unit("aa"), unit("bb")]], [])
    assert (attempted, failed) == (3, 1)
    assert problems == ["T1: repetition 2 digest bb != aa"]


def test_traced_repetition_digest_is_checked_too():
    attempted, failed, _ = run.tally([[unit("aa")]], [unit("cc")])
    assert (attempted, failed) == (2, 1)


def test_failed_check_counts_once():
    attempted, failed, _ = run.tally([[unit("aa", ok=False), unit("aa")]], [])
    assert (attempted, failed) == (2, 1)
