"""Tests for the retry policy, failure taxonomy and wall-clock limits."""

import time

import pytest

from repro.runner.retry import (
    FAILURE_EXCEPTION,
    FAILURE_TIMEOUT,
    FAILURE_WORKER_CRASH,
    RetryPolicy,
    TaskFailure,
    TaskTimeout,
    wall_clock_limit,
)


# -- policy --------------------------------------------------------------------

def test_transient_kinds_retry_until_attempts_exhaust():
    policy = RetryPolicy(max_attempts=3)
    for kind in (FAILURE_TIMEOUT, FAILURE_WORKER_CRASH):
        assert policy.should_retry(kind, 1)
        assert policy.should_retry(kind, 2)
        assert not policy.should_retry(kind, 3)


def test_task_exceptions_never_retry():
    policy = RetryPolicy(max_attempts=100)
    assert not policy.should_retry(FAILURE_EXCEPTION, 1)


def test_backoff_grows_and_caps():
    policy = RetryPolicy(base_delay=1.0, backoff_factor=2.0,
                         max_delay=5.0, jitter=0.0)
    delays = [policy.delay("k", attempt) for attempt in (1, 2, 3, 4, 5)]
    assert delays == [1.0, 2.0, 4.0, 5.0, 5.0]  # capped at max_delay


def test_jitter_shrinks_never_grows():
    policy = RetryPolicy(base_delay=1.0, jitter=0.5)
    for attempt in range(1, 6):
        jittered = policy.delay("some-task", attempt)
        plain = RetryPolicy(base_delay=1.0, jitter=0.0).delay("x", attempt)
        assert 0.5 * plain <= jittered <= plain


def test_delay_is_deterministic_per_task_and_attempt():
    a = RetryPolicy(seed=3)
    b = RetryPolicy(seed=3)
    assert a.delay("task", 2) == b.delay("task", 2)
    assert a.delay("task", 2) != a.delay("task", 3)
    assert a.delay("task", 2) != a.delay("other", 2)
    assert RetryPolicy(seed=4).delay("task", 2) != a.delay("task", 2)


def test_policy_validation():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(base_delay=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_factor=0.5)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)


# -- failure record ------------------------------------------------------------

def test_describe_includes_what_a_debugger_needs():
    failure = TaskFailure(
        experiment_id="R1", index=2, seed=3, kind=FAILURE_EXCEPTION,
        error_type="ValueError", message="bad knob", attempts=1,
    )
    text = failure.describe()
    assert "task 2" in text and "seed 3" in text
    assert "ValueError: bad knob" in text


def test_describe_without_error_type():
    failure = TaskFailure(
        experiment_id="R1", index=0, seed=1, kind=FAILURE_TIMEOUT,
        message="exceeded 5s", attempts=4,
    )
    assert "timeout after 4 attempt(s): exceeded 5s" in failure.describe()


# -- wall-clock limit ----------------------------------------------------------

def test_limit_interrupts_oversleeping_body():
    started = time.monotonic()
    with pytest.raises(TaskTimeout):
        with wall_clock_limit(0.2):
            time.sleep(10.0)
    assert time.monotonic() - started < 5.0


def test_swallowed_alarm_still_times_the_body_out():
    # An alarm landing in a gc callback is dropped as unraisable; catching it
    # in the body stands in for that.
    with pytest.raises(TaskTimeout):
        with wall_clock_limit(0.05):
            try:
                time.sleep(10.0)
            except TaskTimeout:
                pass


def test_limit_is_transparent_when_body_is_fast():
    with wall_clock_limit(30.0):
        value = sum(range(1000))
    assert value == 499500


def test_no_limit_means_no_alarm():
    with wall_clock_limit(None):
        pass
    with wall_clock_limit(0):
        pass


def test_alarm_state_is_restored_after_use():
    import signal

    with wall_clock_limit(30.0):
        pass
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_limit_is_noop_off_main_thread():
    import threading

    outcome = {}

    def body():
        try:
            with wall_clock_limit(0.05):
                time.sleep(0.2)  # would time out on the main thread
            outcome["ok"] = True
        except Exception as exc:  # pragma: no cover - failure path
            outcome["error"] = exc

    thread = threading.Thread(target=body)
    thread.start()
    thread.join()
    assert outcome == {"ok": True}
