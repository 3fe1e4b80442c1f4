"""Per-run id counters: a campaign's records do not depend on process history.

Job, workflow, ensemble and the other ids come from module-global counters;
:func:`run_scenario` scopes them to the run, so the same config yields the
same records in a fresh interpreter, on a repeat and after other campaigns.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workloads.synthetic import run_scenario, scoped_id_counters

SRC = Path(__file__).resolve().parents[2] / "src"

CONFIG = dict(days=1.0, seed=2)
OTHER = dict(days=1.5, seed=5)


def _digest(records) -> str:
    return hashlib.sha256(repr(records).encode("utf-8")).hexdigest()


def _fresh_process_digest() -> str:
    code = (
        "import hashlib\n"
        "from repro.workloads.synthetic import run_scenario\n"
        f"records = run_scenario(**{CONFIG!r}).records\n"
        "print(hashlib.sha256(repr(records).encode('utf-8')).hexdigest())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    )
    return out.stdout.strip()


def test_records_do_not_depend_on_process_history():
    first = run_scenario(**CONFIG).records
    assert first, "the config must produce records"
    assert min(record.job_id for record in first) == 1
    again = run_scenario(**CONFIG).records
    run_scenario(**OTHER)
    after_other = run_scenario(**CONFIG).records
    assert repr(first) == repr(again) == repr(after_other)
    assert _digest(first) == _fresh_process_digest()


def test_scoped_id_counters_restart_and_restore():
    import repro.infra.job as job_mod

    before = next(job_mod._job_ids)
    with scoped_id_counters():
        assert next(job_mod._job_ids) == 1
        assert next(job_mod._job_ids) == 2
    assert next(job_mod._job_ids) == before + 1


def test_scoped_id_counters_restore_on_error():
    import repro.users.behavior as behavior_mod

    before = next(behavior_mod._ensemble_ids)
    with pytest.raises(RuntimeError):
        with scoped_id_counters():
            raise RuntimeError("boom")
    assert next(behavior_mod._ensemble_ids) == before + 1
