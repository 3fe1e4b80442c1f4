"""Per-run ids: a run's records do not depend on process history.

Job, workflow, ensemble, co-allocation and the other ids are minted from the
run's own :class:`~repro.sim.Simulator`, so the same config yields the same
records in a fresh interpreter, on a repeat and after other campaigns — and
so does an experiment that builds its own simulators.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import repro.experiments  # noqa: F401  (registers every experiment)
from repro.core.modalities import Modality
from repro.experiments.base import run_experiment
from repro.sim import Simulator
from repro.users.behavior import sample_job
from repro.users.population import User
from repro.users.profiles import DEFAULT_PROFILES
from repro.workloads.synthetic import run_scenario

SRC = Path(__file__).resolve().parents[2] / "src"

CONFIG = dict(days=1.0, seed=2)
OTHER = dict(days=1.5, seed=5)


def _digest(records) -> str:
    return hashlib.sha256(repr(records).encode("utf-8")).hexdigest()


def _fresh_process(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    ))
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    )
    return out.stdout.strip()


def _fresh_process_digest() -> str:
    return _fresh_process(
        "import hashlib\n"
        "from repro.workloads.synthetic import run_scenario\n"
        f"records = run_scenario(**{CONFIG!r}).records\n"
        "print(hashlib.sha256(repr(records).encode('utf-8')).hexdigest())\n"
    )


def test_records_do_not_depend_on_process_history():
    first = run_scenario(**CONFIG).records
    assert first, "the config must produce records"
    assert min(record.job_id for record in first) == 1
    again = run_scenario(**CONFIG).records
    run_scenario(**OTHER)
    after_other = run_scenario(**CONFIG).records
    assert repr(first) == repr(again) == repr(after_other)
    assert _digest(first) == _fresh_process_digest()


def test_each_simulator_mints_jobs_from_one():
    user = User(
        user_id="u1", modality=Modality.BATCH, field="Physics",
        account="TG-U1", home_site="ranger",
    )
    profile = DEFAULT_PROFILES[Modality.BATCH]
    rng = np.random.default_rng(0)
    a, b = Simulator(), Simulator()
    ids = [
        sample_job(sim, rng, profile, user).job_id for sim in (a, b, a, b, b)
    ]
    assert ids == [1, 1, 2, 2, 3]
    # Each kind is numbered on its own.
    assert a.next_id("workflow") == 1


def test_experiment_with_its_own_simulators_ignores_process_history():
    """F7 builds its simulators by hand; no campaign before it moves its ids."""
    digest_code = (
        "import hashlib\n"
        "import repro.experiments\n"
        "from repro.experiments.base import run_experiment\n"
        "output = run_experiment('F7')\n"
        "print(hashlib.sha256(repr((output.text, output.data))"
        ".encode('utf-8')).hexdigest())\n"
    )
    run_scenario(**OTHER)
    output = run_experiment("F7")
    assert _digest((output.text, output.data)) == _fresh_process(digest_code)
