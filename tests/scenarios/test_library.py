"""The shipped scenario library: every entry compiles and survives the oracle."""

import pytest

from repro.scenarios import (
    SCENARIO_LIBRARY,
    check_scenario,
    teragrid_baseline,
)
from repro.users.population import PopulationSpec
from repro.workloads import ScenarioConfig, run_scenario

EXPECTED_NAMES = {
    "osg-opportunistic",
    "grid5000-reconfig",
    "deadline-gateway-campaign",
    "teragrid-baseline",
}


def test_registry_names_and_shape():
    assert set(SCENARIO_LIBRARY) == EXPECTED_NAMES
    for name, factory in SCENARIO_LIBRARY.items():
        program = factory()
        assert program.name == name
        assert program.description
        # Factories hand out equal (and independent) programs each call.
        assert factory() == program


def test_every_entry_compiles_deterministically():
    for factory in SCENARIO_LIBRARY.values():
        program = factory()
        assert program.compile() == program.compile()


def test_outage_regimes_always_carry_recovery():
    # The compile-time guarantee, checked across the whole library.
    for factory in SCENARIO_LIBRARY.values():
        config = factory().compile()
        if config.outages is not None:
            assert config.recovery is not None


def test_teragrid_baseline_matches_hand_built_config():
    expected = ScenarioConfig(
        scale="small",
        days=30.0,
        seed=1,
        population=PopulationSpec(scale=0.05, n_gateways=3),
        gateway_tagging_coverage=1.0,
    )
    assert teragrid_baseline().compile() == expected


@pytest.mark.parametrize("name", sorted(EXPECTED_NAMES))
def test_library_scenarios_pass_every_invariant(name):
    # Full horizons belong to `repro scenario run`; a few days exercise the
    # same machinery (outages included — the shortest MTBF here is 2 days).
    program = SCENARIO_LIBRARY[name]()
    result = run_scenario(program.compile(days=min(program.days, 4.0)))
    assert result.records, f"{name} produced no usage records"
    report = check_scenario(result)
    assert report.ok, "\n".join(
        [report.summary()] + [str(v) for v in report.violations]
    )
    assert report.checks["capacity.peak_cores"]
