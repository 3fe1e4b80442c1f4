"""The scenario DSL: validation, apportionment, deterministic compilation."""

import pytest

from repro.core.modalities import MODALITY_ORDER, Modality
from repro.infra.amie import IngestRecoveryPolicy
from repro.infra.metascheduler import SelectionStrategy
from repro.infra.scheduler import FcfsScheduler
from repro.scenarios import (
    FederationDef,
    GatewayFleet,
    IngestFaults,
    LoadShape,
    ModalityMix,
    OutageRegime,
    RecoverySuite,
    ScenarioProgram,
)
from repro.users.behavior import DEFAULT_RECOVERY, RecoveryPolicy
from repro.users.profiles import DEFAULT_PROFILES
from repro.workloads import SiteSpec

# ---------------------------------------------------------------- federation


def test_federation_requires_exactly_one_source():
    with pytest.raises(ValueError, match="exactly one"):
        FederationDef(preset=None, sites=None)
    with pytest.raises(ValueError, match="exactly one"):
        FederationDef(
            preset="small",
            sites=(SiteSpec("a", 4, 4, 1.0, 1e9),),
        )


def test_federation_rejects_duplicates_and_unknown_preset():
    dup = SiteSpec("a", 4, 4, 1.0, 1e9)
    with pytest.raises(ValueError, match="duplicate site names"):
        FederationDef(preset=None, sites=(dup, dup))
    with pytest.raises(ValueError, match="unknown federation scale"):
        FederationDef(preset="galactic")
    with pytest.raises(ValueError, match="non-empty"):
        FederationDef(preset=None, sites=())


def test_federation_preset_expands():
    assert len(FederationDef(preset="small").specs()) == 3
    assert len(FederationDef(preset="full").specs()) == 8


# ---------------------------------------------------------------- mix


def test_mix_apportionment_preserves_total_exactly():
    mix = ModalityMix(
        total_users=10,
        weights={Modality.BATCH: 1.0, Modality.EXPLORATORY: 1.0,
                 Modality.GATEWAY: 1.0},
    )
    counts = mix.counts()
    assert sum(counts.values()) == 10
    assert counts[Modality.VIZ] == 0  # absent modalities get zero


def test_mix_apportionment_is_deterministic_and_weight_ordered():
    mix = ModalityMix(
        total_users=7,
        weights={m: 1.0 for m in MODALITY_ORDER},
    )
    first = mix.counts()
    assert first == mix.counts()
    assert sum(first.values()) == 7
    # Equal weights, 7 users over 6 modalities: earliest taxonomy entries
    # take the remainder.
    assert first[Modality.BATCH] == 2
    heavy = ModalityMix(
        total_users=9,
        weights={Modality.BATCH: 8.0, Modality.VIZ: 1.0},
    )
    assert heavy.counts()[Modality.BATCH] == 8
    assert heavy.counts()[Modality.VIZ] == 1


def test_mix_validation():
    with pytest.raises(ValueError, match="total_users"):
        ModalityMix(total_users=0, weights={Modality.BATCH: 1.0})
    with pytest.raises(ValueError, match="at least one modality"):
        ModalityMix(total_users=5, weights={})
    with pytest.raises(ValueError, match="negative weight"):
        ModalityMix(total_users=5, weights={Modality.BATCH: -1.0})
    with pytest.raises(ValueError, match="positive"):
        ModalityMix(total_users=5, weights={Modality.BATCH: 0.0})
    with pytest.raises(ValueError, match="must be Modality"):
        ModalityMix(total_users=5, weights={"batch": 1.0})


# ---------------------------------------------------------------- parts


def test_gateway_fleet_validation():
    with pytest.raises(ValueError, match="n_gateways"):
        GatewayFleet(n_gateways=0)
    with pytest.raises(ValueError, match="tagging_coverage"):
        GatewayFleet(tagging_coverage=1.2)
    with pytest.raises(ValueError, match="backlog"):
        GatewayFleet(backlog=-1)
    with pytest.raises(ValueError, match="adoption_ramp_days"):
        GatewayFleet(adoption_ramp_days=-1.0)


def test_outage_regime_maps_human_units():
    regime = OutageRegime(site_mtbf_days=10.0, repair_median_hours=2.0,
                          propagation_lag_minutes=5.0)
    policy = regime.policy()
    assert policy.site_mtbf == 10.0 * 86400.0
    assert policy.repair_median == 2.0 * 3600.0
    assert regime.propagation_lag == 300.0
    with pytest.raises(ValueError):
        OutageRegime(repair_min_hours=4.0, repair_max_hours=1.0)
    with pytest.raises(ValueError, match="propagation_lag"):
        OutageRegime(propagation_lag_minutes=-1.0)


def test_load_shape_scales_think_times():
    assert LoadShape().profiles() is None  # identity: leave defaults alone
    doubled = LoadShape(intensity=2.0).profiles()
    for modality, profile in doubled.items():
        assert profile.think_time_mean == pytest.approx(
            DEFAULT_PROFILES[modality].think_time_mean / 2.0
        )
    with pytest.raises(ValueError, match="intensity"):
        LoadShape(intensity=0.0)


def test_recovery_suite_merges_over_defaults():
    custom = RecoveryPolicy(max_attempts=9)
    suite = RecoverySuite(overrides={Modality.BATCH: custom})
    policies = suite.policies()
    assert policies[Modality.BATCH] is custom
    assert policies[Modality.VIZ] == DEFAULT_RECOVERY[Modality.VIZ]
    with pytest.raises(ValueError, match="RecoveryPolicy"):
        RecoverySuite(overrides={Modality.BATCH: "retry"})


# ---------------------------------------------------------------- program


def test_program_validation():
    with pytest.raises(ValueError, match="needs a name"):
        ScenarioProgram(name="")
    with pytest.raises(ValueError, match="days must be positive"):
        ScenarioProgram(name="x", days=0.0)
    with pytest.raises(ValueError, match="unknown scheduler"):
        ScenarioProgram(name="x", scheduler="lottery")
    with pytest.raises(ValueError, match="population_scale"):
        ScenarioProgram(name="x", population_scale=0.0)
    with pytest.raises(ValueError, match="SelectionStrategy"):
        ScenarioProgram(name="x", metascheduler="random")


def test_compile_is_deterministic_and_pure():
    program = ScenarioProgram(
        name="p",
        days=3.0,
        seed=9,
        mix=ModalityMix(total_users=6, weights={Modality.BATCH: 1.0}),
        outages=OutageRegime(site_mtbf_days=1.0),
        scheduler="fcfs",
    )
    a, b = program.compile(), program.compile()
    assert a == b
    assert a.scheduler_factory is FcfsScheduler
    assert a.days == 3.0 and a.seed == 9
    assert a.population.counts[Modality.BATCH] == 6


def test_compile_overrides_seed_and_days():
    program = ScenarioProgram(name="p", days=5.0, seed=1)
    config = program.compile(seed=77, days=2.0)
    assert config.seed == 77 and config.days == 2.0
    # The program itself is untouched (frozen).
    assert program.seed == 1 and program.days == 5.0


def test_compile_pairs_outages_with_default_recovery():
    program = ScenarioProgram(
        name="p", outages=OutageRegime(site_mtbf_days=2.0)
    )
    config = program.compile()
    assert config.outages is not None
    assert config.recovery == DEFAULT_RECOVERY
    calm = ScenarioProgram(name="q")
    assert calm.compile().outages is None
    assert calm.compile().recovery is None


def test_compile_carries_gateway_fleet_and_metascheduler():
    program = ScenarioProgram(
        name="p",
        gateways=GatewayFleet(n_gateways=2, tagging_coverage=0.5,
                              backlog=7, adoption_ramp_days=2.0),
        metascheduler=SelectionStrategy.ROUND_ROBIN,
    )
    config = program.compile()
    assert config.gateway_tagging_coverage == 0.5
    assert config.gateway_backlog == 7
    assert config.gateway_adoption_ramp_days == 2.0
    assert config.population.n_gateways == 2
    assert config.metascheduler_strategy is SelectionStrategy.ROUND_ROBIN


# ---------------------------------------------------------------- ingest


def test_ingest_faults_validation():
    with pytest.raises(ValueError, match="unknown recovery level"):
        IngestFaults(recovery="hope")
    with pytest.raises(ValueError, match="drop_rate"):
        IngestFaults(drop_rate=1.5)
    with pytest.raises(ValueError, match="delay_mean_minutes"):
        IngestFaults(delay_mean_minutes=-5.0)
    with pytest.raises(ValueError, match="ack_timeout"):
        IngestFaults(ack_timeout_minutes=0.0)
    with pytest.raises(ValueError, match="max_attempts"):
        IngestFaults(max_attempts=0)


def test_ingest_faults_lower_to_regime_and_policy():
    faults = IngestFaults(
        drop_rate=0.2,
        corrupt_rate=0.1,
        delay_mean_minutes=15.0,
        recovery="retry",
        ack_timeout_minutes=20.0,
        max_attempts=3,
    )
    regime = faults.regime()
    assert regime.drop_rate == 0.2
    assert regime.corrupt_rate == 0.1
    assert regime.delay_mean == 15.0 * 60.0
    assert regime.enabled
    policy = faults.policy()
    assert policy.retransmit and not policy.reconcile
    assert policy.ack_timeout == 20.0 * 60.0
    assert policy.max_attempts == 3


def test_ingest_recovery_levels_map_to_policy_flags():
    assert IngestFaults(recovery="none").policy().retransmit is False
    assert IngestFaults(recovery="none").policy().reconcile is False
    retry = IngestFaults(recovery="retry").policy()
    assert retry.retransmit and not retry.reconcile
    audit = IngestFaults(recovery="audit").policy()
    assert audit.retransmit and audit.reconcile


def test_compile_carries_ingest_section():
    program = ScenarioProgram(
        name="p", ingest=IngestFaults(drop_rate=0.1, recovery="audit")
    )
    config = program.compile()
    assert config.packet_faults == IngestFaults(drop_rate=0.1).regime()
    assert config.ingest_recovery is not None
    assert config.ingest_recovery.reconcile
    assert config.faulty_ingest
    # no section -> the lossless exchange under the default policy
    calm = ScenarioProgram(name="q").compile()
    assert not calm.packet_faults.enabled
    assert calm.ingest_recovery == IngestRecoveryPolicy()
    assert not calm.faulty_ingest
