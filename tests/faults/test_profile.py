"""Fault profiles: validation, null detection, named presets."""

import pickle

import pytest

from repro.faults.profile import PROFILES, FaultProfile


class TestValidation:
    @pytest.mark.parametrize(
        "field",
        [
            "node_mtbf_days",
            "node_mttr_hours",
            "switch_mtbf_days",
            "switch_mttr_hours",
            "storm_mtbf_days",
            "storm_duration_hours",
        ],
    )
    def test_negative_rates_rejected(self, field):
        with pytest.raises(ValueError, match=field):
            FaultProfile(**{field: -1.0})

    def test_degradation_below_one_rejected(self):
        with pytest.raises(ValueError, match="switch_degradation"):
            FaultProfile(switch_degradation=0.5)

    def test_memory_pressure_below_one_rejected(self):
        with pytest.raises(ValueError, match="storm_memory_pressure"):
            FaultProfile(storm_memory_pressure=0.9)

    @pytest.mark.parametrize("rate", [-0.1, 1.0, 1.5])
    def test_dropout_rate_outside_unit_interval_rejected(self, rate):
        with pytest.raises(ValueError, match="collector_dropout_rate"):
            FaultProfile(collector_dropout_rate=rate)

    def test_negative_retries_rejected(self):
        with pytest.raises(ValueError, match="max_job_retries"):
            FaultProfile(max_job_retries=-1)


class TestNull:
    def test_default_profile_is_null(self):
        assert FaultProfile().is_null

    def test_none_preset_is_null(self):
        assert PROFILES["none"].is_null

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"node_mtbf_days": 30.0},
            {"switch_mtbf_days": 20.0},
            {"storm_mtbf_days": 10.0},
            {"collector_dropout_rate": 0.01},
        ],
    )
    def test_any_enabled_process_breaks_null(self, kwargs):
        assert not FaultProfile(**kwargs).is_null


class TestNamed:
    def test_presets_resolve_by_name(self):
        for name, preset in PROFILES.items():
            assert FaultProfile.named(name) is preset
            assert preset.name == name

    def test_unknown_name_lists_available(self):
        with pytest.raises(ValueError, match="mild"):
            FaultProfile.named("catastrophic")

    def test_non_null_presets_enable_something(self):
        assert not PROFILES["mild"].is_null
        assert not PROFILES["pathological"].is_null

    def test_resolve_maps_null_to_healthy(self):
        custom = FaultProfile(node_mtbf_days=5.0)
        assert FaultProfile.resolve("mild") is PROFILES["mild"]
        assert FaultProfile.resolve(custom) is custom
        for healthy in (None, "none", FaultProfile()):
            assert FaultProfile.resolve(healthy) is None
        with pytest.raises(ValueError, match="unknown fault profile"):
            FaultProfile.resolve("catastrophic")


class TestDataBehaviour:
    def test_profile_is_hashable_and_picklable(self):
        p = PROFILES["mild"]
        assert hash(p) == hash(PROFILES["mild"])
        assert pickle.loads(pickle.dumps(p)) == p

    def test_to_dict_round_trips(self):
        p = PROFILES["pathological"]
        assert FaultProfile(**p.to_dict()) == p

    def test_describe_mentions_enabled_processes(self):
        text = PROFILES["mild"].describe()
        assert "node crashes" in text
        assert "paging storms" in text
        assert "(all processes disabled)" in FaultProfile().describe()
