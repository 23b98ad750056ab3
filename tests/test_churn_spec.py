"""Unit tests for the declarative churn spec and its scenario integration."""

import dataclasses

import pytest

from repro.churn import ChurnSpec
from repro.common.errors import ConfigurationError
from repro.core.scenario import FailureInjectionSpec, ScenarioSpec


class TestValidation:
    def test_defaults_are_inert(self):
        spec = ChurnSpec()
        assert not spec.active

    @pytest.mark.parametrize("field", [
        "migration_rate_per_hour",
        "drift_rate_per_hour",
        "tenant_arrival_rate_per_hour",
        "tenant_departure_rate_per_hour",
    ])
    def test_negative_rates_rejected(self, field):
        with pytest.raises(ConfigurationError):
            ChurnSpec(**{field: -1.0})

    def test_any_positive_rate_makes_spec_active(self):
        assert ChurnSpec(migration_rate_per_hour=0.1).active
        assert ChurnSpec(drift_rate_per_hour=0.1).active
        assert ChurnSpec(tenant_arrival_rate_per_hour=0.1).active
        assert ChurnSpec(tenant_departure_rate_per_hour=0.1).active

    def test_window_bounds(self):
        with pytest.raises(ConfigurationError):
            ChurnSpec(start_hour=-1.0)
        with pytest.raises(ConfigurationError):
            ChurnSpec(start_hour=5.0, end_hour=5.0)

    def test_window_seconds_clamped_to_replay(self):
        spec = ChurnSpec(start_hour=2.0, end_hour=30.0)
        assert spec.window_seconds(24 * 3600.0) == (7200.0, 24 * 3600.0)
        open_ended = ChurnSpec(start_hour=1.0)
        assert open_ended.window_seconds(7200.0) == (3600.0, 7200.0)


class TestScenarioIntegration:
    def test_scenario_spec_round_trips_churn_block(self):
        spec = ScenarioSpec(
            name="with-churn",
            systems=("openflow",),
            churn=ChurnSpec(
                migration_rate_per_hour=3.0,
                tenant_arrival_rate_per_hour=0.5,
                end_hour=12.0,
            ),
        )
        assert ScenarioSpec.from_json(spec.to_json()) == spec

    def test_churn_round_trips_next_to_other_optional_blocks(self):
        # failures set, traffic.synthetic None, churn set: interleaved
        # Optional fields must all survive the JSON round trip.
        spec = ScenarioSpec(
            name="mixed",
            systems=("openflow",),
            failures=FailureInjectionSpec(at_hours=(4.0,)),
            churn=ChurnSpec(drift_rate_per_hour=1.0),
        )
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt.failures == spec.failures
        assert rebuilt.churn == spec.churn
        assert rebuilt.traffic.model == "realistic"

    def test_absent_churn_defaults_to_none(self):
        spec = ScenarioSpec(name="plain", systems=("openflow",))
        data = spec.to_dict()
        assert data["churn"] is None
        # Old spec files without the key still load.
        del data["churn"]
        assert ScenarioSpec.from_dict(data).churn is None

    def test_churn_active_property(self):
        plain = ScenarioSpec(name="plain", systems=("openflow",))
        assert not plain.churn_active
        inert = dataclasses.replace(plain, churn=ChurnSpec())
        assert not inert.churn_active
        active = dataclasses.replace(plain, churn=ChurnSpec(migration_rate_per_hour=1.0))
        assert active.churn_active
