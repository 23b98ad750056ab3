"""Tests for the structured-event vocabulary, schema validation and sampling."""

import io
import json

import pytest

from repro.common.errors import ConfigurationError, ReproError
from repro.obs.events import (
    EVENT_TYPES,
    SAMPLED_EVENTS,
    ChurnAppliedEvent,
    EvictionEvent,
    FlowInstallEvent,
    PacketInEvent,
    RegroupFinishEvent,
    RegroupStartEvent,
    ReplayTickEvent,
    event_to_dict,
    validate_event_dict,
)
from repro.obs.tracer import JsonlEventListener, sample_stride


class TestEventSerialization:
    def test_every_event_type_round_trips_through_validation(self):
        samples = [
            PacketInEvent(time=1.0, switch_id=3, kind="reactive"),
            FlowInstallEvent(time=2.0, switch_id=3, egress_switch_id=None),
            EvictionEvent(time=3.0, switch_id=1, reason="evicted"),
            RegroupStartEvent(time=4.0, trigger="overload", churn_pending=2, workload_rps=9.5),
            RegroupFinishEvent(
                time=5.0, applied=True, reason="overload", churn_attributed=True, group_count=4
            ),
            ChurnAppliedEvent(time=6.0, kind="host_migration", applied=1),
            ReplayTickEvent(time=7.0, index=0),
        ]
        for event in samples:
            record = event_to_dict(event, system="lazyctrl", seq=0, scenario="s")
            # The JSON round-trip is what the JSONL stream actually carries.
            validate_event_dict(json.loads(json.dumps(record)))

    def test_record_is_self_describing(self):
        record = event_to_dict(
            PacketInEvent(time=1.5, switch_id=7, kind="arp"), system="lazyctrl", seq=12
        )
        assert record == {
            "event": "packet_in",
            "system": "lazyctrl",
            "seq": 12,
            "time": 1.5,
            "switch_id": 7,
            "kind": "arp",
        }

    def test_sampled_events_are_a_subset_of_the_vocabulary(self):
        assert SAMPLED_EVENTS <= set(EVENT_TYPES)
        # Lifecycle events must never be sampled: the exporter pairs them.
        assert {"regroup_start", "regroup_finish", "churn", "chunk_drained",
                "replay_tick"}.isdisjoint(SAMPLED_EVENTS)


class TestValidation:
    def valid(self):
        return event_to_dict(
            PacketInEvent(time=1.0, switch_id=3, kind="reactive"), system="openflow"
        )

    def test_unknown_event_name_rejected(self):
        with pytest.raises(ReproError, match="unknown event"):
            validate_event_dict({"event": "nope", "system": "s", "time": 1.0})

    def test_missing_field_rejected(self):
        record = self.valid()
        del record["switch_id"]
        with pytest.raises(ReproError, match="missing field.*switch_id"):
            validate_event_dict(record)

    def test_unknown_field_rejected(self):
        record = self.valid()
        record["extra"] = 1
        with pytest.raises(ReproError, match="unknown key 'extra'"):
            validate_event_dict(record)

    def test_wrong_type_rejected(self):
        record = self.valid()
        record["switch_id"] = "three"
        with pytest.raises(ReproError, match="wrong type"):
            validate_event_dict(record)

    def test_bool_does_not_pass_as_int(self):
        record = self.valid()
        record["switch_id"] = True
        with pytest.raises(ReproError, match="wrong type bool"):
            validate_event_dict(record)

    def test_int_passes_where_float_expected(self):
        record = self.valid()
        record["time"] = 3
        validate_event_dict(record)

    def test_null_rejected_for_non_optional_field(self):
        record = self.valid()
        record["kind"] = None
        with pytest.raises(ReproError, match="must not be null"):
            validate_event_dict(record)

    def test_null_accepted_for_optional_field(self):
        record = event_to_dict(
            FlowInstallEvent(time=1.0, switch_id=2, egress_switch_id=None), system="s"
        )
        assert record["egress_switch_id"] is None
        validate_event_dict(record)

    def test_non_object_rejected(self):
        with pytest.raises(ReproError, match="JSON object"):
            validate_event_dict([1, 2, 3])

    @pytest.mark.parametrize(
        "change, message",
        [
            ({"system": None}, "'system' must be a string"),
            ({"seq": 1.5}, "'seq' must be an integer"),
            ({"seq": True}, "'seq' must be an integer"),
            ({"scenario": 7}, "'scenario' must be a string"),
        ],
    )
    def test_bad_envelope_rejected(self, change, message):
        record = {**self.valid(), **change}
        with pytest.raises(ReproError, match=message):
            validate_event_dict(record)

    def test_missing_envelope_key_rejected(self):
        record = self.valid()
        del record["system"]
        with pytest.raises(ReproError, match="missing required key 'system'"):
            validate_event_dict(record)


class TestSampling:
    def test_stride_values(self):
        assert sample_stride(1.0) == 1
        assert sample_stride(0.5) == 2
        assert sample_stride(0.1) == 10
        assert sample_stride(0.001) == 1000

    def test_out_of_range_sample_rejected(self):
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ConfigurationError):
                sample_stride(bad)

    def lines(self, sink):
        return [json.loads(line) for line in sink.getvalue().splitlines()]

    def test_stride_sampling_is_deterministic_and_keeps_the_first(self):
        sink = io.StringIO()
        listener = JsonlEventListener(sink, system="s", sample=0.25)
        for index in range(10):
            listener.on_event(PacketInEvent(time=float(index), switch_id=0, kind="reactive"))
        records = self.lines(sink)
        assert [record["seq"] for record in records] == [0, 4, 8]

    def test_seq_is_the_pre_sampling_index_per_event_type(self):
        sink = io.StringIO()
        listener = JsonlEventListener(sink, system="s", sample=0.5)
        for index in range(4):
            listener.on_event(PacketInEvent(time=float(index), switch_id=0, kind="reactive"))
            listener.on_event(EvictionEvent(time=float(index), switch_id=0, reason="evicted"))
        records = self.lines(sink)
        by_type = {}
        for record in records:
            by_type.setdefault(record["event"], []).append(record["seq"])
        # Each type keeps its own counter; the last seen seq recovers the
        # true pre-sampling count (seq 2 of 4 events at stride 2).
        assert by_type == {"packet_in": [0, 2], "eviction": [0, 2]}

    def test_lifecycle_events_are_never_sampled(self):
        sink = io.StringIO()
        listener = JsonlEventListener(sink, system="s", sample=0.01)
        for index in range(7):
            listener.on_event(ReplayTickEvent(time=float(index), index=index))
        assert len(self.lines(sink)) == 7

    def test_every_written_line_validates(self):
        sink = io.StringIO()
        listener = JsonlEventListener(sink, system="s", scenario="sc", sample=0.5)
        for index in range(6):
            listener.on_event(PacketInEvent(time=float(index), switch_id=1, kind="reactive"))
            listener.on_event(ChurnAppliedEvent(time=float(index), kind="traffic_drift", applied=0))
        for record in self.lines(sink):
            validate_event_dict(record)
            assert record["scenario"] == "sc"
