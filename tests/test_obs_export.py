"""Tests for the Chrome trace-event exporter and its validators."""

import json

import pytest

from repro.common.errors import ReproError
from repro.obs.export import (
    chrome_trace,
    read_events,
    validate_chrome_trace,
    write_chrome_trace,
)


def records():
    return [
        {"event": "packet_in", "system": "openflow", "time": 1.0,
         "switch_id": 3, "kind": "reactive"},
        {"event": "regroup_start", "system": "lazyctrl-dynamic", "time": 2.0,
         "trigger": "overload", "churn_pending": 0, "workload_rps": 5.0},
        {"event": "regroup_finish", "system": "lazyctrl-dynamic", "time": 3.0,
         "applied": True, "reason": "overload", "churn_attributed": False,
         "group_count": 4},
    ]


class TestChromeTrace:
    def test_processes_and_threads_are_named(self):
        payload = chrome_trace(records())
        metadata = [entry for entry in payload["traceEvents"] if entry["ph"] == "M"]
        process_names = {
            entry["args"]["name"] for entry in metadata if entry["name"] == "process_name"
        }
        assert process_names == {"openflow", "lazyctrl-dynamic"}
        thread_names = {
            entry["args"]["name"] for entry in metadata if entry["name"] == "thread_name"
        }
        assert {"controller", "grouping"} <= thread_names

    def test_regroup_pairs_become_balanced_spans(self):
        payload = chrome_trace(records())
        phases = [entry["ph"] for entry in payload["traceEvents"] if entry["name"] == "regroup"]
        assert phases == ["B", "E"]
        validate_chrome_trace(payload)

    def test_timestamps_are_simulation_microseconds(self):
        payload = chrome_trace(records())
        instants = [entry for entry in payload["traceEvents"] if entry["ph"] == "i"]
        assert instants[0]["ts"] == pytest.approx(1.0e6)

    def test_profile_stages_become_complete_spans(self):
        profile = [{
            "scenario": "s", "system": "openflow",
            "perf": {"stages": [
                {"name": "replay", "calls": 1, "total_seconds": 2.0, "exclusive_seconds": 0.5},
                {"name": "flow_handling", "calls": 9, "total_seconds": 1.5,
                 "exclusive_seconds": 1.5},
            ]},
        }]
        payload = chrome_trace(records(), profile=profile)
        spans = [entry for entry in payload["traceEvents"] if entry["ph"] == "X"]
        assert [span["name"] for span in spans] == ["replay", "flow_handling"]
        # Aggregated stages are laid out back to back.
        assert spans[1]["ts"] == pytest.approx(spans[0]["ts"] + spans[0]["dur"])
        validate_chrome_trace(payload)


class TestFileRoundTrip:
    def write_events(self, path, items):
        path.write_text("".join(json.dumps(item) + "\n" for item in items), encoding="utf-8")

    def test_write_and_validate(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        out_path = tmp_path / "trace.json"
        self.write_events(events_path, records())
        event_count, entry_count = write_chrome_trace(events_path, out_path)
        assert event_count == 3
        payload = json.loads(out_path.read_text(encoding="utf-8"))
        assert validate_chrome_trace(payload) == entry_count

    def test_read_events_names_the_bad_line(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        events_path.write_text('{"event": "packet_in"\nnot json\n', encoding="utf-8")
        with pytest.raises(ReproError, match="events.jsonl:1"):
            list(read_events(events_path))

    def test_read_events_rejects_schema_violations_with_line_number(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        bad = records()[0]
        del bad["switch_id"]
        self.write_events(events_path, [bad])
        with pytest.raises(ReproError, match="events.jsonl:1.*switch_id"):
            list(read_events(events_path))

    def test_read_events_skips_blank_lines(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        events_path.write_text(
            json.dumps(records()[0]) + "\n\n" + json.dumps(records()[0]) + "\n",
            encoding="utf-8",
        )
        assert len(list(read_events(events_path))) == 2

    def test_profile_must_be_a_list(self, tmp_path):
        events_path = tmp_path / "events.jsonl"
        self.write_events(events_path, records())
        profile_path = tmp_path / "profile.json"
        profile_path.write_text("{}", encoding="utf-8")
        with pytest.raises(ReproError, match="profile"):
            write_chrome_trace(events_path, tmp_path / "t.json", profile_path=profile_path)


class TestTraceValidation:
    def test_rejects_unbalanced_begin(self):
        payload = {"traceEvents": [
            {"ph": "B", "name": "regroup", "pid": 1, "tid": 3, "ts": 0.0},
        ]}
        with pytest.raises(ReproError, match="left open"):
            validate_chrome_trace(payload)

    def test_rejects_end_without_begin(self):
        payload = {"traceEvents": [
            {"ph": "E", "name": "regroup", "pid": 1, "tid": 3, "ts": 0.0},
        ]}
        with pytest.raises(ReproError, match="without a matching"):
            validate_chrome_trace(payload)

    def test_rejects_unknown_phase_and_bad_container(self):
        with pytest.raises(ReproError, match="unknown phase"):
            validate_chrome_trace(
                {"traceEvents": [{"ph": "Z", "name": "x", "pid": 1, "tid": 1, "ts": 0.0}]}
            )
        with pytest.raises(ReproError, match="traceEvents"):
            validate_chrome_trace([])

    @pytest.mark.parametrize(
        "entry, message",
        [
            ("not-an-object", "not an object"),
            ({"ph": "i", "pid": 1, "tid": 1, "ts": 0.0}, "missing event name"),
            ({"ph": "i", "name": "x", "pid": "1", "tid": 1, "ts": 0.0}, "'pid' must be an integer"),
            ({"ph": "i", "name": "x", "pid": 1, "tid": True, "ts": 0.0}, "'tid' must be an integer"),
            ({"ph": "i", "name": "x", "pid": 1, "tid": 1, "ts": "0"}, "'ts' must be a number"),
        ],
    )
    def test_rejects_a_malformed_entry(self, entry, message):
        with pytest.raises(ReproError, match=message):
            validate_chrome_trace({"traceEvents": [entry]})

    def test_rejects_negative_duration(self):
        payload = {"traceEvents": [
            {"ph": "X", "name": "stage", "pid": 1, "tid": 9, "ts": 0.0, "dur": -1.0},
        ]}
        with pytest.raises(ReproError, match="dur"):
            validate_chrome_trace(payload)
