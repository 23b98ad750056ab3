"""CLI tests for the observability surface: --events-out, timeline, trace-export."""

import json

import pytest

from repro.cli import main
from repro.obs.export import read_events
from repro.obs.events import SAMPLED_EVENTS

RUN_SMALL = [
    "--flows", "400",
    "--switches", "8",
    "--hosts", "60",
    "--duration-hours", "2",
]


class TestRunEventsOut:
    def test_events_stream_validates_line_by_line(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        code = main(["run", "paper-fig7", *RUN_SMALL, "--events-out", str(events_path)])
        assert code == 0
        records = list(read_events(events_path))
        assert records
        systems = {record["system"] for record in records}
        assert systems == {"openflow", "lazyctrl-static", "lazyctrl-dynamic"}
        assert all(record["scenario"] == "paper-fig7" for record in records)

    def test_trace_sample_thins_only_high_volume_events(self, tmp_path, capsys):
        full_path = tmp_path / "full.jsonl"
        sampled_path = tmp_path / "sampled.jsonl"
        assert main(["run", "paper-fig7", *RUN_SMALL, "--events-out", str(full_path)]) == 0
        assert main(["run", "paper-fig7", *RUN_SMALL, "--events-out", str(sampled_path),
                     "--trace-sample", "0.1"]) == 0
        full = list(read_events(full_path))
        sampled = list(read_events(sampled_path))

        def count(records, predicate):
            return sum(1 for record in records if predicate(record))

        def high_volume(record):
            return record["event"] in SAMPLED_EVENTS

        def lifecycle(record):
            return record["event"] not in SAMPLED_EVENTS


        assert count(sampled, high_volume) < count(full, high_volume)
        assert count(sampled, lifecycle) == count(full, lifecycle)

    def test_sampled_seq_recovers_true_counts(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        assert main(["run", "paper-fig7", *RUN_SMALL, "--systems", "openflow",
                     "--events-out", str(events_path), "--trace-sample", "0.25"]) == 0
        out_path = tmp_path / "results.json"
        assert main(["run", "paper-fig7", *RUN_SMALL, "--systems", "openflow",
                     "--out", str(out_path)]) == 0
        requests = json.loads(out_path.read_text())["runs"]["openflow"][
            "total_controller_requests"
        ]
        last_seq = max(
            record["seq"]
            for record in read_events(events_path)
            if record["event"] == "packet_in"
        )
        stride = 4  # sample 0.25
        # The stream keeps every stride-th packet_in starting at seq 0, so
        # the last written seq pins the true count to within one stride.
        assert last_seq == ((requests - 1) // stride) * stride

    def test_multi_scenario_preset_is_rejected(self, tmp_path, capsys):
        code = main(["run", "scale-sweep", "--events-out", str(tmp_path / "e.jsonl")])
        assert code == 2
        assert "--events-out needs a single scenario" in capsys.readouterr().err

    def test_invalid_sample_rate_is_a_usage_error(self, tmp_path, capsys):
        code = main(["run", "paper-fig7", *RUN_SMALL,
                     "--events-out", str(tmp_path / "e.jsonl"), "--trace-sample", "2.0"])
        assert code == 2
        assert "sample rate" in capsys.readouterr().err


class TestTimelineCommand:
    def test_renders_sparklines_per_system(self, capsys):
        assert main(["timeline", "paper-fig7", *RUN_SMALL]) == 0
        out = capsys.readouterr().out
        assert "paper-fig7 · OpenFlow" in out
        assert "paper-fig7 · LazyCtrl (dynamic)" in out
        assert "flows" in out and "packet_ins" in out
        assert any(char in out for char in "▁▂▃▄▅▆▇█")

    def test_bucket_seconds_override(self, capsys):
        assert main(["timeline", "paper-fig7", *RUN_SMALL, "--systems", "openflow",
                     "--bucket-seconds", "3600"]) == 0
        assert "2 buckets × 1h" in capsys.readouterr().out

    @pytest.mark.parametrize("width", ("0", "-5"))
    def test_non_positive_bucket_seconds_is_a_usage_error(self, width, capsys):
        """``0`` used to be silently ignored and ``-5`` escaped as a traceback."""
        code = main(["timeline", "paper-fig7", *RUN_SMALL, "--bucket-seconds", width])
        assert code == 2
        assert "bucket width must be positive" in capsys.readouterr().err


class TestTraceExportCommand:
    def test_export_produces_a_valid_chrome_trace(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        trace_path = tmp_path / "trace.json"
        assert main(["run", "paper-fig7", *RUN_SMALL, "--events-out", str(events_path)]) == 0
        assert main(["trace-export", str(events_path), "--out", str(trace_path)]) == 0
        payload = json.loads(trace_path.read_text())
        assert payload["traceEvents"]
        process_names = {
            entry["args"]["name"]
            for entry in payload["traceEvents"]
            if entry["ph"] == "M" and entry["name"] == "process_name"
        }
        assert "lazyctrl-dynamic" in process_names

    def test_export_merges_profile_stages(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        profile_path = tmp_path / "profile.json"
        trace_path = tmp_path / "trace.json"
        assert main(["run", "paper-fig7", *RUN_SMALL, "--systems", "openflow",
                     "--events-out", str(events_path)]) == 0
        assert main(["profile", "paper-fig7", *RUN_SMALL, "--systems", "openflow",
                     "--out", str(profile_path)]) == 0
        assert main(["trace-export", str(events_path), "--out", str(trace_path),
                     "--profile", str(profile_path)]) == 0
        payload = json.loads(trace_path.read_text())
        spans = [entry for entry in payload["traceEvents"] if entry["ph"] == "X"]
        assert {span["name"] for span in spans} >= {"replay", "flow_handling"}

    def test_corrupt_events_file_is_a_usage_error(self, tmp_path, capsys):
        events_path = tmp_path / "events.jsonl"
        events_path.write_text("not json\n", encoding="utf-8")
        code = main(["trace-export", str(events_path), "--out", str(tmp_path / "t.json")])
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestBenchTimeline:
    def test_bench_payload_carries_exact_timeline_counts(self, tmp_path, capsys):
        assert main(["bench", "--presets", "paper-fig7", *RUN_SMALL,
                     "--out-dir", str(tmp_path)]) == 0
        payload = json.loads((tmp_path / "BENCH_paper-fig7.json").read_text())
        for record in payload["systems"].values():
            timeline = record["timeline"]
            assert timeline["bucket_seconds"] > 0
            counts = timeline["counts"]
            # Series are created lazily: a system with zero packet-ins simply
            # has no series, which must agree with a zero scalar.
            assert sum(counts.get("packet_ins", [])) == record["total_controller_requests"]
            assert sum(counts.get("flows", [])) == record["flows_handled"]
            # Replay mechanics must stay out: streamed and materialized runs
            # of the same scenario must produce identical payloads.
            assert "chunks_drained" not in counts

    def test_bench_check_gates_on_timeline_drift(self, tmp_path, capsys):
        baseline_dir = tmp_path / "baselines"
        assert main(["bench", "--presets", "paper-fig7", *RUN_SMALL,
                     "--out-dir", str(baseline_dir)]) == 0
        baseline_path = baseline_dir / "BENCH_paper-fig7.json"
        payload = json.loads(baseline_path.read_text())
        # Shift one bucket's worth of packet-ins: scalars still match, only
        # the per-bucket distribution drifts — the timeline check must fire.
        counts = payload["systems"]["openflow"]["timeline"]["counts"]["packet_ins"]
        counts[0] += 1
        baseline_path.write_text(json.dumps(payload), encoding="utf-8")
        code = main(["bench", "--presets", "paper-fig7", *RUN_SMALL,
                     "--out-dir", str(tmp_path / "fresh"),
                     "--check", "--baseline-dir", str(baseline_dir)])
        assert code == 1
        assert "systems.openflow.timeline.counts.packet_ins" in capsys.readouterr().err
