"""``repro report``: deterministic artifacts and the error-path contract.

Reports are pure functions of their input file — built twice, they are
byte-identical — and malformed input exits 2 with a one-line message
naming the offending line, never a traceback.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments.chaos import run_chaos
from repro.experiments.sweep import rows_to_jsonl
from repro.obs import events as ev
from repro.obs.events import SchemaError
from repro.obs.report import build_report, render_markdown, report_to_json
from repro.obs.tracer import Tracer


@pytest.fixture(scope="module")
def chaos_jsonl(tiny_prepared, tmp_path_factory):
    rows = run_chaos(
        profiles=["resets", "stalls"], seeds=[0],
        base={"video": "tinytest"},
        prepared_map={"tinytest": tiny_prepared},
        rollup=True,
    )
    path = tmp_path_factory.mktemp("report") / "chaos.jsonl"
    path.write_text(rows_to_jsonl(rows))
    return str(path)


@pytest.fixture(scope="module")
def trace_jsonl(tiny_prepared, tmp_path_factory):
    from repro.abr import make_abr
    from repro.network.traces import get_trace
    from repro.player.session import SessionConfig, StreamingSession

    tracer = Tracer()
    session = StreamingSession(
        tiny_prepared,
        make_abr("abr_star", prepared=tiny_prepared),
        get_trace("constant:4", seed=0),
        SessionConfig(buffer_segments=2),
        tracer=tracer,
    )
    session.run()
    path = tmp_path_factory.mktemp("report") / "trace.jsonl"
    tracer.write_jsonl(str(path))
    return str(path)


# ---------------------------------------------------------------------------
# Builder.
# ---------------------------------------------------------------------------
class TestBuildReport:
    def test_trace_mode(self, trace_jsonl):
        report = build_report(trace_jsonl)
        assert report["report_version"] == 1
        assert report["source"]["kind"] == "trace"
        assert report["audit"]["ok"] is True
        assert report["rollup"]["sessions_seen"] == 1
        combined = report["attribution"]["combined"]
        assert set(combined["stall_seconds"]) == {
            "fault", "retry", "degraded", "bandwidth", "abr_overreach",
        }
        assert combined["ok"] is True

    def test_rows_mode_chaos(self, chaos_jsonl):
        report = build_report(chaos_jsonl)
        assert report["source"]["kind"] == "chaos"
        assert report["cells"]["count"] == 2
        assert set(report["profiles"]) == {"resets", "stalls"}
        assert report["audit"]["cells_audited"] == 2
        assert report["audit"]["ok"] is True
        # Per-row rollups merged into one fleet view.
        assert report["rollup"]["sessions_seen"] == 2

    def test_deterministic(self, chaos_jsonl, trace_jsonl):
        for path in (chaos_jsonl, trace_jsonl):
            first = build_report(path)
            second = build_report(path)
            assert report_to_json(first) == report_to_json(second)
            assert render_markdown(first) == render_markdown(second)

    def test_markdown_sections(self, chaos_jsonl):
        markdown = render_markdown(build_report(chaos_jsonl))
        for heading in ("# repro report", "## Fleet rollup",
                        "## Stall attribution", "## Cell distributions",
                        "## Fault-profile comparison",
                        "## Invariant audit"):
            assert heading in markdown
        assert "Partition law holds" in markdown

    def test_empty_input_rejected(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("\n\n")
        with pytest.raises(SchemaError):
            build_report(str(path))

    def test_unknown_shape_names_line(self, tmp_path):
        path = tmp_path / "odd.jsonl"
        path.write_text('\n{"neither": true}\n')
        with pytest.raises(SchemaError, match="line 2"):
            build_report(str(path))


# ---------------------------------------------------------------------------
# CLI surface.
# ---------------------------------------------------------------------------
class TestReportCli:
    def test_writes_markdown_and_json(self, chaos_jsonl, tmp_path, capsys):
        md_path = tmp_path / "report.md"
        json_path = tmp_path / "report.json"
        rc = main(["report", chaos_jsonl, "--out", str(md_path),
                   "--json-out", str(json_path), "--check"])
        assert rc == 0
        assert md_path.read_text().startswith("# repro report")
        loaded = json.loads(json_path.read_text())
        assert loaded["audit"]["ok"] is True
        captured = capsys.readouterr()
        assert str(md_path) in captured.err

    def test_stdout_default(self, trace_jsonl, capsys):
        rc = main(["report", trace_jsonl])
        assert rc == 0
        assert "## Stall attribution" in capsys.readouterr().out

    def test_json_flag(self, trace_jsonl, capsys):
        rc = main(["--json", "report", trace_jsonl])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["source"]["kind"] == "trace"


# ---------------------------------------------------------------------------
# Error-path contract: exit 2, one line, names the line number.
# ---------------------------------------------------------------------------
class TestErrorContract:
    def _write_truncated_trace(self, tmp_path):
        event = ev.TraceEvent(
            seq=0, t=0.0, type=ev.SESSION_START,
            fields=dict(video="tinytest", abr="abr_star", num_segments=6,
                        segment_duration=2.0, buffer_capacity_s=4.0,
                        backend="round", partially_reliable=True),
        )
        path = tmp_path / "truncated.jsonl"
        path.write_text(event.to_json() + "\n" + '{"seq": 1, "t":\n')
        return str(path)

    def test_report_malformed_exits_2_with_line(self, tmp_path, capsys):
        path = self._write_truncated_trace(tmp_path)
        rc = main(["report", path])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = [l for l in captured.err.splitlines() if l]
        assert len(lines) == 1
        assert "cannot read report input" in lines[0]
        assert "line 2" in lines[0]
        assert "Traceback" not in captured.err

    def test_trace_malformed_exits_2_with_line(self, tmp_path, capsys):
        path = self._write_truncated_trace(tmp_path)
        rc = main(["trace", path])
        assert rc == 2
        captured = capsys.readouterr()
        lines = [l for l in captured.err.splitlines() if l]
        assert len(lines) == 1
        assert "cannot read trace" in lines[0]
        assert "line 2" in lines[0]
        assert "Traceback" not in captured.err

    def test_trace_check_malformed_exits_2(self, tmp_path, capsys):
        path = self._write_truncated_trace(tmp_path)
        rc = main(["trace", path, "--check"])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_report_missing_file_exits_2(self, tmp_path, capsys):
        rc = main(["report", str(tmp_path / "absent.jsonl")])
        assert rc == 2
        assert "cannot read report input" in capsys.readouterr().err
