"""The benchmark-report core: timing, gates, validation, exit codes.

Every ``repro bench`` suite reports through :mod:`repro.bench`, so these
contracts hold for all of them at once: ``best_of`` keeps the fastest
repeat's own result, a gate compares in its declared direction, a smoke
run is never enforced, one failing gate fails the report (exit 1), and
a malformed report is refused (exit 2) before anything is written.
"""

from __future__ import annotations

import json
import time

import pytest

from repro.bench import Suite, best_of, gate, host, render

DEMO = Suite("demo", schema=2, required=("section.*.value",))


def _report(*gates, smoke=False):
    return DEMO.report(smoke, {"seed": 0}, gates,
                       section={"a": {"value": 1.0}})


class TestBestOf:
    def test_returns_fastest_repeats_result(self, monkeypatch):
        # Repeats take 3 s, 1 s, 2 s on a scripted clock: the report
        # must carry the 1 s repeat's result, not the last repeat's.
        ticks = iter([0.0, 3.0, 10.0, 11.0, 20.0, 22.0])
        monkeypatch.setattr(time, "perf_counter", lambda: next(ticks))
        repeats = iter(["slow", "fast", "middle"])
        seconds, result = best_of(lambda: next(repeats), 3)
        assert (seconds, result) == (1.0, "fast")

    def test_setup_runs_before_every_repeat(self):
        calls = []
        best_of(lambda: calls.append("run"), 2,
                setup=lambda: calls.append("setup"))
        assert calls == ["setup", "run", "setup", "run"]


class TestGates:
    def test_direction(self):
        assert gate("speedup", 2.0, 2.0)["passed"]
        assert not gate("speedup", 1.9, 2.0)["passed"]
        assert gate("overhead", 0.02, 0.02, better="lower")["passed"]
        assert not gate("overhead", 0.03, 0.02, better="lower")["passed"]
        with pytest.raises(ValueError):
            gate("x", 1.0, 1.0, better="bigger")

    def test_one_failing_gate_fails_the_report(self):
        report = _report(gate("ok", 5.0, 1.0), gate("bad", 0.5, 1.0))
        assert report["acceptance"]["enforced"] is True
        assert report["acceptance"]["passed"] is False
        assert DEMO.exit_code(report) == 1
        assert "bad" in render(report) and "FAIL" in render(report)

    def test_smoke_is_never_enforced(self):
        report = _report(gate("bad", 0.5, 1.0), smoke=True)
        assert report["acceptance"]["enforced"] is False
        assert report["acceptance"]["passed"] is False
        assert DEMO.exit_code(report) == 0
        assert "not enforced: smoke" in render(report)

    def test_passing_report_exits_zero(self):
        assert DEMO.exit_code(_report(gate("ok", 5.0, 1.0))) == 0


class TestValidateAndWrite:
    def test_valid_report_has_host_and_round_trips(self, tmp_path):
        report = _report(gate("ok", 5.0, 1.0))
        assert DEMO.validate(report) == []
        assert set(report["host"]) == set(host())
        path = DEMO.write(report, tmp_path / "BENCH_demo.json")
        assert json.loads(path.read_text()) == report

    def test_flags_wrong_schema_and_missing_keys(self):
        report = _report(gate("ok", 5.0, 1.0))
        report["schema"] = 1
        report["section"]["b"] = {}
        del report["host"]["numpy"]
        report["acceptance"]["gates"][0].pop("bound")
        assert DEMO.validate(report) == [
            "schema must be 2, got 1", "missing 'host.numpy'",
            "missing 'section.b.value'", "gate 0 missing 'bound'"]

    def test_invalid_report_exits_two_and_is_not_written(self, tmp_path,
                                                         capsys):
        path = tmp_path / "BENCH_demo.json"
        assert DEMO.publish({"benchmark": "demo"}, path) == 2
        assert not path.exists()
        assert "invalid report" in capsys.readouterr().err
        with pytest.raises(ValueError):
            DEMO.write({"benchmark": "demo"}, path)
