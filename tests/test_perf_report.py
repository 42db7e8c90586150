"""Tier-2 smoke for the perf harness: the report runs, has the
expected shape, and lands where the perf trajectory is tracked."""

import json

import pytest

perf_report = pytest.importorskip(
    "benchmarks.perf_report",
    reason="benchmarks package requires running from the repo root",
)


def test_quick_report_shape(tmp_path):
    out = tmp_path / "BENCH_report.json"
    assert perf_report.main(["--output", str(out), "--quick",
                             "--repeats", "1"]) == 0
    report = json.loads(out.read_text())
    assert report["schema"] == perf_report.SCHEMA
    assert report["quick"] is True
    assert report["results"]
    assert set(report["results"]) == set(report["timings"])
    for name, entry in report["results"].items():
        assert report["timings"][name]["wall_seconds"] > 0, name
        assert entry["alternatives"] >= 1, name
        assert entry["area_min"] <= entry["area_max"]
        assert entry["delay_min"] <= entry["delay_max"]
        assert entry["space"]["spec_nodes"] >= 1
    assert report["totals"]["wall_seconds_best_sum"] > 0
    # Volatile metadata lives only under "environment"/"timings", so
    # the "results" section diffs clean across machines and runs.
    assert "unix_time" in report["environment"]
    assert "unix_time" not in report["results"]


def test_default_output_is_repo_root():
    assert perf_report.DEFAULT_OUTPUT.name == "BENCH_report.json"
    assert (perf_report.DEFAULT_OUTPUT.parent / "benchmarks").is_dir()


def test_adder16_points_match_engine(tmp_path):
    """The report records the same alternatives the engine returns --
    the JSON is a regression anchor for results as well as speed."""
    from repro.api import Session
    from repro.core.specs import adder_spec
    from repro.techlib import lsi_logic_library

    report = perf_report.run(repeats=1, quick=True)
    entry = report["results"]["adder16_pareto"]
    result = Session(lsi_logic_library(),
                     perf_filter="pareto").synthesize(
        adder_spec(16)).result
    assert entry["points"] == [[a.area, a.delay] for a in result.alternatives] or \
        entry["points"] == [(a.area, a.delay) for a in result.alternatives]


def test_compare_mode_detects_drift(tmp_path, capsys):
    """--compare exits 0 against a matching baseline, nonzero on
    results drift or a missing baseline."""
    baseline = tmp_path / "baseline.json"
    assert perf_report.main(["--output", str(baseline), "--quick",
                             "--repeats", "1"]) == 0
    capsys.readouterr()

    assert perf_report.main(["--quick", "--repeats", "1", "--compare",
                            "--baseline", str(baseline)]) == 0
    assert "results match" in capsys.readouterr().out

    # corrupt one results field -> drift -> exit 1 with a message
    doctored = json.loads(baseline.read_text())
    doctored["results"]["adder16_pareto"]["alternatives"] += 1
    baseline.write_text(json.dumps(doctored))
    assert perf_report.main(["--quick", "--repeats", "1", "--compare",
                            "--baseline", str(baseline)]) == 1
    err = capsys.readouterr().err
    assert "adder16_pareto" in err and "alternatives" in err

    assert perf_report.main(["--quick", "--repeats", "1", "--compare",
                            "--baseline", str(tmp_path / "missing.json")]) == 2


def test_compare_results_ignores_extra_baseline_workloads():
    fresh = {"results": {"a": {"alternatives": 1}}}
    baseline = {"results": {"a": {"alternatives": 1},
                            "b": {"alternatives": 9}}}
    assert perf_report.compare_results(fresh, baseline) == []
    missing = perf_report.compare_results(
        {"results": {"c": {"alternatives": 1}}}, baseline)
    assert missing and "missing from baseline" in missing[0]
