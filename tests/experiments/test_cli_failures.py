"""CLI failure modes exit non-zero with a one-line diagnostic, never a
traceback: missing perf baseline, numpy absent for `repro ensemble
bench`, and bad workload selections for it."""

import pytest

from repro import cli
from repro.experiments import perf
from repro.sim import timing_ensemble


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_perf_report_missing_baseline_exits_2(tmp_path, monkeypatch,
                                              capsys):
    monkeypatch.setenv("REPRO_PERF_BASELINE",
                       str(tmp_path / "absent.json"))
    monkeypatch.setattr(
        perf, "measure",
        lambda tag="probe": {
            "schema": perf.REPORT_SCHEMA, "tag": tag, "entries": [],
            "aggregate": perf.aggregate([]),
        },
    )
    code, _, err = run_cli(
        ["perf", "report", "--out", str(tmp_path / "out.json"),
         "--compare-baseline"], capsys)
    assert code == 2
    assert "no committed baseline" in err
    assert "Traceback" not in err


def test_ensemble_bench_numpy_requested_but_absent(monkeypatch,
                                                   capsys):
    monkeypatch.setattr(timing_ensemble, "numpy_available", lambda: False)
    code, _, err = run_cli(["ensemble", "bench", "--lanes", "2"], capsys)
    assert code == 2
    assert "numpy not installed" in err
    assert "Traceback" not in err


# Plain and --json output report selection errors the same way.
@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_ensemble_bench_unknown_workload_exits_2(extra, capsys):
    pytest.importorskip("numpy")
    code, _, err = run_cli(
        ["ensemble", "bench", "--lanes", "2",
         "--workloads", "no-such-workload"] + extra, capsys)
    assert code == 2
    assert "no-such-workload" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("extra", [[], ["--json"]])
def test_ensemble_bench_empty_workload_selection_exits_2(extra,
                                                         capsys):
    pytest.importorskip("numpy")
    code, _, err = run_cli(
        ["ensemble", "bench", "--lanes", "2", "--workloads"] + extra,
        capsys)
    assert code == 2
    assert "no workloads selected" in err
    assert "Traceback" not in err


def test_experiments_run_jobs_garbage_env_exits_2(monkeypatch,
                                                  capsys):
    """A non-numeric REPRO_JOBS is a named diagnostic before any
    simulation starts, not a bare ValueError traceback."""
    monkeypatch.setenv("REPRO_JOBS", "many")
    code, _, err = run_cli(
        ["experiments", "run", "e1", "--smoke"], capsys)
    assert code == 2
    assert "REPRO_JOBS" in err
    assert "Traceback" not in err
