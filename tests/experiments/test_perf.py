"""Unit tests for repro.experiments.perf: the documented aggregate
semantics (wall-weighted sum-of-instructions over sum-of-wall, never a
mean of rates), the tracked speedup_vs_baseline metric, and the
run_perf_smoke regression gate (measure() monkeypatched — no
simulation here)."""

import json

import pytest

from repro.experiments import perf


def entry(machine, instructions, wall, stepped=0, skipped=0):
    row = {
        "machine": machine,
        "program": "p",
        "cycles": instructions,
        "instructions": instructions,
        "ipc": 1.0,
        "wall_seconds": wall,
        "insts_per_host_second": (round(instructions / wall)
                                  if wall else None),
        "sim_cycles_per_second": (round(instructions / wall)
                                  if wall else None),
    }
    if stepped or skipped:
        row["perf"] = {"cycles_stepped": stepped,
                       "cycles_skipped": skipped}
    return row


def payload_with(entries, tag="probe"):
    return {"schema": perf.REPORT_SCHEMA, "tag": tag,
            "entries": entries, "aggregate": perf.aggregate(entries)}


class TestAggregate:
    def test_per_machine_rate_is_wall_weighted(self):
        agg = perf.aggregate([entry("sst", 100, 1.0),
                              entry("sst", 300, 3.0)])
        sst = agg["machines"]["sst"]
        # 400 insts / 4.0 s — not mean(100/1, 300/3) either way here,
        # but the distinction matters below.
        assert sst["instructions"] == 400
        assert sst["wall_seconds"] == 4.0
        assert sst["insts_per_host_second"] == 100

    def test_total_is_not_a_mean_of_machine_rates(self):
        agg = perf.aggregate([entry("slow", 100, 1.0),
                              entry("fast", 1000, 1.0),
                              entry("fast", 1000, 1.0)])
        # Rates: slow=100/s over 1s, fast=1000/s over 2s.
        # Wall-weighted total: 2100 insts / 3.0 s = 700/s.
        # A mean of machine rates would say 550/s — wrong semantics.
        assert agg["total"]["insts_per_host_second"] == 700
        assert agg["total"]["instructions"] == 2100
        assert agg["total"]["wall_seconds"] == 3.0

    def test_skip_fraction_rollup(self):
        agg = perf.aggregate([entry("sst", 10, 1.0, stepped=30,
                                    skipped=70),
                              entry("sst", 10, 1.0, stepped=20,
                                    skipped=80)])
        assert agg["machines"]["sst"]["skip_fraction"] == 0.75

    def test_zero_wall_yields_none_not_crash(self):
        agg = perf.aggregate([entry("sst", 0, 0.0)])
        assert agg["machines"]["sst"]["insts_per_host_second"] is None
        assert agg["total"]["insts_per_host_second"] is None


class TestSpeedupVsBaseline:
    def test_ratios(self):
        baseline = payload_with([entry("sst", 100, 1.0),
                                 entry("inorder", 500, 1.0)],
                                tag="smoke")
        current = payload_with([entry("sst", 220, 1.0),
                                entry("inorder", 500, 1.0)])
        speedup = perf.speedup_vs_baseline(current, baseline)
        assert speedup["baseline_tag"] == "smoke"
        assert speedup["machines"]["sst"] == pytest.approx(2.2)
        assert speedup["machines"]["inorder"] == pytest.approx(1.0)
        # Aggregate is the wall-weighted total ratio: 720/600.
        assert speedup["aggregate"] == pytest.approx(1.2)

    def test_machines_missing_from_baseline_are_skipped(self):
        baseline = payload_with([entry("sst", 100, 1.0)])
        current = payload_with([entry("sst", 100, 1.0),
                                entry("brand-new", 100, 1.0)])
        speedup = perf.speedup_vs_baseline(current, baseline)
        assert set(speedup["machines"]) == {"sst"}

    @pytest.mark.parametrize("baseline", [
        None, {}, {"aggregate": None}, {"aggregate": {"total": {}}},
        "not a dict",
    ])
    def test_unusable_baseline_returns_none(self, baseline):
        current = payload_with([entry("sst", 100, 1.0)])
        assert perf.speedup_vs_baseline(current, baseline) is None


class TestRunPerfSmoke:
    @pytest.fixture
    def fake_measure(self, monkeypatch):
        # run_perf_smoke exports REPRO_BENCH_SMOKE=1; route it through
        # monkeypatch so teardown restores the outer environment.
        monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")

        def install(instructions):
            monkeypatch.setattr(
                perf, "measure",
                lambda tag="smoke": payload_with(
                    [entry("sst", instructions, 1.0)], tag=tag))
        return install

    def test_first_run_records_baseline(self, tmp_path, fake_measure):
        baseline = tmp_path / "BENCH_smoke.json"
        fake_measure(1000)
        assert perf.run_perf_smoke(baseline_path=baseline) == 0
        written = json.loads(baseline.read_text())
        assert written["aggregate"]["total"]["insts_per_host_second"] \
            == 1000
        assert "speedup_vs_baseline" not in written

    def test_within_tolerance_passes_and_embeds_speedup(
            self, tmp_path, fake_measure):
        baseline = tmp_path / "BENCH_smoke.json"
        fake_measure(1000)
        perf.run_perf_smoke(baseline_path=baseline)
        fake_measure(800)  # 0.8x, tolerance 0.30
        assert perf.run_perf_smoke(tolerance=0.30,
                                   baseline_path=baseline) == 0
        written = json.loads(baseline.read_text())
        assert written["speedup_vs_baseline"]["aggregate"] \
            == pytest.approx(0.8)

    def test_regression_beyond_tolerance_fails(self, tmp_path,
                                               fake_measure):
        baseline = tmp_path / "BENCH_smoke.json"
        fake_measure(1000)
        perf.run_perf_smoke(baseline_path=baseline)
        fake_measure(500)
        assert perf.run_perf_smoke(tolerance=0.30,
                                   baseline_path=baseline) == 1


def test_committed_baseline_is_valid_and_carries_the_speedup_metric():
    """The refreshed benchmarks/BENCH_smoke.json must parse, use the
    current schema, and record the tracked speedup number."""
    payload = perf.load_baseline()
    assert payload is not None, "benchmarks/BENCH_smoke.json missing"
    assert payload["schema"] == perf.REPORT_SCHEMA
    assert payload["aggregate"]["total"]["insts_per_host_second"] > 0
    speedup = payload.get("speedup_vs_baseline")
    assert speedup and speedup["aggregate"] is not None


def test_cli_perf_report_gates_against_baseline(tmp_path, monkeypatch):
    from repro import cli

    monkeypatch.setattr(
        perf, "measure",
        lambda tag="report": payload_with([entry("sst", 100, 1.0)],
                                          tag=tag))
    baseline = tmp_path / "BENCH_smoke.json"
    baseline.write_text(json.dumps(
        payload_with([entry("sst", 1000, 1.0)], tag="smoke")))
    monkeypatch.setenv("REPRO_PERF_BASELINE", str(baseline))
    out = tmp_path / "BENCH_probe.json"
    code = cli.main(["perf", "report", "--tag", "probe",
                     "--out", str(out), "--compare-baseline",
                     "--tolerance", "0.5"])
    assert code == 1  # 0.1x is far below 1 - 0.5
    written = json.loads(out.read_text())
    assert written["speedup_vs_baseline"]["aggregate"] \
        == pytest.approx(0.1)
    code = cli.main(["perf", "report", "--tag", "probe",
                     "--out", str(out), "--compare-baseline",
                     "--tolerance", "0.95"])
    assert code == 0


# ---------------------------------------------------------------------------
# The timing-ensemble throughput section.
# ---------------------------------------------------------------------------


def timing_section(speedup, available=True):
    if not available:
        return {"available": False, "reason": "numpy not installed",
                "lanes": 64, "scale": "tiny"}
    return {
        "available": True, "backend": "numpy", "machine": "inorder-2w",
        "lanes": 64, "scale": "tiny", "workloads": {},
        "aggregate": {"instructions": 1000,
                      "scalar_insts_per_host_second": 1000,
                      "ensemble_insts_per_host_second":
                          round(1000 * speedup),
                      "speedup": speedup},
    }


class TestMeasureTimingEnsemble:
    def test_section_structure_and_differential_guard(self, monkeypatch):
        pytest.importorskip("numpy")
        # Precondition: lane batching is on, which the sanitizer and
        # the fault injector disable by design.
        monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
        section = perf.measure_timing_ensemble(lanes=4)
        assert section["available"]
        assert section["backend"] == "numpy"
        assert section["lanes"] == 4
        assert list(section["workloads"]) == \
            list(perf.DEFAULT_TIMING_WORKLOADS)
        row = section["workloads"]["compute-matmul"]
        assert row["instructions"] == \
            section["aggregate"]["instructions"]
        # Rates reproduce from the stored rounded walls exactly.
        assert row["speedup"] == round(
            row["scalar_wall_seconds"] / row["ensemble_wall_seconds"],
            4)

    def test_kill_switch_marks_unavailable(self, monkeypatch):
        pytest.importorskip("numpy")
        monkeypatch.setenv("REPRO_TIMING_ENSEMBLE", "0")
        section = perf.measure_timing_ensemble(lanes=2)
        assert section == {"available": False,
                           "reason": "REPRO_TIMING_ENSEMBLE=0",
                           "lanes": 2, "scale": "tiny"}

    def test_unknown_workload_is_a_repro_error(self):
        pytest.importorskip("numpy")
        with pytest.raises(perf.ReproError, match="no-such-workload"):
            perf.measure_timing_ensemble(
                lanes=2, workloads=["no-such-workload"])
        with pytest.raises(perf.ReproError, match="no workloads"):
            perf.measure_timing_ensemble(lanes=2, workloads=[])

    def test_measure_ensemble_rejects_unknown_workloads_too(
            self, monkeypatch):
        # Validated before the engine is found unavailable, with or
        # without numpy.
        monkeypatch.setenv("REPRO_TIMING_ENSEMBLE", "0")
        with pytest.raises(perf.ReproError, match="no-such-workload"):
            perf.measure_timing_ensemble(
                lanes=2, workloads=["no-such-workload"])


class TestTimingEnsembleGate:
    @pytest.fixture
    def fake_measure(self, monkeypatch):
        monkeypatch.setenv("REPRO_BENCH_SMOKE", "1")

        def install(timing):
            def fake(tag="smoke"):
                payload = payload_with([entry("sst", 1000, 1.0)],
                                       tag=tag)
                payload["timing_ensemble"] = timing
                return payload
            monkeypatch.setattr(perf, "measure", fake)
        return install

    def test_speedup_above_floor_passes(self, tmp_path, fake_measure):
        fake_measure(timing_section(speedup=2.4))
        assert perf.run_perf_smoke(
            baseline_path=tmp_path / "BENCH_smoke.json",
            timing_min_speedup=2.0) == 0

    def test_speedup_below_floor_fails(self, tmp_path, fake_measure):
        fake_measure(timing_section(speedup=1.4))
        assert perf.run_perf_smoke(
            baseline_path=tmp_path / "BENCH_smoke.json",
            timing_min_speedup=2.0) == 1

    def test_unavailable_section_is_not_gated(self, tmp_path,
                                              fake_measure):
        fake_measure(timing_section(0.0, available=False))
        assert perf.run_perf_smoke(
            baseline_path=tmp_path / "BENCH_smoke.json",
            timing_min_speedup=2.0) == 0

    def test_render_includes_timing_line(self, fake_measure):
        payload = payload_with([entry("sst", 1000, 1.0)])
        payload["timing_ensemble"] = timing_section(speedup=2.25)
        text = perf.render(payload)
        assert "timing ensemble N=64" in text
        assert "2.25x vs scalar" in text
        payload["timing_ensemble"] = timing_section(0.0,
                                                    available=False)
        assert "timing ensemble: unavailable" in perf.render(payload)


def test_committed_baseline_carries_the_timing_section():
    payload = perf.load_baseline()
    assert payload is not None, "benchmarks/BENCH_smoke.json missing"
    section = payload.get("timing_ensemble")
    assert isinstance(section, dict)
    if section["available"]:
        assert section["lanes"] == 64
        assert section["aggregate"]["speedup"] >= 2.0


# ---------------------------------------------------------------------------
# Snapshot self-consistency: rates reproduce from the stored walls.
# ---------------------------------------------------------------------------


class TestSnapshotRoundTrip:
    def test_entry_rates_derive_from_stored_wall(self):
        class FakeResult:
            core_name = "fake"
            program_name = "p"
            cycles = 12345
            instructions = 23456
            ipc = 1.9
            wall_seconds = 0.123456789
            extra = {}

        row = perf.perf_entry(FakeResult())
        assert row["wall_seconds"] == 0.1235
        assert row["insts_per_host_second"] == \
            round(row["instructions"] / row["wall_seconds"])
        assert row["sim_cycles_per_second"] == \
            round(row["cycles"] / row["wall_seconds"])

    def test_aggregate_rates_derive_from_stored_walls(self):
        entries = [entry("m1", 1000, 0.33335), entry("m1", 500, 0.1),
                   entry("m2", 2000, 0.70004)]
        agg = perf.aggregate(entries)
        for machine, rollup in agg["machines"].items():
            assert rollup["insts_per_host_second"] == round(
                rollup["instructions"] / rollup["wall_seconds"])
        total = agg["total"]
        assert total["wall_seconds"] == round(
            sum(r["wall_seconds"] for r in agg["machines"].values()),
            4)
        assert total["insts_per_host_second"] == round(
            total["instructions"] / total["wall_seconds"])

    def test_committed_snapshot_is_self_consistent(self):
        payload = perf.load_baseline()
        assert payload is not None
        for row in payload["entries"]:
            if row["wall_seconds"]:
                assert row["insts_per_host_second"] == round(
                    row["instructions"] / row["wall_seconds"]), row
        agg = payload["aggregate"]
        for rollup in agg["machines"].values():
            if rollup["wall_seconds"]:
                assert rollup["insts_per_host_second"] == round(
                    rollup["instructions"] / rollup["wall_seconds"])
        total = agg["total"]
        if total["wall_seconds"]:
            assert total["insts_per_host_second"] == round(
                total["instructions"] / total["wall_seconds"])
