"""The baseline firewall engine: observation kinds, capture/verify
modes, strictness, reporting, the simulate()/BenchEnv/engine hook
points, and bit-identity of behavior across execution variants
(sanitizer on, taint tracking on, ensemble numpy-vs-python)."""

from __future__ import annotations

import pytest

from repro.baselines.core_base import DEFAULT_MAX_INSTRUCTIONS
from repro.config import sst_machine
from repro.experiments.bench_env import BenchEnv
from repro.experiments.engine import ExperimentEngine
from repro.regress.firewall import (
    MODE_CAPTURE,
    MODE_OFF,
    MODE_VERIFY,
    BaselineDivergenceError,
    BaselineFirewall,
    firewall_from_env,
    mode_from_env,
    point_behavior,
)
from repro.regress.store import BaselineStore
from repro.sim.cache import result_key
from repro.sim.ensemble import BACKEND_PYTHON, numpy_available
from repro.sim.runner import simulate
from repro.workloads import full_suite
from repro.workloads.suite import WORKLOAD_FACTORIES, suite_params


@pytest.fixture
def store(tmp_path):
    return BaselineStore(tmp_path / "baselines")


@pytest.fixture(scope="module")
def tiny_suite():
    return {program.name: program for program in full_suite("tiny")}


def run_point(program, **kwargs):
    return simulate(sst_machine(), program, **kwargs)


# -- environment gate -------------------------------------------------------


def test_mode_from_env(monkeypatch):
    for value, expected in (("", MODE_OFF), ("0", MODE_OFF),
                            ("off", MODE_OFF), ("capture", MODE_CAPTURE),
                            ("verify", MODE_VERIFY), ("1", MODE_VERIFY),
                            ("on", MODE_VERIFY)):
        monkeypatch.setenv("REPRO_BASELINE", value)
        assert mode_from_env() == expected
    monkeypatch.setenv("REPRO_BASELINE", "bogus")
    with pytest.raises(Exception):
        mode_from_env()


def test_firewall_from_env_off_is_none(monkeypatch):
    monkeypatch.delenv("REPRO_BASELINE", raising=False)
    assert firewall_from_env() is None


# -- the simulate() hook ----------------------------------------------------


def test_simulate_hook_captures_and_verifies(monkeypatch, tmp_path,
                                             tiny_suite):
    program = tiny_suite["oltp-chase"]
    monkeypatch.setenv("REPRO_BASELINE_DIR", str(tmp_path / "bl"))
    monkeypatch.setenv("REPRO_BASELINE", "capture")
    run_point(program)
    store = BaselineStore(tmp_path / "bl")
    assert len(store) == 1
    [record] = store.records()
    assert record.kind == "point"
    assert record.status == "candidate"
    assert record.semid == result_key(sst_machine(), program,
                                      DEFAULT_MAX_INSTRUCTIONS)

    monkeypatch.setenv("REPRO_BASELINE", "verify")
    run_point(program)  # green: candidate matches

    record.behavior["instructions"] -= 1
    record.log("doctor", "seeded mutation")
    store.save(record)
    with pytest.raises(BaselineDivergenceError):
        run_point(program)


def test_simulate_hook_off_touches_nothing(monkeypatch, tmp_path,
                                           tiny_suite):
    monkeypatch.setenv("REPRO_BASELINE_DIR", str(tmp_path / "bl"))
    monkeypatch.delenv("REPRO_BASELINE", raising=False)
    run_point(tiny_suite["oltp-chase"])
    assert not (tmp_path / "bl").exists()


# -- verify semantics -------------------------------------------------------


def test_verify_unseen_is_ignored(store, tiny_suite):
    firewall = BaselineFirewall(store, mode="verify")
    result = run_point(tiny_suite["oltp-chase"])
    assert firewall.observe_point(
        sst_machine(), tiny_suite["oltp-chase"],
        DEFAULT_MAX_INSTRUCTIONS, result) == "unseen"
    assert firewall.stats.unseen == 1
    assert not firewall.divergences


def test_verify_skips_retired(store, tiny_suite):
    program = tiny_suite["oltp-chase"]
    result = run_point(program)
    capture = BaselineFirewall(store, mode="capture")
    capture.observe_point(sst_machine(), program,
                          DEFAULT_MAX_INSTRUCTIONS, result)
    semid = result_key(sst_machine(), program, DEFAULT_MAX_INSTRUCTIONS)
    store.retire(semid)
    verify = BaselineFirewall(store, mode="verify")
    assert verify.observe_point(
        sst_machine(), program, DEFAULT_MAX_INSTRUCTIONS, result
    ) == "retired"


def test_nonstrict_verify_collects_instead_of_raising(store, tiny_suite):
    program = tiny_suite["oltp-chase"]
    result = run_point(program)
    capture = BaselineFirewall(store, mode="capture")
    capture.observe_point(sst_machine(), program,
                          DEFAULT_MAX_INSTRUCTIONS, result)
    semid = result_key(sst_machine(), program, DEFAULT_MAX_INSTRUCTIONS)
    record = store.get(semid)
    record.behavior["cycles"] += 5
    record.log("doctor")
    store.save(record)

    firewall = BaselineFirewall(store, mode="verify", strict=False)
    assert firewall.observe_point(
        sst_machine(), program, DEFAULT_MAX_INSTRUCTIONS, result
    ) == "divergent"
    report = firewall.report()
    assert report["stats"]["divergent"] == 1
    [divergence] = report["divergences"]
    assert divergence["semid"] == semid
    assert "cycles" in divergence["fields"]


# -- bit-identity across execution variants ---------------------------------


def test_behavior_identical_with_taint_tracking_on(store, monkeypatch,
                                                   tiny_suite):
    """Taint tracking is observational: its extra payload never enters
    the behavior record, and it perturbs no governed field."""
    program = tiny_suite["oltp-chase"]
    monkeypatch.delenv("REPRO_TAINT", raising=False)
    baseline = run_point(program)
    capture = BaselineFirewall(store, mode="capture")
    capture.observe_point(sst_machine(), program,
                          DEFAULT_MAX_INSTRUCTIONS, baseline)

    monkeypatch.setenv("REPRO_TAINT", "1")
    tainted = run_point(program)
    verify = BaselineFirewall(store, mode="verify")
    assert verify.observe_point(
        sst_machine(), program, DEFAULT_MAX_INSTRUCTIONS, tainted
    ) == "verified"


def test_behavior_identical_with_sanitizer_on(store, monkeypatch,
                                              tiny_suite):
    """The sanitizer is observational: behavior captured without it
    verifies with it attached (and the SST core on its checked loop)."""
    program = tiny_suite["oltp-chase"]
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    baseline = run_point(program)
    capture = BaselineFirewall(store, mode="capture")
    capture.observe_point(sst_machine(), program,
                          DEFAULT_MAX_INSTRUCTIONS, baseline)

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    sanitized = run_point(program)
    verify = BaselineFirewall(store, mode="verify")
    assert verify.observe_point(
        sst_machine(), program, DEFAULT_MAX_INSTRUCTIONS, sanitized
    ) == "verified"


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_ensemble_behavior_identical_numpy_vs_python(tmp_path):
    """Both ensemble backends produce the same governed behavior for
    the same lanes: capture under python, verify under numpy."""
    kwargs = suite_params("tiny")["int-branchy"]
    programs = [
        WORKLOAD_FACTORIES["int-branchy"](**kwargs, seed=100 + lane,
                                          name=f"int-branchy@lane{lane}")
        for lane in range(4)
    ]
    store = BaselineStore(tmp_path / "bl")
    capture = BaselineFirewall(store, mode="capture")
    env = BenchEnv(smoke=True, cache=None, firewall=capture)
    env.run_ensemble(programs, backend=BACKEND_PYTHON)
    assert capture.stats.captured == len(programs)

    verify = BaselineFirewall(store, mode="verify")
    env = BenchEnv(smoke=True, cache=None, firewall=verify)
    env.run_ensemble(programs, backend="numpy")
    assert verify.stats.verified == len(programs)
    assert verify.stats.divergent == 0


# -- BenchEnv / engine integration ------------------------------------------


def test_bench_env_observes_points_including_cache_hits(tmp_path,
                                                        tiny_suite):
    program = tiny_suite["oltp-chase"]
    from repro.sim.cache import ResultCache

    cache = ResultCache(tmp_path / "cache")
    store = BaselineStore(tmp_path / "bl")

    capture = BaselineFirewall(store, mode="capture")
    env = BenchEnv(smoke=True, cache=cache, firewall=capture)
    env.run(sst_machine(), program)
    assert capture.stats.captured == 1

    # second environment: the point restores from cache, and the
    # firewall still sees (and verifies) it
    verify = BaselineFirewall(store, mode="verify")
    env = BenchEnv(smoke=True, cache=cache, firewall=verify)
    env.run(sst_machine(), program)
    assert verify.stats.verified == 1


def test_engine_observes_experiment_document(tmp_path):
    store = BaselineStore(tmp_path / "bl")
    capture = BaselineFirewall(store, mode="capture")
    engine = ExperimentEngine(smoke=True, cache=None, write=False,
                              firewall=capture)
    engine.run("e1")
    kinds = {record.kind for record in store.records()}
    assert "experiment" in kinds
    assert "point" in kinds
    [experiment] = [record for record in store.records()
                    if record.kind == "experiment"]
    assert experiment.scenario["experiment"] == "e1_speedup_over_inorder"
    behavior = experiment.behavior
    assert set(behavior) >= {"points_signature", "n_points",
                             "expectations", "ok", "metrics_signature",
                             "table_signature"}

    # re-run: everything verifies, including the experiment document
    verify = BaselineFirewall(store, mode="verify")
    engine = ExperimentEngine(smoke=True, cache=None, write=False,
                              firewall=verify)
    engine.run("e1")
    assert verify.stats.divergent == 0
    assert verify.stats.verified == len(store)


def test_experiment_points_signature_pins_cache_keys(tmp_path):
    """An unintended cache-key change turns experiment verification
    red even when every cycle count matches."""
    store = BaselineStore(tmp_path / "bl")
    capture = BaselineFirewall(store, mode="capture")
    ExperimentEngine(smoke=True, cache=None, write=False,
                     firewall=capture).run("e1")
    [experiment] = [record for record in store.records()
                    if record.kind == "experiment"]
    # simulate a silent re-keying: the stored signature no longer
    # matches what a fresh run computes
    experiment.behavior["points_signature"] = "0" * 64
    experiment.log("doctor", "simulated cache-key drift")
    store.save(experiment)

    verify = BaselineFirewall(store, mode="verify", strict=False)
    ExperimentEngine(smoke=True, cache=None, write=False,
                     firewall=verify).run("e1")
    assert verify.stats.divergent == 1
    [divergence] = verify.divergences
    assert divergence.kind == "experiment"
    assert "points_signature" in divergence.fields


# -- behavior surface -------------------------------------------------------


def test_point_behavior_excludes_wall_clock(tiny_suite):
    result = run_point(tiny_suite["oltp-chase"])
    behavior = point_behavior(result)
    assert set(behavior) == {"cycles", "instructions", "state_hash",
                             "perf_signature", "sst_signature"}
    assert "wall" not in str(sorted(behavior))
