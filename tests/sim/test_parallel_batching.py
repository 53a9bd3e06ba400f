"""Transparent lane batching inside ParallelRunner: groups of pending
in-order points that share a program shape and budget execute through
the vectorized timing engine with results, errors, cache keys and
firewall observations identical to the scalar path."""


import pytest

from repro.config import inorder_machine, sst_machine
from repro.sim.cache import ResultCache
from repro.sim.parallel import ParallelRunner, SimTask
from repro.sim.sweep import sweep
from repro.workloads.suite import WORKLOAD_FACTORIES, suite_params
from tests.conftest import small_hierarchy_config

np = pytest.importorskip("numpy")

LANES = 6


def lane_programs(name="compute-matmul", lanes=LANES, base_seed=700):
    params = suite_params("tiny")[name]
    return [
        WORKLOAD_FACTORIES[name](**params, seed=base_seed + lane,
                                 name=f"{name}@{lane}")
        for lane in range(lanes)
    ]


@pytest.fixture
def config():
    return inorder_machine(small_hierarchy_config())


def scalar_outcomes(tasks, monkeypatch, **runner_kwargs):
    monkeypatch.setenv("REPRO_TIMING_ENSEMBLE", "0")
    try:
        return ParallelRunner(1, **runner_kwargs).run_outcomes(tasks)
    finally:
        monkeypatch.delenv("REPRO_TIMING_ENSEMBLE")


def batching_on(monkeypatch):
    """Precondition of the batching assertions: the sanitizer and the
    fault injector disable lane batching by design."""
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)


def test_batched_results_identical_to_scalar(config, monkeypatch):
    programs = lane_programs() + lane_programs("fp-stream")
    tasks = [SimTask(config=config, program=p, verify=True)
             for p in programs]
    batched = ParallelRunner(1).run_outcomes(tasks)
    scalar = scalar_outcomes(tasks, monkeypatch)
    assert [o.ok for o in batched] == [True] * len(tasks)
    for b, s in zip(batched, scalar):
        assert b.result == s.result


def test_batched_errors_identical_to_scalar(config, monkeypatch):
    tasks = [SimTask(config=config, program=p, max_instructions=10)
             for p in lane_programs()]
    batched = ParallelRunner(1).run_outcomes(tasks)
    scalar = scalar_outcomes(tasks, monkeypatch)
    for b, s in zip(batched, scalar):
        assert not b.ok and not s.ok
        assert (b.error, b.kind) == (s.error, s.kind)


def test_batched_points_share_cache_keys_with_scalar(config, tmp_path,
                                                     monkeypatch):
    tasks = [SimTask(config=config, program=p)
             for p in lane_programs()]
    warm = ResultCache(tmp_path)
    batched = ParallelRunner(1, cache=warm).run_outcomes(tasks)
    assert all(not o.cached for o in batched)
    # A scalar-path runner over the same cache loads every point warm.
    reread = scalar_outcomes(tasks, monkeypatch,
                             cache=ResultCache(tmp_path))
    assert all(o.cached for o in reread)
    for b, r in zip(batched, reread):
        assert b.result == r.result


def test_singletons_and_mixed_shapes_fall_back(config, monkeypatch):
    """One lane per shape -> no group forms, scalar path runs; the
    sweep result is unchanged either way."""
    calls = []
    import repro.sim.timing_ensemble as te

    real = te.run_timing_ensemble
    monkeypatch.setattr(
        "repro.sim.timing_ensemble.run_timing_ensemble",
        lambda *a, **k: calls.append(1) or real(*a, **k),
    )
    tasks = [SimTask(config=config, program=lane_programs(lanes=1)[0]),
             SimTask(config=config,
                     program=lane_programs("fp-stream", lanes=1)[0])]
    outcomes = ParallelRunner(1).run_outcomes(tasks)
    assert all(o.ok for o in outcomes)
    assert not calls


def test_ineligible_config_skips_batching(monkeypatch):
    """SST machines never route through the timing engine."""
    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("SST tasks must not batch")

    monkeypatch.setattr(
        "repro.sim.timing_ensemble.run_timing_ensemble", boom
    )
    cfg = sst_machine(small_hierarchy_config())
    tasks = [SimTask(config=cfg, program=p)
             for p in lane_programs(lanes=3)]
    outcomes = ParallelRunner(1).run_outcomes(tasks)
    assert all(o.ok for o in outcomes)


def test_engine_failure_falls_back_to_scalar(config, monkeypatch):
    batching_on(monkeypatch)

    def boom(*args, **kwargs):
        raise RuntimeError("engine exploded")

    monkeypatch.setattr(
        "repro.sim.timing_ensemble.run_timing_ensemble", boom
    )
    tasks = [SimTask(config=config, program=p)
             for p in lane_programs(lanes=3)]
    with pytest.warns(RuntimeWarning, match="falling back to scalar"):
        outcomes = ParallelRunner(1).run_outcomes(tasks)
    assert all(o.ok for o in outcomes)
    scalar = scalar_outcomes(tasks, monkeypatch)
    for b, s in zip(outcomes, scalar):
        assert b.result == s.result


def test_groups_wider_than_lane_cap_chunk(config, monkeypatch):
    batching_on(monkeypatch)
    monkeypatch.setenv("REPRO_ENSEMBLE_LANES", "2")
    widths = []
    import repro.sim.timing_ensemble as te

    real = te.run_timing_ensemble
    monkeypatch.setattr(
        "repro.sim.timing_ensemble.run_timing_ensemble",
        lambda cfg, progs, **k: (widths.append(len(progs)),
                                 real(cfg, progs, **k))[1],
    )
    tasks = [SimTask(config=config, program=p)
             for p in lane_programs(lanes=5)]
    outcomes = ParallelRunner(1).run_outcomes(tasks)
    assert all(o.ok for o in outcomes)
    assert widths == [2, 2, 1]  # whole group batches, in cap chunks


def test_kill_switch_restores_scalar_path(config, monkeypatch):
    monkeypatch.setenv("REPRO_TIMING_ENSEMBLE", "0")

    def boom(*args, **kwargs):  # pragma: no cover - must not run
        raise AssertionError("kill switch ignored")

    monkeypatch.setattr(
        "repro.sim.timing_ensemble.run_timing_ensemble", boom
    )
    tasks = [SimTask(config=config, program=p)
             for p in lane_programs(lanes=3)]
    assert all(o.ok for o in ParallelRunner(1).run_outcomes(tasks))


def test_sweep_batches_transparently(config, monkeypatch):
    """An e01-style seed sweep produces identical results with the
    engine on and off."""
    programs = lane_programs(lanes=4)

    def run(monkey_value):
        if monkey_value is not None:
            monkeypatch.setenv("REPRO_TIMING_ENSEMBLE", monkey_value)
        try:
            return sweep(
                programs[0], range(4),
                lambda _: inorder_machine(small_hierarchy_config()),
            )
        finally:
            if monkey_value is not None:
                monkeypatch.delenv("REPRO_TIMING_ENSEMBLE")

    on = run(None)
    off = run("0")
    assert [r for _, r in on] == [r for _, r in off]


def test_firewall_observes_batched_lanes(config, tmp_path, monkeypatch):
    """REPRO_BASELINE capture sees batched points exactly like scalar
    ones: verify passes afterwards with batching on or off."""
    monkeypatch.setenv("REPRO_BASELINE_DIR", str(tmp_path))
    tasks = [SimTask(config=config, program=p)
             for p in lane_programs(lanes=3)]
    monkeypatch.setenv("REPRO_BASELINE", "capture")
    assert all(o.ok for o in ParallelRunner(1).run_outcomes(tasks))
    monkeypatch.setenv("REPRO_BASELINE", "verify")
    assert all(o.ok for o in ParallelRunner(1).run_outcomes(tasks))
    # Scalar re-runs verify against the batched captures.
    monkeypatch.setenv("REPRO_TIMING_ENSEMBLE", "0")
    assert all(o.ok for o in ParallelRunner(1).run_outcomes(tasks))
