"""The batched timing engine's bit-identity contract: every lane of a
lockstep in-order batch equals a scalar ``Machine.run`` of the same
program — cycles, instructions, architectural state (exact sparse
memory words, zeros included), and the full ``extra`` payload — across
the workload suite, hierarchy variations, error lanes, and divergent
control flow."""

from __future__ import annotations

import pytest

from repro.config import (
    BranchPredictorConfig,
    CacheConfig,
    CoreKind,
    HierarchyConfig,
    InOrderConfig,
    LatencyConfig,
    MachineConfig,
    PredictorKind,
    PrefetcherConfig,
    PrefetcherKind,
    TLBConfig,
    inorder_machine,
    ooo_machine,
    sst_machine,
)
from repro.isa.assembler import assemble
from repro.regress.firewall import point_behavior, state_hash
from repro.sim import timing_ensemble as te
from repro.sim.machine import Machine
from repro.sim.parallel import ParallelRunner, SimTask
from repro.sim.timing_ensemble import (
    EnsembleError,
    numpy_available,
    run_timing_ensemble,
    timing_ensemble_eligible,
)
from repro.workloads.suite import WORKLOAD_FACTORIES, suite_params

# numpy_available() asks only whether numpy is installed; skip on
# whether it actually imports, so a broken install skips too.
try:
    import numpy  # noqa: F401
except ImportError:
    HAVE_NUMPY = False
else:
    HAVE_NUMPY = True
needs_numpy = pytest.mark.skipif(not HAVE_NUMPY,
                                 reason="numpy not installed")

LANES = 8


def lane_programs(name, lanes=LANES, scale="tiny"):
    kwargs = suite_params(scale)[name]
    return [
        WORKLOAD_FACTORIES[name](**kwargs, seed=300 + lane,
                                 name=f"{name}@lane{lane}")
        for lane in range(lanes)
    ]


def _stress_hierarchy(**overrides):
    """Tiny caches + shallow MSHRs: every eviction/merge/full-stall
    path fires even on tiny-scale workloads."""
    params = dict(
        l1d=CacheConfig(size_bytes=1024, assoc=2, hit_latency=2,
                        mshr_entries=2),
        l1i=CacheConfig(size_bytes=1024, assoc=2, hit_latency=1,
                        mshr_entries=2),
        l2=CacheConfig(size_bytes=8 * 1024, assoc=4, hit_latency=12,
                       mshr_entries=4),
    )
    params.update(overrides)
    return HierarchyConfig(**params)


CONFIGS = {
    "default": inorder_machine(),
    "width1": inorder_machine(width=1),
    "stress": inorder_machine(hierarchy=_stress_hierarchy()),
    "tlb": inorder_machine(hierarchy=_stress_hierarchy(
        tlb=TLBConfig(entries=2, page_bytes=8192, walk_latency=37))),
    "ifetch": inorder_machine(hierarchy=_stress_hierarchy(
        model_ifetch=True)),
    "prefetch": inorder_machine(hierarchy=_stress_hierarchy(
        l2_prefetcher=PrefetcherConfig(kind=PrefetcherKind.STRIDE,
                                       degree=2))),
    "bimodal": MachineConfig(
        core_kind=CoreKind.INORDER,
        hierarchy=_stress_hierarchy(
            tlb=TLBConfig(entries=4, page_bytes=8192, walk_latency=50),
            model_ifetch=True,
            l2_prefetcher=PrefetcherConfig(kind=PrefetcherKind.NEXT_LINE),
        ),
        inorder=InOrderConfig(
            width=2,
            latencies=LatencyConfig(alu=1, mul=4, div=17),
            predictor=BranchPredictorConfig(kind=PredictorKind.BIMODAL,
                                            table_bits=6, history_bits=0,
                                            btb_entries=16, ras_entries=2,
                                            mispredict_penalty=5),
        ),
        name="inorder-bimodal",
    ),
}


def assert_lanes_match(config, programs, outcomes, max_instructions=None):
    machine = Machine(config)
    assert len(outcomes) == len(programs)
    for program, outcome in zip(programs, outcomes):
        if max_instructions is None:
            expect_call = lambda: machine.run(program)  # noqa: E731
        else:
            expect_call = lambda: machine.run(  # noqa: E731
                program, max_instructions=max_instructions)
        try:
            expected = expect_call()
        except Exception as exc:  # noqa: BLE001 - error text is the oracle
            assert outcome.result is None, (
                f"{program.name}: batched succeeded where scalar raised "
                f"{exc!r}"
            )
            assert outcome.error == f"{type(exc).__name__}: {exc}"
            continue
        assert outcome.error is None, (
            f"{program.name}: batched failed ({outcome.error}) where "
            "scalar succeeded"
        )
        got = outcome.result
        assert got == expected, program.name
        # Dataclass equality ignores zero-valued memory words and numpy
        # scalar types; the firewall's governed behavior surface does
        # not — require its hashes bit-for-bit too.
        assert state_hash(got.state) == state_hash(expected.state), \
            program.name
        assert point_behavior(got) == point_behavior(expected), program.name


# ---------------------------------------------------------------------------
# Differential bit-identity across the workload suite.
# ---------------------------------------------------------------------------


@needs_numpy
@pytest.mark.parametrize("workload", sorted(WORKLOAD_FACTORIES))
def test_every_lane_matches_scalar_default_config(workload):
    programs = lane_programs(workload)
    outcomes = run_timing_ensemble(CONFIGS["default"], programs)
    assert_lanes_match(CONFIGS["default"], programs, outcomes)


@needs_numpy
@pytest.mark.parametrize("config_name", sorted(CONFIGS))
def test_every_lane_matches_scalar_across_configs(config_name):
    config = CONFIGS[config_name]
    programs = lane_programs("oltp-chase", lanes=6)
    outcomes = run_timing_ensemble(config, programs)
    assert_lanes_match(config, programs, outcomes)


@needs_numpy
@pytest.mark.parametrize("config_name", ["stress", "bimodal"])
def test_branchy_divergence_across_configs(config_name):
    config = CONFIGS[config_name]
    programs = lane_programs("int-branchy", lanes=6)
    outcomes = run_timing_ensemble(config, programs)
    assert_lanes_match(config, programs, outcomes)


@needs_numpy
def test_wide_batch_matches_scalar():
    config = CONFIGS["default"]
    programs = lane_programs("db-hashjoin", lanes=64)
    outcomes = run_timing_ensemble(config, programs)
    assert_lanes_match(config, programs, outcomes)


# ---------------------------------------------------------------------------
# Targeted control-flow / error-lane programs (lane-varying immediates).
# ---------------------------------------------------------------------------


def _asm_lanes(template, values, name):
    return [
        assemble(template.format(value=value), name=f"{name}@lane{lane}")
        for lane, value in enumerate(values)
    ]


MISALIGN_ASM = """
    movi r1, {value}
    ld   r2, 0(r1)
    addi r3, r2, 1
    halt
"""


@needs_numpy
def test_misaligned_lanes_fault_and_survivors_match():
    # Lanes 1 and 3 compute misaligned addresses; the rest are fine.
    values = [0x1000, 0x1004, 0x2000, 0x3001, 0x4008]
    programs = _asm_lanes(MISALIGN_ASM, values, "misalign")
    config = CONFIGS["default"]
    outcomes = run_timing_ensemble(config, programs)
    assert_lanes_match(config, programs, outcomes)
    assert outcomes[1].error is not None
    assert "misaligned" in outcomes[1].error
    assert outcomes[3].error is not None
    assert outcomes[0].ok and outcomes[2].ok and outcomes[4].ok


STORE_ZERO_ASM = """
    movi r1, {value}
    movi r2, 7
    st   r2, 0(r1)
    st   zero, 0(r1)     ; overwrite with an explicit zero word
    st   zero, 8(r1)     ; store zero to a never-written word
    halt
"""


@needs_numpy
def test_zero_stores_keep_exact_memory_words():
    """Zero-valued stores must survive into the result's memory image:
    the firewall hash and cache codec serialize them."""
    programs = _asm_lanes(STORE_ZERO_ASM, [0x1000, 0x2000, 0x3000], "zeros")
    config = CONFIGS["default"]
    outcomes = run_timing_ensemble(config, programs)
    assert_lanes_match(config, programs, outcomes)
    words = dict(outcomes[0].result.state.memory.items())
    assert words[0x1000] == 0
    assert words[0x1008] == 0


BUDGET_ASM = """
loop:
    addi r1, r1, {value}
    jal  zero, loop
    halt                 ; unreachable, satisfies validate()
"""


@needs_numpy
def test_budget_exhaustion_matches_scalar_error():
    programs = _asm_lanes(BUDGET_ASM, [1, 2, 3], "spin")
    config = CONFIGS["default"]
    outcomes = run_timing_ensemble(config, programs, max_instructions=50)
    assert_lanes_match(config, programs, outcomes, max_instructions=50)
    for outcome in outcomes:
        assert outcome.error is not None
        assert "exceeded 50 instructions" in outcome.error


JALR_ASM = """
    movi r1, {value}
    jalr zero, r1, 0
    halt
    halt
"""


@needs_numpy
def test_indirect_jump_out_of_range_matches_scalar():
    # Lane 0 jumps to a valid PC; lane 1 jumps far outside; lane 2
    # wraps negative (huge unsigned PC).
    programs = _asm_lanes(JALR_ASM, [2, 99, -5], "wildjump")
    config = CONFIGS["default"]
    outcomes = run_timing_ensemble(config, programs)
    assert_lanes_match(config, programs, outcomes)
    assert outcomes[0].ok
    assert outcomes[1].error is not None and "outside program" in outcomes[1].error
    assert outcomes[2].error is not None


CALL_ASM = """
    movi r5, {value}
    jal  ra, helper
    jal  ra, helper
    jal  ra, helper
    halt
helper:
    addi r5, r5, 3
    jalr zero, ra, 0
"""


@needs_numpy
def test_call_return_ras_matches_scalar():
    programs = _asm_lanes(CALL_ASM, [10, 20, 30, 40], "callret")
    config = CONFIGS["bimodal"]
    outcomes = run_timing_ensemble(config, programs)
    assert_lanes_match(config, programs, outcomes)
    for outcome in outcomes:
        ras_hits = outcome.result.extra["branch"].ras_hits
        assert ras_hits >= 1


DIVERGE_ASM = """
    movi r1, {value}
    movi r3, 0
    movi r4, 16
loop:
    andi r2, r1, 1
    beq  r2, zero, even
    addi r3, r3, 7
    jal  zero, next
even:
    membar
    addi r3, r3, 1
next:
    srli r1, r1, 1
    addi r4, r4, -1
    bne  r4, zero, loop
    div  r6, r3, r2      ; r2 is 0 or 1 per lane at exit
    rem  r7, r3, r4
    halt
"""


@needs_numpy
def test_divergent_reconvergent_lockstep_with_barriers_and_div():
    values = [0b1010101, 0b1111, 0, 0xFFFF, 0x1234, 7, 8, 1 << 15]
    programs = _asm_lanes(DIVERGE_ASM, values, "diverge")
    config = CONFIGS["stress"]
    outcomes = run_timing_ensemble(config, programs)
    assert_lanes_match(config, programs, outcomes)


# ---------------------------------------------------------------------------
# Eligibility and guard rails.
# ---------------------------------------------------------------------------


@needs_numpy
def test_eligibility_respects_config_and_env(monkeypatch):
    monkeypatch.delenv("REPRO_TIMING_ENSEMBLE", raising=False)
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)
    monkeypatch.delenv("REPRO_FAULT_INJECT", raising=False)
    assert timing_ensemble_eligible(CONFIGS["default"])
    assert timing_ensemble_eligible(CONFIGS["bimodal"])
    assert not timing_ensemble_eligible(sst_machine())
    assert not timing_ensemble_eligible(ooo_machine())
    static = MachineConfig(
        core_kind=CoreKind.INORDER,
        inorder=InOrderConfig(predictor=BranchPredictorConfig(
            kind=PredictorKind.ALWAYS_TAKEN)),
    )
    assert not timing_ensemble_eligible(static)

    monkeypatch.setenv("REPRO_TIMING_ENSEMBLE", "0")
    assert not timing_ensemble_eligible(CONFIGS["default"])
    monkeypatch.delenv("REPRO_TIMING_ENSEMBLE", raising=False)

    monkeypatch.setenv("REPRO_SANITIZE", "1")
    assert not timing_ensemble_eligible(CONFIGS["default"])
    monkeypatch.delenv("REPRO_SANITIZE", raising=False)

    monkeypatch.setenv("REPRO_FAULT_INJECT", "crash:0.5")
    assert not timing_ensemble_eligible(CONFIGS["default"])


@needs_numpy
def test_non_inorder_config_rejected():
    programs = lane_programs("fp-stream", lanes=2)
    with pytest.raises(EnsembleError, match="in-order"):
        run_timing_ensemble(sst_machine(), programs)


@needs_numpy
def test_static_predictor_rejected():
    programs = lane_programs("fp-stream", lanes=2)
    config = MachineConfig(
        core_kind=CoreKind.INORDER,
        inorder=InOrderConfig(predictor=BranchPredictorConfig(
            kind=PredictorKind.ALWAYS_NOT_TAKEN)),
    )
    with pytest.raises(EnsembleError, match="predictor"):
        run_timing_ensemble(config, programs)


@needs_numpy
def test_shape_mismatch_rejected():
    a = lane_programs("fp-stream", lanes=1)[0]
    b = lane_programs("int-branchy", lanes=1)[0]
    with pytest.raises(EnsembleError, match="shape"):
        run_timing_ensemble(inorder_machine(), [a, b])


@needs_numpy
def test_empty_ensemble_rejected():
    with pytest.raises(EnsembleError, match="at least one lane"):
        run_timing_ensemble(inorder_machine(), [])


def test_timing_ensemble_ineligible_without_numpy(monkeypatch):
    """Without numpy the timing engine declares itself ineligible and
    sweeps run scalar: results are unchanged, availability is honest."""
    from repro.experiments import perf

    monkeypatch.setattr(te, "_np", None)
    config = inorder_machine()
    assert not numpy_available()
    assert not timing_ensemble_eligible(config)
    with pytest.raises(EnsembleError, match="numpy"):
        run_timing_ensemble(config, lane_programs("fp-stream", 2))

    # The runner silently takes the scalar path for every point.
    tasks = [SimTask(config=config, program=p)
             for p in lane_programs("fp-stream", 3)]
    outcomes = ParallelRunner(1).run_outcomes(tasks)
    assert all(o.ok for o in outcomes)

    # And perf snapshots stay writable, marking the section absent.
    section = perf.measure_timing_ensemble(lanes=2)
    assert section == {
        "available": False,
        "reason": "numpy not installed",
        "lanes": 2,
        "scale": "tiny",
    }


@needs_numpy
def test_single_lane_batch_matches_scalar():
    programs = lane_programs("web-storelog", lanes=1)
    config = CONFIGS["default"]
    outcomes = run_timing_ensemble(config, programs)
    assert_lanes_match(config, programs, outcomes)
