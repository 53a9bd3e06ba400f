"""All machine configuration, as validated dataclasses.

Everything a simulation depends on is named here and nowhere else:
cache geometry, DRAM latency/bandwidth, branch-predictor choice,
functional-unit latencies, and the per-core structural parameters
(checkpoint count, deferred-queue depth, store-buffer depth, ROB/IQ/LSQ
sizes...).  The presets at the bottom mirror the machine points the
paper compares: a ROCK-like SST core, the same pipeline restricted to
execute-ahead / scout / plain in-order, and out-of-order cores of
increasing size ("larger and higher-powered" comparators).

Every dataclass validates itself in ``__post_init__`` and raises
:class:`~repro.errors.ConfigError` on bad values, so a mistyped sweep
fails immediately instead of producing a silently wrong machine.
"""

from __future__ import annotations

import dataclasses
import enum
import os
from typing import Optional

from repro.errors import ConfigError


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ConfigError(message)


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


# ---------------------------------------------------------------------------
# Memory system.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache level."""

    size_bytes: int
    assoc: int
    line_bytes: int = 64
    hit_latency: int = 1
    mshr_entries: int = 8

    def __post_init__(self) -> None:
        _require(_is_pow2(self.line_bytes), "line_bytes must be a power of two")
        _require(self.line_bytes >= 8, "line_bytes must hold a 64-bit word")
        _require(self.assoc >= 1, "assoc must be >= 1")
        _require(self.size_bytes >= self.line_bytes * self.assoc,
                 "cache smaller than one set")
        sets = self.size_bytes // (self.line_bytes * self.assoc)
        _require(_is_pow2(sets),
                 f"number of sets must be a power of two, got {sets}")
        _require(self.hit_latency >= 0, "hit_latency must be >= 0")
        _require(self.mshr_entries >= 1, "mshr_entries must be >= 1")

    @property
    def num_sets(self) -> int:
        return self.size_bytes // (self.line_bytes * self.assoc)


@dataclasses.dataclass(frozen=True)
class DRAMConfig:
    """Main memory: flat latency plus a bandwidth limit.

    ``min_interval`` is the minimum number of cycles between the starts
    of two DRAM accesses (a token-bucket bandwidth model); 0 disables
    the limit.
    """

    latency: int = 300
    min_interval: int = 4

    def __post_init__(self) -> None:
        _require(self.latency >= 1, "DRAM latency must be >= 1")
        _require(self.min_interval >= 0, "min_interval must be >= 0")


class PrefetcherKind(enum.Enum):
    NONE = "none"
    NEXT_LINE = "next_line"
    STRIDE = "stride"


@dataclasses.dataclass(frozen=True)
class PrefetcherConfig:
    kind: PrefetcherKind = PrefetcherKind.NONE
    degree: int = 1
    # Stride table entries (stride prefetcher only).
    table_entries: int = 64

    def __post_init__(self) -> None:
        _require(self.degree >= 1, "prefetch degree must be >= 1")
        _require(self.table_entries >= 1, "table_entries must be >= 1")


@dataclasses.dataclass(frozen=True)
class TLBConfig:
    """Data TLB: fully-associative translation cache with a fixed
    table-walk latency (see :mod:`repro.memory.tlb`)."""

    entries: int = 64
    page_bytes: int = 8192
    walk_latency: int = 120

    def __post_init__(self) -> None:
        _require(self.entries >= 1, "TLB entries must be >= 1")
        _require(self.page_bytes >= 64 and _is_pow2(self.page_bytes),
                 "page_bytes must be a power of two >= 64")
        _require(self.walk_latency >= 1, "walk_latency must be >= 1")


@dataclasses.dataclass(frozen=True)
class HierarchyConfig:
    """The full L1D/L1I/L2/DRAM stack one core sees."""

    l1d: CacheConfig = CacheConfig(size_bytes=32 * 1024, assoc=4,
                                   hit_latency=2, mshr_entries=8)
    l1i: CacheConfig = CacheConfig(size_bytes=32 * 1024, assoc=4,
                                   hit_latency=1, mshr_entries=4)
    l2: CacheConfig = CacheConfig(size_bytes=2 * 1024 * 1024, assoc=8,
                                  hit_latency=20, mshr_entries=16)
    dram: DRAMConfig = DRAMConfig()
    l2_prefetcher: PrefetcherConfig = PrefetcherConfig()
    # Data TLB; None disables translation timing entirely.
    tlb: Optional[TLBConfig] = None
    # Instruction fetch modelling is optional; commercial traces have
    # bigger I-footprints, but the SST mechanism is D-side, and the
    # workload generators emit small loops.  Off by default.
    model_ifetch: bool = False

    def l2_miss_latency(self) -> int:
        """Unloaded latency of a full miss to DRAM (for defer thresholds)."""
        return self.l1d.hit_latency + self.l2.hit_latency + self.dram.latency


# ---------------------------------------------------------------------------
# Branch prediction.
# ---------------------------------------------------------------------------


class PredictorKind(enum.Enum):
    ALWAYS_TAKEN = "taken"
    ALWAYS_NOT_TAKEN = "not_taken"
    BIMODAL = "bimodal"
    GSHARE = "gshare"
    TOURNAMENT = "tournament"  # bimodal vs gshare with a chooser


@dataclasses.dataclass(frozen=True)
class BranchPredictorConfig:
    kind: PredictorKind = PredictorKind.GSHARE
    table_bits: int = 12
    history_bits: int = 10
    btb_entries: int = 512
    ras_entries: int = 8
    mispredict_penalty: int = 8

    def __post_init__(self) -> None:
        _require(1 <= self.table_bits <= 24, "table_bits out of range")
        _require(0 <= self.history_bits <= self.table_bits,
                 "history_bits must be <= table_bits")
        _require(_is_pow2(self.btb_entries), "btb_entries must be a power of two")
        _require(self.ras_entries >= 1, "ras_entries must be >= 1")
        _require(self.mispredict_penalty >= 0, "penalty must be >= 0")


# ---------------------------------------------------------------------------
# Functional-unit latencies (shared by every core).
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class LatencyConfig:
    alu: int = 1
    mul: int = 6
    div: int = 24

    def __post_init__(self) -> None:
        _require(self.alu >= 1 and self.mul >= 1 and self.div >= 1,
                 "latencies must be >= 1")


# ---------------------------------------------------------------------------
# Cores.
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class InOrderConfig:
    """Scoreboarded in-order core (stall-on-use)."""

    width: int = 2
    latencies: LatencyConfig = LatencyConfig()
    predictor: BranchPredictorConfig = BranchPredictorConfig()

    def __post_init__(self) -> None:
        _require(1 <= self.width <= 8, "width out of range")


@dataclasses.dataclass(frozen=True)
class OoOConfig:
    """Classical out-of-order core: rename + ROB + IQ + LSQ.

    This is the paper's comparator.  ``perfect_disambiguation`` lets the
    LSQ speculate loads past unresolved stores with an oracle (an upper
    bound for the OoO core, making the SST comparison conservative).
    """

    fetch_width: int = 4
    issue_width: int = 4
    commit_width: int = 4
    rob_size: int = 128
    iq_size: int = 48
    lsq_size: int = 48
    latencies: LatencyConfig = LatencyConfig()
    predictor: BranchPredictorConfig = BranchPredictorConfig()
    perfect_disambiguation: bool = False

    def __post_init__(self) -> None:
        _require(self.fetch_width >= 1, "fetch_width must be >= 1")
        _require(self.issue_width >= 1, "issue_width must be >= 1")
        _require(self.commit_width >= 1, "commit_width must be >= 1")
        _require(self.rob_size >= 2, "rob_size must be >= 2")
        _require(self.iq_size >= 1, "iq_size must be >= 1")
        _require(self.lsq_size >= 1, "lsq_size must be >= 1")
        _require(self.iq_size <= self.rob_size, "iq_size cannot exceed rob_size")
        _require(self.lsq_size <= self.rob_size, "lsq_size cannot exceed rob_size")


class DeferTrigger(enum.Enum):
    """Which load events start speculation in the SST core."""

    L1_MISS = "l1_miss"  # defer on any L1D miss
    L2_MISS = "l2_miss"  # defer only on misses that go to DRAM


@dataclasses.dataclass(frozen=True)
class SSTConfig:
    """The SST/ROCK core (the paper's contribution).

    * ``checkpoints=0`` with ``scout_enabled=False`` degenerates to the
      plain in-order pipeline.
    * ``checkpoints=1, scout_only=True`` is hardware scout (run ahead
      purely for prefetch, always roll back).
    * ``checkpoints=1`` is execute-ahead (EA): replay stalls the ahead
      strand.
    * ``checkpoints>=2`` is full SST: the deferred strand replays
      *simultaneously* with continued ahead execution.
    """

    width: int = 2
    checkpoints: int = 2
    dq_size: int = 64
    sb_size: int = 32
    defer_trigger: DeferTrigger = DeferTrigger.L1_MISS
    # Also defer the dependence slice of long integer ops (DIV, MUL).
    defer_long_ops: bool = False
    # Treat a data-TLB miss (table walk) as a deferrable event, like
    # ROCK does; only meaningful when the hierarchy models a TLB.
    defer_on_tlb_miss: bool = True
    scout_enabled: bool = True
    scout_only: bool = False
    # Let loads speculatively bypass older unresolved (deferred) stores,
    # validating at replay; False defers such loads conservatively.
    bypass_unresolved_stores: bool = True
    # Pipeline-flush cost of a failed speculation (checkpoint restore).
    rollback_penalty: int = 8
    # Cost of taking a register checkpoint (flash copy; ~free in ROCK).
    checkpoint_latency: int = 1
    # Stores drained from the speculative store buffer per cycle at commit.
    commit_drain_per_cycle: int = 2
    latencies: LatencyConfig = LatencyConfig()
    predictor: BranchPredictorConfig = BranchPredictorConfig()

    def __post_init__(self) -> None:
        _require(1 <= self.width <= 8, "width out of range")
        _require(self.checkpoints >= 0, "checkpoints must be >= 0")
        _require(self.dq_size >= 1, "dq_size must be >= 1")
        _require(self.sb_size >= 1, "sb_size must be >= 1")
        _require(self.rollback_penalty >= 0, "rollback_penalty must be >= 0")
        _require(self.checkpoint_latency >= 0, "checkpoint_latency must be >= 0")
        _require(self.commit_drain_per_cycle >= 1,
                 "commit_drain_per_cycle must be >= 1")
        if self.scout_only:
            _require(self.checkpoints >= 1, "scout needs one checkpoint")
        if self.checkpoints == 0:
            _require(not self.scout_only,
                     "scout_only requires at least one checkpoint")

    @property
    def mode_name(self) -> str:
        """Human name of the degenerate configuration."""
        if self.checkpoints == 0:
            return "inorder"
        if self.scout_only:
            return "scout"
        if self.checkpoints == 1:
            return "execute-ahead"
        return "sst"


# ---------------------------------------------------------------------------
# Whole machine.
# ---------------------------------------------------------------------------


class CoreKind(enum.Enum):
    INORDER = "inorder"
    OOO = "ooo"
    SST = "sst"


@dataclasses.dataclass(frozen=True)
class MachineConfig:
    """One core + its memory hierarchy."""

    core_kind: CoreKind
    hierarchy: HierarchyConfig = HierarchyConfig()
    inorder: Optional[InOrderConfig] = None
    ooo: Optional[OoOConfig] = None
    sst: Optional[SSTConfig] = None
    name: str = ""

    def __post_init__(self) -> None:
        selected = {
            CoreKind.INORDER: self.inorder,
            CoreKind.OOO: self.ooo,
            CoreKind.SST: self.sst,
        }[self.core_kind]
        _require(selected is not None,
                 f"core_kind={self.core_kind.value} but its config is None")
        if not self.name:
            object.__setattr__(self, "name", self.core_kind.value)


# ---------------------------------------------------------------------------
# Presets — the machine points the paper's evaluation compares.
# ---------------------------------------------------------------------------


def inorder_machine(hierarchy: HierarchyConfig = HierarchyConfig(),
                    width: int = 2) -> MachineConfig:
    """The simple in-order baseline (same pipeline as SST, no speculation)."""
    return MachineConfig(
        core_kind=CoreKind.INORDER,
        hierarchy=hierarchy,
        inorder=InOrderConfig(width=width),
        name=f"inorder-{width}w",
    )


def scout_machine(hierarchy: HierarchyConfig = HierarchyConfig(),
                  width: int = 2) -> MachineConfig:
    """Hardware scout: run-ahead prefetching only, always rolls back."""
    return MachineConfig(
        core_kind=CoreKind.SST,
        hierarchy=hierarchy,
        sst=SSTConfig(width=width, checkpoints=1, scout_only=True),
        name=f"scout-{width}w",
    )


def ea_machine(hierarchy: HierarchyConfig = HierarchyConfig(),
               width: int = 2, dq_size: int = 64) -> MachineConfig:
    """Execute-ahead: one checkpoint, replay stalls the ahead strand."""
    return MachineConfig(
        core_kind=CoreKind.SST,
        hierarchy=hierarchy,
        sst=SSTConfig(width=width, checkpoints=1, dq_size=dq_size),
        name=f"ea-{width}w",
    )


def sst_machine(hierarchy: HierarchyConfig = HierarchyConfig(),
                width: int = 2, checkpoints: int = 2,
                dq_size: int = 64, sb_size: int = 32) -> MachineConfig:
    """The ROCK-like SST core (the paper's design point)."""
    return MachineConfig(
        core_kind=CoreKind.SST,
        hierarchy=hierarchy,
        sst=SSTConfig(width=width, checkpoints=checkpoints,
                      dq_size=dq_size, sb_size=sb_size),
        name=f"sst-{width}w-{checkpoints}ckpt",
    )


def ooo_machine(hierarchy: HierarchyConfig = HierarchyConfig(),
                rob_size: int = 128, width: int = 4) -> MachineConfig:
    """An out-of-order comparator; scale ``rob_size`` for the
    32/64/128-entry design points the evaluation sweeps."""
    iq = max(8, rob_size // 3)
    lsq = max(8, rob_size // 3)
    return MachineConfig(
        core_kind=CoreKind.OOO,
        hierarchy=hierarchy,
        ooo=OoOConfig(fetch_width=width, issue_width=width,
                      commit_width=width, rob_size=rob_size,
                      iq_size=iq, lsq_size=lsq),
        name=f"ooo-{width}w-rob{rob_size}",
    )


# ---------------------------------------------------------------------------
# Runtime environment knobs.
#
# The simulator reads a small set of REPRO_* environment variables; the
# knob constants and shared parsers live here so there is one documented
# home for them.  The full set (tests/config/test_env_registry.py greps
# this block against the actual ``os.environ.get("REPRO_...`` call
# sites, so keep it complete):
#
#   REPRO_JOBS              worker-pool size for ParallelRunner
#   REPRO_CACHE             "0" disables the result cache
#   REPRO_CACHE_DIR         result-cache directory override
#   REPRO_CACHE_MAX_BYTES   LRU size cap for the result cache
#   REPRO_ENSEMBLE          "0" disables the vectorized ensemble
#                           backend (falls back to the scalar
#                           per-lane interpreter loop)
#   REPRO_ENSEMBLE_LANES    lane-chunk width for run_ensemble
#                           (default 64)
#   REPRO_TIMING_ENSEMBLE   "0" disables lane-batched *timing*
#                           simulation (repro.sim.timing_ensemble);
#                           eligible task groups then run lane-by-lane
#                           through the scalar cores
#   REPRO_SANITIZE          "1" enables the invariant sanitizer
#   REPRO_TAINT             "1" enables the speculative-leak taint
#                           tracker (and the e19 gadget gate)
#   REPRO_BASELINE          behavioral-firewall observation mode
#                           (capture/verify) for every simulated point
#   REPRO_BASELINE_DIR      baseline-record directory override
#   REPRO_BENCH_SMOKE       "1" shrinks benchmarks to smoke scale
#   REPRO_BENCH_MAX_INSTRUCTIONS   per-run instruction budget cap
#   REPRO_RESULTS_DIR       benchmark-results directory override
#   REPRO_PERF_BASELINE     committed perf-baseline snapshot override
#   REPRO_TASK_TIMEOUT / REPRO_TASK_RETRIES   parallel-engine limits
#   REPRO_FAULT_INJECT      deterministic fault-injection spec
# ---------------------------------------------------------------------------

ENSEMBLE_ENV = "REPRO_ENSEMBLE"
ENSEMBLE_LANES_ENV = "REPRO_ENSEMBLE_LANES"
TIMING_ENSEMBLE_ENV = "REPRO_TIMING_ENSEMBLE"
DEFAULT_ENSEMBLE_LANES = 64


def env_int(name: str, default: int) -> int:
    """Parse an integer REPRO_* knob, naming the variable on error.

    Blank values (``REPRO_JOBS=""``) fall back to ``default`` like an
    unset variable; anything else must parse as an integer or the
    error says *which* knob was malformed instead of a bare
    ``ValueError`` traceback.
    """
    raw = os.environ.get(name)
    if raw is None or not raw.strip():
        return default
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(
            f"{name} must be an integer, got {raw!r}"
        ) from None


def env_flag(name: str, default: bool = True) -> bool:
    """A REPRO_* on/off switch.

    The library's switch convention is asymmetric by default: kill
    switches (default True) are off only at the literal ``"0"``, while
    opt-ins (default False) are on only at ``"1"``/``"on"``/``"true"``.
    This helper encodes both so call sites cannot drift.
    """
    raw = os.environ.get(name)
    if raw is None:
        return default
    if default:
        return raw != "0"
    return raw.strip().lower() in ("1", "on", "true")


def ensemble_enabled() -> bool:
    """True unless ``REPRO_ENSEMBLE=0`` — the ensemble kill switch.
    When off, ensemble entry points run every lane through the scalar
    golden interpreter."""
    return env_flag(ENSEMBLE_ENV, default=True)


def timing_ensemble_enabled() -> bool:
    """True unless ``REPRO_TIMING_ENSEMBLE=0`` — the kill switch for
    lane-batched timing simulation (:mod:`repro.sim.timing_ensemble`).
    When off, eligible task groups run lane-by-lane through the scalar
    timing cores instead."""
    return env_flag(TIMING_ENSEMBLE_ENV, default=True)


def ensemble_lanes() -> int:
    """Lane-chunk width for ensemble execution (``REPRO_ENSEMBLE_LANES``,
    default 64): cold lanes are vectorized in chunks of this many."""
    lanes = env_int(ENSEMBLE_LANES_ENV, DEFAULT_ENSEMBLE_LANES)
    _require(lanes >= 1, f"{ENSEMBLE_LANES_ENV} must be >= 1, got {lanes}")
    return lanes
