"""Lane-batched *timing* simulation of the in-order core.

This module batches the :class:`~repro.baselines.inorder.InOrderCore`
timing model over N seed/parameter-varied lanes of one program shape
(:meth:`~repro.isa.program.Program.shape_fingerprint`).  N lanes
execute in lockstep over structure-of-arrays state — lane-axis
register files, scoreboard ready/producer matrices, issue-clock
vectors, a paged lane memory image (:class:`LaneMemoryImage`),
lane-axis L1/L2 tag matrices
(:class:`~repro.memory.cache.LaneCacheArray`) and MSHR/TLB mirror
vectors — with divergent control flow handled by a cohort worklist
(an ``{entry_pc: lane-index-array}`` map: lanes split at branches and
reconverge when they meet at a PC).

Bit-identity with the scalar core is the contract: every lane's
:class:`~repro.baselines.core_base.CoreResult` — cycles, instructions,
architectural state *including the exact sparse-memory word set*, and
the full ``extra`` payload (branch stats, hierarchy stats, L1D/L2
cache stats, CPI stack, perf counters) — equals a scalar
``InOrderCore`` run of the same lane program on a fresh hierarchy.
That identity is what lets batched results share the PR-9 behavioral
firewall corpus and the result cache with scalar runs.

The engine is split-authority:

* **vectorized fast paths** — issue-clock arithmetic, scoreboard
  stall resolution, ALU/branch execution, and the L1 hit path (tag
  probe + commit with an MSHR-idle mirror check and a TLB-MRU mirror
  check) run as numpy expressions over whole cohorts;
* **per-lane slow paths** — anything that touches MSHR allocation,
  L2, DRAM, the prefetcher, or a TLB walk calls the *real*
  per-lane :class:`~repro.memory.hierarchy.MemoryHierarchy`, whose
  cache attributes are :class:`~repro.memory.cache.LaneCacheView`
  facades over the shared tag matrices and whose ``stats`` object is
  a property view over the engine's lane-axis stat vectors.  The
  scalar miss/merge/writeback machinery therefore runs unmodified,
  and fast and slow paths mutate one tag store by construction.

The mirror vectors are conservative, never wrong: ``idle_at(c)`` is
exactly ``max_pending_ready() <= c`` (lazy MSHR expiry is transparent
to that comparison), and an access to the TLB's MRU page is a hit
whose ``move_to_end`` is a no-op — so a mirror *miss* merely routes
the lane through the slow path, which recomputes the truth.

Scope note: only the in-order core is batched.  Batching the SST
core's checkpoint/defer/replay machinery over the lane axis was
evaluated and deliberately dropped — its per-lane divergence (defer
queues drain at data-dependent times, speculation depth varies per
lane) destroys the lockstep cohorts this design needs, so an SST lane
batch would degenerate to a python loop over scalar cores with extra
overhead.  Ensemble sweeps of SST points keep the scalar path.

Eligibility is checked by :func:`timing_ensemble_eligible`: numpy
present, ``REPRO_TIMING_ENSEMBLE`` not ``0``, an in-order machine
config with a gshare or bimodal direction predictor (tournament and
static predictors fall back to scalar runs), no observational
sanitizer (``REPRO_SANITIZE`` hooks the scalar cores) and no fault
injection plan (``REPRO_FAULT_INJECT`` targets per-task workers).
"""

from __future__ import annotations

import dataclasses
import functools
import importlib.util
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.sanitizer import sanitize_enabled
from repro.baselines.core_base import (
    Core,
    CoreResult,
    DEFAULT_MAX_INSTRUCTIONS,
)
from repro.branch.predictors import BranchStats
from repro.config import (
    CoreKind,
    MachineConfig,
    PredictorKind,
    timing_ensemble_enabled,
)
from repro.isa import blockcache
from repro.isa.blockcache import (
    K_BARRIER,
    K_BRANCH,
    K_DIV,
    K_HALT,
    K_JUMP,
    K_JUMP_INDIRECT,
    K_LOAD,
    K_MUL,
    K_NOP,
    K_PREFETCH,
    K_STORE,
    R_FN,
    R_INST,
    R_KIND,
    R_RD,
    R_RS1,
    R_RS2,
    R_SOURCES,
    R_TARGET,
    R_USES_IMM,
)
from repro.isa.interpreter import ArchState
from repro.isa.opcodes import Op
from repro.isa.program import Program
from repro.isa.registers import REG_COUNT
from repro.isa.semantics import MASK64, to_signed
from repro.memory.cache import LaneCacheArray, LaneCacheView, load_numpy
from repro.memory.hierarchy import (
    HierarchyStats,
    ICODE_BASE,
    ICODE_BYTES_PER_INST,
    MemoryHierarchy,
)
from repro.memory.request import AccessType
from repro.core.timing import PerfCounters
from repro.errors import ReproError
from repro.memory.sparse_memory import SparseMemory
from repro.sim.faults import fault_plan_from_env

# numpy is the optional `ensemble` extra, not a hard dependency, and is
# imported only when a lane batch runs (run_timing_ensemble).  Until
# then _np is _UNLOADED; None means numpy is absent.
_UNLOADED: Any = object()
_np: Any = _UNLOADED

# The dense lane memory image is *paged*: the 64-bit address space is
# cut into 32 KiB pages and only anchored pages (initial image, plus
# pages reachable from address-like MOVI immediates) get a dense column
# range in M.  A small translation table maps page number -> slot base,
# so far-apart regions (result word, heap, log streams) stay dense
# without materializing the dead gaps between them.
_PAGE_WORDS = 4096              # words per dense page
_PAGE_SHIFT = 15                # byte address -> page number
_MOVI_HEADROOM_PAGES = 8        # growth room after each MOVI anchor
_SLOT_POISON = 1 << 60          # translation entry for unmapped pages
# Total dense-matrix ceiling: pages * lanes * page bytes is capped here
# and everything else spills to the per-lane overflow dicts.
_MAX_WINDOW_BYTES = 256 * 1024 * 1024


class EnsembleError(ReproError):
    """Invalid lane batch construction or a failed lane."""


def numpy_available() -> bool:
    """True when the lane-batched engine can run in this process.

    Answers without importing numpy: before the first batch it only
    asks whether numpy is installed."""
    if _np is _UNLOADED:
        return _numpy_installed()
    return _np is not None


@functools.lru_cache(maxsize=None)
def _numpy_installed() -> bool:
    return importlib.util.find_spec("numpy") is not None


def _sparse_from_words(words: Dict[int, int]) -> SparseMemory:
    memory = SparseMemory()
    memory._words = words
    return memory


def _check_lane_contract(programs: Sequence[Program]) -> None:
    if not programs:
        raise EnsembleError("ensemble needs at least one lane program")
    for program in programs:
        program.validate()
    shape = programs[0].shape_fingerprint()
    for lane, program in enumerate(programs):
        if program.shape_fingerprint() != shape:
            raise EnsembleError(
                f"lane {lane} ({program.name!r}) does not share the code "
                f"shape of lane 0 ({programs[0].name!r}); ensemble lanes "
                "must differ only in immediates and data "
                "(Program.shape_fingerprint)"
            )

# Stall-cause indices into the (lanes, 6) stall matrix.  The first
# three double as the register-producer codes, so a stall-on-use
# attribution is one gather from the producer matrix.
_S_MEMORY = 0
_S_LONG_OP = 1
_S_COMPUTE = 2
_S_FETCH = 3
_S_BRANCH = 4
_S_DRAIN = 5
_STALL_KEYS = ("memory", "long_op", "compute", "fetch", "branch", "drain")

# Columns of the consolidated per-lane clock/counter matrix.  Keeping
# the whole issue-clock in one (lanes, 14) int64 matrix turns the
# per-step bookkeeping into ONE gather and ONE scatter instead of a
# dozen — the dominant cost of a vectorized step is numpy call count,
# not element count.
_C_CYCLE = 0       # IssueClock.cycle
_C_SLOTS = 1       # IssueClock.slots
_C_SCYCLE = 2      # IssueClock._stepped_cycle
_C_EXEC = 3        # instructions executed
_C_STEP = 4        # perf.cycles_stepped
_C_SKIP = 5        # perf.cycles_skipped
_C_FFWD = 6        # perf.fast_forwards
_C_LSD = 7         # last_store_done
_C_STALL = 8       # stall cycles, 6 columns in _STALL_KEYS order
_NCOLS = 14

_VECTOR_PREDICTORS = (PredictorKind.GSHARE, PredictorKind.BIMODAL)

# Lane-axis hierarchy stat vectors (mirrors HierarchyStats' counters).
_HIER_FIELDS = (
    "demand_accesses", "demand_l1_hits", "demand_l2_hits", "demand_dram",
    "demand_merges", "prefetches_issued", "ifetches",
    "fastpath_l1d", "fastpath_l1i",
)


class _LaneHierStats:
    """One lane's ``HierarchyStats``, backed by the engine's vectors.

    Installed as the per-lane hierarchy's ``stats`` attribute so the
    scalar slow-path code (``stats.demand_dram += 1`` and friends)
    increments the same lane-axis counters the vectorized fast path
    updates with masked adds.
    """

    __slots__ = ("_h", "_lane")

    def __init__(self, vectors: Dict[str, Any], lane: int):
        self._h = vectors
        self._lane = lane


_ARITH_OPS = frozenset((
    Op.ADD, Op.ADDI, Op.SUB, Op.MUL,
    Op.AND, Op.ANDI, Op.OR, Op.ORI, Op.XOR, Op.XORI,
))


def _hier_prop(name: str) -> property:
    def _get(self: _LaneHierStats) -> int:
        return int(self._h[name][self._lane])

    def _set(self: _LaneHierStats, value: int) -> None:
        self._h[name][self._lane] = value

    return property(_get, _set)


for _field in _HIER_FIELDS:
    setattr(_LaneHierStats, _field, _hier_prop(_field))


@dataclasses.dataclass
class TimingLaneOutcome:
    """One lane of a batched timing run: a full scalar-identical
    :class:`CoreResult`, or the error a scalar run would have raised
    (rendered ``"ExceptionType: message"``)."""

    result: Optional[CoreResult] = None
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


def timing_ensemble_eligible(config: MachineConfig) -> bool:
    """Can same-shape sweeps of ``config`` batch through the timing
    engine?  False falls back to scalar runs, never errors."""
    if not numpy_available() or not timing_ensemble_enabled():
        return False
    if config.core_kind is not CoreKind.INORDER or config.inorder is None:
        return False
    if config.inorder.predictor.kind not in _VECTOR_PREDICTORS:
        return False
    # The observational sanitizer and the fault injector hook the
    # scalar per-task path; batching would silently bypass them.
    if sanitize_enabled() or fault_plan_from_env() is not None:
        return False
    return True


def run_timing_ensemble(
    config: MachineConfig,
    programs: Sequence[Program],
    max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
) -> List[TimingLaneOutcome]:
    """Run N shape-compatible lane programs through the batched
    in-order timing model; one outcome per lane, in lane order.

    ``wall_seconds`` on each result is the batch wall time divided
    evenly across lanes (excluded from result equality).
    """
    global _np
    if _np is _UNLOADED:
        _np = load_numpy()
    if _np is None:
        raise EnsembleError(
            "the timing ensemble requires numpy; guard calls with "
            "timing_ensemble_eligible()"
        )
    if config.core_kind is not CoreKind.INORDER or config.inorder is None:
        raise EnsembleError(
            "the timing ensemble batches in-order machines only, got "
            f"core_kind={config.core_kind.value}"
        )
    if config.inorder.predictor.kind not in _VECTOR_PREDICTORS:
        raise EnsembleError(
            "the timing ensemble vectorizes gshare/bimodal predictors "
            f"only, got {config.inorder.predictor.kind.value}"
        )
    lane_programs = list(programs)
    _check_lane_contract(lane_programs)
    started = time.perf_counter()
    engine = _TimingVectorEngine(config, lane_programs, max_instructions)
    outcomes = engine.run()
    wall = (time.perf_counter() - started) / max(1, len(lane_programs))
    for outcome in outcomes:
        if outcome.result is not None:
            outcome.result.wall_seconds = wall
    return outcomes


class LaneMemoryImage:
    """The paged dense memory window of N lanes (SoA).

    A ``(lanes, pages * page_words)`` uint64 matrix ``M`` for anchored
    pages, a page-number -> slot-base translation table ``T`` (poisoned
    for unmapped pages), and per-lane overflow dicts for everything
    outside the dense window.  Every store goes through
    :meth:`store_words`, which keeps the zero-write bookkeeping that
    lets :meth:`exact_lane_words` replicate the scalar
    ``SparseMemory._words`` dict bit-exactly.
    """

    def __init__(self, programs: Sequence[Program]):
        np = _np
        self.programs = list(programs)
        self.n_lanes = len(self.programs)
        image_pages = {
            word.addr >> _PAGE_SHIFT
            for program in self.programs
            for word in program.data
        }
        # Anchor pages reachable from address-like MOVI immediates too:
        # workloads materialize result/log-region base pointers as MOVI
        # constants outside the initial data image, and stores through
        # them must stay on the dense fast path.  Non-address constants
        # that slip through the filter cost at most one false page each
        # (and small ones coalesce into page zero).
        movi_pages: Set[int] = set()
        for inst in self.programs[0].instructions:
            if inst.op is Op.MOVI:
                imm = inst.imm
                if (1 << 12) <= imm < (1 << 48) and imm % 8 == 0:
                    movi_pages.add(imm >> _PAGE_SHIFT)
        budget = max(
            1, _MAX_WINDOW_BYTES // (8 * self.n_lanes * _PAGE_WORDS)
        )
        # Priority order under the budget: the image itself, one page of
        # headroom after each image page (heap-adjacent growth), then
        # MOVI anchors.  Anchors above the image top get extra headroom
        # pages so append-style streams (logs) can grow past their base
        # pointer; anchors below it (result words, small tables) do not
        # grow and stay single-page.
        image_top = max(image_pages) if image_pages else -1
        selected: Set[int] = set()
        tiers = [
            sorted(image_pages),
            sorted(page + 1 for page in image_pages),
            sorted(movi_pages),
            sorted(
                page + extra
                for page in movi_pages
                if page > image_top
                for extra in range(1, _MOVI_HEADROOM_PAGES + 1)
            ),
        ]
        for tier in tiers:
            for page in tier:
                if len(selected) >= budget:
                    break
                selected.add(page)
        if not selected:
            selected.add(0)
        pages = sorted(selected)
        self._pages = np.array(pages, dtype=np.int64)  # slot -> page
        self.T = np.full(
            pages[-1] + 1, _SLOT_POISON, dtype=np.uint64
        )
        for slot, page in enumerate(pages):
            self.T[page] = slot * _PAGE_WORDS
        self.M = np.zeros(
            (self.n_lanes, len(pages) * _PAGE_WORDS), dtype=np.uint64
        )
        self.ovf: List[Dict[int, int]] = [{} for _ in range(self.n_lanes)]
        # Addresses whose *scalar* word dict holds an explicit zero (a
        # zero-valued image word, or a store of zero through
        # store_words) — invisible in M but part of the exact identity.
        self.zero_written: List[Set[int]] = [
            set() for _ in range(self.n_lanes)
        ]
        self._track_zeros = False
        for lane, program in enumerate(self.programs):
            data = program.data
            if not data:
                continue
            count = len(data)
            addrs = np.fromiter(
                (word.addr for word in data), dtype=np.uint64,
                count=count,
            )
            values = np.fromiter(
                (word.value & MASK64 for word in data), dtype=np.uint64,
                count=count,
            )
            if not values.all():
                # Rare: the image writes explicit zeros.  Replay the
                # scalar last-writer-wins build to find which survive.
                final: Dict[int, int] = {}
                for word in data:
                    final[word.addr] = word.value & MASK64
                zeros = {a for a, v in final.items() if v == 0}
                if zeros:
                    self.zero_written[lane].update(zeros)
                    self._track_zeros = True
            w2, dense, _ = self.addr_state(addrs)
            # Duplicate addresses must resolve last-writer-wins like
            # the scalar image build; numpy fancy assignment leaves
            # that unspecified.  Strictly increasing slots (the
            # generator norm) scatter directly; anything else goes
            # through a stable sort so later words win ties.
            if dense.all():
                if count == 1 or bool((np.diff(w2) > 0).all()):
                    self.M[lane, w2] = values
                else:
                    order = np.argsort(w2, kind="stable")
                    self.M[lane, w2[order]] = values[order]
                continue
            for j, word in enumerate(data):
                if dense[j]:
                    self.M[lane, w2[j]] = values[j]
                else:
                    self.ovf[lane][word.addr] = int(values[j])

    def addr_state(self, addrs: Any) -> Tuple[Any, Any, Any]:
        """Map a uint64 byte-address vector through the page table:
        ``(dense_index, dense_mask, aligned_mask)``.  ``dense_index``
        is only meaningful where ``dense_mask`` holds."""
        np = _np
        aligned = (addrs & np.uint64(7)) == 0
        page = addrs >> np.uint64(_PAGE_SHIFT)
        in_table = page < np.uint64(self.T.size)
        slot = self.T[np.where(in_table, page, 0).astype(np.intp)]
        dense = in_table & (slot != np.uint64(_SLOT_POISON))
        w2 = (
            np.where(dense, slot, 0)
            + ((addrs >> np.uint64(3)) & np.uint64(_PAGE_WORDS - 1))
        ).astype(np.intp)
        return w2, dense, aligned

    # -- aligned batched access ----------------------------------------

    def load_words(self, idx: Any, addrs: Any) -> Any:
        """Gather the words at aligned ``addrs`` for lanes ``idx``."""
        np = _np
        w2, dense, _ = self.addr_state(addrs)
        if dense.all():
            return self.M[idx, w2]
        out = np.empty(idx.size, dtype=np.uint64)
        out[dense] = self.M[idx[dense], w2[dense]]
        for j in np.nonzero(~dense)[0].tolist():
            out[j] = self.ovf[int(idx[j])].get(int(addrs[j]), 0)
        return out

    def store_words(self, idx: Any, addrs: Any, vals: Any) -> None:
        """Scatter ``vals`` to aligned ``addrs`` for lanes ``idx``,
        maintaining the exact-words bookkeeping (zero stores stay part
        of the word set, like ``SparseMemory.write``)."""
        np = _np
        w2, dense, _ = self.addr_state(addrs)
        zero = vals == np.uint64(0)
        if zero.any():
            self._track_zeros = True
        if self._track_zeros:
            # Slow bookkeeping path, entered only once a zero word
            # exists anywhere in the ensemble.
            for j in np.nonzero(dense)[0].tolist():
                tracked = self.zero_written[int(idx[j])]
                if zero[j]:
                    tracked.add(int(addrs[j]))
                else:
                    tracked.discard(int(addrs[j]))
        if dense.all():
            self.M[idx, w2] = vals
        else:
            self.M[idx[dense], w2[dense]] = vals[dense]
            for j in np.nonzero(~dense)[0].tolist():
                self.ovf[int(idx[j])][int(addrs[j])] = int(vals[j])

    # -- collection ----------------------------------------------------

    def exact_lane_words(self, lane: int) -> Dict[int, int]:
        """The scalar ``SparseMemory._words`` replica of one lane —
        zero-valued entries included."""
        row = self.M[lane]
        nz = _np.nonzero(row)[0]
        pages = self._pages[nz // _PAGE_WORDS]
        addrs = (pages << _PAGE_SHIFT) + ((nz % _PAGE_WORDS) << 3)
        words = dict(zip(addrs.tolist(), row[nz].tolist()))
        for addr in self.zero_written[lane]:
            words[addr] = 0
        words.update(self.ovf[lane])
        return words


class _TimingVectorEngine:
    """SoA state + lockstep per-instruction stepping for one batch."""

    def __init__(self, config: MachineConfig, programs: List[Program],
                 max_instructions: int):
        np = _np
        inorder = config.inorder
        assert inorder is not None
        self.config = config
        self.programs = programs
        self.max_instructions = max_instructions
        self.n_lanes = n = len(programs)
        base = programs[0]
        self.rows = blockcache.rows_for(base)
        self.n_insts = len(self.rows)
        self.width = inorder.width
        self.lat_alu = inorder.latencies.alu
        self.lat_mul = inorder.latencies.mul
        self.lat_div = inorder.latencies.div
        self.model_ifetch = config.hierarchy.model_ifetch

        # Architectural + scoreboard state (column 0 is the hardwired
        # zero register: never written, always ready).
        self.R = np.zeros((n, REG_COUNT), dtype=np.uint64)
        self.ready = np.zeros((n, REG_COUNT), dtype=np.int64)
        self.producer = np.full((n, REG_COUNT), _S_COMPUTE, dtype=np.int64)
        self.mem_image = LaneMemoryImage(programs)

        # Consolidated issue-clock + perf-counter matrix (see the
        # _C_* column map above).
        self.S = np.zeros((n, _NCOLS), dtype=np.int64)
        self.S[:, _C_SCYCLE] = -1
        # Monotone upper bound on max(executed) across lanes: bumps by
        # one per step, so the per-lane budget check is skipped until
        # it could possibly fire.
        self._exec_hi = 0

        # Branch unit: vectorized 2-bit counter table (+ gshare
        # history); BTB dicts and RAS lists stay per-lane Python.
        predictor = inorder.predictor
        self.gshare = predictor.kind is PredictorKind.GSHARE
        self.ptable = np.full(
            (n, 1 << predictor.table_bits), 2, dtype=np.int8
        )
        self.pmask = (1 << predictor.table_bits) - 1
        self.history = np.zeros(n, dtype=np.int64)
        self.hmask = (1 << predictor.history_bits) - 1
        self.btb_mask = predictor.btb_entries - 1
        self.ras_entries = predictor.ras_entries
        self.penalty = predictor.mispredict_penalty
        self.btb: List[Dict[int, int]] = [{} for _ in range(n)]
        self.ras: List[List[int]] = [[] for _ in range(n)]
        self.b_cond_pred = np.zeros(n, dtype=np.int64)
        self.b_cond_misp = np.zeros(n, dtype=np.int64)
        self.b_ind_pred = np.zeros(n, dtype=np.int64)
        self.b_ind_misp = np.zeros(n, dtype=np.int64)
        self.b_ras_hits = np.zeros(n, dtype=np.int64)
        self.b_ras_misses = np.zeros(n, dtype=np.int64)

        # Memory hierarchy: shared lane-axis tag matrices + one real
        # scalar hierarchy per lane for the slow paths, viewing them.
        hconfig = config.hierarchy
        self.l1d_arr = LaneCacheArray(hconfig.l1d, n, name="L1D")
        self.l1i_arr = LaneCacheArray(hconfig.l1i, n, name="L1I")
        self.l2_arr = LaneCacheArray(hconfig.l2, n, name="L2")
        self.hvec: Dict[str, Any] = {
            name: np.zeros(n, dtype=np.int64) for name in _HIER_FIELDS
        }
        self.hiers: List[MemoryHierarchy] = []
        for lane in range(n):
            hier = MemoryHierarchy(hconfig, caches=(
                LaneCacheView(self.l1d_arr, lane),
                LaneCacheView(self.l1i_arr, lane),
                LaneCacheView(self.l2_arr, lane),
            ))
            hier.stats = _LaneHierStats(self.hvec, lane)  # type: ignore
            self.hiers.append(hier)
        self.l1d_lat = hconfig.l1d.hit_latency
        self.l1i_lat = hconfig.l1i.hit_latency
        # Mirror vectors: latest pending MSHR completion per lane
        # (idle_at(c) == mirror <= c) and the TLB's MRU page (-1 when
        # the structure is empty / absent).
        self.l1d_max = np.full(n, -1, dtype=np.int64)
        self._l1d_phi = -1
        self.l1i_max = np.full(n, -1, dtype=np.int64)
        # Full L1D pending-set mirror, (lanes, mshr_entries): a tag hit
        # while fills are outstanding is still a plain hit unless *this
        # line* is pending with a later ready ("hit under miss"), so
        # mirroring the whole pending set keeps hits vectorized during
        # miss windows.  A row slot with ready -1 is empty; stale
        # entries (ready in the past) never match because the merge
        # test compares against a future hit_ready.
        entries = max(1, hconfig.l1d.mshr_entries)
        self.l1d_plines = np.zeros((n, entries), dtype=np.uint64)
        self.l1d_pready = np.full((n, entries), -1, dtype=np.int64)
        self.has_tlb = hconfig.tlb is not None
        self.tlb_mru = np.full(n, -1, dtype=np.int64)
        if self.has_tlb:
            self._tlb_shift = np.uint64(
                hconfig.tlb.page_bytes.bit_length() - 1
            )
        line_bytes = hconfig.l1i.line_bytes
        self._l1i_line_shift = line_bytes.bit_length() - 1

        # Per-lane terminal state.
        self.halted = np.zeros(n, dtype=bool)
        self.total = np.zeros(n, dtype=np.int64)
        self._all_lanes = np.arange(n, dtype=np.intp)
        self.errors: List[Optional[str]] = [None] * n

        self._imm_cache: Dict[int, Tuple[Optional[int], Any]] = {}
        self._imm_raw: Dict[int, List[int]] = {}
        self._imm_box: Dict[int, Any] = {}

    # -- immediates ----------------------------------------------------

    def _imm_info(self, pc: int) -> Tuple[Optional[int], Any]:
        """``(uniform_imm, None)`` when every lane agrees at ``pc``,
        else ``(None, per-lane uint64 vector)`` (full lane length)."""
        cached = self._imm_cache.get(pc)
        if cached is not None:
            return cached
        imms = [program[pc].imm for program in self.programs]
        first = imms[0]
        if all(value == first for value in imms):
            info: Tuple[Optional[int], Any] = (first, None)
        else:
            vec = _np.array([value & MASK64 for value in imms],
                            dtype=_np.uint64)
            info = (None, vec)
        self._imm_cache[pc] = info
        return info

    def _imm_u64(self, pc: int, ix: Any) -> Any:
        boxed = self._imm_box.get(pc)
        if boxed is not None:
            return boxed
        uniform, vec = self._imm_info(pc)
        if vec is None:
            boxed = _np.uint64(uniform & MASK64)  # type: ignore[operator]
            self._imm_box[pc] = boxed
            return boxed
        return vec[ix]

    def _imm_raws(self, pc: int) -> List[int]:
        cached = self._imm_raw.get(pc)
        if cached is None:
            cached = [program[pc].imm for program in self.programs]
            self._imm_raw[pc] = cached
        return cached

    # -- ALU / branch value computation --------------------------------

    def _alu_value(self, pc: int, row: Any, idx: Any, ix: Any) -> Any:
        """The batched result of the arithmetic op at ``pc`` (signed
        compares through int64 views, shift counts masked to 63,
        DIV/REM through the scalar handler per lane, since their
        float-rounded scalar semantics have no numpy equivalent).  ``ix`` is the
        whole-axis slice when the cohort is every lane, else ``idx``."""
        np = _np
        op = row[R_INST].op
        uses_imm = row[R_USES_IMM]
        if op is Op.MOVI:
            uniform, vec = self._imm_info(pc)
            if vec is None:
                return np.full(idx.size, uniform & MASK64, np.uint64)
            return vec[ix]
        a = self.R[ix, row[R_RS1]]
        if op in _ARITH_OPS:
            b = (self._imm_u64(pc, ix) if uses_imm
                 else self.R[ix, row[R_RS2]])
            if op is Op.ADD or op is Op.ADDI:
                return a + b
            if op is Op.SUB:
                return a - b
            if op is Op.MUL:
                return a * b
            if op is Op.AND or op is Op.ANDI:
                return a & b
            if op is Op.OR or op is Op.ORI:
                return a | b
            return a ^ b  # XOR / XORI
        if op in (Op.DIV, Op.REM):
            fn = row[R_FN]
            out = np.empty(idx.size, dtype=np.uint64)
            avals = a.tolist()
            if uses_imm:
                raws = self._imm_raws(pc)
                lanes = idx.tolist()
                for j, value in enumerate(avals):
                    out[j] = fn(value, raws[lanes[j]])
            else:
                bvals = self.R[ix, row[R_RS2]].tolist()
                for j, value in enumerate(avals):
                    out[j] = fn(value, bvals[j])
            return out
        if op in (Op.SLT, Op.SLTI):
            if uses_imm:
                uniform, vec = self._imm_info(pc)
                b = (to_signed(uniform & MASK64) if vec is None
                     else vec.view(np.int64)[ix])
            else:
                b = self.R[ix, row[R_RS2]].view(np.int64)
            return (a.view(np.int64) < b).astype(np.uint64)
        if op is Op.SLTU:
            b = (self._imm_u64(pc, ix) if uses_imm
                 else self.R[ix, row[R_RS2]])
            return (a < b).astype(np.uint64)
        if op in (Op.SRA, Op.SRAI):
            if uses_imm:
                uniform, vec = self._imm_info(pc)
                count = (uniform & 63 if vec is None
                         else (vec[ix] & np.uint64(63)).astype(np.int64))
            else:
                count = (self.R[ix, row[R_RS2]]
                         & np.uint64(63)).astype(np.int64)
            return (a.view(np.int64) >> count).view(np.uint64)
        if op in (Op.SLL, Op.SLLI, Op.SRL, Op.SRLI):
            if uses_imm:
                uniform, vec = self._imm_info(pc)
                count = (np.uint64(uniform & 63) if vec is None
                         else vec[ix] & np.uint64(63))
            else:
                count = self.R[ix, row[R_RS2]] & np.uint64(63)
            if op in (Op.SLL, Op.SLLI):
                return a << count
            return a >> count
        raise AssertionError(f"unhandled ALU op {op}")  # pragma: no cover

    @staticmethod
    def _cond_value(op: Op, a: Any, b: Any) -> Any:
        np = _np
        if op is Op.BEQ:
            return a == b
        if op is Op.BNE:
            return a != b
        if op is Op.BLTU:
            return a < b
        if op is Op.BGEU:
            return a >= b
        if op is Op.BLT:
            return a.view(np.int64) < b.view(np.int64)
        if op is Op.BGE:
            return a.view(np.int64) >= b.view(np.int64)
        raise AssertionError(f"unhandled branch op {op}")  # pragma: no cover

    # -- memory fast/slow split ----------------------------------------

    def _refresh_l1d(self, lane: int, hier: MemoryHierarchy) -> None:
        """Re-mirror one lane's L1D MSHR + TLB after a slow-path call."""
        pending = hier.l1d_mshr._pending
        latest = max(pending.values()) if pending else -1
        self.l1d_max[lane] = latest
        if latest > self._l1d_phi:
            self._l1d_phi = latest
        row_lines = self.l1d_plines[lane]
        row_ready = self.l1d_pready[lane]
        row_ready[:] = -1
        for j, (line, ready) in enumerate(pending.items()):
            row_lines[j] = line
            row_ready[j] = ready
        if self.has_tlb:
            self.tlb_mru[lane] = hier.dtlb.mru_page  # type: ignore

    def _data_access(self, idx: Any, slot: Any, addrs: Any,
                     store: bool, pc: int) -> Any:
        """Batched ``MemoryHierarchy.data_access``: both scalar L1D hit
        paths (MSHR-idle single probe, and hit-under-miss with no merge
        on this line) vectorized behind a TLB-MRU mirror check;
        everything else through the lane's real hierarchy."""
        np = _np
        lines = self.l1d_arr.line_addr_lanes(addrs)
        hit, sets, ways = self.l1d_arr.probe_lanes(idx, lines)
        hit_ready = slot + self.l1d_lat
        # ``_l1d_phi`` is a running upper bound on every lane's latest
        # outstanding fill completion.  Once it trails the cohort's
        # earliest issue slot, every lane's MSHR is provably idle: no
        # merge can match and every hit is the fastpath — skip the
        # whole merge matrix (the steady state once cold misses drain).
        quiet = self._l1d_phi <= int(slot.min()) if idx.size else True
        if quiet:
            pmatch = merges = None
        else:
            # A tag hit merges only when this exact line's fill lands
            # after hit_ready ("pending > hit_ready" in the scalar
            # non-idle hit path); stale mirror rows have ready <= slot
            # < hit_ready and never match, so no expiry is needed.
            pmatch = (
                (self.l1d_plines[idx] == lines[:, None])
                & (self.l1d_pready[idx] > hit_ready[:, None])
            )
            merges = pmatch.any(axis=1)
        fast = hit
        if self.has_tlb:
            page = (addrs >> self._tlb_shift).astype(np.int64)
            fast = fast & (page == self.tlb_mru[idx])
        hv = self.hvec
        all_fast = bool(fast.all())
        if not all_fast:
            ready = np.empty(idx.size, dtype=np.int64)
            if not fast.any():
                access = AccessType.STORE if store else AccessType.LOAD
                for j in range(idx.size):
                    lane = int(idx[j])
                    hier = self.hiers[lane]
                    result = hier.data_access(int(addrs[j]), int(slot[j]),
                                              access, pc=pc)
                    ready[j] = result.ready_cycle
                    self._refresh_l1d(lane, hier)
                return ready
            fi = idx[fast]
            self.l1d_arr.commit_hit_lanes(fi, sets[fast], ways[fast],
                                          mark_dirty=store)
            hv["demand_accesses"][fi] += 1
            fmerges = None if merges is None else merges[fast]
            if fmerges is not None and fmerges.any():
                hv["demand_l1_hits"][fi[~fmerges]] += 1
                hv["demand_merges"][fi[fmerges]] += 1
                idle = self.l1d_max[fi] <= slot[fast]
                hv["fastpath_l1d"][fi[idle]] += 1
                mready = np.where(pmatch[fast], self.l1d_pready[fi],
                                  np.int64(-1)).max(axis=1)
                ready[fast] = np.where(fmerges, mready, hit_ready[fast])
            else:
                hv["demand_l1_hits"][fi] += 1
                if quiet:
                    hv["fastpath_l1d"][fi] += 1
                else:
                    idle = self.l1d_max[fi] <= slot[fast]
                    hv["fastpath_l1d"][fi[idle]] += 1
                ready[fast] = hit_ready[fast]
            access = AccessType.STORE if store else AccessType.LOAD
            for j in np.nonzero(~fast)[0].tolist():
                lane = int(idx[j])
                hier = self.hiers[lane]
                result = hier.data_access(int(addrs[j]), int(slot[j]),
                                          access, pc=pc)
                ready[j] = result.ready_cycle
                self._refresh_l1d(lane, hier)
            return ready
        # Whole cohort hits: one vectorized commit, no slow calls.
        self.l1d_arr.commit_hit_lanes(idx, sets, ways, mark_dirty=store)
        hv["demand_accesses"][idx] += 1
        if merges is not None and merges.any():
            idle = self.l1d_max[idx] <= slot
            hv["demand_l1_hits"][idx[~merges]] += 1
            hv["demand_merges"][idx[merges]] += 1
            hv["fastpath_l1d"][idx[idle]] += 1
            mready = np.where(pmatch, self.l1d_pready[idx],
                              np.int64(-1)).max(axis=1)
            return np.where(merges, mready, hit_ready)
        hv["demand_l1_hits"][idx] += 1
        if quiet:
            hv["fastpath_l1d"][idx] += 1
        else:
            idle = self.l1d_max[idx] <= slot
            if idle.all():
                hv["fastpath_l1d"][idx] += 1
            else:
                hv["fastpath_l1d"][idx[idle]] += 1
        return hit_ready

    def _ifetch(self, idx: Any, cycle: Any, pc: int) -> Any:
        """Batched ``MemoryHierarchy.ifetch`` (model_ifetch only)."""
        np = _np
        shift = self._l1i_line_shift
        line = ((ICODE_BASE + pc * ICODE_BYTES_PER_INST)
                >> shift) << shift
        lines = np.full(idx.size, line, dtype=np.uint64)
        fast = self.l1i_max[idx] <= cycle
        hit, sets, ways = self.l1i_arr.probe_lanes(idx, lines)
        fast &= hit
        hv = self.hvec
        if fast.all():
            self.l1i_arr.commit_hit_lanes(idx, sets, ways)
            hv["ifetches"][idx] += 1
            hv["fastpath_l1i"][idx] += 1
            return cycle + self.l1i_lat
        ready = np.empty(idx.size, dtype=np.int64)
        if fast.any():
            fi = idx[fast]
            self.l1i_arr.commit_hit_lanes(fi, sets[fast], ways[fast])
            hv["ifetches"][fi] += 1
            hv["fastpath_l1i"][fi] += 1
            ready[fast] = cycle[fast] + self.l1i_lat
        for j in np.nonzero(~fast)[0].tolist():
            lane = int(idx[j])
            hier = self.hiers[lane]
            result = hier.ifetch(pc, int(cycle[j]))
            ready[j] = result.ready_cycle
            self.l1i_max[lane] = hier.l1i_mshr.max_pending_ready()
        return ready

    # -- clock helpers -------------------------------------------------

    def _advance_to(self, lanes: Any, target: Any, cause: int) -> None:
        """Vectorized ``IssueClock.advance_to`` over ``lanes``."""
        current = self.S[lanes, _C_CYCLE]
        moved = target > current
        if not moved.any():
            return
        lm = lanes[moved]
        diff = target[moved] - current[moved]
        self.S[lm, _C_SKIP] += diff
        self.S[lm, _C_FFWD] += 1
        self.S[lm, _C_STALL + cause] += diff
        self.S[lm, _C_CYCLE] = target[moved]
        self.S[lm, _C_SLOTS] = 0

    # -- the lockstep step ---------------------------------------------

    def _enqueue(self, active: Dict[int, Any], pc: int, lanes: Any) -> None:
        if lanes.size == 0:
            return
        current = active.get(pc)
        active[pc] = (lanes if current is None
                      else _np.concatenate((current, lanes)))

    def _kill(self, lanes: Any, messages: Callable[[int], str]) -> None:
        for lane in lanes.tolist():
            self.errors[lane] = messages(lane)

    def _step(self, active: Dict[int, Any], pc: int, idx: Any) -> None:
        np = _np
        # Loop-top checks, scalar order: budget before PC bounds.
        # ``_exec_hi`` is a monotone upper bound on max(executed): each
        # step raises any lane's count by at most one, so the vector
        # compare is skipped entirely until it can possibly fire.
        if self._exec_hi >= self.max_instructions:
            over = self.S[idx, _C_EXEC] >= self.max_instructions
            if over.any():
                budget = self.max_instructions
                self._kill(idx[over], lambda lane: (
                    "ExecutionError: inorder: exceeded "
                    f"{budget} instructions without HALT "
                    f"(program {self.programs[lane].name!r})"
                ))
                idx = idx[~over]
                if idx.size == 0:
                    return
        self._exec_hi += 1
        if pc < 0 or pc >= self.n_insts:
            self._kill(idx, lambda lane: (
                f"ExecutionError: PC {pc} outside program"
            ))
            return
        row = self.rows[pc]
        kind = row[R_KIND]

        # When the cohort is every lane (the common lockstep case) a
        # whole-axis slice replaces the fancy-index gathers: row reads
        # become views and the issue-clock gather/scatter vanishes.
        # A full cohort can arrive as an arbitrary permutation (branch
        # reconvergence concatenates taken before fallthrough lanes),
        # so it is canonicalised to lane order first — every per-lane
        # op is element-wise, so reordering the cohort is free.
        # ``ix`` is only safe where the second index is a scalar —
        # paired-array indexing (ptable, probe_lanes) keeps ``idx``.
        full = idx.size == self.n_lanes
        if full:
            idx = self._all_lanes
        ix: Any = slice(None) if full else idx

        # One gather of the whole issue clock for the cohort; scattered
        # back exactly once below (before the kind handlers run — a lane
        # killed by a handler leaves its clock columns unobservable,
        # matching the scalar raise-after-issue ordering).
        S = self.S[ix]
        cycle = S[:, _C_CYCLE]

        # Stall resolution: fetch completion first, then stall-on-use
        # with first-source-wins on ties (strict > takeover).
        earliest = cycle
        src_code: Optional[Any] = None
        if self.model_ifetch:
            fetch_ready = self._ifetch(idx, cycle, pc)
            upd = fetch_ready > earliest
            if upd.any():
                earliest = cycle.copy()
                earliest[upd] = fetch_ready[upd]
                src_code = np.full(idx.size, -1, dtype=np.int64)
                src_code[upd] = _S_FETCH
        sources = row[R_SOURCES]
        if len(sources) == 2:
            # Fused two-source resolution: one compare instead of two.
            # First-source-wins on ties means source 1 owns the stall
            # exactly where its ready time is >= source 2's.
            s1, s2 = sources
            r1 = self.ready[ix, s1]
            r2 = self.ready[ix, s2]
            rmax = np.maximum(r1, r2)
            upd = rmax > earliest
            if upd.any():
                if src_code is None:
                    earliest = cycle.copy()
                    src_code = np.full(idx.size, -1, dtype=np.int64)
                earliest[upd] = rmax[upd]
                win1 = r1 >= r2
                src_code[upd] = np.where(
                    win1[upd],
                    self.producer[ix, s1][upd],
                    self.producer[ix, s2][upd],
                )
        else:
            for src in sources:
                reg_ready = self.ready[ix, src]
                upd = reg_ready > earliest
                if upd.any():
                    if src_code is None:
                        earliest = cycle.copy()
                        src_code = np.full(idx.size, -1, dtype=np.int64)
                    earliest[upd] = reg_ready[upd]
                    src_code[upd] = self.producer[ix, src][upd]
        if src_code is not None:
            rows_ = np.nonzero(src_code >= 0)[0]
            S[rows_, _C_STALL + src_code[rows_]] += (
                earliest[rows_] - cycle[rows_]
            )

        if kind == K_HALT:
            S[:, _C_EXEC] += 1
            final = np.maximum(earliest, self.ready[ix].max(axis=1))
            np.maximum(final, S[:, _C_LSD], out=final)
            self.total[ix] = np.maximum(final, 1)
            self.halted[ix] = True
            if not full:
                self.S[idx] = S
            return

        # issue_at, vectorized (fast-forward + slot accounting).  Where
        # no stall fired ``earliest`` aliases ``cycle`` (diff 0, ff
        # False), so the adds below are maskless but still exact.
        slots_v = S[:, _C_SLOTS]
        if src_code is not None:
            ff = earliest > cycle
            S[:, _C_SKIP] += earliest - cycle
            S[:, _C_FFWD] += ff
            slots_v[ff] = 0
            cycle[:] = earliest
        scyc = S[:, _C_SCYCLE]
        S[:, _C_STEP] += cycle != scyc
        scyc[:] = cycle
        slot = cycle.copy()
        slots_v += 1
        wrap = slots_v >= self.width
        cycle += wrap
        slots_v[wrap] = 0
        S[:, _C_EXEC] += 1
        if not full:
            self.S[idx] = S

        if kind <= K_DIV:  # ALU / MUL / DIV
            rd = row[R_RD]
            if rd != 0:
                self.R[ix, rd] = self._alu_value(pc, row, idx, ix)
                if kind == K_MUL or kind == K_DIV:
                    latency, code = (
                        (self.lat_mul, _S_LONG_OP) if kind == K_MUL
                        else (self.lat_div, _S_LONG_OP)
                    )
                else:
                    latency, code = self.lat_alu, _S_COMPUTE
                self.ready[ix, rd] = slot + latency
                self.producer[ix, rd] = code
            self._enqueue(active, pc + 1, idx)
        elif kind == K_LOAD:
            addrs = self.R[ix, row[R_RS1]] + self._imm_u64(pc, ix)
            bad = (addrs & np.uint64(7)) != 0
            if bad.any():
                bad_addrs = addrs[bad].tolist()
                bad_lanes = idx[bad].tolist()
                for lane, addr in zip(bad_lanes, bad_addrs):
                    self.errors[lane] = (
                        "ExecutionError: misaligned 8-byte access at "
                        f"{addr:#x}"
                    )
                keep = ~bad
                idx, addrs, slot = idx[keep], addrs[keep], slot[keep]
                ix = idx
                if idx.size == 0:
                    return
            values = self.mem_image.load_words(idx, addrs)
            ready = self._data_access(idx, slot, addrs, False, pc)
            rd = row[R_RD]
            if rd != 0:
                self.R[ix, rd] = values
                self.ready[ix, rd] = ready
                self.producer[ix, rd] = _S_MEMORY
            self._enqueue(active, pc + 1, idx)
        elif kind == K_STORE:
            addrs = self.R[ix, row[R_RS1]] + self._imm_u64(pc, ix)
            bad = (addrs & np.uint64(7)) != 0
            if bad.any():
                bad_addrs = addrs[bad].tolist()
                bad_lanes = idx[bad].tolist()
                for lane, addr in zip(bad_lanes, bad_addrs):
                    self.errors[lane] = (
                        "ExecutionError: misaligned 8-byte access at "
                        f"{addr:#x}"
                    )
                keep = ~bad
                idx, addrs, slot = idx[keep], addrs[keep], slot[keep]
                ix = idx
                if idx.size == 0:
                    return
            self.mem_image.store_words(idx, addrs, self.R[ix, row[R_RS2]])
            ready = self._data_access(idx, slot, addrs, True, pc)
            np.maximum(self.S[ix, _C_LSD], ready, out=ready)
            self.S[ix, _C_LSD] = ready
            self._enqueue(active, pc + 1, idx)
        elif kind == K_PREFETCH:
            addrs = self.R[ix, row[R_RS1]] + self._imm_u64(pc, ix)
            addr_list = addrs.tolist()
            slot_list = slot.tolist()
            for j, lane in enumerate(idx.tolist()):
                hier = self.hiers[lane]
                hier.prefetch(addr_list[j], slot_list[j])
                self._refresh_l1d(lane, hier)
            self._enqueue(active, pc + 1, idx)
        elif kind == K_BRANCH:
            op = row[R_INST].op
            taken = self._cond_value(
                op, self.R[ix, row[R_RS1]], self.R[ix, row[R_RS2]]
            )
            if self.gshare:
                index = (self.history[ix] ^ pc) & self.pmask
            else:
                index = np.full(idx.size, pc & self.pmask, dtype=np.int64)
            counter = self.ptable[idx, index]
            predicted = counter >= 2
            self.ptable[idx, index] = np.where(
                taken,
                np.minimum(counter + 1, 3),
                np.maximum(counter - 1, 0),
            ).astype(np.int8)
            if self.gshare:
                self.history[ix] = (
                    (self.history[ix] << 1) | taken
                ) & self.hmask
            self.b_cond_pred[ix] += 1
            mispredicted = predicted != taken
            if mispredicted.any():
                lm = idx[mispredicted]
                self.b_cond_misp[lm] += 1
                self._advance_to(
                    lm,
                    slot[mispredicted] + self.lat_alu + self.penalty,
                    _S_BRANCH,
                )
            self._enqueue(active, row[R_TARGET], idx[taken])
            self._enqueue(active, pc + 1, idx[~taken])
        elif kind == K_JUMP:
            rd = row[R_RD]
            if rd != 0:
                self.R[ix, rd] = np.uint64(pc + 1)
                self.ready[ix, rd] = slot + 1
                self.producer[ix, rd] = _S_COMPUTE
            if Core.is_call(row[R_INST]):
                self._push_returns(idx, pc + 1)
            self._enqueue(active, row[R_TARGET], idx)
        elif kind == K_JUMP_INDIRECT:
            targets = self.R[ix, row[R_RS1]] + self._imm_u64(pc, ix)
            bad = targets >= np.uint64(self.n_insts)
            if bad.any():
                bad_targets = targets[bad].tolist()
                bad_lanes = idx[bad].tolist()
                for lane, target in zip(bad_lanes, bad_targets):
                    self.errors[lane] = (
                        f"ExecutionError: PC {target} outside program"
                    )
                keep = ~bad
                idx, targets, slot = idx[keep], targets[keep], slot[keep]
                ix = idx
                if idx.size == 0:
                    return
            inst = row[R_INST]
            mispredicted = self._resolve_indirect(
                idx, pc, targets, Core.is_return(inst)
            )
            rd = row[R_RD]
            if rd != 0:
                self.R[ix, rd] = np.uint64(pc + 1)
                self.ready[ix, rd] = slot + 1
                self.producer[ix, rd] = _S_COMPUTE
            if Core.is_call(inst):
                self._push_returns(idx, pc + 1)
            if mispredicted.any():
                self._advance_to(
                    idx[mispredicted],
                    slot[mispredicted] + self.lat_alu + self.penalty,
                    _S_BRANCH,
                )
            for target in set(targets.tolist()):
                self._enqueue(active, int(target),
                              idx[targets == np.uint64(target)])
        elif kind == K_BARRIER:
            drain = np.maximum(
                self.ready[ix].max(axis=1), self.S[ix, _C_LSD]
            )
            self._advance_to(idx, drain, _S_DRAIN)
            self._enqueue(active, pc + 1, idx)
        elif kind == K_NOP:
            self._enqueue(active, pc + 1, idx)
        else:  # pragma: no cover - exhaustiveness guard
            raise AssertionError(f"unhandled kind {kind} at PC {pc}")

    def _push_returns(self, idx: Any, return_pc: int) -> None:
        cap = self.ras_entries
        for lane in idx.tolist():
            ras = self.ras[lane]
            ras.append(return_pc)
            if len(ras) > cap:
                ras.pop(0)

    def _resolve_indirect(self, idx: Any, pc: int, targets: Any,
                          is_return: bool) -> Any:
        """Per-lane ``BranchUnit.resolve_indirect`` over the cohort;
        returns the mispredicted mask."""
        np = _np
        self.b_ind_pred[idx] += 1
        mispredicted = np.zeros(idx.size, dtype=bool)
        target_list = targets.tolist()
        key = pc & self.btb_mask
        for j, lane in enumerate(idx.tolist()):
            target = target_list[j]
            if is_return and self.ras[lane]:
                predicted = self.ras[lane].pop()
                if predicted == target:
                    self.b_ras_hits[lane] += 1
                else:
                    self.b_ras_misses[lane] += 1
                    self.b_ind_misp[lane] += 1
                    mispredicted[j] = True
                continue
            btb = self.btb[lane]
            predicted = btb.get(key)
            btb[key] = target
            if predicted != target:
                self.b_ind_misp[lane] += 1
                mispredicted[j] = True
        return mispredicted

    # -- scheduling + collection ---------------------------------------

    def run(self) -> List[TimingLaneOutcome]:
        np = _np
        active: Dict[int, Any] = {0: np.arange(self.n_lanes, dtype=np.intp)}
        while active:
            # Deepest-PC-first: lanes deep in a loop body reach the
            # back edge and pile up on the head while shallower
            # cohorts drain.
            pc = max(active)
            idx = active.pop(pc)
            self._step(active, pc, idx)
        return self._collect()

    def _collect(self) -> List[TimingLaneOutcome]:
        outcomes: List[TimingLaneOutcome] = []
        for lane in range(self.n_lanes):
            error = self.errors[lane]
            if error is not None:
                outcomes.append(TimingLaneOutcome(error=error))
                continue
            if not self.halted[lane]:  # pragma: no cover - invariant
                raise EnsembleError(
                    f"timing lane {lane} neither halted nor faulted"
                )
            outcomes.append(TimingLaneOutcome(result=self._result(lane)))
        return outcomes

    def _result(self, lane: int) -> CoreResult:
        """Assemble one lane's scalar-identical CoreResult.  Every
        numeric passes through ``int()``: numpy scalars are not Python
        ints and would poison semantic-id hashing downstream."""
        state = ArchState(
            regs=[int(value) for value in self.R[lane]],
            memory=_sparse_from_words(self.mem_image.exact_lane_words(lane)),
            pc=0,  # the scalar core never touches its ArchState.pc
        )
        stalls = {
            key: int(self.S[lane, _C_STALL + index])
            for index, key in enumerate(_STALL_KEYS)
        }
        perf = PerfCounters(
            cycles_stepped=int(self.S[lane, _C_STEP]),
            cycles_skipped=int(self.S[lane, _C_SKIP]),
            fast_forwards=int(self.S[lane, _C_FFWD]),
            stall_cycles=stalls,
        )
        total = int(self.total[lane])
        cpi_stack = dict(stalls)
        cpi_stack["busy"] = max(total - sum(stalls.values()), 0)
        branch = BranchStats(
            cond_predictions=int(self.b_cond_pred[lane]),
            cond_mispredicts=int(self.b_cond_misp[lane]),
            indirect_predictions=int(self.b_ind_pred[lane]),
            indirect_mispredicts=int(self.b_ind_misp[lane]),
            ras_hits=int(self.b_ras_hits[lane]),
            ras_misses=int(self.b_ras_misses[lane]),
        )
        hvec = self.hvec
        hierarchy = HierarchyStats(**{
            name: int(hvec[name][lane]) for name in _HIER_FIELDS
        })
        return CoreResult(
            core_name=self.config.name,
            program_name=self.programs[lane].name,
            cycles=total,
            instructions=int(self.S[lane, _C_EXEC]),
            state=state,
            extra={
                "branch": branch,
                "hierarchy": hierarchy,
                "l1d": self.l1d_arr.stats_for(lane),
                "l2": self.l2_arr.stats_for(lane),
                "cpi_stack": cpi_stack,
                "perf": perf,
            },
        )
