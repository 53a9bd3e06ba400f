"""Set-associative tag store with true-LRU replacement.

The cache models *tags only* — data always lives in the architectural
:class:`~repro.memory.sparse_memory.SparseMemory`; what the timing model
needs from a cache is hit/miss decisions, replacement behaviour, and
dirty-line writeback counts.  Write policy is write-back,
write-allocate.

Per-line state is a small int bitmask (dirty / prefetched) rather than
a dict: the lookup path runs once per simulated memory access across
every core model, so it stays allocation-free.
"""

from __future__ import annotations

import dataclasses
import functools
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

from repro.config import CacheConfig
from repro.errors import SimulatorInvariantError

# numpy backs the lane-batched probe path only; scalar Cache never needs
# it.  It is imported when the first LaneCacheArray is built, so
# importing the simulator pays no numpy start-up.
_np: Any = None


@functools.lru_cache(maxsize=None)
def load_numpy() -> Any:
    """The numpy module, imported on the first call, or None when it
    is not installed (numpy is the optional ``ensemble`` extra)."""
    try:
        import numpy
    except ImportError:
        return None
    return numpy

# Line-flag bits.
DIRTY = 1
PREFETCHED = 2


@dataclasses.dataclass
class CacheStats:
    accesses: int = 0
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    prefetch_fills: int = 0
    # Hits on lines that were brought in by a prefetch and not yet
    # touched by demand — "useful prefetches".
    prefetch_hits: int = 0

    @property
    def miss_rate(self) -> float:
        return self.misses / self.accesses if self.accesses else 0.0


class Cache:
    """One level of tags.  Addresses are byte addresses."""

    def __init__(self, config: CacheConfig, name: str = "cache"):
        self.config = config
        self.name = name
        self.stats = CacheStats()
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        # set index -> OrderedDict(line -> flag bits); LRU at the front.
        self._sets: List[OrderedDict] = [
            OrderedDict() for _ in range(config.num_sets)
        ]

    # ------------------------------------------------------------------
    # Address helpers.
    # ------------------------------------------------------------------

    def line_addr(self, addr: int) -> int:
        """Line-aligned address (the unit all internal maps use)."""
        return addr >> self._line_shift << self._line_shift

    def _locate(self, line: int) -> Tuple[OrderedDict, int]:
        set_index = (line >> self._line_shift) & self._set_mask
        return self._sets[set_index], line

    # ------------------------------------------------------------------
    # Operations.
    # ------------------------------------------------------------------

    def lookup(self, addr: int, *, update_lru: bool = True,
               count: bool = True) -> bool:
        """Hit test; moves the line to MRU on hit when ``update_lru``."""
        shift = self._line_shift
        index = addr >> shift
        line = index << shift
        cache_set = self._sets[index & self._set_mask]
        hit = line in cache_set
        if count:
            stats = self.stats
            stats.accesses += 1
            if hit:
                stats.hits += 1
                flags = cache_set[line]
                if flags & PREFETCHED:
                    stats.prefetch_hits += 1
                    cache_set[line] = flags & ~PREFETCHED
            else:
                stats.misses += 1
        if hit and update_lru:
            cache_set.move_to_end(line)
        return hit

    def contains(self, addr: int) -> bool:
        """Hit test with no side effects (no LRU update, no stats)."""
        cache_set, line = self._locate(self.line_addr(addr))
        return line in cache_set

    def fill(self, addr: int, *, prefetched: bool = False) -> Optional[int]:
        """Install a line; returns the evicted dirty line address (for a
        writeback) or None.  Filling a present line refreshes LRU."""
        cache_set, line = self._locate(self.line_addr(addr))
        if line in cache_set:
            cache_set.move_to_end(line)
            return None
        victim_writeback = None
        if len(cache_set) >= self.config.assoc:
            victim, flags = cache_set.popitem(last=False)
            self.stats.evictions += 1
            if flags & DIRTY:
                self.stats.writebacks += 1
                victim_writeback = victim
        cache_set[line] = PREFETCHED if prefetched else 0
        if prefetched:
            self.stats.prefetch_fills += 1
        return victim_writeback

    def mark_dirty(self, addr: int) -> None:
        cache_set, line = self._locate(self.line_addr(addr))
        flags = cache_set.get(line)
        if flags is None:
            raise SimulatorInvariantError(
                f"{self.name}: mark_dirty on absent line {line:#x}"
            )
        cache_set[line] = flags | DIRTY

    def invalidate(self, addr: int) -> None:
        cache_set, line = self._locate(self.line_addr(addr))
        cache_set.pop(line, None)

    # ------------------------------------------------------------------
    # Introspection (tests, invariants).
    # ------------------------------------------------------------------

    def resident_lines(self) -> List[int]:
        return [line for cache_set in self._sets for line in cache_set]

    def set_occupancy(self) -> Dict[int, int]:
        return {index: len(s) for index, s in enumerate(self._sets) if s}

    def check_invariants(self) -> None:
        """Structural invariants; raises on violation (used by tests)."""
        seen = set()
        for index, cache_set in enumerate(self._sets):
            if len(cache_set) > self.config.assoc:
                raise SimulatorInvariantError(
                    f"{self.name}: set {index} over-full"
                )
            for line in cache_set:
                if line in seen:
                    raise SimulatorInvariantError(
                        f"{self.name}: line {line:#x} in two sets"
                    )
                seen.add(line)
                expected = (line >> self._line_shift) & self._set_mask
                if expected != index:
                    raise SimulatorInvariantError(
                        f"{self.name}: line {line:#x} in wrong set {index}"
                    )


# ---------------------------------------------------------------------------
# Lane-axis tag store for the timing ensemble.
# ---------------------------------------------------------------------------


class LaneCacheArray:
    """N independent same-geometry caches, structure-of-arrays over the
    lane axis.

    This is :class:`Cache` rehosted for lane-batched timing simulation
    (:mod:`repro.sim.timing_ensemble`): tags, valid bits, flag bits and
    an LRU stamp live in ``(lanes, sets, assoc)`` numpy matrices, so a
    cohort of lanes probing in lockstep resolves every hit/miss with a
    handful of vector ops (:meth:`probe_lanes`) instead of one
    ``OrderedDict`` walk per lane.  Per-lane *scalar* methods
    (``lookup_lane`` / ``fill_lane`` / ...) mirror :class:`Cache`
    exactly for the slow paths (misses, merges, prefetch fills) that
    stay lane-at-a-time.

    LRU equivalence: each (lane, set) keeps a strictly increasing stamp
    per resident way, refreshed on every insert and MRU touch from a
    per-lane clock.  Ascending stamp order is exactly the scalar
    ``OrderedDict`` order, so ``argmin(stamp)`` evicts the same victim
    ``popitem(last=False)`` would — the per-lane behavior (stats
    included) is bit-identical to N scalar :class:`Cache` instances by
    construction, and ``tests/memory/test_lane_cache.py`` enforces it
    against randomized op sequences.
    """

    def __init__(self, config: CacheConfig, lanes: int,
                 name: str = "cache"):
        global _np  # the vector methods below read the module binding
        _np = load_numpy()
        if _np is None:  # pragma: no cover - numpy-less installs
            raise SimulatorInvariantError(
                "LaneCacheArray requires numpy (the 'ensemble' extra)"
            )
        self.config = config
        self.name = name
        self.lanes = lanes
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.num_sets - 1
        sets, assoc = config.num_sets, config.assoc
        shape = (lanes, sets, assoc)
        self.tags = _np.zeros(shape, dtype=_np.uint64)
        self.valid = _np.zeros(shape, dtype=bool)
        self.flags = _np.zeros(shape, dtype=_np.uint8)
        self.stamp = _np.zeros(shape, dtype=_np.int64)
        self._clock = _np.zeros(lanes, dtype=_np.int64)
        # Python sidecars for the per-lane scalar paths: a line -> way
        # residency dict per lane (membership changes only in
        # fill_lane; the vectorized commit path only moves LRU stamps)
        # and a per-(lane, set) occupancy count.  Valid bits are never
        # cleared and fills take the lowest free way, so the valid ways
        # of a set are always a prefix and ``occupancy`` doubles as the
        # next free way index.
        self._where: List[Dict[int, int]] = [{} for _ in range(lanes)]
        self._occ = _np.zeros((lanes, sets), dtype=_np.int32)
        # Whether any fill has ever installed a PREFETCHED line: until
        # one has, batched hit commits can skip the flag byte entirely.
        self._prefetch_seen = False
        # One (lanes,) vector per CacheStats field.
        self.accesses = _np.zeros(lanes, dtype=_np.int64)
        self.hits = _np.zeros(lanes, dtype=_np.int64)
        self.misses = _np.zeros(lanes, dtype=_np.int64)
        self.evictions = _np.zeros(lanes, dtype=_np.int64)
        self.writebacks = _np.zeros(lanes, dtype=_np.int64)
        self.prefetch_fills = _np.zeros(lanes, dtype=_np.int64)
        self.prefetch_hits = _np.zeros(lanes, dtype=_np.int64)

    # -- address helpers ----------------------------------------------

    def line_addr(self, addr: int) -> int:
        return addr >> self._line_shift << self._line_shift

    def line_addr_lanes(self, addrs: Any) -> Any:
        """Vectorized :meth:`line_addr` over a uint64 address vector."""
        shift = _np.uint64(self._line_shift)
        return (addrs >> shift) << shift

    # -- the batched probe path ---------------------------------------

    def probe_lanes(self, lane_idx: Any, lines: Any) -> Tuple[Any, Any, Any]:
        """Side-effect-free hit test for one cohort.

        ``lane_idx`` is an intp vector of distinct lanes, ``lines`` the
        matching uint64 *line* addresses.  Returns ``(hit_mask,
        set_idx, way_idx)``; ``way_idx`` is only meaningful where
        ``hit_mask`` holds.  No stats, no LRU motion — pair with
        :meth:`commit_hit_lanes` for the lanes that take the vectorized
        hit path, and the scalar lane methods for the rest, so each
        access is counted exactly once.
        """
        sets = ((lines >> _np.uint64(self._line_shift))
                & _np.uint64(self._set_mask)).astype(_np.intp)
        rows_tag = self.tags[lane_idx, sets]       # (k, assoc)
        rows_valid = self.valid[lane_idx, sets]
        match = rows_valid & (rows_tag == lines[:, None])
        return match.any(axis=1), sets, match.argmax(axis=1)

    def commit_hit_lanes(self, lane_idx: Any, sets: Any, ways: Any, *,
                         mark_dirty: bool = False) -> None:
        """Apply the bookkeeping of a counted, LRU-updating lookup hit
        (plus optional store dirtying) to cohort lanes at once —
        exactly what ``Cache.lookup(addr)`` then ``mark_dirty`` would
        do per lane."""
        self.accesses[lane_idx] += 1
        self.hits[lane_idx] += 1
        if self._prefetch_seen:
            flags = self.flags[lane_idx, sets, ways]
            was_prefetched = (flags & PREFETCHED) != 0
            if was_prefetched.any():
                self.prefetch_hits[lane_idx[was_prefetched]] += 1
                flags = flags & _np.uint8(~PREFETCHED & 0xFF)
            if mark_dirty:
                flags = flags | _np.uint8(DIRTY)
            self.flags[lane_idx, sets, ways] = flags
        elif mark_dirty:
            # No PREFETCHED bit can be set anywhere, so the hit's only
            # flag effect is dirtying (lanes are distinct, so the
            # gather-or-scatter form of |= is exact).
            self.flags[lane_idx, sets, ways] |= _np.uint8(DIRTY)
        self._clock[lane_idx] += 1
        self.stamp[lane_idx, sets, ways] = self._clock[lane_idx]

    def count_miss_lanes(self, lane_idx: Any) -> None:
        """The counting half of a missing ``Cache.lookup`` for cohort
        lanes whose miss handling is otherwise vectorized."""
        self.accesses[lane_idx] += 1
        self.misses[lane_idx] += 1

    # -- exact scalar per-lane operations (slow paths) ----------------

    def _find_way(self, lane: int, set_index: int, line: int) -> int:
        """Resident way of ``line`` in (lane, set), or -1."""
        way = self._where[lane].get(line)
        return -1 if way is None else way

    def lookup_lane(self, lane: int, addr: int, *, update_lru: bool = True,
                    count: bool = True) -> bool:
        line = self.line_addr(addr)
        way = self._where[lane].get(line)
        hit = way is not None
        if count:
            self.accesses[lane] += 1
            if hit:
                set_index = (line >> self._line_shift) & self._set_mask
                self.hits[lane] += 1
                flags = int(self.flags[lane, set_index, way])
                if flags & PREFETCHED:
                    self.prefetch_hits[lane] += 1
                    self.flags[lane, set_index, way] = flags & ~PREFETCHED
            else:
                self.misses[lane] += 1
        if hit and update_lru:
            set_index = (line >> self._line_shift) & self._set_mask
            clock = int(self._clock[lane]) + 1
            self._clock[lane] = clock
            self.stamp[lane, set_index, way] = clock
        return hit

    def contains_lane(self, lane: int, addr: int) -> bool:
        return self.line_addr(addr) in self._where[lane]

    def fill_lane(self, lane: int, addr: int, *,
                  prefetched: bool = False) -> Optional[int]:
        line = self.line_addr(addr)
        set_index = (line >> self._line_shift) & self._set_mask
        where = self._where[lane]
        way = where.get(line)
        if way is not None:
            clock = int(self._clock[lane]) + 1
            self._clock[lane] = clock
            self.stamp[lane, set_index, way] = clock
            return None
        victim_writeback = None
        occupancy = int(self._occ[lane, set_index])
        if occupancy >= self.config.assoc:
            stamps = self.stamp[lane, set_index]
            way = int(stamps.argmin())
            self.evictions[lane] += 1
            if int(self.flags[lane, set_index, way]) & DIRTY:
                self.writebacks[lane] += 1
                victim_writeback = int(self.tags[lane, set_index, way])
            del where[int(self.tags[lane, set_index, way])]
        else:
            way = occupancy
            self._occ[lane, set_index] = occupancy + 1
        self.tags[lane, set_index, way] = line
        self.valid[lane, set_index, way] = True
        self.flags[lane, set_index, way] = PREFETCHED if prefetched else 0
        clock = int(self._clock[lane]) + 1
        self._clock[lane] = clock
        self.stamp[lane, set_index, way] = clock
        where[line] = way
        if prefetched:
            self.prefetch_fills[lane] += 1
            self._prefetch_seen = True
        return victim_writeback

    def mark_dirty_lane(self, lane: int, addr: int) -> None:
        line = self.line_addr(addr)
        way = self._where[lane].get(line)
        if way is None:
            raise SimulatorInvariantError(
                f"{self.name}: mark_dirty on absent line {line:#x}"
            )
        set_index = (line >> self._line_shift) & self._set_mask
        self.flags[lane, set_index, way] |= _np.uint8(DIRTY)

    # -- collection ----------------------------------------------------

    def stats_for(self, lane: int) -> CacheStats:
        """This lane's :class:`CacheStats` (vector + scalar paths
        combined — both update the same per-lane counters)."""
        return CacheStats(
            accesses=int(self.accesses[lane]),
            hits=int(self.hits[lane]),
            misses=int(self.misses[lane]),
            evictions=int(self.evictions[lane]),
            writebacks=int(self.writebacks[lane]),
            prefetch_fills=int(self.prefetch_fills[lane]),
            prefetch_hits=int(self.prefetch_hits[lane]),
        )


class LaneCacheView:
    """One lane of a :class:`LaneCacheArray`, duck-typed as a
    :class:`Cache`.

    Injected into a per-lane :class:`~repro.memory.hierarchy.Hierarchy`
    so the *scalar* miss/merge/prefetch machinery runs unmodified
    against the shared lane-axis tag matrices — the slow path and the
    vectorized fast path see one tag store by construction.
    """

    __slots__ = ("_array", "_lane", "config", "name")

    def __init__(self, array: LaneCacheArray, lane: int):
        self._array = array
        self._lane = lane
        self.config = array.config
        self.name = array.name

    def line_addr(self, addr: int) -> int:
        return self._array.line_addr(addr)

    def lookup(self, addr: int, *, update_lru: bool = True,
               count: bool = True) -> bool:
        return self._array.lookup_lane(
            self._lane, addr, update_lru=update_lru, count=count
        )

    def contains(self, addr: int) -> bool:
        return self._array.contains_lane(self._lane, addr)

    def fill(self, addr: int, *, prefetched: bool = False) -> Optional[int]:
        return self._array.fill_lane(self._lane, addr, prefetched=prefetched)

    def mark_dirty(self, addr: int) -> None:
        self._array.mark_dirty_lane(self._lane, addr)

    @property
    def stats(self) -> CacheStats:
        return self._array.stats_for(self._lane)
