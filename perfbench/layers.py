"""Per-layer metrics: the layer -> metric -> workload map, and their
derivation from traced spans plus the modelled-component counts.

Every per-layer ``_s`` metric is a *self* time: a span's duration minus
the time its child spans and its counted hot calls cover.  Self times
of different layers never overlap, so their sum never exceeds the
traced wall time of the pass they were measured in.
"""

from __future__ import annotations

import statistics
from typing import (Any, Dict, Iterable, List, Mapping, Optional,
                    Sequence, Tuple)

from programs import SIM_WORKLOADS

# Per-layer metric -> (end-to-end metric it should move, workloads where
# that layer does most of its work).  Names, units and directions are in
# BENCHMARK.json.
INORDER = SIM_WORKLOADS
COLD = ("experiments-cold",)
ALL = INORDER + COLD

LAYER_MAP: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "workloads.build_s": ("setup_s", INORDER),
    "analysis.lint_s": ("setup_s", INORDER),
    "analysis.lint_calls": ("setup_s", INORDER),
    "isa.decode_s": ("wall_s", COLD),
    "isa.decode_calls": ("wall_s", COLD),
    # The SST machines run on experiments-cold only.
    "core.self_s": ("insts_per_s", COLD),
    "core.ns_per_inst": ("insts_per_s", COLD),
    "core.spec_useful_frac": ("sim_ipc", COLD),
    "core.replay_per_inst": ("sim_ipc", COLD),
    # Batched in-order lanes never enter InOrderCore.run; their cost
    # shows under sim.ensemble_s.
    "baselines.inorder_ns_per_inst": ("wall_s", COLD),
    "baselines.ooo_ns_per_inst": ("wall_s", COLD),
    # The hierarchy and predictor calls are counted where scalar cores
    # make them.  The timing ensemble serves L1 hits and predicts
    # branches vectorized, calling the hierarchy only for its misses.
    "memory.calls_per_inst": ("insts_per_s", COLD),
    "memory.self_s": ("insts_per_s", COLD),
    "memory.ns_per_call": ("insts_per_s", COLD),
    "memory.l1d_fastpath_frac": ("insts_per_s", ALL),
    "memory.dram_frac": ("sim_ipc", ALL),
    "branch.calls_per_inst": ("insts_per_s", COLD),
    "branch.self_s": ("insts_per_s", COLD),
    "branch.accuracy": ("sim_ipc", ALL),
    "sim.ensemble_s": ("insts_per_s", INORDER),
    "sim.ensemble_lane_frac": ("insts_per_s", INORDER),
    "sim.ensemble_fallbacks": ("insts_per_s", INORDER),
    "sim.runner_self_s": ("wall_s", COLD),
    "sim.cache_store_s": ("wall_s", COLD),
    "sim.cache_store_calls": ("wall_s", COLD),
    "sim.cache_load_s": ("wall_s", COLD),
    "sim.cache_hit_frac": ("wall_s", COLD),
    "cmp.run_s": ("wall_s", COLD),
    "regress.observe_s": ("wall_s", COLD),
    "regress.observe_calls": ("wall_s", COLD),
    "regress.semid_s": ("wall_s", COLD),
    "experiments.engine_self_s": ("wall_s", COLD),
    "experiments.write_s": ("wall_s", COLD),
    "trace.overhead_frac": ("wall_s", ALL),
}

# Metrics of the program-build phase, traced once per run.
BUILD_METRICS = ("workloads.build_s", "analysis.lint_s",
                 "analysis.lint_calls")

CORE_SPANS = ("core", "baselines.inorder", "baselines.ooo",
              "sim.ensemble", "cmp.run")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def self_times(spans: Sequence[Mapping[str, Any]]) -> List[float]:
    """Self time of each span (indexed like ``spans``): its duration
    minus its children's durations and its counted calls' time."""
    index = {span["id"]: position for position, span in enumerate(spans)}
    result = []
    for span in spans:
        own = span["end"] - span["start"]
        own -= sum(seconds for _, seconds in span["counters"].values())
        result.append(own)
    for span in spans:
        parent = span["parent"]
        if parent is not None:
            result[index[parent]] -= span["end"] - span["start"]
    return result


def span_layers(spans: Sequence[Mapping[str, Any]]) -> Dict[str, float]:
    """Time and call metrics of one traced pass (or build phase)."""
    selfs = self_times(spans)
    by_name: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    attrs: Dict[str, int] = {}
    counters: Dict[str, List[float]] = {}
    errors: Dict[str, int] = {}
    for span, own in zip(spans, selfs):
        name = span["name"]
        by_name[name] = by_name.get(name, 0.0) + own
        calls[name] = calls.get(name, 0) + 1
        errors[name] = errors.get(name, 0) + int(span["error"])
        for key, value in span["attrs"].items():
            attrs[f"{name}.{key}"] = attrs.get(f"{name}.{key}", 0) + value
        for group, (count, seconds) in span["counters"].items():
            entry = counters.setdefault(group, [0, 0.0])
            entry[0] += count
            entry[1] += seconds

    def insts(name: str) -> int:
        return attrs.get(f"{name}.insts", 0)

    sim_insts = sum(insts(name) for name in CORE_SPANS)
    memory_calls, memory_s = counters.get("memory", [0, 0.0])
    branch_calls, branch_s = counters.get("branch", [0, 0.0])
    return {
        "workloads.build_s": by_name.get("workloads.build", 0.0),
        "analysis.lint_s": by_name.get("analysis.lint", 0.0),
        "analysis.lint_calls": calls.get("analysis.lint", 0),
        "isa.decode_s": by_name.get("isa.decode", 0.0),
        "isa.decode_calls": calls.get("isa.decode", 0),
        "core.self_s": by_name.get("core", 0.0),
        "core.ns_per_inst": 1e9 * _ratio(by_name.get("core", 0.0),
                                         insts("core")),
        "baselines.inorder_ns_per_inst": 1e9 * _ratio(
            by_name.get("baselines.inorder", 0.0),
            insts("baselines.inorder")),
        "baselines.ooo_ns_per_inst": 1e9 * _ratio(
            by_name.get("baselines.ooo", 0.0), insts("baselines.ooo")),
        "memory.calls_per_inst": _ratio(memory_calls, sim_insts),
        "memory.self_s": memory_s,
        "memory.ns_per_call": 1e9 * _ratio(memory_s, memory_calls),
        "branch.calls_per_inst": _ratio(branch_calls, sim_insts),
        "branch.self_s": branch_s,
        "sim.ensemble_s": by_name.get("sim.ensemble", 0.0),
        "sim.ensemble_lane_frac": _ratio(
            attrs.get("sim.ensemble.lanes", 0),
            attrs.get("sim.runner.inorder_tasks", 0)),
        "sim.ensemble_fallbacks": errors.get("sim.ensemble", 0),
        "sim.runner_self_s": by_name.get("sim.runner", 0.0),
        "sim.cache_store_s": by_name.get("sim.cache_store", 0.0),
        "sim.cache_store_calls": calls.get("sim.cache_store", 0),
        "sim.cache_load_s": by_name.get("sim.cache_load", 0.0),
        "sim.cache_hit_frac": _ratio(attrs.get("sim.cache_load.hit", 0),
                                     calls.get("sim.cache_load", 0)),
        "cmp.run_s": by_name.get("cmp.run", 0.0),
        "regress.observe_s": by_name.get("regress.observe", 0.0),
        "regress.observe_calls": calls.get("regress.observe", 0),
        "regress.semid_s": by_name.get("regress.semid", 0.0),
        "experiments.engine_self_s": by_name.get("experiments.engine", 0.0),
        "experiments.write_s": by_name.get("experiments.write", 0.0),
    }


def self_time_total(layers: Mapping[str, float]) -> float:
    """Sum of every per-layer self time in one pass's metrics."""
    return sum(value for name, value in layers.items()
               if name.endswith("_s") and name in LAYER_MAP)


# -- modelled-component counts ------------------------------------------------


def empty_counts() -> Dict[str, int]:
    return {
        "results": 0, "instructions": 0, "cycles": 0,
        "sst_instructions": 0, "committed_spec_insts": 0,
        "discarded_insts": 0, "replay_insts": 0,
        "demand_accesses": 0, "fastpath_l1d": 0, "demand_dram": 0,
        "cond_predictions": 0, "cond_mispredicts": 0,
    }


def add_counts(counts: Dict[str, int], result: Any) -> None:
    """Fold one ``CoreResult``'s hierarchy, SST and predictor stats
    into ``counts``."""
    counts["results"] += 1
    counts["instructions"] += result.instructions
    counts["cycles"] += result.cycles
    extra = result.extra
    sst = extra.get("sst")
    if sst is not None:
        counts["sst_instructions"] += result.instructions
        counts["committed_spec_insts"] += sst.committed_spec_insts
        counts["discarded_insts"] += sst.discarded_insts
        counts["replay_insts"] += sst.replay_insts
    hierarchy = extra.get("hierarchy")
    if hierarchy is not None:
        counts["demand_accesses"] += hierarchy.demand_accesses
        counts["fastpath_l1d"] += hierarchy.fastpath_l1d
        counts["demand_dram"] += hierarchy.demand_dram
    branch = extra.get("branch")
    if branch is not None:
        counts["cond_predictions"] += branch.cond_predictions
        counts["cond_mispredicts"] += branch.cond_mispredicts


def count_layers(counts: Mapping[str, int]) -> Dict[str, float]:
    """The exact per-layer metrics derived from modelled counts."""
    spec = counts["committed_spec_insts"] + counts["discarded_insts"]
    predictions = counts["cond_predictions"]
    return {
        "core.spec_useful_frac": _ratio(counts["committed_spec_insts"], spec),
        "core.replay_per_inst": _ratio(counts["replay_insts"],
                                       counts["sst_instructions"]),
        "memory.l1d_fastpath_frac": _ratio(counts["fastpath_l1d"],
                                           counts["demand_accesses"]),
        "memory.dram_frac": _ratio(counts["demand_dram"],
                                   counts["demand_accesses"]),
        "branch.accuracy": (
            1.0 - _ratio(counts["cond_mispredicts"], predictions)
            if predictions else 0.0),
    }


def merge_passes(build: Optional[Mapping[str, float]],
                 passes: Iterable[Mapping[str, float]],
                 counts: Mapping[str, int],
                 overhead_frac: float) -> Dict[str, float]:
    """One value per per-layer metric: the build/lint numbers of the
    separately traced build phase (``build``; None when programs are
    built inside each pass), the median over traced passes of every
    other span metric, the exact count metrics, and the tracing
    overhead."""
    passes = list(passes)
    merged: Dict[str, float] = {}
    for name in passes[0]:
        if build is not None and name in BUILD_METRICS:
            merged[name] = build[name]
        else:
            merged[name] = statistics.median(p[name] for p in passes)
    merged.update(count_layers(counts))
    merged["trace.overhead_frac"] = overhead_frac
    return {name: merged[name] for name in LAYER_MAP}
