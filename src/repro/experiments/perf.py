"""Simulator-throughput snapshots and the perf regression gate.

Every core surfaces a :class:`repro.core.timing.PerfCounters` under
``CoreResult.extra["perf"]`` plus host wall-clock timing
(``wall_seconds``, insts/host-second).  This module turns those into a
*throughput snapshot*: a fixed measurement set — the paper's machines
plus the largest out-of-order comparator over the tiny suites, and one
interleaved multicore point — run uncached, with one JSON entry per
point and per-machine aggregates.

Snapshots land in ``benchmarks/results/BENCH_<tag>.json`` and are meant
to be diffed across commits: ``insts_per_host_second`` is the simulator
performance trajectory, ``skip_fraction`` / ``l1d_fastpath_fraction``
explain *why* it moved (how much of the simulated time was never
stepped, how many accesses took the single-probe hit path), and
``speedup_vs_baseline`` pins the trajectory to the committed
``benchmarks/BENCH_smoke.json`` so a speedup is a tracked number, not a
claim.

Aggregate semantics (tested in ``tests/experiments/test_perf.py``):
every ``insts_per_host_second`` rollup — per machine and for the
snapshot total — is **sum of instructions over sum of wall seconds**,
i.e. wall-time-weighted throughput.  It is *not* a mean of per-point or
per-machine rates: a machine (or program) that takes twice the host
time counts twice as much, so the total answers "how fast does the
whole suite simulate" rather than "what is the typical rate".

:func:`run_perf_smoke` (reachable as ``run_all.py --perf-smoke`` and
``repro perf report --compare-baseline``) wraps this measurement and
compares it against the committed baseline, resolved through the
results layer so it works from any cwd.
"""

from __future__ import annotations

import json
import os
import pathlib
import platform
import sys
import time
from typing import Any, Dict, List, Optional

from repro.cmp import Multicore
from repro.config import (
    SSTConfig,
    inorder_machine,
    timing_ensemble_enabled,
)
from repro.errors import ReproError
from repro.experiments.bench_env import BenchEnv
from repro.experiments.results import default_results_dir, perf_baseline_path
from repro.regress.semid import dump_stable
from repro.sim.machine import Machine
from repro.workloads import hash_join
from repro.workloads.suite import WORKLOAD_FACTORIES, suite_params

REPORT_SCHEMA = 3

# Default regression gate for run_perf_smoke (CLI flag --perf-tolerance
# in run_all.py overrides it per run).
DEFAULT_PERF_TOLERANCE = 0.30

# Minimum aggregate speedup of the N=64 batched in-order *timing*
# ensemble over lane-by-lane scalar Machine runs on its gate workload
# (see measure_timing_ensemble for why the gate is compute-matmul).
# Measured ~2.2-2.6x on the reference host.
DEFAULT_TIMING_ENSEMBLE_MIN_SPEEDUP = 2.0

# The timing-ensemble gate workload set (see measure_timing_ensemble).
DEFAULT_TIMING_WORKLOADS = ("compute-matmul",)


# ---------------------------------------------------------------------------
# Entry extraction — CoreResult -> flat JSON row.
# ---------------------------------------------------------------------------


def perf_entry(result: Any, machine: str = "",
               wall_seconds: Optional[float] = None) -> Dict[str, Any]:
    """One snapshot row for a single-core :class:`CoreResult`.

    Rates are derived from the *stored* (rounded) wall, so every rate
    in the JSON is reproducible from the JSON alone — re-dividing the
    committed ``instructions`` by the committed ``wall_seconds`` gives
    back exactly the committed ``insts_per_host_second``.
    """
    wall = round(
        wall_seconds if wall_seconds is not None else result.wall_seconds, 4
    )
    entry: Dict[str, Any] = {
        "machine": machine or result.core_name,
        "program": result.program_name,
        "cycles": result.cycles,
        "instructions": result.instructions,
        "ipc": round(result.ipc, 4),
        "wall_seconds": wall,
        "insts_per_host_second": (
            round(result.instructions / wall) if wall > 0 else None
        ),
        "sim_cycles_per_second": (
            round(result.cycles / wall) if wall > 0 else None
        ),
    }
    perf = result.extra.get("perf")
    if perf is not None:
        entry["perf"] = perf.as_dict()
    hier = result.extra.get("hierarchy")
    if hier is not None:
        entry["l1d_fastpath_fraction"] = round(
            hier.l1d_fastpath_fraction, 4
        )
    return entry


def aggregate(entries: List[Dict[str, Any]]) -> Dict[str, Any]:
    """Per-machine and whole-snapshot throughput rollups.

    All ``insts_per_host_second`` values here are **sum of
    instructions over sum of wall seconds** (wall-time-weighted), both
    per machine (over that machine's programs) and for ``total`` (over
    every machine).  ``total`` is therefore *not* the mean of the
    per-machine rates — slow machines weigh in proportionally to the
    host time they consume.

    Like :func:`perf_entry`, every rate is computed from the rounded
    wall that is actually stored (machine walls are rounded before the
    total sums them), so the committed JSON reproduces its own rates.
    """
    machines: Dict[str, Dict[str, float]] = {}
    for entry in entries:
        agg = machines.setdefault(entry["machine"], {
            "instructions": 0, "cycles": 0, "wall_seconds": 0.0,
            "cycles_stepped": 0, "cycles_skipped": 0,
        })
        agg["instructions"] += entry["instructions"]
        agg["cycles"] += entry["cycles"]
        agg["wall_seconds"] += entry["wall_seconds"]
        perf = entry.get("perf")
        if perf:
            agg["cycles_stepped"] += perf["cycles_stepped"]
            agg["cycles_skipped"] += perf["cycles_skipped"]
    total_insts = 0
    total_wall = 0.0
    for name, agg in machines.items():
        agg["wall_seconds"] = round(agg["wall_seconds"], 4)
        total_insts += agg["instructions"]
        total_wall += agg["wall_seconds"]
        agg["insts_per_host_second"] = (
            round(agg["instructions"] / agg["wall_seconds"])
            if agg["wall_seconds"] > 0 else None
        )
        seen = agg["cycles_stepped"] + agg["cycles_skipped"]
        agg["skip_fraction"] = (
            round(agg["cycles_skipped"] / seen, 4) if seen else 0.0
        )
    total_wall = round(total_wall, 4)
    return {
        "machines": machines,
        "total": {
            "instructions": total_insts,
            "wall_seconds": total_wall,
            "insts_per_host_second": (
                round(total_insts / total_wall) if total_wall > 0 else None
            ),
        },
    }


def speedup_vs_baseline(payload: Dict[str, Any],
                        baseline: Optional[Dict[str, Any]]
                        ) -> Optional[Dict[str, Any]]:
    """The tracked speedup metric: this snapshot over a baseline one.

    Returns ``{"baseline_tag", "aggregate", "machines"}`` with each
    value a throughput ratio (>1 means this snapshot is faster), or
    ``None`` when the baseline is missing/unreadable.  Machines present
    in only one snapshot are skipped.
    """
    if not isinstance(baseline, dict):
        return None
    try:
        base_agg = baseline["aggregate"]
        base_total = base_agg["total"]["insts_per_host_second"]
        base_machines = base_agg["machines"]
    except (KeyError, TypeError):
        return None
    new_agg = payload["aggregate"]
    new_total = new_agg["total"]["insts_per_host_second"]
    out: Dict[str, Any] = {
        "baseline_tag": baseline.get("tag"),
        "aggregate": (
            round(new_total / base_total, 4)
            if base_total and new_total else None
        ),
        "machines": {},
    }
    for name, agg in new_agg["machines"].items():
        base = base_machines.get(name)
        if not isinstance(base, dict):
            continue
        old_rate = base.get("insts_per_host_second")
        new_rate = agg.get("insts_per_host_second")
        if old_rate and new_rate:
            out["machines"][name] = round(new_rate / old_rate, 4)
    return out


def write_report(payload: Dict[str, Any],
                 path: Optional[pathlib.Path] = None) -> pathlib.Path:
    if path is None:
        results_dir = default_results_dir()
        results_dir.mkdir(parents=True, exist_ok=True)
        path = results_dir / f"BENCH_{payload['tag']}.json"
    path.write_text(dump_stable(payload))
    return path


# ---------------------------------------------------------------------------
# The fixed measurement set.
# ---------------------------------------------------------------------------


def measure(tag: str = "report") -> Dict[str, Any]:
    """Run the snapshot's measurement set (uncached) and collect it.

    Cached results would report the *original* run's wall clock, so the
    snapshot always simulates: every point goes straight through
    :class:`repro.sim.machine.Machine`.
    """
    env = BenchEnv(cache=None)
    hierarchy = env.hierarchy()
    configs = env.paper_machines(hierarchy) + [
        env.ooo_comparators(hierarchy)[-1]
    ]
    programs = env.commercial_suite() + env.compute_suite()

    entries: List[Dict[str, Any]] = []
    for config in configs:
        for program in programs:
            result = Machine(config).run(
                program, max_instructions=env.max_instructions
            )
            entries.append(perf_entry(result, machine=config.name))

    # One interleaved multicore point (the e17 shape, 4 cores).
    cores = 4
    cmp_programs = [
        hash_join(table_words=env.scaled(1 << 14), probes=env.scaled(600),
                  seed=seed, name=f"db-hashjoin-{seed}")
        for seed in range(cores)
    ]
    started = time.perf_counter()
    cmp_result = Multicore(
        hierarchy, [SSTConfig(checkpoints=2)] * cores, cmp_programs
    ).run(max_instructions=env.max_instructions)
    cmp_wall = round(time.perf_counter() - started, 4)
    cmp_entry = {
        "machine": f"sst-cmp{cores}",
        "program": f"db-hashjoin x{cores}",
        "cycles": cmp_result.makespan,
        "instructions": cmp_result.total_instructions,
        "ipc": round(cmp_result.aggregate_ipc, 4),
        "wall_seconds": cmp_wall,
        "insts_per_host_second": (
            round(cmp_result.total_instructions / cmp_wall)
            if cmp_wall > 0 else None
        ),
        "idle_quanta_skipped": cmp_result.idle_quanta_skipped,
    }

    # The single-core aggregate is computed before the multicore entry
    # joins the list: sst-cmp4 shares its hierarchy across cores, so its
    # wall time is not comparable with the per-machine rollups.
    single_aggregate = aggregate(entries)
    entries.append(cmp_entry)
    return {
        "schema": REPORT_SCHEMA,
        "tag": tag,
        "host": {
            "python": platform.python_version(),
            "machine": platform.machine(),
        },
        "entries": entries,
        "aggregate": single_aggregate,
        "timing_ensemble": measure_timing_ensemble(),
    }


def _select_workloads(scale: str, workloads: Optional[List[str]]
                      ) -> Dict[str, Dict[str, Any]]:
    """The ``scale`` suite narrowed to ``workloads``, validated.

    An empty selection or unknown workload names raise
    :class:`ReproError` (which the CLI maps to exit code 2) instead of
    surfacing as a bare ``KeyError`` from inside the measurement loop.
    """
    params = suite_params(scale)
    if workloads is None:
        return params
    if not workloads:
        raise ReproError("no workloads selected")
    unknown = sorted(name for name in workloads if name not in params)
    if unknown:
        raise ReproError(
            f"unknown workload(s): {', '.join(unknown)}; "
            f"available: {', '.join(sorted(params))}"
        )
    return {name: params[name] for name in workloads}


def measure_timing_ensemble(lanes: int = 64, scale: str = "tiny",
                            workloads: Optional[List[str]] = None
                            ) -> Dict[str, Any]:
    """Batched in-order *timing* ensemble vs lane-by-lane scalar runs.

    For each workload, ``lanes`` seed-varied instances run one at a
    time through scalar :class:`~repro.sim.machine.Machine` in-order
    simulations, then once through
    :func:`repro.sim.timing_ensemble.run_timing_ensemble`, with every
    lane's batched :class:`CoreResult` differentially checked
    against its scalar twin (bit-identity is the engine's contract, so
    any mismatch is a hard :class:`ReproError`, not a statistic).

    The default workload set is ``compute-matmul`` only, on purpose:
    the lockstep engine's win is the vectorized issue/ALU/L1-hit path,
    and the hit-friendly matmul kernel is representative of where
    parameter sweeps spend their time.  Miss-dominated workloads route
    most accesses through the *same* scalar miss machinery in both
    runs and sit near 1x by construction — gating on them would track
    host noise, not the vectorization.  Walls are rounded before use so
    the stored numbers reproduce the stored speedups.

    Returns ``{"available": False, "reason": ...}`` when numpy is
    missing or the engine is disabled/ineligible, so snapshots stay
    writable everywhere.
    """
    from repro.sim import timing_ensemble

    # A bad selection is the caller's error whatever the engine state.
    if workloads is None:
        workloads = list(DEFAULT_TIMING_WORKLOADS)
    params = _select_workloads(scale, workloads)

    base = {"lanes": lanes, "scale": scale}
    if not timing_ensemble.numpy_available():
        return {"available": False, "reason": "numpy not installed", **base}
    config = inorder_machine()
    if not timing_ensemble.timing_ensemble_eligible(config):
        reason = (
            "REPRO_TIMING_ENSEMBLE=0" if not timing_ensemble_enabled()
            else "sanitizer or fault-injection hooks are active"
        )
        return {"available": False, "reason": reason, **base}

    rows: Dict[str, Any] = {}
    total_insts = 0
    total_scalar = 0.0
    total_vector = 0.0
    for name, kwargs in params.items():
        programs = [
            WORKLOAD_FACTORIES[name](
                **kwargs, seed=300 + lane, name=f"{name}@lane{lane}"
            )
            for lane in range(lanes)
        ]
        started = time.perf_counter()
        scalar_results = [
            Machine(config).run(program) for program in programs
        ]
        scalar_wall = round(time.perf_counter() - started, 4)
        insts = sum(result.instructions for result in scalar_results)

        started = time.perf_counter()
        outcomes = timing_ensemble.run_timing_ensemble(config, programs)
        vector_wall = round(time.perf_counter() - started, 4)
        for outcome, scalar in zip(outcomes, scalar_results):
            # pragma-free differential guard: equality covers cycles,
            # architectural state and the full extra payload
            # (wall_seconds is excluded from CoreResult equality).
            if outcome.result != scalar:
                raise ReproError(
                    "timing ensemble diverged from the scalar in-order "
                    f"core on {scalar.program_name!r}"
                )

        total_insts += insts
        total_scalar += scalar_wall
        total_vector += vector_wall
        rows[name] = {
            "instructions": insts,
            "scalar_wall_seconds": scalar_wall,
            "ensemble_wall_seconds": vector_wall,
            "speedup": (
                round(scalar_wall / vector_wall, 4) if vector_wall > 0
                else None
            ),
        }

    return {
        "available": True,
        "backend": "numpy",
        "machine": config.name,
        **base,
        "workloads": rows,
        "aggregate": {
            "instructions": total_insts,
            "scalar_insts_per_host_second": (
                round(total_insts / total_scalar) if total_scalar > 0
                else None
            ),
            "ensemble_insts_per_host_second": (
                round(total_insts / total_vector) if total_vector > 0
                else None
            ),
            "speedup": (
                round(total_scalar / total_vector, 4) if total_vector > 0
                else None
            ),
        },
    }


def load_baseline(path: Optional[pathlib.Path] = None
                  ) -> Optional[Dict[str, Any]]:
    """The committed baseline snapshot, or None when absent/corrupt."""
    if path is None:
        path = perf_baseline_path()
    try:
        loaded = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError):
        return None
    return loaded if isinstance(loaded, dict) else None


def render(payload: Dict[str, Any]) -> str:
    """Human-readable summary of one snapshot."""
    lines = [f"perf snapshot [{payload['tag']}]",
             f"{'machine':<16s} {'insts/host-sec':>14s} "
             f"{'skip%':>7s} {'wall s':>8s}"]
    for name, agg in sorted(payload["aggregate"]["machines"].items()):
        rate = agg["insts_per_host_second"]
        lines.append(
            f"{name:<16s} {rate if rate is not None else '-':>14} "
            f"{agg['skip_fraction'] * 100:>6.1f}% "
            f"{agg['wall_seconds']:>8.2f}"
        )
    total = payload["aggregate"]["total"]
    lines.append(
        f"{'TOTAL':<16s} "
        f"{total['insts_per_host_second'] or '-':>14} {'':>7s} "
        f"{total['wall_seconds']:>8.2f}"
    )
    speedup = payload.get("speedup_vs_baseline")
    if speedup and speedup.get("aggregate"):
        lines.append(
            f"speedup vs baseline [{speedup.get('baseline_tag')}]: "
            f"{speedup['aggregate']:.2f}x aggregate"
        )
    tens = payload.get("timing_ensemble")
    if isinstance(tens, dict):
        if tens.get("available"):
            agg = tens["aggregate"]
            rate = agg["ensemble_insts_per_host_second"]
            lines.append(
                f"timing ensemble N={tens['lanes']} ({tens['scale']}): "
                f"{rate if rate is not None else '-'} insts/host-sec, "
                f"{agg['speedup']:.2f}x vs scalar"
            )
        else:
            lines.append(
                f"timing ensemble: unavailable "
                f"({tens.get('reason', 'unknown')})"
            )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# The --perf-smoke regression gate.
# ---------------------------------------------------------------------------


def run_perf_smoke(tolerance: float = DEFAULT_PERF_TOLERANCE,
                   baseline_path: Optional[pathlib.Path] = None,
                   timing_min_speedup: float = (
                       DEFAULT_TIMING_ENSEMBLE_MIN_SPEEDUP)
                   ) -> int:
    """Measure simulator throughput (tiny scale) against the committed
    ``BENCH_smoke.json`` baseline.

    The fresh snapshot always replaces the file — ``git diff`` shows the
    trajectory, and committing it records a new baseline.  The previous
    (committed) numbers are read *before* the overwrite; the written
    snapshot embeds ``speedup_vs_baseline`` against them, and the run
    fails if aggregate insts/host-second dropped by more than
    ``tolerance`` (a fraction: 0.30 fails on a >30% regression).

    When the snapshot carries an available timing-ensemble section,
    its aggregate batched-vs-scalar speedup is additionally gated
    against ``timing_min_speedup`` (an absolute floor, not a baseline
    ratio — the scalar reference is re-measured in the same run, which
    cancels out host speed).
    """
    os.environ["REPRO_BENCH_SMOKE"] = "1"
    if baseline_path is None:
        baseline_path = perf_baseline_path()

    baseline = load_baseline(baseline_path)
    payload = measure(tag="smoke")
    speedup = speedup_vs_baseline(payload, baseline)
    if speedup is not None:
        payload["speedup_vs_baseline"] = speedup
    print(render(payload))
    write_report(payload, baseline_path)
    print(f"wrote {baseline_path}")

    status = 0
    tens = payload.get("timing_ensemble") or {}
    if tens.get("available"):
        t_speedup = tens["aggregate"]["speedup"]
        if t_speedup is not None and t_speedup < timing_min_speedup:
            print(f"FAIL: timing-ensemble aggregate speedup "
                  f"{t_speedup:.2f}x is below the "
                  f"{timing_min_speedup:.2f}x floor", file=sys.stderr)
            status = 1

    if baseline is None:
        print("no committed baseline found; snapshot recorded, "
              "nothing to compare")
        return status
    if speedup is None or speedup["aggregate"] is None:
        print("committed baseline is unreadable; snapshot recorded")
        return status
    ratio = speedup["aggregate"]
    old = baseline["aggregate"]["total"]["insts_per_host_second"]
    new = payload["aggregate"]["total"]["insts_per_host_second"]
    print(f"throughput vs committed baseline: {ratio:.2f}x "
          f"({old} -> {new} insts/host-sec)")
    if ratio < 1.0 - tolerance:
        print(f"FAIL: simulator throughput regressed more than "
              f"{tolerance:.0%} vs the committed baseline",
              file=sys.stderr)
        return 1
    return status
