"""Measurement child processes of the benchmark (see ``run.py``).

``python3 perfbench/worker.py setup WORKLOAD SEED``
    imports, experiment-registry load and (for the simulation
    workload) program generation, then exits: the work every
    invocation pays.
``python3 perfbench/worker.py sim WORKLOAD SEED SECONDS TRACE RUN_ID OUT
REFERENCE``
    one process running closed-loop passes of a simulation workload.
``python3 perfbench/worker.py experiments CACHE RESULTS TRACE RUN_ID OUT``
    one pass of the smoke experiment corpus in a fresh process, with
    the baseline firewall verifying.
``python3 perfbench/worker.py reference``
    rewrites ``reference.json`` from the current simulator.

Each measuring command writes one JSON document to ``OUT``.
"""

from __future__ import annotations

import json
import os
import pathlib
import resource
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

import checks
import layers
import programs as programs_mod
from programs import SIM_WORKLOADS
from tracer import Tracer

BASELINE_DIR = pathlib.Path("benchmarks") / "baselines"
# The CPUs this process may run on, read before any pass is pinned.
CPUS = sorted(os.sched_getaffinity(0))


def cpu_seconds() -> float:
    """CPU seconds of this process and its waited-for children."""
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def another_pass(passes: List[Dict[str, Any]], budget: float) -> bool:
    """Whether the closed loop starts one more pass: always a first
    one, then only while the last pass would still end inside
    ``budget`` seconds of measured pass time."""
    if not passes:
        return True
    spent = sum(p["wall"] for p in passes)
    return spent + passes[-1]["wall"] <= budget


def pin_for_pass(index: int) -> None:
    """Pin the calling process to the CPU whose turn pass ``index`` is.
    Each core of the host slows down on its own (see NOTES.md), so
    passes take turns on every core and a run's mean covers them all."""
    os.sched_setaffinity(0, {CPUS[index % len(CPUS)]})


def pass_mean(passes: List[Dict[str, Any]], key: str) -> float:
    """Mean of ``key`` ("wall" or "cpu" seconds) over ``passes``."""
    return sum(p[key] for p in passes) / len(passes)


def write_out(path: str, doc: Dict[str, Any]) -> None:
    pathlib.Path(path).write_text(json.dumps(doc))


# -- setup ---------------------------------------------------------------


def cmd_setup(workload: str, seed: int) -> None:
    import repro  # noqa: F401 - the import cost is what is measured
    from repro.experiments import list_specs

    list_specs()
    if workload in SIM_WORKLOADS:
        programs_mod.build_programs(workload, seed)


# -- simulation workloads ------------------------------------------------


def run_pass(machines: list,
             programs: list) -> Tuple[List[checks.Point], List[str]]:
    """One closed-loop pass: (labelled results, error messages)."""
    from repro.sim.parallel import ParallelRunner, SimTask

    points: List[checks.Point] = []
    errors: List[str] = []
    tasks = [SimTask(config=machine, program=program)
             for program in programs for machine in machines]
    for outcome in ParallelRunner(1, cache=None).run_outcomes(tasks):
        if not outcome.ok:
            errors.append(f"{outcome.task.label}: {outcome.error}")
        points.append((outcome.task.label, outcome.result))
    return points, errors


def timed_pass(machines: list, programs: list
               ) -> Tuple[Dict[str, float], List[checks.Point], List[str]]:
    cpu0 = cpu_seconds()
    wall0 = time.perf_counter()
    points, errors = run_pass(machines, programs)
    wall = time.perf_counter() - wall0
    cpu = cpu_seconds() - cpu0
    insts = sum(r.instructions for _, r in points if r is not None)
    cycles = sum(r.cycles for _, r in points if r is not None)
    return ({"wall": wall, "cpu": cpu, "insts": insts, "cycles": cycles},
            points, errors)


def _differ(points: List[checks.Point],
            first: List[Tuple[Any, ...]]) -> List[str]:
    """Labels whose result differs from the first pass's."""
    return [f"{now[0]}: differs between passes"
            for now, then in zip(checks.fingerprint(points), first)
            if now != then]


def cmd_sim(workload: str, seed: int, seconds: float, trace: bool,
            run_id: str, out: str, reference: str) -> None:
    tracer = Tracer(run_id) if trace else None
    build_layers: Optional[Dict[str, float]] = None
    if tracer is not None:
        tracer.install()
        root = tracer.begin("bench.build")
        machines, programs = programs_mod.build_programs(workload, seed)
        tracer.end(root)
        tracer.uninstall()
        build_layers = layers.span_layers(tracer.span_dicts())
    else:
        machines, programs = programs_mod.build_programs(workload, seed)

    # A first, untimed pass warms up what the simulator builds lazily
    # (decoded block programs, the ensemble's arrays).  Only its results
    # are checked in full; the timed passes are compared with its
    # fingerprint, so the peak memory does not depend on how many fit.
    points, failures = run_pass(machines, programs)
    failures.extend(checks.golden_failures(points, programs))
    table = checks.cycle_table(points)
    counts = layers.empty_counts()
    for _, result in points:
        if result is not None:
            layers.add_counts(counts, result)
    first = checks.fingerprint(points)
    del points
    attempted = len(first)

    budget = seconds / 2 if trace else seconds
    passes: List[Dict[str, float]] = []
    while another_pass(passes, budget):
        pin_for_pass(len(passes))
        stats, points, errors = timed_pass(machines, programs)
        passes.append(stats)
        failures.extend(errors)
        failures.extend(_differ(points, first))
        del points
        attempted += len(first)

    traced: List[Dict[str, float]] = []
    pass_layers: List[Dict[str, float]] = []
    if tracer is not None:
        tracer.install()
        try:
            while another_pass(traced, budget):
                pin_for_pass(len(traced))
                mark = len(tracer.spans)
                root = tracer.begin("bench.pass")
                stats, points, errors = timed_pass(machines, programs)
                tracer.end(root)
                traced.append(stats)
                failures.extend(errors)
                failures.extend(_differ(points, first))
                del points
                attempted += len(first)
                pass_layers.append(
                    layers.span_layers(tracer.span_dicts()[mark:]))
                pass_layers[-1]["traced_wall"] = root.end - root.start
        finally:
            tracer.uninstall()

    digest = checks.cycle_digest(table)
    rss_mb = peak_rss_mb()
    # Cycles and instructions of the default seed's instances are checked
    # against the reference on every seed; on another seed they are
    # simulated once more for it, outside the timed phase.
    if seed != checks.DEFAULT_SEED:
        machines, programs = programs_mod.build_programs(
            workload, checks.DEFAULT_SEED)
        points, errors = run_pass(machines, programs)
        failures.extend(errors)
        attempted += len(points)
        table = checks.cycle_table(points)
        del points
    expected = checks.load_reference(pathlib.Path(reference), workload)
    failures.extend(checks.reference_failures(table, expected or {}))

    doc: Dict[str, Any] = {
        "passes": passes,
        "rss_mb": rss_mb,
        "attempted": attempted,
        "failures": failures,
        "digest": digest,
        "counts": counts,
    }
    if tracer is not None:
        untraced = pass_mean(passes, "wall")
        with_trace = pass_mean(traced, "wall")
        doc["spans"] = tracer.span_dicts()
        doc["pass_layers"] = pass_layers
        doc["layers"] = layers.merge_passes(
            build_layers, pass_layers, counts,
            (with_trace - untraced) / untraced)
    write_out(out, doc)


# -- experiment workloads ------------------------------------------------


def cmd_experiments(cache_dir: str, results_dir: str, trace: bool,
                    run_id: str, out: str) -> None:
    from repro.experiments import ExperimentEngine, list_specs
    from repro.experiments.bench_env import BenchEnv
    from repro.regress.firewall import BaselineFirewall
    from repro.regress.store import BaselineStore
    from repro.sim.cache import ResultCache

    specs = list_specs()
    firewall = BaselineFirewall(BaselineStore(BASELINE_DIR), mode="verify",
                                strict=False)
    engine = ExperimentEngine(
        smoke=True, jobs=1, cache=ResultCache(cache_dir),
        results_dir=pathlib.Path(results_dir), firewall=firewall,
    )
    tracer = Tracer(run_id) if trace else None
    counts = layers.empty_counts()
    original_record = BenchEnv._record
    if tracer is not None:
        tracer.install()

        def record(env, task, result):
            layers.add_counts(counts, result)
            return original_record(env, task, result)

        BenchEnv._record = record
        root = tracer.begin("bench.pass")

    docs = []
    errors: List[str] = []
    cpu0 = cpu_seconds()
    wall0 = time.perf_counter()
    for spec in specs:
        try:
            docs.append(engine.run(spec))
        except Exception:  # noqa: BLE001 - one failure must not stop the pass
            errors.append(f"{spec.name}: "
                          f"{traceback.format_exc().splitlines()[-1]}")
    wall = time.perf_counter() - wall0
    cpu = cpu_seconds() - cpu0

    doc: Dict[str, Any] = {}
    if tracer is not None:
        tracer.end(root)
        tracer.uninstall()
        BenchEnv._record = original_record
        spans = tracer.span_dicts()
        doc["spans"] = spans
        doc["layers"] = layers.span_layers(spans)
        doc["layers"]["traced_wall"] = root.end - root.start
        doc["counts"] = counts

    # Points of a timing model (functional-ensemble points carry no
    # cycle count and are left out).
    timed = [point for d in docs for point in d["points"]
             if isinstance(point["cycles"], int)]
    insts = sum(point["instructions"] for point in timed)
    cycles = sum(point["cycles"] for point in timed)
    failures = list(errors)
    attempted = len(specs)
    failures.extend(d.summary() for d in firewall.divergences)
    attempted += firewall.stats.observed
    doc.update({
        "wall": wall, "cpu": cpu, "insts": insts, "cycles": cycles,
        "rss_mb": peak_rss_mb(), "attempted": attempted,
        "failures": failures,
    })
    write_out(out, doc)


# -- reference capture ---------------------------------------------------


def cmd_reference(path: str) -> None:
    """Rewrite the committed cycle reference for the default seed."""
    doc = {"seed": checks.DEFAULT_SEED, "workloads": {}}
    for workload in SIM_WORKLOADS:
        machines, programs = programs_mod.build_programs(
            workload, checks.DEFAULT_SEED)
        points, errors = run_pass(machines, programs)
        if errors:
            raise SystemExit(f"reference run failed: {errors[:3]}")
        doc["workloads"][workload] = checks.cycle_table(points)
    pathlib.Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True)
                                  + "\n")


def main(argv: List[str]) -> None:
    command, args = argv[0], argv[1:]
    if command == "setup":
        cmd_setup(args[0], int(args[1]))
    elif command == "sim":
        cmd_sim(args[0], int(args[1]), float(args[2]), args[3] == "1",
                args[4], args[5], args[6])
    elif command == "experiments":
        cmd_experiments(args[0], args[1], args[2] == "1", args[3], args[4])
    elif command == "reference":
        cmd_reference(args[0] if args else str(checks.REFERENCE))
    else:
        raise SystemExit(f"unknown worker command {command!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
