"""The repository benchmark: end-to-end and per-layer host cost of the
SST simulator on two closed-loop workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload inorder-seeds --seed 0 \\
        --seconds 10 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``
(whose spans are also written under ``.perfbench/``).  See
``perfbench/NOTES.md`` for what each workload and metric measures.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import uuid
from typing import Any, Callable, Dict, List, Optional

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import layers  # noqa: E402
from programs import SIM_WORKLOADS  # noqa: E402
from worker import another_pass, pass_mean, pin_for_pass  # noqa: E402

# Workload and metric names and units.
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
UNITS = {metric["name"]: metric["unit"]
         for metric in SPEC["end_to_end"] + SPEC["per_layer"]}

# Fresh processes timed for setup_s (their median is reported): half
# before the timed phase and half after it, taking turns on the CPUs
# like the passes.
SETUP_RUNS = 4
# Traces, counts and the runs' temporary directories, in the checkout.
OUT_DIR = ".perfbench"

# A worker that outlives this is stuck; the whole run must end well
# inside the 180 s a run may take.
CHILD_TIMEOUT = 150.0


class BenchError(Exception):
    """The benchmark could not measure (as opposed to a failed check)."""


def child_env(root: pathlib.Path, workdir: pathlib.Path,
              smoke: bool) -> Dict[str, str]:
    """Shipped defaults: no ``REPRO_*`` knob from the caller leaks in;
    every path the simulator might write to points into ``workdir``.
    ``smoke`` sets the experiment corpus's smoke scale, as
    ``repro experiments run --smoke`` does."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(root / "src")
    env["PYTHONHASHSEED"] = "0"
    env["REPRO_CACHE_DIR"] = str(workdir / "env-cache")
    env["REPRO_RESULTS_DIR"] = str(workdir / "env-results")
    env["REPRO_BASELINE_DIR"] = str(workdir / "env-baselines")
    if smoke:
        env["REPRO_BENCH_SMOKE"] = "1"
    return env


def run_child(args: List[str], env: Dict[str, str], root: pathlib.Path,
              pass_index: Optional[int] = None) -> float:
    """Run one worker to completion, pinned to the CPU of pass
    ``pass_index`` if one is given; returns its wall seconds."""
    started = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), *args],
        cwd=root, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=CHILD_TIMEOUT, check=False,
        preexec_fn=(None if pass_index is None
                    else functools.partial(pin_for_pass, pass_index)),
    )
    wall = time.perf_counter() - started
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return wall


def measure_setup(workload: str, seed: int, env: Dict[str, str],
                  root: pathlib.Path, first: int) -> List[float]:
    """Wall seconds of half the set-up processes, pinned like passes
    ``first``, ``first + 1``, ..."""
    return [run_child(["setup", workload, str(seed)], env, root, index)
            for index in range(first, first + SETUP_RUNS // 2)]


def sim_workload(args: argparse.Namespace, env: Dict[str, str],
                 root: pathlib.Path, workdir: pathlib.Path,
                 run_id: str) -> Dict[str, Any]:
    out = workdir / "sim.json"
    run_child(["sim", args.workload, str(args.seed), str(args.seconds),
               str(args.trace), run_id, str(out), str(args.reference)],
              env, root)
    return json.loads(out.read_text())


def experiment_pass(env: Dict[str, str], root: pathlib.Path,
                    workdir: pathlib.Path, run_id: str, trace: bool,
                    index: int) -> Dict[str, Any]:
    """Pass ``index`` of the corpus in a fresh process, with an empty
    result cache and results directory of its own."""
    cache = pathlib.Path(tempfile.mkdtemp(prefix="cache-", dir=workdir))
    results = pathlib.Path(tempfile.mkdtemp(prefix="results-", dir=workdir))
    out = workdir / "pass.json"
    try:
        run_child(["experiments", str(cache), str(results),
                   "1" if trace else "0", run_id, str(out)], env, root,
                  index)
        return json.loads(out.read_text())
    finally:
        shutil.rmtree(cache, ignore_errors=True)
        shutil.rmtree(results, ignore_errors=True)


def experiment_workload(args: argparse.Namespace, env: Dict[str, str],
                        root: pathlib.Path, workdir: pathlib.Path,
                        run_id: str) -> Dict[str, Any]:
    budget = args.seconds / 2 if args.trace else args.seconds
    passes = closed_loop(functools.partial(
        experiment_pass, env, root, workdir, run_id, False), budget)
    summary: Dict[str, Any] = {
        "passes": passes,
        "rss_mb": statistics.median(p["rss_mb"] for p in passes),
        "attempted": sum(p["attempted"] for p in passes),
        "failures": [f for p in passes for f in p["failures"]],
    }
    if args.trace:
        traced = closed_loop(functools.partial(
            experiment_pass, env, root, workdir, run_id, True), budget)
        summary["attempted"] += sum(p["attempted"] for p in traced)
        summary["failures"] += [f for p in traced for f in p["failures"]]
        untraced_wall = pass_mean(passes, "wall")
        traced_wall = pass_mean(traced, "wall")
        summary["spans"] = [s for p in traced for s in p["spans"]]
        summary["pass_layers"] = [p["layers"] for p in traced]
        summary["counts"] = traced[0]["counts"]
        summary["layers"] = layers.merge_passes(
            None, summary["pass_layers"], traced[0]["counts"],
            (traced_wall - untraced_wall) / untraced_wall)
    return summary


def closed_loop(run_pass: Callable[[int], Dict[str, Any]],
                budget: float) -> List[Dict[str, Any]]:
    """Passes back to back within ``budget`` seconds of pass time;
    ``run_pass`` gets the index of the pass."""
    passes: List[Dict[str, Any]] = []
    while another_pass(passes, budget):
        passes.append(run_pass(len(passes)))
    return passes


def end_to_end(summary: Dict[str, Any], setup_s: float,
               pass_frac: float) -> Dict[str, float]:
    passes = summary["passes"]
    wall_s = pass_mean(passes, "wall")
    return {
        "wall_s": wall_s,
        "insts_per_s": passes[0]["insts"] / wall_s,
        "cpu_s": pass_mean(passes, "cpu"),
        "setup_s": setup_s,
        "peak_rss_mb": summary["rss_mb"],
        "pass_frac": pass_frac,
        "sim_ipc": passes[0]["insts"] / passes[0]["cycles"],
    }


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=checks.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=pathlib.Path,
                        default=checks.REFERENCE,
                        help="cycle reference of the default seed")
    return parser.parse_args(argv)


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    root = pathlib.Path.cwd()
    missing = [path for path in ("src/repro/__init__.py",
                                 "benchmarks/baselines")
               if not (root / path).exists()]
    if missing:
        print(f"error: run from the root of a repository checkout "
              f"(missing {', '.join(missing)})", file=sys.stderr)
        return 2
    out_dir = root / OUT_DIR
    out_dir.mkdir(parents=True, exist_ok=True)
    workdir = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    run_id = uuid.uuid4().hex
    try:
        env = child_env(root, workdir,
                        args.workload not in SIM_WORKLOADS)
        # Set-up is an end-to-end metric only; a traced run skips it.
        setups = ([] if args.trace
                  else measure_setup(args.workload, args.seed, env, root, 0))
        if args.workload in SIM_WORKLOADS:
            summary = sim_workload(args, env, root, workdir, run_id)
        else:
            summary = experiment_workload(args, env, root, workdir, run_id)
        if not args.trace:
            setups += measure_setup(args.workload, args.seed, env, root,
                                    SETUP_RUNS // 2)
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = summary["attempted"]
    failed = min(len(summary["failures"]), attempted)
    print("pass walls: " + " ".join(f"{p['wall']:.3f}"
                                    for p in summary["passes"]),
          file=sys.stderr)
    for failure in summary["failures"][:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    stem = f"{args.workload}-seed{args.seed}"
    if "digest" in summary:
        print(f"cycle digest {args.workload} seed {args.seed}: "
              f"{summary['digest']}")
    if "counts" in summary:
        (out_dir / f"counts-{stem}.json").write_text(
            json.dumps(summary["counts"], indent=1, sort_keys=True) + "\n")

    if args.trace:
        values = summary["layers"]
        trace_path = out_dir / f"trace-{stem}.json"
        trace_path.write_text(json.dumps({
            "run_id": run_id, "workload": args.workload, "seed": args.seed,
            "pass_layers": summary["pass_layers"],
            "spans": summary["spans"],
        }))
        print(f"spans written to {trace_path}")
    else:
        values = end_to_end(summary, statistics.median(setups),
                            1.0 - failed / attempted)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
