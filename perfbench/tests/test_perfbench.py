"""Tests of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import pathlib
import re
import shutil
import subprocess
import sys

PERFBENCH = pathlib.Path(__file__).resolve().parents[1]
ROOT = PERFBENCH.parent
sys.path.insert(0, str(PERFBENCH))

import checks  # noqa: E402
import layers  # noqa: E402
import run  # noqa: E402

SPEC = run.SPEC
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*extra: str) -> dict:
    """One short benchmark run of ``inorder-seeds``; its result line."""
    proc = subprocess.run(
        [sys.executable, str(PERFBENCH / "run.py"),
         "--workload", "inorder-seeds", "--seconds", "0", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_names_and_units_use_the_allowed_characters():
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.match(metric["name"]), metric["name"]
        assert UNIT.match(metric["unit"]), metric["unit"]


def test_every_layer_metric_names_its_end_to_end_metric_and_workload():
    end_to_end = {metric["name"] for metric in SPEC["end_to_end"]}
    notes = (PERFBENCH / "NOTES.md").read_text()
    assert set(layers.LAYER_MAP) == {m["name"] for m in SPEC["per_layer"]}
    for name, (moves, workloads) in layers.LAYER_MAP.items():
        assert moves in end_to_end, name
        assert workloads and set(workloads) <= set(run.WORKLOADS), name
        assert f"`{name}`" in notes, f"{name} missing from NOTES.md"


def test_reference_mismatch_is_a_failure():
    table = {"sst-2w-2ckpt/db-hashjoin#0": [100, 50]}
    assert checks.reference_failures(table, dict(table)) == []
    assert checks.reference_failures(
        table, {"sst-2w-2ckpt/db-hashjoin#0": [101, 50]})
    assert checks.reference_failures(table, {})


def test_self_times_subtract_children_and_counters():
    spans = [
        {"id": 0, "parent": None, "name": "bench.pass", "start": 0.0,
         "end": 10.0, "attrs": {}, "counters": {}, "error": False},
        {"id": 1, "parent": 0, "name": "core", "start": 1.0, "end": 7.0,
         "attrs": {"insts": 1000}, "counters": {"memory": [10, 2.0]},
         "error": False},
        {"id": 2, "parent": 1, "name": "isa.decode", "start": 2.0,
         "end": 3.0, "attrs": {}, "counters": {}, "error": False},
    ]
    assert layers.self_times(spans) == [4.0, 3.0, 1.0]
    values = layers.span_layers(spans)
    assert values["core.self_s"] == 3.0
    assert values["memory.self_s"] == 2.0
    assert values["memory.calls_per_inst"] == 0.01
    assert layers.self_time_total(values) <= 10.0


def test_end_to_end_run_prints_every_metric_with_its_unit():
    doc = bench("--seed", "5")
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["correct"] and doc["failed"] == 0 and doc["attempted"] > 0
    for metric in SPEC["end_to_end"]:
        printed = doc["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert printed["value"] > 0
    assert len(doc["metrics"]) == len(SPEC["end_to_end"])


def test_traced_run_prints_layers_and_self_times_fit_the_wall():
    doc = bench("--seed", "5", "--trace", "1")
    assert doc["correct"]
    assert {name: printed["unit"] for name, printed
            in doc["metrics"].items()} \
        == {metric["name"]: metric["unit"] for metric in SPEC["per_layer"]}
    trace = json.loads(
        (ROOT / run.OUT_DIR / "trace-inorder-seeds-seed5.json").read_text())
    assert trace["spans"] and len({s["run_id"] for s in trace["spans"]}) == 1
    for values in trace["pass_layers"]:
        assert 0 < layers.self_time_total(values) <= values["traced_wall"]


def test_doctored_cycle_reference_drives_failures(tmp_path):
    reference = json.loads(checks.REFERENCE.read_text())
    points = reference["workloads"]["inorder-seeds"]
    label = sorted(points)[0]
    points[label][0] += 1
    doctored = tmp_path / "reference.json"
    doctored.write_text(json.dumps(reference))
    # The reference pins the default seed's instances; it is checked on
    # every seed.
    doc = bench("--seed", "5", "--reference", str(doctored))
    assert not doc["correct"]
    assert doc["failed"] > 0
    assert doc["metrics"]["pass_frac"]["value"] < 1.0


def test_refuses_to_run_without_the_repository(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(PERFBENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "experiments-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_program_seeds_follow_the_benchmark_seed():
    from programs import program_seeds

    assert checks.DEFAULT_SEED == json.loads(
        checks.REFERENCE.read_text())["seed"]
    seeds = program_seeds(1, "db-hashjoin", 8)
    assert seeds == program_seeds(1, "db-hashjoin", 8)
    assert len(set(seeds)) == 8
    assert seeds != program_seeds(2, "db-hashjoin", 8)
