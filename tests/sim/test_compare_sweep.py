"""compare_machines, speedup_table, sweep."""

import pytest

from repro.config import (
    DRAMConfig,
    ea_machine,
    inorder_machine,
    sst_machine,
)
from repro.sim.compare import compare_machines, speedup_table
from repro.sim.sweep import sweep, sweep_many
from repro.workloads import hash_join
from tests.conftest import small_hierarchy_config

import dataclasses


@pytest.fixture(scope="module")
def program():
    return hash_join(table_words=256, probes=48)


def test_compare_machines_runs_all(program):
    results = compare_machines(
        program,
        [inorder_machine(small_hierarchy_config()),
         sst_machine(small_hierarchy_config())],
        verify=True,
    )
    assert set(results) == {"inorder-2w", "sst-2w-2ckpt"}
    assert results["sst-2w-2ckpt"].cycles < results["inorder-2w"].cycles


def test_speedup_table_renders(program):
    table = speedup_table(
        "E-test",
        [program],
        [inorder_machine(small_hierarchy_config()),
         ea_machine(small_hierarchy_config())],
        baseline_name="inorder-2w",
    )
    text = table.render()
    assert "db-hashjoin" in text
    assert "geomean" in text
    assert "x" in text


def test_speedup_table_rejects_unknown_baseline(program):
    with pytest.raises(ValueError, match="baseline"):
        speedup_table("T", [program],
                      [inorder_machine(small_hierarchy_config())],
                      baseline_name="nope")


def test_sweep_axis(program):
    def make_config(latency):
        hierarchy = dataclasses.replace(
            small_hierarchy_config(), dram=DRAMConfig(latency=latency,
                                                      min_interval=2)
        )
        return inorder_machine(hierarchy)

    results = sweep(program, [50, 400], make_config)
    assert [value for value, _ in results] == [50, 400]
    assert results[0][1].cycles < results[1][1].cycles


def test_sweep_many(program):
    other = hash_join(table_words=256, probes=24, name="db-small")
    out = sweep_many([program, other], [100],
                     lambda latency: inorder_machine(small_hierarchy_config()))
    assert set(out) == {"db-hashjoin", "db-small"}


def _corrupt_cached_regs(cache_dir):
    """Tamper with the single cached entry's register file so golden
    verification fails on load."""
    import json

    entry = next(cache_dir.glob("*.json"))
    payload = json.loads(entry.read_text())
    payload["result"]["fields"]["state"]["fields"]["regs"][2] ^= 1
    entry.write_text(json.dumps(payload))
    return entry


@pytest.mark.parametrize("on_error", ["skip", "raise"])
def test_sweep_cached_corrupt_point_is_resimulated_not_raised(
        program, tmp_path, on_error):
    """A cached-but-corrupt point must never fail the sweep by itself:
    it is quarantined and transparently re-simulated under either
    ``on_error`` mode, and the fresh result heals the cache."""
    from repro.sim.cache import ResultCache

    def make_config(latency):
        return inorder_machine(small_hierarchy_config())

    warm = sweep(program, [100], make_config,
                 cache=ResultCache(tmp_path), verify=True)
    _corrupt_cached_regs(tmp_path)

    cache = ResultCache(tmp_path)
    results = sweep(program, [100], make_config, cache=cache,
                    verify=True, on_error=on_error)
    assert [value for value, _ in results] == [100]
    assert results[0][1].cycles == warm[0][1].cycles
    assert results[0][1].state.regs == warm[0][1].state.regs
    assert cache.stats.invalid == 1  # the quarantine

    # The re-simulated result replaced the corrupt entry: a third sweep
    # is a pure cache hit with intact state.
    healed_cache = ResultCache(tmp_path)
    healed = sweep(program, [100], make_config, cache=healed_cache,
                   verify=True, on_error=on_error)
    assert healed_cache.stats.hits == 1
    assert healed_cache.stats.invalid == 0
    assert healed[0][1].state.regs == warm[0][1].state.regs
