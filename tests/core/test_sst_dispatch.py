"""The generated SST speculative loop (repro.core.sst_dispatch): the
unchecked variant production runs carries no checker hook and keeps
its inlined deferral fast paths; the checked variant, selected when a
sanitizer or taint tracker is attached, is compiled and cached apart."""

import pytest

from repro.config import CoreKind, DeferTrigger, SSTConfig
from repro.core import SSTCore, sst_dispatch
from repro.memory.hierarchy import MemoryHierarchy
from repro.workloads import full_suite
from tests.conftest import small_hierarchy_config
from tests.integration.test_golden_equivalence import machines

SST_FAMILY = [machine.sst for machine in machines()
              if machine.core_kind is CoreKind.SST] + [
    SSTConfig(scout_enabled=False),
    SSTConfig(defer_long_ops=True, defer_on_tlb_miss=False),
    SSTConfig(defer_trigger=DeferTrigger.L2_MISS, width=4),
]

# Both inlined _fast_defer copies: the NA-operand and the memory-order
# deferral.
FAST_DEFERS = (sst_dispatch._fast_defer(" " * 20, False),
               sst_dispatch._fast_defer(" " * 24, True))


def _source(config, checked):
    return sst_dispatch.loop_source(
        config, config.predictor.mispredict_penalty, checked)


@pytest.mark.parametrize("config", SST_FAMILY)
def test_unchecked_loop_is_hook_free(config):
    source = _source(config, checked=False)
    assert "taint" not in source
    assert "sanitizer" not in source
    for fast_defer in FAST_DEFERS:
        assert fast_defer in source


@pytest.mark.parametrize("config", SST_FAMILY)
def test_checked_loop_has_hooks_and_no_inlined_defer(config):
    source = _source(config, checked=True)
    assert "taint.on_ahead(inst, pc, seq, cycle)" in source
    if config.scout_enabled or config.scout_only:
        assert "taint.on_scout_na(inst, seq)" in source
        assert "taint.on_scout(inst, pc, seq, cycle)" in source
    for fast_defer in FAST_DEFERS:
        assert fast_defer not in source


def test_checked_variant_gets_its_own_cache_entry(monkeypatch):
    # A configuration no other test compiles, so both entries are new.
    config = SSTConfig(width=3)
    program = full_suite("tiny")[0]
    loops = {}
    for checked in (False, True):
        if checked:
            monkeypatch.setenv("REPRO_SANITIZE", "1")
        else:
            monkeypatch.delenv("REPRO_SANITIZE", raising=False)
        monkeypatch.delenv("REPRO_TAINT", raising=False)
        core = SSTCore(program, MemoryHierarchy(small_hierarchy_config()),
                       config)
        loops[checked] = core._spec_loop_fn
    assert loops[False] is not loops[True]
    keys = {key[-1]: key for key, loop in sst_dispatch._LOOP_CACHE.items()
            if loop in loops.values()}
    assert set(keys) == {False, True}
    assert keys[False][:-1] == keys[True][:-1]
