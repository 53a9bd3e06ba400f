"""Seed-varied inputs of the simulation workload.

The benchmark seed picks the generator seed of every program instance;
the simulator only ever receives the generated programs.
"""

from __future__ import annotations

import random
from typing import List, Tuple

SIM_WORKLOADS = ("inorder-seeds",)
# inorder-seeds: 64 same-shape instances per suite workload, the lane
# count of the repository's own timing-ensemble perf gate and the default
# ensemble chunk width.  Batched time per pass hardly depends on the lane
# count (it is paid per lockstep step), so the scale is chosen to fit
# many passes in a run: at ``small`` one pass takes 9 s with 2 lanes
# and 14 s with 16; at ``tiny`` 1.1 s with 2, 1.3 s with 16 and 2.4 s
# with 64 (see NOTES.md).
INORDER_SCALE = "tiny"
INORDER_LANES = 64


def program_seeds(seed: int, workload: str, count: int) -> List[int]:
    """``count`` distinct generator seeds for ``workload``, fixed by
    the benchmark ``seed``."""
    rng = random.Random(f"perfbench:{seed}:{workload}")
    return rng.sample(range(1, 1 << 30), count)


def build_programs(workload: str, seed: int) -> Tuple[list, list]:
    """(machine configs, programs) of a simulation workload."""
    from repro.config import inorder_machine
    from repro.workloads import suite

    if workload not in SIM_WORKLOADS:
        raise ValueError(f"not a simulation workload: {workload}")
    params = suite.suite_params(INORDER_SCALE)
    programs = []
    for name in params:
        for index, program_seed in enumerate(
                program_seeds(seed, name, INORDER_LANES)):
            programs.append(suite.WORKLOAD_FACTORIES[name](
                seed=program_seed, name=f"{name}#{index}", **params[name]))
    return [inorder_machine()], programs
