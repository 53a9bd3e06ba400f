"""Workload suites at standard scales.

Three scales trade fidelity for runtime:

* ``tiny``  — unit/integration tests (a few thousand dynamic instrs),
* ``small`` — examples and quick looks,
* ``bench`` — the benchmark harness behind every EXPERIMENTS.md row.

The *commercial suite* is the miss-dominated mix standing in for the
paper's OLTP/DB/app-server workloads; the *compute suite* is the
SPEC-like contrast.  Working-set sizes are chosen against the reduced
bench hierarchy (see ``repro.experiments.bench_env``) so the
commercial mix
actually misses in the L2, like the paper's workloads did on ROCK-era
caches.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.errors import ConfigError
from repro.isa.program import Program
from repro.workloads.branchy import branchy_reduce
from repro.workloads.btree import btree_lookup
from repro.workloads.hash_join import hash_join
from repro.workloads.matrix import matrix_multiply
from repro.workloads.pointer_chase import pointer_chase
from repro.workloads.streaming import array_stream, store_stream

_SCALES = ("tiny", "small", "bench")


def _scaled(tiny, small, bench):
    return {"tiny": tiny, "small": small, "bench": bench}


# name -> scale -> kwargs
_COMMERCIAL_PARAMS: Dict[str, Dict[str, dict]] = {
    "oltp-chase": _scaled(
        dict(chains=4, nodes_per_chain=64, hops=96),
        dict(chains=4, nodes_per_chain=512, hops=1024),
        dict(chains=4, nodes_per_chain=2048, hops=4096),
    ),
    "db-hashjoin": _scaled(
        dict(table_words=1 << 10, probes=192),
        dict(table_words=1 << 14, probes=1536),
        dict(table_words=1 << 16, probes=5000),
    ),
    "index-btree": _scaled(
        dict(array_words=1 << 9, lookups=48),
        dict(array_words=1 << 13, lookups=320),
        dict(array_words=1 << 15, lookups=512),
    ),
    "web-storelog": _scaled(
        dict(records=96, payload_words=6, table_words=1 << 10),
        dict(records=768, payload_words=8, table_words=1 << 14),
        dict(records=2500, payload_words=8, table_words=1 << 16),
    ),
}

_COMPUTE_PARAMS: Dict[str, Dict[str, dict]] = {
    "fp-stream": _scaled(
        dict(words=1 << 9),
        dict(words=1 << 13),
        dict(words=1 << 15),
    ),
    "int-branchy": _scaled(
        dict(iterations=192, data_words=1 << 9),
        dict(iterations=1536, data_words=1 << 13),
        dict(iterations=5000, data_words=1 << 15),
    ),
    "compute-matmul": _scaled(
        dict(n=6),
        dict(n=12),
        dict(n=20),
    ),
}

WORKLOAD_FACTORIES: Dict[str, Callable[..., Program]] = {
    "oltp-chase": pointer_chase,
    "db-hashjoin": hash_join,
    "index-btree": btree_lookup,
    "web-storelog": store_stream,
    "fp-stream": array_stream,
    "int-branchy": branchy_reduce,
    "compute-matmul": matrix_multiply,
}


def _build(params: Dict[str, Dict[str, dict]], scale: str) -> List[Program]:
    if scale not in _SCALES:
        raise ConfigError(f"unknown scale {scale!r}; pick one of {_SCALES}")
    return [
        WORKLOAD_FACTORIES[name](**kwargs_by_scale[scale])
        for name, kwargs_by_scale in params.items()
    ]


def commercial_suite(scale: str = "small") -> List[Program]:
    """The miss-dominated mix (the paper's headline workloads)."""
    return _build(_COMMERCIAL_PARAMS, scale)


def compute_suite(scale: str = "small") -> List[Program]:
    """The SPEC-like contrast workloads."""
    return _build(_COMPUTE_PARAMS, scale)


def full_suite(scale: str = "small") -> List[Program]:
    return commercial_suite(scale) + compute_suite(scale)


def suite_params(scale: str = "small") -> Dict[str, dict]:
    """Generator kwargs per workload at ``scale`` (without ``seed`` /
    ``name``), for callers that build their own parameter-varied
    instances — e.g. the timing ensemble's seed-varied lanes."""
    if scale not in _SCALES:
        raise ConfigError(f"unknown scale {scale!r}; pick one of {_SCALES}")
    merged = {**_COMMERCIAL_PARAMS, **_COMPUTE_PARAMS}
    return {name: dict(by_scale[scale]) for name, by_scale in merged.items()}
