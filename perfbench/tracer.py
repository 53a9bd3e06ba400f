"""Span tracing of the simulator, installed from outside the package.

:class:`Tracer` wraps the public entry point of each layer of the
``repro`` package in a span (name, start, end, parent span, run id).
The hottest boundaries -- the memory hierarchy's ``data_access``,
``ifetch`` and ``prefetch`` and the branch unit's predictor calls -- are
recorded as a call count plus total time under the enclosing span,
not one span per call.  Spans stay in memory until the caller asks for
them.

Nothing in ``repro`` is edited: :meth:`Tracer.install` replaces the
functions and methods on their modules and classes (including every
``from x import y`` binding of a wrapped function inside ``repro``) and
:meth:`Tracer.uninstall` puts the originals back.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

# Span name -> (module, qualified attribute) of the wrapped entry point.
SPAN_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("analysis.lint", "repro.analysis.proglint", "lint_program"),
    ("isa.decode", "repro.isa.blockcache", "get_block_program"),
    ("core", "repro.core.sst_core", "SSTCore.run"),
    ("baselines.inorder", "repro.baselines.inorder", "InOrderCore.run"),
    ("baselines.ooo", "repro.baselines.ooo.ooo_core", "OoOCore.run"),
    ("sim.runner", "repro.sim.parallel", "ParallelRunner.run_outcomes"),
    ("sim.ensemble", "repro.sim.timing_ensemble", "run_timing_ensemble"),
    ("sim.cache_load", "repro.sim.cache", "ResultCache.load"),
    ("sim.cache_store", "repro.sim.cache", "ResultCache.store"),
    ("cmp.run", "repro.cmp.multicore", "Multicore.run"),
    ("regress.observe", "repro.regress.firewall",
     "BaselineFirewall.observe_point"),
    ("regress.observe", "repro.regress.firewall",
     "BaselineFirewall.observe_ensemble"),
    ("regress.observe", "repro.regress.firewall",
     "BaselineFirewall.observe_multicore"),
    ("regress.observe", "repro.regress.firewall",
     "BaselineFirewall.observe_experiment"),
    ("regress.semid", "repro.regress.semid", "semantic_id"),
    ("regress.semid", "repro.regress.semid", "digest_material"),
    ("regress.semid", "repro.sim.cache", "result_key"),
    ("experiments.engine", "repro.experiments.engine", "ExperimentEngine.run"),
    ("experiments.write", "repro.experiments.results", "write_result_doc"),
)

# Counter group -> (module, qualified attribute) of each counted call.
COUNTER_POINTS: Tuple[Tuple[str, str, str], ...] = (
    ("memory", "repro.memory.hierarchy", "MemoryHierarchy.data_access"),
    ("memory", "repro.memory.hierarchy", "MemoryHierarchy.ifetch"),
    ("memory", "repro.memory.hierarchy", "MemoryHierarchy.prefetch"),
    ("branch", "repro.branch.predictors", "BranchUnit.predict_cond"),
    ("branch", "repro.branch.predictors", "BranchUnit.resolve_cond"),
    ("branch", "repro.branch.predictors", "BranchUnit.resolve_deferred_cond"),
    ("branch", "repro.branch.predictors", "BranchUnit.predict_indirect"),
    ("branch", "repro.branch.predictors", "BranchUnit.resolve_indirect"),
    ("branch", "repro.branch.predictors",
     "BranchUnit.resolve_deferred_indirect"),
    ("branch", "repro.branch.predictors", "BranchUnit.push_return"),
)

WORKLOAD_SPAN = "workloads.build"


class Span:
    """One traced interval; ``attrs`` holds per-span counts (simulated
    instructions, batched lanes, cache hits, ...)."""

    __slots__ = ("sid", "parent", "name", "start", "end", "attrs",
                 "counters", "error")

    def __init__(self, sid: int, parent: Optional[int], name: str,
                 start: float):
        self.sid = sid
        self.parent = parent
        self.name = name
        self.start = start
        self.end = start
        self.attrs: Dict[str, int] = {}
        # group -> [calls, seconds] spent directly under this span.
        self.counters: Dict[str, List[float]] = {}
        self.error = False

    def as_dict(self, run_id: str) -> Dict[str, Any]:
        return {
            "run_id": run_id,
            "id": self.sid,
            "parent": self.parent,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
            "counters": {group: list(value)
                         for group, value in self.counters.items()},
            "error": self.error,
        }


def _resolve(module_name: str, qualname: str) -> Tuple[Any, str, Any]:
    """(owner object, attribute name, current value) of an entry point."""
    __import__(module_name)
    owner: Any = sys.modules[module_name]
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr, owner.__dict__[attr]


def _span_attrs(name: str, args: Tuple[Any, ...], result: Any,
                span: Span) -> None:
    """Per-span counts taken from the wrapped call's arguments/result."""
    if name in ("core", "baselines.inorder", "baselines.ooo"):
        span.attrs["insts"] = result.instructions
    elif name == "cmp.run":
        span.attrs["insts"] = result.total_instructions
    elif name == "sim.ensemble":
        span.attrs["lanes"] = len(args[1])
        span.attrs["insts"] = sum(lane.result.instructions
                                  for lane in result
                                  if lane.result is not None)
    elif name == "sim.runner":
        from repro.config import CoreKind

        span.attrs["inorder_tasks"] = sum(
            1 for task in args[1]
            if task.config.core_kind is CoreKind.INORDER
        )
    elif name == "sim.cache_load":
        span.attrs["hit"] = int(result is not None)


class Tracer:
    """Collects spans and counters for one benchmark run."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: List[Span] = []
        self._stack: List[Span] = []
        self._patches: List[Tuple[Any, str, Any]] = []
        # Counter group -> call depth, so nested calls of one group
        # (data_access issuing a prefetch) are timed once.
        self._depth: Dict[str, int] = {}

    # -- spans ----------------------------------------------------------

    def begin(self, name: str) -> Span:
        parent = self._stack[-1].sid if self._stack else None
        span = Span(len(self.spans), parent, name, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        popped = self._stack.pop()
        if popped is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.error = True
                raise
            finally:
                tracer.end(span)
            _span_attrs(name, args, result, span)
            return result

        return traced

    def _counter_wrapper(self, group: str, fn: Callable) -> Callable:
        stack = self._stack
        depth = self._depth
        depth.setdefault(group, 0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if depth[group]:
                counters = stack[-1].counters if stack else None
                if counters is not None:
                    counters.setdefault(group, [0, 0.0])[0] += 1
                return fn(*args, **kwargs)
            depth[group] = 1
            started = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - started
                depth[group] = 0
                if stack:
                    entry = stack[-1].counters.setdefault(group, [0, 0.0])
                    entry[0] += 1
                    entry[1] += elapsed

        return counted

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every entry point; idempotent per tracer."""
        if self._patches:
            return
        for name, module, qualname in SPAN_POINTS:
            owner, attr, original = _resolve(module, qualname)
            self._replace(owner, attr, original,
                          self._span_wrapper(name, original))
        for group, module, qualname in COUNTER_POINTS:
            owner, attr, original = _resolve(module, qualname)
            self._replace(owner, attr, original,
                          self._counter_wrapper(group, original))
        from repro.workloads import suite

        for workload, factory in list(suite.WORKLOAD_FACTORIES.items()):
            wrapped = self._span_wrapper(WORKLOAD_SPAN, factory)
            self._patches.append((suite.WORKLOAD_FACTORIES, workload,
                                  factory))
            suite.WORKLOAD_FACTORIES[workload] = wrapped
            self._rebind(factory, wrapped)

    def _replace(self, owner: Any, attr: str, original: Any,
                 wrapped: Callable) -> None:
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapped)
        if isinstance(owner, type):
            return
        self._rebind(original, wrapped)

    def _rebind(self, original: Any, wrapped: Callable) -> None:
        """Point every ``repro`` module-level name bound to ``original``
        (``from x import f``) at ``wrapped`` too."""
        for module_name, module in list(sys.modules.items()):
            if module is None or not module_name.startswith("repro"):
                continue
            for name, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, name, original))
                    setattr(module, name, wrapped)

    def uninstall(self) -> None:
        """Restore every original, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- output ---------------------------------------------------------

    def span_dicts(self) -> List[Dict[str, Any]]:
        return [span.as_dict(self.run_id) for span in self.spans]
