"""Simulation driving: build a machine from a config, run programs,
verify against the golden model, sweep parameters, compare cores —
in parallel and with content-addressed result caching."""

from repro.sim.cache import (
    FsckReport,
    ResultCache,
    ResultCacheStats,
    SIM_SCHEMA_VERSION,
    cache_from_env,
    result_key,
)
from repro.sim.compare import compare_machines, speedup_table
from repro.sim.faults import FaultPlan, fault_plan_from_env, parse_fault_spec
from repro.sim.machine import Machine, build_core, build_hierarchy
from repro.sim.parallel import (
    ParallelRunner,
    SimTask,
    SimTaskError,
    TaskOutcome,
    resolve_jobs,
    run_simulations,
)
from repro.sim.resilience import (
    KIND_CACHE_CORRUPT,
    KIND_POOL_TIMEOUT,
    KIND_TASK_ERROR,
    KIND_WORKER_CRASH,
    TRANSIENT_KINDS,
    RetryPolicy,
    resolve_retries,
)
from repro.sim.runner import simulate, verify_against_golden
from repro.sim.sweep import sweep, sweep_many
from repro.sim.timing_ensemble import (
    TimingLaneOutcome,
    run_timing_ensemble,
    timing_ensemble_eligible,
)

__all__ = [
    "build_core",
    "build_hierarchy",
    "cache_from_env",
    "compare_machines",
    "fault_plan_from_env",
    "FaultPlan",
    "FsckReport",
    "KIND_CACHE_CORRUPT",
    "KIND_POOL_TIMEOUT",
    "KIND_TASK_ERROR",
    "KIND_WORKER_CRASH",
    "Machine",
    "ParallelRunner",
    "parse_fault_spec",
    "resolve_jobs",
    "resolve_retries",
    "result_key",
    "ResultCache",
    "ResultCacheStats",
    "RetryPolicy",
    "run_simulations",
    "run_timing_ensemble",
    "SIM_SCHEMA_VERSION",
    "SimTask",
    "SimTaskError",
    "simulate",
    "speedup_table",
    "sweep",
    "sweep_many",
    "TaskOutcome",
    "timing_ensemble_eligible",
    "TimingLaneOutcome",
    "TRANSIENT_KINDS",
    "verify_against_golden",
]
