"""The ``repro`` command-line interface.

Installed as a console script (``pyproject.toml [project.scripts]``)
and equally runnable as ``python -m repro``.  Subcommands:

``repro experiments list [--tag TAG] [--json]``
    Show every registered experiment (id, tags, title).

``repro experiments run [IDS...] [--all] [--smoke] [--jobs N] ...``
    Run experiments through the
    :class:`~repro.experiments.engine.ExperimentEngine`.  Each one
    writes its text table and schema-versioned JSON result document
    under ``benchmarks/results/`` (cwd-independent — the directory is
    resolved through :mod:`repro.experiments.results`).  ``--jobs N``
    overlaps N whole experiments in worker processes; workers run
    their own simulations single-threaded to avoid nested pools.

``repro experiments report [IDS...] [--json]``
    Summarize stored result documents: mode, wall time, point count,
    and which expectation predicates held.

``repro perf report [--tag TAG] [--out PATH] [--smoke] [--json]
[--compare-baseline] [--tolerance FRAC]``
    Take a simulator-throughput snapshot (``BENCH_<tag>.json``) via
    :mod:`repro.experiments.perf`.  When a committed baseline
    (``benchmarks/BENCH_smoke.json``) exists, the snapshot embeds a
    ``speedup_vs_baseline`` section; ``--compare-baseline`` turns that
    comparison into a regression gate (exit 1 when aggregate
    insts/host-second drops by more than ``--tolerance``).

``repro ensemble bench [--lanes N] [--scale S] [--workloads ...]
[--backend numpy|python] [--json]``
    Measure the vectorized lockstep-ensemble backend
    (:mod:`repro.sim.ensemble`) against the scalar golden interpreter
    over seed-varied lane batches of the workload suite, reporting
    per-workload and aggregate insts/host-second and speedup.

``repro baseline capture|verify|promote|retire|diff|list``
    Drive the behavioral baseline firewall (:mod:`repro.regress`).
    ``capture`` runs the experiment corpus (documents are *not*
    written) and records every simulation's behavior into the governed
    store at ``benchmarks/baselines/``; ``verify`` re-runs the corpus
    and exits 1 on any divergence from a stored baseline — after an
    intentional behavior change, ``capture`` followed by an explicit
    ``promote`` is the only green path.  ``diff`` shows pending
    (captured-but-unpromoted) behavior changes; ``list`` shows the
    store's governance state.

``repro cache stats|fsck|clear [--cache-dir DIR]``
    Maintain the content-addressed simulation result cache
    (``benchmarks/.simcache/`` / ``REPRO_CACHE_DIR``): show on-disk
    usage, scan-and-repair integrity problems (key-vs-content
    mismatches, schema-stale entries, corrupt payloads, orphan
    ``.tmp-*`` files from interrupted stores), or wipe it.  ``stats``
    also summarizes the baseline store; ``fsck`` additionally scans
    baseline records and cross-checks them against live cache entries
    (baseline problems are reported, never auto-repaired).

``repro lint [NAMES...] [--all] [--pickle PATH] [--dead-stores]
[--json]``
    Run the static verifier (:mod:`repro.analysis.proglint`) and the
    speculative-leak taint pass (:mod:`repro.analysis.taint`) over
    registered workloads (suite + analysis gadgets) or a pickled
    :class:`~repro.isa.program.Program`.  Exit 1 when any diagnostic
    is reported.

``repro fuzz [--max-examples N] [--out PATH]``
    Drive the differential program fuzzer
    (:mod:`repro.workloads.fuzz`): random proglint-clean programs
    through every core variant and the ensemble backend, checked
    against the golden interpreter (with ``REPRO_SANITIZE=1`` and
    ``REPRO_TAINT=1`` the SST variants run the checked loop).  A
    divergence is
    shrunk to a minimal program, printed, optionally written as a JSON
    artifact, and exits 1.

Expectation failures are *reported* but do not fail a run by default:
at smoke scale the qualitative shapes are indicative only.  Pass
``--strict-expectations`` (sensible at full scale) to turn them into
a non-zero exit.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import pathlib
import sys
import time
import traceback
from typing import Any, Dict, List, Optional, Tuple

from repro.config import ConfigError, env_int
from repro.errors import ReproError
from repro.experiments import (
    ExperimentEngine,
    ResultSchemaError,
    default_results_dir,
    get,
    list_specs,
    load_result_doc,
    perf_baseline_path,
)
from repro.experiments.spec import ExperimentLookupError
from repro.sim.cache import ResultCache


def _select_specs(ids: List[str], run_all: bool, tag: Optional[str] = None):
    """Resolve id arguments (``e3``, ``e8,e9``, ``e4_dq_size``) to specs."""
    specs = list_specs()
    if tag:
        specs = [spec for spec in specs if tag in spec.tags]
    if run_all or not ids:
        return specs
    tokens: List[str] = []
    for argument in ids:
        tokens.extend(token.strip() for token in argument.split(",")
                      if token.strip())
    chosen = []
    seen = set()
    for token in tokens:
        spec = get(token)
        if spec.eid not in seen:
            seen.add(spec.eid)
            chosen.append(spec)
    return chosen


# ---------------------------------------------------------------------------
# experiments run
# ---------------------------------------------------------------------------


def _run_one_worker(payload: Tuple[str, Dict[str, Any]]):
    """Pool worker: run one experiment, never raise."""
    eid, engine_kwargs = payload
    # No nested pools inside a worker: the experiment's own simulation
    # batches run inline.
    os.environ["REPRO_JOBS"] = "1"
    started = time.perf_counter()
    try:
        doc = ExperimentEngine(**engine_kwargs).run(eid)
        failed = [outcome["name"] for outcome in doc["expectations"]
                  if not outcome["passed"]]
        return eid, time.perf_counter() - started, None, failed
    except Exception:  # noqa: BLE001 — one experiment must not kill the run
        return eid, time.perf_counter() - started, \
            traceback.format_exc(), []


def _cmd_run(args: argparse.Namespace) -> int:
    if args.sanitize:
        os.environ["REPRO_SANITIZE"] = "1"
        args.smoke = True
        args.no_cache = True
    # Workers inherit the smoke flag through the environment too, so
    # anything that consults REPRO_BENCH_SMOKE (e.g. workload suites
    # invoked out-of-engine) agrees with the engine setting.
    if args.smoke:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    if args.no_cache:
        os.environ["REPRO_CACHE"] = "0"
    if args.max_instructions is not None:
        os.environ["REPRO_BENCH_MAX_INSTRUCTIONS"] = \
            str(args.max_instructions)

    try:
        specs = _select_specs(args.ids, args.all, args.tag)
    except ExperimentLookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not specs:
        print("error: no experiments selected", file=sys.stderr)
        return 2

    engine_kwargs: Dict[str, Any] = {
        "smoke": bool(args.smoke) or None,
        "max_instructions": args.max_instructions,
        "jobs": None,
        "results_dir": args.results_dir,
        "echo": bool(args.echo),
    }
    if args.no_cache:
        engine_kwargs["cache"] = None

    jobs = args.jobs
    if jobs is None:
        try:
            jobs = env_int("REPRO_JOBS", 1)
        except ConfigError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    if jobs <= 0:
        jobs = multiprocessing.cpu_count()
    jobs = min(jobs, len(specs))

    mode = "smoke" if args.smoke else "full"
    sanitize_note = ", sanitize=on" if args.sanitize else ""
    print(f"running {len(specs)} experiments ({mode} scale, "
          f"jobs={jobs}, cache={'off' if args.no_cache else 'on'}"
          f"{sanitize_note})")

    payloads = [(spec.eid, engine_kwargs) for spec in specs]
    started = time.perf_counter()
    if jobs > 1:
        context = multiprocessing.get_context("fork")
        with context.Pool(processes=jobs) as pool:
            reports = pool.map(_run_one_worker, payloads)
    else:
        reports = [_run_one_worker(payload) for payload in payloads]
    total = time.perf_counter() - started

    errors = []
    expectation_misses = []
    for (eid, seconds, error, failed), spec in zip(reports, specs):
        if error:
            status = "FAIL"
            errors.append((spec.name, error))
        elif failed:
            status = "SHAPE"
            expectation_misses.append((spec.name, failed))
        else:
            status = "ok"
        note = f"  ({', '.join(failed)})" if failed else ""
        print(f"  {status:5s} {spec.name:26s} {seconds:7.2f}s{note}")
    print(f"total: {total:.2f}s wall for {len(specs)} experiments")

    for name, error in errors:
        print(f"\n--- {name} failed ---\n{error}", file=sys.stderr)
    if expectation_misses:
        print(f"{len(expectation_misses)} experiment(s) missed "
              f"expectations ({mode} scale"
              f"{'; indicative only' if args.smoke else ''})")
    if args.sanitize and not errors:
        print("sanitize: zero invariant violations across "
              f"{len(specs)} experiments")
    if errors:
        return 1
    if args.strict_expectations and expectation_misses:
        return 1
    return 0


# ---------------------------------------------------------------------------
# experiments list / report
# ---------------------------------------------------------------------------


def _cmd_list(args: argparse.Namespace) -> int:
    specs = _select_specs([], True, args.tag)
    if args.json:
        print(json.dumps([
            {"id": spec.eid, "name": spec.name, "title": spec.title,
             "tags": list(spec.tags),
             "expectations": [e.name for e in spec.expectations]}
            for spec in specs
        ], indent=2))
        return 0
    for spec in specs:
        tags = ",".join(spec.tags)
        print(f"{spec.eid:>4s}  {spec.name:26s} [{tags}]  {spec.title}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        specs = _select_specs(args.ids, not args.ids, None)
    except ExperimentLookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    results_dir = args.results_dir or default_results_dir()
    missing = 0
    for spec in specs:
        try:
            doc = load_result_doc(spec.name, results_dir)
        except ResultSchemaError as exc:
            print(f"{spec.eid:>4s}  {spec.name:26s} -- {exc}")
            missing += 1
            continue
        failed = [outcome["name"] for outcome in doc["expectations"]
                  if not outcome["passed"]]
        status = "ok" if doc["ok"] else "SHAPE"
        note = f"  failed: {', '.join(failed)}" if failed else ""
        print(f"{spec.eid:>4s}  {spec.name:26s} {status:5s} "
              f"{doc['mode']:5s} {doc['wall_seconds']:8.2f}s "
              f"{len(doc['points']):3d} points{note}")
        if args.tables:
            print()
            print(doc["table"]["rendered"])
            print()
    return 1 if missing else 0


# ---------------------------------------------------------------------------
# perf report
# ---------------------------------------------------------------------------


def _cmd_perf_report(args: argparse.Namespace) -> int:
    # Imported here, not at module top: a snapshot pulls in the whole
    # workload/machine stack, which `repro experiments list` etc. never
    # need.
    from repro.experiments import perf

    tolerance = (args.tolerance if args.tolerance is not None
                 else perf.DEFAULT_PERF_TOLERANCE)
    if args.smoke:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    baseline = perf.load_baseline()
    payload = perf.measure(tag=args.tag)
    speedup = perf.speedup_vs_baseline(payload, baseline)
    if speedup is not None:
        payload["speedup_vs_baseline"] = speedup
    path = perf.write_report(
        payload, pathlib.Path(args.out) if args.out else None
    )
    if args.json:
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(perf.render(payload))
        print(f"wrote {path}")
    if args.compare_baseline:
        ratio = speedup["aggregate"] if speedup else None
        if ratio is None:
            print("error: no committed baseline to compare against "
                  f"({perf_baseline_path()})", file=sys.stderr)
            return 2
        if not args.json:
            print(f"throughput vs committed baseline "
                  f"[{speedup['baseline_tag']}]: {ratio:.2f}x")
        if ratio < 1.0 - tolerance:
            print(f"FAIL: simulator throughput regressed more than "
                  f"{tolerance:.0%} vs the committed baseline",
                  file=sys.stderr)
            return 1
    return 0


# ---------------------------------------------------------------------------
# ensemble bench
# ---------------------------------------------------------------------------


def _cmd_ensemble_bench(args: argparse.Namespace) -> int:
    # Deferred import: pulls in the workload suite + (optionally) numpy.
    from repro.experiments import perf
    from repro.sim import ensemble

    if args.backend == ensemble.BACKEND_NUMPY and not (
            ensemble.numpy_available()):
        print("error: the numpy ensemble backend requires numpy "
              "(install the 'ensemble' extra: pip install "
              "'repro[ensemble]')", file=sys.stderr)
        return 2
    try:
        # args.workloads is None when the flag is absent (all
        # workloads) and [] when given empty — the latter is a
        # selection error the measurement layer diagnoses.
        if args.timing:
            section = perf.measure_timing_ensemble(
                lanes=args.lanes, scale=args.scale,
                workloads=args.workloads,
            )
        else:
            section = perf.measure_ensemble(
                lanes=args.lanes, scale=args.scale,
                workloads=args.workloads, backend=args.backend,
            )
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps(section, indent=2, sort_keys=True))
        return 0 if section.get("available") else 2
    if not section.get("available"):
        print(f"ensemble bench unavailable: "
              f"{section.get('reason', 'unknown')}", file=sys.stderr)
        return 2
    mode = "timing (in-order)" if args.timing else "functional"
    print(f"ensemble bench: N={section['lanes']} lanes, "
          f"{section['scale']} scale, {section['backend']} backend, "
          f"{mode}")
    print(f"{'workload':<18s} {'insts':>10s} {'scalar s':>9s} "
          f"{'ensemble s':>11s} {'speedup':>8s}")
    for name, row in section["workloads"].items():
        speedup = row["speedup"]
        print(f"{name:<18s} {row['instructions']:>10d} "
              f"{row['scalar_wall_seconds']:>9.3f} "
              f"{row['ensemble_wall_seconds']:>11.3f} "
              f"{speedup if speedup is None else format(speedup, '.2f'):>8}")
    agg = section["aggregate"]
    print(f"{'AGGREGATE':<18s} {agg['instructions']:>10d} "
          f"{'':>9s} {'':>11s} {agg['speedup']:>8.2f}")
    print(f"scalar   {agg['scalar_insts_per_host_second']} insts/host-sec")
    print(f"ensemble {agg['ensemble_insts_per_host_second']} insts/host-sec")
    return 0


# ---------------------------------------------------------------------------
# baseline capture / verify / promote / retire / diff / list
# ---------------------------------------------------------------------------


def _open_store(args: argparse.Namespace):
    from repro.regress.store import BaselineStore

    return BaselineStore(getattr(args, "baseline_dir", None))


def _baseline_corpus_run(args: argparse.Namespace, mode: str) -> int:
    """Shared engine for ``baseline capture`` and ``baseline verify``:
    run the experiment corpus (no documents written) with one shared
    firewall collecting every observation, then report."""
    from repro.regress.firewall import BaselineFirewall
    from repro.regress.semid import dump_stable, short_id

    if args.smoke:
        os.environ["REPRO_BENCH_SMOKE"] = "1"
    try:
        specs = _select_specs(args.ids, args.all, None)
    except ExperimentLookupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not specs:
        print("error: no experiments selected", file=sys.stderr)
        return 2

    firewall = BaselineFirewall(
        _open_store(args), mode=mode, strict=False,
        note=getattr(args, "note", "") or "",
    )
    engine = ExperimentEngine(
        smoke=bool(args.smoke) or None, jobs=args.jobs,
        write=False, firewall=firewall,
    )
    errors = 0
    for spec in specs:
        started = time.perf_counter()
        try:
            engine.run(spec)
        except Exception:  # noqa: BLE001 — finish the corpus, then fail
            errors += 1
            print(f"  FAIL  {spec.name}", file=sys.stderr)
            traceback.print_exc()
            continue
        print(f"  {mode:7s} {spec.name:26s} "
              f"{time.perf_counter() - started:6.2f}s")

    stats = firewall.stats
    report = firewall.report()
    if args.report is not None:
        out = pathlib.Path(args.report)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(dump_stable(report))
        print(f"diff report written to {out}")
    if args.json:
        print(dump_stable(report), end="")
    else:
        counts = ", ".join(f"{name}={value}"
                           for name, value in stats.as_dict().items()
                           if value)
        print(f"baseline {mode}: {stats.observed} observations "
              f"({counts or 'none'}) in {firewall.store.root}")
        for divergence in firewall.divergences:
            print(f"  DIVERGED {divergence.summary()}")

    if errors:
        return 1
    if mode == "capture":
        pending = stats.recaptured + stats.pending
        if pending and not args.json:
            print(f"{pending} behavior change(s) parked as candidates — "
                  f"review with `repro baseline diff`, then "
                  f"`repro baseline promote` to approve")
        return 0
    # verify: red on any divergence, and on an empty run (a corpus that
    # verified nothing protects nothing).
    if stats.divergent:
        if not args.json:
            print(f"FAIL: {stats.divergent} divergence(s) from stored "
                  f"baselines — if intentional, `repro baseline "
                  f"capture` then `repro baseline promote "
                  + " ".join(sorted({short_id(d.semid)
                                     for d in firewall.divergences})),
                  file=sys.stderr)
        return 1
    if not (stats.verified or stats.unseen):
        print("FAIL: no baseline observations at all", file=sys.stderr)
        return 1
    if stats.verified == 0:
        print("FAIL: no stored baseline matched any observation "
              "(empty or mislocated store? run `repro baseline "
              "capture` first)", file=sys.stderr)
        return 1
    return 0


def _cmd_baseline_capture(args: argparse.Namespace) -> int:
    return _baseline_corpus_run(args, "capture")


def _cmd_baseline_verify(args: argparse.Namespace) -> int:
    return _baseline_corpus_run(args, "verify")


def _cmd_baseline_promote(args: argparse.Namespace) -> int:
    from repro.regress.records import BaselineTransitionError
    from repro.regress.semid import short_id
    from repro.regress.store import BaselineLookupError

    store = _open_store(args)
    targets: List[str] = []
    if args.all:
        targets = [record.semid for record in store.records()
                   if record.status == "candidate"
                   or record.candidate_behavior is not None]
        if not targets:
            print("nothing to promote")
            return 0
    else:
        if not args.semids:
            print("error: pass baseline ids (prefixes ok) or --all",
                  file=sys.stderr)
            return 2
        try:
            targets = [store.resolve(prefix) for prefix in args.semids]
        except BaselineLookupError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    failed = 0
    for semid in targets:
        try:
            action = store.promote(semid, note=args.note or "")
        except BaselineTransitionError as exc:
            failed += 1
            print(f"error: {exc}", file=sys.stderr)
            continue
        print(f"{short_id(semid)} {action}")
    return 1 if failed else 0


def _cmd_baseline_retire(args: argparse.Namespace) -> int:
    from repro.regress.records import BaselineTransitionError
    from repro.regress.semid import short_id
    from repro.regress.store import BaselineLookupError

    store = _open_store(args)
    failed = 0
    for prefix in args.semids:
        try:
            semid = store.resolve(prefix)
            store.retire(semid, note=args.note or "")
        except (BaselineLookupError, BaselineTransitionError) as exc:
            failed += 1
            print(f"error: {exc}", file=sys.stderr)
            continue
        print(f"{short_id(semid)} retired")
    return 1 if failed else 0


def _cmd_baseline_diff(args: argparse.Namespace) -> int:
    from repro.regress.semid import dump_stable, short_id

    store = _open_store(args)
    pending = [record for record in store.records()
               if record.candidate_behavior is not None]
    if args.json:
        print(dump_stable([
            {
                "semid": record.semid,
                "kind": record.kind,
                "scenario": record.scenario,
                "fields": {
                    field: {"approved": approved, "candidate": candidate}
                    for field, (approved, candidate)
                    in record.diff_behavior(
                        record.candidate_behavior).items()
                },
            }
            for record in pending
        ]), end="")
        return 1 if pending else 0
    if not pending:
        print(f"no pending behavior changes in {store.root}")
        return 0
    for record in pending:
        where = "/".join(
            str(value) for key, value in sorted(record.scenario.items())
            if key in ("machine", "program", "experiment"))
        print(f"{short_id(record.semid)} {record.kind} {where}")
        for field, (approved, candidate) in sorted(
                record.diff_behavior(record.candidate_behavior).items()):
            print(f"  {field}: {approved!r} -> {candidate!r}")
    print(f"{len(pending)} pending change(s); `repro baseline promote` "
          f"to approve")
    return 1


def _cmd_baseline_list(args: argparse.Namespace) -> int:
    from repro.regress.semid import dump_stable, short_id

    store = _open_store(args)
    records = store.records(args.status or None)
    if args.json:
        print(dump_stable([record.to_doc() for record in records]),
              end="")
        return 0
    if not records:
        print(f"no baseline records in {store.root}")
        return 0
    for record in records:
        where = "/".join(
            str(value) for key, value in sorted(record.scenario.items())
            if key in ("machine", "program", "experiment"))
        pending = "  [pending change]" \
            if record.candidate_behavior is not None else ""
        print(f"{short_id(record.semid)}  {record.status:9s} "
              f"{record.kind:10s} {where}{pending}")
    counts = ", ".join(f"{status}={count}" for status, count
                       in sorted(store.status_counts().items()))
    print(f"{len(records)} record(s) ({counts}) in {store.root}")
    return 0


# ---------------------------------------------------------------------------
# cache stats / fsck / clear
# ---------------------------------------------------------------------------


def _open_cache(args: argparse.Namespace) -> ResultCache:
    return ResultCache(args.cache_dir)


def _cmd_cache_stats(args: argparse.Namespace) -> int:
    info = _open_cache(args).disk_stats()
    store = _open_store(args)
    info["baselines"] = {
        "dir": str(store.root),
        "records": len(store),
        "status": store.status_counts(),
    }
    if args.json:
        print(json.dumps(info, indent=2))
        return 0
    cap = (f"{info['max_bytes']} bytes" if info["max_bytes"] is not None
           else "unbounded")
    statuses = ", ".join(
        f"{status}={count}" for status, count
        in sorted(info["baselines"]["status"].items())) or "none"
    print(f"cache dir:   {info['dir']}")
    print(f"schema:      {info['schema']}")
    print(f"entries:     {info['entries']}")
    print(f"total size:  {info['total_bytes']} bytes")
    print(f"orphan tmp:  {info['orphan_tmp']}")
    print(f"size cap:    {cap}")
    print(f"baselines:   {info['baselines']['records']} record(s) "
          f"({statuses}) in {info['baselines']['dir']}")
    return 0


def _cmd_cache_fsck(args: argparse.Namespace) -> int:
    cache = _open_cache(args)
    report = cache.fsck(repair=not args.dry_run)
    print(f"fsck: {report.summary()}")
    for name in report.removed:
        print(f"  removed {name}")
    # Baseline records are governed state: scan and cross-check against
    # the cache, but never auto-remove — repairs go through explicit
    # `repro baseline retire` or review.
    store = _open_store(args)
    baseline_report = store.fsck()
    print(f"fsck: {baseline_report.summary()}")
    for name in baseline_report.bad_files:
        print(f"  bad baseline record {name}")
    cross = store.cross_check(cache)
    print(f"fsck: {cross.summary()}")
    for mismatch in cross.mismatches:
        print(f"  baseline/cache MISMATCH {mismatch['semid'][:12]} "
              f"{sorted(mismatch['fields'])}")
    if baseline_report.problems or cross.problems:
        return 1
    # fsck convention: non-zero when problems were found but left in
    # place (--dry-run); a repairing run that fixed everything exits 0.
    if args.dry_run and report.problems:
        return 1
    return 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    cache = _open_cache(args)
    removed = cache.clear()
    print(f"removed {removed} cached result(s) from {cache.root}")
    return 0


# ---------------------------------------------------------------------------
# lint / fuzz
# ---------------------------------------------------------------------------


def _lintable_programs(args: argparse.Namespace):
    """Resolve lint targets: registered workload names and/or a pickled
    Program file."""
    from repro.workloads import ANALYSIS_WORKLOADS, WORKLOAD_FACTORIES

    registry = {**WORKLOAD_FACTORIES, **ANALYSIS_WORKLOADS}
    programs = []
    if args.pickle is not None:
        import pickle

        with open(args.pickle, "rb") as handle:
            programs.append(pickle.load(handle))
    names = list(args.names)
    if args.all:
        names = sorted(registry)
    for name in names:
        factory = registry.get(name)
        if factory is None:
            known = ", ".join(sorted(registry))
            raise SystemExit(
                f"repro lint: unknown workload {name!r} (known: {known})"
            )
        programs.append(factory())
    if not programs:
        raise SystemExit(
            "repro lint: nothing to lint — pass workload names, --all, "
            "or --pickle PATH"
        )
    return programs


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro.analysis import analyze_taint
    from repro.analysis.proglint import lint_program

    findings = 0
    documents = []
    for program in _lintable_programs(args):
        diagnostics = list(lint_program(program,
                                        dead_stores=args.dead_stores))
        report = analyze_taint(program)
        diagnostics.extend(report.gadgets)
        findings += len(diagnostics)
        documents.append({
            "program": program.name,
            "instructions": len(program.instructions),
            "has_secrets": report.has_secrets,
            "transient_pcs": len(report.transient_pcs),
            "diagnostics": [
                {"kind": diag.kind.value, "pc": diag.pc,
                 "message": diag.message}
                for diag in diagnostics
            ],
        })
        if not args.json:
            verdict = ("clean" if not diagnostics
                       else f"{len(diagnostics)} finding(s)")
            print(f"{program.name}: {verdict}")
            for diag in diagnostics:
                print(f"  {diag}")
    if args.json:
        print(json.dumps({"programs": documents,
                          "findings": findings}, indent=2))
    return 1 if findings else 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.workloads.fuzz import HAVE_HYPOTHESIS, fuzz

    if not HAVE_HYPOTHESIS:
        print("repro fuzz: hypothesis is not installed", file=sys.stderr)
        return 2
    failure = fuzz(max_examples=args.max_examples)
    if failure is None:
        print(f"fuzz: no divergence in {args.max_examples} examples")
        return 0
    summary = failure.summary()
    print("fuzz: DIVERGENCE (shrunk to minimal program)")
    print(f"  {summary['detail']}")
    print(f"  {summary['instructions']} instructions, "
          f"loop x{summary['loop_count']}, "
          f"{summary['body_atoms']} body atom(s)")
    for line in summary["listing"]:
        print(f"    {line}")
    if args.out is not None:
        out = pathlib.Path(args.out)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(json.dumps(summary, indent=2) + "\n")
        print(f"  counterexample written to {out}")
    return 1


# ---------------------------------------------------------------------------
# Argument parsing.
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SST/ROCK reproduction command-line interface.",
    )
    top = parser.add_subparsers(dest="command", required=True)

    experiments = top.add_parser(
        "experiments", help="the reconstructed 18-experiment evaluation")
    sub = experiments.add_subparsers(dest="subcommand", required=True)

    cmd_list = sub.add_parser("list", help="show registered experiments")
    cmd_list.add_argument("--tag", default=None,
                          help="only experiments carrying this tag")
    cmd_list.add_argument("--json", action="store_true",
                          help="machine-readable listing")
    cmd_list.set_defaults(func=_cmd_list)

    cmd_run = sub.add_parser(
        "run", help="run experiments (tables + JSON documents land in "
                    "benchmarks/results/)")
    cmd_run.add_argument("ids", nargs="*", metavar="ID",
                         help="experiment ids (e3 e8, or e3,e8; "
                              "default: all)")
    cmd_run.add_argument("--all", action="store_true",
                         help="run every registered experiment")
    cmd_run.add_argument("--tag", default=None,
                         help="restrict to experiments carrying this tag")
    cmd_run.add_argument("--smoke", action="store_true",
                         help="shrink every workload so the suite runs "
                              "in seconds (sets REPRO_BENCH_SMOKE=1)")
    cmd_run.add_argument("--jobs", type=int, default=None,
                         help="experiments to run concurrently "
                              "(default: REPRO_JOBS or 1; 0 = all cores)")
    cmd_run.add_argument("--no-cache", action="store_true",
                         help="disable the result cache (REPRO_CACHE=0)")
    cmd_run.add_argument("--max-instructions", type=int, default=None,
                         help="override the per-run instruction budget")
    cmd_run.add_argument("--results-dir", type=pathlib.Path, default=None,
                         help="where tables and JSON documents land "
                              "(default: the checkout's "
                              "benchmarks/results/)")
    cmd_run.add_argument("--sanitize", action="store_true",
                         help="run with REPRO_SANITIZE=1 (per-event "
                              "invariant checking; implies --smoke "
                              "--no-cache, since cached results would "
                              "skip the checked simulations)")
    cmd_run.add_argument("--strict-expectations", action="store_true",
                         help="exit non-zero when an expectation "
                              "predicate fails (use at full scale)")
    cmd_run.add_argument("--echo", action="store_true",
                         help="print each experiment's table")
    cmd_run.set_defaults(func=_cmd_run)

    cmd_report = sub.add_parser(
        "report", help="summarize stored JSON result documents")
    cmd_report.add_argument("ids", nargs="*", metavar="ID",
                            help="experiment ids (default: all)")
    cmd_report.add_argument("--results-dir", type=pathlib.Path,
                            default=None,
                            help="where to read documents from")
    cmd_report.add_argument("--tables", action="store_true",
                            help="also print each stored table")
    cmd_report.set_defaults(func=_cmd_report)

    perf = top.add_parser(
        "perf", help="simulator-throughput snapshots and regression "
                     "comparisons")
    perf_sub = perf.add_subparsers(dest="subcommand", required=True)

    cmd_perf_report = perf_sub.add_parser(
        "report", help="take a BENCH_<tag>.json throughput snapshot; "
                       "optionally gate it against the committed "
                       "baseline")
    cmd_perf_report.add_argument("--tag", default="report",
                                 help="snapshot tag (file name suffix)")
    cmd_perf_report.add_argument("--out", default=None,
                                 help="output path override (default: "
                                      "benchmarks/results/"
                                      "BENCH_<tag>.json)")
    cmd_perf_report.add_argument("--smoke", action="store_true",
                                 help="tiny workloads (sets "
                                      "REPRO_BENCH_SMOKE=1), matching "
                                      "the committed baseline's scale")
    cmd_perf_report.add_argument("--json", action="store_true",
                                 help="print the snapshot payload as "
                                      "JSON instead of the table")
    cmd_perf_report.add_argument("--compare-baseline",
                                 action="store_true",
                                 help="exit non-zero when aggregate "
                                      "insts/host-second regressed more "
                                      "than --tolerance vs the "
                                      "committed baseline")
    cmd_perf_report.add_argument("--tolerance", type=float, default=None,
                                 help="regression tolerance fraction "
                                      "for --compare-baseline "
                                      "(default: 0.30)")
    cmd_perf_report.set_defaults(func=_cmd_perf_report)

    ensemble = top.add_parser(
        "ensemble", help="vectorized lockstep-ensemble tools")
    ensemble_sub = ensemble.add_subparsers(dest="subcommand",
                                           required=True)

    cmd_ens_bench = ensemble_sub.add_parser(
        "bench", help="measure ensemble-vs-scalar throughput over "
                      "seed-varied lane batches of the workload suite")
    cmd_ens_bench.add_argument("--lanes", type=int, default=64,
                               help="ensemble width N (default: 64)")
    cmd_ens_bench.add_argument("--scale", default="tiny",
                               choices=("tiny", "small", "bench"),
                               help="workload suite scale "
                                    "(default: tiny)")
    cmd_ens_bench.add_argument("--workloads", nargs="*", default=None,
                               metavar="NAME",
                               help="subset of suite workload names "
                                    "(default: all seven)")
    cmd_ens_bench.add_argument("--backend", default=None,
                               choices=("numpy", "python"),
                               help="force a backend (default: "
                                    "auto-select)")
    cmd_ens_bench.add_argument("--timing", action="store_true",
                               help="bench the lane-batched *timing* "
                                    "ensemble (in-order core) instead "
                                    "of the functional interpreter")
    cmd_ens_bench.add_argument("--json", action="store_true",
                               help="machine-readable output")
    cmd_ens_bench.set_defaults(func=_cmd_ensemble_bench)

    baseline = top.add_parser(
        "baseline", help="behavioral baseline firewall: governed "
                         "capture/verify of simulation behavior")
    baseline_sub = baseline.add_subparsers(dest="subcommand",
                                           required=True)

    def _add_baseline_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--baseline-dir", type=pathlib.Path,
                         default=None,
                         help="baseline store (default: "
                              "REPRO_BASELINE_DIR or "
                              "benchmarks/baselines/)")

    def _add_corpus_args(sub: argparse.ArgumentParser) -> None:
        _add_baseline_dir(sub)
        sub.add_argument("ids", nargs="*", metavar="ID",
                         help="experiment ids (default: all)")
        sub.add_argument("--all", action="store_true",
                         help="run every registered experiment")
        sub.add_argument("--smoke", action="store_true",
                         help="tiny workloads (sets "
                              "REPRO_BENCH_SMOKE=1) — the committed "
                              "corpus scale")
        sub.add_argument("--jobs", type=int, default=None,
                         help="simulation worker processes per "
                              "experiment (default: REPRO_JOBS or 1)")
        sub.add_argument("--report", default=None, metavar="PATH",
                         help="write the JSON diff report to PATH "
                              "(the CI artifact)")
        sub.add_argument("--json", action="store_true",
                         help="print the diff report as JSON")

    cmd_bl_capture = baseline_sub.add_parser(
        "capture", help="run the corpus and record observed behavior "
                        "(new records land as candidates; changed "
                        "behavior parks pending an explicit promote)")
    _add_corpus_args(cmd_bl_capture)
    cmd_bl_capture.add_argument("--note", default="",
                                help="audit note recorded with every "
                                     "capture")
    cmd_bl_capture.set_defaults(func=_cmd_baseline_capture)

    cmd_bl_verify = baseline_sub.add_parser(
        "verify", help="run the corpus and check behavior against "
                       "stored baselines (exit 1 on any divergence)")
    _add_corpus_args(cmd_bl_verify)
    cmd_bl_verify.set_defaults(func=_cmd_baseline_verify)

    cmd_bl_promote = baseline_sub.add_parser(
        "promote", help="approve candidate records / pending behavior "
                        "changes (the only green path after an "
                        "intentional change)")
    _add_baseline_dir(cmd_bl_promote)
    cmd_bl_promote.add_argument("semids", nargs="*", metavar="SEMID",
                                help="baseline ids (unambiguous "
                                     "prefixes ok)")
    cmd_bl_promote.add_argument("--all", action="store_true",
                                help="promote every candidate record "
                                     "and pending change")
    cmd_bl_promote.add_argument("--note", default="",
                                help="audit note for the approval")
    cmd_bl_promote.set_defaults(func=_cmd_baseline_promote)

    cmd_bl_retire = baseline_sub.add_parser(
        "retire", help="retire records for scenarios that no longer "
                       "exist (terminal; retired records are skipped)")
    _add_baseline_dir(cmd_bl_retire)
    cmd_bl_retire.add_argument("semids", nargs="+", metavar="SEMID",
                               help="baseline ids (prefixes ok)")
    cmd_bl_retire.add_argument("--note", default="",
                               help="audit note for the retirement")
    cmd_bl_retire.set_defaults(func=_cmd_baseline_retire)

    cmd_bl_diff = baseline_sub.add_parser(
        "diff", help="show captured-but-unpromoted behavior changes "
                     "(exit 1 when any are pending)")
    _add_baseline_dir(cmd_bl_diff)
    cmd_bl_diff.add_argument("--json", action="store_true",
                             help="machine-readable diff")
    cmd_bl_diff.set_defaults(func=_cmd_baseline_diff)

    cmd_bl_list = baseline_sub.add_parser(
        "list", help="show the store's records and governance state")
    _add_baseline_dir(cmd_bl_list)
    cmd_bl_list.add_argument("--status", default=None,
                             choices=("candidate", "approved",
                                      "retired"),
                             help="only records in this status")
    cmd_bl_list.add_argument("--json", action="store_true",
                             help="full record documents as JSON")
    cmd_bl_list.set_defaults(func=_cmd_baseline_list)

    cache = top.add_parser(
        "cache", help="simulation result-cache maintenance")
    cache_sub = cache.add_subparsers(dest="subcommand", required=True)

    def _add_cache_dir(sub: argparse.ArgumentParser) -> None:
        sub.add_argument("--cache-dir", type=pathlib.Path, default=None,
                         help="cache directory (default: REPRO_CACHE_DIR "
                              "or benchmarks/.simcache/)")

    cmd_stats = cache_sub.add_parser(
        "stats", help="show on-disk cache usage")
    _add_cache_dir(cmd_stats)
    cmd_stats.add_argument("--json", action="store_true",
                           help="machine-readable output")
    cmd_stats.set_defaults(func=_cmd_cache_stats)

    cmd_fsck = cache_sub.add_parser(
        "fsck", help="scan entries for corruption, key mismatches, "
                     "stale schemas, and orphan tmp files; repairs by "
                     "removing offenders")
    _add_cache_dir(cmd_fsck)
    cmd_fsck.add_argument("--dry-run", action="store_true",
                          help="report problems without removing "
                               "anything (exit 1 if any found)")
    cmd_fsck.set_defaults(func=_cmd_cache_fsck)

    cmd_clear = cache_sub.add_parser(
        "clear", help="delete every cached result")
    _add_cache_dir(cmd_clear)
    cmd_clear.set_defaults(func=_cmd_cache_clear)

    cmd_lint = top.add_parser(
        "lint", help="static verifier + speculative-leak taint pass "
                     "over workloads or a pickled Program")
    cmd_lint.add_argument("names", nargs="*", metavar="NAME",
                          help="registered workload names (suite + "
                               "spec-leak gadgets)")
    cmd_lint.add_argument("--all", action="store_true",
                          help="lint every registered workload")
    cmd_lint.add_argument("--pickle", type=pathlib.Path, default=None,
                          help="also lint a pickled Program from PATH")
    cmd_lint.add_argument("--dead-stores", action="store_true",
                          help="enable the opt-in dead-store pass")
    cmd_lint.add_argument("--json", action="store_true",
                          help="machine-readable report")
    cmd_lint.set_defaults(func=_cmd_lint)

    cmd_fuzz = top.add_parser(
        "fuzz", help="differential program fuzzer: every core variant "
                     "vs. the golden interpreter, shrunk on failure")
    cmd_fuzz.add_argument("--max-examples", type=int, default=100,
                          help="random program shapes to try "
                               "(default: 100)")
    cmd_fuzz.add_argument("--out", default=None, metavar="PATH",
                          help="write a shrunk counterexample as JSON "
                               "to PATH")
    cmd_fuzz.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
