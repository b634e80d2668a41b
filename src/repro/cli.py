"""Command-line interface: ``python -m repro <command>``.

Subcommands mirror the methodology's phases:

* ``characterize`` — build and print the performance tables of a
  named cluster configuration (optionally save as CSV).
* ``evaluate`` — run a workload on one or more configurations and
  print the run metrics and used-percentage tables.
* ``predict`` — phase-1-only configuration selection: predict the
  workload's I/O time on every configuration from the tables alone.
* ``report`` — instrumented evaluation: per-level counters, windowed
  utilization with bottleneck attribution, phase-replay stats;
  exports JSON/CSV reports and JSONL/Chrome-format traces.
* ``perf`` — benchmark the methodology itself: serial vs parallel vs
  cached characterization timings, written as machine-readable JSON.
* ``workload`` — validate or compile declarative workload spec files
  (the JSON/YAML grammar; see :mod:`repro.workloads.grammar`), or
  ``workload fuzz`` seeded random-walk specs over it.
* ``lint`` — run the simlint static checks (determinism, units,
  serve-path shape, schedule-race rules; see
  :mod:`repro.analysis.simlint` and :mod:`repro.analysis.simrace`).
* ``race`` — the differential schedule-race matrix: sanitizer x
  seeded tie-break perturbations over one workload,
  byte-comparing conserved results (see
  :func:`repro.analysis.simrace.run_race_matrix`).
* ``list`` — show the available cluster configurations and workloads.

``evaluate``/``predict``/``report`` take the workload either as a
named benchmark adapter (``btio``/``madbench``), a spec file
(``--workload spec.yaml``), or a portable trace capture
(``--trace capture.csv``, produced by ``report --trace-format csv``).

``evaluate``/``report`` accept ``--sanitize`` to attach the runtime
sim-sanitizer (invariant checks; also ``REPRO_SANITIZE=1``) — a
sanitized run with violations exits nonzero.  They also accept
``--faults SCHEDULE.json`` to inject a deterministic fault schedule
(disk failures with RAID rebuild, NFS server stalls with RPC
retransmits, network flaps/latency spikes; see :mod:`repro.faults`)
and print a degraded-mode report per configuration.

``characterize``/``evaluate``/``predict`` accept ``--jobs`` (worker
processes; ``0`` = one per CPU) and ``--cache`` (on-disk
characterization cache directory).  An unusable worker count exits 2
with a one-line error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .clusters import (
    AOHYPER_CONFIGS,
    AOHYPER_EXTRA_CONFIGS,
    aohyper_config,
    cluster_a_config,
)
from .core import (
    Methodology,
    format_perf_table,
    format_run_metrics,
    format_used_matrix,
)
from .core.prediction import rank_predicted
from .storage.base import GiB, KiB, MiB
from .workloads.apps import BTIOApplication, MadBenchApplication
from .workloads.btio import BTIOConfig
from .workloads.madbench import MadBenchConfig

__all__ = ["main"]


def _configs(names: list[str]) -> dict:
    out = {}
    for name in names:
        if name in AOHYPER_CONFIGS or name in AOHYPER_EXTRA_CONFIGS:
            out[name] = aohyper_config(name)
        elif name in ("cluster-a", "cluster_a"):
            out["cluster-a"] = cluster_a_config()
        else:
            raise SystemExit(f"unknown configuration {name!r}; see `repro list`")
    return out


def _app(args):
    spec_src = getattr(args, "workload_spec", None)
    trace_src = getattr(args, "trace", None)
    chosen = [s for s in (args.workload, spec_src, trace_src) if s]
    if len(chosen) != 1:
        raise SystemExit(
            "choose exactly one workload: a named workload (btio/madbench), "
            "--workload SPEC.{yaml,json} or --trace CAPTURE.csv"
        )
    if spec_src:
        from .workloads.grammar import WorkloadSpecError, load_spec

        try:
            return load_spec(spec_src)
        except (OSError, WorkloadSpecError) as exc:
            raise SystemExit(f"cannot load workload spec {spec_src!r}: {exc}")
    if trace_src:
        from .tracing.ingest import IngestError, load_trace_workload

        try:
            return load_trace_workload(trace_src)
        except (OSError, IngestError) as exc:
            raise SystemExit(f"cannot load trace {trace_src!r}: {exc}")
    try:
        if args.workload == "btio":
            return BTIOApplication(
                BTIOConfig(clazz=args.clazz, nprocs=args.nprocs, subtype=args.subtype)
            )
        if args.workload == "madbench":
            return MadBenchApplication(
                MadBenchConfig(kpix=args.kpix, nprocs=args.nprocs, filetype=args.filetype)
            )
    except ValueError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    raise SystemExit(f"unknown workload {args.workload!r}")


def _methodology(args) -> Methodology:
    blocks = tuple((32 * KiB) << k for k in range(0, 10, args.block_step))
    return Methodology(
        _configs(args.configs),
        block_sizes=blocks,
        ior_nprocs=8,
        ior_file_bytes=args.ior_gib * GiB,
    )


def _characterize(m: Methodology, args) -> None:
    """Phase 1 with the shared --jobs/--cache/--refresh knobs."""
    m.characterize(
        n_jobs=args.jobs,
        cache=args.cache,
        refresh=getattr(args, "refresh", False),
    )


def cmd_list(_args) -> int:
    print("cluster configurations:")
    for name in AOHYPER_CONFIGS:
        print(f"  {name:<10} (paper cluster Aohyper, device={name})")
    for name in AOHYPER_EXTRA_CONFIGS:
        print(f"  {name:<10} (Aohyper extra, opt-in; device={name})")
    print("  cluster-a  (paper cluster A: 32 nodes, NFS on RAID5 front-end)")
    print("workloads:")
    print("  btio       NAS BT-IO (--class, --nprocs, --subtype full|simple)")
    print("  madbench   MADbench2 (--kpix, --nprocs, --filetype unique|shared)")
    print("  --workload SPEC.{yaml,json}  declarative grammar spec "
          "(see `repro workload validate|compile`)")
    print("  --trace CAPTURE.csv          replay a portable trace "
          "(from `repro report --trace-format csv`)")
    return 0


def cmd_characterize(args) -> int:
    m = _methodology(args)
    _characterize(m, args)
    for tables in m.tables.values():
        for table in tables.values():
            print(format_perf_table(table))
            print()
    if args.out:
        for name in m.save_tables(args.out):
            print(f"  -> saved {Path(args.out) / name}")
    return 0


def _sanitizer_summary(reports) -> int:
    """Print per-config sanitizer summaries; count total violations."""
    problems = 0
    for name, r in reports.items():
        if r.sanitizer is None:
            continue
        violations = r.sanitizer.get("violations", [])
        problems += len(violations)
        state = "clean" if not violations else f"{len(violations)} VIOLATION(S)"
        print(f"sanitizer[{name}]: {state} "
              f"({r.sanitizer.get('events_checked', 0)} events checked)")
        for v in violations:
            print(f"  [{v['check']}] t={v['t_s']:.6f}s: {v['message']}")
    return problems


def _load_faults(args):
    """The FaultSchedule named by --faults, or ``None``."""
    path = getattr(args, "faults", None)
    if not path:
        return None
    from .faults import FaultSchedule

    try:
        return FaultSchedule.load(path)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise SystemExit(f"cannot load fault schedule {path!r}: {exc}")


def _faults_summary(reports) -> None:
    """Print the degraded-mode verdict per faulted configuration."""
    for name, r in reports.items():
        f = r.faults
        if f is None:
            continue
        print(f"faults[{name}]: verdict={f['verdict']} "
              f"(degraded {f['degraded_s']:.2f}s of {f['run_end_s']:.2f}s)")
        for op, ratio in sorted(f.get("bandwidth_ratio", {}).items()):
            healthy = f["rates_Bps"]["healthy"].get(op, 0.0)
            degraded = f["rates_Bps"]["degraded"].get(op, 0.0)
            print(f"  {op:<6} healthy {healthy / 1e6:8.2f} MB/s  "
                  f"degraded {degraded / 1e6:8.2f} MB/s  ratio {ratio:.3f}")
        for w in f.get("windows", []):
            extra = f" disk={w['disk']}" if "disk" in w else ""
            print(f"  window[{w['index']}] {w['kind']} on {w['target']}{extra}: "
                  f"{w['t0_s']:.2f}-{w['t1_s']:.2f}s -> {w['outcome']}")
        for owner, reb in sorted(f.get("rebuild", {}).items()):
            state = ("rebuilding" if reb["still_rebuilding"]
                     else "degraded" if reb["degraded"] else "complete")
            print(f"  rebuild[{owner}]: read {reb['bytes_read'] / 1e6:.1f} MB, "
                  f"wrote {reb['bytes_written'] / 1e6:.1f} MB ({state})")
        nfs = f.get("nfs", {})
        if nfs.get("retransmits") or nfs.get("major_timeouts"):
            print(f"  nfs: {nfs['retransmits']} retransmit(s), "
                  f"{nfs['major_timeouts']} major timeout(s)")
        if f.get("data_loss"):
            print(f"  DATA LOSS: {f['data_loss']}")


def cmd_evaluate(args) -> int:
    # bad workload arguments fail before, not after, phase 1
    app = _app(args)
    faults = _load_faults(args)
    m = _methodology(args)
    print("characterizing ...", file=sys.stderr)
    _characterize(m, args)
    from .fingerprint import workload_fingerprint

    print(f"evaluating {app.name} [workload {workload_fingerprint(app)}] ...",
          file=sys.stderr)
    reports = m.evaluate(
        app,
        n_jobs=args.jobs,
        phase_fastpath=not args.no_phase_fastpath,
        faults=faults,
    )
    print(format_run_metrics(reports))
    for op in ("write", "read"):
        print(format_used_matrix(reports, op))
    _faults_summary(reports)
    if _sanitizer_summary(reports):
        print("ERROR: sanitizer reported invariant violations", file=sys.stderr)
        return 1
    return 0


def cmd_lint(args) -> int:
    """Run the simlint static checks (see repro.analysis.simlint)."""
    from .analysis.simlint import main as simlint_main

    for path in args.paths:
        if not Path(path).exists():
            print(f"repro: error: {path}: no such file or directory", file=sys.stderr)
            return 2
    argv = list(args.paths)
    if args.format != "text":
        argv += ["--format", args.format]
    if args.rules:
        argv += ["--rules", *args.rules]
    return simlint_main(argv)


def cmd_race(args) -> int:
    """Differential schedule-race matrix (see repro.analysis.simrace)."""
    import json

    from .analysis.simrace import render_report, run_race_matrix

    app = _app(args)
    name, cfg = next(iter(_configs([args.config]).items()))
    kw: dict = {}
    if args.quick:
        # CI-sized: no sanitizer axis, small sweep — the full matrix at
        # paper scale is `repro race` with no flags
        kw.update(
            sanitize=(False,),
            block_sizes=(256 * KiB, 1 * MiB),
            char_file_bytes=8 * MiB,
            ior_file_bytes=64 * MiB,
        )
    report = run_race_matrix(
        app,
        config=cfg,
        config_name=name,
        seeds=tuple(args.seeds),
        tol=args.tol,
        progress=lambda msg: print(f"  {msg}", file=sys.stderr),
        **kw,
    )
    print(render_report(report))
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"  -> wrote {args.out}", file=sys.stderr)
    return 0 if report["ok"] else 1


def cmd_workload(args) -> int:
    """Validate/compile declarative workload spec files (the grammar)."""
    from .workloads.grammar import (
        WorkloadSpecError,
        compile_spec,
        is_workload_spec,
        load_document,
        spec_fingerprint,
        spec_name,
    )

    if args.wcommand == "fuzz":
        import json as _json

        from .workloads.fuzz import fuzz_specs

        specs = fuzz_specs(args.n, seed=args.seed, max_phases=args.max_phases)
        if args.out:
            out = Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            for doc in specs:
                target = out / f"{doc['name']}.json"
                target.write_text(_json.dumps(doc, indent=2) + "\n")
                print(f"  -> wrote {target}")
        else:
            print(_json.dumps(specs if args.n > 1 else specs[0], indent=2))
        return 0

    if args.wcommand == "validate":
        bad = 0
        for path in args.files:
            try:
                doc = load_document(path)
            except OSError as exc:
                print(f"{path}: ERROR: {exc}")
                bad += 1
                continue
            except WorkloadSpecError as exc:
                print(f"{path}: PARSE ERROR: {exc}")
                bad += 1
                continue
            if args.skip_foreign and not is_workload_spec(doc):
                print(f"{path}: skipped (not a workload spec)")
                continue
            try:
                spec = compile_spec(doc)
            except WorkloadSpecError as exc:
                print(f"{path}: INVALID")
                for err in exc.errors:
                    print(f"  - {err}")
                bad += 1
                continue
            print(f"{path}: ok ({len(spec.phases)} phase(s), "
                  f"nprocs={spec.nprocs}, fingerprint={spec_fingerprint(spec)})")
        return 1 if bad else 0

    # wcommand == "compile": show the compiled phase program
    import json as _json

    from .fingerprint import canonicalize

    try:
        doc = load_document(args.file)
        spec = compile_spec(doc)
    except OSError as exc:
        raise SystemExit(f"cannot read {args.file!r}: {exc}")
    except WorkloadSpecError as exc:
        print(f"{args.file}: INVALID", file=sys.stderr)
        for err in exc.errors:
            print(f"  - {err}", file=sys.stderr)
        return 1
    if args.json:
        print(_json.dumps(canonicalize(spec), indent=2, sort_keys=True))
        return 0
    name = spec_name(doc, Path(str(args.file)).stem)
    layout = "file-per-process" if spec.per_process_files else "shared"
    print(f"workload {name!r}: nprocs={spec.nprocs} path={spec.path} "
          f"layout={layout} rank_disjoint={spec.rank_disjoint}")
    print(f"fingerprint: {spec_fingerprint(spec)}")
    print(f"{'#':>3} {'op':<6} {'nbytes':>10} {'count':>6} {'stride':>10} "
          f"{'reps':>5} {'coll':>5} {'compute_s':>10}")
    for i, ph in enumerate(spec.phases):
        stride = "-" if ph.stride is None else str(ph.stride)
        print(f"{i:>3} {ph.op:<6} {ph.nbytes:>10} {ph.count:>6} {stride:>10} "
              f"{ph.repetitions:>5} {str(ph.collective):>5} {ph.compute_s:>10.4f}")
    return 0


def cmd_report(args) -> int:
    """Instrumented phase 3: run metrics, counters, utilization, traces."""
    import json

    from .obs.runreport import build_run_report, render_run_report, report_to_csv

    app = _app(args)
    faults = _load_faults(args)
    m = _methodology(args)
    print("characterizing ...", file=sys.stderr)
    _characterize(m, args)
    print(f"evaluating {app.name} (instrumented) ...", file=sys.stderr)
    reports = m.evaluate(
        app,
        n_jobs=args.jobs,
        phase_fastpath=not args.no_phase_fastpath,
        instrument=True,
        keep_events=bool(args.trace_out),
        window_s=args.window,
        faults=faults,
    )
    print(render_run_report(reports))
    report = build_run_report(
        app.name,
        reports,
        meta={"configs": sorted(m.configs), "phase_fastpath": not args.no_phase_fastpath},
    )
    if args.json:
        Path(args.json).write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
        print(f"  -> wrote {args.json}", file=sys.stderr)
    if args.csv:
        Path(args.csv).write_text(report_to_csv(report))
        print(f"  -> wrote {args.csv}", file=sys.stderr)
    if args.trace_out:
        if args.trace_format == "csv":
            # portable per-event capture, replayable via `evaluate
            # --trace` / ingest; one file per configuration
            from .tracing.darshan import events_to_csv
            from .tracing.tracer import IOTracer

            out = Path(args.trace_out)
            for name, r in reports.items():
                tracer = IOTracer(world_size=r.profile.nprocs)
                for e in r.events or []:
                    tracer.record(e.rank, e)
                target = (out if len(reports) == 1
                          else out.with_name(f"{out.stem}.{name}{out.suffix}"))
                target.write_text(events_to_csv(tracer))
                print(f"  -> wrote {target} (portable csv)", file=sys.stderr)
        else:
            from .obs.export import write_chrome_trace, write_events_jsonl

            runs = {
                name: {"events": r.events or [], "replay": r.replay_phases}
                for name, r in reports.items()
            }
            if args.trace_format == "chrome":
                write_chrome_trace(args.trace_out, runs, app=app.name)
            else:
                write_events_jsonl(args.trace_out, runs, meta={"app": app.name})
            print(f"  -> wrote {args.trace_out} ({args.trace_format})", file=sys.stderr)
    _faults_summary(reports)
    if _sanitizer_summary(reports):
        print("ERROR: sanitizer reported invariant violations", file=sys.stderr)
        return 1
    return 0


def cmd_sweep(args) -> int:
    """Crash-safe parameter-space sweep (see :mod:`repro.sweep`)."""
    from .sweep import (
        PlanError,
        StoreError,
        build_plan,
        char_params,
        collect_faults,
        collect_workloads,
        render_sweep_report,
        run_sweep,
    )

    def progress(msg: str) -> None:
        print(f"  {msg}", file=sys.stderr)

    # runner knobs: only what the user actually set overrides the
    # manifest (resume) or the defaults (fresh run)
    params = {
        key: value
        for key, value in (
            ("n_jobs", args.jobs),
            ("timeout_s", args.timeout),
            ("max_attempts", args.retries),
            ("backoff_base_s", args.backoff),
            ("seed", args.seed),
        )
        if value is not None
    }

    try:
        if args.resume or args.verify:
            out = run_sweep(
                args.rundir,
                params=params,
                resume=not args.verify,
                verify_only=args.verify,
                retry_quarantined=args.retry_quarantined,
                progress=progress,
            )
        else:
            if args.quick:
                char = char_params(
                    (256 * KiB, 1 * MiB),
                    char_file_bytes=8 * MiB,
                    ior_nprocs=8,
                    ior_file_bytes=64 * MiB,
                )
            else:
                blocks = tuple((32 * KiB) << k for k in range(0, 10, args.block_step))
                char = char_params(
                    blocks, ior_nprocs=8, ior_file_bytes=args.ior_gib * GiB
                )
            tasks = build_plan(
                args.configs,
                collect_workloads(
                    named=args.workloads,
                    spec_files=args.workload_spec,
                    fuzz_seeds=args.fuzz_seeds,
                ),
                collect_faults(args.faults),
                char,
                phase_fastpath=not args.no_phase_fastpath,
                sanitize=args.sanitize,
            )
            print(f"planned {len(tasks)} task(s)", file=sys.stderr)
            out = run_sweep(args.rundir, tasks, params, progress=progress)
    except (PlanError, StoreError) as exc:
        raise SystemExit(f"sweep: {exc}")

    print(render_sweep_report(out.report))
    print(f"  -> wrote {out.report_path}", file=sys.stderr)
    if out.error:
        print(f"ERROR: {out.error}", file=sys.stderr)
    return out.exit_code


def cmd_predict(args) -> int:
    trace_src = getattr(args, "trace", None)
    app = None if trace_src else _app(args)
    m = _methodology(args)
    print("characterizing ...", file=sys.stderr)
    _characterize(m, args)
    if trace_src:
        # a captured trace already characterizes the application — no
        # reference run needed, predict straight from the tables
        from .tracing.ingest import IngestError

        print(f"profiling trace {trace_src!r} ...", file=sys.stderr)
        try:
            profile = m.characterize_trace(trace_src)
        except (OSError, IngestError) as exc:
            raise SystemExit(f"cannot load trace {trace_src!r}: {exc}")
    else:
        # one (cheap) reference run on the first configuration builds
        # the system-independent application profile
        first = next(iter(m.configs))
        print(f"profiling {app.name} on {first!r} ...", file=sys.stderr)
        reports = m.evaluate(
            app, names=[first], phase_fastpath=not args.no_phase_fastpath
        )
        profile = reports[first].profile
    print(f"{'configuration':<14}{'predicted I/O time':>20}{'limiting levels':>30}")
    for pred in rank_predicted(profile, m.tables):
        levels = ", ".join(f"{k}:{v}" for k, v in pred.limiting_levels().items())
        print(f"{pred.config_name:<14}{pred.io_time_s:>18.1f}s  {levels:>28}")
    return 0


def perf_outputs(args) -> dict[str, Path]:
    """Where ``repro perf`` writes each JSON file.

    ``--eval-out``/``--kernel-out``/``--profile-out`` default to fixed
    names in the directory of ``--out``, so one run's files land
    together and never in the working directory by accident.
    """
    out = Path(args.out)
    return {
        "out": out,
        "eval": Path(args.eval_out or out.parent / "BENCH_evaluate.json"),
        "kernel": Path(args.kernel_out or out.parent / "BENCH_kernel.json"),
        "profile": Path(args.profile_out or out.parent / "PROFILE_perf.json"),
    }


def cmd_perf(args) -> int:
    """Benchmark the methodology pipeline itself (serial/parallel/cached)."""
    import json
    import os
    import platform
    import tempfile
    import time

    from .core.tablecache import TableCache
    from .workloads.apps import MadBenchApplication
    from .workloads.madbench import MadBenchConfig

    if args.quick:
        sweep = dict(
            block_sizes=(256 * KiB, 1 * MiB),
            char_file_bytes=8 * MiB,
            ior_file_bytes=64 * MiB,
        )
    else:
        sweep = dict(
            block_sizes=tuple((32 * KiB) << k for k in range(0, 10, 3)),
            ior_file_bytes=args.ior_gib * GiB,
        )
    configs = _configs(args.configs)
    jobs = args.jobs or os.cpu_count() or 1
    outputs = perf_outputs(args)
    for path in outputs.values():
        path.parent.mkdir(parents=True, exist_ok=True)

    try:
        # the CPUs this process may actually use (cgroup/affinity aware)
        cpu_effective = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cpu_effective = os.cpu_count()
    host = {
        "cpu_count": os.cpu_count(),
        "cpu_effective": cpu_effective,
        "platform": platform.platform(),
        "python": platform.python_version(),
    }

    from .analysis.sanitizer import sanitize_enabled
    from .simengine.bench import kernel_microbench

    common_params = {
        "sanitize": sanitize_enabled(),
        "faults": None,
    }

    # ---- kernel microbenchmark: raw event throughput of the DES core
    kb = kernel_microbench()
    print(f"  kernel microbench      {kb['wall_s']:8.2f}s  "
          f"({kb['events_per_s']:,} events/s)", file=sys.stderr)
    kernel_timings = {"kernel_total": kb["wall_s"]}
    for scen, row in kb["scenarios"].items():
        kernel_timings[f"kernel_{scen}"] = row["wall_s"]
    kernel_result = {
        "benchmark": "kernel",
        "host": host,
        "params": {**common_params, "repeats": kb["repeats"]},
        "timings_s": kernel_timings,
        "scenarios": kb["scenarios"],
        "events": kb["events"],
        "events_per_s": kb["events_per_s"],
    }
    kernel_out = outputs["kernel"]
    kernel_out.write_text(json.dumps(kernel_result, indent=2) + "\n")
    print(f"  -> wrote {kernel_out}", file=sys.stderr)

    def csvs(m: Methodology) -> dict:
        return {
            name: {level: t.to_csv() for level, t in tables.items()}
            for name, tables in m.tables.items()
        }

    def timed(fn):
        t0 = time.perf_counter()
        out = fn()
        return time.perf_counter() - t0, out

    def timed_best(fn, repeats):
        # best-wall over repeats, like the kernel microbench: single-shot
        # evaluation timings carry enough host noise (±15% observed) to
        # swamp the ~5% metrics-overhead bound perf_guard enforces
        best = float("inf")
        out = None
        for _ in range(max(repeats, 1)):
            t0 = time.perf_counter()
            out = fn()
            elapsed = time.perf_counter() - t0
            if elapsed < best:
                best = elapsed
        return best, out

    print(f"perf: {len(configs)} config(s), jobs={jobs}, "
          f"{'quick' if args.quick else 'full'} sweep", file=sys.stderr)

    m_serial = Methodology(dict(configs), **sweep)
    serial_s, _ = timed(lambda: m_serial.characterize(n_jobs=1))
    print(f"  characterize serial    {serial_s:8.2f}s", file=sys.stderr)

    m_par = Methodology(dict(configs), **sweep)
    parallel_s, _ = timed(lambda: m_par.characterize(n_jobs=jobs))
    print(f"  characterize parallel  {parallel_s:8.2f}s (jobs={jobs})", file=sys.stderr)

    with tempfile.TemporaryDirectory(prefix="repro-perf-cache-") as cache_dir:
        cache = TableCache(args.cache or cache_dir)
        m_warmup = Methodology(dict(configs), **sweep)
        m_warmup.characterize(cache=cache, refresh=args.refresh)
        m_cached = Methodology(dict(configs), **sweep)
        cached_s, _ = timed(lambda: m_cached.characterize(cache=cache))
        print(f"  characterize cached    {cached_s:8.2f}s (warm load)", file=sys.stderr)
        identical = csvs(m_serial) == csvs(m_par) == csvs(m_cached)

    app = MadBenchApplication(MadBenchConfig(kpix=2, nprocs=4))
    eval_serial_s, _ = timed(lambda: m_serial.evaluate(app, n_jobs=1))
    eval_parallel_s, _ = timed(lambda: m_serial.evaluate(app, n_jobs=jobs))
    print(f"  evaluate serial        {eval_serial_s:8.2f}s", file=sys.stderr)
    print(f"  evaluate parallel      {eval_parallel_s:8.2f}s", file=sys.stderr)

    result = {
        "benchmark": "characterize",
        "host": host,
        "params": {
            "configs": sorted(configs),
            "quick": bool(args.quick),
            **common_params,
            "n_jobs": jobs,
            "levels": list(m_serial.levels),
            "block_sizes": list(m_serial.block_sizes),
            "ior_file_bytes": m_serial.ior_file_bytes,
        },
        "timings_s": {
            "characterize_serial": round(serial_s, 4),
            "characterize_parallel": round(parallel_s, 4),
            "characterize_cached": round(cached_s, 4),
            "evaluate_serial": round(eval_serial_s, 4),
            "evaluate_parallel": round(eval_parallel_s, 4),
        },
        "speedup": {
            "parallel": round(serial_s / parallel_s, 3) if parallel_s > 0 else None,
            "cached": round(serial_s / cached_s, 3) if cached_s > 0 else None,
        },
        "tables_identical": identical,
    }
    out = outputs["out"]
    out.write_text(json.dumps(result, indent=2) + "\n")
    print(f"  -> wrote {out}", file=sys.stderr)
    print(json.dumps(result, indent=2))
    if not identical:
        print("ERROR: serial/parallel/cached tables differ", file=sys.stderr)
        return 1

    # ---- evaluation benchmark: full replay vs phase fastpath
    from .core.evaluation import used_tables_equal
    from .workloads.apps import BTIOApplication
    from .workloads.btio import BTIOConfig

    if args.quick:
        eval_apps = {
            "btio": BTIOApplication(BTIOConfig(clazz="W", nprocs=4, subtype="full")),
            "madbench": MadBenchApplication(MadBenchConfig(kpix=2, nprocs=4)),
        }
    else:
        eval_apps = {
            "btio": BTIOApplication(BTIOConfig(clazz="A", nprocs=16, subtype="full")),
            "madbench": MadBenchApplication(MadBenchConfig(kpix=6, nprocs=16)),
        }

    per_app = {}
    totals = {"full": 0.0, "fastpath": 0.0, "full_metrics": 0.0}
    eval_identical = True
    for app_name, eapp in eval_apps.items():
        full_s, full_r = timed_best(
            lambda: m_serial.evaluate(eapp, n_jobs=1, phase_fastpath=False),
            args.eval_repeat,
        )
        # same run with metrics collection on: its cost over full_s is
        # the observability overhead scripts/perf_guard.py bounds
        inst_s, _ = timed_best(
            lambda: m_serial.evaluate(
                eapp, n_jobs=1, phase_fastpath=False, instrument=True
            ),
            args.eval_repeat,
        )
        fast_s, fast_r = timed(
            lambda: m_serial.evaluate(eapp, n_jobs=1, phase_fastpath=True)
        )
        same = all(
            used_tables_equal(full_r[n].used, fast_r[n].used, rel_tol=1e-5)
            and full_r[n].write_bottleneck() == fast_r[n].write_bottleneck()
            and full_r[n].read_bottleneck() == fast_r[n].read_bottleneck()
            for n in full_r
        )
        eval_identical = eval_identical and same
        totals["full"] += full_s
        totals["fastpath"] += fast_s
        totals["full_metrics"] += inst_s
        per_app[app_name] = {
            "full_s": round(full_s, 4),
            "full_metrics_s": round(inst_s, 4),
            "fastpath_s": round(fast_s, 4),
            "speedup_fastpath": round(full_s / fast_s, 3) if fast_s > 0 else None,
            "tables_identical": same,
            "replay": {
                n: r.replay.as_dict() for n, r in fast_r.items() if r.replay is not None
            },
        }
        print(f"  evaluate {app_name:<9} full {full_s:7.2f}s  "
              f"fastpath {fast_s:7.2f}s", file=sys.stderr)

    eval_result = {
        "benchmark": "evaluate",
        "host": host,
        "params": {
            "configs": sorted(configs),
            "quick": bool(args.quick),
            **common_params,
            "apps": sorted(eval_apps),
            "eval_repeat": max(args.eval_repeat, 1),
        },
        "timings_s": {
            "evaluate_full": round(totals["full"], 4),
            "evaluate_full_metrics": round(totals["full_metrics"], 4),
            "evaluate_fastpath": round(totals["fastpath"], 4),
        },
        "speedup": {
            "fastpath": round(totals["full"] / totals["fastpath"], 3)
            if totals["fastpath"] > 0 else None,
        },
        "metrics_overhead": round(totals["full_metrics"] / totals["full"], 4)
        if totals["full"] > 0 else None,
        "per_app": per_app,
        "tables_identical": eval_identical,
    }
    eval_out = outputs["eval"]
    eval_out.write_text(json.dumps(eval_result, indent=2) + "\n")
    print(f"  -> wrote {eval_out}", file=sys.stderr)
    print(json.dumps(eval_result, indent=2))
    if not eval_identical:
        print("ERROR: fastpath used tables differ from full replay", file=sys.stderr)
        return 1

    if args.profile:
        # a separate profiled characterization run, so the profiler's
        # own overhead never leaks into the timings written above
        import cProfile
        import pstats

        # a single quick characterization finishes in ~0.2s on a 1-CPU
        # host, which makes top-25 attribution a coin flip; accumulate
        # several runs into one Profile so the ranking is stable
        repeat = max(args.profile_repeat, 1)
        pr = cProfile.Profile()
        for _ in range(repeat):
            m_prof = Methodology(dict(configs), **sweep)
            pr.enable()
            m_prof.characterize(n_jobs=1)
            pr.disable()
        st = pstats.Stats(pr)
        st.sort_stats("cumulative")
        rows = []
        for func in st.fcn_list[:25]:
            cc, nc, tt, ct, _callers = st.stats[func]
            filename, line, name = func
            rows.append({
                "function": f"{filename}:{line}({name})",
                "ncalls": nc,
                "tottime_s": round(tt, 4),
                "cumtime_s": round(ct, 4),
            })
        prof_result = {
            "benchmark": "profile",
            "host": host,
            "params": {
                "configs": sorted(configs),
                "quick": bool(args.quick),
                "profile_repeat": repeat,
                **common_params,
            },
            "total_tt_s": round(st.total_tt, 4),
            "top_cumulative": rows,
        }
        prof_out = outputs["profile"]
        prof_out.write_text(json.dumps(prof_result, indent=2) + "\n")
        print(f"  -> wrote {prof_out} (top {len(rows)} by cumulative time)",
              file=sys.stderr)
    return 0


def _int_at_least(low: int):
    """argparse type: an integer >= ``low``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_non_negative_int = _int_at_least(0)


def _float_at_least(low: float, strict: bool = False):
    """argparse type: a number >= ``low`` (> ``low`` if ``strict``);
    NaN is always refused."""
    op = ">" if strict else ">="

    def parse(text: str) -> float:
        try:
            value = float(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
        if not (value > low if strict else value >= low):  # also rejects NaN
            raise argparse.ArgumentTypeError(f"must be {op} {low:g}, got {text}")
        return value

    return parse


_positive_float = _float_at_least(0.0, strict=True)
_non_negative_float = _float_at_least(0.0)


class _Parser(argparse.ArgumentParser):
    """argparse with the CLI's one-line error format: ``repro: error: ...``
    and exit 2, without the usage dump."""

    def error(self, message: str):
        self.exit(2, f"repro: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="repro",
        description="I/O-system performance evaluation methodology (CLUSTER 2011 reproduction)",
    )
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="show configurations and workloads").set_defaults(func=cmd_list)

    def common(sp):
        sp.add_argument("--configs", nargs="+", default=list(AOHYPER_CONFIGS),
                        help="configuration names (default: the three Aohyper configs)")
        sp.add_argument("--block-step", type=_positive_int, default=3,
                        help="stride through the 32K..16M block sweep (1 = all ten sizes)")
        sp.add_argument("--ior-gib", type=_positive_int, default=2,
                        help="IOR file size in GiB")
        sp.add_argument("--jobs", type=_non_negative_int, default=1,
                        help="worker processes for characterization/evaluation "
                             "(0 = one per CPU; default: 1, perf: 0)")
        sp.add_argument("--cache", default=None, metavar="DIR",
                        help="characterization cache directory (reuse tables "
                             "keyed by config fingerprint + sweep params)")
        sp.add_argument("--refresh", action="store_true",
                        help="recompute and overwrite cached tables")
        sp.add_argument("--sanitize", action="store_true",
                        help="attach the runtime sim-sanitizer: invariant "
                             "checks for event monotonicity, tie-breaking, "
                             "utilization bounds, byte conservation and "
                             "resource leaks (also REPRO_SANITIZE=1)")
        sp.add_argument("--faults", default=None, metavar="FILE",
                        help="inject the deterministic fault schedule in "
                             "FILE (JSON; see repro.faults.FaultSchedule) "
                             "during evaluation and print a degraded-mode "
                             "report per configuration")

    c = sub.add_parser("characterize", help="phase 1: build performance tables")
    common(c)
    c.add_argument("--out", help="directory to save tables as CSV")
    c.set_defaults(func=cmd_characterize)

    def workload(sp):
        sp.add_argument("workload", nargs="?", default=None,
                        choices=["btio", "madbench"],
                        help="a built-in benchmark adapter (or use "
                             "--workload/--trace instead)")
        sp.add_argument("--nprocs", type=int, default=16)
        sp.add_argument("--class", dest="clazz", default="A", help="BT-IO class (S/W/A/B/C)")
        sp.add_argument("--subtype", default="full", choices=["full", "simple"])
        sp.add_argument("--kpix", type=int, default=6, help="MADbench2 KPIX")
        sp.add_argument("--filetype", default="shared", choices=["unique", "shared"])
        sp.add_argument("--workload", dest="workload_spec", default=None,
                        metavar="SPEC",
                        help="declarative workload spec file (JSON or YAML "
                             "grammar; see `repro workload validate`)")
        sp.add_argument("--trace", dest="trace", default=None, metavar="FILE",
                        help="replay a portable trace capture (csv format "
                             "from `repro report --trace-format csv`)")
        sp.add_argument("--no-phase-fastpath", action="store_true",
                        help="disable phase-replay extrapolation in the "
                             "evaluation phase: fully simulate every phase "
                             "occurrence")

    e = sub.add_parser("evaluate", help="phase 3: run a workload per configuration")
    common(e)
    workload(e)
    e.set_defaults(func=cmd_evaluate)

    pr = sub.add_parser("predict", help="predict I/O time per configuration (no full runs)")
    common(pr)
    workload(pr)
    pr.set_defaults(func=cmd_predict)

    rp = sub.add_parser(
        "report",
        help="instrumented evaluation: per-level counters, windowed "
             "utilization, phase-replay stats, trace export",
    )
    common(rp)
    workload(rp)
    rp.add_argument("--json", metavar="FILE", help="write the run report as JSON")
    rp.add_argument("--csv", metavar="FILE", help="write the run report as flat CSV")
    rp.add_argument("--trace-out", metavar="FILE",
                    help="write the MPI-IO event trace to FILE")
    rp.add_argument("--trace-format", choices=["chrome", "jsonl", "csv"],
                    default="chrome",
                    help="trace file format (default: chrome, for "
                         "chrome://tracing / Perfetto; csv = portable "
                         "capture replayable via `evaluate --trace`)")
    rp.add_argument("--window", type=_positive_float, default=None,
                    help="utilization sampling window in simulated seconds "
                         "(default: 0.05, width doubles on long runs)")
    rp.set_defaults(func=cmd_report)

    pf = sub.add_parser("perf", help="benchmark the methodology pipeline itself")
    common(pf)
    pf.add_argument("--quick", action="store_true",
                    help="small sweep suitable for CI (seconds, not minutes)")
    pf.add_argument("--out", default="BENCH_characterize.json",
                    help="JSON results file (default: BENCH_characterize.json)")
    pf.add_argument("--eval-out", default=None,
                    help="evaluation-benchmark JSON file (default: "
                         "BENCH_evaluate.json beside --out)")
    pf.add_argument("--kernel-out", default=None,
                    help="kernel-microbenchmark JSON file (default: "
                         "BENCH_kernel.json beside --out)")
    pf.add_argument("--profile", action="store_true",
                    help="additionally cProfile a serial characterization run "
                         "and write the top-25 functions by cumulative time")
    pf.add_argument("--profile-out", default=None,
                    help="profile JSON file (default: PROFILE_perf.json "
                         "beside --out)")
    pf.add_argument("--eval-repeat", type=int, default=3,
                    help="repeats per full/instrumented evaluation timing, "
                         "best wall kept (default: 3; the within-run metrics-"
                         "overhead bound needs noise-robust timings)")
    pf.add_argument("--profile-repeat", type=int, default=5,
                    help="profiled characterization runs aggregated into "
                         "one pstats table (default: 5; quick runs are too "
                         "short for a stable top-25 from a single run)")
    pf.set_defaults(func=cmd_perf, jobs=0)

    sw = sub.add_parser(
        "sweep",
        help="crash-safe parameter-space sweep: config x workload x "
             "fault, resumable from its write-ahead result log",
    )
    sw.add_argument("rundir", metavar="RUNDIR",
                    help="run directory (manifest + append-only results + "
                         "sweep report); resume with --resume RUNDIR")
    sw.add_argument("--configs", nargs="+",
                    default=["jbod", "raid1", "raid5"],
                    help="configuration axis (default: jbod raid1 raid5)")
    sw.add_argument("--workloads", nargs="+", default=[],
                    metavar="NAME[:ARGS]",
                    help="named workload axis items: "
                         "btio[:CLASS[:NPROCS[:SUBTYPE]]] or "
                         "madbench[:KPIX[:NPROCS[:FILETYPE]]]")
    sw.add_argument("--workload-spec", nargs="+", default=[], metavar="SPEC",
                    help="declarative spec files added to the workload axis "
                         "(inlined into the plan, so the run directory "
                         "resumes without them)")
    sw.add_argument("--fuzz-seeds", nargs="+", type=int, default=[],
                    metavar="SEED",
                    help="`repro workload fuzz` seeds added to the "
                         "workload axis")
    sw.add_argument("--faults", nargs="+", default=["none"],
                    metavar="FILE|none",
                    help="fault axis: 'none' and/or fault-schedule JSON "
                         "files (default: none)")
    sw.add_argument("--quick", action="store_true",
                    help="small characterization sweep per config (CI-sized)")
    sw.add_argument("--block-step", type=_positive_int, default=3,
                    help="stride through the 32K..16M block sweep (full mode)")
    sw.add_argument("--ior-gib", type=_positive_int, default=2,
                    help="IOR file size in GiB (full mode)")
    sw.add_argument("--jobs", type=_positive_int, default=None,
                    help="sweep worker processes (default: 1, or the "
                         "manifest's value on resume)")
    sw.add_argument("--timeout", type=_positive_float, default=None, metavar="S",
                    help="per-task wall-clock budget in seconds (default 300)")
    sw.add_argument("--retries", type=_positive_int, default=None, metavar="N",
                    help="attempts per task before quarantine (default 3)")
    sw.add_argument("--backoff", type=_non_negative_float, default=None, metavar="S",
                    help="base retry backoff in seconds (default 0.5)")
    sw.add_argument("--seed", type=int, default=None,
                    help="backoff-jitter seed (default 0; results never "
                         "depend on it)")
    sw.add_argument("--resume", action="store_true",
                    help="continue an interrupted run from its WAL")
    sw.add_argument("--verify", action="store_true",
                    help="only replay and verify the WAL against the "
                         "manifest; no execution")
    sw.add_argument("--retry-quarantined", action="store_true",
                    help="with --resume: re-attempt quarantined tasks")
    sw.add_argument("--sanitize", action="store_true",
                    help="pin the runtime sim-sanitizer on in every task")
    sw.add_argument("--no-phase-fastpath", action="store_true",
                    help="pin phase-replay extrapolation off in every task")
    sw.set_defaults(func=cmd_sweep)

    wl = sub.add_parser("workload", help="validate/compile declarative "
                                         "workload spec files")
    wsub = wl.add_subparsers(dest="wcommand", required=True)
    wv = wsub.add_parser("validate", help="validate spec files against the "
                                          "workload grammar")
    wv.add_argument("files", nargs="+", metavar="SPEC",
                    help="spec files (JSON or YAML)")
    wv.add_argument("--skip-foreign", action="store_true",
                    help="skip files that are valid JSON/YAML but not "
                         "workload specs (e.g. fault schedules)")
    wv.set_defaults(func=cmd_workload)
    wc = wsub.add_parser("compile", help="print the compiled phase program "
                                         "of one spec file")
    wc.add_argument("file", metavar="SPEC")
    wc.add_argument("--json", action="store_true",
                    help="emit the canonical JSON form instead of a table")
    wc.set_defaults(func=cmd_workload)
    wf = wsub.add_parser("fuzz", help="generate seeded random-walk specs "
                                      "over the grammar (race-matrix corpus)")
    wf.add_argument("--n", type=_positive_int, default=1,
                    help="number of specs (seeds seed..seed+n-1; default 1)")
    wf.add_argument("--seed", type=int, default=0,
                    help="base seed; each spec is a pure function of its seed")
    wf.add_argument("--max-phases", type=_positive_int, default=6,
                    help="maximum top-level phase/loop nodes per spec")
    wf.add_argument("--out", default=None, metavar="DIR",
                    help="write each spec as DIR/<name>.json instead of stdout")
    wf.set_defaults(func=cmd_workload)

    ln = sub.add_parser("lint", help="simlint static checks (determinism, "
                                     "units, serve-path shape, "
                                     "schedule races)")
    ln.add_argument("paths", nargs="*", default=["src"],
                    help="files or directories to lint (default: src)")
    ln.add_argument("--format", choices=["text", "json"], default="text")
    ln.add_argument("--rules", nargs="+", default=None, metavar="RULE",
                    help="restrict to these rules (simlint and/or "
                         "schedule-race rule names)")
    ln.set_defaults(func=cmd_lint)

    rc = sub.add_parser(
        "race",
        help="differential schedule-race matrix: sanitizer x seeded "
             "tie-break perturbations",
    )
    workload(rc)
    rc.add_argument("--config", default="jbod",
                    help="cluster configuration for the matrix (default: jbod)")
    rc.add_argument("--quick", action="store_true",
                    help="CI-sized cells: no sanitizer axis, small "
                         "characterization sweep")
    rc.add_argument("--seeds", nargs="+", type=int, default=[0],
                    help="seeds for the shuffled tie-break plans (default: 0)")
    rc.add_argument("--tol", type=_non_negative_float, default=0.02,
                    help="timing-sensitivity tolerance (default: 0.02)")
    rc.add_argument("--out", default=None, metavar="FILE",
                    help="write the repro.race-report/1 JSON to FILE")
    rc.set_defaults(func=cmd_race)
    return p


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "sanitize", False):
        import os

        # propagate to pool worker processes
        os.environ["REPRO_SANITIZE"] = "1"
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
