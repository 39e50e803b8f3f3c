"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``analyze <workload>``
    Run the full toolkit on a named workload and print the paper-style
    reports (carried misses, Table II breakdown, fragmentation,
    recommendations).  Optionally export XML with ``--xml PATH``.
``measure <app>``
    Measure every variant of an application under the simulator + timing
    model (the Fig 8 / Fig 11 harness).
``sweep <app>``
    Run an analyze-mode parameter sweep (one task per ``--mesh`` /
    ``--micell`` value) under the fault-tolerant driver: bounded retries
    (``--retries``), per-task deadlines (``--timeout``), and a durable
    checkpoint journal (``--checkpoint`` + ``--resume``) that restarts a
    killed sweep from the last completed task.  ``--shards K`` analyzes
    each task as K time shards inside the task's worker.
``stats <manifest.json>``
    Pretty-print a manifest saved by ``analyze --manifest-out`` or
    ``sweep --manifest-out`` (the sweep form is detected automatically).
``serve``
    Run the analysis job server (:mod:`repro.service`): HTTP/JSON job
    submission with per-tenant quotas, a durable job store under
    ``--state-dir``, and content-addressed artifacts.  Stop with
    SIGINT/SIGTERM; a restart resumes the queue.
``jobs list``
    Inspect a service job store: each record's state and its resume
    and crash counters.
``gc``
    One garbage-collection pass (:mod:`repro.tools.gc`) over the
    analysis cache, trace stores and service job records: expire
    terminal jobs past ``--keep-days``, evict the coldest unpinned
    cache entries and trace stores until they fit ``--max-gb``, and
    remove the artifact blobs no surviving job pins.
``list``
    Show the available workloads and variants.

Observability: ``analyze --profile`` prints the run's phase/metric
summary, ``--trace-out FILE`` writes the JSONL span log,
``--manifest-out FILE`` saves the run manifest; ``-v``/``-q`` raise or
lower ``repro`` logger verbosity for any command.

Examples
--------
::

    python -m repro list
    python -m repro analyze sweep3d --mesh 8
    python -m repro analyze gtc --micell 4 --xml gtc.xml
    python -m repro analyze fig1
    python -m repro measure sweep3d --mesh 8
    python -m repro measure gtc --micell 4 --jobs 4
    python -m repro analyze sweep3d --no-cache
    python -m repro analyze sweep3d --engine numpy
    python -m repro analyze sweep3d --shards 4
    python -m repro analyze sweep3d --profile --manifest-out run.json
    python -m repro stats run.json
    python -m repro sweep sweep3d --mesh 6 8 10 --jobs 2
    python -m repro sweep sweep3d --mesh 6 8 10 --checkpoint sweep.ckpt
    python -m repro sweep sweep3d --mesh 6 8 10 --checkpoint sweep.ckpt --resume
    python -m repro serve --state-dir /tmp/repro-svc --workers 2
    python -m repro gc --state-dir /tmp/repro-svc --keep-days 14 --max-gb 2
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Callable, Dict, Optional

from repro import obs
from repro.apps.registry import WORKLOADS, build_workload
from repro.obs.manifest import RunManifest

# Each command imports what it runs inside its handler, so `repro
# --help` and `repro list` load neither the engines nor the sweep tier.


def _size_overrides(name: str, args) -> Dict[str, int]:
    # the registry owns defaults; analyze only overrides the sizing
    # knobs it exposes as flags
    overrides = {}
    if name == "sweep3d":
        overrides["mesh"] = args.mesh
    elif name == "gtc":
        overrides["micell"] = args.micell
    elif name == "cg" and getattr(args, "grid", None) is not None:
        overrides["grid"] = args.grid
    return overrides


def _build(name: str, args) -> "Program":
    try:
        return build_workload(name, **_size_overrides(name, args))
    except ValueError as exc:
        raise SystemExit(f"{exc}; see `python -m repro list`")


def cmd_list(_args) -> int:
    from repro.apps.gtc import VARIANTS as GTC_VARIANTS
    from repro.apps.sweep3d import VARIANTS as SWEEP_VARIANTS

    print("workloads (analyze):")
    for name, desc in WORKLOADS.items():
        print(f"  {name:<10} {desc}")
    print()
    print("apps (measure) and their variants:")
    print(f"  sweep3d    {', '.join(SWEEP_VARIANTS)}")
    print(f"  gtc        {', '.join(v.name for v in GTC_VARIANTS)}")
    return 0


def cmd_analyze(args) -> int:
    if args.trace_dir is None and args.spill_mb is not None:
        # --spill-mb alone still spills; the store lands in a throwaway
        # directory, removed when the command ends (on error too)
        import tempfile
        with tempfile.TemporaryDirectory(prefix="repro-trace-") as tmp:
            return _analyze(args, tmp)
    return _analyze(args, args.trace_dir)


def _analyze(args, trace_dir) -> int:
    from repro.tools.cache import AnalysisCache
    from repro.tools.session import AnalysisSession

    if args.profile or args.trace_out or args.manifest_out:
        obs.set_enabled(True)
    if args.closed_form and args.engine != "static":
        raise SystemExit("--closed-form requires --engine static")
    program = _build(args.workload, args)
    cache = None if args.no_cache else AnalysisCache()
    cf_spec = None
    if args.closed_form:
        cf_spec = {"workload": args.workload,
                   "params": _size_overrides(args.workload, args)}
    session = AnalysisSession(program, cache=cache, engine=args.engine,
                              shards=args.shards, trace_store=trace_dir,
                              spill_mb=args.spill_mb,
                              closed_form=args.closed_form,
                              closed_form_spec=cf_spec)
    if args.closed_form:
        print(f"estimating {program.name} from its closed-form "
              "derivation (no execution, no enumeration) ...",
              file=sys.stderr)
    elif args.engine == "static":
        print(f"estimating {program.name} analytically (no execution) ...",
              file=sys.stderr)
    elif args.shards > 1:
        print(f"running {program.name} under instrumentation "
              f"({args.shards} time shards) ...", file=sys.stderr)
    else:
        print(f"running {program.name} under instrumentation ...",
              file=sys.stderr)
    session.run()
    if session.from_cache:
        print("(restored from analysis cache)", file=sys.stderr)
    if session.trace_path:
        print(f"(recorded into trace store {session.trace_path})",
              file=sys.stderr)
    print(session.config)
    print()
    totals = {k: round(v) for k, v in session.totals().items()}
    print(f"predicted misses: {totals}")
    print()
    print(session.render_carried(n=6))
    print(session.render_table2(args.level, top_scopes=5))
    print()
    print(session.render_fragmentation(args.level, n=6))
    print()
    print(session.viewer.render_arrays(n=8))
    print()
    print(session.render_recommendations(args.level, top_n=6))
    if args.xml:
        session.export_xml(args.xml)
        print(f"\nXML database written to {args.xml}")
    if args.html:
        session.export_html(args.html)
        print(f"HTML report written to {args.html}")
    if args.profile:
        print()
        print(session.manifest.render())
    if args.manifest_out:
        session.manifest.save(args.manifest_out)
        print(f"run manifest written to {args.manifest_out}",
              file=sys.stderr)
    if args.trace_out:
        obs.tracer().write_jsonl(args.trace_out)
        print(f"trace spans written to {args.trace_out}", file=sys.stderr)
    return 0


def cmd_stats(args) -> int:
    import json
    with open(args.file) as handle:
        data = json.load(handle)
    if data.get("kind") == "sweep":
        from repro.tools.sweep import render_sweep_manifest
        print(render_sweep_manifest(data))
    else:
        print(RunManifest.from_dict(data).render())
    return 0


def _sweep_tasks(args) -> list:
    """One analyze task per swept size (``ValueError`` on options no
    task can run)."""
    from repro.apps.gtc import GTCParams, build_gtc
    from repro.apps.sweep3d import SweepParams, build_original
    from repro.tools.sweep import SweepTask

    tasks = []
    if args.app == "sweep3d":
        for n in args.mesh:
            tasks.append(SweepTask(
                key=f"sweep3d-n{n}", builder=build_original,
                args=(SweepParams(n=n),), engine=args.engine,
                shards=args.shards, cache_dir=args.cache_dir,
                trace_dir=args.trace_dir, spill_mb=args.spill_mb,
                closed_form=({"workload": "sweep3d",
                              "params": {"mesh": n}}
                             if args.closed_form else None)))
    elif args.app == "gtc":
        for m in args.micell:
            tasks.append(SweepTask(
                key=f"gtc-m{m}", builder=build_gtc,
                args=(None, GTCParams(micell=m)), engine=args.engine,
                shards=args.shards, cache_dir=args.cache_dir,
                trace_dir=args.trace_dir, spill_mb=args.spill_mb,
                closed_form=({"workload": "gtc",
                              "params": {"micell": m}}
                             if args.closed_form else None)))
    else:
        raise SystemExit(f"unknown app {args.app!r}; use sweep3d or gtc")
    return tasks


def cmd_sweep(args) -> int:
    import os

    from repro.tools.resilience import RetryPolicy
    from repro.tools.sweep import run_sweep

    if args.manifest_out:
        obs.set_enabled(True)
    if args.resume and not args.checkpoint:
        raise SystemExit("--resume requires --checkpoint PATH")
    if args.checkpoint:
        exists = os.path.exists(args.checkpoint)
        if exists and not args.resume:
            raise SystemExit(
                f"checkpoint {args.checkpoint!r} already exists; pass "
                "--resume to continue it or remove the file to start over")
        if args.resume and not exists:
            raise SystemExit(
                f"nothing to resume: checkpoint {args.checkpoint!r} "
                "does not exist")
    if args.closed_form and args.engine != "static":
        raise SystemExit("--closed-form requires --engine static")
    try:
        tasks = _sweep_tasks(args)
    except ValueError as exc:
        # an impossible option combination is a usage error, raised
        # before any task runs
        print(f"repro sweep: error: {exc}", file=sys.stderr)
        raise SystemExit(2)
    policy = RetryPolicy(retries=args.retries, timeout=args.timeout)
    print(f"sweeping {len(tasks)} {args.app} task(s) "
          f"(jobs={args.jobs}, retries={args.retries}"
          + (f", timeout={args.timeout:g}s" if args.timeout else "")
          + (f", checkpoint={args.checkpoint}" if args.checkpoint else "")
          + ") ...", file=sys.stderr)
    outcomes = run_sweep(tasks, jobs=args.jobs, retry=policy,
                         checkpoint=args.checkpoint,
                         manifest_out=args.manifest_out)
    levels = ("L1", "L2", "L3", "TLB")
    print(f"{'key':<16}{'status':<22}{'retries':>8}"
          + "".join(f"{lv:>12}" for lv in levels))
    print("-" * (46 + 12 * len(levels)))
    failed = 0
    for out in outcomes:
        if out.failed:
            failed += 1
            status = f"FAILED [{out.error_kind}]"
            cells = "".join(f"{'-':>12}" for _ in levels)
        else:
            status = "cache hit" if out.from_cache else "ok"
            cells = "".join(f"{round(out.totals.get(lv, 0)):>12}"
                            for lv in levels)
        print(f"{str(out.key)[:15]:<16}{status:<22}{out.retries:>8}"
              + cells)
    for out in outcomes:
        if out.failed:
            print(f"\n{out.key}: {out.error.splitlines()[0]}",
                  file=sys.stderr)
    if args.manifest_out:
        print(f"sweep manifest written to {args.manifest_out}",
              file=sys.stderr)
    return 1 if failed else 0


def cmd_serve(args) -> int:
    import asyncio
    import signal

    from repro.service.quota import TenantQuota
    from repro.service.server import ServiceConfig, serve_forever

    quotas = {}
    for spec in args.quota or []:
        tenant, _, rest = spec.partition("=")
        concurrent, _, queued = rest.partition(":")
        try:
            quotas[tenant] = TenantQuota(int(concurrent), int(queued))
        except ValueError:
            raise SystemExit(f"bad --quota {spec!r}; expected "
                             "TENANT=CONCURRENT:QUEUED")
    config = ServiceConfig(
        state_dir=args.state_dir, host=args.host, port=args.port,
        workers=args.workers,
        default_quota=TenantQuota(args.max_concurrent, args.max_queued),
        tenant_quotas=quotas,
        max_request_bytes=args.max_request_kb * 1024,
        fsync=args.fsync,
        keepalive_max_requests=args.keepalive_requests,
        keepalive_idle_s=args.keepalive_idle,
        walltime_s=args.walltime,
        max_rss_mb=args.max_rss_mb,
        heartbeat_s=args.heartbeat,
        heartbeat_timeout_s=args.heartbeat_timeout,
        kill_grace_s=args.kill_grace,
        poison_threshold=args.poison_threshold,
        queue_max=args.queue_max,
        max_inflight_rss_mb=args.max_inflight_rss_mb,
        drain_timeout_s=args.drain_timeout)

    async def _run() -> None:
        shutdown = asyncio.Event()
        loop = asyncio.get_running_loop()
        for sig in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(sig, shutdown.set)
        await serve_forever(config, shutdown)

    print(f"analysis service: state dir {args.state_dir}, "
          f"{args.workers} worker(s); stop with SIGINT/SIGTERM",
          file=sys.stderr)
    asyncio.run(_run())
    return 0


def _state_dir(path: str) -> str:
    """``path``, which must exist: a typo must not become a new store."""
    if not os.path.isdir(path):
        raise SystemExit(f"repro: no state dir {path!r}")
    return path


def cmd_gc(args) -> int:
    from repro.tools.gc import collect

    if args.state_dir:
        _state_dir(args.state_dir)
    elif args.keep_days is not None:
        raise SystemExit("repro gc: --keep-days needs --state-dir")
    budget = None if args.max_gb is None else int(args.max_gb * 1024 ** 3)
    result = collect(args.state_dir, args.cache_dir, args.trace_dir,
                     max_bytes=budget, keep_days=args.keep_days,
                     dry_run=args.dry_run)
    mib = 1024.0 ** 2
    tag = " (dry run)" if args.dry_run else ""
    print(f"gc{tag}: removed {len(result.removed)} item(s), "
          f"{result.freed_bytes / mib:.1f} MiB")
    for kind, path, _size in result.removed:
        print(f"  - {kind:<5} {path}")
    print(f"  cache entries + trace stores: "
          f"{result.budgeted_before / mib:.1f} -> "
          f"{result.budgeted_after / mib:.1f} MiB")
    if budget is not None and result.budgeted_after > budget:
        print(f"  still {(result.budgeted_after - budget) / mib:.1f} MiB "
              "over budget: pinned entries and stores are never evicted",
              file=sys.stderr)
    return 0


def cmd_jobs(args) -> int:
    from repro.service.jobs import JobStore

    store = JobStore(_state_dir(args.state_dir))
    store.recover()
    fmt = "{:<14} {:<10} {:<14} {:<10} {:>7} {:>7}"
    print(fmt.format("JOB", "TENANT", "STATE", "WORKLOAD", "RESUMED",
                     "CRASHES"))
    for job in sorted(store.jobs.values(), key=lambda j: (j.created, j.id)):
        print(fmt.format(job.id, job.tenant, job.state, job.spec.workload,
                         job.resumed, job.crashes))
        if job.error:
            print(f"    error: {job.error}")
    return 0


def cmd_validate(args) -> int:
    from repro.static.validate import (
        VALIDATION_MATRIX, render, run_matrix, validate_workload,
    )

    if args.workload:
        params = {}
        for item in args.param or []:
            key, _, value = item.partition("=")
            if not _:
                raise SystemExit(f"--param expects KEY=VALUE, got {item!r}")
            params[key] = int(value)
        reports = [validate_workload(args.workload, params,
                                     tolerance=args.tolerance,
                                     closed_form=args.closed_form)]
    else:
        matrix = VALIDATION_MATRIX
        if args.quick:
            # one (small) size per workload keeps the CI smoke fast
            seen, matrix = set(), []
            for name, params in VALIDATION_MATRIX:
                if name not in seen:
                    seen.add(name)
                    matrix.append((name, params))
        reports = run_matrix(matrix, tolerance=args.tolerance,
                             closed_form=args.closed_form)
    print(render(reports))
    return 0 if all(r.passed for r in reports) else 1


def cmd_measure(args) -> int:
    from repro.apps.gtc import GTCParams, VARIANTS as GTC_VARIANTS, build_gtc
    from repro.apps.sweep3d import (
        SweepParams, VARIANTS as SWEEP_VARIANTS, build_variant,
    )
    from repro.tools.sweep import SweepTask, run_sweep

    tasks = []
    if args.app == "sweep3d":
        params = SweepParams(n=args.mesh)
        unit = params.cells * params.timesteps
        unit_name = "cell"
        for name in SWEEP_VARIANTS:
            tasks.append(SweepTask(key=name, builder=build_variant,
                                   args=(name, params), mode="measure",
                                   measure_kwargs={"name": name}))
    elif args.app == "gtc":
        params = GTCParams(micell=args.micell)
        unit = params.micell * params.timesteps
        unit_name = "micell"
        for variant in GTC_VARIANTS:
            fused = ("pushi", "gcmotion") if variant.pushi_tiled else ()
            tasks.append(SweepTask(
                key=variant.name, builder=build_gtc, args=(variant, params),
                mode="measure",
                measure_kwargs={"name": variant.name,
                                "fused_routines": fused}))
    else:
        raise SystemExit(f"unknown app {args.app!r}; use sweep3d or gtc")
    rows = [(out.key, out.result)
            for out in run_sweep(tasks, jobs=args.jobs)]
    print(f"{'variant':<24}{'L2/' + unit_name:>10}{'L3/' + unit_name:>10}"
          f"{'TLB/' + unit_name:>11}{'cycles/' + unit_name:>14}")
    print("-" * 69)
    for name, result in rows:
        print(f"{name:<24}"
              f"{result.misses['L2'] / unit:>10.1f}"
              f"{result.misses['L3'] / unit:>10.1f}"
              f"{result.misses['TLB'] / unit:>11.1f}"
              f"{result.total_cycles / unit:>14.1f}")
    first, last = rows[0][1], rows[-1][1]
    print("-" * 69)
    print(f"speedup {rows[0][0]} -> {rows[-1][0]}: "
          f"{first.total_cycles / last.total_cycles:.2f}x")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reuse-distance locality analysis toolkit "
                    "(Marin & Mellor-Crummey, ISPASS 2008 reproduction)",
    )
    parser.add_argument("-v", "--verbose", action="count", default=0,
                        help="more logging (-v info, -vv debug)")
    parser.add_argument("-q", "--quiet", action="count", default=0,
                        help="less logging (errors only)")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list workloads and variants")

    analyze = sub.add_parser("analyze", help="run the analysis toolkit")
    analyze.add_argument("workload", choices=sorted(WORKLOADS))
    analyze.add_argument("--mesh", type=int, default=8,
                         help="Sweep3D cubic mesh extent")
    analyze.add_argument("--micell", type=int, default=6,
                         help="GTC particles per cell")
    analyze.add_argument("--grid", type=int, default=None,
                         help="CG grid extent (default: the registry's)")
    analyze.add_argument("--level", default="L2",
                         choices=("L2", "L3", "TLB"),
                         help="level for the detailed reports")
    analyze.add_argument("--engine", default="numpy",
                         choices=("fenwick", "treap", "numpy", "static"),
                         help="reuse-distance engine (numpy = windowed "
                              "array path, the default; fenwick = the "
                              "per-access reference, whose batched runs "
                              "also go through the numpy path; results "
                              "are identical; static = analytical "
                              "estimate without executing the program)")
    analyze.add_argument("--closed-form", action="store_true",
                         help="with --engine static: evaluate the "
                              "cached closed-form derivation instead of "
                              "enumerating (byte-identical state)")
    analyze.add_argument("--shards", type=int, default=1, metavar="K",
                         help="analyze the run as K parallel time "
                              "shards (results are byte-identical to "
                              "a sequential run)")
    analyze.add_argument("--trace-dir", metavar="DIR",
                         help="spill a recording to a columnar trace "
                              "store under DIR; shards read it via "
                              "mmap.  Only runs that record write one: "
                              "a program the static enumeration accepts "
                              "is cut from its segment table instead")
    analyze.add_argument("--spill-mb", type=float, default=None,
                         metavar="MB",
                         help="in-memory buffer bound for a spilled "
                              "recording (default 64; implies a "
                              "temporary --trace-dir if none is given)")
    analyze.add_argument("--xml", metavar="PATH",
                         help="also export the XML database")
    analyze.add_argument("--html", metavar="PATH",
                         help="also write a self-contained HTML report")
    analyze.add_argument("--no-cache", action="store_true",
                         help="skip the on-disk analysis cache")
    analyze.add_argument("--profile", action="store_true",
                         help="print the run's phase/metric summary")
    analyze.add_argument("--trace-out", metavar="PATH",
                         help="write the JSONL trace-span log")
    analyze.add_argument("--manifest-out", metavar="PATH",
                         help="save the run manifest as JSON")

    meas = sub.add_parser("measure", help="measure app variants (Fig 8/11)")
    meas.add_argument("app", choices=("sweep3d", "gtc"))
    meas.add_argument("--mesh", type=int, default=8)
    meas.add_argument("--micell", type=int, default=6)
    meas.add_argument("--jobs", type=int, default=1, metavar="N",
                      help="worker processes for the variant sweep")

    sweep = sub.add_parser("sweep", help="fault-tolerant analysis sweep")
    sweep.add_argument("app", choices=("sweep3d", "gtc"))
    sweep.add_argument("--mesh", type=int, nargs="+", default=[6, 8],
                       metavar="N", help="Sweep3D mesh extents to sweep")
    sweep.add_argument("--micell", type=int, nargs="+", default=[2, 4],
                       metavar="M", help="GTC particles-per-cell values")
    sweep.add_argument("--jobs", type=int, default=1, metavar="N",
                       help="worker processes (each runs whole tasks)")
    sweep.add_argument("--shards", type=int, default=1, metavar="K",
                       help="analyze each task as K time shards, one "
                            "after another in the task's worker "
                            "(byte-identical to K=1)")
    sweep.add_argument("--trace-dir", metavar="DIR",
                       help="spill a task's recording to a columnar "
                            "trace store under DIR; its shards read "
                            "it via mmap.  Only tasks that record write "
                            "one: a program the static enumeration "
                            "accepts is cut from its segment table")
    sweep.add_argument("--spill-mb", type=float, default=None,
                       metavar="MB",
                       help="in-memory buffer bound for trace-store "
                            "recordings (default 64; needs --trace-dir)")
    sweep.add_argument("--engine", default="numpy",
                       choices=("fenwick", "treap", "numpy", "static"),
                       help="reuse-distance engine, as for analyze")
    sweep.add_argument("--closed-form", action="store_true",
                       help="with --engine static: derive the "
                            "closed-form profile once parent-side and "
                            "evaluate it at every sweep size")
    sweep.add_argument("--cache-dir", metavar="DIR",
                       help="analysis cache directory (default: no cache)")
    sweep.add_argument("--retries", type=int, default=2, metavar="N",
                       help="retry budget per task (transient/crashed "
                            "failures only)")
    sweep.add_argument("--timeout", type=float, default=None, metavar="S",
                       help="per-task wall-clock deadline in seconds")
    sweep.add_argument("--checkpoint", metavar="PATH",
                       help="durable journal of completed tasks")
    sweep.add_argument("--resume", action="store_true",
                       help="continue an existing --checkpoint journal")
    sweep.add_argument("--manifest-out", metavar="PATH",
                       help="save the sweep roll-up manifest as JSON")

    stats = sub.add_parser("stats", help="pretty-print a saved manifest")
    stats.add_argument("file", metavar="MANIFEST",
                       help="JSON file from `analyze --manifest-out` or "
                            "`sweep --manifest-out`")

    serve = sub.add_parser("serve", help="run the analysis job server")
    serve.add_argument("--state-dir", required=True, metavar="DIR",
                       help="durable service state: job dirs (spec "
                            "and record per job), shared cache, trace "
                            "stores")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=0,
                       help="listen port (0 = pick a free one; the "
                            "choice lands in <state-dir>/service.json)")
    serve.add_argument("--workers", type=int, default=2, metavar="N",
                       help="job processes to run concurrently")
    serve.add_argument("--max-concurrent", type=int, default=2,
                       metavar="N",
                       help="default per-tenant running-job quota")
    serve.add_argument("--max-queued", type=int, default=16, metavar="N",
                       help="default per-tenant queued-job quota "
                            "(exceeding it returns 429)")
    serve.add_argument("--max-request-kb", type=int, default=256,
                       metavar="KB",
                       help="largest accepted request body")
    serve.add_argument("--quota", action="append", metavar="T=C:Q",
                       help="per-tenant override, e.g. ci=4:64 "
                            "(repeatable)")
    serve.add_argument("--fsync", action="store_true",
                       help="fsync every job-record write")
    serve.add_argument("--keepalive-requests", type=int, default=100,
                       metavar="N",
                       help="requests served per connection before the "
                            "server closes it (1 = one request per "
                            "connection)")
    serve.add_argument("--keepalive-idle", type=float, default=5.0,
                       metavar="S",
                       help="close kept-alive connections idle for S "
                            "seconds")
    serve.add_argument("--walltime", type=float, default=0.0,
                       metavar="S",
                       help="kill jobs running longer than S seconds "
                            "(0 = no ceiling)")
    serve.add_argument("--max-rss-mb", type=float, default=0.0,
                       metavar="MB",
                       help="kill workers whose heartbeat reports more "
                            "resident MiB than this (0 = no ceiling)")
    serve.add_argument("--heartbeat", type=float, default=0.5,
                       metavar="S",
                       help="worker heartbeat period (status.json "
                            "re-stamp)")
    serve.add_argument("--heartbeat-timeout", type=float, default=30.0,
                       metavar="S",
                       help="kill workers silent for S seconds "
                            "(0 = never)")
    serve.add_argument("--kill-grace", type=float, default=5.0,
                       metavar="S",
                       help="SIGTERM -> SIGKILL escalation grace")
    serve.add_argument("--poison-threshold", type=int, default=3,
                       metavar="N",
                       help="worker-killing crashes before a job is "
                            "quarantined as failed_poison")
    serve.add_argument("--queue-max", type=int, default=0, metavar="N",
                       help="total queued jobs (all tenants) before "
                            "submissions shed with 503 (0 = unbounded)")
    serve.add_argument("--max-inflight-rss-mb", type=float, default=0.0,
                       metavar="MB",
                       help="summed worker RSS before submissions shed "
                            "with 503 (0 = disabled)")
    serve.add_argument("--drain-timeout", type=float, default=30.0,
                       metavar="S",
                       help="on SIGTERM, let running jobs finish for "
                            "up to S seconds before interrupting them "
                            "(0 = interrupt immediately)")

    val = sub.add_parser("validate", help="cross-validate the static "
                                          "engine against a dynamic run")
    val.add_argument("workload", nargs="?", choices=sorted(WORKLOADS),
                     help="validate one workload (default: the full "
                          "matrix of paper applications)")
    val.add_argument("--param", action="append", metavar="KEY=VALUE",
                     help="workload size parameter, e.g. mesh=8 "
                          "(repeatable; requires a workload)")
    val.add_argument("--quick", action="store_true",
                     help="one size per workload instead of the full "
                          "matrix (CI smoke)")
    val.add_argument("--closed-form", action="store_true",
                     help="additionally evaluate the closed-form "
                          "derivation at each size and check it is "
                          "byte-identical to the enumerated state")
    val.add_argument("--tolerance", type=float, default=0.10, metavar="R",
                     help="largest accepted per-band relative error on "
                          "bands holding >=2%% of the mass")

    jobs = sub.add_parser("jobs", help="service job-store inspection")
    jobs_sub = jobs.add_subparsers(dest="jobs_command", required=True)
    jlist = jobs_sub.add_parser("list", help="list job records (state, "
                                             "resume/crash counters)")
    jlist.add_argument("--state-dir", required=True, metavar="DIR")

    gc = sub.add_parser("gc", help="one GC pass over the analysis cache, "
                                   "trace stores and service job records")
    gc.add_argument("--state-dir", metavar="DIR",
                    help="service state dir: covers its cache/, traces/ "
                         "and jobs/; job records pin their artifact "
                         "blobs, live jobs their trace stores")
    gc.add_argument("--cache-dir", metavar="DIR",
                    help="analysis cache (default: <state-dir>/cache; "
                         "with no dir at all, $REPRO_CACHE_DIR or "
                         "~/.cache/repro)")
    gc.add_argument("--trace-dir", metavar="DIR",
                    help="trace-store dir (default: <state-dir>/traces)")
    gc.add_argument("--max-gb", type=float, metavar="N",
                    help="evict the coldest unpinned cache entries and "
                         "trace stores until they fit N GiB")
    gc.add_argument("--keep-days", type=float, metavar="K",
                    help="expire terminal jobs finished more than K days "
                         "ago (live jobs are never touched)")
    gc.add_argument("--dry-run", action="store_true",
                    help="report without deleting")

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    obs.configure_logging(args.verbose - args.quiet)
    handlers: Dict[str, Callable] = {
        "list": cmd_list, "analyze": cmd_analyze, "measure": cmd_measure,
        "sweep": cmd_sweep, "stats": cmd_stats, "serve": cmd_serve,
        "validate": cmd_validate, "jobs": cmd_jobs, "gc": cmd_gc,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
