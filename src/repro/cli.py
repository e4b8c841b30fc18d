"""Command-line interface: ``xring`` (or ``python -m repro``).

Subcommands:

- ``synth``  — synthesize an XRing router for an N-node network and
  print its evaluation (optionally writing an SVG layout);
- ``table1`` / ``table2`` / ``table3`` — regenerate the paper's tables;
- ``ablation`` — the shortcut/opening feature matrix;
- ``sweep`` — power/SNR versus the wavelength budget;
- ``scale`` — the MILP-vs-heuristic scaling study beyond 32 nodes;
- ``batch`` — run a JSON case file through the batch-synthesis engine
  (``--progress`` streams per-case JSONL events to stderr);
- ``serve`` — run the resilient synthesis job service (HTTP + SSE,
  crash-safe job store, graceful SIGTERM drain, burn-rate SLO alerts,
  ``/federate`` fleet metrics);
- ``top`` — live terminal view of a running service (health, firing
  alerts, counter rates, latency percentiles, recent jobs);
- ``mine`` — robust median/MAD anomaly mining over the run ledger
  (exit 1 when a run was flagged; ``--promote`` writes
  fixture-candidate stubs);
- ``cache`` — inspect/maintain a durable L2 cache (``--cache-dir`` /
  ``--cache-nodes``): stats, anti-entropy scrub, size-bounded gc;
- ``cache-node`` — run one sharded-cache node (a persistent
  content-addressed store behind HTTP);
- ``regress`` — compare recent ledger runs against a baseline and exit
  nonzero on a perf/quality regression;
- ``report`` — render ledger entries as a markdown/HTML report;
- ``trace`` — inspect a ``trace.jsonl`` file: per-stage rollup, the
  top-N slowest spans, stitch summary, Chrome re-export.

``synth`` and ``batch`` also take ``--profile-dir DIR`` to run under
the zero-dep sampling profiler and drop ``profile.collapsed`` (feed to
flamegraph.pl), ``profile.speedscope.json`` (drag into
https://www.speedscope.app) and ``profile.json`` (per-stage sample
attribution) next to the run.

Every experiment subcommand takes ``--workers N`` to fan synthesis out
over a process pool (results are input-ordered and identical to
``--workers 1``), and ``--history-dir DIR`` to append a run record to
the cross-run ledger (``.xring_history/`` by convention).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import time

from repro.analysis import evaluate_circuit
from repro.core import SynthesisOptions, XRingSynthesizer
from repro.network import Network
from repro.obs import (
    LOG_LEVELS,
    NULL_METRICS,
    NULL_TRACER,
    MetricsRegistry,
    ObsContext,
    RunArtifacts,
    RunLedger,
    RunRecord,
    Tracer,
    configure_logging,
    quality_from_evaluation,
    read_jsonl,
    to_openmetrics,
    use_obs,
)
from repro.photonics import NIKDAST_CROSSTALK, ORING_LOSSES
from repro.robustness import SynthesisError

#: ``command -> ledger kind`` for run-history recording (commands not
#: listed — regress/report/mine — never record themselves).
_HISTORY_KINDS = {
    "synth": "synth",
    "batch": "batch",
    "serve": "service",
    "table1": "experiment",
    "table2": "experiment",
    "table3": "experiment",
    "ablation": "experiment",
    "sweep": "experiment",
    "scale": "experiment",
}


def _make_network(num_nodes: int, placement_file: str = "") -> Network:
    if placement_file:
        return _load_placement(placement_file)
    from repro.service.jobs import network_from_spec

    return network_from_spec({"nodes": num_nodes})


def _load_placement(path: str) -> Network:
    """Load node positions (and optional traffic) from a JSON file.

    Expected shape: ``{"positions": [[x, y], ...],
    "traffic": [[src, dst], ...]?}`` — or a bare list of positions.
    """
    import json

    from repro.geometry import Point

    with open(path, encoding="utf-8") as handle:
        data = json.load(handle)
    if isinstance(data, list):
        positions, traffic = data, []
    else:
        positions = data["positions"]
        traffic = data.get("traffic", [])
    points = [Point(float(x), float(y)) for x, y in positions]
    pairs = [(int(s), int(d)) for s, d in traffic]
    return Network.from_positions(points, traffic=pairs)


def _split_nodes(text: str) -> list[str]:
    """``"host:1,host:2"`` → node list (empty string → no nodes)."""
    return [node.strip() for node in text.split(",") if node.strip()]


def _attach_l2(args: argparse.Namespace) -> None:
    """Attach the durable L2 cache when ``batch`` got ``--cache-dir`` /
    ``--cache-nodes`` (``serve`` wires its own through
    :class:`ServiceConfig`)."""
    cache_dir = getattr(args, "cache_dir", "")
    cache_nodes = _split_nodes(getattr(args, "cache_nodes", ""))
    if not cache_dir and not cache_nodes:
        return
    from repro.parallel.cache import configure_l2

    configure_l2(
        cache_dir,
        cache_nodes,
        replication=getattr(args, "cache_replication", 2),
    )


def _start_profiler(args: argparse.Namespace):
    """Start the sampling profiler when ``--profile-dir`` was passed."""
    if not getattr(args, "profile_dir", ""):
        return None
    from repro.obs import SamplingProfiler

    return SamplingProfiler(hz=args.profile_hz).start()


def _finish_profiler(profiler, args: argparse.Namespace) -> dict:
    """Stop, write the profile artifacts, return the stage attribution."""
    if profiler is None:
        return {}
    profiler.stop()
    attribution = profiler.stage_attribution()
    for path in profiler.write(args.profile_dir):
        print(f"profile written: {path}", file=sys.stderr)
    return attribution


def _cmd_synth(args: argparse.Namespace) -> int:
    network = _make_network(args.nodes, args.placement)
    options = SynthesisOptions(
        wl_budget=args.wl,
        ring_method=args.ring_method,
        enable_shortcuts=not args.no_shortcuts,
        enable_openings=not args.no_openings,
        pdn_mode=None if args.no_pdn else "internal",
        deadline_s=args.deadline,
        on_error=args.on_error,
        lazy_conflicts={"auto": None, "on": True, "off": False}[
            args.lazy_conflicts
        ],
    )
    profiler = _start_profiler(args)
    try:
        design = XRingSynthesizer(network, options).run()
    finally:
        if profiler is not None:
            profiler.stop()
    attribution = _finish_profiler(profiler, args)
    if attribution and design.report is not None:
        design.report.profile = attribution
    if args.trace_dir and design.report is not None:
        RunArtifacts(args.trace_dir).write(report=design.report)
    circuit = design.to_circuit(ORING_LOSSES, NIKDAST_CROSSTALK)
    evaluation = evaluate_circuit(
        circuit, ORING_LOSSES, NIKDAST_CROSSTALK, with_power=not args.no_pdn
    )
    args._history = {
        "label": f"synth-n{network.size}",
        "options": options,
        "quality": quality_from_evaluation(evaluation),
        "wall_s": design.synthesis_time_s,
    }
    if attribution:
        args._history["extra"] = {"profile": attribution}
    snr = "-" if evaluation.snr_worst_db is None else f"{evaluation.snr_worst_db:.1f} dB"
    print(f"XRing synthesis for {network.size} nodes")
    print(f"  ring length      : {design.tour.length_mm:.1f} mm")
    print(f"  ring waveguides  : {design.ring_count}")
    print(f"  shortcuts        : {design.shortcut_count}")
    print(f"  wavelengths      : {evaluation.wl_count}")
    print(f"  worst-case il    : {evaluation.il_w:.2f} dB")
    print(f"  worst path       : {evaluation.worst_length_mm:.1f} mm")
    print(f"  crossings (worst): {evaluation.worst_crossings}")
    if not args.no_pdn:
        print(f"  laser power      : {evaluation.power_w:.3f} W")
    print(f"  noisy signals    : {evaluation.noisy_signals}/{evaluation.signal_count}")
    print(f"  worst SNR        : {snr}")
    print(f"  synthesis time   : {design.synthesis_time_s:.2f} s")
    if design.report is not None and design.report.degraded:
        print(f"  degraded         : {design.report.summary()}")
    if args.svg:
        from repro.viz import render_design_svg

        with open(args.svg, "w", encoding="utf-8") as handle:
            handle.write(render_design_svg(design))
        print(f"  layout written   : {args.svg}")
    if args.ascii:
        from repro.viz import ascii_layout

        print(ascii_layout(design))
    if args.report:
        from repro.io import save_report

        save_report(args.report, design, evaluation)
        print(f"  report written   : {args.report}")
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    from repro.experiments import format_table1, run_table1

    for size in args.sizes:
        budgets = [size] if args.quick else None
        print(f"\n== Table I, {size}-node network ==")
        print(
            format_table1(run_table1(size, budgets=budgets, workers=args.workers))
        )
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    from repro.experiments import format_table2, run_table2

    budgets = (
        {size: [size, size + size // 2] for size in args.sizes} if args.quick else None
    )
    print(
        format_table2(
            run_table2(
                sizes=tuple(args.sizes), budgets=budgets, workers=args.workers
            )
        )
    )
    return 0


def _cmd_table3(args: argparse.Namespace) -> int:
    from repro.experiments import format_table3, run_table3

    budgets = [14, 16] if args.quick else None
    print(format_table3(run_table3(budgets=budgets, workers=args.workers)))
    return 0


def _cmd_ablation(args: argparse.Namespace) -> int:
    from repro.experiments import run_shortcut_ablation
    from repro.experiments.ablations import format_ablation

    print(format_ablation(run_shortcut_ablation(args.nodes, workers=args.workers)))
    return 0


def _cmd_scale(args: argparse.Namespace) -> int:
    from repro.experiments import format_scaling, run_scaling

    rows = run_scaling(
        sizes=tuple(args.sizes), milp_limit=args.milp_limit, workers=args.workers
    )
    print(format_scaling(rows))
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    from repro.experiments import run_wavelength_sweep
    from repro.viz import bar_chart

    rows = run_wavelength_sweep(
        args.nodes, kind=args.router, workers=args.workers
    )
    print(f"laser power vs #wl ({args.router}, {args.nodes} nodes)")
    print(bar_chart([(f"#wl={b}", row.power_w) for b, row in rows], unit=" W"))
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    """Run a JSON-described list of synthesis cases through the pool.

    The case file is either a list of case objects or
    ``{"cases": [...]}``; each case is a ``POST /jobs`` spec, parsed by
    :func:`repro.service.jobs.case_from_spec` (so a misspelled field
    is an error, not a default), plus one CLI-only key: ``placement``,
    a JSON placement file as for ``synth``.  Failures are retried per
    ``--retries`` and collected per case; the exit code is the number of failed
    cases (0 = all ok, 130 = interrupted).

    ``--journal`` checkpoints every finished case; Ctrl-C / SIGTERM
    cancels pending work, flushes the journal and the partial report,
    and exits 130 with a resume hint.  ``--resume <journal>`` skips
    the checkpointed cases and completes the rest.

    ``--progress`` streams the live supervisor event feed (case
    started / retried / quarantined / done, periodic heartbeats) to
    stderr as one JSON object per line, for tailing long batches.
    """
    import signal
    import threading

    from repro.obs import atomic_write_text
    from repro.parallel import BatchSynthesizer, SupervisorConfig
    from repro.service.jobs import case_from_spec

    if (
        args.resume
        and args.journal
        and os.path.abspath(args.resume) != os.path.abspath(args.journal)
    ):
        # Silently preferring one of the two would drop checkpoints into
        # an unexpected file; refuse and make the caller pick.
        print(
            "xring batch: --journal and --resume point at different files "
            f"({args.journal!r} vs {args.resume!r}); --resume already "
            "journals new checkpoints into the journal it resumes from, "
            "so pass only one of the two flags",
            file=sys.stderr,
        )
        return 2
    with open(args.cases, encoding="utf-8") as handle:
        data = json.load(handle)
    specs = data["cases"] if isinstance(data, dict) else data
    cases = []
    for index, spec in enumerate(specs):
        placement = spec.pop("placement", "") if isinstance(spec, dict) else ""
        case = case_from_spec(spec, index)
        if placement:
            case = dataclasses.replace(case, network=_load_placement(placement))
        cases.append(case)
    journal_path = args.resume or args.journal
    on_event = None
    if args.progress:

        def on_event(event: dict) -> None:
            print(json.dumps(event, sort_keys=True), file=sys.stderr, flush=True)

    config = SupervisorConfig(
        max_attempts=max(1, args.retries + 1),
        case_timeout_s=args.case_timeout,
        heartbeat_interval_s=1.0 if args.progress else 0.0,
    )
    synthesizer = BatchSynthesizer(
        workers=args.workers,
        on_error="collect",
        config=config,
        on_event=on_event,
        collect_spans=bool(args.trace_dir),
    )

    def _sigterm(signum, frame):  # graceful: same path as Ctrl-C
        raise KeyboardInterrupt

    previous_handler = None
    if threading.current_thread() is threading.main_thread():
        previous_handler = signal.signal(signal.SIGTERM, _sigterm)
    profiler = _start_profiler(args)
    try:
        try:
            report = synthesizer.run(cases, journal=journal_path)
        except KeyboardInterrupt:
            # Interrupted outside the supervisor loop (case loading,
            # Step 1-2 sharing): nothing partial to print beyond the hint.
            print("xring batch: interrupted", file=sys.stderr)
            if journal_path:
                print(
                    f"resume with: xring batch {args.cases} "
                    f"--resume {journal_path}",
                    file=sys.stderr,
                )
            return 130
    finally:
        if profiler is not None:
            profiler.stop()
        if previous_handler is not None:
            signal.signal(signal.SIGTERM, previous_handler)

    attribution = _finish_profiler(profiler, args)
    if args.trace_dir and report.span_records:
        # The batch trace (per-case worker spans, stitched across
        # processes) replaces the parent tracer's near-empty one.
        for path in report.write_artifacts(args.trace_dir):
            print(f"artifact written: {path}", file=sys.stderr)
        args._trace_written = True

    args._history = {
        "label": f"batch-{os.path.basename(args.cases)}",
        "supervisor": report.supervisor,
        "wall_s": report.total_elapsed_s,
        "extra": {
            "cases": len(report.results),
            "failures": len(report.errors),
            "quarantined": len(report.quarantined),
            "workers": report.workers,
        },
    }
    if attribution:
        args._history["extra"]["profile"] = attribution
    for result in report.results:
        if result.ok:
            status = "ok"
        elif result.interrupted:
            status = "INTERRUPTED"
        else:
            status = f"FAILED ({result.error})"
        if result.attempts > 1:
            status += f" [attempts={result.attempts}]"
        print(f"[{result.index:>3}] {result.label:<28}{result.elapsed_s:>8.2f}s  {status}")
    supervisor = report.supervisor
    print(
        f"{len(report.results)} cases, {len(report.errors)} failed, "
        f"{len(report.quarantined)} quarantined, "
        f"{supervisor.get('resumed', 0)} resumed, "
        f"workers={report.workers}, wall {report.total_elapsed_s:.2f}s"
    )
    if supervisor.get("retries") or supervisor.get("worker_restarts"):
        print(
            f"supervisor: {supervisor.get('retries', 0)} retries, "
            f"{supervisor.get('worker_restarts', 0)} worker restarts, "
            f"{supervisor.get('timeouts', 0)} timeouts, "
            f"{supervisor.get('crashes', 0)} crashes"
        )
    if report.circuit_opened:
        print(
            "circuit breaker tripped: recent cases failed systemically; "
            "pending cases were skipped",
            file=sys.stderr,
        )
    if args.out:
        payload = report.to_dict()
        payload["designs"] = [
            design.to_dict() if design is not None else None
            for design in report.designs
        ]
        atomic_write_text(args.out, json.dumps(payload, indent=2) + "\n")
        print(f"batch report written: {args.out}")
    if report.interrupted:
        print("xring batch: interrupted before completion", file=sys.stderr)
        if journal_path:
            print(
                f"resume with: xring batch {args.cases} --resume {journal_path}",
                file=sys.stderr,
            )
        else:
            print(
                "hint: pass --journal <path> next time to make interrupted "
                "runs resumable",
                file=sys.stderr,
            )
        return 130
    return min(len(report.errors), 125)


def _cmd_serve(args: argparse.Namespace) -> int:
    """Run the synthesis job service until SIGTERM/SIGINT.

    Binds the HTTP front end (``POST /jobs``, status, SSE progress,
    design retrieval, stitched job traces, the live dashboard,
    on-demand profiling, health/readiness, OpenMetrics), re-adopts any
    jobs a previous server life left in the store, and drains
    gracefully on the first signal: admission stops, in-flight jobs
    get ``--drain-timeout`` to finish, the store is compacted, and the
    exit code is 0 only when nothing had to be abandoned.
    """
    from repro.obs import NULL_METRICS, get_obs
    from repro.service import ServiceConfig, serve_forever

    config = ServiceConfig(
        host=args.host,
        port=args.port,
        store_dir=args.store,
        queue_limit=args.queue_limit,
        max_concurrency=args.concurrency,
        retries=args.retries,
        case_timeout_s=args.case_timeout,
        isolate_jobs=args.isolate,
        solver_workers=args.solver_workers,
        default_deadline_s=args.default_deadline,
        drain_timeout_s=args.drain_timeout,
        breaker_cooldown_s=args.breaker_cooldown,
        seed=args.seed,
        cache_dir=args.cache_dir,
        cache_nodes=tuple(_split_nodes(args.cache_nodes)),
        cache_replication=args.cache_replication,
        scrape_interval_s=args.scrape_interval,
        slo_availability=args.slo_availability,
        slo_latency_p99_s=args.slo_latency_p99,
        slo_window_s=args.slo_window,
        slo_burn_threshold=args.slo_burn_threshold,
        alert_log=args.alert_log,
    )
    # /metrics needs a real registry even when no --metrics/--trace-dir
    # flag forced one; reuse the session registry when it is real so
    # --history-dir records the service counters.
    registry = get_obs().metrics
    if registry is NULL_METRICS or not isinstance(registry, MetricsRegistry):
        registry = MetricsRegistry()
    report = serve_forever(config, metrics=registry)
    stats = report.get("stats", {})
    args._history = {
        "label": f"serve-{args.store}",
        "wall_s": stats.get("uptime_s", 0.0),
        "extra": {
            "jobs": stats.get("jobs", 0),
            "admitted": stats.get("admitted", 0),
            "done": stats.get("done", 0),
            "failed": stats.get("failed", 0),
            "dedup_hits": stats.get("dedup_hits", 0),
            "rejected_queue_full": stats.get("rejected_queue_full", 0),
            "adopted": stats.get("adopted", 0),
            "drain_s": report.get("drain_s"),
            "clean": report.get("clean"),
        },
    }
    print(
        f"xring serve: drained {'cleanly' if report.get('clean') else 'DIRTY'} "
        f"({stats.get('done', 0)} done, {stats.get('failed', 0)} failed, "
        f"{report.get('abandoned', 0)} abandoned, "
        f"{stats.get('dedup_hits', 0)} dedup hits)",
        file=sys.stderr,
    )
    return 0 if report.get("clean") else 1


def _cmd_cache(args: argparse.Namespace) -> int:
    """Inspect and maintain a durable L2 cache.

    ``stats`` prints the backend's counters and footprint; ``scrub``
    re-checksums every entry (quarantining corruption — exit 1 when
    any was found — and, in sharded mode, re-replicating
    under-replicated keys onto their live owners); ``gc`` LRU-evicts
    down to ``--max-bytes`` (per node in sharded mode).
    """
    nodes = _split_nodes(args.nodes)
    if bool(args.dir) == bool(nodes):
        print(
            "xring cache: pass exactly one of --dir or --nodes",
            file=sys.stderr,
        )
        return 2
    if nodes:
        from repro.parallel.shard import ShardClient

        backend = ShardClient(nodes, replication=args.replication)
    else:
        from repro.parallel.store import PersistentStore

        backend = PersistentStore(args.dir)
        if backend.disabled:
            print(
                f"xring cache: store {args.dir!r} is unusable", file=sys.stderr
            )
            return 2

    if args.action == "stats":
        print(json.dumps(backend.stats(), indent=2, sort_keys=True))
        return 0

    if args.action == "scrub":
        report = (
            backend.scrub(repair=not args.no_repair)
            if nodes
            else backend.verify()
        )
        print(json.dumps(report, indent=2, sort_keys=True))
        quarantined = int(report.get("quarantined", 0))
        if quarantined:
            print(
                f"xring cache: scrub quarantined {quarantined} corrupt "
                "entry(ies)",
                file=sys.stderr,
            )
            return 1
        return 0

    # gc
    if nodes:
        report = {}
        for node in nodes:
            try:
                report[node] = backend.node_json(
                    node, "POST", f"/gc?max_bytes={args.max_bytes}"
                )
            except OSError as exc:
                report[node] = {"error": str(exc)}
        print(json.dumps(report, indent=2, sort_keys=True))
        return 0
    print(json.dumps(backend.gc(args.max_bytes), indent=2, sort_keys=True))
    return 0


def _cmd_cache_node(args: argparse.Namespace) -> int:
    """Run one sharded-cache node until SIGTERM/SIGINT.

    A :class:`~repro.parallel.store.PersistentStore` over ``--dir``
    behind the zero-dep HTTP plumbing; the resolved ``host:port`` is
    published to ``<dir>/address`` (port 0 = ephemeral).
    """
    from repro.parallel.shard import serve_cache_node_forever

    stats = serve_cache_node_forever(args.dir, args.host, args.port)
    print(
        f"xring cache-node: stopped ({stats.get('entries', 0)} entries, "
        f"{stats.get('bytes', 0)} bytes on disk)",
        file=sys.stderr,
    )
    return 0


def _load_baseline_file(path: str) -> list:
    """Load baseline records from a standalone JSONL file.

    The file holds one :class:`RunRecord` JSON object per line — the
    shape a committed CI baseline (``benchmarks/perf_baseline.jsonl``)
    uses, identical to ledger lines.
    """
    if not os.path.isfile(path):
        raise FileNotFoundError(f"no such file: {path}")
    return [RunRecord.from_dict(data) for data in read_jsonl(path)]


def _ledger_from_args(args: argparse.Namespace):
    from repro.obs.history import LEDGER_DIRNAME

    return RunLedger(args.history_dir or LEDGER_DIRNAME)


def _ledger_runs(ledger, run_ids: list[str], command: str) -> list | None:
    """The records for ``run_ids`` (unique prefixes accepted), or
    ``None`` after saying on stderr which id did not resolve."""
    try:
        records = [ledger.get(run_id) for run_id in run_ids]
    except ValueError as exc:
        print(f"xring {command}: {exc}", file=sys.stderr)
        return None
    for run_id, record in zip(run_ids, records):
        if record is None:
            print(
                f"xring {command}: no run matching {run_id!r} in {ledger.path}",
                file=sys.stderr,
            )
            return None
    return records


def _print_verdict(verdict, out: str, command: str) -> None:
    """Markdown to stdout, warnings and the summary to stderr, and the
    verdict JSON to ``out`` when set."""
    from repro.obs import atomic_write_text, render_markdown

    print(render_markdown(verdict), end="")
    for warning in verdict.warnings:
        print(f"xring {command}: warning: {warning}", file=sys.stderr)
    if out:
        atomic_write_text(out, verdict.to_json())
        print(f"verdict written: {out}", file=sys.stderr)
    print(verdict.summary(), file=sys.stderr)


def _cmd_regress(args: argparse.Namespace) -> int:
    """Compare recent ledger runs against a baseline; exit 1 on regression.

    Candidate = the ``--median-of`` most recent entries of the newest
    matching run's ``(kind, label)`` group.  Baseline = ``--baseline
    <run-id>`` (prefix ok), that group's records in ``--baseline-file
    <jsonl>`` (a committed baseline), or — by default — the group's
    ``--median-of`` entries immediately preceding the candidate.  Exit
    codes: 0 ok, 1 regression, 2 usage/data error.
    """
    from repro.obs import Thresholds, compare_runs
    from repro.obs.judge import in_group

    ledger = _ledger_from_args(args)
    entries = ledger.entries(kind=args.kind or None, label=args.label or None)
    if not entries:
        print(f"xring regress: no matching runs in {ledger.path}", file=sys.stderr)
        return 2
    entries = in_group(entries, entries[-1])
    k = max(1, args.median_of)
    candidate = entries[-k:]
    if args.baseline:
        baseline = _ledger_runs(ledger, [args.baseline], "regress")
        if baseline is None:
            return 2
    elif args.baseline_file:
        try:
            baseline = _load_baseline_file(args.baseline_file)
        except (OSError, ValueError) as exc:
            print(f"xring regress: bad baseline file: {exc}", file=sys.stderr)
            return 2
        # A committed baseline may hold records for several benchmarks;
        # only the candidate's group is comparable.
        baseline = in_group(baseline, candidate[-1])
    else:
        baseline = entries[-2 * k : -k]
    if not baseline:
        print(
            "xring regress: no baseline runs (need an earlier ledger entry, "
            "--baseline or --baseline-file)",
            file=sys.stderr,
        )
        return 2
    thresholds = Thresholds(
        latency_rel=args.latency_rel,
        min_latency_s=args.min_latency,
        quality_abs=args.quality_abs,
    )
    verdict = compare_runs(baseline, candidate, thresholds)
    _print_verdict(verdict, args.out, "regress")
    return 1 if verdict.regressed else 0


def _cmd_report(args: argparse.Namespace) -> int:
    """Render ledger entries as a markdown/HTML report.

    Default: the trend over the last ``--last`` runs.  With
    ``--compare BASE CAND`` (run ids, prefixes ok) the report leads
    with a regression verdict between the two runs.
    """
    from repro.obs import (
        atomic_write_text,
        compare_runs,
        render_html,
        render_markdown,
        render_trend_markdown,
    )

    ledger = _ledger_from_args(args)
    records = ledger.last(args.last, kind=args.kind or None, label=args.label or None)
    if not records:
        print(f"xring report: no matching runs in {ledger.path}", file=sys.stderr)
        return 2
    verdict = None
    if args.compare:
        sides = _ledger_runs(ledger, args.compare, "report")
        if sides is None:
            return 2
        verdict = compare_runs([sides[0]], [sides[1]])
    if args.format == "html":
        text = render_html(verdict=verdict, records=records)
    else:
        text = ""
        if verdict is not None:
            text += render_markdown(verdict) + "\n"
        text += render_trend_markdown(records)
    if args.out:
        atomic_write_text(args.out, text)
        print(f"report written: {args.out}", file=sys.stderr)
    else:
        print(text, end="")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    """Live terminal view of a running service (``xring top``).

    Resolves the base URL from ``--url`` or the ``<store>/address``
    file a running server publishes, then renders
    ``/dashboard/data`` + ``/alerts`` frames: health, firing alerts,
    counter rates, latency percentiles, L2 cache traffic, recent
    jobs.  ``--once`` prints a single frame (exit 1 when the service
    is unreachable) — scriptable for smoke checks.
    """
    from repro.service.top import run_top

    return run_top(
        url=args.url,
        store=args.store,
        interval_s=args.interval,
        once=args.once,
    )


def _cmd_mine(args: argparse.Namespace) -> int:
    """Flag anomalous ledger runs (``xring mine``), a view over
    :func:`repro.obs.judge.mine_ledger`.

    Exit codes: 0 clean, 1 a run was flagged, 2 bad parameters or no
    ``(kind, label)`` group with ``--min-runs`` runs.  ``--promote DIR``
    writes a golden-fixture candidate stub per flagged run.
    """
    from repro.obs import Thresholds, mine_ledger, promote_candidates

    try:
        thresholds = Thresholds(z_threshold=args.z_threshold, min_runs=args.min_runs)
    except ValueError as exc:
        print(f"xring mine: {exc}", file=sys.stderr)
        return 2
    ledger = _ledger_from_args(args)
    records = ledger.entries(kind=args.kind or None, label=args.label or None)
    verdict = mine_ledger(records, thresholds)
    _print_verdict(verdict, args.json, "mine")
    if args.promote and verdict.regressed:
        paths = promote_candidates(verdict, records, args.promote)
        for path in paths:
            print(f"fixture candidate written: {path}", file=sys.stderr)
    if verdict.groups == verdict.skipped_small_groups:
        print(
            f"xring mine: no (kind, label) group in {ledger.path} has "
            f"{args.min_runs} runs to judge",
            file=sys.stderr,
        )
        return 2
    return 1 if verdict.regressed else 0


def _cmd_trace(args: argparse.Namespace) -> int:
    """Inspect a ``trace.jsonl`` span file from any traced run.

    Prints the stitch summary (trace id, roots, orphans), the per-name
    rollup sorted by total time, and the ``--top`` slowest spans.
    ``--chrome OUT`` re-exports the records as a Chrome
    ``trace_event`` file with cross-process pid/tid rows.
    """
    from repro.obs import atomic_write_text, spans_to_chrome
    from repro.obs.traceview import load_span_records, render_text

    try:
        records = load_span_records(args.trace)
    except (OSError, ValueError) as exc:
        print(f"xring trace: {exc}", file=sys.stderr)
        return 2
    if not records:
        print(f"xring trace: no span records in {args.trace}", file=sys.stderr)
        return 2
    print(render_text(records, top=args.top), end="")
    if args.chrome:
        atomic_write_text(
            args.chrome, json.dumps(spans_to_chrome(records)) + "\n"
        )
        print(f"chrome trace written: {args.chrome}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The argparse tree (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="xring",
        description="Crosstalk-aware synthesis of WRONoC ring routers (DATE 2023 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Observability flags shared by every subcommand.
    obs = argparse.ArgumentParser(add_help=False)
    obs.add_argument(
        "--trace-dir",
        type=str,
        default="",
        help="write trace.jsonl / trace.json (Chrome trace_event) / "
        "metrics.json run artifacts into this directory",
    )
    obs.add_argument(
        "--log-level",
        choices=list(LOG_LEVELS),
        default="WARNING",
        help="stderr logging threshold for the repro logger hierarchy",
    )
    obs.add_argument(
        "--metrics",
        action="store_true",
        help="print the solver-metrics snapshot on exit (see --metrics-format)",
    )
    obs.add_argument(
        "--metrics-format",
        choices=["json", "openmetrics"],
        default="json",
        help="exposition format for --metrics: json (default) or the "
        "OpenMetrics text format (Prometheus-scrapable)",
    )
    obs.add_argument(
        "--history-dir",
        type=str,
        default="",
        help="append a run record (env fingerprint, stage latency "
        "percentiles, solver counters, design quality) to the ledger "
        "in this directory (.xring_history by convention); consumed "
        "by 'xring regress', 'xring mine' and 'xring report'",
    )

    # Sampling-profiler flags (synth and batch).
    prof = argparse.ArgumentParser(add_help=False)
    prof.add_argument(
        "--profile-dir",
        type=str,
        default="",
        help="run under the zero-dep sampling profiler and write "
        "profile.collapsed (flamegraph.pl input), "
        "profile.speedscope.json (speedscope.app) and profile.json "
        "(per-stage sample attribution) into this directory; samples "
        "this process only, so profile batches with --workers 1",
    )
    prof.add_argument(
        "--profile-hz",
        type=float,
        default=97.0,
        help="profiler sampling rate (default 97 Hz — deliberately not "
        "a round number, to avoid phase-locking with periodic work)",
    )

    # Run filters shared by the ledger judge's commands.
    ledger_filter = argparse.ArgumentParser(add_help=False, parents=[obs])
    ledger_filter.add_argument("--kind", type=str, default="", help="filter runs by kind")
    ledger_filter.add_argument("--label", type=str, default="", help="filter runs by label")

    # Batch-engine flag shared by every experiment subcommand.
    pool = argparse.ArgumentParser(add_help=False)
    pool.add_argument(
        "--workers",
        type=int,
        default=1,
        help="process-pool size for batch synthesis (1 = in-process); "
        "results are identical and input-ordered at any setting",
    )

    # Durable L2 cache flags (batch, serve).
    cachep = argparse.ArgumentParser(add_help=False)
    cachep.add_argument(
        "--cache-dir",
        type=str,
        default="",
        help="durable L2 cache: persistent content-addressed store in "
        "this directory (finished case results survive process "
        "restarts; corrupt entries are quarantined and recomputed)",
    )
    cachep.add_argument(
        "--cache-nodes",
        type=str,
        default="",
        help="durable L2 cache: comma-separated host:port 'xring "
        "cache-node' addresses (sharded consistent-hash mode with "
        "replica failover; mutually exclusive with --cache-dir)",
    )
    cachep.add_argument(
        "--cache-replication",
        type=int,
        default=2,
        help="replicas per entry with --cache-nodes (default 2)",
    )

    synth = sub.add_parser(
        "synth", help="synthesize one XRing router", parents=[obs, prof]
    )
    synth.add_argument("--nodes", type=int, default=16)
    synth.add_argument(
        "--placement",
        type=str,
        default="",
        help="JSON file with node positions (overrides --nodes)",
    )
    synth.add_argument("--wl", type=int, default=None, help="wavelength budget")
    synth.add_argument("--no-shortcuts", action="store_true")
    synth.add_argument("--no-openings", action="store_true")
    synth.add_argument("--no-pdn", action="store_true")
    synth.add_argument("--svg", type=str, default="", help="write layout SVG here")
    synth.add_argument("--ascii", action="store_true", help="print ASCII layout")
    synth.add_argument("--report", type=str, default="", help="write JSON report here")
    synth.add_argument(
        "--ring-method", choices=["milp", "heuristic"], default="milp"
    )
    synth.add_argument(
        "--lazy-conflicts",
        choices=["auto", "on", "off"],
        default="auto",
        help="ring MILP conflict rows: on = cutting-plane generation "
        "(add only violated rows, skip the O(E^2) precompute), off = "
        "the same loop seeded with every row, auto = lazy at >= 24 "
        "nodes (round/cut counts land in the ring.lazy.* metrics)",
    )
    synth.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="wall-clock budget in seconds for the whole synthesis run",
    )
    synth.add_argument(
        "--on-error",
        choices=["degrade", "raise"],
        default="degrade",
        help="degrade: fall back stage by stage; raise: fail fast",
    )
    synth.set_defaults(func=_cmd_synth)

    table1 = sub.add_parser(
        "table1", help="regenerate Table I", parents=[obs, pool]
    )
    table1.add_argument("--sizes", type=int, nargs="+", default=[8, 16])
    table1.add_argument("--quick", action="store_true", help="single #wl setting")
    table1.set_defaults(func=_cmd_table1)

    table2 = sub.add_parser(
        "table2", help="regenerate Table II", parents=[obs, pool]
    )
    table2.add_argument("--sizes", type=int, nargs="+", default=[8, 16, 32])
    table2.add_argument("--quick", action="store_true")
    table2.set_defaults(func=_cmd_table2)

    table3 = sub.add_parser(
        "table3", help="regenerate Table III", parents=[obs, pool]
    )
    table3.add_argument("--quick", action="store_true")
    table3.set_defaults(func=_cmd_table3)

    ablation = sub.add_parser(
        "ablation", help="shortcut/opening feature matrix", parents=[obs, pool]
    )
    ablation.add_argument("--nodes", type=int, default=16)
    ablation.set_defaults(func=_cmd_ablation)

    scale = sub.add_parser(
        "scale", help="scaling study (MILP vs heuristic)", parents=[obs, pool]
    )
    scale.add_argument("--sizes", type=int, nargs="+", default=[8, 16, 32, 64])
    scale.add_argument("--milp-limit", type=int, default=32)
    scale.set_defaults(func=_cmd_scale)

    sweep = sub.add_parser(
        "sweep", help="power vs wavelength budget", parents=[obs, pool]
    )
    sweep.add_argument("--nodes", type=int, default=16)
    sweep.add_argument(
        "--router", choices=["xring", "ornoc", "oring"], default="xring"
    )
    sweep.set_defaults(func=_cmd_sweep)

    batch = sub.add_parser(
        "batch",
        help="run a JSON case file through the batch-synthesis engine",
        parents=[obs, pool, prof, cachep],
    )
    batch.add_argument(
        "cases",
        type=str,
        help="JSON file: a list of case objects (or {'cases': [...]}) "
        "with 'nodes'/'placement' plus synthesis option fields",
    )
    batch.add_argument(
        "--out",
        type=str,
        default="",
        help="write the batch report (per-case status + structural "
        "design dumps + merged metrics) as JSON here",
    )
    batch.add_argument(
        "--retries",
        type=int,
        default=2,
        help="retry attempts per failed case beyond the first "
        "(exponential backoff with seeded jitter; 0 disables retries)",
    )
    batch.add_argument(
        "--case-timeout",
        type=float,
        default=None,
        help="per-case wall-clock budget in seconds; a hung worker is "
        "killed and respawned, the case is retried",
    )
    batch.add_argument(
        "--journal",
        type=str,
        default="",
        help="checkpoint every finished case into this JSONL journal "
        "(atomic writes), making interrupted runs resumable",
    )
    batch.add_argument(
        "--resume",
        type=str,
        default="",
        help="resume from a checkpoint journal: restore finished cases "
        "verbatim and run only the remainder (implies --journal <path>)",
    )
    batch.add_argument(
        "--progress",
        action="store_true",
        help="stream live progress events (case start/retry/quarantine/"
        "done + 1s heartbeats) to stderr as one JSON object per line",
    )
    batch.set_defaults(func=_cmd_batch)

    serve = sub.add_parser(
        "serve",
        help="run the resilient synthesis job service "
        "(HTTP + SSE, crash-safe store, graceful drain)",
        parents=[obs, cachep],
    )
    serve.add_argument(
        "--host", type=str, default="127.0.0.1", help="bind address"
    )
    serve.add_argument(
        "--port",
        type=int,
        default=8787,
        help="TCP port (0 = ephemeral; the resolved address is written "
        "to <store>/address either way)",
    )
    serve.add_argument(
        "--store",
        type=str,
        default=".xring_service",
        help="job-store directory: the crash-safe JSONL job journal a "
        "restarted server re-adopts, plus the address file",
    )
    serve.add_argument(
        "--queue-limit",
        type=int,
        default=64,
        help="bounded admission queue; submissions beyond this many "
        "queued jobs get 429 + Retry-After",
    )
    serve.add_argument(
        "--concurrency",
        type=int,
        default=1,
        help="jobs solved concurrently",
    )
    serve.add_argument(
        "--retries",
        type=int,
        default=1,
        help="supervisor retries per job beyond the first attempt",
    )
    serve.add_argument(
        "--case-timeout",
        type=float,
        default=None,
        help="per-attempt watchdog in seconds; forces process "
        "isolation so a hung solve is killed, not waited on",
    )
    serve.add_argument(
        "--isolate",
        action="store_true",
        help="run every job in a killable worker process even without "
        "--case-timeout",
    )
    serve.add_argument(
        "--solver-workers",
        type=int,
        default=1,
        help="worker processes inside each job's supervised batch run "
        "(only meaningful with --isolate/--case-timeout)",
    )
    serve.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        help="deadline applied to jobs that do not bring their own "
        "'deadline' spec field",
    )
    serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="grace period for in-flight jobs on SIGTERM before they "
        "are abandoned to the next server life",
    )
    serve.add_argument(
        "--breaker-cooldown",
        type=float,
        default=10.0,
        help="seconds an open circuit breaker sheds load (readyz 503) "
        "before accepting traffic again",
    )
    serve.add_argument(
        "--seed",
        type=int,
        default=0,
        help="seed for jittered Retry-After and retry backoff",
    )
    serve.add_argument(
        "--scrape-interval",
        type=float,
        default=5.0,
        help="seconds between registry snapshots fed to the in-process "
        "time-series store and SLO engine (0 disables the loop)",
    )
    serve.add_argument(
        "--slo-availability",
        type=float,
        default=0.9,
        help="job-availability SLO objective (fraction of jobs that "
        "must finish without failing)",
    )
    serve.add_argument(
        "--slo-latency-p99",
        type=float,
        default=60.0,
        help="job-latency SLO threshold in seconds (p99 of end-to-end "
        "job latency must stay below this)",
    )
    serve.add_argument(
        "--slo-window",
        type=float,
        default=60.0,
        help="short burn-rate window in seconds (the long window is "
        "6x this; alerts fire only when both windows burn)",
    )
    serve.add_argument(
        "--slo-burn-threshold",
        type=float,
        default=6.0,
        help="error-budget burn multiple that trips an alert",
    )
    serve.add_argument(
        "--alert-log",
        type=str,
        default="",
        help="append alert transitions (firing/resolved) as JSONL to "
        "this file, in addition to stderr",
    )
    serve.set_defaults(func=_cmd_serve)

    cache = sub.add_parser(
        "cache",
        help="inspect/maintain a durable L2 cache: stats, anti-entropy "
        "scrub (exit 1 on corruption), size-bounded gc",
    )
    cache.add_argument(
        "action", choices=["stats", "scrub", "gc"], help="what to do"
    )
    cache.add_argument(
        "--dir",
        type=str,
        default="",
        help="local store directory (as passed to --cache-dir)",
    )
    cache.add_argument(
        "--nodes",
        type=str,
        default="",
        help="comma-separated cache-node host:port addresses "
        "(as passed to --cache-nodes)",
    )
    cache.add_argument(
        "--replication",
        type=int,
        default=2,
        help="replicas per entry when scrubbing a node ring",
    )
    cache.add_argument(
        "--no-repair",
        action="store_true",
        help="scrub only: report under-replication without copying "
        "entries back onto their owners",
    )
    cache.add_argument(
        "--max-bytes",
        type=int,
        default=0,
        help="gc target: evict least-recently-used entries until the "
        "store holds at most this many bytes (per node with --nodes)",
    )
    cache.set_defaults(func=_cmd_cache)

    cache_node = sub.add_parser(
        "cache-node",
        help="run one sharded-cache node (PersistentStore behind HTTP)",
    )
    cache_node.add_argument(
        "--dir",
        type=str,
        default=".xring_cache_node",
        help="store directory (also receives the address file)",
    )
    cache_node.add_argument(
        "--host", type=str, default="127.0.0.1", help="bind address"
    )
    cache_node.add_argument(
        "--port",
        type=int,
        default=0,
        help="TCP port (0 = ephemeral; resolved address lands in "
        "<dir>/address)",
    )
    cache_node.set_defaults(func=_cmd_cache_node)

    regress = sub.add_parser(
        "regress",
        help="compare recent ledger runs against a baseline; "
        "exit 1 on a perf/quality regression",
        parents=[ledger_filter],
    )
    regress.add_argument(
        "--baseline",
        type=str,
        default="",
        help="baseline run id from the ledger (unique prefix accepted); "
        "default: the candidate group's immediately preceding runs",
    )
    regress.add_argument(
        "--baseline-file",
        type=str,
        default="",
        help="baseline records from a standalone JSONL file (one run "
        "record per line, e.g. a committed CI baseline)",
    )
    regress.add_argument(
        "--median-of",
        type=int,
        default=1,
        help="compare the median over the K most recent runs on each "
        "side (noise suppression; default 1)",
    )
    regress.add_argument(
        "--latency-rel",
        type=float,
        default=0.25,
        help="allowed relative slowdown before a latency metric "
        "regresses (0.25 = +25%%)",
    )
    regress.add_argument(
        "--min-latency",
        type=float,
        default=0.01,
        help="absolute floor in seconds below which latency deltas "
        "are treated as noise",
    )
    regress.add_argument(
        "--quality-abs",
        type=float,
        default=0.05,
        help="allowed absolute worsening of a design-quality metric",
    )
    regress.add_argument(
        "--out", type=str, default="", help="write the verdict JSON artifact here"
    )
    regress.set_defaults(func=_cmd_regress)

    report = sub.add_parser(
        "report",
        help="render ledger entries as a markdown/HTML report",
        parents=[ledger_filter],
    )
    report.add_argument(
        "--last", type=int, default=10, help="how many recent runs to include"
    )
    report.add_argument(
        "--compare",
        type=str,
        nargs=2,
        metavar=("BASELINE", "CANDIDATE"),
        default=None,
        help="lead the report with a regression verdict between these "
        "two run ids (unique prefixes accepted)",
    )
    report.add_argument(
        "--format", choices=["md", "html"], default="md", help="output format"
    )
    report.add_argument(
        "--out", type=str, default="", help="write the report here (default stdout)"
    )
    report.set_defaults(func=_cmd_report)

    top = sub.add_parser(
        "top",
        help="live terminal view of a running service: health, firing "
        "alerts, counter rates, latency percentiles, recent jobs",
    )
    top.add_argument(
        "--url",
        type=str,
        default="",
        help="service base URL (e.g. http://127.0.0.1:8787); wins over "
        "--store",
    )
    top.add_argument(
        "--store",
        type=str,
        default=".xring_service",
        help="job-store directory; the base URL is read from its "
        "address file (what a --port 0 server published)",
    )
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        help="seconds between frames",
    )
    top.add_argument(
        "--once",
        action="store_true",
        help="render one frame and exit (1 when unreachable)",
    )
    top.set_defaults(func=_cmd_top)

    mine = sub.add_parser(
        "mine",
        help="mine the run ledger for anomalous runs (robust "
        "median/MAD outliers); exit 1 when any run was flagged",
        parents=[ledger_filter],
    )
    mine.add_argument(
        "--z-threshold",
        type=float,
        default=3.5,
        help="robust z-score above which a metric is anomalous",
    )
    mine.add_argument(
        "--min-runs",
        type=int,
        default=4,
        help="smallest (kind, label) group worth judging; smaller "
        "groups are skipped (and exit 2 when nothing qualifies)",
    )
    mine.add_argument(
        "--json",
        type=str,
        default="",
        help="write the full anomaly report JSON here",
    )
    mine.add_argument(
        "--promote",
        type=str,
        default="",
        help="write a fixture-candidate JSON stub per flagged run "
        "into this directory (golden-corpus triage)",
    )
    mine.set_defaults(func=_cmd_mine)

    trace = sub.add_parser(
        "trace",
        help="inspect a trace.jsonl span file: stitch summary, "
        "per-stage rollup, slowest spans, Chrome re-export",
    )
    trace.add_argument(
        "trace",
        type=str,
        help="trace.jsonl path (from --trace-dir, batch artifacts, or "
        "GET /jobs/{id}/trace)",
    )
    trace.add_argument(
        "--top", type=int, default=10, help="how many slowest spans to list"
    )
    trace.add_argument(
        "--chrome",
        type=str,
        default="",
        help="re-export the records as a Chrome trace_event file here "
        "(cross-process pid/tid rows; load in Perfetto)",
    )
    trace.set_defaults(func=_cmd_trace)
    return parser


def main(argv: list[str] | None = None) -> int:
    """Entry point for ``xring`` and ``python -m repro``.

    Typed synthesis failures (bad options, unrepairable designs,
    ``--on-error raise`` stage errors) print one line and exit 2
    instead of dumping a traceback.

    ``--trace-dir`` turns tracing on and drops ``trace.jsonl`` (one
    span per line), ``trace.json`` (Chrome ``trace_event`` — load in
    about:tracing or https://ui.perfetto.dev), ``metrics.json`` and
    ``metrics.om`` (OpenMetrics) into the directory; artifacts are
    written even when the run fails, so a timed-out synthesis still
    leaves its partial trace behind.

    ``--history-dir`` appends a :class:`~repro.obs.history.RunRecord`
    to the cross-run ledger once the command completes (forcing a real
    metrics registry so stage-latency histograms exist).
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    configure_logging(getattr(args, "log_level", "WARNING"))
    trace_dir = getattr(args, "trace_dir", "")
    history_dir = getattr(args, "history_dir", "")
    history_kind = _HISTORY_KINDS.get(args.command) if history_dir else None
    want_metrics = (
        bool(getattr(args, "metrics", False))
        or bool(trace_dir)
        or history_kind is not None
    )
    tracer = Tracer() if trace_dir else NULL_TRACER
    registry = MetricsRegistry() if want_metrics else NULL_METRICS
    started = time.monotonic()
    try:
        with use_obs(ObsContext(tracer=tracer, metrics=registry)):
            if args.command != "serve":
                # serve attaches inside JobManager.start (it owns the
                # backend ref for /stats); everyone else attaches here.
                _attach_l2(args)
            exit_code = args.func(args)
        if history_kind is not None:
            _record_history(
                args, history_kind, registry, time.monotonic() - started
            )
        return exit_code
    except SynthesisError as exc:
        print(f"xring: error: {exc}", file=sys.stderr)
        return 2
    finally:
        if trace_dir:
            # A command that wrote its own (richer, cross-process) trace
            # keeps it; the ambient tracer would overwrite it with the
            # parent process' near-empty span list.
            own_trace = getattr(args, "_trace_written", False)
            paths = RunArtifacts(trace_dir).write(
                tracer=None if own_trace else tracer, metrics=registry
            )
            for path in paths:
                print(f"artifact written: {path}", file=sys.stderr)
        if getattr(args, "metrics", False):
            if getattr(args, "metrics_format", "json") == "openmetrics":
                print(to_openmetrics(registry.snapshot()), end="")
            else:
                print(registry.to_json())


def _record_history(
    args: argparse.Namespace,
    kind: str,
    registry: MetricsRegistry,
    wall_s: float,
) -> None:
    """Append this invocation's run record to the ``--history-dir`` ledger.

    Commands deposit run-specific extras (label, options, quality,
    supervisor stats) in ``args._history``; everything else is
    derived from the metrics registry snapshot.
    """
    extras = getattr(args, "_history", None) or {}
    record = RunRecord.build(
        kind,
        extras.get("label", args.command),
        metrics=registry.snapshot(),
        options=extras.get("options"),
        wall_s=extras.get("wall_s", wall_s),
        quality=extras.get("quality"),
        supervisor=extras.get("supervisor"),
        extra=extras.get("extra"),
    )
    ledger = RunLedger(args.history_dir)
    ledger.append(record)
    print(f"history recorded: {record.run_id} -> {ledger.path}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
