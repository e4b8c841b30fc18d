#!/usr/bin/env python3
"""XRing benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout::

    python3 xringbench/run.py --workload batch_sweep --seed 1 --seconds 30 --trace 0
    python3 xringbench/run.py --workload all --seed 1 --seconds 30

``BENCHMARK.json`` names batch_sweep and service_mixed.  synth_large,
one caller synthesizing 24-node designs, is run by name or with
``all``: on a shared 2-vCPU host its run-to-run spread is as wide as
the host's own speed changes, and three workloads of 30 s do not fit
the benchmark's time budget.

``--trace 0`` measures the end-to-end metrics with nothing wrapped.
``--trace 1`` runs the workload twice, untraced and then with
timing wrappers on the layer entry points, and reports the per-layer
metrics, a budget table whose rows add up to the mean request time, and
the tracing overhead.  ``--workload all`` runs every workload both
ways.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the exit
code is 1 when any design fails an output check.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from harness import (  # noqa: E402
    ROOT,
    SRC,
    SYNTH_TARGETS,
    Spans,
    fingerprint,
    mean,
    median,
    peak_rss_mb,
    tail,
    write_spans,
)

WORKLOADS = ("synth_large", "batch_sweep", "service_mixed")
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUP_REPEATS = 3
OUT = ROOT / ".xringbench_out"
TMP = ROOT / ".xringbench_tmp"

END_TO_END = (
    ("setup_s", "s"),
    ("latency_p50_s", "s"),
    ("latency_tail_s", "s"),
    ("throughput_per_s", "1/s"),
    ("il_w_db", "dB"),
    ("noise_free_frac", "ratio"),
    ("wavelengths", "count"),
    ("tour_length_mm", "mm"),
    ("peak_rss_mb", "MB"),
)

PER_LAYER = (
    ("shortcuts.busy_s", "s"),
    ("shortcuts.candidates", "count"),
    ("shortcuts.selected", "count"),
    ("shortcuts.yield", "ratio"),
    ("ring.busy_s", "s"),
    ("ring.calls", "count"),
    ("ring.lazy_rounds", "count"),
    ("ring.cuts_added", "count"),
    ("milp.solve_s", "s"),
    ("milp.solves", "count"),
    ("conflicts.build_s", "s"),
    ("mapping.busy_s", "s"),
    ("mapping.calls", "count"),
    ("pdn.busy_s", "s"),
    ("validate.busy_s", "s"),
    ("validate.calls", "count"),
    ("synth.unattributed_s", "s"),
    ("batch.dispatch_s", "s"),
    ("batch.parent_s", "s"),
    ("batch.worker_busy_frac", "ratio"),
    ("batch.retries", "count"),
    ("batch.worker_restarts", "count"),
    ("cache.conflicts.hit_rate", "ratio"),
    ("cache.models.hit_rate", "ratio"),
    ("cache.tours.hit_rate", "ratio"),
    ("cache.edges_conflict_memo.hit_rate", "ratio"),
    ("l2.get_s", "s"),
    ("l2.get_calls", "count"),
    ("l2.put_s", "s"),
    ("l2.put_calls", "count"),
    ("l2.hit_rate", "ratio"),
    ("http.post_s", "s"),
    ("jobs.queue_wait_s", "s"),
    ("jobs.solve_s", "s"),
    ("jobs.dedup_hits", "count"),
    ("jobs.l2_result_hits", "count"),
    ("client.send_lag_p90_s", "s"),
    ("jobstore.append_s", "s"),
    ("jobstore.append_total_s", "s"),
    ("jobstore.appends", "count"),
    ("jobstore.append_bytes", "bytes"),
    ("trace.overhead_frac", "ratio"),
)


# -- set-up ------------------------------------------------------------------
def setup_probe(workload: str, seed: int) -> float:
    """Set-up time of one fresh interpreter: imports plus warm-up."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--setup-probe",
    ]
    out = subprocess.run(command, check=True, capture_output=True, text=True, cwd=ROOT)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def in_process_setup(seed: int) -> float:
    """Import the package and warm up; seconds since this script started."""
    sys.path.insert(0, str(SRC))
    from workloads import warm_up

    warm_up(seed)
    return time.perf_counter() - START


# -- the workloads -----------------------------------------------------------
def run_local(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """synth_large or batch_sweep, in this process."""
    setup = [in_process_setup(seed)]
    from workloads import batch_window, synth_window

    window_fn = synth_window if workload == "synth_large" else batch_window
    if not trace:
        setup += [setup_probe(workload, seed) for _ in range(SETUP_REPEATS - 1)]
        return {"setup": setup, "window": window_fn(seed, seconds)}
    untraced = window_fn(seed, seconds)
    spans = Spans(sink_dir=workdir)
    spans.install(SYNTH_TARGETS)
    traced = window_fn(seed, seconds, spans)
    return {"setup": setup, "window": untraced, "traced": traced, "spans": spans.collect()}


def run_service(seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """service_mixed against server lives in child processes.

    Set-up is the priming life plus the start and warm-up of the
    measured life; the start is repeated and its median taken, the
    priming (a third of a window's requests, solved) happens once.
    """
    sys.path.insert(0, str(SRC))
    from service import prime, service_layers, service_window, start_life

    cache, primed, prime_s = prime(seed, seconds, workdir)
    starts = []
    repeats = 1 if trace else SETUP_REPEATS
    for rep in range(repeats):
        began = time.perf_counter()
        server = start_life(workdir, f"serve-{rep}", cache, seed)
        starts.append(time.perf_counter() - began)
        if rep < repeats - 1:
            server.stop()
    setup = [prime_s + s for s in starts]
    try:
        untraced = service_window(seed, seconds, server, primed, "u")
    finally:
        server.stop()
    if not trace:
        return {"setup": setup, "window": untraced}
    traced_server = start_life(workdir, "traced", cache, seed, traced=True)
    try:
        traced = service_window(seed, seconds, traced_server, primed, "t")
    finally:
        traced_server.stop()
    with open(traced_server.spans, encoding="utf-8") as handle:
        spans = [json.loads(line) for line in handle if line.strip()]
    service_layers(traced, spans)
    return {"setup": setup, "window": untraced, "traced": traced, "spans": spans}


# -- reporting ---------------------------------------------------------------
def end_to_end(setup, window) -> tuple[dict, dict]:
    """The end-to-end metrics, and the ones reported to people only."""
    lat = window.latencies
    value, pct, n = tail(lat)
    metrics = {
        "setup_s": median(setup),
        "latency_p50_s": median(lat),
        "latency_tail_s": value,
        "throughput_per_s": window.designs / window.wall_s if window.wall_s else 0.0,
        **window.quality,
        "peak_rss_mb": peak_rss_mb(),
    }
    attempted = max(1, window.attempted)
    extra = {
        "latency_tail_pct": pct,
        "failed_frac": window.failed / attempted,
        "degraded_frac": window.degraded / attempted,
    }
    counts = dict.fromkeys(window.quality, window.quality_n)
    counts.update(
        setup_s=len(setup),
        latency_p50_s=len(lat),
        latency_tail_s=n,
        throughput_per_s=window.designs,
        peak_rss_mb=1,
    )
    return metrics, {"extra": extra, "counts": counts}


def print_end_to_end(workload, metrics, info, window) -> None:
    counts = info["counts"]
    extra = info["extra"]
    print(f"== {workload}: end-to-end ({window.attempted} requests, {window.designs} designs)")
    for name, unit in END_TO_END:
        n = counts.get(name, window.designs)
        note = f"  (p{extra['latency_tail_pct']:.1f})" if name == "latency_tail_s" else ""
        print(f"  {name:<22} {metrics[name]:>14.6f} {unit:<6} n={n}{note}")
    for name in ("failed_frac", "degraded_frac"):
        print(f"  {name:<22} {extra[name]:>14.6f} {'ratio':<6} n={window.attempted}")


def print_layers(workload, layers, budget, total) -> None:
    print(f"== {workload}: per-layer (traced run)")
    for name, unit in PER_LAYER:
        print(f"  {name:<36} {layers[name]:>14.6f} {unit}")
    print(f"== {workload}: budget of one request (mean {total:.6f} s)")
    for row, seconds in budget:
        print(f"  {row:<30} {seconds:>12.6f} s  {100 * seconds / total:6.1f}%")
    rest = total - sum(s for _, s in budget)
    print(f"  {'unattributed':<30} {rest:>12.6f} s  {100 * rest / total:6.1f}%")


def run_one(args) -> int:
    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        print(json.dumps({"setup_s": in_process_setup(args.seed)}))
        return 0
    workdir = TMP / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.workload == "service_mixed":
            result = run_service(args.seed, args.seconds, bool(args.trace), workdir)
        else:
            result = run_local(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            TMP.rmdir()
        except OSError:
            pass

    window = result["window"]
    windows = [window] + ([result["traced"]] if args.trace else [])
    problems = [p for w in windows for p in w.problems]
    errors = [e for w in windows for e in w.errors]
    metrics, info = end_to_end(result["setup"], window)
    host = fingerprint(args.seed)
    print(f"fingerprint: {json.dumps(host, sort_keys=True)}")
    print_end_to_end(args.workload, metrics, info, window)
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "fingerprint": host,
        "end_to_end": metrics,
        "end_to_end_info": info,
        "problems": problems,
        "errors": errors,
    }
    reported = {name: metrics[name] for name, _ in END_TO_END}
    units = dict(END_TO_END)
    if args.trace:
        traced = result["traced"]
        layers = dict.fromkeys((name for name, _ in PER_LAYER), 0.0)
        layers.update(traced.layers)
        layers["trace.overhead_frac"] = median(traced.latencies) / metrics["latency_p50_s"] - 1.0
        total = mean(traced.latencies)
        print_layers(args.workload, layers, traced.budget, total)
        budget = traced.budget + [("unattributed", total - sum(s for _, s in traced.budget))]
        record.update(per_layer=layers, budget=budget)
        reported, units = layers, dict(PER_LAYER)
        write_spans(OUT / f"{args.workload}-seed{args.seed}-spans.jsonl", result["spans"])
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, sort_keys=True, default=str) + "\n"
    )
    for line in (problems + errors)[:20]:
        print(f"  ! {line}")
    attempted = sum(w.attempted for w in windows)
    failed = sum(w.failed for w in windows)
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": units[k]} for k, v in reported.items()},
            }
        )
    )
    return 0 if not problems else 1


def run_all(args) -> int:
    """Every workload, untraced and then traced, each in a fresh process."""
    status = 0
    for workload in WORKLOADS:
        for trace in (0, 1):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(trace),
            ]
            status |= subprocess.run(command, cwd=ROOT).returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, help=", ".join(WORKLOADS) + " or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an exception, so every server life started
    # so far is stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"xringbench: no repro package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
