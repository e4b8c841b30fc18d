"""The service_mixed workload: an open-loop client against ``xring serve``.

One single-threaded asyncio client sends requests on a fixed schedule
(``SERVICE_RATE`` per second) whatever the server does, so a stall
shows up as latency of the requests due after it.  A request is timed
from when it was due to when its design was ready: the job's terminal
``updated_unix``, or the POST reply when that came later (a
resubmission of a finished job is ready as soon as it is answered).
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

from checks import check_design, quality
from harness import ROOT, SRC, count, durations, mean, median, percentile
from inputs import SERVICE_NODES, SERVICE_RATE, primed_specs, service_plan, service_spec
from workloads import Window, add_counters

HERE = Path(__file__).resolve().parent
TERMINAL = ("done", "failed")
#: Unique jobs of each window whose quality is reported.
QUALITY_PREFIX = 6


# -- HTTP --------------------------------------------------------------------
async def request(address, method: str, path: str, body=None, timeout: float = 60.0):
    """One HTTP/1.1 exchange on a fresh connection: ``(status, headers,
    payload)``.  The server closes every connection after its reply."""
    host, port = address
    reader, writer = await asyncio.wait_for(asyncio.open_connection(host, port), timeout)
    try:
        data = b"" if body is None else json.dumps(body).encode("utf-8")
        head = (
            f"{method} {path} HTTP/1.1\r\nHost: {host}:{port}\r\n"
            f"Content-Type: application/json\r\nContent-Length: {len(data)}\r\n"
            "Connection: close\r\n\r\n"
        )
        writer.write(head.encode("ascii") + data)
        await writer.drain()
        raw = await asyncio.wait_for(reader.read(), timeout)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except OSError:
            pass
    head, _, payload = raw.partition(b"\r\n\r\n")
    lines = head.decode("latin-1").split("\r\n")
    status = int(lines[0].split()[1])
    headers = {}
    for line in lines[1:]:
        name, _, value = line.partition(":")
        headers[name.strip().lower()] = value.strip()
    return status, headers, payload


async def get_json(address, path: str):
    status, _, payload = await request(address, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path} answered {status}")
    return json.loads(payload)


async def fetch_jobs(address) -> dict:
    jobs = await get_json(address, "/jobs")
    return {job["job_id"]: job for job in jobs["jobs"]}


async def wait_terminal(fetch, job_ids, timeout: float = 120.0, poll_s: float = 0.05):
    """Statuses of ``job_ids`` once every one is terminal.

    Waits on the *distinct* ids: a resubmission returns its original's
    id, so the list may name one job several times.
    """
    pending = set(job_ids)
    deadline = time.monotonic() + timeout
    while True:
        jobs = await fetch()
        finished = {j for j in pending if jobs.get(j, {}).get("state") in TERMINAL}
        if finished == pending:
            return {j: jobs[j] for j in pending}
        if time.monotonic() > deadline:
            raise TimeoutError(f"{len(pending - finished)} jobs never finished")
        await asyncio.sleep(poll_s)


async def submit_all(address, specs) -> list[str]:
    """POST ``specs`` one after another; the job ids, in order."""
    ids = []
    for spec in specs:
        status, _, payload = await request(address, "POST", "/jobs", spec)
        if status not in (200, 201):
            raise RuntimeError(f"set-up submission refused with {status}")
        ids.append(json.loads(payload)["job_id"])
    return ids


# -- server lives ------------------------------------------------------------
class Server:
    """One ``xring serve`` life in a child process (``server.py``)."""

    def __init__(self, workdir: Path, store: Path, cache: Path, spans: Path | None = None):
        self.spans = spans
        command = [sys.executable, str(HERE / "server.py"), "--store", str(store), "--cache", str(cache)]
        if spans is not None:
            command += ["--spans", str(spans)]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
        self._log = open(workdir / f"{store.name}.log", "w", encoding="utf-8")
        self.proc = subprocess.Popen(
            command, stdout=subprocess.DEVNULL, stderr=self._log, env=env, cwd=ROOT
        )
        address_file = store / "address"
        deadline = time.monotonic() + 60.0
        while not address_file.exists():
            if self.proc.poll() is not None or time.monotonic() > deadline:
                self.stop()
                raise RuntimeError(f"server did not start; see {self._log.name}")
            time.sleep(0.01)
        host, _, port = address_file.read_text().strip().rpartition(":")
        self.address = (host, int(port))

    def stop(self) -> None:
        """SIGTERM, then wait for the drain (SIGKILL after 60 s)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()


def start_life(workdir: Path, life: str, cache: Path, seed: int, traced: bool = False) -> Server:
    """A warm server life: fresh job store, shared L2, one throwaway job."""
    spans = workdir / f"{life}-spans.jsonl" if traced else None
    server = Server(workdir, workdir / life, cache, spans)
    try:
        asyncio.run(_warm(server.address, service_spec(seed, f"warmup-{life}", 0)))
    except BaseException:
        server.stop()
        raise
    return server


async def _warm(address, spec):
    ids = await submit_all(address, [spec])
    return await wait_terminal(lambda: fetch_jobs(address), ids)


def prime(seed: int, seconds: float, workdir: Path) -> tuple[Path, dict, float]:
    """One server life that solves the primed specs into a fresh L2.

    Returns the L2 directory, the primed designs' digests by label, and
    the seconds it took.
    """
    began = time.perf_counter()
    cache = workdir / "l2"
    primer = Server(workdir, workdir / "prime", cache)
    try:
        specs = primed_specs(seed, seconds)
        statuses = asyncio.run(_prime(primer.address, specs))
    finally:
        primer.stop()
    digests = {}
    for spec, status in zip(specs, statuses):
        if status["state"] != "done":
            raise RuntimeError(f"priming job {spec['label']} failed: {status.get('error')}")
        digests[spec["label"]] = status["digest"]
    return cache, digests, time.perf_counter() - began


async def _prime(address, specs):
    ids = await submit_all(address, specs)
    statuses = await wait_terminal(lambda: fetch_jobs(address), ids)
    return [statuses[j] for j in ids]


# -- the measured window -----------------------------------------------------
async def _open_loop(address, plan):
    """Send ``plan`` on schedule; one record per request.

    The schedule runs on the loop's monotonic clock; wall-clock stamps
    are read at send and reply time, since the server reports job times
    on the wall clock and the two clocks drift apart over a window.
    """
    loop = asyncio.get_running_loop()
    first = loop.time() + 0.05

    async def send(due: float, kind: str, spec: dict) -> dict:
        sent, sent_unix = loop.time(), time.time()
        try:
            status, _, payload = await request(address, "POST", "/jobs", spec)
            body = json.loads(payload)
        except (OSError, asyncio.TimeoutError, ValueError) as exc:
            status, body = 0, {"error": f"{type(exc).__name__}: {exc}"}
        return {
            "kind": kind,
            "label": spec["label"],
            "spec": spec,
            "status": status,
            "body": body,
            "due_unix": sent_unix - (sent - due),
            "lag_s": sent - due,
            "post_s": loop.time() - sent,
            "replied_unix": time.time(),
        }

    tasks = []
    for i, (kind, spec) in enumerate(plan):
        due = first + i / SERVICE_RATE
        delay = due - loop.time()
        if delay > 0:
            await asyncio.sleep(delay)
        tasks.append(asyncio.create_task(send(due, kind, spec)))
    return await asyncio.gather(*tasks)


async def _collect(address, records):
    ids = [r["body"]["job_id"] for r in records if r["status"] in (200, 201)]
    jobs = await wait_terminal(lambda: fetch_jobs(address), ids)
    designs = {}
    for job_id in sorted(set(ids)):
        status, headers, payload = await request(address, "GET", f"/jobs/{job_id}/design")
        designs[job_id] = (status, headers.get("x-design-digest", ""), payload)
    stats = await get_json(address, "/stats")
    return jobs, designs, stats


def service_window(seed: int, seconds: float, server: Server, primed: dict, phase: str) -> Window:
    """One open-loop window at ``SERVICE_RATE`` requests per second."""
    window = Window()
    plan = service_plan(seed, seconds, phase)
    before = asyncio.run(get_json(server.address, "/stats"))
    # perf_counter is the host's monotonic clock, so the server's span
    # times can be compared with it.
    began = time.perf_counter()
    records = asyncio.run(_open_loop(server.address, plan))
    jobs, designs, stats = asyncio.run(_collect(server.address, records))
    window.attempted = len(records)
    expected = {"unique": 201, "dedup": 200, "l2": 201}
    originals = {}  # label -> digest of the unique solve it repeats
    ready = []
    for record in records:
        label, kind = record["label"], record["kind"]
        if record["status"] not in (200, 201):
            window.failed += 1
            window.errors.append(f"{label}: POST answered {record['status']} {record['body']}")
            continue
        job = jobs[record["body"]["job_id"]]
        status, digest, payload = designs[job["job_id"]]
        problems = []
        if record["status"] != expected[kind]:
            problems.append(f"{kind} request answered {record['status']}")
        if job["state"] != "done" or status != 200:
            window.failed += 1
            window.errors.append(f"{label}: job {job['state']}: {job.get('error')}")
            continue
        if digest != hashlib.sha256(payload).hexdigest():
            problems.append("X-Design-Digest does not match the design body")
        if kind == "l2" and digest != primed[label]:
            problems.append("L2-served design differs from the primed solve")
        if kind == "unique":
            originals[label] = digest
        if kind == "dedup" and digest != originals.get(label):
            problems.append("dedup hit returned another design than the original solve")
        window.degraded += bool(job["fallbacks"])
        window.problems.extend(f"{label}: {p}" for p in problems)
        if problems:
            window.failed += 1
            continue
        ready_unix = max(job["updated_unix"], record["replied_unix"])
        window.latencies.append(ready_unix - record["due_unix"])
        ready.append(ready_unix)
    window.designs = len(window.latencies)
    window.wall_s = (max(ready) if ready else time.time()) - records[0]["due_unix"]
    local = _check_unique(window, records, originals)
    window.service = {
        "records": records,
        "jobs": jobs,
        "before": before,
        "after": stats,
        "local": local,
        "began": began,
    }
    return window


def _check_unique(window: Window, records, originals) -> list:
    """Re-synthesize every unique job locally: its digest must match the
    server's, and the design must pass the output checks."""
    from repro.core import XRingSynthesizer
    from repro.service import case_from_spec, design_digest

    evaluated = []
    for record in records:
        if record["kind"] != "unique" or record["label"] not in originals:
            continue
        case = case_from_spec(record["spec"])
        design = XRingSynthesizer(case.network, case.options).run()
        label = record["label"]
        if design_digest(design.to_dict()) != originals[label]:
            window.problems.append(f"{label}: server design differs from a local solve")
        problems, evaluation = check_design(design, SERVICE_NODES)
        window.problems.extend(f"{label}: {p}" for p in problems)
        evaluated.append((design, evaluation))
    window.quality = quality(evaluated[:QUALITY_PREFIX])
    window.quality_n = min(QUALITY_PREFIX, len(evaluated))
    return [design for design, _ in evaluated]


def service_layers(window: Window, spans) -> None:
    """Per-layer metrics and budget of a traced service window."""
    from workloads import synth_rows, synthesis_layers

    data = window.service
    spans = [s for s in spans if s["start"] >= data["began"]]
    records, jobs = data["records"], data["jobs"]
    before, after = data["before"], data["after"]
    unique = {r["body"]["job_id"] for r in records if r["status"] == 201 and r["kind"] == "unique"}
    solved = [jobs[j] for j in unique if j in jobs]
    gets = [s for s in spans if s["name"] == "l2.get"]
    puts = [s for s in spans if s["name"] == "l2.put"]
    appends = [s for s in spans if s["name"] == "jobstore.append"]
    # Solver counters come from the local re-solves of the unique jobs,
    # which repeat the server's work exactly (their digests match).
    counters: dict = {}
    for design in data["local"]:
        add_counters(counters, design)
    layers = synthesis_layers(spans, counters, len(data["local"]), runs=count(spans, "synth"))
    layers.update(
        {
            "l2.get_s": median(durations(spans, "l2.get")),
            "l2.get_calls": len(gets),
            "l2.put_s": median(durations(spans, "l2.put")),
            "l2.put_calls": len(puts),
            "l2.hit_rate": sum(s["hit"] for s in gets) / len(gets) if gets else 0.0,
            "http.post_s": median(r["post_s"] for r in records),
            "jobs.queue_wait_s": median(
                j["updated_unix"] - j["created_unix"] - j["elapsed_s"] for j in solved
            ),
            "jobs.solve_s": median(j["elapsed_s"] for j in solved),
            "jobs.dedup_hits": after["dedup_hits"] - before["dedup_hits"],
            "jobs.l2_result_hits": after["cache_l2_result_hits"] - before["cache_l2_result_hits"],
            "client.send_lag_p90_s": percentile((r["lag_s"] for r in records), 90.0),
            "jobstore.append_s": median(durations(spans, "jobstore.append")),
            "jobstore.append_total_s": sum(durations(spans, "jobstore.append")),
            "jobstore.appends": len(appends),
            "jobstore.append_bytes": median(s["bytes"] for s in appends),
        }
    )
    window.layers = layers
    # Budget of one request: client and HTTP time, then the server's
    # busy time spread over the requests.  Queue wait and idle time are
    # what remains unattributed.
    n = max(1, len(records))
    rows = [
        ("client.send_lag", mean(r["lag_s"] for r in records)),
        ("http.post", mean(r["post_s"] for r in records)),
    ]
    rows += synth_rows(spans, n)
    # Whole-result L2 traffic; the conflict-dict traffic inside a solve
    # is already in the synth rows above.
    for name, group in (("l2.get", gets), ("l2.put", puts)):
        top = [s for s in group if s["parent"] is None]
        rows.append((f"{name}(results)", sum(s["end"] - s["start"] for s in top) / n))
    running = [s for s in appends if s["state"] == "running"]
    rows.append(("jobstore.append(running)", sum(s["end"] - s["start"] for s in running) / n))
    window.budget = rows
