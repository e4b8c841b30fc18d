"""Acceptance and chaos suite for the synthesis job service.

Three layers:

- unit tests against :class:`JobManager` / :class:`JobStore` /the spec
  parser (deterministic, no sockets);
- live-server tests over real HTTP against a server hosted on a
  background thread (happy path, SSE, idempotent submission,
  backpressure, deadline degradation, breaker-driven readiness);
- process-level chaos: ``python -m repro serve`` as a subprocess,
  SIGKILLed mid-run and restarted on the same store (no duplicate
  solves, byte-identical designs) and SIGTERM-drained to a clean
  exit 0.
"""

from __future__ import annotations

import asyncio
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

from repro.robustness import ConfigurationError, InputError
from repro.service import (
    JobManager,
    JobRecord,
    JobStore,
    QueueFull,
    ServiceConfig,
    ServiceDraining,
    ServiceNotReady,
    case_from_spec,
    job_key,
    serve,
)

REPO_SRC = str(Path(__file__).resolve().parent.parent / "src")

#: An 8-node ring floorplan that costs a real MILP solve (~40-50ms
#: warm) every time — slow enough that a burst of them gives the chaos
#: tests a window to interrupt, fast enough for CI.
SLOW_RING = [
    [0.0, 0.0],
    [210.0, 0.0],
    [420.0, 0.0],
    [420.0, 210.0],
    [420.0, 420.0],
    [210.0, 420.0],
    [0.0, 420.0],
    [0.0, 210.0],
]


def slow_spec(index: int, **extra) -> dict:
    """A unique full-solve job: the same ring jittered per index, so
    every job has a distinct content key and its own MILP solve."""
    jitter = 0.25 * (index + 1)
    spec = {
        "positions": [[x + jitter, y + jitter] for x, y in SLOW_RING],
        "label": f"slow{index}",
    }
    spec.update(extra)
    return spec


#: Option fields of the wrong JSON type: each would otherwise synthesize
#: something other than what was asked (``"false"`` is truthy, ``true``
#: is a budget of 1) or crash the solve.
MISTYPED_FIELDS = [
    ("shortcuts", "false"),
    ("openings", 0),
    ("pdn", "false"),
    ("lazy_conflicts", "on"),
    ("wl", True),
    ("wl", "8"),
    ("wl", 8.0),
    ("deadline", "5"),
    ("deadline", False),
    ("label", 7),
]


# ---------------------------------------------------------------------------
# unit layer: spec parsing, config, store
# ---------------------------------------------------------------------------
class TestSpecParsing:
    def test_unknown_field_rejected(self):
        with pytest.raises(InputError, match="unknown spec field"):
            case_from_spec({"nodez": 8})

    @pytest.mark.parametrize("field, value", MISTYPED_FIELDS)
    def test_mistyped_field_rejected(self, field, value):
        with pytest.raises(InputError, match=f"'{field}' must be"):
            case_from_spec({"nodes": 8, field: value})

    def test_null_keeps_the_default_where_it_has_one(self):
        options = case_from_spec(
            {"nodes": 8, "wl": None, "deadline": None, "lazy_conflicts": None}
        ).options
        assert options.wl_budget is None
        assert options.deadline_s is None
        assert options.lazy_conflicts is None

    def test_non_object_rejected(self):
        with pytest.raises(InputError, match="JSON object"):
            case_from_spec([1, 2, 3])

    def test_bad_nodes_rejected(self):
        with pytest.raises(InputError, match="'nodes'"):
            case_from_spec({"nodes": 1})
        with pytest.raises(InputError, match="'nodes'"):
            case_from_spec({"nodes": "eight"})

    def test_bad_positions_rejected(self):
        with pytest.raises(InputError, match="positions"):
            case_from_spec({"positions": []})
        with pytest.raises(InputError, match="positions"):
            case_from_spec({"positions": [["x", "y"]]})

    def test_network_rejections_are_input_errors(self):
        square = [[0, 0], [2, 0], [2, 2], [0, 2]]
        with pytest.raises(InputError, match="out of range"):
            case_from_spec({"positions": square, "traffic": [[0, 9]]})
        with pytest.raises(InputError, match="out of range"):
            case_from_spec({"nodes": 8, "traffic": [[0, 9]]})
        with pytest.raises(InputError, match="traffic"):
            case_from_spec({"nodes": 8, "traffic": 3})

    def test_nodes_spec_carries_its_traffic(self):
        case = case_from_spec({"nodes": 8, "traffic": [[0, 1]]})
        assert case.network.traffic == ((0, 1),)
        assert job_key(case) != job_key(case_from_spec({"nodes": 8}))

    def test_identical_specs_share_a_key(self):
        a = job_key(case_from_spec({"nodes": 8, "wl": 8}))
        b = job_key(case_from_spec({"nodes": 8, "wl": 8}))
        c = job_key(case_from_spec({"nodes": 8, "wl": 9}))
        assert a == b != c

    def test_options_mapping(self):
        case = case_from_spec(
            {
                "nodes": 8,
                "wl": 10,
                "ring_method": "heuristic",
                "shortcuts": False,
                "pdn": False,
                "deadline": 2.5,
                "on_error": "raise",
                "label": "mapped",
            }
        )
        options = case.options
        assert options.wl_budget == 10
        assert options.ring_method == "heuristic"
        assert not options.enable_shortcuts
        assert options.pdn_mode is None
        assert options.deadline_s == 2.5
        assert options.on_error == "raise"
        assert case.named() == "mapped"


class TestServiceConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            ServiceConfig(queue_limit=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(max_concurrency=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(drain_timeout_s=0)
        with pytest.raises(ConfigurationError):
            ServiceConfig(retries=-1)

    def test_watchdog_forces_process_isolation(self):
        assert not ServiceConfig().supervisor_config().force_pool
        assert ServiceConfig(case_timeout_s=5.0).supervisor_config().force_pool
        assert ServiceConfig(isolate_jobs=True).supervisor_config().force_pool


class TestJobStore:
    def _record(self, job_id: str, state: str = "queued") -> JobRecord:
        return JobRecord(job_id=job_id, key=f"key-{job_id}", spec={"nodes": 8}, state=state)

    def test_append_load_roundtrip(self, tmp_path):
        store = JobStore(tmp_path)
        record = self._record("aaaa")
        store.append(record)
        record.state = "done"
        record.digest = "abc"
        store.append(record)
        loaded = JobStore(tmp_path).load()
        assert list(loaded) == ["aaaa"]
        assert loaded["aaaa"].state == "done"
        assert loaded["aaaa"].digest == "abc"

    def test_unknown_state_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown job state"):
            JobRecord.from_line({"kind": "job", "job_id": "x", "state": "zombie"})

    def test_compaction_keeps_latest_only(self, tmp_path):
        store = JobStore(tmp_path)
        record = self._record("aaaa")
        for state in ("queued", "running", "done"):
            record.state = state
            store.append(record)
        assert len(store.path.read_text().splitlines()) == 4  # header + 3
        store.compact({"aaaa": record})
        lines = store.path.read_text().splitlines()
        assert len(lines) == 2  # header + 1
        assert JobStore(tmp_path).load()["aaaa"].state == "done"


class TestAdmission:
    """JobManager admission decisions, with no workers draining the
    queue — every outcome is deterministic."""

    def _manager(self, tmp_path, **overrides) -> JobManager:
        settings = dict(port=0, store_dir=tmp_path, queue_limit=2)
        settings.update(overrides)
        return JobManager(ServiceConfig(**settings))

    def test_queue_full_with_growing_retry_after(self, tmp_path):
        manager = self._manager(tmp_path)
        manager.submit({"nodes": 8, "label": "a"})
        manager.submit({"nodes": 8, "label": "b"})
        with pytest.raises(QueueFull) as first:
            manager.submit({"nodes": 8, "label": "c"})
        with pytest.raises(QueueFull) as second:
            manager.submit({"nodes": 8, "label": "d"})
        assert first.value.retry_after_s > 0
        # streak 2 backs off at least as far as streak 1 (jitter aside,
        # the base doubles).
        assert second.value.retry_after_s > first.value.retry_after_s

    def test_dedup_bypasses_full_queue(self, tmp_path):
        manager = self._manager(tmp_path)
        job, created = manager.submit({"nodes": 8, "label": "a"})
        manager.submit({"nodes": 8, "label": "b"})
        again, created_again = manager.submit({"nodes": 8, "label": "a"})
        assert created and not created_again
        assert again is job
        assert job.record.dedup_hits == 1

    def test_draining_rejected(self, tmp_path):
        manager = self._manager(tmp_path)
        manager._draining = True
        with pytest.raises(ServiceDraining):
            manager.submit({"nodes": 8})

    def test_breaker_rejects_then_cooldown_recovers(self, tmp_path):
        manager = self._manager(
            tmp_path,
            breaker_window=4,
            breaker_threshold=0.5,
            breaker_min_samples=2,
            breaker_cooldown_s=0.2,
        )
        manager.breaker.record(False)
        manager.breaker.record(False)
        manager._breaker_opened_s = time.monotonic()
        assert manager.breaker.open
        assert not manager.ready
        with pytest.raises(ServiceNotReady) as info:
            manager.submit({"nodes": 8})
        assert info.value.retry_after_s >= 1.0
        time.sleep(0.25)
        assert manager.ready  # cooldown reset (half-open)
        job, created = manager.submit({"nodes": 8})
        assert created

    def test_submission_is_durable_before_ack(self, tmp_path):
        manager = self._manager(tmp_path)
        job, _ = manager.submit({"nodes": 8, "label": "durable"})
        loaded = JobStore(tmp_path).load()
        assert loaded[job.record.job_id].state == "queued"
        assert loaded[job.record.job_id].spec["label"] == "durable"


# ---------------------------------------------------------------------------
# live-server layer (thread-hosted, real sockets)
# ---------------------------------------------------------------------------
class LiveServer:
    """``serve()`` on a daemon thread, drained via its stop event."""

    def __init__(self, store_dir, **overrides):
        self.config = ServiceConfig(port=0, store_dir=store_dir, **overrides)
        self.server = None
        self.result = None
        self.error = None
        self._ready = threading.Event()
        self._loop = None
        self._stop = None
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()
        if not self._ready.wait(30):
            raise RuntimeError(f"service did not start: {self.error}")

    def _run(self):
        try:
            asyncio.run(self._main())
        except BaseException as exc:  # surfaced via stop()
            self.error = exc
            self._ready.set()

    async def _main(self):
        self._loop = asyncio.get_running_loop()
        self._stop = asyncio.Event()

        def on_ready(server):
            self.server = server
            self._ready.set()

        self.result = await serve(
            self.config, ready_callback=on_ready, stop_event=self._stop
        )

    def stop(self):
        if self._loop is not None and self._stop is not None:
            self._loop.call_soon_threadsafe(self._stop.set)
        self._thread.join(timeout=60)
        if self.error is not None:
            raise self.error
        return self.result

    # -- tiny blocking HTTP client ------------------------------------------
    @property
    def base(self) -> str:
        host, port = self.server.address
        return f"http://{host}:{port}"

    def get(self, path: str, timeout: float = 30.0):
        try:
            with urllib.request.urlopen(self.base + path, timeout=timeout) as resp:
                return resp.status, resp.read(), dict(resp.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read(), dict(exc.headers)

    def get_json(self, path: str, timeout: float = 30.0):
        status, body, headers = self.get(path, timeout=timeout)
        return status, json.loads(body), headers

    def post_json(self, path: str, payload, timeout: float = 30.0):
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                return resp.status, json.loads(resp.read()), dict(resp.headers)
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read()), dict(exc.headers)

    def wait_terminal(self, job_id: str, timeout: float = 60.0) -> dict:
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            status, payload, _ = self.get_json(f"/jobs/{job_id}")
            assert status == 200
            if payload["state"] in ("done", "failed"):
                return payload
            time.sleep(0.05)
        raise AssertionError(f"job {job_id} not terminal after {timeout}s")


@pytest.fixture
def live(tmp_path):
    servers = []

    def factory(**overrides) -> LiveServer:
        store = tmp_path / f"store{len(servers)}"
        server = LiveServer(store, **overrides)
        servers.append(server)
        return server

    yield factory
    for server in servers:
        try:
            server.stop()
        except Exception:
            pass


def sse_events(raw: bytes) -> list[dict]:
    return [
        json.loads(line[6:])
        for line in raw.decode("utf-8").splitlines()
        if line.startswith("data: ")
    ]


class TestHappyPath:
    def test_submit_poll_design_sse_metrics(self, live):
        server = live()
        status, ack, _ = server.post_json("/jobs", {"nodes": 8, "wl": 8, "label": "hp"})
        assert status == 201 and ack["created"]
        job_id = ack["job_id"]

        final = server.wait_terminal(job_id)
        assert final["state"] == "done"
        assert final["runs"] == 1
        assert final["digest"]

        status, design_bytes, headers = server.get(f"/jobs/{job_id}/design")
        assert status == 200
        assert headers["X-Design-Digest"] == final["digest"]
        design = json.loads(design_bytes)
        assert design["assignments"]

        # SSE after the fact replays the full history and terminates.
        status, raw, _ = server.get(f"/jobs/{job_id}/events")
        assert status == 200
        names = [event["event"] for event in sse_events(raw)]
        assert names[0] == "job_queued"
        assert names[-1] == "job_done"
        assert "case_start" in names and "case_done" in names
        assert all(event["job_id"] == job_id for event in sse_events(raw))

        status, health, _ = server.get_json("/healthz")
        assert status == 200 and health["status"] == "ok"
        status, ready, _ = server.get_json("/readyz")
        assert status == 200 and ready["ready"]

        status, metrics_bytes, _ = server.get("/metrics")
        text = metrics_bytes.decode("utf-8")
        assert status == 200
        assert text.endswith("# EOF\n")
        assert "xring_service_jobs_done_total 1" in text
        assert "xring_service_solves_total 1" in text

        status, listing, _ = server.get_json("/jobs")
        assert status == 200 and len(listing["jobs"]) == 1

    def test_sse_live_follow(self, live):
        server = live()
        _, ack, _ = server.post_json("/jobs", {"nodes": 8, "wl": 9, "label": "follow"})
        # Open the stream while the job runs and read to job_done.
        with urllib.request.urlopen(
            f"{server.base}/jobs/{ack['job_id']}/events", timeout=60
        ) as resp:
            names = []
            for raw_line in resp:
                line = raw_line.decode("utf-8").strip()
                if line.startswith("data: "):
                    names.append(json.loads(line[6:])["event"])
                    if names[-1] in ("job_done", "job_failed"):
                        break
        assert names[0] == "job_queued"
        assert names[-1] == "job_done"

    def test_malformed_floorplan_is_a_400(self, live):
        server = live()
        for spec in (
            {"positions": [[0, 0], [1]]},
            {"positions": [[0, 0], [2, 0], [2, 2], [0, 2]], "traffic": [[0, 9]]},
        ):
            status, payload, _ = server.post_json("/jobs", spec)
            assert status == 400, (spec, status, payload)
            assert "positions" in payload["error"] or "out of range" in payload["error"]

    def test_error_routes(self, live):
        server = live()
        assert server.get("/nope")[0] == 404
        assert server.get("/jobs/unknown")[0] == 404
        assert server.get("/jobs/unknown/design")[0] == 404
        status, payload, _ = server.post_json("/jobs", {"nodez": 1})
        assert status == 400 and "unknown spec field" in payload["error"]
        status, payload, _ = server.post_json(
            "/jobs", {"nodes": 8, "milp_backend": "scipy"}
        )
        assert status == 400 and "unknown spec field" in payload["error"]
        for field, value in MISTYPED_FIELDS:
            status, payload, _ = server.post_json(
                "/jobs", {"nodes": 8, field: value}
            )
            assert status == 400, (field, value, status, payload)
            assert f"'{field}' must be" in payload["error"]
        request = urllib.request.Request(
            server.base + "/jobs", data=b"{not json", method="POST"
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request, timeout=10)
        assert info.value.code == 400
        # GET on POST-only route
        status, payload, _ = server.post_json("/healthz", {})
        assert status == 404 or status == 405

    def test_oversized_body_rejected(self, live):
        server = live(max_body_bytes=1024)
        status, payload, _ = server.post_json(
            "/jobs", {"positions": [[float(i), float(i)] for i in range(200)]}
        )
        assert status == 413


class TestIdempotency:
    def test_concurrent_identical_posts_share_one_solve(self, live):
        server = live(max_concurrency=2)
        spec = {"nodes": 8, "wl": 8, "label": "idem"}
        results = []
        barrier = threading.Barrier(2)

        def submit():
            barrier.wait()
            results.append(server.post_json("/jobs", spec))

        threads = [threading.Thread(target=submit) for _ in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        statuses = sorted(status for status, _, _ in results)
        ids = {payload["job_id"] for _, payload, _ in results}
        assert statuses == [200, 201]  # exactly one creation
        assert len(ids) == 1
        server.wait_terminal(ids.pop())
        _, stats, _ = server.get_json("/stats")
        assert stats["solves"] == 1
        assert stats["admitted"] == 1
        assert stats["dedup_hits"] == 1

    def test_warm_resubmission_is_instant_and_solve_free(self, live):
        server = live()
        spec = {"nodes": 8, "wl": 8, "label": "warm"}
        _, ack, _ = server.post_json("/jobs", spec)
        server.wait_terminal(ack["job_id"])
        started = time.monotonic()
        status, again, _ = server.post_json("/jobs", spec)
        elapsed = time.monotonic() - started
        assert status == 200
        assert again["job_id"] == ack["job_id"]
        assert again["state"] == "done"
        assert elapsed < 1.0  # no solve, no queue trip
        _, stats, _ = server.get_json("/stats")
        assert stats["solves"] == 1
        assert stats["dedup_hits"] == 1


class TestBackpressure:
    def test_queue_full_yields_429_with_retry_after(self, live):
        server = live(queue_limit=1)
        # First job occupies the worker (~0.5s), second fills the
        # queue; everything after that must bounce with 429.
        acks = [server.post_json("/jobs", slow_spec(i)) for i in range(5)]
        statuses = [status for status, _, _ in acks]
        assert statuses[0] == 201
        assert 429 in statuses
        rejected = next(
            (payload, headers)
            for status, payload, headers in acks
            if status == 429
        )
        payload, headers = rejected
        assert "queue is full" in payload["error"]
        assert int(headers["Retry-After"]) >= 1
        # The rejections never hang or 500; admitted jobs still finish.
        for status, payload, _ in acks:
            if status == 201:
                final = server.wait_terminal(payload["job_id"])
                assert final["state"] == "done"
        _, stats, _ = server.get_json("/stats")
        assert stats["rejected_queue_full"] >= 1


class TestDeadlines:
    def test_expired_deadline_degrades_with_provenance(self, live):
        server = live()
        _, ack, _ = server.post_json(
            "/jobs", {"nodes": 8, "deadline": 0.001, "label": "rushed"}
        )
        final = server.wait_terminal(ack["job_id"])
        assert final["state"] == "done"
        assert final["degraded"]
        assert final["fallbacks"]
        status, _, headers = server.get(f"/jobs/{ack['job_id']}/design")
        assert status == 200
        assert headers["X-Degraded"] == "1"

    def test_deadline_with_on_error_raise_maps_to_504(self, live):
        server = live(retries=0)
        _, ack, _ = server.post_json(
            "/jobs",
            {"nodes": 8, "deadline": 0.001, "on_error": "raise", "label": "hard"},
        )
        final = server.wait_terminal(ack["job_id"])
        assert final["state"] == "failed"
        # The expired budget surfaces as the timeout family — the
        # stage-level StageTimeout or the whole-run DeadlineExceeded.
        assert final["error_type"] in ("DeadlineExceeded", "StageTimeout")
        status, provenance, _ = server.get_json(f"/jobs/{ack['job_id']}/design")
        assert status == 504
        assert provenance["error_type"] == final["error_type"]
        assert provenance["attempts"] == 1

    def test_default_deadline_applies_to_bare_specs(self, live):
        server = live(default_deadline_s=0.001)
        _, ack, _ = server.post_json("/jobs", {"nodes": 8, "label": "defaulted"})
        final = server.wait_terminal(ack["job_id"])
        assert final["state"] == "done"
        assert final["degraded"]

    def test_design_conflict_while_running(self, live):
        server = live()
        _, ack, _ = server.post_json("/jobs", slow_spec(99))
        status, payload, _ = server.get_json(f"/jobs/{ack['job_id']}/design")
        assert status == 409
        server.wait_terminal(ack["job_id"])


class TestReadiness:
    def test_breaker_opens_readyz_503_then_recovers(self, live):
        server = live(
            retries=0,
            breaker_window=4,
            breaker_threshold=0.5,
            breaker_min_samples=2,
            breaker_cooldown_s=1.5,
        )
        # Two deterministic failures trip the breaker.
        for index in range(2):
            _, ack, _ = server.post_json(
                "/jobs",
                {
                    "nodes": 8,
                    "deadline": 0.001,
                    "on_error": "raise",
                    "label": f"fail{index}",
                },
            )
            final = server.wait_terminal(ack["job_id"])
            assert final["state"] == "failed"
        status, ready, headers = server.get_json("/readyz")
        assert status == 503
        assert not ready["ready"]
        assert "breaker" in ready["reason"]
        assert int(headers["Retry-After"]) >= 1
        status, payload, _ = server.post_json("/jobs", {"nodes": 8, "label": "shed"})
        assert status == 503
        _, stats, _ = server.get_json("/stats")
        assert stats["rejected_breaker"] == 1
        # After the cooldown the breaker half-opens and traffic flows.
        deadline = time.monotonic() + 10
        while time.monotonic() < deadline:
            if server.get_json("/readyz")[0] == 200:
                break
            time.sleep(0.1)
        status, ack, _ = server.post_json("/jobs", {"nodes": 8, "wl": 8, "label": "ok"})
        assert status == 201
        assert server.wait_terminal(ack["job_id"])["state"] == "done"


# ---------------------------------------------------------------------------
# process-level chaos: kill -9 / SIGTERM against the real CLI
# ---------------------------------------------------------------------------
class ServerProcess:
    """``python -m repro serve`` as a child process."""

    def __init__(self, store_dir: Path, *extra_args: str):
        env = dict(os.environ)
        env["PYTHONPATH"] = REPO_SRC + os.pathsep + env.get("PYTHONPATH", "")
        self.store_dir = Path(store_dir)
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro",
                "serve",
                "--port",
                "0",
                "--store",
                str(store_dir),
                *extra_args,
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self.base = self._await_address()

    def _await_address(self) -> str:
        address_path = self.store_dir / "address"
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"server died at startup: {self.proc.stderr.read()}"
                )
            if address_path.exists():
                text = address_path.read_text().strip()
                if text:
                    host, _, port = text.rpartition(":")
                    # The file is written atomically, but make sure the
                    # listener actually answers before handing it out.
                    try:
                        with socket.create_connection((host, int(port)), 2):
                            pass
                    except OSError:
                        time.sleep(0.05)
                        continue
                    return f"http://{host}:{port}"
            time.sleep(0.05)
        raise RuntimeError("server never published its address")

    def get_json(self, path: str, timeout: float = 30.0):
        try:
            with urllib.request.urlopen(self.base + path, timeout=timeout) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def get_bytes(self, path: str, timeout: float = 30.0):
        with urllib.request.urlopen(self.base + path, timeout=timeout) as resp:
            return resp.status, resp.read()

    def post_json(self, path: str, payload, timeout: float = 30.0):
        request = urllib.request.Request(
            self.base + path,
            data=json.dumps(payload).encode("utf-8"),
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=timeout) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def kill9(self):
        self.proc.kill()
        self.proc.wait(timeout=30)

    def sigterm(self) -> int:
        self.proc.send_signal(signal.SIGTERM)
        return self.proc.wait(timeout=120)

    def cleanup(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait(timeout=30)


@pytest.fixture
def spawn(tmp_path):
    procs = []

    def factory(*extra_args: str, store: str = "store") -> ServerProcess:
        proc = ServerProcess(tmp_path / store, *extra_args)
        procs.append(proc)
        return proc

    yield factory
    for proc in procs:
        proc.cleanup()


class TestCrashRecovery:
    JOBS = 20

    def test_sigkill_restart_no_duplicate_solves(self, spawn, tmp_path):
        """The headline acceptance: a burst of jobs, SIGKILL mid-run,
        restart on the same store; every job reaches a terminal state,
        nothing finished is re-solved, designs are byte-identical."""
        server = spawn()
        ids = []
        for index in range(self.JOBS):
            status, ack = server.post_json("/jobs", slow_spec(index))
            assert status == 201, ack
            ids.append(ack["job_id"])
        assert len(set(ids)) == self.JOBS

        # Wait until a prefix is done, then kill -9 mid-run.
        done_before: dict[str, dict] = {}
        deadline = time.monotonic() + 120
        while len(done_before) < 3 and time.monotonic() < deadline:
            for job_id in ids:
                if job_id in done_before:
                    continue
                _, status_payload = server.get_json(f"/jobs/{job_id}")
                if status_payload["state"] == "done":
                    done_before[job_id] = status_payload
        designs_before = {
            job_id: server.get_bytes(f"/jobs/{job_id}/design")[1]
            for job_id in done_before
        }
        assert len(done_before) >= 3, "jobs too fast/slow for the chaos window"
        server.kill9()

        # Restart on the same store: terminal jobs restored, the rest
        # re-adopted and finished.
        revived = spawn(store="store")
        _, stats = revived.get_json("/stats")
        assert stats["restored"] >= len(done_before)
        assert stats["restored"] + stats["adopted"] == self.JOBS
        # The kill must have landed mid-run for the test to mean
        # anything: at least one job needed re-adoption.
        assert stats["adopted"] >= 1, "SIGKILL landed after the whole burst"
        deadline = time.monotonic() + 180
        finals = {}
        while time.monotonic() < deadline and len(finals) < self.JOBS:
            for job_id in ids:
                if job_id in finals:
                    continue
                _, payload = revived.get_json(f"/jobs/{job_id}")
                if payload["state"] in ("done", "failed"):
                    finals[job_id] = payload
            time.sleep(0.05)
        assert len(finals) == self.JOBS, "jobs left non-terminal after restart"
        assert all(payload["state"] == "done" for payload in finals.values())

        for job_id, before in done_before.items():
            after = finals[job_id]
            # No duplicate solve: the pre-kill run is still the only one.
            assert after["runs"] == 1
            assert not after["resumed"]
            assert after["digest"] == before["digest"]
            # Byte-identical design across the crash.
            assert revived.get_bytes(f"/jobs/{job_id}/design")[1] == designs_before[job_id]
        # Exactly the re-adopted jobs carry resumed provenance.
        resumed = [
            job_id for job_id, payload in finals.items() if payload["resumed"]
        ]
        assert len(resumed) == stats["adopted"]

    def test_sigterm_drains_clean_exit_zero(self, spawn):
        server = spawn()
        status, ack = server.post_json("/jobs", {"nodes": 8, "wl": 8})
        assert status == 201
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            _, payload = server.get_json(f"/jobs/{ack['job_id']}")
            if payload["state"] == "done":
                break
            time.sleep(0.05)
        exit_code = server.sigterm()
        assert exit_code == 0
        stderr = server.proc.stderr.read()
        assert "drained cleanly" in stderr
        # The drain compacted the store: one line per job + header.
        store = JobStore(server.store_dir)
        lines = store.path.read_text().splitlines()
        assert len(lines) == 2
        assert JobStore(server.store_dir).load()[ack["job_id"]].state == "done"

    def test_sigterm_mid_solve_finishes_in_flight(self, spawn):
        server = spawn()
        status, ack = server.post_json("/jobs", slow_spec(77))
        assert status == 201
        # Make sure the worker actually picked the job up before the
        # signal, so the drain has something in flight to wait on.
        deadline = time.monotonic() + 30
        while time.monotonic() < deadline:
            _, payload = server.get_json(f"/jobs/{ack['job_id']}")
            if payload["state"] in ("running", "done"):
                break
            time.sleep(0.01)
        exit_code = server.sigterm()
        assert exit_code == 0  # in-flight job finished within the grace
        record = JobStore(server.store_dir).load()[ack["job_id"]]
        assert record.state == "done"
