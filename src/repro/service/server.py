"""The ``xring serve`` HTTP front end.

Routes (all JSON unless noted)::

    POST /jobs              submit a job spec -> 201 {job_id, ...}
                            (200 on an idempotent duplicate;
                             429 + Retry-After when the queue is full;
                             503 while draining or breaker-open)
    GET  /jobs              every job's status, oldest first
    GET  /jobs/{id}         one job's status
    GET  /jobs/{id}/events  live SSE progress stream (replays history,
                            then follows until the job is terminal)
    GET  /jobs/{id}/design  the canonical design JSON (byte-identical
                            across runs); 504 + provenance when the
                            job died of its deadline, 409 while the
                            job is not terminal yet
    GET  /jobs/{id}/trace   the stitched cross-process trace of the
                            solve (409 until terminal, 404 if the
                            terminal record carries no spans)
    GET  /healthz           liveness (200 while the process runs)
    GET  /readyz            readiness (503 while draining or the
                            circuit breaker is open)
    GET  /stats             service counters (JSON mirror of /metrics)
    GET  /metrics           OpenMetrics text exposition
    GET  /federate          merged OpenMetrics: this registry plus a
                            live scrape of every configured cache
                            node's /metrics (one # TYPE per family,
                            one # EOF; dead nodes are skipped and
                            counted in X-Federate-Sources)
    GET  /alerts            SLO state: firing alerts, every SLO's
                            latest burn-rate evaluation, recent
                            transitions
    GET  /dashboard         live HTML dashboard (self-contained page)
    GET  /dashboard/data    the JSON snapshot the dashboard polls
    POST /debug/profile     sample this process for ?seconds=N at
                            ?hz=H and return a speedscope profile

Observability loop: every ``scrape_interval_s`` the server snapshots
its registry into a bounded :class:`TimeSeriesStore` (ring buffers,
multi-resolution downsampling, JSONL persisted to
``<store_dir>/timeseries.jsonl``) and evaluates the configured SLOs
with multi-window burn-rate alerting; transitions go to stderr as
JSON lines and, with ``alert_log``, to an append-only file.

Every response carries ``X-Request-Id`` — echoed from the caller's
``X-Request-Id`` header when present, minted otherwise — including
the 4xx/5xx rejection envelopes, so a rejected submission is still
greppable across client and server logs.  ``POST /jobs`` additionally
honours a W3C ``traceparent`` header: the job's solve spans join the
caller's distributed trace instead of starting a fresh one.

Lifecycle: :func:`serve` binds, adopts the job store, then blocks
until SIGTERM/SIGINT.  The drain sequence keeps the listener up — so
pollers and SSE followers observe the final transitions and late
submissions get an honest 503 — while in-flight jobs finish, then
compacts the store and returns the drain report (the CLI exits 0 on a
clean drain).

Binding to port 0 is supported for tests: the resolved address is
written to ``<store_dir>/address`` as one ``host:port`` line.
"""

from __future__ import annotations

import asyncio
import json
import signal
import time
from typing import Any

from pathlib import Path

from repro.obs import (
    AlertEngine,
    MetricsRegistry,
    SamplingProfiler,
    TimeSeriesStore,
    atomic_write_text,
    canonical_json,
    default_service_slos,
    file_sink,
    get_logger,
    merge_expositions,
    new_request_id,
    parse_traceparent,
    stderr_sink,
    stitch_spans,
    to_openmetrics,
)
from repro.service.dashboard import dashboard_data, render_dashboard_html
from repro.service.http import (
    HttpError,
    Request,
    read_request,
    send_json,
    send_response,
    send_sse_comment,
    send_sse_event,
    start_sse,
)
from repro.service.jobs import (
    AdmissionError,
    Job,
    JobManager,
    QueueFull,
    ServiceConfig,
)

_log = get_logger("service.server")

#: Seconds of SSE silence before a keep-alive comment frame.
SSE_KEEPALIVE_S = 15.0

#: Events that end an SSE stream (the job reached a terminal state).
_TERMINAL_EVENTS = frozenset({"job_done", "job_failed"})

ADDRESS_FILENAME = "address"

#: ``POST /debug/profile`` bounds — the profiler thread is cheap (<5%
#: overhead, gated by test) but an unbounded duration would hold the
#: HTTP connection open arbitrarily long.
PROFILE_MAX_SECONDS = 30.0
PROFILE_MAX_HZ = 250.0


class ServiceServer:
    """One listening ``xring serve`` process."""

    def __init__(
        self,
        config: ServiceConfig,
        *,
        metrics: MetricsRegistry | None = None,
    ) -> None:
        self.config = config
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.manager = JobManager(config, metrics=self.metrics)
        self._server: asyncio.AbstractServer | None = None
        self._started_unix = time.time()
        self.address: tuple[str, int] | None = None
        #: Loop-thread guard: at most one /debug/profile capture at a
        #: time (two samplers would double the overhead and interleave).
        self._profiling = False
        #: Fleet observability: bounded metrics history + SLO engine,
        #: fed by the scrape loop (disabled via scrape_interval_s=0).
        self.timeseries = TimeSeriesStore(
            persist_path=Path(config.store_dir) / "timeseries.jsonl",
        )
        sinks = [stderr_sink]
        if config.alert_log:
            sinks.append(file_sink(config.alert_log))
        self.alerts = AlertEngine(
            self.timeseries,
            default_service_slos(
                availability=config.slo_availability,
                latency_p99_s=config.slo_latency_p99_s,
                window_s=config.slo_window_s,
                burn_threshold=config.slo_burn_threshold,
            ),
            sinks=sinks,
        )
        self._obs_task: asyncio.Task | None = None

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> dict[str, int]:
        """Adopt the store, bind the listener, publish the address."""
        adoption = await self.manager.start()
        self._server = await asyncio.start_server(
            self._handle, self.config.host, self.config.port
        )
        sock = self._server.sockets[0]
        host, port = sock.getsockname()[:2]
        self.address = (host, port)
        self.metrics.gauge("service.ready").set(1)
        atomic_write_text(
            self.manager.store.directory / ADDRESS_FILENAME,
            f"{host}:{port}\n",
        )
        _log.warning(
            "xring service listening on http://%s:%d (store: %s)",
            host,
            port,
            self.manager.store.directory,
        )
        if self.config.scrape_interval_s > 0:
            self._obs_task = asyncio.ensure_future(self._obs_loop())
        return adoption

    async def _obs_loop(self) -> None:
        """Scrape the registry into history and evaluate SLOs forever."""
        interval = self.config.scrape_interval_s
        while True:
            await asyncio.sleep(interval)
            try:
                self.timeseries.observe(self.metrics.snapshot())
                self.alerts.evaluate()
            except Exception:  # observability must never kill the loop
                _log.warning("metrics scrape/SLO evaluation failed", exc_info=True)

    async def shutdown(self) -> dict[str, Any]:
        """Graceful drain: finish in-flight work, then stop listening."""
        _log.warning("drain requested; no longer admitting jobs")
        self.metrics.gauge("service.ready").set(0)
        if self._obs_task is not None:
            self._obs_task.cancel()
            try:
                await self._obs_task
            except (asyncio.CancelledError, Exception):
                pass
            self._obs_task = None
        stats = await self.manager.drain()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        _log.warning(
            "drain complete in %.3fs (%s, %d abandoned)",
            stats["drain_s"] or 0.0,
            "clean" if stats["clean"] else "DIRTY",
            stats["abandoned"],
        )
        return stats

    # -- connection handling -------------------------------------------------
    @staticmethod
    def _rid_headers(
        rid: str, extra: dict[str, str] | None = None
    ) -> dict[str, str]:
        """Response headers with ``X-Request-Id`` merged in."""
        headers = {"X-Request-Id": rid}
        if extra:
            headers.update(extra)
        return headers

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        # Minted up front so even a malformed request that never
        # parses far enough to carry a header gets a correlatable id.
        rid = new_request_id()
        try:
            try:
                request = await read_request(reader, self.config.max_body_bytes)
            except HttpError as exc:
                await send_json(
                    writer,
                    exc.status,
                    {"error": exc.message, "request_id": rid},
                    self._rid_headers(rid, exc.headers),
                )
                return
            if request is None:
                return
            rid = request.headers.get("x-request-id", "").strip() or rid
            try:
                await self._dispatch(request, writer, rid)
            except HttpError as exc:
                await send_json(
                    writer,
                    exc.status,
                    {"error": exc.message, "request_id": rid},
                    self._rid_headers(rid, exc.headers),
                )
            except (ConnectionResetError, BrokenPipeError):
                raise
            except Exception as exc:  # never leak a traceback as a hang
                _log.warning(
                    "request %s: unhandled error serving %s %s: %s",
                    rid,
                    request.method,
                    request.path,
                    exc,
                    exc_info=True,
                )
                await send_json(
                    writer,
                    500,
                    {
                        "error": f"{type(exc).__name__}: {exc}",
                        "request_id": rid,
                    },
                    self._rid_headers(rid),
                )
        except (ConnectionResetError, BrokenPipeError, asyncio.CancelledError):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _dispatch(self, request: Request, writer, rid: str) -> None:
        method, path = request.method, request.path.rstrip("/") or "/"
        if path == "/healthz" and method == "GET":
            await send_json(
                writer,
                200,
                {
                    "status": "ok",
                    "uptime_s": round(time.time() - self._started_unix, 3),
                },
                self._rid_headers(rid),
            )
            return
        if path == "/readyz" and method == "GET":
            await self._handle_readyz(writer, rid)
            return
        if path == "/metrics" and method == "GET":
            text = to_openmetrics(self.metrics.snapshot())
            await send_response(
                writer,
                200,
                text.encode("utf-8"),
                "application/openmetrics-text; version=1.0.0; charset=utf-8",
                self._rid_headers(rid),
            )
            return
        if path == "/federate" and method == "GET":
            await self._handle_federate(writer, rid)
            return
        if path == "/alerts" and method == "GET":
            await send_json(
                writer,
                200,
                {
                    "alerts": self.alerts.active(),
                    "slos": self.alerts.status(),
                    "recent": self.alerts.recent(),
                    "scrape_interval_s": self.config.scrape_interval_s,
                    "scrapes": self.timeseries.scrapes,
                },
                self._rid_headers(rid),
            )
            return
        if path == "/stats" and method == "GET":
            await send_json(
                writer, 200, self.manager.stats(), self._rid_headers(rid)
            )
            return
        if path == "/dashboard" and method == "GET":
            await send_response(
                writer,
                200,
                render_dashboard_html().encode("utf-8"),
                "text/html; charset=utf-8",
                self._rid_headers(rid),
            )
            return
        if path == "/dashboard/data" and method == "GET":
            await send_json(
                writer,
                200,
                dashboard_data(
                    self.manager,
                    self.metrics,
                    self._started_unix,
                    alerts=self.alerts,
                    timeseries=self.timeseries,
                ),
                self._rid_headers(rid),
            )
            return
        if path == "/debug/profile" and method == "POST":
            await self._handle_profile(request, writer, rid)
            return
        if path == "/jobs":
            if method == "POST":
                await self._handle_submit(request, writer, rid)
                return
            if method == "GET":
                await send_json(
                    writer,
                    200,
                    {
                        "jobs": [
                            job.record.status_dict()
                            for job in self.manager.jobs()
                        ]
                    },
                    self._rid_headers(rid),
                )
                return
            raise HttpError(405, f"{method} not allowed on {path}")
        if path.startswith("/jobs/"):
            await self._dispatch_job(request, writer, path, rid)
            return
        raise HttpError(404, f"no route for {path}")

    async def _dispatch_job(
        self, request: Request, writer, path: str, rid: str
    ) -> None:
        parts = path.split("/")  # ['', 'jobs', id] or ['', 'jobs', id, sub]
        if len(parts) not in (3, 4):
            raise HttpError(404, f"no route for {path}")
        job = self.manager.get(parts[2])
        if job is None:
            raise HttpError(404, f"unknown job {parts[2]!r}")
        sub = parts[3] if len(parts) == 4 else ""
        if sub == "" and request.method == "GET":
            status = job.record.status_dict()
            status["events"] = len(job.events)
            await send_json(writer, 200, status, self._rid_headers(rid))
            return
        if sub == "events" and request.method == "GET":
            await self._handle_events(job, writer, rid)
            return
        if sub == "design" and request.method == "GET":
            await self._handle_design(job, writer, rid)
            return
        if sub == "trace" and request.method == "GET":
            await self._handle_trace(job, writer, rid)
            return
        raise HttpError(404, f"no route for {path}")

    # -- route bodies --------------------------------------------------------
    async def _handle_readyz(self, writer, rid: str) -> None:
        manager = self.manager
        if manager.ready:
            await send_json(
                writer,
                200,
                {
                    "ready": True,
                    "queue_depth": manager.queue_depth(),
                    "running": manager.running_count(),
                },
                self._rid_headers(rid),
            )
            return
        reason = "draining" if manager.draining else "circuit breaker open"
        headers = (
            {}
            if manager.draining
            else {
                "Retry-After": str(
                    max(1, int(self.config.breaker_cooldown_s))
                )
            }
        )
        await send_json(
            writer,
            503,
            {"ready": False, "reason": reason},
            self._rid_headers(rid, headers),
        )

    async def _handle_submit(self, request: Request, writer, rid: str) -> None:
        spec = request.json()
        trace = parse_traceparent(request.headers.get("traceparent", ""))
        try:
            job, created = self.manager.submit(
                spec, request_id=rid, trace=trace
            )
        except QueueFull as exc:
            raise HttpError(
                429, str(exc), self.manager.retry_after_header(exc)
            ) from exc
        except AdmissionError as exc:  # draining / breaker open
            raise HttpError(
                503, str(exc), self.manager.retry_after_header(exc)
            ) from exc
        except ValueError as exc:  # InputError / ConfigurationError
            raise HttpError(400, str(exc)) from exc
        record = job.record
        await send_json(
            writer,
            201 if created else 200,
            {
                "job_id": record.job_id,
                "state": record.state,
                "label": record.label,
                "created": created,
                "dedup_hits": record.dedup_hits,
                "queue_depth": self.manager.queue_depth(),
                "request_id": record.request_id,
                "trace_id": record.trace_id,
            },
            self._rid_headers(rid),
        )

    async def _handle_events(self, job: Job, writer, rid: str) -> None:
        """Replay history, then follow live events until terminal."""
        history, queue = self.manager.subscribe(job)
        try:
            await start_sse(writer, self._rid_headers(rid))
            event_id = 0
            finished = False
            for payload in history:
                event_id += 1
                await send_sse_event(writer, payload, event_id)
                if payload.get("event") in _TERMINAL_EVENTS:
                    finished = True
            while not finished:
                try:
                    payload = await asyncio.wait_for(
                        queue.get(), timeout=SSE_KEEPALIVE_S
                    )
                except asyncio.TimeoutError:
                    await send_sse_comment(writer)
                    continue
                event_id += 1
                await send_sse_event(writer, payload, event_id)
                if payload.get("event") in _TERMINAL_EVENTS:
                    finished = True
        finally:
            self.manager.unsubscribe(job, queue)

    async def _handle_design(self, job: Job, writer, rid: str) -> None:
        record = job.record
        if record.state == "done" and record.result is not None:
            body = canonical_json(record.result["design"]).encode("utf-8")
            await send_response(
                writer,
                200,
                body,
                "application/json",
                self._rid_headers(
                    rid,
                    {
                        "X-Design-Digest": record.digest,
                        "X-Degraded": "1" if record.degraded else "0",
                    },
                ),
            )
            return
        if record.state == "failed":
            provenance = {
                "error": record.error,
                "error_type": record.error_type,
                "attempts": record.attempts,
                "elapsed_s": round(record.elapsed_s, 6),
                "failure_history": record.failure_history,
                "request_id": rid,
            }
            # The whole timeout family (stage budget, whole-run
            # deadline, watchdog kill) is the caller's deadline
            # expiring, not a server fault: 504, with provenance.
            timeout_types = ("DeadlineExceeded", "StageTimeout", "CaseTimeout")
            status = 504 if record.error_type in timeout_types else 500
            await send_json(writer, status, provenance, self._rid_headers(rid))
            return
        raise HttpError(
            409,
            f"job {record.job_id} is {record.state}; the design exists "
            "only once the job is done",
        )

    async def _handle_trace(self, job: Job, writer, rid: str) -> None:
        """Serve the stitched cross-process trace of a finished solve."""
        record = job.record
        if record.trace:
            stitched = stitch_spans(record.trace)
            payload = {
                "job_id": record.job_id,
                "request_id": record.request_id,
                "state": record.state,
                **stitched,
            }
            await send_json(writer, 200, payload, self._rid_headers(rid))
            return
        if not record.terminal:
            raise HttpError(
                409,
                f"job {record.job_id} is {record.state}; the trace exists "
                "once the job is terminal",
            )
        raise HttpError(
            404,
            f"job {record.job_id} finished without span records (restored "
            "from a previous server life, or the solve never started)",
        )

    @staticmethod
    def _scrape_node(node: str, timeout_s: float = 2.0) -> str | None:
        """Blocking scrape of one cache node's /metrics (thread pool)."""
        import http.client

        host, _, port = node.rpartition(":")
        try:
            conn = http.client.HTTPConnection(
                host, int(port), timeout=timeout_s
            )
            try:
                conn.request("GET", "/metrics")
                response = conn.getresponse()
                if response.status != 200:
                    return None
                return response.read().decode("utf-8", "replace")
            finally:
                conn.close()
        except (OSError, ValueError, http.client.HTTPException):
            return None

    async def _handle_federate(self, writer, rid: str) -> None:
        """Merged OpenMetrics: this registry + every live cache node.

        Nodes are scraped concurrently off-loop; a dead node is
        skipped, never an error — a federated scrape must degrade, not
        fail, when part of the fleet is down.  The merge sums counters
        and histogram buckets across sources so the document stays
        strict OpenMetrics (one ``# TYPE`` per family, one ``# EOF``).
        """
        texts = [to_openmetrics(self.metrics.snapshot())]
        nodes = list(self.config.cache_nodes)
        if nodes:
            scraped = await asyncio.gather(
                *(asyncio.to_thread(self._scrape_node, node) for node in nodes)
            )
            texts.extend(text for text in scraped if text)
        merged = merge_expositions(texts)
        self.metrics.counter("service.federate.scrapes").inc()
        await send_response(
            writer,
            200,
            merged.encode("utf-8"),
            "application/openmetrics-text; version=1.0.0; charset=utf-8",
            self._rid_headers(
                rid,
                {"X-Federate-Sources": f"{len(texts)}/{1 + len(nodes)}"},
            ),
        )

    async def _handle_profile(self, request: Request, writer, rid: str) -> None:
        """Sample this process and return a speedscope profile."""
        try:
            seconds = float(request.query.get("seconds", "5"))
            hz = float(request.query.get("hz", "0") or 0) or None
        except ValueError as exc:
            raise HttpError(400, f"bad profile parameters: {exc}") from exc
        if not 0 < seconds <= PROFILE_MAX_SECONDS:
            raise HttpError(
                400,
                f"seconds must be in (0, {PROFILE_MAX_SECONDS:g}]",
            )
        if hz is not None and not 0 < hz <= PROFILE_MAX_HZ:
            raise HttpError(400, f"hz must be in (0, {PROFILE_MAX_HZ:g}]")
        if self._profiling:
            raise HttpError(409, "a profile capture is already running")
        self._profiling = True
        try:
            profiler = SamplingProfiler(**({"hz": hz} if hz else {}))
            profiler.start()
            try:
                # The sampler thread keeps firing while the loop serves
                # other connections; this coroutine just waits it out.
                await asyncio.sleep(seconds)
            finally:
                profiler.stop()
        finally:
            self._profiling = False
        await send_json(
            writer,
            200,
            profiler.to_speedscope(name=f"xring-serve {rid}"),
            self._rid_headers(rid),
        )


async def serve(
    config: ServiceConfig,
    *,
    metrics: MetricsRegistry | None = None,
    ready_callback=None,
    stop_event: asyncio.Event | None = None,
) -> dict[str, Any]:
    """Run the service until SIGTERM/SIGINT, then drain gracefully.

    Returns the drain report (``clean`` decides the exit status).
    ``ready_callback(server)`` fires once the listener is bound;
    ``stop_event`` lets tests trigger the drain without a signal.
    """
    server = ServiceServer(config, metrics=metrics)
    adoption = await server.start()
    if ready_callback is not None:
        ready_callback(server)
    stop = stop_event if stop_event is not None else asyncio.Event()
    loop = asyncio.get_running_loop()
    registered: list[signal.Signals] = []
    for sig in (signal.SIGTERM, signal.SIGINT):
        try:
            loop.add_signal_handler(sig, stop.set)
            registered.append(sig)
        except (NotImplementedError, RuntimeError, ValueError):
            # No signal support here (non-main thread, exotic loop);
            # tests drive the drain through ``stop_event`` instead.
            pass
    try:
        await stop.wait()
    finally:
        for sig in registered:
            loop.remove_signal_handler(sig)
    stats = await server.shutdown()
    stats["adoption"] = adoption
    stats["address"] = None if server.address is None else list(server.address)
    stats["stats"] = server.manager.stats()
    return stats


def serve_forever(config: ServiceConfig, **kwargs: Any) -> dict[str, Any]:
    """Synchronous wrapper for the CLI: ``asyncio.run(serve(...))``."""
    return asyncio.run(serve(config, **kwargs))


def parse_address(text: str) -> tuple[str, int]:
    """Parse the ``<store_dir>/address`` file back into (host, port)."""
    host, _, port = text.strip().rpartition(":")
    return host, int(port)


def job_payload(record_result: dict[str, Any]) -> bytes:
    """Canonical bytes of a stored design (what ``/design`` serves)."""
    return canonical_json(record_result["design"]).encode("utf-8")


def render_stats(stats: dict[str, Any]) -> str:
    """One human line for the CLI exit message."""
    return json.dumps(stats, sort_keys=True, default=str)
