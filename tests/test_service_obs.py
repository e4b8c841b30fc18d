"""Service-layer observability: request ids, stitched traces, and the
on-demand profiler endpoint.

One live server (``isolate_jobs``, so the solve crosses a process
boundary) solves one real job; everything else — header plumbing, error envelopes,
``/debug/profile`` validation — asserts against that same process to
keep the suite at a single full solve.
"""

from __future__ import annotations

import json
import time
import urllib.request

import pytest

from tests.test_service import LiveServer, slow_spec

TRACEPARENT = "00-" + "ab" * 16 + "-" + "cd" * 8 + "-01"


@pytest.fixture(scope="module")
def live(tmp_path_factory):
    server = LiveServer(
        tmp_path_factory.mktemp("obs_store"),
        isolate_jobs=True,
    )
    yield server
    server.stop()


@pytest.fixture(scope="module")
def solved(live):
    """One job submitted with a caller request id + traceparent and
    polled to ``done``."""
    request = urllib.request.Request(
        live.base + "/jobs",
        data=json.dumps(slow_spec(0)).encode(),
        method="POST",
        headers={
            "Content-Type": "application/json",
            "X-Request-Id": "req-obstest00001",
            "traceparent": TRACEPARENT,
        },
    )
    with urllib.request.urlopen(request, timeout=30) as resp:
        submit = json.loads(resp.read())
        headers = dict(resp.headers)
    deadline = time.time() + 120
    while time.time() < deadline:
        _, status, _ = live.get_json(f"/jobs/{submit['job_id']}")
        if status["state"] in ("done", "failed"):
            break
        time.sleep(0.25)
    assert status["state"] == "done", status
    return submit, headers, status


class TestRequestIds:
    def test_caller_request_id_is_echoed(self, solved):
        submit, headers, status = solved
        assert headers["X-Request-Id"] == "req-obstest00001"
        assert submit["request_id"] == "req-obstest00001"
        # the id is durable: the job record still carries it
        assert status["request_id"] == "req-obstest00001"

    def test_minted_id_on_plain_requests(self, live):
        _, _, headers = live.get("/healthz")
        assert headers["X-Request-Id"].startswith("req-")

    def test_error_envelope_carries_request_id(self, live):
        status, body, headers = live.get_json("/jobs/doesnotexist")
        assert status == 404
        assert body["request_id"] == headers["X-Request-Id"]

    def test_bad_submit_envelope_carries_request_id(self, live):
        request = urllib.request.Request(
            live.base + "/jobs",
            data=b'{"nodez": 8}',
            method="POST",
            headers={
                "Content-Type": "application/json",
                "X-Request-Id": "req-badspec00001",
            },
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400
        assert excinfo.value.headers["X-Request-Id"] == "req-badspec00001"
        assert json.loads(excinfo.value.read())["request_id"] == (
            "req-badspec00001"
        )


class TestStitchedTrace:
    def test_trace_endpoint_returns_connected_tree(self, live, solved):
        submit, _, _ = solved
        status, trace, _ = live.get_json(f"/jobs/{submit['job_id']}/trace")
        assert status == 200
        assert trace["trace_id"] == "ab" * 16  # joined the caller's trace
        assert trace["orphans"] == []
        assert trace["span_count"] >= 3
        # the synthetic job root hangs off the caller's w3c span
        root = next(
            s
            for s in trace["spans"]
            if s["span_uid"] == f"job:{submit['job_id']}"
        )
        assert root["parent_uid"] == "w3c:" + "cd" * 8
        # solve crossed a process boundary: >= 2 pids in one tree
        assert len({s["pid"] for s in trace["spans"]}) >= 2

    def test_trace_of_unknown_job_is_404(self, live):
        status, _, _ = live.get_json("/jobs/nope/trace")
        assert status == 404


class TestProfileEndpoint:
    def _post(self, live, query: str):
        request = urllib.request.Request(
            live.base + f"/debug/profile{query}", data=b"", method="POST"
        )
        try:
            with urllib.request.urlopen(request, timeout=30) as resp:
                return resp.status, json.loads(resp.read())
        except urllib.error.HTTPError as exc:
            return exc.code, json.loads(exc.read())

    def test_profile_returns_speedscope_doc(self, live):
        status, doc = self._post(live, "?seconds=0.5&hz=50")
        assert status == 200
        assert doc["profiles"][0]["type"] == "sampled"

    @pytest.mark.parametrize(
        "query", ["?seconds=0", "?seconds=99", "?hz=9999", "?seconds=abc"]
    )
    def test_bad_parameters_are_400(self, live, query):
        status, body = self._post(live, query)
        assert status == 400
        assert body["request_id"]
