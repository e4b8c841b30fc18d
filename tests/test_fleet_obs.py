"""Fleet observability against live processes.

Three live layers over the shared test harnesses:

- **chaos SLO**: a real server with a fast scrape/SLO configuration
  takes an injected worker-crash burst (``FaultPlan`` through the
  manager's chaos hook); the availability alert must fire within the
  scrape window, show up in ``/alerts``, the dashboard payload and the
  ``--alert-log`` JSONL, then clear with hysteresis once healthy
  traffic resumes — the acceptance scenario;
- **federation**: a cache node's ``GET /metrics`` OpenMetrics endpoint
  and the service's ``GET /federate`` merge (own registry + scraped
  nodes, one ``# EOF``, partial-fleet tolerance);
- **xring top**: one ``--once`` frame rendered over HTTP.
"""

from __future__ import annotations

import io
import json
import time
import urllib.request

import pytest

from repro.robustness import FaultPlan
from repro.service.top import run_top
from tests.test_service import LiveServer, slow_spec
from tests.test_shard_ring import NodeThread


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


@pytest.fixture
def node(tmp_path):
    thread = NodeThread(tmp_path / "node")
    yield thread
    thread.stop()


def _wait(predicate, timeout_s=20.0, interval_s=0.1, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        result = predicate()
        if result:
            return result
        time.sleep(interval_s)
    raise AssertionError(f"{what} not reached within {timeout_s}s")


class TestChaosSLO:
    """Injected failure burst -> alert fires -> recovery -> clears."""

    def test_availability_alert_fires_and_clears(self, live, tmp_path):
        alert_log = tmp_path / "alerts.jsonl"
        server = live(
            retries=0,
            scrape_interval_s=0.1,
            slo_window_s=2.0,
            slo_availability=0.5,
            slo_burn_threshold=1.5,
            alert_log=alert_log,
        )
        # Chaos: the next three labeled jobs crash their (simulated)
        # worker on attempt 1; with retries=0 each job fails outright.
        plan = FaultPlan()
        for i in range(3):
            plan.worker_crash(f"slow{i}", 1)
        server.server.manager.fault_plan = plan
        for i in range(3):
            _, submit, _ = server.post_json("/jobs", slow_spec(i))
            assert server.wait_terminal(submit["job_id"])["state"] == "failed"

        # Fire: every job in both burn windows failed -> burn 2.0x
        # against the 1.5x threshold; one scrape pair is enough.
        payload = _wait(
            lambda: (lambda p: p if p[1]["alerts"] else None)(
                server.get_json("/alerts")
            ),
            what="availability alert firing",
        )[1]
        (alert,) = [
            a
            for a in payload["alerts"]
            if a["alert"] == "service-availability"
        ]
        assert alert["severity"] == "page"
        assert any(w["burn"] >= 1.5 for w in alert["windows"] if w["data"])
        assert payload["scrapes"] > 0

        # The same alert reaches the dashboard payload and the JSONL log.
        _, data, _ = server.get_json("/dashboard/data")
        assert [a["alert"] for a in data["alerts"]["active"]] == [
            "service-availability"
        ]
        firing_lines = [
            json.loads(line) for line in alert_log.read_text().splitlines()
        ]
        assert firing_lines[0]["event"] == "alert_firing"
        assert firing_lines[0]["alert"] == "service-availability"

        # Recovery: the fault plan is exhausted; healthy jobs dilute
        # the long window below burn 1.0 and hysteresis (2s) clears.
        for i in range(6):
            _, submit, _ = server.post_json("/jobs", slow_spec(100 + i))
            assert server.wait_terminal(submit["job_id"])["state"] == "done"
        payload = _wait(
            lambda: (lambda p: p if not p[1]["alerts"] else None)(
                server.get_json("/alerts")
            ),
            timeout_s=30.0,
            what="availability alert clearing",
        )[1]
        events = [e["event"] for e in payload["recent"]]
        assert "alert_resolved" in events and "alert_firing" in events
        resolved = [
            json.loads(line) for line in alert_log.read_text().splitlines()
        ][-1]
        assert resolved["event"] == "alert_resolved"
        assert resolved["fired_for_s"] > 0

    def test_timeseries_persisted_in_store(self, live):
        server = live(scrape_interval_s=0.05)
        _wait(
            lambda: (server.config.store_dir / "timeseries.jsonl").exists(),
            what="timeseries persistence",
        )
        _, payload, _ = server.get_json("/alerts")
        assert payload["scrape_interval_s"] == pytest.approx(0.05)


class TestFederation:
    def test_cache_node_metrics_endpoint(self, node):
        with urllib.request.urlopen(
            f"http://{node.address}/metrics", timeout=10
        ) as resp:
            assert resp.status == 200
            assert resp.headers["Content-Type"].startswith(
                "application/openmetrics-text"
            )
            text = resp.read().decode()
        assert text.count("# EOF") == 1 and text.endswith("# EOF\n")
        assert "xring_cache_node_entries 0" in text
        assert "# TYPE xring_cache_node_uptime_s gauge" in text

    def test_federate_merges_service_and_nodes(self, live, node):
        server = live(cache_nodes=(node.address,), cache_replication=1)
        _, submit, _ = server.post_json("/jobs", slow_spec(0))
        server.wait_terminal(submit["job_id"])
        status, body, headers = server.get("/federate")
        assert status == 200
        assert headers["Content-Type"].startswith("application/openmetrics-text")
        assert headers["X-Federate-Sources"] == "2/2"  # self + node
        text = body.decode()
        assert text.count("# EOF") == 1
        # Own registry and the scraped node land in one exposition.
        assert "xring_service_jobs_done_total 1" in text
        assert "xring_cache_node_entries" in text
        # The L2 traffic the solve made is visible on both sides:
        # client-side result counters from the service registry, store
        # counters scraped off the node.
        assert "xring_cache_l2_misses_total 1" in text
        assert "xring_cache_node_puts_results_total 1" in text
        # /metrics (self-only) stays distinct from /federate.
        status, own, _ = server.get("/metrics")
        assert "xring_cache_node_entries" not in own.decode()

    def test_federate_tolerates_dead_nodes(self, live, node):
        server = live(
            cache_nodes=(node.address, "127.0.0.1:9"),
            cache_replication=1,
        )
        status, body, headers = server.get("/federate")
        assert status == 200
        assert headers["X-Federate-Sources"] == "2/3"  # self + 1 of 2 nodes
        assert body.decode().count("# EOF") == 1

    def test_request_id_reaches_cache_nodes(self, node):
        """The service stamps its solver thread's ambient request id
        onto every L2 node call; the node echoes it back."""
        from repro.obs import use_request_id
        from repro.parallel.shard import ShardClient

        client = ShardClient([node.address], replication=1)
        with use_request_id("req-fleet-0001"):
            status, _, headers = client._request(
                node.address, "GET", "/entry?section=results&key=missing"
            )
        assert status == 404
        assert headers.get("x-request-id") == "req-fleet-0001"


class TestTopCLI:
    def test_once_frame_over_http(self, live, capsys):
        server = live(scrape_interval_s=0.1)
        _, submit, _ = server.post_json("/jobs", slow_spec(0))
        server.wait_terminal(submit["job_id"])
        out = io.StringIO()
        code = run_top(url=server.base, once=True, out=out)
        assert code == 0
        frame = out.getvalue()
        assert "state=ready" in frame
        assert "done" in frame and "alerts:" in frame
        assert "slow0" in frame

    def test_once_against_dead_service_exits_1(self):
        assert run_top(url="http://127.0.0.1:9", once=True) == 1

    def test_store_address_resolution(self, live):
        server = live()
        out = io.StringIO()
        code = run_top(store=str(server.config.store_dir), once=True, out=out)
        assert code == 0
        assert "xring service" in out.getvalue()

    def test_missing_store_exits_1(self, tmp_path):
        assert run_top(store=str(tmp_path / "nope"), once=True) == 1


class TestDashboardFleetPayload:
    def test_cache_and_sparkline_sections(self, live, node):
        server = live(
            cache_nodes=(node.address,),
            cache_replication=1,
            scrape_interval_s=0.1,
        )
        # A spec index no other test uses, so the solve writes a fresh
        # result to the L2.
        _, submit, _ = server.post_json("/jobs", slow_spec(300))
        server.wait_terminal(submit["job_id"])
        _wait(
            lambda: server.get_json("/dashboard/data")[1]["sparklines"],
            what="sparkline history",
        )
        _, data, _ = server.get_json("/dashboard/data")
        # Satellite: the payload carries the L2 stats the page charts.
        assert data["cache"]["l2"] is not None
        assert data["cache"]["l2"]["nodes"] is not None
        assert any(
            name.startswith("cache.l2.") for name in data["cache"]["counters"]
        )
        assert "cache_l2_result_hits" in data["stats"]
        assert data["alerts"]["slos"]  # every SLO evaluated
        name, points = next(iter(data["sparklines"].items()))
        assert name in data["sparkline_panels"]
        assert all(len(p) == 2 for p in points)
