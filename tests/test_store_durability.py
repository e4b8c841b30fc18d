"""Crash-consistency and durability suite for the L2 synthesis cache
and the JSONL logs.

Four layers:

- :class:`PersistentStore` unit tests: atomic-write discipline, torn
  writes injected through :class:`FaultPlan`, bit-flip quarantine,
  degraded mode on an unusable root, LRU gc;
- batch-level durability: a restarted process re-serves finished
  results from disk (``cache.l2.hits == cases``) with byte-identical
  design digests, and a torn entry is recomputed on resume;
- service warm restart: a second server life on a *different* job
  store but the same ``cache_dir`` serves a repeated POST from the L2,
  which holds finished results only;
- the shared torn-tail-safe JSONL log, one battery parametrized over
  its two users (job store, run ledger):
  torn tails are dropped and never glue onto the next append, interior
  garbage raises, and the on-disk bytes match the earlier writers.
"""

from __future__ import annotations

import json
import logging
import os

import pytest

from repro.core.synthesizer import SynthesisOptions
from repro.obs import RunLedger, RunRecord
from repro.parallel import (
    BatchCase,
    BatchSynthesizer,
    PersistentStore,
    case_key,
    clear_caches,
    configure_l2,
    get_cache,
    result_digest,
)
from repro.parallel.store import (
    ENTRY_SUFFIX,
    QUARANTINE_DIRNAME,
    counter_metric_name,
)
from repro.robustness.errors import ConfigurationError
from repro.robustness.faults import FaultPlan
from repro.service.store import JobRecord, JobStore

from tests.test_service import LiveServer, slow_spec


@pytest.fixture
def fresh_cache():
    clear_caches()
    yield get_cache()
    clear_caches()


def _heuristic_case(network, label: str, **options) -> BatchCase:
    options.setdefault("ring_method", "heuristic")
    return BatchCase(
        network=network,
        options=SynthesisOptions(label=label, **options),
        label=label,
    )


def _entry_files(root):
    return [
        p
        for p in root.rglob(f"*{ENTRY_SUFFIX}")
        if QUARANTINE_DIRNAME not in p.parts
    ]


# ---------------------------------------------------------------------------
# PersistentStore unit layer
# ---------------------------------------------------------------------------
class TestPersistentStore:
    def test_roundtrip_and_miss(self, tmp_path):
        store = PersistentStore(tmp_path / "l2")
        assert store.get("results", "k1") is None
        assert store.put("results", "k1", b"payload", {"digest": "abc"})
        assert store.get("results", "k1") == (b"payload", {"digest": "abc"})
        assert store.counters["puts:results"] == 1
        assert store.counters["hits:results"] == 1
        assert store.counters["misses:results"] == 1

    def test_restart_survives(self, tmp_path):
        PersistentStore(tmp_path / "l2").put("results", "k1", b"durable", {})
        reopened = PersistentStore(tmp_path / "l2")
        assert reopened.get("results", "k1") == (b"durable", {})

    def test_torn_tmp_leaves_no_entry(self, tmp_path):
        plan = FaultPlan().store_torn_tmp("results")
        store = PersistentStore(tmp_path / "l2", fault_plan=plan)
        assert not store.put("results", "k1", b"never lands", {})
        assert plan.exhausted
        # The partial temp file exists but is invisible to every read
        # and enumeration path.
        assert store.get("results", "k1") is None
        assert store.keys() == {}
        assert store.verify()["checked"] == 0
        # The next put (fault consumed) goes through cleanly.
        assert store.put("results", "k1", b"lands", {})
        assert store.get("results", "k1") == (b"lands", {})

    def test_torn_final_is_quarantined_on_read(self, tmp_path):
        plan = FaultPlan().store_torn_final("results")
        store = PersistentStore(tmp_path / "l2", fault_plan=plan)
        assert not store.put("results", "k1", b"x" * 64, {})
        # A torn file *does* sit at the final path ...
        assert len(_entry_files(store.root)) == 1
        # ... but the checksum gate quarantines it instead of serving.
        assert store.get("results", "k1") is None
        assert store.counters["quarantined"] == 1
        assert store.quarantine_dir.exists()
        assert len(_entry_files(store.root)) == 0

    def test_bit_flip_is_quarantined_not_served(self, tmp_path):
        store = PersistentStore(tmp_path / "l2")
        store.put("results", "k1", b"y" * 128, {"digest": "d"})
        (entry,) = _entry_files(store.root)
        blob = bytearray(entry.read_bytes())
        blob[-1] ^= 0xFF
        entry.write_bytes(bytes(blob))
        assert store.get("results", "k1") is None
        assert store.counters["quarantined"] == 1
        # The corrupt bytes moved aside; a rescan finds nothing to flag.
        assert store.verify() == {"checked": 0, "quarantined": 0, "bytes": 0}

    def test_scrub_detects_corruption(self, tmp_path):
        store = PersistentStore(tmp_path / "l2")
        store.put("results", "good", b"g" * 32, {})
        store.put("results", "bad", b"b" * 32, {})
        for entry in _entry_files(store.root):
            header = entry.read_bytes().partition(b"\n")[0]
            if b'"bad"' in header:
                entry.write_bytes(entry.read_bytes()[:-4])
        report = store.verify()
        assert report["checked"] == 2
        assert report["quarantined"] == 1
        assert store.get("results", "good") is not None

    def test_unusable_root_degrades_without_raising(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("a file where the store root should go")
        store = PersistentStore(blocker / "l2")
        assert store.disabled
        assert not store.put("results", "k1", b"dropped", {})
        assert store.get("results", "k1") is None
        assert store.stats()["disabled"]

    def test_gc_evicts_least_recently_used(self, tmp_path):
        store = PersistentStore(tmp_path / "l2")
        for i in range(4):
            store.put("results", f"k{i}", bytes(100), {})
        files = {p.name: p for p in _entry_files(store.root)}
        # Age k0/k1, keep k2/k3 fresh (mtime is the LRU clock).
        for name, path in files.items():
            if name.startswith(("k0", "k1")):
                os.utime(path, (1, 1))
        total = sum(p.stat().st_size for p in files.values())
        report = store.gc(max_bytes=total // 2)
        assert report["evicted"] == 2
        assert store.get("results", "k3") is not None
        assert store.get("results", "k0") is None
        assert store.counters["evicted"] == 2

    def test_counter_metric_mapping(self):
        assert counter_metric_name("hits:results") == "cache.l2.hits"
        assert counter_metric_name("misses:results") == "cache.l2.misses"
        assert counter_metric_name("puts:results") == "cache.l2.puts"
        assert counter_metric_name("quarantined") == "cache.store.quarantined"
        assert counter_metric_name("evicted") == "cache.store.evicted"
        assert counter_metric_name("errors") == "cache.l2.errors"
        # Conflicts-section traffic is counted ambient-side in cache.py;
        # mapping it here would double-count on batch join.
        assert counter_metric_name("hits:conflicts") is None
        assert counter_metric_name("breaker_opens") is None
        assert counter_metric_name("failovers") is None


# ---------------------------------------------------------------------------
# batch-level durability
# ---------------------------------------------------------------------------
class TestBatchL2Durability:
    def _run(self, cases):
        report = BatchSynthesizer(workers=1, on_error="collect").run(cases)
        assert report.ok
        return report

    def test_restart_serves_results_from_disk(
        self, tmp_path, fresh_cache, network8, network16
    ):
        cases = [
            _heuristic_case(network8, "a"),
            _heuristic_case(network16, "b"),
        ]
        configure_l2(tmp_path / "l2")
        first = self._run(cases)
        digests = [result_digest(r) for r in first.results]
        assert not any(r.cached for r in first.results)

        # Simulated process restart: the backend handle is gone, only
        # the files remain.
        clear_caches()
        backend = configure_l2(tmp_path / "l2")
        second = self._run(cases)
        assert all(r.cached for r in second.results)
        assert [result_digest(r) for r in second.results] == digests
        assert backend.counters["hits:results"] == len(cases)
        counters = second.metrics.snapshot()["counters"]
        assert counters["cache.l2.hits"] == len(cases)

    def test_corrupt_entry_is_recomputed_never_deserialized(
        self, tmp_path, fresh_cache, network8, network16
    ):
        cases = [
            _heuristic_case(network8, "a"),
            _heuristic_case(network16, "b"),
        ]
        configure_l2(tmp_path / "l2")
        first = self._run(cases)
        digests = [result_digest(r) for r in first.results]

        clear_caches()
        backend = configure_l2(tmp_path / "l2")
        # Flip a byte in one results entry (headers identify sections).
        flipped = 0
        for entry in _entry_files(backend.root):
            if b'"section": "results"' in entry.read_bytes().partition(b"\n")[0]:
                blob = bytearray(entry.read_bytes())
                blob[-1] ^= 0xFF
                entry.write_bytes(bytes(blob))
                flipped += 1
                break
        assert flipped == 1
        second = self._run(cases)
        assert all(r.ok for r in second.results)
        assert [result_digest(r) for r in second.results] == digests
        # One served from disk, one quarantined + recomputed.
        assert sum(1 for r in second.results if r.cached) == len(cases) - 1
        assert backend.counters["quarantined"] == 1
        counters = second.metrics.snapshot()["counters"]
        assert counters["cache.store.quarantined"] == 1
        assert counters["cache.l2.hits"] == len(cases) - 1

    def test_torn_result_write_is_a_clean_miss_next_run(
        self, tmp_path, fresh_cache, network8
    ):
        cases = [_heuristic_case(network8, "a")]
        plan = FaultPlan().store_torn_tmp("results")
        get_cache().attach_l2(
            PersistentStore(tmp_path / "l2", fault_plan=plan)
        )
        first = self._run(cases)
        digests = [result_digest(r) for r in first.results]
        assert plan.exhausted

        clear_caches()
        backend = configure_l2(tmp_path / "l2")
        second = self._run(cases)
        # The torn write never landed: recompute, identical result,
        # and this time the entry persists.
        assert not second.results[0].cached
        assert [result_digest(r) for r in second.results] == digests
        assert backend.counters.get("puts:results", 0) == 1

        clear_caches()
        configure_l2(tmp_path / "l2")
        third = self._run(cases)
        assert third.results[0].cached
        assert [result_digest(r) for r in third.results] == digests


# ---------------------------------------------------------------------------
# service warm restart through the L2
# ---------------------------------------------------------------------------
class TestServiceWarmRestart:
    def test_second_life_serves_repeat_post_from_l2(self, tmp_path):
        clear_caches()
        cache_dir = tmp_path / "l2"
        spec = slow_spec(0)
        try:
            first = LiveServer(tmp_path / "store1", cache_dir=str(cache_dir))
            status, ack, _ = first.post_json("/jobs", spec)
            assert status == 201
            done = first.wait_terminal(ack["job_id"])
            assert done["state"] == "done"
            digest = done["digest"]
            first.stop()
            # The L2 keeps finished results and nothing else.
            assert sorted(
                p.name for p in cache_dir.iterdir() if p.is_dir()
            ) == ["results"]

            # New life, *different* job store (no adoption, no dedup) —
            # only the shared cache_dir can explain a hit.
            clear_caches()
            second = LiveServer(tmp_path / "store2", cache_dir=str(cache_dir))
            status, ack2, _ = second.post_json("/jobs", spec)
            assert status == 201 and ack2["created"]
            done2 = second.wait_terminal(ack2["job_id"])
            assert done2["state"] == "done"
            assert done2["digest"] == digest
            status, stats, _ = second.get_json("/stats")
            assert status == 200
            assert stats["cache_l2_result_hits"] == 1
            assert stats["cache_l2"]["counters"]["hits:results"] == 1
            second.stop()
        finally:
            clear_caches()


# ---------------------------------------------------------------------------
# the shared JSONL log under the job store and the run ledger
# ---------------------------------------------------------------------------
#: The on-disk bytes of each log for one fixed input.  Logs already on
#: disk must keep loading, so the reader must load these bytes and the
#: writer must reproduce them (``written_bytes`` below, where a
#: retired field is no longer written).
PARENT_JOBSTORE = (
    b'{"kind": "header", "version": 1}\n'
    b'{"attempts": 0, "created_unix": 1.0, "dedup_hits": 0, "degraded": false, '
    b'"digest": "", "elapsed_s": 0.0, "error": null, "error_type": "", '
    b'"failure_history": [], "fallbacks": [], "job_id": "j0", "key": "k0", '
    b'"kind": "job", "label": "", "request_id": "", "result": null, '
    b'"resumed": false, "runs": 0, "spec": {"nodes": 8}, "state": "queued", '
    b'"trace": null, "trace_id": "", "updated_unix": 2.0}\n'
)
PARENT_LEDGER = (
    b'{"cache": {}, "created_at": "2026-01-01T00:00:00Z", "env": {}, '
    b'"extra": {}, "fingerprint": "f0", "kind": "synth", "label": "r0", '
    b'"options_hash": "", "quality": {}, "run_id": "synth-0", "solver": {}, '
    b'"stage_latency": {}, "supervisor": {}, "version": 1, "wall_s": 1.5}\n'
)
#: The ledger line as written now: the retired ``cache`` section is
#: gone, and the reader ignores it in older ledgers.
LEDGER = PARENT_LEDGER.replace(b'{"cache": {}, ', b"{")


class _JobStoreLog:
    parent_bytes = written_bytes = PARENT_JOBSTORE

    def __init__(self, root):
        self.store = JobStore(root / "jobs")
        self.path = self.store.path

    def append(self, i):
        self.store.append(
            JobRecord(
                job_id=f"j{i}",
                key=f"k{i}",
                spec={"nodes": 8},
                created_unix=1.0,
                updated_unix=2.0,
            )
        )

    def records(self):
        loaded = JobStore(self.store.directory).load()
        return [record.to_line() for record in loaded.values()]


class _LedgerLog:
    parent_bytes = PARENT_LEDGER
    written_bytes = LEDGER

    def __init__(self, root):
        self.ledger = RunLedger(root / "history")
        self.path = self.ledger.path

    def append(self, i):
        self.ledger.append(
            RunRecord(
                run_id=f"synth-{i}",
                kind="synth",
                label=f"r{i}",
                created_at="2026-01-01T00:00:00Z",
                fingerprint=f"f{i}",
                wall_s=1.5,
            )
        )

    def records(self):
        return [record.to_dict() for record in self.ledger.entries()]


@pytest.fixture(
    params=[_JobStoreLog, _LedgerLog],
    ids=["jobstore", "ledger"],
)
def log(request, tmp_path):
    return request.param(tmp_path)


def _tear(path):
    """Simulate ``kill -9`` mid-append: a record cut before its newline."""
    with open(path, "ab") as handle:
        handle.write(b'{"kind": "case", "key": "torn", "state": "runn')


class TestJsonlLogDurability:
    def test_torn_tail_is_dropped(self, log, caplog, monkeypatch):
        log.append(0)
        log.append(1)
        before = log.records()
        lines = len(log.path.read_bytes().splitlines())
        _tear(log.path)
        # configure_logging (run by earlier CLI tests) stops "repro"
        # records from reaching the root logger caplog listens on.
        monkeypatch.setattr(logging.getLogger("repro"), "propagate", True)
        with caplog.at_level(logging.WARNING, logger="repro"):
            assert log.records() == before
        assert str(log.path) in caplog.text
        assert f"torn tail line {lines + 1}" in caplog.text

    def test_torn_tail_then_two_appends_keeps_every_record(self, log):
        log.append(0)
        log.append(1)
        before = log.records()
        _tear(log.path)
        log.append(2)
        log.append(3)
        after = log.records()
        assert len(after) == 4 and after[:2] == before
        assert b"torn" not in log.path.read_bytes()

    def test_interior_garbage_raises_naming_the_line(self, log):
        log.append(0)
        bad_line = len(log.path.read_bytes().splitlines()) + 1
        with open(log.path, "ab") as handle:
            handle.write(b"NOT JSON\n")
        log.append(1)
        with pytest.raises(ConfigurationError, match=f"corrupt at line {bad_line}"):
            log.records()

    def test_terminated_garbage_last_line_raises(self, log):
        # Only bytes after the last newline are a torn tail; a whole
        # undecodable line is corruption, last or not, before and
        # after another append.
        log.append(0)
        bad_line = len(log.path.read_bytes().splitlines()) + 1
        with open(log.path, "ab") as handle:
            handle.write(b"NOT JSON\n")
        with pytest.raises(ConfigurationError, match=f"corrupt at line {bad_line}"):
            log.records()
        log.append(1)
        with pytest.raises(ConfigurationError, match=f"corrupt at line {bad_line}"):
            log.records()

    def test_unterminated_whole_record_survives_the_next_append(self, log):
        log.append(0)
        log.append(1)
        before = log.records()
        log.path.write_bytes(log.path.read_bytes().rstrip(b"\n"))
        assert log.records() == before
        log.append(2)
        after = log.records()
        assert len(after) == 3 and after[:2] == before

    def test_parent_format_loads_to_the_same_records(self, log):
        log.path.parent.mkdir(parents=True, exist_ok=True)
        log.path.write_bytes(log.parent_bytes)
        expected = [
            json.loads(line)
            for line in log.written_bytes.decode("utf-8").splitlines()
            if json.loads(line).get("kind") != "header"
        ]
        assert log.records() == expected

    def test_writer_reproduces_the_parent_bytes(self, log):
        log.append(0)
        assert log.path.read_bytes() == log.written_bytes


def test_resume_after_torn_l2_entry(tmp_path, fresh_cache, network8):
    """A write torn at its final path (kill mid-write by a foreign
    writer, disk error) is quarantined on resume and that case alone
    is recomputed; the other case is restored from the L2."""
    cases = [_heuristic_case(network8, f"c{i}", wl_budget=4 + i) for i in range(2)]
    plan = FaultPlan().store_torn_final("results")
    get_cache().attach_l2(PersistentStore(tmp_path / "l2", fault_plan=plan))
    first = BatchSynthesizer(workers=1).run(cases)
    assert first.ok and plan.exhausted

    clear_caches()
    backend = configure_l2(tmp_path / "l2")
    report = BatchSynthesizer(workers=1).run(cases)
    assert report.ok
    assert report.supervisor["resumed"] == 1
    assert [r.cached for r in report.results] == [False, True]
    assert backend.counters["quarantined"] == 1
    assert [result_digest(r) for r in report.results] == [
        result_digest(r) for r in first.results
    ]


class TestCanonicalDigests:
    """Content hashes keyed off :func:`repro.obs.canonical_json` must keep
    their values: L2 entries and ledgers on disk are keyed by
    them."""

    def test_case_key_is_pinned(self, network8):
        case = BatchCase(
            network=network8, options=SynthesisOptions(wl_budget=8), label="pin"
        )
        assert case_key(0, case) == (
            "78c83beca94847b6a84a7f4ae70caa1413b976c00e08d6fa4187972eea3b8d98"
        )

    def test_run_record_fingerprints_are_pinned(self):
        record = RunRecord.build(
            "synth",
            "pin",
            env={"python": "3"},
            options={"wl": 8},
            wall_s=1.25,
            quality={"il_w": 2.5},
            extra={"cases": 1},
        )
        assert record.fingerprint == (
            "ee37faa9f71cde586207044e6f42e35842e971291203216881320d7b849f6132"
        )
        assert record.options_hash == (
            "f34c5afb5d7a854889cb2a726a2b4139fbd6e67c6d55977803b3d205f3d1bbbd"
        )
