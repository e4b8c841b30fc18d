"""CLI tests for the durable-cache surface: ``xring cache`` and the
``--cache-dir`` flag, driven in-process through :func:`repro.cli.main`.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.parallel import clear_caches
from repro.parallel.store import ENTRY_SUFFIX


@pytest.fixture(autouse=True)
def _fresh_cache():
    clear_caches()
    yield
    clear_caches()


def _write_cases(tmp_path, n=1):
    path = tmp_path / "cases.json"
    path.write_text(
        json.dumps(
            [
                {"nodes": 8, "ring_method": "heuristic", "label": f"c{i}"}
                for i in range(n)
            ]
        )
    )
    return str(path)


def _entries(root):
    return [
        p
        for p in root.rglob(f"*{ENTRY_SUFFIX}")
        if "quarantine" not in p.parts
    ]


class TestCacheCommand:
    def test_dir_is_required(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cache", "stats"])
        assert exc.value.code == 2
        assert "--dir" in capsys.readouterr().err

    def test_stats_on_empty_store(self, tmp_path, capsys):
        store = tmp_path / "l2"
        store.mkdir()
        assert main(["cache", "stats", "--dir", str(store)]) == 0
        stats = json.loads(capsys.readouterr().out)
        assert stats["entries"] == 0
        assert not stats["disabled"]

    @pytest.mark.parametrize(
        "extra", [["stats"], ["scrub"], ["gc", "--max-bytes", "0"]]
    )
    def test_missing_dir_is_refused(self, tmp_path, capsys, extra):
        # A typo must not read as an empty store or create one.
        missing = tmp_path / "nostore" / "typo"
        assert main(["cache", extra[0], "--dir", str(missing)] + extra[1:]) == 2
        captured = capsys.readouterr()
        assert str(missing) in captured.err
        assert captured.out == ""
        assert not (tmp_path / "nostore").exists()

    def test_batch_cache_dir_round_trip(self, tmp_path, capsys):
        cases = _write_cases(tmp_path)
        store = tmp_path / "l2"
        assert main(["batch", cases, "--cache-dir", str(store)]) == 0
        assert len(_entries(store)) >= 1
        capsys.readouterr()

        clear_caches()  # simulated restart
        assert (
            main(["batch", cases, "--cache-dir", str(store), "--progress"])
            == 0
        )
        err = capsys.readouterr().err
        events = [
            json.loads(line)
            for line in err.splitlines()
            if line.startswith("{")
        ]
        starts = [e for e in events if e.get("event") == "batch_start"]
        assert starts and starts[0]["resumed"] == 1
        assert any(e.get("event") == "case_cached" for e in events)

    def test_scrub_exits_1_on_corruption(self, tmp_path, capsys):
        cases = _write_cases(tmp_path)
        store = tmp_path / "l2"
        assert main(["batch", cases, "--cache-dir", str(store)]) == 0
        assert main(["cache", "scrub", "--dir", str(store)]) == 0
        capsys.readouterr()

        entry = _entries(store)[0]
        blob = bytearray(entry.read_bytes())
        blob[-1] ^= 0xFF
        entry.write_bytes(bytes(blob))
        assert main(["cache", "scrub", "--dir", str(store)]) == 1
        out = capsys.readouterr()
        assert json.loads(out.out)["quarantined"] == 1
        assert "quarantined" in out.err

    def test_gc_bounds_the_store(self, tmp_path, capsys):
        cases = _write_cases(tmp_path)
        store = tmp_path / "l2"
        assert main(["batch", cases, "--cache-dir", str(store)]) == 0
        capsys.readouterr()
        assert (
            main(["cache", "gc", "--dir", str(store), "--max-bytes", "0"])
            == 0
        )
        report = json.loads(capsys.readouterr().out)
        assert report["evicted"] >= 1
        assert report["bytes"] == 0
        assert _entries(store) == []

    @pytest.mark.parametrize("extra", [[], ["--max-bytes", "-1"]])
    def test_gc_without_a_bound_keeps_the_store(self, tmp_path, capsys, extra):
        cases = _write_cases(tmp_path)
        store = tmp_path / "l2"
        assert main(["batch", cases, "--cache-dir", str(store)]) == 0
        before = _entries(store)
        assert before
        capsys.readouterr()
        assert main(["cache", "gc", "--dir", str(store), *extra]) == 2
        assert "--max-bytes" in capsys.readouterr().err
        assert _entries(store) == before


@pytest.mark.parametrize(
    "argv",
    [
        ["serve", "--cache-nodes", "h:1"],
        ["serve", "--scrape-interval", "1"],
        ["cache", "stats", "--dir", "x", "--nodes", "h:1"],
        ["cache-node"],
        ["top"],
    ],
)
def test_fleet_commands_and_flags_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err

