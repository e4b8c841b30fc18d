"""CLI semantics for ``xring batch`` result-store flags and case files.

``--cache-dir DIR`` stores every successful case in the L2 at ``DIR``;
``--resume DIR`` does the same but requires ``DIR`` to exist, so a
typo fails instead of rerunning the batch from scratch.  Naming two
different directories with the two flags is a usage error; naming the
same one is fine.  ``--journal`` is gone.

Case files are parsed like ``POST /jobs`` bodies: a misspelled field is
a usage error instead of a silently applied default, inline
``positions`` work, and ``placement`` (a file) stays CLI-only.  A
malformed floorplan, inline or in a placement file, ends ``synth`` and
``batch`` with one ``xring: error:`` line and exit 2.
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


@pytest.fixture
def case_file(tmp_path):
    path = tmp_path / "cases.json"
    path.write_text(
        json.dumps([{"nodes": 8, "wl": 8, "ring_method": "heuristic"}])
    )
    return path


def test_conflicting_cache_dir_and_resume_is_a_usage_error(
    case_file, tmp_path, capsys
):
    (tmp_path / "b").mkdir()
    rc = main(
        [
            "batch",
            str(case_file),
            "--cache-dir",
            str(tmp_path / "a"),
            "--resume",
            str(tmp_path / "b"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "--cache-dir and --resume name different directories" in err
    assert "pass only one of the two flags" in err
    # Fails fast: no store was created or written.
    assert not (tmp_path / "a").exists()
    assert list((tmp_path / "b").iterdir()) == []


def test_same_path_for_both_flags_is_allowed(case_file, tmp_path, capsys):
    store = tmp_path / "l2"
    # First run creates the store...
    assert main(["batch", str(case_file), "--cache-dir", str(store)]) == 0
    assert store.is_dir()
    # ...and naming the same directory via both flags (e.g. a script
    # that always passes --cache-dir and adds --resume on retry) is fine.
    rc = main(
        [
            "batch",
            str(case_file),
            "--cache-dir",
            str(store),
            "--resume",
            str(store),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "1 resumed" in out


def test_resume_alone_restores_from_the_cache_dir(case_file, tmp_path, capsys):
    store = tmp_path / "l2"
    assert main(["batch", str(case_file), "--cache-dir", str(store)]) == 0
    (entry,) = store.rglob(f"*{ENTRY_SUFFIX}")
    before = entry.read_bytes()
    capsys.readouterr()
    clear_caches()  # a new process: only the files remain
    rc = main(["batch", str(case_file), "--resume", str(store)])
    out = capsys.readouterr().out
    assert rc == 0
    # The resumed run restored the finished case instead of recomputing
    # it, and left its entry as it was.
    assert "1 cases, 0 failed, 0 quarantined, 1 resumed" in out
    assert entry.read_bytes() == before


def test_resume_from_a_missing_directory_is_a_usage_error(
    case_file, tmp_path, capsys
):
    # A typo in --resume must not rerun the whole batch from scratch.
    missing = tmp_path / "typo" / "l2"
    rc = main(["batch", str(case_file), "--resume", str(missing)])
    captured = capsys.readouterr()
    assert rc == 2
    assert str(missing) in captured.err
    assert captured.out == ""
    assert not (tmp_path / "typo").exists()
    # --cache-dir still starts a new store at a fresh path.
    assert main(["batch", str(case_file), "--cache-dir", str(missing)]) == 0
    assert missing.is_dir()


def test_journal_flag_is_rejected(case_file, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["batch", str(case_file), "--journal", str(tmp_path / "j.jsonl")])
    assert exc.value.code == 2
    assert "--journal" in capsys.readouterr().err
    assert not (tmp_path / "j.jsonl").exists()


def _write_cases(tmp_path, cases) -> str:
    path = tmp_path / "cases.json"
    path.write_text(json.dumps(cases))
    return str(path)


def test_misspelled_case_field_is_a_usage_error(tmp_path, capsys):
    cases = _write_cases(tmp_path, [{"nodes": 8, "shortcut": False}])
    rc = main(["batch", cases])
    err = capsys.readouterr().err
    assert rc == 2
    assert "shortcut" in err


def test_inline_positions_and_placement_files(tmp_path, capsys):
    square = [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.5, 2.0]]
    placement = tmp_path / "placement.json"
    placement.write_text(json.dumps({"positions": square}))
    cases = _write_cases(
        tmp_path,
        [
            {"positions": square, "ring_method": "heuristic", "label": "inline"},
            {"placement": str(placement), "ring_method": "heuristic",
             "label": "file"},
        ],
    )
    history = tmp_path / "history"
    rc = main(["batch", cases, "--history-dir", str(history)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "inline" in out and "file" in out


#: A position without its y, and a traffic pair naming a fifth node of
#: four.
MALFORMED_FLOORPLANS = [
    [[0, 0], [1]],
    {"positions": [[0, 0], [2, 0], [2, 2], [0, 2]], "traffic": [[0, 9]]},
]


def _assert_one_error_line(rc, capsys):
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("xring: error:")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("floorplan", MALFORMED_FLOORPLANS)
@pytest.mark.parametrize("command", ["synth", "batch"])
def test_malformed_placement_file_is_a_usage_error(
    tmp_path, capsys, command, floorplan
):
    placement = tmp_path / "placement.json"
    placement.write_text(json.dumps(floorplan))
    if command == "synth":
        argv = ["synth", "--placement", str(placement)]
    else:
        argv = ["batch", _write_cases(tmp_path, [{"placement": str(placement)}])]
    _assert_one_error_line(main(argv), capsys)


def test_malformed_inline_floorplan_is_a_usage_error(tmp_path, capsys):
    cases = _write_cases(tmp_path, [MALFORMED_FLOORPLANS[1]])
    _assert_one_error_line(main(["batch", cases]), capsys)
