"""CLI semantics for ``xring batch`` journaling and case files.

Locks in the fix for a silent-foot-gun: ``--journal A --resume B``
used to quietly journal into ``B`` (the ``--resume`` path won), so
checkpoints a user pointed at ``A`` never landed there.  Conflicting
paths are now a hard usage error; agreeing paths (or either flag
alone) keep working.  ``--resume`` needs an existing journal, so a
typo fails instead of rerunning the batch from scratch.

Case files are parsed like ``POST /jobs`` bodies: a misspelled field is
a usage error instead of a silently applied default, inline
``positions`` work, and ``placement`` (a file) stays CLI-only.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main


@pytest.fixture
def case_file(tmp_path):
    path = tmp_path / "cases.json"
    path.write_text(
        json.dumps([{"nodes": 8, "wl": 8, "ring_method": "heuristic"}])
    )
    return path


def test_conflicting_journal_and_resume_is_a_usage_error(
    case_file, tmp_path, capsys
):
    rc = main(
        [
            "batch",
            str(case_file),
            "--journal",
            str(tmp_path / "a.jsonl"),
            "--resume",
            str(tmp_path / "b.jsonl"),
        ]
    )
    err = capsys.readouterr().err
    assert rc == 2
    assert "--journal and --resume point at different files" in err
    assert "pass only one of the two flags" in err
    # Fails fast: no journal file was created anywhere.
    assert not (tmp_path / "a.jsonl").exists()
    assert not (tmp_path / "b.jsonl").exists()


def test_same_path_for_both_flags_is_allowed(case_file, tmp_path, capsys):
    journal = tmp_path / "journal.jsonl"
    # First run creates the journal...
    assert main(["batch", str(case_file), "--journal", str(journal)]) == 0
    assert journal.exists()
    # ...and naming the same file via both flags (e.g. a script that
    # always passes --journal and adds --resume on retry) is fine.
    rc = main(
        [
            "batch",
            str(case_file),
            "--journal",
            str(journal),
            "--resume",
            str(journal),
        ]
    )
    out = capsys.readouterr().out
    assert rc == 0
    assert "ok" in out


def test_resume_alone_still_journals_to_the_resumed_path(
    case_file, tmp_path, capsys
):
    journal = tmp_path / "journal.jsonl"
    assert main(["batch", str(case_file), "--journal", str(journal)]) == 0
    before = journal.read_text()
    rc = main(["batch", str(case_file), "--resume", str(journal)])
    capsys.readouterr()
    assert rc == 0
    # The resumed run restored the finished case instead of recomputing
    # it, and the journal still holds it.
    assert journal.read_text() == before


def test_resume_from_a_missing_journal_is_a_usage_error(
    case_file, tmp_path, capsys
):
    # A typo in --resume must not rerun the whole batch from scratch.
    missing = tmp_path / "typo.jsonl"
    rc = main(["batch", str(case_file), "--resume", str(missing)])
    captured = capsys.readouterr()
    assert rc == 2
    assert str(missing) in captured.err
    assert captured.out == ""
    assert not missing.exists()
    # --journal still starts a new journal at a fresh path.
    assert main(["batch", str(case_file), "--journal", str(missing)]) == 0
    assert missing.exists()


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
