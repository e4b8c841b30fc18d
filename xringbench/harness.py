"""Shared pieces of the XRing benchmark: statistics, the span recorder
that times layer entry points from outside, and the run fingerprint.

Nothing here imports ``repro`` at module import time, so the launcher
and the tests can load it before the package path is set up.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import os
import platform
import resource
import statistics
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Synthesis-layer entry points, wrapped where their caller looks them
#: up.  The synthesizer imports the stage functions by name, the batch
#: parent imports ``construct_ring_tour`` from ``repro.core.ring`` at
#: call time, and the conflict build is reached through both
#: ``repro.core.ring`` and ``repro.geometry``.
SYNTH_TARGETS = (
    ("repro.core.synthesizer", "XRingSynthesizer.run", "synth"),
    ("repro.core.synthesizer", "construct_ring_tour", "ring"),
    ("repro.core.ring", "construct_ring_tour", "ring"),
    ("repro.core.synthesizer", "select_shortcuts", "shortcuts"),
    ("repro.core.synthesizer", "map_signals", "mapping"),
    ("repro.core.synthesizer", "build_pdn", "pdn"),
    ("repro.core.synthesizer", "validate_design", "validate"),
    ("repro.milp.model", "Model.solve", "milp.solve"),
    ("repro.core.ring", "build_edge_conflicts", "conflicts.build"),
    ("repro.geometry", "build_edge_conflicts", "conflicts.build"),
)

#: The synthesis stages whose spans add up to a design's time.
STAGES = ("ring", "shortcuts", "mapping", "pdn", "validate")


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def _rank(n: int, pct: float) -> int:
    """Index of the nearest-rank ``pct`` percentile of ``n`` sorted values."""
    return max(0, math.ceil(pct / 100.0 * n) - 1)


def percentile(values, pct: float) -> float:
    """The nearest-rank ``pct`` percentile (0.0 for no values)."""
    ordered = sorted(values)
    return ordered[_rank(len(ordered), pct)] if ordered else 0.0


def tail(values) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples beyond it, but
    never below p90.

    Returns ``(value, percentile, n)``.  Below 100 samples the p90
    floor decides (the maximum, below 11 samples), so that a run with a
    few more samples than another does not report a lower percentile.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        return 0.0, 100.0, 0
    k = max(n - 11, _rank(n, 90.0))
    return ordered[k], 100.0 * (k + 1) / n, n


def peak_rss_mb() -> float:
    """Peak resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def fingerprint(seed: int) -> dict:
    """What a result needs to be compared with another one."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            commit = (ROOT / ".git" / ref[5:]).read_text().strip()
        else:
            commit = ref
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
        "seed": seed,
    }


class Spans:
    """Spans kept in memory: name, start, end, parent span, request id.

    ``wrap`` times a function; ``install`` swaps wrappers in for module
    or class attributes.  A forked worker process inherits the wrappers
    but not a way back to the parent's memory, so spans recorded in a
    process other than the creator are appended, one line each, to
    ``spans-<pid>.jsonl`` under ``sink_dir`` and read back by
    :meth:`collect`.
    """

    def __init__(self, sink_dir: Path | None = None) -> None:
        self.records: list[dict] = []
        self.sink_dir = sink_dir
        self.request: str | None = None
        self._owner = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next_id = 0

    def _new_id(self) -> str:
        with self._lock:
            self._next_id += 1
            return f"{os.getpid()}.{self._next_id}"

    def wrap(self, name: str, fn, attrs=None):
        """``fn`` timed as a span called ``name``.

        ``attrs(args, kwargs, result)`` may add attributes to the span.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            span_id = self._new_id()
            parent = stack[-1] if stack else None
            stack.append(span_id)
            start = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                record = {
                    "name": name,
                    "start": start,
                    "end": end,
                    "id": span_id,
                    "parent": parent,
                    "request": self.request,
                    "pid": os.getpid(),
                }
                if attrs is not None:
                    record.update(attrs(args, kwargs, result))
                self._record(record)

        return wrapper

    def _record(self, record: dict) -> None:
        if os.getpid() == self._owner or self.sink_dir is None:
            with self._lock:
                self.records.append(record)
            return
        path = self.sink_dir / f"spans-{os.getpid()}.jsonl"
        with open(path, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(record) + "\n")

    def install(self, targets) -> None:
        """Wrap each ``(module, "attr" or "Class.attr", name[, attrs])``."""
        for target in targets:
            module_name, dotted, name = target[:3]
            attrs = target[3] if len(target) > 3 else None
            owner = importlib.import_module(module_name)
            *path, attr = dotted.split(".")
            for part in path:
                owner = getattr(owner, part)
            setattr(owner, attr, self.wrap(name, getattr(owner, attr), attrs))

    def collect(self) -> list[dict]:
        """Every span, this process's and the forked workers'."""
        records = list(self.records)
        if self.sink_dir is not None:
            for path in sorted(self.sink_dir.glob("spans-*.jsonl")):
                with open(path, encoding="utf-8") as handle:
                    records.extend(json.loads(line) for line in handle if line.strip())
        return records


def busy(spans, name: str) -> float:
    """Total seconds spent in spans called ``name``, outermost only.

    A span nested in another of the same name (the ring constructor
    reached through two module attributes never nests, but the
    conflict build can) is not counted twice.
    """
    by_id = {s["id"]: s for s in spans}
    total = 0.0
    for span in spans:
        if span["name"] != name:
            continue
        parent = by_id.get(span.get("parent"))
        nested = False
        while parent is not None:
            if parent["name"] == name:
                nested = True
                break
            parent = by_id.get(parent.get("parent"))
        if not nested:
            total += span["end"] - span["start"]
    return total


def count(spans, name: str) -> int:
    return sum(1 for s in spans if s["name"] == name)


def durations(spans, name: str) -> list[float]:
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def write_spans(path: Path, spans) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
