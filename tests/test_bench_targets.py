"""The ``repro`` names the frozen benchmark reaches still exist.

``xringbench/`` times synthesis layers by wrapping ``repro`` entry
points, named by module and attribute path in
``harness.SYNTH_TARGETS`` and ``server.SERVER_TARGETS``.  A deleted or
renamed entry point would otherwise show up only as an
``AttributeError`` when a traced benchmark run installs its wrappers.
These tests read ``xringbench/`` and never modify it.
"""

from __future__ import annotations

import importlib
import sys
from pathlib import Path

import pytest

from repro.parallel import get_cache

BENCH = Path(__file__).resolve().parent.parent / "xringbench"


@pytest.fixture(scope="module")
def targets():
    sys.path.insert(0, str(BENCH))
    try:
        harness = importlib.import_module("harness")
        server = importlib.import_module("server")
    finally:
        sys.path.remove(str(BENCH))
    return list(harness.SYNTH_TARGETS) + list(server.SERVER_TARGETS)


def _resolve(module_name: str, dotted: str):
    owner = importlib.import_module(module_name)
    for part in dotted.split("."):
        owner = getattr(owner, part)
    return owner


def test_every_wrapped_target_resolves(targets):
    assert targets
    missing = []
    for module_name, dotted, *_ in targets:
        try:
            resolved = _resolve(module_name, dotted)
        except (ImportError, AttributeError) as exc:
            missing.append(f"{module_name}:{dotted} ({exc})")
            continue
        if not callable(resolved):
            missing.append(f"{module_name}:{dotted} (not callable)")
    assert missing == []


def test_cache_stats_is_a_dict():
    # The workloads fold ``get_cache().stats()`` section by section.
    assert isinstance(get_cache().stats(), dict)
