"""Differential battery: the bitmask mapper against the set-based oracle.

:func:`repro.core.mapping.map_signals` keeps one wavelength bitmask per
(ring, tour edge); ``tests/mapping_reference.py`` keeps the set-based
mapper it replaced.  Both must agree exactly — rings (rid, direction,
opening), every assignment field, the shortcut wavelengths and the
``mapping.relocations`` count — over:

- the paper floorplans (psion 8/16/32, the ORing 16-node grid), the
  extended grids of 24, 48 and 64 nodes and seeded continuous
  floorplans;
- ``order`` in {length, demand} x ``direction_policy`` in
  {shortest, first_fit} x ``open_rings`` on/off;
- wavelength budgets 1, 2, N/2, N and 70 (a mask wider than 64 bits);
- runs with and without a shortcut plan.

``REPRO_BULK_CASES`` (default 200) scales the seeded sweep.  At 400 or
more (the deep CI step) every grid runs every budget and the 48- and
64-node grids every configuration, and the 128-node grid is checked
too (~12 s of oracle time).  Otherwise psion 32 and the 24-node grid
run budgets N and 70 only, and the 48- and 64-node grids the default
configuration at those budgets.
"""

from __future__ import annotations

import functools
import itertools
import os
import random

import pytest

from repro.core.heuristic_ring import construct_ring_tour_heuristic
from repro.core.mapping import SignalMapping, map_signals
from repro.core.ring import construct_ring_tour
from repro.core.shortcuts import ShortcutPlan, select_shortcuts
from repro.geometry import Point
from repro.network.placement import extended_placement, oring_placement, psion_placement
from repro.network.traffic import all_to_all
from repro.obs import MetricsRegistry, ObsContext, use_obs
from repro.obs.trace import NULL_TRACER
from repro.photonics.parameters import ORING_LOSSES
from tests.mapping_reference import map_signals_reference

SEED = 135_792_468
N_CASES = int(os.environ.get("REPRO_BULK_CASES", "200"))
DEEP = N_CASES >= 400

#: Every (order, direction_policy, open_rings) configuration.
CONFIGS = list(
    itertools.product(("length", "demand"), ("shortest", "first_fit"), (True, False))
)
DEFAULT_CONFIG = ("length", "shortest", True)

NAMED = {
    "psion8": lambda: psion_placement(8)[0],
    "psion16": lambda: psion_placement(16)[0],
    "psion32": lambda: psion_placement(32)[0],
    "oring16": lambda: oring_placement()[0],
    "grid24": lambda: extended_placement(24)[0],
    "grid48": lambda: extended_placement(48)[0],
    "grid64": lambda: extended_placement(64)[0],
    "grid128": lambda: extended_placement(128)[0],
}
#: Floorplans run in every configuration, with and without a plan;
#: the medium ones skip the 1- and 2-wavelength budgets (which take
#: the oracle seconds each) outside the deep step.
SMALL = ["psion8", "psion16", "oring16"]
MEDIUM = ["psion32", "grid24"]
SEEDED = [f"seeded{k}" for k in range(max(1, N_CASES // 20))]


def _continuous_floorplan(case: int) -> list[Point]:
    """5-14 nodes at seeded real-valued positions on a 10 mm die."""
    rng = random.Random(SEED + case)
    return [
        Point(rng.uniform(0.0, 10.0), rng.uniform(0.0, 10.0))
        for _ in range(rng.randint(5, 14))
    ]


@functools.cache
def _tour(name: str):
    if name.startswith("seeded"):
        points = _continuous_floorplan(int(name[len("seeded"):]))
        return construct_ring_tour_heuristic(points)
    return construct_ring_tour(list(NAMED[name]()))


@functools.cache
def _plan(name: str) -> ShortcutPlan:
    return select_shortcuts(_tour(name), loss=ORING_LOSSES)


def _budgets(n: int) -> tuple[int, ...]:
    return tuple(sorted({1, 2, max(1, n // 2), n, 70}))


def _run(mapper, tour, plan, budget, config) -> tuple[SignalMapping, int]:
    order, policy, open_rings = config
    metrics = MetricsRegistry()
    with use_obs(ObsContext(NULL_TRACER, metrics)):
        mapping = mapper(
            tour,
            all_to_all(tour.size),
            plan,
            budget,
            open_rings=open_rings,
            order=order,
            direction_policy=policy,
        )
    return mapping, metrics.counter("mapping.relocations").value


def _rings(mapping: SignalMapping) -> list[tuple]:
    return [(r.rid, r.direction, r.opening_node) for r in mapping.rings]


def _assignments(mapping: SignalMapping) -> list[tuple]:
    """Every field of every assignment, in the mapping's dict order."""
    return [
        (key, a.src, a.dst, a.rid, a.direction, a.wavelength, a.edges, a.passed_nodes)
        for key, a in mapping.assignments.items()
    ]


def _assert_matches(name: str, plan: ShortcutPlan, budgets, configs) -> None:
    tour = _tour(name)
    for budget, config in itertools.product(budgets, configs):
        label = f"{name} budget={budget} config={config}"
        actual, actual_moves = _run(map_signals, tour, plan, budget, config)
        expected, expected_moves = _run(
            map_signals_reference, tour, plan, budget, config
        )
        assert _rings(actual) == _rings(expected), label
        assert _assignments(actual) == _assignments(expected), label
        assert actual.shortcut_wavelengths == expected.shortcut_wavelengths, label
        assert actual.wl_budget == expected.wl_budget, label
        assert actual_moves == expected_moves, label


@pytest.mark.parametrize("name", SMALL + SEEDED)
@pytest.mark.parametrize("with_plan", [False, True])
def test_every_configuration(name, with_plan):
    plan = _plan(name) if with_plan else ShortcutPlan()
    _assert_matches(name, plan, _budgets(_tour(name).size), CONFIGS)


@pytest.mark.parametrize("name", MEDIUM)
@pytest.mark.parametrize("with_plan", [False, True])
def test_medium_floorplans(name, with_plan):
    plan = _plan(name) if with_plan else ShortcutPlan()
    n = _tour(name).size
    _assert_matches(name, plan, _budgets(n) if DEEP else (n, 70), CONFIGS)


@pytest.mark.parametrize("name", ["grid48", "grid64"])
def test_large_grids(name):
    n = _tour(name).size
    if DEEP:
        _assert_matches(name, ShortcutPlan(), _budgets(n), CONFIGS)
    else:
        _assert_matches(name, ShortcutPlan(), (n, 70), [DEFAULT_CONFIG])


@pytest.mark.skipif(not DEEP, reason="128-node oracle run (~12 s): deep step only")
def test_grid128():
    _assert_matches("grid128", ShortcutPlan(), (128,), [DEFAULT_CONFIG])


def test_relocations_are_exercised():
    """The opening pass must actually move signals in this battery."""
    _, moves = _run(map_signals, _tour("psion16"), ShortcutPlan(), 16, DEFAULT_CONFIG)
    assert moves > 0
