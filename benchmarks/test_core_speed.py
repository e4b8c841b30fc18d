"""Micro-benchmarks of the synthesis stages (the paper's T column).

These are real hot-loop benchmarks (pytest-benchmark averages), sized
so the whole suite stays interactive.
"""

import pytest

from repro.analysis import evaluate_circuit
from repro.core.mapping import map_signals
from repro.core.ring import construct_ring_tour
from repro.core.shortcuts import ShortcutPlan, select_shortcuts
from repro.network import Network
from repro.network.placement import psion_placement
from repro.network.traffic import all_to_all
from repro.photonics import NIKDAST_CROSSTALK, ORING_LOSSES


@pytest.fixture(scope="module")
def tours():
    result = {}
    for n in (8, 16):
        points, die = psion_placement(n)
        network = Network.from_positions(points, die=die)
        result[n] = (network, construct_ring_tour(points))
    return result


@pytest.mark.parametrize("num_nodes", [8, 16])
def test_bench_ring_construction(benchmark, num_nodes):
    points, _ = psion_placement(num_nodes)
    tour = benchmark(construct_ring_tour, points)
    assert tour.crossing_count == 0


@pytest.mark.parametrize("num_nodes", [8, 16])
def test_bench_select_shortcuts(benchmark, tours, num_nodes):
    _, tour = tours[num_nodes]
    plan = benchmark(select_shortcuts, tour, loss=ORING_LOSSES)
    assert isinstance(plan.shortcuts, list)


@pytest.mark.parametrize("num_nodes", [8, 16])
def test_bench_signal_mapping(benchmark, tours, num_nodes):
    _, tour = tours[num_nodes]
    mapping = benchmark(
        map_signals, tour, all_to_all(num_nodes), ShortcutPlan(), num_nodes
    )
    assert len(mapping.assignments) == num_nodes * (num_nodes - 1)


def test_bench_full_evaluation(benchmark, tours):
    from repro.core import SynthesisOptions, XRingSynthesizer

    network, tour = tours[16]
    design = XRingSynthesizer(network, SynthesisOptions(wl_budget=16)).run(tour=tour)

    def evaluate():
        circuit = design.to_circuit(ORING_LOSSES, NIKDAST_CROSSTALK)
        return evaluate_circuit(circuit, ORING_LOSSES, NIKDAST_CROSSTALK)

    evaluation = benchmark(evaluate)
    assert evaluation.signal_count == 240
