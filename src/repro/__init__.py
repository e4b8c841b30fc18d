"""XRing: crosstalk-aware synthesis of wavelength-routed optical ring routers.

A from-scratch Python reproduction of *"XRing: A Crosstalk-Aware
Synthesis Method for Wavelength-Routed Optical Ring Routers"* (Zheng,
Tseng, Li, Schlichtmann — DATE 2023), including every substrate the
paper's evaluation depends on: an MILP layer on HiGHS,
a 2-SAT realization selector, rectilinear layout geometry, a photonic
circuit analyzer (insertion loss, first-order crosstalk, laser power),
the ring baselines ORNoC and ORing, the crossbar topologies λ-router /
GWOR / Light with simplified PROTON+ / PlanarONoC / ToPro physical
design flows, and harnesses regenerating the paper's Tables I-III.

Quickstart::

    from repro import synthesize_and_evaluate
    design, evaluation = synthesize_and_evaluate(16)
    print(evaluation.il_w, evaluation.power_w, evaluation.noisy_signals)
"""

from repro.core import SynthesisOptions, XRingDesign, XRingSynthesizer, synthesize
from repro.network import Network
from repro.network.placement import extended_placement, psion_placement
from repro.robustness import (
    CaseTimeout,
    CircuitOpen,
    ConfigurationError,
    Deadline,
    FaultPlan,
    SynthesisError,
    SynthesisReport,
    WorkerCrash,
)

__version__ = "1.0.0"

__all__ = [
    "SynthesisOptions",
    "XRingDesign",
    "XRingSynthesizer",
    "synthesize",
    "Network",
    "synthesize_and_evaluate",
    "Deadline",
    "FaultPlan",
    "SynthesisError",
    "ConfigurationError",
    "WorkerCrash",
    "CaseTimeout",
    "CircuitOpen",
    "SynthesisReport",
    "__version__",
]


def synthesize_and_evaluate(num_nodes: int, wl_budget: int | None = None):
    """One-call demo API: build a network, synthesize, evaluate.

    Returns ``(design, evaluation)`` using the paper's Table II
    parameters (ORing-style losses, Nikdast crosstalk coefficients).
    """
    from repro.analysis import evaluate_circuit
    from repro.photonics import NIKDAST_CROSSTALK, ORING_LOSSES

    try:
        points, die = psion_placement(num_nodes)
    except ValueError:
        points, die = extended_placement(num_nodes)
    network = Network.from_positions(points, die=die)
    design = synthesize(network, wl_budget=wl_budget)
    circuit = design.to_circuit(ORING_LOSSES, NIKDAST_CROSSTALK)
    evaluation = evaluate_circuit(circuit, ORING_LOSSES, NIKDAST_CROSSTALK)
    return design, evaluation
