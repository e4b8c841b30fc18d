"""The array-built Step-1 model against the expression-built one.

:func:`repro.core.ring._build_ring_model` writes the ring MILP straight
into the arrays HiGHS reads, and the cutting-plane loop appends its
cut rows to them; ``tests/ring_oracle.py:expression_ring_model`` builds
the same MILP row by row through :class:`~repro.milp.Model`.  HiGHS
must receive the identical matrix either way: objective, CSR arrays,
row bounds, integrality, names.  The LP export of the psion 8-node
model is pinned, and no solve may let a warning reach its caller,
also on a scipy whose HiGHS lacks the tuned option.
"""

from __future__ import annotations

import hashlib
import warnings

import numpy as np
import pytest
import scipy.optimize

from repro.core.ring import _build_ring_model, _solve_ring, construct_ring_tour
from repro.geometry import build_edge_conflicts
from repro.milp import model as milp_model
from repro.milp.expression import lin_sum
from repro.milp.model import Model
from repro.network.placement import extended_placement, psion_placement
from repro.obs import NULL_TRACER, MetricsRegistry, ObsContext, use_obs
from tests.ring_oracle import expression_ring_model
from tests.test_lazy_conflicts import CASES

#: sha256 of ``to_lp_string()`` of the eager psion 8-node ring model,
#: as the expression-built model exported it.
PSION8_LP_SHA256 = (
    "b0f1fb4bee910bef9922f816f298a2f615c3757cb2fa23cc331437e58a54c1b6"
)


def _points(name: str) -> list:
    if name == "psion8":
        return list(psion_placement(8)[0])
    if name == "grid16":
        return list(extended_placement(16)[0])
    return CASES[int(name.removeprefix("case"))]


def _assert_same_matrix(model, reference: Model) -> None:
    expected = reference.as_matrix()
    np.testing.assert_array_equal(model.c, expected.c)
    got, want = model.csr(), expected.csr()
    for attr in ("indptr", "indices", "data"):
        np.testing.assert_array_equal(getattr(got, attr), getattr(want, attr))
    for attr in ("lo", "hi", "lb", "ub", "integrality"):
        np.testing.assert_array_equal(
            getattr(model, attr), getattr(expected, attr)
        )
    assert model.var_names == expected.var_names
    assert model.row_names == expected.row_names


def _conflict_rows(model: Model) -> int:
    return sum(1 for c in model.constraints if c.name.startswith("conflict_"))


def _conflict_counter(points, lazy: bool) -> int:
    registry = MetricsRegistry()
    with use_obs(ObsContext(tracer=NULL_TRACER, metrics=registry)):
        construct_ring_tour(points, lazy=lazy)
    return registry.snapshot()["counters"]["ring.conflict_constraints"]


def _cut_pairs(model) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    pairs = []
    for name in model.row_names:
        if name.startswith("conflict_"):
            i, j, p, q = (int(k) for k in name.split("_")[1:])
            pairs.append(((i, j), (p, q)))
    return pairs


class TestArrayBuiltModel:
    @pytest.mark.parametrize("name", ["psion8", "grid16", "case7", "case11"])
    def test_eager_model_matches_the_expression_model(self, name):
        points = _points(name)
        conflicts = build_edge_conflicts(points)
        model = _build_ring_model(points, conflicts)
        reference = expression_ring_model(points, conflicts)
        _assert_same_matrix(model, reference)
        assert _conflict_rows(reference) > 0
        assert _conflict_counter(points, lazy=False) == _conflict_rows(reference)

    @pytest.mark.parametrize("name", ["case7", "case11"])
    def test_lazy_model_after_two_cut_rounds(self, name):
        points = _points(name)
        model = _build_ring_model(points, {})
        _, _, timed_out, rounds, cuts_added = _solve_ring(
            model, points, None, None
        )
        assert not timed_out
        # Two rounds added cuts; the third found the incumbent clean.
        assert rounds >= 3
        cuts = _cut_pairs(model)
        assert len(cuts) == cuts_added
        reference = expression_ring_model(points, {}, cuts)
        _assert_same_matrix(model, reference)
        assert _conflict_counter(points, lazy=True) == _conflict_rows(reference)

    def test_expression_view_reads_back_the_arrays(self):
        points = _points("case7")
        model = _build_ring_model(points, build_edge_conflicts(points))
        _assert_same_matrix(model.as_matrix(), model._view())
        assert model.num_binaries == model.num_vars
        with pytest.raises(TypeError):
            model.add_var("x")

    def test_psion8_lp_export_is_unchanged(self):
        points = _points("psion8")
        conflicts = build_edge_conflicts(points)
        text = _build_ring_model(points, conflicts).to_lp_string()
        assert text == expression_ring_model(points, conflicts).to_lp_string()
        assert hashlib.sha256(text.encode()).hexdigest() == PSION8_LP_SHA256


def _knapsack() -> Model:
    model = Model("knapsack")
    x = [model.binary_var(f"x{i}") for i in range(4)]
    model.add_constraint(lin_sum(w * v for w, v in zip((3, 4, 5, 6), x)) <= 10)
    model.maximize(lin_sum(p * v for p, v in zip((4, 5, 6, 8), x)))
    return model


def _solve_without_warnings():
    """Solve a knapsack and the psion 8-node ring; fail on any warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        knapsack = _knapsack().solve()
        tour = construct_ring_tour(_points("psion8"))
    assert [str(w.message) for w in caught] == []
    return knapsack, tour


@pytest.fixture
def unknown_option(monkeypatch):
    """A HiGHS that does not know the tuned option, like old scipy's."""
    monkeypatch.setattr(
        milp_model, "_HIGHS_OPTIONS", {"no_such_highs_option": False}
    )
    milp_model._milp_entry.cache_clear()
    yield
    milp_model._milp_entry.cache_clear()


class TestNoWarnings:
    def test_solves_emit_no_warning(self):
        knapsack, tour = _solve_without_warnings()
        assert knapsack.is_optimal and knapsack.objective == -13.0
        assert tour.crossing_count == 0

    def test_unknown_option_falls_back_to_plain_milp(self, unknown_option):
        assert milp_model._milp_entry() is scipy.optimize.milp
        knapsack, tour = _solve_without_warnings()
        assert knapsack.is_optimal and knapsack.objective == -13.0
        milp_model._milp_entry.cache_clear()
        _, tuned_tour = _solve_without_warnings()
        assert tour.order == tuned_tour.order
