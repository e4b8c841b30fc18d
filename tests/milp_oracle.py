"""Pure-Python branch-and-bound over a dense two-phase simplex.

:meth:`repro.milp.model.Model.solve` runs every model through HiGHS
(:func:`scipy.optimize.milp`).  This module keeps an independent exact
solver as the slow oracle the HiGHS answers are compared against on
small instances (``tests/test_milp*.py``, ``tests/test_core_ring.py``).
It is test-only: nothing under ``src/`` imports it.

- :func:`solve_lp` is a dense two-phase primal simplex.  General
  bounds are shifted to ``0 <= x' <= span`` with finite spans as
  explicit rows; inequality rows get slack/surplus columns and phase-1
  artificials.  Bland's rule picks entering and leaving columns, and
  phase 2 never lets an artificial column enter, so the basis cannot
  cycle through a redundant row's level-zero artificial.
- :func:`solve_with_branch_bound` is best-first branch-and-bound over
  those LP relaxations, branching on the most fractional integer
  variable by tightening per-node bounds.

Both honour a ``time_limit`` or a shared
:class:`~repro.robustness.deadline.Deadline`, polled inside the node
loop and every few pivots, so a hard instance returns TIMEOUT (with its
best incumbent, if any) instead of running unbounded.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from dataclasses import dataclass

import numpy as np

from repro.milp.model import Model, Sense, Solution, SolveStatus
from repro.robustness.deadline import Deadline

_TOL = 1e-9
_INT_TOL = 1e-6
#: Pivots between deadline polls (a poll is one clock read).
_DEADLINE_STRIDE = 16


class LPStatus(enum.Enum):
    """Outcome of an LP solve."""

    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    TIMEOUT = "timeout"


@dataclass
class LPResult:
    """LP solve result: ``x`` is dense over the original variables."""

    status: LPStatus
    objective: float = math.nan
    x: np.ndarray | None = None


def solve_by(model: Model, solver: str) -> Solution:
    """``"scipy"``: the production HiGHS solve; ``"branch_bound"``: the
    oracle.  Lets one test body run against both."""
    if solver == "scipy":
        return model.solve()
    return solve_with_branch_bound(model)


# -- dense two-phase simplex -------------------------------------------------
def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    """Pivot the tableau on ``(row, col)`` and update the basis."""
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and abs(tableau[r, col]) > _TOL:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _run_simplex(
    tableau: np.ndarray,
    basis: list[int],
    cost: np.ndarray,
    enterable: int,
    deadline: Deadline | None = None,
) -> LPStatus:
    """Minimize ``cost`` over the tableau's feasible region in place.

    The tableau holds rows ``[A | b]`` with a feasible basis.  Only the
    first ``enterable`` columns may enter the basis.  Uses Bland's
    smallest-index rule.  Returns TIMEOUT (leaving the tableau
    mid-pivot, unusable) when ``deadline`` expires.
    """
    m, width = tableau.shape
    n = width - 1
    pivots = 0
    while True:
        pivots += 1
        if (
            deadline is not None
            and pivots % _DEADLINE_STRIDE == 0
            and deadline.expired()
        ):
            return LPStatus.TIMEOUT
        # Reduced costs: c_j - c_B' * B^-1 A_j.
        reduced = cost[:enterable] - cost[basis] @ tableau[:, :enterable]
        candidates = np.flatnonzero(reduced < -_TOL)
        if not len(candidates):
            return LPStatus.OPTIMAL
        entering = int(candidates[0])
        leaving = -1
        best_ratio = math.inf
        for r in range(m):
            a = tableau[r, entering]
            if a > _TOL:
                ratio = tableau[r, n] / a
                if ratio < best_ratio - _TOL or (
                    abs(ratio - best_ratio) <= _TOL
                    and (leaving < 0 or basis[r] < basis[leaving])
                ):
                    best_ratio = ratio
                    leaving = r
        if leaving < 0:
            return LPStatus.UNBOUNDED
        _pivot(tableau, basis, leaving, entering)


def solve_lp(
    c: np.ndarray,
    a_rows: np.ndarray,
    senses: list[str],
    b: np.ndarray,
    lb: np.ndarray,
    ub: np.ndarray,
    deadline: Deadline | None = None,
) -> LPResult:
    """Minimize ``c'x`` s.t. ``A x (senses) b`` and ``lb <= x <= ub``.

    ``senses`` entries are ``"<="``, ``">="`` or ``"=="`` per row.
    Lower bounds must be finite; infinite upper bounds are allowed.
    ``deadline`` expiry aborts either simplex phase with TIMEOUT.
    """
    n = len(c)
    if np.any(~np.isfinite(lb)):
        raise ValueError("the simplex requires finite lower bounds")
    if np.any(ub < lb - _TOL):
        return LPResult(LPStatus.INFEASIBLE)

    # Shift x = lb + x'  (x' >= 0); fold shift into b.
    shift = lb.copy()
    b = b - a_rows @ shift if len(b) else b.copy()

    rows = [a_rows[i].astype(float) for i in range(len(b))]
    rhs = [float(v) for v in b]
    row_senses = list(senses)
    # Finite upper bounds become explicit rows on shifted variables.
    for j in range(n):
        span = ub[j] - lb[j]
        if math.isfinite(span):
            row = np.zeros(n)
            row[j] = 1.0
            rows.append(row)
            rhs.append(float(span))
            row_senses.append("<=")

    m = len(rows)
    if m == 0:
        # Unconstrained besides x' >= 0: optimum at 0 unless some
        # negative cost coefficient makes it unbounded.
        if np.any(c < -_TOL):
            return LPResult(LPStatus.UNBOUNDED)
        return LPResult(LPStatus.OPTIMAL, float(c @ shift), shift.copy())

    # Columns: original, then slack/surplus, then artificials.
    n_slack = sum(1 for s in row_senses if s in ("<=", ">="))
    structural = n + n_slack
    total = structural + m  # some artificial columns stay unused
    tableau = np.zeros((m, total + 1))
    slack_col = n
    art_col = structural
    basis: list[int] = []
    artificials: list[int] = []
    for i in range(m):
        row = np.zeros(total)
        row[:n] = rows[i]
        bi = rhs[i]
        sense = row_senses[i]
        if bi < 0:
            row[:n] = -row[:n]
            bi = -bi
            sense = {"<=": ">=", ">=": "<=", "==": "=="}[sense]
        if sense == "<=":
            row[slack_col] = 1.0
            basis_col = slack_col
            slack_col += 1
        else:
            if sense == ">=":
                row[slack_col] = -1.0
                slack_col += 1
            row[art_col] = 1.0
            basis_col = art_col
            artificials.append(art_col)
            art_col += 1
        tableau[i, :total] = row
        tableau[i, total] = bi
        basis.append(basis_col)

    # Phase 1: minimize the sum of artificials.
    phase1_cost = np.zeros(total)
    phase1_cost[artificials] = 1.0
    status = _run_simplex(tableau, basis, phase1_cost, total, deadline)
    if status is LPStatus.TIMEOUT:
        return LPResult(LPStatus.TIMEOUT)
    if status is not LPStatus.OPTIMAL:
        return LPResult(LPStatus.INFEASIBLE)
    if float(phase1_cost[basis] @ tableau[:, total]) > 1e-6:
        return LPResult(LPStatus.INFEASIBLE)
    # Drive any artificial still in the basis out (or its row is redundant).
    for r in range(m):
        if basis[r] >= structural:
            nonzero = np.flatnonzero(np.abs(tableau[r, :structural]) > 1e-7)
            if len(nonzero):
                _pivot(tableau, basis, r, int(nonzero[0]))

    # Phase 2 over original + slack columns.  An artificial left basic
    # at level zero on a redundant row costs nothing and may not enter
    # again: pricing it out with a huge cost instead turns rounding
    # noise into reduced costs that make Bland's rule cycle.
    phase2_cost = np.zeros(total)
    phase2_cost[:n] = c
    status = _run_simplex(tableau, basis, phase2_cost, structural, deadline)
    if status is not LPStatus.OPTIMAL:
        return LPResult(status)

    x_shifted = np.zeros(total)
    for r, col in enumerate(basis):
        x_shifted[col] = tableau[r, total]
    x = x_shifted[:n] + shift
    return LPResult(LPStatus.OPTIMAL, float(c @ x), x)


# -- branch-and-bound --------------------------------------------------------
def _model_matrices(model: Model):
    n = model.num_vars
    c = np.zeros(n)
    for idx, coeff in model.objective.coeffs.items():
        c[idx] = coeff
    m = len(model.constraints)
    a_rows = np.zeros((m, n))
    b = np.zeros(m)
    senses: list[str] = []
    for i, con in enumerate(model.constraints):
        for idx, coeff in con.expr.coeffs.items():
            a_rows[i, idx] = coeff
        b[i] = con.rhs
        senses.append(con.sense.value if isinstance(con.sense, Sense) else con.sense)
    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])
    return c, a_rows, senses, b, lb, ub


def _most_fractional(x: np.ndarray, integer_idx: list[int]) -> int | None:
    best_idx: int | None = None
    best_frac = _INT_TOL
    for j in integer_idx:
        frac = abs(x[j] - round(x[j]))
        if frac > best_frac:
            best_frac = frac
            best_idx = j
    return best_idx


def solve_with_branch_bound(
    model: Model,
    max_nodes: int = 200_000,
    time_limit: float | None = None,
    deadline: Deadline | None = None,
) -> Solution:
    """Solve ``model`` exactly by branch-and-bound.

    Raises no exception on resource exhaustion.  Status semantics:

    - OPTIMAL — tree exhausted, incumbent proven optimal;
    - FEASIBLE — ``max_nodes`` hit, best incumbent returned;
    - TIMEOUT — ``time_limit``/``deadline`` expired; ``values`` holds
      the best incumbent found so far, possibly none;
    - INFEASIBLE / UNBOUNDED / ERROR — as usual.
    """
    if deadline is None and time_limit is not None:
        deadline = Deadline(time_limit)

    c, a_rows, senses, b, lb0, ub0 = _model_matrices(model)
    integer_idx = [v.index for v in model.variables if v.is_integer]

    root = solve_lp(c, a_rows, senses, b, lb0, ub0, deadline)
    if root.status is LPStatus.TIMEOUT:
        return Solution(
            status=SolveStatus.TIMEOUT,
            message="deadline expired in root relaxation",
        )
    if root.status is LPStatus.INFEASIBLE:
        return Solution(status=SolveStatus.INFEASIBLE)
    if root.status is LPStatus.UNBOUNDED:
        return Solution(status=SolveStatus.UNBOUNDED)

    counter = itertools.count()
    heap: list[tuple[float, int, np.ndarray, np.ndarray, np.ndarray]] = []
    assert root.x is not None
    heapq.heappush(heap, (root.objective, next(counter), root.x, lb0, ub0))

    incumbent_obj = math.inf
    incumbent_x: np.ndarray | None = None
    nodes = 0
    exhausted = True
    timed_out = False

    while heap:
        if deadline is not None and deadline.expired():
            exhausted = False
            timed_out = True
            break
        bound, _, x, lb, ub = heapq.heappop(heap)
        nodes += 1
        if nodes > max_nodes:
            exhausted = False
            break
        if bound >= incumbent_obj - 1e-9:
            continue  # fathomed by bound

        branch_var = _most_fractional(x, integer_idx)
        if branch_var is None:
            # Integer feasible: round tiny fractional noise away.
            x_int = x.copy()
            for j in integer_idx:
                x_int[j] = round(x_int[j])
            obj = float(c @ x_int)
            if obj < incumbent_obj - 1e-9:
                incumbent_obj = obj
                incumbent_x = x_int
            continue

        floor_val = math.floor(x[branch_var] + _INT_TOL)
        for down in (True, False):
            new_lb = lb.copy()
            new_ub = ub.copy()
            if down:
                new_ub[branch_var] = floor_val
            else:
                new_lb[branch_var] = floor_val + 1
            if new_lb[branch_var] > new_ub[branch_var] + 1e-9:
                continue
            child = solve_lp(c, a_rows, senses, b, new_lb, new_ub, deadline)
            if child.status is LPStatus.TIMEOUT:
                exhausted = False
                timed_out = True
                break
            if child.status is not LPStatus.OPTIMAL or child.x is None:
                continue
            if child.objective < incumbent_obj - 1e-9:
                heapq.heappush(
                    heap,
                    (child.objective, next(counter), child.x, new_lb, new_ub),
                )
        if timed_out:
            break

    if incumbent_x is None:
        if timed_out:
            return Solution(
                status=SolveStatus.TIMEOUT,
                message=f"deadline expired after {nodes} nodes, no incumbent",
            )
        if exhausted:
            return Solution(status=SolveStatus.INFEASIBLE)
        return Solution(
            status=SolveStatus.ERROR,
            message=f"node limit {max_nodes} reached without incumbent",
        )

    if timed_out:
        status = SolveStatus.TIMEOUT
        message = f"deadline expired after {nodes} nodes; best incumbent"
    elif exhausted:
        status = SolveStatus.OPTIMAL
        message = ""
    else:
        status = SolveStatus.FEASIBLE
        message = f"node limit {max_nodes} reached; best incumbent"
    return Solution(
        status=status,
        objective=incumbent_obj + model.objective.constant,
        values=[float(v) for v in incumbent_x],
        message=message,
    )
