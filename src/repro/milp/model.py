"""The MILP model container and its HiGHS solve.

``Model`` collects variables, constraints and a (minimization)
objective; :meth:`Model.solve` hands the model's array form (a
:class:`MatrixModel`) to the bundled HiGHS solver.  Code that builds a
large structured model (the Step-1 ring) writes a ``MatrixModel``
directly and skips the expression layer.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from repro.milp.expression import LinExpr, Var, lin_sum
from repro.obs import get_obs
from repro.robustness.deadline import Deadline
from repro.robustness.errors import StageFailure


class Sense(enum.Enum):
    """Constraint sense (normalized to ``expr (sense) 0``)."""

    LE = "<="
    GE = ">="
    EQ = "=="


class SolveStatus(enum.Enum):
    """Outcome of a solve call."""

    OPTIMAL = "optimal"
    #: An integer-feasible incumbent without an optimality proof
    #: (node-limit exhaustion; only the branch-and-bound oracle of
    #: ``tests/milp_oracle.py`` reports it).
    FEASIBLE = "feasible"
    #: The time budget ran out; ``values`` holds the best incumbent
    #: found so far (possibly none).
    TIMEOUT = "timeout"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"
    ERROR = "error"


class SolveError(StageFailure):
    """Raised when a solve cannot produce a usable answer.

    Part of the :mod:`repro.robustness` taxonomy (stage ``"milp"``), so
    the synthesizer's degradation chain catches it alongside the other
    typed stage failures; remains a ``RuntimeError`` for old callers.
    """

    def __init__(self, message: str, **kwargs) -> None:
        kwargs.setdefault("stage", "milp")
        kwargs.setdefault("cause", "solver")
        super().__init__(message, **kwargs)


@dataclass(frozen=True)
class Constraint:
    """A normalized linear constraint ``expr (sense) rhs``.

    Instances are produced by comparison operators on expressions; the
    expression's constant is folded into ``rhs`` at construction.
    """

    expr: LinExpr
    sense: Sense
    rhs: float
    name: str = ""

    def __post_init__(self) -> None:
        folded = LinExpr(dict(self.expr.coeffs), 0.0)
        object.__setattr__(self, "rhs", self.rhs - self.expr.constant)
        object.__setattr__(self, "expr", folded)

    def named(self, name: str) -> "Constraint":
        """Return a copy of the constraint carrying ``name``."""
        return Constraint(self.expr, self.sense, self.rhs, name)

    def satisfied_by(self, values: list[float], tol: float = 1e-6) -> bool:
        """Check the constraint against a dense assignment vector."""
        lhs = sum(c * values[idx] for idx, c in self.expr.coeffs.items())
        if self.sense is Sense.LE:
            return lhs <= self.rhs + tol
        if self.sense is Sense.GE:
            return lhs >= self.rhs - tol
        return abs(lhs - self.rhs) <= tol


@dataclass
class Solution:
    """Result of ``Model.solve``.

    ``values`` is indexed by variable (via ``solution[var]``);
    ``objective`` is the optimal objective when ``status`` is OPTIMAL.
    """

    status: SolveStatus
    objective: float = math.nan
    values: list[float] = field(default_factory=list)
    message: str = ""

    @property
    def is_optimal(self) -> bool:
        """True when an optimal solution was found."""
        return self.status is SolveStatus.OPTIMAL

    @property
    def has_solution(self) -> bool:
        """True when a usable (possibly non-proven) assignment exists.

        Covers proven optima, node-limit incumbents (FEASIBLE), and
        timeout incumbents (TIMEOUT with values).
        """
        if not self.values:
            return False
        return self.status in (
            SolveStatus.OPTIMAL,
            SolveStatus.FEASIBLE,
            SolveStatus.TIMEOUT,
        )

    def __getitem__(self, var: Var) -> float:
        return self.values[var.index]

    def value(self, var: Var, *, as_int: bool = False):
        """Value of ``var``; rounded to int when ``as_int`` is set."""
        v = self.values[var.index]
        return round(v) if as_int else v


class Model:
    """An MILP ``minimize c'x subject to Ax (<=,>=,==) b``."""

    def __init__(self, name: str = "model") -> None:
        self.name = name
        self.variables: list[Var] = []
        self.constraints: list[Constraint] = []
        self.objective: LinExpr = LinExpr()

    # -- construction ------------------------------------------------------
    def add_var(
        self,
        name: str = "",
        lb: float = 0.0,
        ub: float = math.inf,
        *,
        integer: bool = False,
    ) -> Var:
        """Create and register a new variable."""
        if ub < lb:
            raise ValueError(f"variable {name!r}: ub {ub} < lb {lb}")
        var = Var(len(self.variables), name or f"x{len(self.variables)}", lb, ub, integer)
        self.variables.append(var)
        return var

    def binary_var(self, name: str = "") -> Var:
        """Create a 0/1 integer variable."""
        return self.add_var(name, lb=0.0, ub=1.0, integer=True)

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Register a constraint (optionally renaming it)."""
        if not isinstance(constraint, Constraint):
            raise TypeError(
                "add_constraint expects a Constraint (built from a comparison)"
            )
        if name:
            constraint = constraint.named(name)
        self.constraints.append(constraint)
        return constraint

    def set_objective(self, expr) -> None:
        """Set the minimization objective."""
        if isinstance(expr, Var):
            expr = expr.to_expr()
        if not isinstance(expr, LinExpr):
            raise TypeError("objective must be a Var or LinExpr")
        self.objective = expr.copy()

    def minimize(self, expr) -> None:
        """Alias of :meth:`set_objective` (minimization is canonical)."""
        self.set_objective(expr)

    def maximize(self, expr) -> None:
        """Maximize ``expr`` by minimizing its negation."""
        if isinstance(expr, Var):
            expr = expr.to_expr()
        self.set_objective(expr * -1.0)

    # -- introspection ------------------------------------------------------
    @property
    def num_vars(self) -> int:
        """Number of registered variables."""
        return len(self.variables)

    @property
    def num_constraints(self) -> int:
        """Number of registered constraints."""
        return len(self.constraints)

    @property
    def num_binaries(self) -> int:
        """Number of 0/1 integer variables."""
        return sum(
            1
            for v in self.variables
            if v.is_integer and v.lb == 0.0 and v.ub == 1.0
        )

    def lin_sum(self, items) -> LinExpr:
        """Convenience re-export of :func:`repro.milp.expression.lin_sum`."""
        return lin_sum(items)

    # -- solving -------------------------------------------------------------
    def solve(
        self, time_limit: float | None = None, deadline: Deadline | None = None
    ) -> Solution:
        """Solve the model with HiGHS and return a :class:`Solution`.

        ``time_limit`` (seconds) and ``deadline`` (a shared
        :class:`~repro.robustness.deadline.Deadline`) bound the solve;
        an already-expired budget short-circuits to a TIMEOUT solution
        without touching the solver.
        """
        if deadline is not None and deadline.expired():
            return Solution(
                status=SolveStatus.TIMEOUT,
                message="deadline expired before solve started",
            )
        obs = get_obs()
        with obs.tracer.span(
            "milp.solve",
            model=self.name,
            vars=self.num_vars,
            constraints=self.num_constraints,
        ) as span:
            if deadline is not None:
                time_limit = deadline.clamp(time_limit)
            solution = _solve_highs(self.as_matrix(), time_limit)
            span.set_attribute("status", solution.status.value)
        obs.metrics.counter(f"milp.solves.{solution.status.value}").inc()
        return solution

    def as_matrix(self) -> "MatrixModel":
        """The model as the arrays HiGHS reads (see :class:`MatrixModel`).

        Rows keep the constraint order and each row's entries its
        expression's term order.
        """
        n = self.num_vars
        c = np.zeros(n)
        for idx, coeff in self.objective.coeffs.items():
            c[idx] = coeff
        rows, cols, vals = [], [], []
        lo = np.empty(len(self.constraints))
        hi = np.empty(len(self.constraints))
        for i, con in enumerate(self.constraints):
            for idx, coeff in con.expr.coeffs.items():
                rows.append(i)
                cols.append(idx)
                vals.append(coeff)
            if con.sense is Sense.LE:
                lo[i], hi[i] = -np.inf, con.rhs
            elif con.sense is Sense.GE:
                lo[i], hi[i] = con.rhs, np.inf
            else:
                lo[i], hi[i] = con.rhs, con.rhs
        matrix = MatrixModel(
            self.name,
            c=c,
            lb=np.array([v.lb for v in self.variables], dtype=np.float64),
            ub=np.array([v.ub for v in self.variables], dtype=np.float64),
            integrality=np.array(
                [1 if v.is_integer else 0 for v in self.variables],
                dtype=np.uint8,
            ),
            var_names=[v.name for v in self.variables],
            constant=self.objective.constant,
        )
        matrix.add_rows(
            np.array(rows, dtype=np.intp),
            np.array(cols, dtype=np.intp),
            np.array(vals, dtype=np.float64),
            lo,
            hi,
            [con.name for con in self.constraints],
        )
        return matrix

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Model({self.name!r}, vars={self.num_vars}, "
            f"constraints={self.num_constraints})"
        )

    # -- export --------------------------------------------------------------
    def to_lp_string(self) -> str:
        """Serialize the model in CPLEX LP text format.

        Handy for debugging a formulation or feeding the exact same
        instance into an external solver.  Variables are emitted by
        their registered names.
        """

        def term(coeff: float, name: str) -> str:
            sign = "+" if coeff >= 0 else "-"
            return f"{sign} {abs(coeff):g} {name}"

        lines = ["Minimize", " obj:"]
        objective_terms = [
            term(coeff, self.variables[idx].name)
            for idx, coeff in sorted(self.objective.coeffs.items())
        ]
        lines.append("  " + (" ".join(objective_terms) or "0"))
        lines.append("Subject To")
        for i, con in enumerate(self.constraints):
            name = con.name or f"c{i}"
            body = " ".join(
                term(coeff, self.variables[idx].name)
                for idx, coeff in sorted(con.expr.coeffs.items())
            )
            lines.append(f" {name}: {body or '0'} {con.sense.value} {con.rhs:g}")
        lines.append("Bounds")
        for var in self.variables:
            ub = "+inf" if math.isinf(var.ub) else f"{var.ub:g}"
            lines.append(f" {var.lb:g} <= {var.name} <= {ub}")
        integers = [v.name for v in self.variables if v.is_integer]
        if integers:
            lines.append("General")
            lines.append(" " + " ".join(integers))
        lines.append("End")
        return "\n".join(lines) + "\n"


class MatrixModel(Model):
    """A :class:`Model` held as the arrays HiGHS reads.

    ``minimize c'x + constant`` subject to ``lo <= A x <= hi`` and
    ``lb <= x <= ub``; ``A`` is kept as COO entries (``rows``, ``cols``,
    ``vals``) in row order, and :meth:`add_rows` appends a block of
    rows.  ``integrality`` is 1 for an integer column, 0 for a
    continuous one.

    Builders of large structured models write these arrays directly
    instead of going through expressions.  Solving is the inherited
    :meth:`Model.solve`, so both forms share one solve path.  The
    expression view (``variables``, ``constraints``, ``objective``) is
    built on first access, for the branch-and-bound oracle and
    :meth:`Model.to_lp_string`; a ``MatrixModel`` grows only through
    :meth:`add_rows`.
    """

    def __init__(
        self,
        name: str,
        *,
        c: np.ndarray,
        lb: np.ndarray,
        ub: np.ndarray,
        integrality: np.ndarray,
        var_names: list[str],
        constant: float = 0.0,
    ) -> None:
        self.name = name
        self.c = c
        self.lb = lb
        self.ub = ub
        self.integrality = integrality
        self.var_names = var_names
        self.constant = constant
        self.rows = np.empty(0, dtype=np.intp)
        self.cols = np.empty(0, dtype=np.intp)
        self.vals = np.empty(0, dtype=np.float64)
        self.lo = np.empty(0, dtype=np.float64)
        self.hi = np.empty(0, dtype=np.float64)
        self.row_names: list[str] = []
        self._expression_view: Model | None = None

    def add_rows(
        self,
        rows: np.ndarray,
        cols: np.ndarray,
        vals: np.ndarray,
        lo: np.ndarray,
        hi: np.ndarray,
        names: list[str],
    ) -> None:
        """Append ``len(lo)`` rows; ``rows`` counts from 0 within the block."""
        offset = self.num_constraints
        self.rows = np.concatenate([self.rows, rows + offset])
        self.cols = np.concatenate([self.cols, cols])
        self.vals = np.concatenate([self.vals, vals])
        self.lo = np.concatenate([self.lo, lo])
        self.hi = np.concatenate([self.hi, hi])
        self.row_names.extend(names)
        self._expression_view = None

    def as_matrix(self) -> "MatrixModel":
        return self

    def csr(self):
        """The constraint matrix ``A`` in CSR form."""
        from scipy.sparse import csr_matrix

        return csr_matrix(
            (self.vals, (self.rows, self.cols)),
            shape=(self.num_constraints, self.num_vars),
        )

    @property
    def num_vars(self) -> int:
        return self.c.shape[0]

    @property
    def num_constraints(self) -> int:
        return self.lo.shape[0]

    # -- expression view ------------------------------------------------------
    def _view(self) -> Model:
        if self._expression_view is None:
            self._expression_view = self._build_view()
        return self._expression_view

    def _build_view(self) -> Model:
        model = Model(self.name)
        for name, lb, ub, integer in zip(
            self.var_names,
            self.lb.tolist(),
            self.ub.tolist(),
            self.integrality.tolist(),
        ):
            model.add_var(name, lb, ub, integer=bool(integer))
        terms: list[dict[int, float]] = [
            {} for _ in range(self.num_constraints)
        ]
        for row, col, val in zip(
            self.rows.tolist(), self.cols.tolist(), self.vals.tolist()
        ):
            terms[row][col] = val
        for coeffs, lo, hi, name in zip(
            terms, self.lo.tolist(), self.hi.tolist(), self.row_names
        ):
            if lo == hi:
                sense, rhs = Sense.EQ, hi
            elif math.isinf(lo):
                sense, rhs = Sense.LE, hi
            else:
                sense, rhs = Sense.GE, lo
            model.constraints.append(
                Constraint(LinExpr(coeffs), sense, rhs, name)
            )
        model.objective = LinExpr(
            {idx: coeff for idx, coeff in enumerate(self.c.tolist()) if coeff},
            self.constant,
        )
        return model

    @property
    def variables(self) -> list[Var]:
        return self._view().variables

    @property
    def constraints(self) -> list[Constraint]:
        return self._view().constraints

    @property
    def objective(self) -> LinExpr:
        return self._view().objective

    def add_var(self, *args, **kwargs) -> Var:
        raise TypeError("a MatrixModel grows through add_rows only")

    def add_constraint(self, *args, **kwargs) -> Constraint:
        raise TypeError("a MatrixModel grows through add_rows only")

    def set_objective(self, expr) -> None:
        raise TypeError("a MatrixModel's objective is its c array")


#: HiGHS options every solve sets.  The feasibility-jump primal
#: heuristic runs before the root LP; on the Step-1 ring models it
#: finds a poor incumbent (33.8 against an optimum of 18.5 on an
#: 8-node floorplan) and costs more than half of the solve, while the
#: root LP and its cuts close the gap alone.
_HIGHS_OPTIONS = {"mip_heuristic_run_feasibility_jump": False}


@functools.cache
def _milp_entry():
    """``scipy.optimize.milp``, or a copy of it that sets ``_HIGHS_OPTIONS``.

    ``milp`` passes only its five documented options without a
    warning, so the copy calls the same private steps ``milp`` does
    (input checks, the HiGHS wrapper, the status translation) and adds
    ``_HIGHS_OPTIONS`` between the first two.  A scipy whose HiGHS
    lacks one of the options, or whose private layout differs, gets
    plain ``milp`` and HiGHS defaults.
    """
    from scipy.optimize import OptimizeResult, milp

    try:
        from scipy.optimize._highspy._highs_options import HighsOptionsManager
        from scipy.optimize._highspy._highs_wrapper import _highs_wrapper
        from scipy.optimize._linprog_highs import (
            _highs_to_scipy_status_message,
        )
        from scipy.optimize._milp import _milp_iv

        manager = HighsOptionsManager()
        if any(manager.get_option_type(key) == -1 for key in _HIGHS_OPTIONS):
            return milp
    except (ImportError, AttributeError):
        return milp

    def tuned_milp(c, *, constraints, integrality, bounds, options):
        (c, integrality, lb, ub, indptr, indices, data, b_l, b_u, options) = (
            _milp_iv(c, integrality, bounds, constraints, options)
        )
        options.update(_HIGHS_OPTIONS)
        res = _highs_wrapper(
            c, indptr, indices, data, b_l, b_u, lb, ub, integrality, options
        )
        status, message = _highs_to_scipy_status_message(
            res.get("status"), res.get("message")
        )
        x = res.get("x")
        return OptimizeResult(
            status=status,
            message=message,
            success=status == 0,
            x=None if x is None else np.array(x),
            fun=res.get("fun"),
            mip_node_count=res.get("mip_node_count"),
            mip_dual_bound=res.get("mip_dual_bound"),
            mip_gap=res.get("mip_gap"),
        )

    return tuned_milp


def _record_highs_stats(result) -> None:
    """Fold HiGHS search statistics into the ambient metrics registry.

    scipy's OptimizeResult exposes ``mip_node_count``/``mip_gap`` for
    MILP solves; absent fields (pure LPs, older scipy) are skipped.
    """
    metrics = get_obs().metrics
    nodes = getattr(result, "mip_node_count", None)
    if nodes is not None:
        metrics.counter("milp.bb.nodes").inc(int(nodes))
    gap = getattr(result, "mip_gap", None)
    if gap is not None and np.isfinite(gap):
        metrics.gauge("milp.bb.gap").set(float(gap))


def _solve_highs(matrix: MatrixModel, time_limit: float | None) -> Solution:
    """Solve ``matrix`` with scipy's bundled HiGHS MILP solver.

    A HiGHS time-limit stop maps to TIMEOUT, carrying the incumbent
    when the solver surfaced one.
    """
    from scipy.optimize import Bounds, LinearConstraint

    constraints = []
    if matrix.num_constraints:
        constraints.append(
            LinearConstraint(matrix.csr(), matrix.lo, matrix.hi)
        )

    options = {}
    if time_limit is not None:
        options["time_limit"] = max(time_limit, 1e-3)

    result = _milp_entry()(
        matrix.c,
        constraints=constraints,
        integrality=matrix.integrality,
        bounds=Bounds(matrix.lb, matrix.ub),
        options=options,
    )
    _record_highs_stats(result)

    if result.status == 0 and result.x is not None:
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=float(result.fun) + matrix.constant,
            values=[float(x) for x in result.x],
            message=result.message,
        )
    if result.status == 1:
        # Iteration/time limit: surface whatever incumbent HiGHS kept.
        values = [] if result.x is None else [float(x) for x in result.x]
        objective = (
            math.nan
            if result.x is None
            else float(result.fun) + matrix.constant
        )
        return Solution(
            status=SolveStatus.TIMEOUT,
            objective=objective,
            values=values,
            message=result.message,
        )
    status = {2: SolveStatus.INFEASIBLE, 3: SolveStatus.UNBOUNDED}.get(
        result.status, SolveStatus.ERROR
    )
    return Solution(status=status, message=result.message)
