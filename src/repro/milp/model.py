"""The MILP model container and its HiGHS solve.

``Model`` collects variables, constraints and a (minimization)
objective; :meth:`Model.solve` hands the model to
:func:`scipy.optimize.milp` (the bundled HiGHS solver).
"""

from __future__ import annotations

import enum
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
            solution = _solve_highs(self, time_limit)
            span.set_attribute("status", solution.status.value)
        obs.metrics.counter(f"milp.solves.{solution.status.value}").inc()
        return solution

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


def _solve_highs(model: Model, time_limit: float | None) -> Solution:
    """Solve ``model`` with scipy's bundled HiGHS MILP solver.

    Equality constraints become two-sided bounds ``rhs <= Ax <= rhs``;
    inequalities get an infinite bound on the open side.  A HiGHS
    time-limit stop maps to TIMEOUT, carrying the incumbent when the
    solver surfaced one.
    """
    from scipy.optimize import Bounds, LinearConstraint, milp
    from scipy.sparse import csr_matrix

    n = model.num_vars
    c = np.zeros(n)
    for idx, coeff in model.objective.coeffs.items():
        c[idx] = coeff

    lb = np.array([v.lb for v in model.variables])
    ub = np.array([v.ub for v in model.variables])
    integrality = np.array(
        [1 if v.is_integer else 0 for v in model.variables]
    )

    constraints = []
    if model.constraints:
        rows, cols, vals = [], [], []
        lo = np.empty(len(model.constraints))
        hi = np.empty(len(model.constraints))
        for i, con in enumerate(model.constraints):
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
        matrix = csr_matrix(
            (vals, (rows, cols)), shape=(len(model.constraints), n)
        )
        constraints.append(LinearConstraint(matrix, lo, hi))

    options = {}
    if time_limit is not None:
        options["time_limit"] = max(time_limit, 1e-3)

    result = milp(
        c=c,
        constraints=constraints,
        integrality=integrality,
        bounds=Bounds(lb, ub),
        options=options,
    )
    _record_highs_stats(result)

    if result.status == 0 and result.x is not None:
        return Solution(
            status=SolveStatus.OPTIMAL,
            objective=float(result.fun) + model.objective.constant,
            values=[float(x) for x in result.x],
            message=result.message,
        )
    if result.status == 1:
        # Iteration/time limit: surface whatever incumbent HiGHS kept.
        values = [] if result.x is None else [float(x) for x in result.x]
        objective = (
            math.nan
            if result.x is None
            else float(result.fun) + model.objective.constant
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
