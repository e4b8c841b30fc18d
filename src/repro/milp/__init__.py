"""Mixed-integer linear programming substrate.

The paper formulates ring-waveguide construction as an MILP and solves
it with Gurobi.  Gurobi is proprietary and unavailable here, so this
package provides a self-contained replacement:

- a small modelling layer (:class:`Model`, :class:`Var`,
  :class:`LinExpr`, :class:`Constraint`) with natural operator
  overloading, in the spirit of ``gurobipy``/``pulp``, and
  :class:`MatrixModel`, the same model held as arrays, for builders
  of large structured models;
- :meth:`Model.solve`, which runs every model through scipy's bundled
  HiGHS solver, exact and fast for the problem sizes the paper
  evaluates (N <= 32 nodes, i.e. <= 992 binaries) and, with lazy
  conflict rows, beyond.

A pure-Python branch-and-bound over a dense simplex lives in
``tests/milp_oracle.py`` as the independent reference the HiGHS
answers are checked against on small instances.
"""

from repro.milp.expression import LinExpr, Var
from repro.milp.model import (
    Constraint,
    MatrixModel,
    Model,
    Sense,
    Solution,
    SolveError,
    SolveStatus,
)

__all__ = [
    "Var",
    "LinExpr",
    "Constraint",
    "Sense",
    "Model",
    "MatrixModel",
    "Solution",
    "SolveStatus",
    "SolveError",
]
