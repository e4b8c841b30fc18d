"""Decision variables and linear expressions.

A :class:`LinExpr` is a sparse linear form ``sum(coeff_i * var_i) +
constant``.  Variables and expressions support ``+``, ``-`` and scalar
``*`` so models read like the paper's formulation, e.g.::

    model.add_constraint(b[e_ij] + b[e_ji] <= 1)

Comparison operators on expressions build :class:`~repro.milp.model.
Constraint` objects rather than booleans.
"""

from __future__ import annotations

import numbers
from collections.abc import Iterable


class Var:
    """A decision variable owned by a :class:`~repro.milp.model.Model`.

    Instances are created through ``Model.add_var`` /
    ``Model.binary_var``; the constructor is not meant to be called
    directly by user code.
    """

    __slots__ = ("index", "name", "lb", "ub", "is_integer")

    def __init__(
        self,
        index: int,
        name: str,
        lb: float,
        ub: float,
        is_integer: bool,
    ) -> None:
        self.index = index
        self.name = name
        self.lb = lb
        self.ub = ub
        self.is_integer = is_integer

    def to_expr(self) -> "LinExpr":
        """Lift the variable into a single-term expression."""
        return LinExpr({self.index: 1.0}, 0.0)

    # -- arithmetic (delegates to LinExpr) --------------------------------
    def __add__(self, other):
        return self.to_expr() + other

    def __radd__(self, other):
        return self.to_expr() + other

    def __sub__(self, other):
        return self.to_expr() - other

    def __rsub__(self, other):
        return (-self.to_expr()) + other

    def __mul__(self, other):
        return self.to_expr() * other

    def __rmul__(self, other):
        return self.to_expr() * other

    def __neg__(self):
        return -self.to_expr()

    # -- comparisons build constraints ------------------------------------
    def __le__(self, other):
        return self.to_expr() <= other

    def __ge__(self, other):
        return self.to_expr() >= other

    def __eq__(self, other):  # type: ignore[override]
        return self.to_expr() == other

    def __hash__(self) -> int:
        return object.__hash__(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "int" if self.is_integer else "cont"
        return f"Var({self.name}, {kind}, [{self.lb}, {self.ub}])"


class LinExpr:
    """A sparse linear expression over model variables."""

    __slots__ = ("coeffs", "constant")

    def __init__(self, coeffs: dict[int, float] | None = None, constant: float = 0.0):
        self.coeffs: dict[int, float] = dict(coeffs) if coeffs else {}
        self.constant = float(constant)

    @staticmethod
    def _as_expr(value) -> "LinExpr":
        if isinstance(value, LinExpr):
            return value
        if isinstance(value, Var):
            return value.to_expr()
        if isinstance(value, numbers.Real):
            return LinExpr({}, float(value))
        raise TypeError(f"cannot interpret {value!r} as a linear expression")

    def copy(self) -> "LinExpr":
        """Return an independent copy of the expression."""
        return LinExpr(dict(self.coeffs), self.constant)

    # -- arithmetic --------------------------------------------------------
    def __add__(self, other) -> "LinExpr":
        rhs = self._as_expr(other)
        out = self.copy()
        for idx, c in rhs.coeffs.items():
            out.coeffs[idx] = out.coeffs.get(idx, 0.0) + c
        out.constant += rhs.constant
        return out

    def __radd__(self, other) -> "LinExpr":
        return self + other

    def __sub__(self, other) -> "LinExpr":
        return self + (self._as_expr(other) * -1.0)

    def __rsub__(self, other) -> "LinExpr":
        return (self * -1.0) + other

    def __mul__(self, scalar) -> "LinExpr":
        if not isinstance(scalar, numbers.Real):
            raise TypeError("expressions may only be scaled by numbers")
        return LinExpr(
            {idx: c * float(scalar) for idx, c in self.coeffs.items()},
            self.constant * float(scalar),
        )

    def __rmul__(self, scalar) -> "LinExpr":
        return self * scalar

    def __neg__(self) -> "LinExpr":
        return self * -1.0

    # -- comparisons build constraints ------------------------------------
    def __le__(self, other):
        from repro.milp.model import Constraint, Sense

        diff = self - other
        return Constraint(diff, Sense.LE, 0.0)

    def __ge__(self, other):
        from repro.milp.model import Constraint, Sense

        diff = self - other
        return Constraint(diff, Sense.GE, 0.0)

    def __eq__(self, other):  # type: ignore[override]
        from repro.milp.model import Constraint, Sense

        diff = self - other
        return Constraint(diff, Sense.EQ, 0.0)

    def __hash__(self) -> int:
        return object.__hash__(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        terms = " + ".join(f"{c:g}*x{idx}" for idx, c in sorted(self.coeffs.items()))
        return f"LinExpr({terms or '0'} + {self.constant:g})"


def lin_sum(items: Iterable) -> LinExpr:
    """Sum variables/expressions/numbers into one :class:`LinExpr`.

    Unlike builtin :func:`sum`, this avoids quadratic rebuilding of
    intermediate expressions on long sums.
    """
    out = LinExpr()
    for item in items:
        expr = LinExpr._as_expr(item)
        for idx, c in expr.coeffs.items():
            out.coeffs[idx] = out.coeffs.get(idx, 0.0) + c
        out.constant += expr.constant
    return out
