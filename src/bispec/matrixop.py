"""Matrix-coefficient differential operators acting on matrix-valued functions.

Operators act on square-matrix functions F(x) from either side:

* right action: (L F) = sum_r F^(r) * C_r(x), coefficients multiply from the
  right (the convention of the matrix orthogonal polynomial displays);
* left action:  (L F) = sum_r C_r(x) * F^(r).

A matrix operator is a :class:`~bispec.diffop.DiffOp` whose coefficients are
:class:`MatCoeff` matrices, so composition, commutators, sums, equality and
reduction are the scalar ones, and a scalar operator is the 1x1 case.  The
Leibniz rule gives the coefficient A_r B_s^(m) under the left action and
B_s^(m) A_r under the right, so a right-action coefficient multiplies in the
opposite ring.  Operands of different size or action side raise
:class:`ExactError`.

Ad-conditions here carry constant matrix right factors: sum_j (A_j o M_j) = 0
where (A o M)(F) composes A with multiplication by M on the coefficient side.
The source displays never state the action convention; ``convention_probe``
determines it empirically.
"""

from __future__ import annotations

from collections import namedtuple

from .exact import ExactError
from .diffop import DiffOp, XRat, XR_ZERO, _coerce_xrat, compose
from .adcond import ConditionReport


def _as_xrat_matrix(rows) -> tuple:
    out = []
    for row in rows:
        out.append(tuple(_coerce_xrat(entry) if not isinstance(entry, XRat) else entry
                         for entry in row))
    n = len(out)
    if any(len(r) != n for r in out):
        raise ExactError("matrix must be square")
    return tuple(out)


def _diag(f: XRat, size: int) -> tuple:
    return tuple(tuple(f if i == j else XR_ZERO for j in range(size)) for i in range(size))


def mat_mul(a, b) -> tuple:
    n = len(a)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = XR_ZERO
            for l in range(n):
                if not a[i][l].is_zero() and not b[l][j].is_zero():
                    acc = acc + a[i][l] * b[l][j]
            row.append(acc)
        out.append(tuple(row))
    return tuple(out)


class MatCoeff:
    """Square matrix of XRat entries, the coefficient of a matrix operator.

    ``a * b`` is the product in the ring its operator composes in: the matrix
    product a b under the left action, b a under the right.  A scalar factor
    scales every entry.  Operands are not checked here: the operators that
    own them compare their ``kind`` first.
    """

    __slots__ = ("rows", "side")

    def __init__(self, rows: tuple, side: str):
        self.rows = rows
        self.side = side

    @property
    def size(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> tuple:
        return self.rows[i]

    def _map(self, fn) -> "MatCoeff":
        return MatCoeff(tuple(tuple(fn(x) for x in row) for row in self.rows), self.side)

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.rows for x in row)

    def __add__(self, other: "MatCoeff") -> "MatCoeff":
        return MatCoeff(tuple(tuple(x + y for x, y in zip(ra, rb))
                              for ra, rb in zip(self.rows, other.rows)), self.side)

    def __neg__(self) -> "MatCoeff":
        return self._map(lambda x: -x)

    def __mul__(self, other) -> "MatCoeff":
        if not isinstance(other, MatCoeff):
            return self._map(lambda x: x * other)
        if self.side == "left":
            return MatCoeff(mat_mul(self.rows, other.rows), self.side)
        return MatCoeff(mat_mul(other.rows, self.rows), self.side)

    def __eq__(self, other):
        if not isinstance(other, MatCoeff):
            return NotImplemented
        return all(x == y for ra, rb in zip(self.rows, other.rows) for x, y in zip(ra, rb))

    __hash__ = None

    def derivative(self) -> "MatCoeff":
        return self._map(lambda x: x.derivative())

    def reduced(self) -> "MatCoeff":
        return self._map(lambda x: x.reduced())


class MatDiffOp(DiffOp):
    """Differential operator with square-matrix XRat coefficients.

    ``coeffs`` maps each order to a :class:`MatCoeff` or to rows of XRat
    entries; every coefficient must have the operator's size and side.
    """

    __slots__ = ("size", "action_side")

    def __init__(self, coeffs: dict, size: int, action_side: str = "right", _normalize=True):
        if action_side not in ("left", "right"):
            raise ExactError("action_side must be 'left' or 'right'")
        coeffs = {r: m if isinstance(m, MatCoeff) else MatCoeff(_as_xrat_matrix(m), action_side)
                  for r, m in coeffs.items()}
        for m in coeffs.values():
            if m.size != size:
                raise ExactError("operator size mismatch")
            if m.side != action_side:
                raise ExactError("operator action-side mismatch")
        super().__init__(coeffs, _normalize)
        self.size = size
        self.action_side = action_side

    @classmethod
    def from_matrices(cls, coeffs: dict, action_side: str = "right") -> "MatDiffOp":
        sizes = {len(m) for m in coeffs.values()}
        if len(sizes) != 1:
            raise ExactError("all coefficient matrices must have the same size")
        return cls(coeffs, sizes.pop(), action_side)

    @classmethod
    def scalar_times_identity(cls, f, size: int, action_side: str = "right") -> "MatDiffOp":
        return cls({0: _diag(_coerce_xrat(f), size)}, size, action_side)

    @classmethod
    def _no_size(cls, *args, **kwargs):
        raise ExactError("a matrix operator needs a size and an action side: "
                         "use MatDiffOp.from_matrices or MatDiffOp.scalar_times_identity")

    # the scalar class constructors cannot know a size or side
    zero = identity = d = mul_by = schrodinger = _no_size

    @property
    def kind(self) -> str:
        return f"{self.size}x{self.size} {self.action_side}-action"

    def _like(self, coeffs: dict, _normalize=True) -> "MatDiffOp":
        return MatDiffOp(coeffs, self.size, self.action_side, _normalize)

    def coeff(self, r: int) -> MatCoeff:
        if r in self.coeffs:
            return self.coeffs[r]
        return MatCoeff(_diag(XR_ZERO, self.size), self.action_side)

    def with_side(self, side: str) -> "MatDiffOp":
        return MatDiffOp({r: MatCoeff(m.rows, side) for r, m in self.coeffs.items()},
                         self.size, side, _normalize=False)

    def right_factor(self, m) -> "MatDiffOp":
        """Compose with right multiplication by a constant matrix:
        F -> (self F) * m under the right action, F -> self(m F) under the left."""
        m = _as_xrat_matrix(m)
        if len(m) != self.size:
            raise ExactError("right factor size mismatch")
        return self._like({r: MatCoeff(mat_mul(c.rows, m), self.action_side)
                           for r, c in self.coeffs.items()})

    def __str__(self):
        if not self.coeffs:
            return "0"
        chunks = []
        for r in sorted(self.coeffs, reverse=True):
            rows = "; ".join(", ".join(str(x) for x in row) for row in self.coeffs[r].rows)
            dtxt = "" if r == 0 else (" D" if r == 1 else f" D^{r}")
            chunks.append(f"[{rows}]{dtxt}")
        return " + ".join(chunks)

    def __repr__(self):
        return f"MatDiffOp({self}, side={self.action_side})"


def mat_compose(a: MatDiffOp, b: MatDiffOp) -> MatDiffOp:
    """Composition a(b(F)) under the operators' shared action side."""
    return compose(a, b)


def mat_commutator(a: MatDiffOp, b: MatDiffOp) -> MatDiffOp:
    return mat_compose(a, b) - mat_compose(b, a)


def mat_ad_tower(op: MatDiffOp, theta: MatDiffOp, up_to: int) -> list:
    """[A_0, ..., A_up_to] with A_0 = theta and A_{j+1} = [op, A_j], reduced
    after every step; theta is an order-0 operator."""
    if theta.order() > 0:
        raise ExactError("theta must be an order-0 operator")
    tower = [theta]
    for _ in range(up_to):
        tower.append(mat_commutator(op, tower[-1]).reduced())
    return tower


class MatCondition(namedtuple("MatCondition", "terms theta")):
    """sum over terms (j, M_j) of ad L^j(theta) composed with the constant
    right factor M_j; theta is an order-0 operator."""

    __slots__ = ()


def verify_matrix_condition(op: MatDiffOp, cond: MatCondition) -> ConditionReport:
    """Exact check of sum_j (ad op^j(theta) o M_j) = 0; a condition without
    terms raises ExactError."""
    if not cond.terms:
        raise ExactError("matrix condition needs at least one term")
    theta = cond.theta.with_side(op.action_side)
    tower = mat_ad_tower(op, theta, max(j for j, _ in cond.terms))
    parts = [tower[j].right_factor(m) for j, m in cond.terms]
    residual = sum(parts[1:], parts[0])
    return ConditionReport(residual.is_zero(), residual)


def convention_probe(op: MatDiffOp, cond: MatCondition) -> dict:
    """Run the condition under both action conventions; report which hold.

    Returns {"left": report, "right": report, "sides": [...]} where ``sides``
    lists the conventions under which the identity verifies.
    """
    out = {}
    sides = []
    for side in ("left", "right"):
        report = verify_matrix_condition(op.with_side(side), cond)
        out[side] = report
        if report.holds:
            sides.append(side)
    out["sides"] = sides
    return out
