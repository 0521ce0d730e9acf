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

from . import modp
from .exact import ExactError, MOD_P
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


class JetCoeff(MatCoeff):
    """Square matrix of Taylor jets in e = x - x0 over GF(MOD_P), the
    coefficient of a matrix operator's image at one point (see
    :func:`matrix_condition_witness`).

    An entry is a list of ints, reduced mod p only by :meth:`reduced` (which
    ``mat_ad_tower`` calls once per step), or None for a zero jet.  Every
    entry is exact to its first ``n`` terms: a sum or product is good to the
    shorter operand's ``n``, and a derivative to one term less.  Products
    keep the order of ``MatCoeff.__mul__``; a product with the identity
    (``unit``) is the other factor.
    """

    __slots__ = ("n", "unit", "_deriv")

    def __init__(self, rows: list, side: str, n: int, unit: bool = False):
        self.rows = rows
        self.side = side
        self.n = n
        self.unit = unit
        self._deriv = None

    def is_zero(self) -> bool:
        return not any(x % MOD_P for row in self.rows for jet in row if jet for x in jet)

    def __add__(self, other: "JetCoeff") -> "JetCoeff":
        return JetCoeff([[b if a is None else a if b is None else [x + y for x, y in zip(a, b)]
                          for a, b in zip(ra, rb)] for ra, rb in zip(self.rows, other.rows)],
                        self.side, min(self.n, other.n))

    def __neg__(self) -> "JetCoeff":
        return self * -1

    def __mul__(self, other) -> "JetCoeff":
        if not isinstance(other, JetCoeff):
            return JetCoeff([[jet and [x * other for x in jet] for jet in row] for row in self.rows],
                            self.side, self.n)
        n = min(self.n, other.n)
        if self.unit or other.unit:
            return JetCoeff((other if self.unit else self).rows, self.side, n)
        x, y = (self.rows, other.rows) if self.side == "left" else (other.rows, self.rows)
        out = []
        for xi in x:
            oi = [None] * len(xi)
            for xit, yt in zip(xi, y):
                if xit:
                    for q, ytq in enumerate(yt):
                        if ytq:
                            acc = oi[q]
                            if acc is None:
                                acc = oi[q] = [0] * n
                            modp._mul_into(acc, xit, ytq, 1)
            out.append(oi)
        return JetCoeff(out, self.side, n)

    def derivative(self) -> "JetCoeff":
        if self._deriv is None:
            rows = [[jet and [i * jet[i] for i in range(1, len(jet))] for jet in row]
                    for row in self.rows]
            self._deriv = JetCoeff([[jet if jet and any(jet) else None for jet in row]
                                    for row in rows], self.side, self.n - 1)
        return self._deriv

    def reduced(self) -> "JetCoeff":
        rows = [[jet and [x % MOD_P for x in jet] for jet in row] for row in self.rows]
        return JetCoeff([[jet if jet and any(jet) else None for jet in row] for row in rows],
                        self.side, self.n)


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


def _images(rows):
    """The images mod p (``modp._image``) of a matrix's entries, or None when
    one is undefined."""
    out = [[modp._image(x) for x in row] for row in rows]
    return None if any(img is None for row in out for img in row) else out


def _jet_coeff(images: list, x0: int, n: int, side: str):
    """The JetCoeff of length n at x0 of the matrix with entry ``images``, or
    None when a denominator vanishes at x0."""
    rows = [[modp._jet(img, x0, n) for img in row] for row in images]
    if any(jet is None for row in rows for jet in row):
        return None
    unit = [1] + [0] * (n - 1)
    return JetCoeff([[jet if any(jet) else None for jet in row] for row in rows], side, n,
                    all(jet == unit if i == k else not any(jet)
                        for i, row in enumerate(rows) for k, jet in enumerate(row)))


def matrix_condition_witness(op: MatDiffOp, cond: MatCondition):
    """A witness that sum_j (ad op^j(theta) o M_j) is not zero under op's
    action side: the point of ``modp`` and the lowest derivative order r, then
    matrix entry (i, k), whose image is nonzero there.  None means undecided,
    and so does a condition that :func:`verify_matrix_condition` rejects (no
    terms, theta not of order 0, or a factor of another size).

    The tower is :func:`mat_ad_tower` itself, on the operators whose
    coefficients are the JetCoeffs of op's and theta's at x0, of length
    ord(op) * top + 1: each step uses up ord(op) jet terms, and A_top arrives
    as its value.  The factor M_j multiplies each coefficient from the right
    on both sides, as in :meth:`MatDiffOp.right_factor`.
    """
    theta = cond.theta
    if not cond.terms or theta.order() > 0:
        return None
    factors = [(j, _as_xrat_matrix(m)) for j, m in cond.terms]
    if any(len(m) != op.size for _, m in factors):
        return None
    op_images = {r: _images(c.rows) for r, c in op.coeffs.items()}
    theta_images = {r: _images(c.rows) for r, c in theta.coeffs.items()}
    factor_images = [(j, _images(m)) for j, m in factors]
    if any(img is None for img in (*op_images.values(), *theta_images.values(),
                                   *(img for _, img in factor_images))):
        return None
    top = max(j for j, _ in factors)
    n = max(op.order(), 0) * top + 1
    side = op.action_side
    for x0 in modp._points():
        op_jets = {r: _jet_coeff(img, x0, n, side) for r, img in op_images.items()}
        theta_jets = {r: _jet_coeff(img, x0, n, side) for r, img in theta_images.items()}
        values = [(j, _jet_coeff(img, x0, 1, side)) for j, img in factor_images]
        if not any(c is None for c in (*op_jets.values(), *theta_jets.values(),
                                       *(c for _, c in values))):
            break
    tower = mat_ad_tower(op._like(op_jets), op._like(theta_jets), top)
    residual: dict = {}
    for j, m in values:
        for r, c in tower[j].coeffs.items():
            # right_factor's product c M_j, on either side, is the left-action one
            term = JetCoeff(c.rows, "left", c.n) * m
            residual[r] = term + residual[r] if r in residual else term
    for r in sorted(residual):
        for i, row in enumerate(residual[r].rows):
            for k, jet in enumerate(row):
                if jet and jet[0] % MOD_P:
                    rats = [x for rows in (*(c.rows for c in op.coeffs.values()),
                                           *(c.rows for c in theta.coeffs.values()),
                                           *(m for _, m in factors))
                            for row in rows for x in row]
                    return modp._witness(x0, rats, (), order=r, entry=[i, k],
                                         image=jet[0] % MOD_P)
    return None


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
