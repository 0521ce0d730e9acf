"""The ad-condition engine.

An ad-condition is an operator identity ``sum_j a_j * ad L^j(Theta) = 0``
for a second-order operator L and a multiplication operator Theta, with
constant weights a_j.  This module computes iterated ad powers, builds the
classical weight ladders coming from eigenfunction recursions, verifies
identities exactly, fits unknown weights, solves for unknown Theta, and
expands the conjugation series e^{tL} Theta e^{-tL}.
"""

from __future__ import annotations

from collections import namedtuple

from . import modp
from .exact import EXP_MAX, PS_ONE, PS_ZERO, ParamScalar, Rat, ExactError, nullspace
from .diffop import (
    DiffOp,
    XPoly,
    XR_ZERO,
    _coerce_ps,
    as_function,
    common_numerators,
    equals,
    schrodinger_commutator,
)


class WeightVector:
    """Constant weights a_j of an ad-condition, indexed by commutator order j.

    Behaves like a polynomial in the ad operator.  The weight at the top
    order is nonzero.
    """

    __slots__ = ("weights",)

    def __init__(self, weights: dict):
        cleaned = {}
        for j, c in weights.items():
            c = _coerce_ps(c)
            if not c.is_zero():
                if j < 0:
                    raise ExactError("negative commutator order in weight vector")
                cleaned[j] = c
        if not cleaned:
            raise ExactError("weight vector must have a nonzero top weight")
        self.weights = cleaned

    @property
    def top_order(self) -> int:
        return max(self.weights)

    def items(self):
        return sorted(self.weights.items())

    def get(self, j: int) -> ParamScalar:
        return self.weights.get(j, PS_ZERO)

    def monic(self) -> "WeightVector":
        top = self.weights[self.top_order]
        if top.is_one():
            return self
        inv = top.invert()
        return WeightVector({j: c * inv for j, c in self.weights.items()})

    def __eq__(self, other):
        if not isinstance(other, WeightVector):
            return NotImplemented
        if self.weights.keys() != other.weights.keys():
            return False
        return all(self.weights[j] == other.weights[j] for j in self.weights)

    __hash__ = None

    def quadratic_step(self, c) -> "WeightVector":
        """Multiply by (ad^2 - c)."""
        c = _coerce_ps(c)
        out: dict = {j + 2: w for j, w in self.weights.items()}
        for j, w in self.weights.items():
            acc = out.get(j, PS_ZERO) - w * c
            out[j] = acc
        return WeightVector(out)

    def __str__(self):
        body = ", ".join(f"{j}: {c}" for j, c in self.items())
        return "{" + body + "}"

    def __repr__(self):
        return f"WeightVector({self})"


class ConditionReport(namedtuple("ConditionReport",
                                  "holds residual assumptions decided_by witness",
                                  defaults=((), "symbolic", None))):
    """Outcome of one identity check: holds iff the residual operator is zero.

    ``decided_by`` is "symbolic" when the residual was expanded, and "mod-p"
    when a nonzero image of it proved the identity false; such a report has
    no residual but a ``witness`` dict (see ``modp.condition_witness`` and
    ``matrixop.matrix_condition_witness``).
    """

    __slots__ = ()


def ad_power(op: DiffOp, theta, j: int) -> DiffOp:
    """ad op^j (theta): iterated commutator, A_0 = theta."""
    return ad_tower(op, theta, j)[j]

def ad_tower(op: DiffOp, theta, up_to: int) -> list:
    """[A_0, ..., A_up_to] with A_{j+1} = [op, A_j], for op = -D^2 + V and a
    function theta.

    L and theta are formally self-adjoint, so A_j* = (-1)^j A_j, where
    (sum_r b_r D^r)* = sum_r (-D)^r b_r; the orders of A_j have the parity
    of j, and each of the other orders is fixed by the higher ones.  Each step
    (:func:`schrodinger_commutator`, given the parity (j + 1) % 2) forms the
    orders of that parity by the closed form of the Schrodinger commutator,

        [L, sum_r b_r D^r] = sum_r ( -b_r'' D^r - 2 b_r' D^(r+1)
                                     - sum_{m>=1} C(r,m) b_r V^(m) D^(r-m) ),

    whose b_r D^(r+2) and V b_r D^r terms of L A and A L, which cancel, are
    never formed, and fills the other orders from the adjoint identity.
    Every derivative V^(m) is computed once per tower.  Raises ExactError
    when op is not of the form -D^2 + V, or when theta is an operator of
    order >= 1, whose tower has no parity.

    Every step cancels denominator factors that divide the numerator so chains
    of commutators do not accumulate spurious denominator powers.  No
    denominator base divides another (the XRat invariant), so a potential
    built from a base and its square, as the Laguerre chain's are, cancels as
    fully as one built from the base; a parametric square typed expanded with
    no sibling base stays one base and cancels only whole.
    """
    if up_to < 0:
        raise ExactError("commutator order must be >= 0")
    v_derivs = [op.potential()]
    current = DiffOp.mul_by(as_function(theta))
    tower = [current]
    for j in range(up_to):
        current = schrodinger_commutator(v_derivs, current, (j + 1) % 2)
        tower.append(current)
    return tower


def reach_weights(n: int, step) -> WeightVector:
    """Weights of prod_{i=1..n}(ad^2 - (s*i)^2) * ad, for spectrum lambda_m = s*m.

    The weight at order 2n+1-2m is (-1)^m times the m-th elementary symmetric
    polynomial of {(s*i)^2 : i = 1..n}.  The step s is a rational value; zero
    raises ExactError.
    """
    if n < 1:
        raise ExactError("recursion ladder needs n >= 1")
    s = Rat(step)
    if not s:
        raise ExactError("spectrum step must be nonzero")
    w = WeightVector({1: PS_ONE})
    for i in range(1, n + 1):
        w = w.quadratic_step((s * i) ** 2)
    return w


def hermite_new_weights(k: int) -> WeightVector:
    """The lowered ad-condition weights for the k-th exceptional Hermite family.

    Odd k:  prod_{i=1..(k+1)/2}(ad^2 - (4i)^2) * ad      (orders k+2, k, ..., 1)
    Even k: prod_{i=0..k/2}(ad^2 - (2+4i)^2)             (orders k+2, k, ..., 0)
    """
    if k < 0:
        raise ExactError("family index must be >= 0")
    if k % 2:
        w = WeightVector({1: PS_ONE})
        for i in range(1, (k + 1) // 2 + 1):
            w = w.quadratic_step((4 * i) ** 2)
    else:
        w = WeightVector({0: PS_ONE})
        for i in range(0, k // 2 + 1):
            w = w.quadratic_step((2 + 4 * i) ** 2)
    return w


def residual_from_tower(tower: list, w: WeightVector) -> DiffOp:
    out = DiffOp.zero()
    for j, c in w.items():
        if j >= len(tower):
            raise ExactError("weight order exceeds computed tower")
        out = out + tower[j].scale(c)
    return out


def verify_condition(op: DiffOp, theta, w: WeightVector, tower=None) -> ConditionReport:
    """Check sum_j w_j * ad op^j(theta) = 0 exactly."""
    if tower is None or len(tower) <= w.top_order:
        tower = ad_tower(op, theta, w.top_order)
    residual = residual_from_tower(tower, w)
    return ConditionReport(residual.is_zero(), residual)


def _linear_rows(columns: list) -> list:
    """Rows of the exact linear system 'sum_i v_i * columns[i] = 0'.

    One row per (derivative order, x-degree) after clearing each derivative
    order's coefficients to a common denominator.
    """
    orders = set()
    for c in columns:
        orders |= c.coeffs.keys()
    rows = []
    for r in sorted(orders):
        # XPoly.coeffs builds its view on each access: once per column here
        views = [n.coeffs for n in common_numerators([c.coeffs.get(r, XR_ZERO) for c in columns])]
        degs = set()
        for view in views:
            degs |= view.keys()
        for d in sorted(degs):
            rows.append([view.get(d, PS_ZERO) for view in views])
    if not rows:
        # all columns vanish identically: the whole space is the nullspace
        rows.append([PS_ZERO] * len(columns))
    return rows


class FitResult(namedtuple("FitResult", "vectors assumptions decided_by",
                            defaults=("symbolic",))):
    """Weight vectors spanning all conditions supported on the given orders.

    ``decided_by`` is "mod-p" when a rank certificate proved that none exists,
    else "symbolic".
    """

    __slots__ = ()


def fit_weights(op: DiffOp, theta, orders) -> FitResult:
    """Find all weight vectors supported on ``orders`` annihilating (op, theta).

    First tries to prove that none exists by a rank certificate mod p
    (:func:`modp.no_weights`), which needs no symbolic tower; the result then
    has no vectors, no assumptions and ``decided_by == "mod-p"``.  Otherwise
    builds the linear system from every x-coefficient of every derivative
    order of the residual, denominators cleared, and returns a nullspace
    basis, primitive when it lies in one parameter.  Every returned vector
    is re-verified exactly.  Raises ExactError for orders that are empty,
    repeated or negative, for a theta of order >= 1 or without x (every A_j
    with j >= 1 is then 0, so any weights would "fit"), and for an op that is
    not -D^2 + V.
    """
    orders = list(orders)
    if not orders or len(set(orders)) != len(orders):
        raise ExactError("orders must be nonempty and distinct")
    if min(orders) < 0:
        raise ExactError("commutator orders must be >= 0")
    theta_fn = as_function(theta)
    if theta_fn.is_constant():
        raise ExactError("theta' vanishes: theta must be non-constant")
    if modp.no_weights(op, theta_fn, orders):
        return FitResult([], [], decided_by="mod-p")
    tower = ad_tower(op, theta, max(orders))
    columns = [tower[j] for j in orders]
    rows = _linear_rows(columns)
    result = nullspace(rows)
    vectors = []
    for vec in result.basis:
        w = WeightVector({j: c for j, c in zip(orders, vec)})
        if not verify_condition(op, theta, w, tower=tower).holds:
            raise ExactError("internal error: fitted weights fail exact verification")
        vectors.append(w)
    return FitResult(vectors, result.assumptions)


class SolveResult(namedtuple("SolveResult", "thetas assumptions decided_by",
                              defaults=("symbolic",))):
    """Polynomial eigenvalue functions solving a fixed ad-condition.

    ``decided_by`` is "mod-p" when a rank certificate proved that none exists,
    else "symbolic".
    """

    __slots__ = ()


def solve_theta(op: DiffOp, w: WeightVector, deg_bound: int,
                fix_zero: bool = True) -> SolveResult:
    """Basis of polynomials Theta of degree <= deg_bound with
    sum_j w_j ad op^j(Theta) = 0.

    Theta(0) = 0 is imposed by default (an additive constant never changes an
    ad-condition); pass fix_zero=False to include the constant direction.
    Each A_j is linear in Theta, so columns are computed per monomial x^i.
    A bound above EXP_MAX, the largest x-degree a polynomial can hold, raises
    ExactError.

    First takes the kernel of the monomial columns mod p
    (:func:`modp.theta_kernel`), which needs no symbolic tower.  An empty one
    is a rank certificate that no Theta exists; the result then has no
    thetas, no assumptions and ``decided_by == "mod-p"``.  Otherwise, when V
    and the weights hold at most one parameter and it has no relation, the
    kernel is lifted to Q(params) (:func:`modp.lift_kernel`) and each Theta is
    proved by one expansion; such a basis is complete and forms no pivot, so
    it holds for generic parameter values and lists no assumptions.  Anything
    else (two parameters or more, a relation, a failed lift or proof) goes to
    the symbolic nullspace of one tower per monomial, and every Theta found
    is re-verified exactly.  A Theta in one parameter is primitive (no
    spurious factor) on both paths, and both give the same basis.
    """
    if deg_bound < 1:
        raise ExactError("degree bound must be >= 1")
    if deg_bound > EXP_MAX:
        raise ExactError(f"degree bound {deg_bound} exceeds the largest x-degree {EXP_MAX}")
    low = 1 if fix_zero else 0
    degrees = list(range(low, deg_bound + 1))
    kernel = modp.theta_kernel(op, w, degrees)
    if kernel == {}:
        return SolveResult([], [], decided_by="mod-p")
    if kernel:
        vectors = modp.lift_kernel(op, w, degrees, kernel)
        if vectors is not None:
            thetas = [_theta(degrees, vec) for vec in vectors]
            if all(verify_condition(op, theta, w).holds for theta in thetas):
                return SolveResult(thetas, [])
    columns = [residual_from_tower(ad_tower(op, XPoly.monomial(i), w.top_order), w)
               for i in degrees]
    rows = _linear_rows(columns)
    result = nullspace(rows)
    thetas = []
    for vec in result.basis:
        theta = _theta(degrees, vec)
        if not verify_condition(op, theta, w).holds:
            raise ExactError("internal error: solved Theta fails exact verification")
        thetas.append(theta)
    return SolveResult(thetas, result.assumptions)


def _theta(degrees: list, vec: list) -> XPoly:
    return XPoly({deg: c for deg, c in zip(degrees, vec) if not c.is_zero()})


def proportionality(a: DiffOp, b: DiffOp):
    """Constant c with a = c*b, or None if the operators are not proportional."""
    if b.is_zero():
        return PS_ZERO if a.is_zero() else None
    r = b.order()
    ca = a.coeff(r)
    cb = b.coeff(r)
    if ca.is_zero():
        return PS_ZERO if a.is_zero() else None
    ratio = ca / cb
    c = ratio.constant_value()
    if c is None:
        return None
    if equals(a, b.scale(c)):
        return c
    return None


class HeisenbergReport(namedtuple("HeisenbergReport", "powers relations rate "
                                   "closed_form_matches even_chain_matches")):
    """Expansion data for e^{tL} Theta e^{-tL} = sum t^j/j! A_j.

    ``relations`` holds every detected proportionality A_{j+2} = c_j A_j.
    ``rate`` is c_1 (the odd-chain ratio); ``closed_form_matches[m]`` records
    whether A_m equals rate^(m//2) * A_{m mod 2}, i.e. whether the order-m
    series coefficient agrees with cosh/sinh of sqrt(rate) acting on A_0, A_1.
    ``even_chain_matches[2i]`` records A_{2i} = rate^(i-1) * A_2 for i >= 1.
    """

    __slots__ = ()


def heisenberg_series(op: DiffOp, theta, n: int) -> HeisenbergReport:
    if n < 0:
        raise ExactError("series order must be >= 0")
    tower = ad_tower(op, theta, n)
    relations = []
    for j in range(0, n - 1):
        c = proportionality(tower[j + 2], tower[j])
        if c is not None:
            relations.append((j, c))
    rate = None
    for j, c in relations:
        if j == 1:
            rate = c
            break
    closed = {}
    even_chain = {}
    if rate is not None:
        for m in range(n + 1):
            target = tower[m % 2].scale(rate ** (m // 2))
            closed[m] = equals(tower[m], target)
        for m in range(2, n + 1, 2):
            target = tower[2].scale(rate ** (m // 2 - 1))
            even_chain[m] = equals(tower[m], target)
    return HeisenbergReport(tower, relations, rate, closed, even_chain)
