"""Constraint-system machinery for solving low-order ad-conditions.

For a target condition with weights on orders n, n-2, ... the eigenvalue
polynomial has degree at most n-1 and the potential takes the form
V = (P/Theta')' with P of degree at most n+1.  ``generate_system`` builds
the polynomial system in the unknown coefficients of Theta and P whose
solutions are exactly the (Theta, V) pairs satisfying the condition;
``verify_candidate`` checks a single displayed pair.  Full variety
decomposition of the nonlinear system is out of scope: the module generates,
substitutes and verifies, and solves only the linear subproblems.
"""

from __future__ import annotations

from collections import namedtuple

from .exact import ParamScalar, ExactError, nullspace
from .diffop import DiffOp, XPoly, XRat
from .adcond import (ConditionReport, WeightVector, _linear_rows, ad_tower, residual_from_tower,
                     verify_condition)


def build_V(theta: XPoly, p: XPoly) -> XRat:
    """V = (P/Theta')', the potential parameterization of the solution method."""
    dtheta = theta.derivative()
    if dtheta.is_zero():
        raise ExactError("theta' vanishes: theta must be non-constant")
    return XRat.from_ratio(p, dtheta).derivative()


class AnsatzSystem(namedtuple("AnsatzSystem",
                               "weights theta_names p_names equations forced cleared")):
    """Polynomial system in the coefficients of Theta and P.

    ``equations`` are MPoly values that must all vanish; ``forced`` lists the
    single-unknown linear consequences (the top-coefficient restrictions),
    as (name, value) pairs.  ``cleared`` documents the denominator power
    removed from the residual (a Theta' != 0 genericity assumption).
    """

    __slots__ = ()

    @property
    def unknowns(self) -> list:
        return list(self.theta_names) + list(self.p_names)

    def substitute(self, mapping: dict) -> list:
        """Evaluate every equation at a (partial) assignment of unknowns;
        values may be ParamScalar, MPoly or rationals."""
        return [eq.substitute_scalar(mapping) for eq in self.equations]

    def residual_norm(self, mapping: dict) -> int:
        """Number of equations that do not vanish under the assignment."""
        return sum(0 if v.is_zero() else 1 for v in self.substitute(mapping))


def generate_system(w: WeightVector, include_constant: bool = False) -> AnsatzSystem:
    """Build the constraint system of the solution method for weights ``w``.

    Unknowns are a_1..a_{n-1} (Theta, with Theta(0) = 0 unless
    ``include_constant``) and c_0..c_{n+1} (P); the residual of the condition
    for V = (P/Theta')' is expanded, cleared of its Theta' denominator, and
    every x-coefficient of every derivative order becomes one equation.
    """
    n = w.top_order
    lo = 0 if include_constant else 1
    theta_names = [f"a{i}" for i in range(lo, n)]
    p_names = [f"c{i}" for i in range(n + 2)]
    theta = XPoly({i: ParamScalar.var(f"a{i}") for i in range(lo, n) if i > 0})
    if include_constant:
        theta = theta + XPoly.const(ParamScalar.var("a0"))
    p = XPoly({i: ParamScalar.var(f"c{i}") for i in range(n + 2)})
    v = build_V(theta, p)
    op = DiffOp.schrodinger(v)
    # the tower is garbage once the residual is formed: it is the largest
    # object of the system build and need not live through the loop below
    residual = residual_from_tower(ad_tower(op, theta, n), w)

    equations = []
    cleared_parts = []
    for r in sorted(residual.coeffs):
        coeff = residual.coeffs[r]
        for base, exp in coeff.factors:
            cleared_parts.append(f"order {r}: denominator ({base})^{exp}")
        for d, entry in sorted(coeff.num.coeffs.items(), reverse=True):
            # a non-constant denominator here is a monomial in the unknowns
            # (from the monic normalization of Theta'); clearing it multiplies
            # the equation by a nonzero monomial
            poly = (entry.num._scaled(1 / entry.den.const_value())
                    if entry.den.is_constant() and entry.den.const_value() != 1
                    else entry.num)
            if not poly.is_zero():
                equations.append(poly)
    forced = _forced_relations(equations, set(p_names))
    cleared = "; ".join(cleared_parts) if cleared_parts else "none"
    return AnsatzSystem(w, theta_names, p_names, equations, forced, cleared)


def _forced_relations(equations: list, p_names: set) -> list:
    """Equations linear in exactly one P-coefficient solve that coefficient."""
    forced = []
    seen = set()
    for eq in equations:
        present = eq.params() & p_names
        if len(present) != 1:
            continue
        (name,) = present
        if eq.degree(name) != 1:
            continue
        lead, rest = eq.split_linear(name)
        value = ParamScalar(-rest, lead)
        if name not in seen:
            seen.add(name)
            forced.append((name, value))
    return forced


def verify_candidate(w: WeightVector, theta: XPoly, v: XRat) -> ConditionReport:
    """Exact check that (theta, v) satisfies the condition with weights w."""
    if not isinstance(v, XRat):
        v = XRat.from_poly(v)
    return verify_condition(DiffOp.schrodinger(v), theta, w)


def fit_p(theta: XPoly, v: XRat, deg_bound: int):
    """All P with V = (P/Theta')' and deg P <= deg_bound.

    V = (P/Theta')' is linear in P:  V*Theta'^2 - P'*Theta' + P*Theta'' = 0.
    Returns (basis of the affine solution set as XPoly values, assumptions);
    the homogeneous direction Theta' (constants of integration) is included.
    """
    dtheta = theta.derivative()
    if dtheta.is_zero():
        raise ExactError("theta' vanishes: theta must be non-constant")
    if not isinstance(v, XRat):
        v = XRat.from_poly(v)
    rhs = (v * XRat.from_poly(dtheta * dtheta)).reduced()
    columns = []
    for i in range(deg_bound + 1):
        mono = XPoly.monomial(i)
        columns.append(XRat.from_poly(
            mono.derivative() * dtheta - mono * dtheta.derivative()))
    columns.append(-rhs)
    result = nullspace(_linear_rows([DiffOp.mul_by(c) for c in columns]))
    solutions = []
    homogeneous = []
    for vec in result.basis:
        last = vec[-1]
        if last.is_zero():
            homogeneous.append(XPoly({i: c for i, c in enumerate(vec[:-1]) if not c.is_zero()}))
        else:
            inv = last.invert()
            solutions.append(XPoly({i: c * inv for i, c in enumerate(vec[:-1])
                                    if not c.is_zero()}))
    return solutions, homogeneous, result.assumptions
