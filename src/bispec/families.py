"""Built-in exact catalog: every concrete operator family shipped with the
package, ready for verification.

Scalar entries cover the exceptional Hermite operators (log-derivative
potentials over Hermite tau polynomials), the Darboux chain built on the
classical Laguerre-type operator with symbolic parameter k, and the complete
solution lists of the four low-order ad-conditions.  Matrix entries cover
2x2 Hermite- and Laguerre-type operators with constant-matrix weights.

Where a source display disagrees with the exact computation, the catalog
keeps the display verbatim in a flagged entry (``expect_holds=False``) and
adds a corrected companion whose provenance explains the fix; nothing is
repaired silently.  Corrections shipped here, each reproducible with the
CLI:

* two-step chain: the printed A_1 weight -34 admits no eigenvalue
  polynomial; the product-formula value -36 does.
* three-step chain: the printed tau constant term "12k^4 - 32k^2 - k" admits
  no eigenvalue polynomial; the Wronskian of the first three seed
  eigenfunctions gives "-k^6 + 12k^4 - 32k^2", which verifies.
* cubic-solution list, 8th entry: the constant must be -(2/27) a2^3/a3^2
  (the order-0 weight makes additive constants in Theta meaningful).
* cubic-solution list, 9th/10th entries: the eigenvalue polynomial is
  x^3 +- (3/2) sqrt6 x^2 + 3x (the printed leading term dropped a sqrt2).
* matrix Laguerre pair: the printed factor 4a^2 holds only for a^2 = 1; the
  exact factor is 4.  The second matrix example needs Theta = (x-b) I.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from . import modp
from .exact import PS_ONE, ParamScalar, Rat, ExactError
from .diffop import DiffOp, QuasiRat, XPoly, XRat, _coerce_ps
from .adcond import (
    ConditionReport,
    WeightVector,
    as_operator,
    hermite_new_weights,
    reach_weights,
    verify_condition,
)
from .matrixop import (
    MatCondition,
    MatDiffOp,
    convention_probe,
    matrix_condition_witness,
    verify_matrix_condition,
)


class CatalogEntry(namedtuple("CatalogEntry", "id kind operator theta condition provenance "
                               "parameters tau expect_holds notes",
                               defaults=((), None, True, ""))):
    """One verifiable claim: an operator, an eigenvalue function, a weight
    vector (or matrix condition), and where the data comes from.

    ``kind`` is "scalar" or "matrix"; ``operator`` a DiffOp or MatDiffOp;
    ``theta`` an XPoly, or None when the matrix theta lives in the condition;
    ``condition`` a WeightVector or MatCondition; ``tau`` an XPoly or None.
    """

    __slots__ = ()


_K = ParamScalar.var("k")
_K2 = _K * _K
_K4 = _K2 * _K2
_K6 = _K4 * _K2


# ---------------------------------------------------------------------------
# Hermite side
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def hermite_poly(k: int) -> XPoly:
    """Physicists' Hermite polynomial H_k."""
    if k < 0:
        raise ExactError("Hermite index must be >= 0")
    if k == 0:
        return XPoly.one()
    prev, cur = XPoly.one(), XPoly.monomial(1, 2)
    for n in range(1, k):
        prev, cur = cur, XPoly.monomial(1, 2) * cur - prev.scale(2 * n)
    return cur


def log_second_derivative(tau: XPoly) -> XRat:
    """(log tau)'' as an exact rational function."""
    return XRat.from_ratio(tau.derivative(), tau).derivative()


def exceptional_hermite(k: int):
    """Operator and eigenvalue polynomial of the k-th exceptional Hermite
    family: L = -D^2 + x^2 - 2 (log H_k)'', Theta = H_{k+1}."""
    tau = hermite_poly(k)
    v = XRat.from_poly(XPoly.monomial(2))
    if tau.degree() > 0:
        v = (v - log_second_derivative(tau) * 2).reduced()
    return DiffOp.schrodinger(v), hermite_poly(k + 1)


def _hermite_entry(k: int) -> CatalogEntry:
    op, theta = exceptional_hermite(k)
    return CatalogEntry(
        id=f"hermite-exc:k={k}",
        kind="scalar",
        operator=op,
        theta=theta,
        condition=hermite_new_weights(k),
        provenance=f"exceptional Hermite family, index {k}: lowered condition on the "
                   f"length-{2 * (k + 1) + 1} recursion",
        tau=hermite_poly(k),
    )


def _hermite_p22_entry() -> CatalogEntry:
    tau = XPoly({4: _coerce_ps(4), 0: _coerce_ps(3)})
    v = (XRat.from_poly(XPoly.monomial(2)) - log_second_derivative(tau) * 2).reduced()
    theta = XPoly({5: _coerce_ps(4), 1: _coerce_ps(15)})
    return CatalogEntry(
        id="hermite-exc:p22",
        kind="scalar",
        operator=DiffOp.schrodinger(v),
        theta=theta,
        condition=hermite_new_weights(4),
        provenance="two-step exceptional Hermite family for the degree partition (2,2), "
                   "gaps at degrees 4 and 5, eleven-term recursion",
        tau=tau,
    )


# ---------------------------------------------------------------------------
# Laguerre chain (symbolic parameter k)
# ---------------------------------------------------------------------------


_SIXTEENTH = _coerce_ps(Rat(1, 16))


def laguerre_phi(n: int) -> QuasiRat:
    """Seed eigenfunction phi_n = x^(m+1/2) L_n^m(-x^2/4) exp(x^2/8) of the
    classical operator, at the substitution m = -(k^2+4)/4."""
    if n < 0:
        raise ExactError("seed index must be >= 0")
    m = _coerce_ps(Rat(-1, 4)) * (_K2 + 4)
    y = XPoly.monomial(2, Rat(-1, 4))
    prev, cur = XPoly.one(), XPoly.const(1 + m) - y
    for j in range(1, n):
        prev, cur = cur, ((XPoly.const(2 * j + 1 + m) - y) * cur
                          - prev.scale(j + m)).scale(Rat(1, j + 1))
    poly = cur if n else XPoly.one()
    mu = m + Rat(1, 2)
    factors = [(XPoly.x(), mu)]
    if poly.degree() > 0:
        factors.append((poly, PS_ONE))
    return QuasiRat(tuple(factors), exp_part=XPoly.monomial(2, Rat(1, 8)))


def _inv_square(c, base: XPoly) -> XRat:
    """c / base^2 with the square kept as the factor (base, 2)."""
    return XRat(XPoly.const(_coerce_ps(c)), ((base, 2),))


def _step0_v() -> XRat:
    return (XRat.from_poly(XPoly.monomial(2, _SIXTEENTH))
            + XRat.from_ratio(XPoly.const((_K4 + 8 * _K2 + 12) * _SIXTEENTH),
                              XPoly.monomial(2)))


def _step1_v() -> XRat:
    xp = XPoly.from_list([_K, 1])
    xm = XPoly.from_list([-_K, 1])
    return (_inv_square(2, xp) + _inv_square(2, xm)
            + XRat.from_poly(XPoly({2: _SIXTEENTH, 0: (8 - 2 * _K2) * _SIXTEENTH}))
            + XRat.from_ratio(XPoly.const((_K4 - 4) * _SIXTEENTH), XPoly.monomial(2)))


def _step2_v() -> XRat:
    qp = XPoly({2: PS_ONE, 0: -_K2 + 2 * _K})
    qm = XPoly({2: PS_ONE, 0: -_K2 - 2 * _K})
    return (XRat.from_ratio(XPoly.const(4), qp)
            + _inv_square(8 * _K2 - 16 * _K, qp)
            + XRat.from_ratio(XPoly.const(4), qm)
            + _inv_square(8 * _K2 + 16 * _K, qm)
            + XRat.from_poly(XPoly({2: _SIXTEENTH, 0: (16 - 2 * _K2) * _SIXTEENTH}))
            + XRat.from_ratio(XPoly.const((_K4 - 8 * _K2 + 12) * _SIXTEENTH),
                              XPoly.monomial(2)))


def step3_tau(constant) -> XPoly:
    """The sextic under the log of the three-step potential, with a chosen
    constant term."""
    return XPoly({6: PS_ONE, 4: -3 * _K2, 2: 3 * _K4 - 12 * _K2, 0: _coerce_ps(constant)})


STEP3_CONSTANT_PRINTED = 12 * _K4 - 32 * _K2 - _K
STEP3_CONSTANT_WRONSKIAN = -_K6 + 12 * _K4 - 32 * _K2


def _step3_v(constant) -> XRat:
    tau = step3_tau(constant)
    return (XRat.from_poly(XPoly({2: _SIXTEENTH, 0: (24 - 2 * _K2) * _SIXTEENTH}))
            + XRat.from_ratio(XPoly.const((_K4 - 16 * _K2 + 60) * _SIXTEENTH),
                              XPoly.monomial(2))
            - log_second_derivative(tau) * 2)


# eigenvalue polynomials of the chain, found by solve_theta and frozen;
# each satisfies theta' proportional to x times the tau polynomial
_THETA0 = XPoly.monomial(2)
_THETA1 = XPoly({4: PS_ONE, 2: -2 * _K2})
_THETA2 = XPoly({6: PS_ONE, 4: -3 * _K2, 2: 3 * _K4 - 12 * _K2})
_THETA3 = XPoly({8: PS_ONE, 6: -4 * _K2, 4: 6 * _K4 - 24 * _K2,
                 2: -4 * _K6 + 48 * _K4 - 128 * _K2})

STEP2_WEIGHTS_PRINTED = WeightVector({7: 1, 5: -14, 3: 49, 1: -34})


def laguerre_catalog(step: int) -> CatalogEntry:
    """Entries of the Darboux chain on the classical Laguerre-type operator."""
    if step == 0:
        return CatalogEntry(
            id="laguerre-step:0", kind="scalar",
            operator=DiffOp.schrodinger(_step0_v()),
            theta=_THETA0,
            condition=reach_weights(1, 1),
            provenance="classical Laguerre-type operator at m = -(k^2+4)/4; "
                       "three-term recursion, eigenvalue polynomial found by solve_theta",
            parameters=("k",), tau=XPoly.one(),
        )
    if step == 1:
        return CatalogEntry(
            id="laguerre-step:1", kind="scalar",
            operator=DiffOp.schrodinger(_step1_v()),
            theta=_THETA1,
            condition=reach_weights(2, 1),
            provenance="one Darboux step from the classical Laguerre-type operator, "
                       "seed phi_1; displayed weights 1, -5, 4",
            parameters=("k",), tau=XPoly({2: PS_ONE, 0: -_K2}),
        )
    if step == 2:
        return CatalogEntry(
            id="laguerre-step:2", kind="scalar",
            operator=DiffOp.schrodinger(_step2_v()),
            theta=_THETA2,
            condition=STEP2_WEIGHTS_PRINTED,
            provenance="two Darboux steps; weights as printed with A_1 coefficient -34",
            parameters=("k",),
            tau=XPoly({4: PS_ONE, 2: -2 * _K2, 0: _K4 - 4 * _K2}),
            expect_holds=False,
            notes="printed A_1 weight -34 fails; the product formula gives -36 "
                  "(see laguerre-step:2-product)",
        )
    if step == 3:
        return CatalogEntry(
            id="laguerre-step:3", kind="scalar",
            operator=DiffOp.schrodinger(_step3_v(STEP3_CONSTANT_PRINTED)),
            theta=_THETA3,
            condition=reach_weights(4, 1),
            provenance="three Darboux steps; tau constant term as printed, "
                       "'12k^4 - 32k^2 - k'",
            parameters=("k",), tau=step3_tau(STEP3_CONSTANT_PRINTED),
            expect_holds=False,
            notes="the printed constant term admits no eigenvalue polynomial of "
                  "degree <= 8; the seed Wronskian gives -k^6 + 12k^4 - 32k^2 "
                  "(see laguerre-step:3-wronskian)",
        )
    raise ExactError("chain step must be 0, 1, 2 or 3")


def _laguerre_step2_product_entry() -> CatalogEntry:
    base = laguerre_catalog(2)
    return CatalogEntry(
        id="laguerre-step:2-product", kind="scalar",
        operator=base.operator, theta=base.theta,
        condition=reach_weights(3, 1),
        provenance="two Darboux steps; weights from the ladder product formula "
                   "(A_1 coefficient -36)",
        parameters=("k",), tau=base.tau,
    )


def _laguerre_step3_wronskian_entry() -> CatalogEntry:
    return CatalogEntry(
        id="laguerre-step:3-wronskian", kind="scalar",
        operator=DiffOp.schrodinger(_step3_v(STEP3_CONSTANT_WRONSKIAN)),
        theta=_THETA3,
        condition=reach_weights(4, 1),
        provenance="three Darboux steps; tau from the Wronskian of the first three "
                   "seed eigenfunctions, constant term -k^6 + 12k^4 - 32k^2",
        parameters=("k",), tau=step3_tau(STEP3_CONSTANT_WRONSKIAN),
    )


# ---------------------------------------------------------------------------
# solution lists of the four low-order conditions
# ---------------------------------------------------------------------------


_EQ_WEIGHTS = {
    "A2-4A0": WeightVector({2: 1, 0: -4}),
    "A3-16A1": WeightVector({3: 1, 1: -16}),
    "A5-5A3+4A1": WeightVector({5: 1, 3: -5, 1: 4}),
    "A4-40A2+144A0": WeightVector({4: 1, 2: -40, 0: 144}),
}


def _pole(shift) -> XPoly:
    """x + shift as a monic linear polynomial."""
    return XPoly.from_list([_coerce_ps(shift), 1])


@lru_cache(maxsize=None)
def _ansatz_solutions(equation: str) -> list:
    c = ParamScalar.var("c")
    e = ParamScalar.var("e")
    x = XPoly.x()
    if equation == "A2-4A0":
        c1 = ParamScalar.var("c1")
        return [
            (x, XRat.from_poly(XPoly({2: PS_ONE, 0: c1})), ("c1",),
             "general solution", ""),
            (x, XRat.from_poly(XPoly.monomial(2)), (),
             "special case: the harmonic oscillator", ""),
        ]
    if equation == "A3-16A1":
        a1, a2 = ParamScalar.var("a1"), ParamScalar.var("a2")
        c0, c1, c2 = (ParamScalar.var(n) for n in ("c0", "c1", "c2"))
        # the pole (2*a2*x + a1)^2 * 4*a2^2 = 16*a2^4 * (x + a1/(2*a2))^2
        v = (XRat.from_poly(
                XPoly({2: 4 * a2 * a2, 1: 4 * a1 * a2, 0: 2 * a2 * c2 - a1 * a1})
                .scale((4 * a2 * a2).invert()))
             - _inv_square((2 * a1 * a1 * a2 * c2 + 8 * c0 * a2 ** 3
                            - 4 * a1 * c1 * a2 * a2 - a1 ** 4) * (16 * a2 ** 4).invert(),
                           _pole(a1 * (2 * a2).invert())))
        special = (XRat.from_poly(XPoly.monomial(2))
                   + XRat.from_ratio(XPoly.const(2), XPoly.monomial(2)))
        return [
            (XPoly({2: a2, 1: a1}), v, ("a1", "a2", "c0", "c1", "c2"),
             "general solution (a2 nonzero)", ""),
            (XPoly({2: a2}), special, ("a2",),
             "special case: harmonic oscillator after one Darboux step", ""),
        ]
    if equation == "A5-5A3+4A1":
        a, b = ParamScalar.var("a"), ParamScalar.var("b")
        c1, p1 = ParamScalar.var("c1"), ParamScalar.var("p1")
        t, u, a4, c4 = (ParamScalar.var(n) for n in ("t", "u", "a4", "c4"))
        sols = [
            (x, XRat.from_poly(XPoly({2: PS_ONE, 1: c})), ("c",), "first solution", ""),
            (x, XRat.from_poly(XPoly({2: _coerce_ps(Rat(1, 4)), 1: c})), ("c",),
             "second solution", ""),
            (XPoly({2: PS_ONE, 1: c}), XRat.from_poly(XPoly({2: _coerce_ps(Rat(1, 4)), 1: e})),
             ("c", "e"), "third solution", ""),
        ]
        den4 = XPoly.from_list([c1, 2])
        sols.append((
            XPoly({2: PS_ONE, 1: c1}),
            _inv_square(4 * p1, den4)
            + XRat.from_poly(XPoly({2: _SIXTEENTH, 1: c1 * _SIXTEENTH})),
            ("c1", "p1"), "fourth solution", ""))
        # fifth: Theta = x(2x+a)(4x^2+2ax+4b-a^2)/8
        th5 = (XPoly.x() * XPoly.from_list([a, 2])
               * XPoly({2: _coerce_ps(4), 1: 2 * a, 0: 4 * b - a * a})).scale(Rat(1, 8))
        sols.append((th5, XRat.from_poly(XPoly({2: _SIXTEENTH, 1: a * _coerce_ps(Rat(1, 32))})),
                     ("a", "b"), "fifth solution", ""))
        e1 = ParamScalar.var("e1")
        th6 = (XPoly.x() * XPoly.from_list([2 * e1, 1])
               * XPoly({2: PS_ONE, 1: 2 * e1, 0: b - 4 * e1 * e1}))
        sols.append((
            th6,
            _inv_square(p1, _pole(e1))
            + XRat.from_poly(XPoly({2: _SIXTEENTH, 1: 2 * e1 * _SIXTEENTH})),
            ("e1", "b", "p1"), "sixth solution", ""))
        # most interesting solution, reparameterized so the square root of
        # 3 a3^2 - 8 a2 a4 lies in the field: a3 = 4 a4 t, a2 = 2 a4 (3t^2-u^2)
        u2 = u * u
        v7 = (_inv_square(2, _pole(t + u)) + _inv_square(2, _pole(t - u))
              + _inv_square((u2 * u2 - 4) * _SIXTEENTH, _pole(t))
              + XRat.from_poly(XPoly({2: _SIXTEENTH, 1: t * Rat(1, 8),
                                      0: -t * t * Rat(1, 4) + u2 * Rat(1, 48)
                                         + c4 / (4 * a4)})))
        th7 = XPoly({4: a4, 3: 4 * a4 * t, 2: 2 * a4 * (3 * t * t - u2),
                     1: 4 * a4 * t * (t * t - u2)})
        sols.append((th7, v7, ("t", "u", "a4", "c4"),
                     "most interesting solution; poles reparameterized by their "
                     "centers t +- u and t",
                     "printed in terms of a2, a3, a4 with a square root; here "
                     "a3 = 4 a4 t and a2 = 2 a4 (3t^2 - u^2)"))
        return sols
    if equation == "A4-40A2+144A0":
        a1, a2, a3 = (ParamScalar.var(n) for n in ("a1", "a2", "a3"))
        c3 = ParamScalar.var("c3")
        s2, s3, imag = (ParamScalar.var(n) for n in ("sqrt2", "sqrt3", "i"))
        half = _coerce_ps(Rat(1, 2))
        sols = [
            (x, XRat.from_poly(XPoly({2: _coerce_ps(9), 0: c})), ("c",), "first solution", ""),
            (x, XRat.from_poly(XPoly({2: PS_ONE, 0: c})), ("c",), "second solution", ""),
            (XPoly.monomial(3), XRat.from_poly(XPoly({2: PS_ONE, 0: c})), ("c",),
             "third solution", ""),
            (XPoly.monomial(3),
             XRat.from_poly(XPoly({2: PS_ONE, 0: c}))
             + XRat.from_ratio(XPoly.const(2), XPoly.monomial(2)),
             ("c",), "fourth solution", ""),
            (XPoly({3: PS_ONE, 1: a1}),
             XRat.from_poly(XPoly({2: PS_ONE, 0: (3 * c3 - a1) * _coerce_ps(Rat(1, 9))})),
             ("a1", "c3"), "fifth solution", ""),
        ]
        r6 = imag * s2 * half
        sols.append((
            XPoly({3: PS_ONE, 1: _coerce_ps(Rat(3, 2))}),
            _inv_square(2, _pole(-r6)) + _inv_square(2, _pole(r6))
            + XRat.from_poly(XPoly({2: PS_ONE, 0: c})),
            ("c",), "sixth solution (poles at +-i/sqrt2)", ""))
        r7 = s2 * half
        sols.append((
            XPoly({3: PS_ONE, 1: _coerce_ps(Rat(-3, 2))}),
            _inv_square(2, _pole(-r7)) + _inv_square(2, _pole(r7))
            + XRat.from_poly(XPoly({2: PS_ONE, 0: c})),
            ("c",), "seventh solution (poles at +-1/sqrt2); the two-step Darboux "
                    "potential of the Hermite-type example", ""))
        sols.append((
            XPoly({3: a3, 2: a2, 0: -_coerce_ps(Rat(2, 27)) * a2 ** 3 / (a3 * a3)}),
            XRat.from_poly(XPoly({2: PS_ONE, 1: _coerce_ps(Rat(2, 3)) * a2 / a3})),
            ("a2", "a3"), "eighth solution",
            "constant corrected from the printed (2/9) a2^2/a3 to -(2/27) a2^3/a3^2; "
            "the order-0 weight makes the constant meaningful and the exact residual "
            "144 c + (32/3) a2^3/a3^2 = 0 forces it"))
        p9a = (s2 + s2 * s3) * half      # (sqrt3+3)/sqrt6
        p9b = (s2 - s2 * s3) * half      # (sqrt3-3)/sqrt6
        sols.append((
            XPoly({3: PS_ONE, 2: _coerce_ps(Rat(3, 2)) * s2 * s3, 1: _coerce_ps(3)}),
            _inv_square(2, _pole(p9a)) + _inv_square(2, _pole(-p9b))
            + XRat.from_poly(XPoly({2: PS_ONE, 1: s2 * s3,
                                    0: (c3 - 10 * a3) / (3 * a3)})),
            ("a3", "c3"), "ninth solution; the seventh shifted by sqrt(3/2)",
            "eigenvalue polynomial corrected: the printed x^3 + 3^(3/2) x^2 + "
            "2^(1/2) 3 x is off by a sqrt2 on the leading term; the exact solution "
            "space is spanned by x^3 + (3/2) sqrt6 x^2 + 3 x"))
        r10a = (imag * s2 - s2 * s3) * half   # (sqrt3 i - 3)/sqrt6
        r10b = (imag * s2 + s2 * s3) * half   # (sqrt3 i + 3)/sqrt6
        num10 = (_pole(r10a) * _pole(-r10b)).scale(
            _coerce_ps(4) * s2 * _coerce_ps(177147) * s3 * a3)  # 2^(5/2) 3^(23/2) a3
        d10a = _pole(-(s2 * s3 - s2) * half)
        d10b = _pole(-(s2 * s3 + s2) * half)
        den10 = (d10a * d10a * d10b * d10b).scale(s2 * _coerce_ps(177147) * s3 * a3)
        sols.append((
            XPoly({3: PS_ONE, 2: -_coerce_ps(Rat(3, 2)) * s2 * s3, 1: _coerce_ps(3)}),
            XRat.from_poly(num10) / XRat.from_poly(den10)
            + XRat.from_poly(XPoly({2: PS_ONE, 1: -s2 * s3,
                                    0: (c3 - 10 * a3) / (3 * a3)})),
            ("a3", "c3"), "extra solution; ratio-form potential",
            "eigenvalue polynomial corrected as in the ninth solution"))
        return sols
    raise ExactError(f"unknown equation id {equation!r}")


def ansatz_equations() -> list:
    return list(_EQ_WEIGHTS)


def ansatz_solution_count(equation: str) -> int:
    return len(_ansatz_solutions(equation))


def ansatz_solution_catalog(equation: str, index: int):
    """(Theta, V) of the index-th displayed solution (1-based)."""
    sols = _ansatz_solutions(equation)
    if not 1 <= index <= len(sols):
        raise ExactError(f"no solution {index} for {equation} (1..{len(sols)})")
    theta, v, _, _, _ = sols[index - 1]
    return theta, v


def _ansatz_entry(equation: str, index: int) -> CatalogEntry:
    theta, v, params, desc, notes = _ansatz_solutions(equation)[index - 1]
    return CatalogEntry(
        id=f"ansatz:{equation}:{index}", kind="scalar",
        operator=DiffOp.schrodinger(v), theta=theta,
        condition=_EQ_WEIGHTS[equation],
        provenance=f"solution list for {equation}: {desc}",
        parameters=params, notes=notes,
    )


# ---------------------------------------------------------------------------
# matrix examples (2x2)
# ---------------------------------------------------------------------------


_A = ParamScalar.var("a")
_B = ParamScalar.var("b")
_R1 = ParamScalar.var("r1")
_R2 = ParamScalar.var("r2")

MATRIX_ACTION_SIDE = "left"
# Selected by convention_probe on the Hermite example: under the left action
# A_2 - 4 A_0 is a nonzero operator annihilated exactly by the top-row factor
# family (two independent conditions); under the right action A_2 - 4 A_0
# vanishes identically and the factors carry no information.


def _mat_hermite_op(side=MATRIX_ACTION_SIDE) -> MatDiffOp:
    bmat = [[XPoly.monomial(1, -2), XPoly.const(2 * _A)], [0, XPoly.monomial(1, -2)]]
    return MatDiffOp.from_matrices(
        {2: [[1, 0], [0, 1]], 1: bmat, 0: [[-2, 0], [0, 0]]}, action_side=side)


def _mat_laguerre1_op(side=MATRIX_ACTION_SIDE) -> MatDiffOp:
    bmat = [[XPoly.monomial(1, -2), XPoly.monomial(1, 4 * _A)], [0, XPoly.monomial(1, -2)]]
    return MatDiffOp.from_matrices(
        {2: [[1, 0], [0, 1]], 1: bmat, 0: [[-4, 2 * _A], [0, 0]]}, action_side=side)


def _mat_laguerre2_op(side=MATRIX_ACTION_SIDE) -> MatDiffOp:
    bmat = [[XPoly.from_list([2 * _B, -2]), XPoly.from_list([2 * _A, -2 * _A * _B])],
            [0, XPoly.monomial(1, -2)]]
    return MatDiffOp.from_matrices(
        {2: [[1, 0], [0, 1]], 1: bmat, 0: [[-2, 0], [0, 0]]}, action_side=side)


def _theta_xi(side=MATRIX_ACTION_SIDE) -> MatDiffOp:
    return MatDiffOp.scalar_times_identity(XRat.from_poly(XPoly.x()), 2, action_side=side)


def _matrix_entries() -> list:
    theta = _theta_xi()
    m_family = [[_R1, _R2], [0, 0]]
    m_family4 = [[-4 * _R1, -4 * _R2], [0, 0]]
    entries = [CatalogEntry(
        id="matrix:hermite:1", kind="matrix",
        operator=_mat_hermite_op(), theta=None,
        condition=MatCondition(terms=[(2, m_family), (0, m_family4)], theta=theta),
        provenance="2x2 Hermite-type operator; pair of independent conditions "
                   "A_2 M = 4 A_0 M for the top-row factor family",
        parameters=("a", "r1", "r2"),
    )]
    e12, e11 = [[0, 1], [0, 0]], [[1, 0], [0, 0]]
    for name, mat in (("1a", e12), ("1b", e11)):
        entries.append(CatalogEntry(
            id=f"matrix:laguerre:{name}", kind="matrix",
            operator=_mat_laguerre1_op(), theta=None,
            condition=MatCondition(
                terms=[(3, mat), (0, [[0, 0], [0, 0]]), (1, [[-4 * v for v in row] for row in mat])],
                theta=theta),
            provenance=f"2x2 Laguerre-type operator, first example: A_3 E - 4 A_1 E "
                       f"for E = {'E12' if name == '1a' else 'E11'}",
            parameters=("a",),
            notes="factor corrected from the printed 4a^2 to 4; the printed factor "
                  "holds only at a^2 = 1 (see matrix:laguerre:1a-printed)",
        ))
    entries.append(CatalogEntry(
        id="matrix:laguerre:1a-printed", kind="matrix",
        operator=_mat_laguerre1_op(), theta=None,
        condition=MatCondition(
            terms=[(3, e12), (1, [[0, -4 * _A * _A], [0, 0]])], theta=theta),
        provenance="first matrix Laguerre example with the factor 4a^2 as printed",
        parameters=("a",), expect_holds=False,
        notes="fails for generic a: the exact factor family forces 4",
    ))
    theta_shift = MatDiffOp.scalar_times_identity(
        XRat.from_poly(XPoly.from_list([-_B, 1])), 2, action_side=MATRIX_ACTION_SIDE)
    entries.append(CatalogEntry(
        id="matrix:laguerre:2", kind="matrix",
        operator=_mat_laguerre2_op(), theta=None,
        condition=MatCondition(terms=[(2, m_family), (0, m_family4)], theta=theta_shift),
        provenance="2x2 Laguerre-type operator, second example: A_2 M = 4 A_0 M for "
                   "the top-row family, eigenvalue function (x - b) I",
        parameters=("a", "b", "r1", "r2"),
        notes="the order-0 weight fixes the additive constant: theta = (x-b) I, "
              "not x I as printed",
    ))
    return entries


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------


@lru_cache(maxsize=1)
def _catalog() -> dict:
    entries = []
    for k in range(5):
        entries.append(_hermite_entry(k))
    entries.append(_hermite_p22_entry())
    for step in range(4):
        entries.append(laguerre_catalog(step))
    entries.append(_laguerre_step2_product_entry())
    entries.append(_laguerre_step3_wronskian_entry())
    for equation in _EQ_WEIGHTS:
        for index in range(1, len(_ansatz_solutions(equation)) + 1):
            entries.append(_ansatz_entry(equation, index))
    entries.extend(_matrix_entries())
    return {entry.id: entry for entry in entries}


def catalog_ids() -> list:
    return sorted(_catalog())


def get_entry(entry_id: str) -> CatalogEntry:
    try:
        return _catalog()[entry_id]
    except KeyError:
        raise ExactError(f"unknown catalog id {entry_id!r}") from None


def verify_entry(entry: CatalogEntry):
    """Run the entry's own condition; returns an ``adcond.ConditionReport``
    for scalar and matrix entries alike.

    The residual is first evaluated at one point of GF(p) (``modp``): a
    nonzero image proves that the condition fails, and the report then has
    ``decided_by == "mod-p"``, the witness and no residual.  Otherwise the
    symbolic check decides, and it alone may say that the condition holds.
    """
    if entry.kind == "scalar":
        witness = modp.condition_witness(entry.operator, as_operator(entry.theta),
                                         entry.condition)
    else:
        witness = matrix_condition_witness(entry.operator, entry.condition)
    if witness is not None:
        return ConditionReport(False, None, decided_by="mod-p", witness=witness)
    if entry.kind == "scalar":
        return verify_condition(entry.operator, entry.theta, entry.condition)
    return verify_matrix_condition(entry.operator, entry.condition)


def probe_entry(entry: CatalogEntry) -> dict:
    if entry.kind != "matrix":
        raise ExactError("convention probe applies to matrix entries")
    return convention_probe(entry.operator, entry.condition)
