"""Scalar differential operators with exact rational-function coefficients.

Operators are kept in right normal form ``sum_r c_r(x) * D**r`` with every
``c_r`` an :class:`XRat`.  Denominators of rational functions are stored as
monic factor lists ``prod b_i(x)**e_i`` so repeated differentiation grows the
exponents linearly instead of squaring blindly; parameter-free values are
fully reduced by univariate gcd, parametric values only by trial division
against their own denominator factors.
"""

from __future__ import annotations

import math
import os
from collections import defaultdict

from .exact import (
    MPoly,
    PS_ONE,
    PS_ZERO,
    ParamScalar,
    Rat,
    RAT_ZERO,
    ExactError,
    render_scalar,
)

_env_bound = os.environ.get("BISPEC_MAX_DEGREE")
MAX_DEGREE = int(_env_bound) if _env_bound else None


def _coerce_ps(value) -> ParamScalar:
    if isinstance(value, ParamScalar):
        return value
    if isinstance(value, (int, Rat)):
        return ParamScalar.const(value)
    if isinstance(value, MPoly):
        return ParamScalar.from_poly(value)
    raise TypeError(f"cannot use {value!r} as a scalar coefficient")


class XPoly:
    """Polynomial in the distinguished variable x with ParamScalar coefficients."""

    __slots__ = ("coeffs", "_pfree")

    def __init__(self, coeffs: dict | None = None):
        self.coeffs = coeffs if coeffs is not None else {}
        self._pfree = None

    @classmethod
    def zero(cls):
        return _XP_ZERO

    @classmethod
    def one(cls):
        return _XP_ONE

    @classmethod
    def x(cls):
        return _XP_X

    @classmethod
    def const(cls, value) -> "XPoly":
        c = _coerce_ps(value)
        return cls({0: c}) if not c.is_zero() else cls({})

    @classmethod
    def monomial(cls, deg: int, coeff=1) -> "XPoly":
        c = _coerce_ps(coeff)
        return cls({deg: c}) if not c.is_zero() else cls({})

    @classmethod
    def from_list(cls, ascending) -> "XPoly":
        out = {}
        for deg, c in enumerate(ascending):
            c = _coerce_ps(c)
            if not c.is_zero():
                out[deg] = c
        return cls(out)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def lead_coeff(self) -> ParamScalar:
        return self.coeffs[max(self.coeffs)]

    def coeff(self, deg: int) -> ParamScalar:
        return self.coeffs.get(deg, PS_ZERO)

    def is_parameter_free(self) -> bool:
        if self._pfree is None:
            self._pfree = all(c.is_constant() for c in self.coeffs.values())
        return self._pfree

    def _dense(self) -> list:
        """Ascending Rat coefficient list (parameter-free polynomials only)."""
        out = [RAT_ZERO] * (self.degree() + 1)
        for d, c in self.coeffs.items():
            out[d] = c.const_value()
        return out

    @staticmethod
    def _from_dense(dense) -> "XPoly":
        return XPoly({d: ParamScalar.const(v) for d, v in enumerate(dense) if v})

    def is_constant(self) -> bool:
        return not self.coeffs or self.coeffs.keys() == {0}

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        if self.coeffs.keys() != other.coeffs.keys():
            return False
        return all(self.coeffs[d] == other.coeffs[d] for d in self.coeffs)

    __hash__ = None

    def __neg__(self):
        return XPoly({d: -c for d, c in self.coeffs.items()})

    def __add__(self, other):
        if not isinstance(other, XPoly):
            other = XPoly.const(other)
        if not self.coeffs:
            return other
        if not other.coeffs:
            return self
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            acc = out.get(d)
            if acc is None:
                out[d] = c
            else:
                acc = acc + c
                if acc.is_zero():
                    del out[d]
                else:
                    out[d] = acc
        return XPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if not isinstance(other, XPoly):
            other = XPoly.const(other)
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def scale(self, c) -> "XPoly":
        c = _coerce_ps(c)
        if c.is_zero():
            return _XP_ZERO
        if c.is_one():
            return self
        return XPoly({d: v * c for d, v in self.coeffs.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Rat, ParamScalar, MPoly)):
            return self.scale(other)
        if not isinstance(other, XPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return _XP_ZERO
        if MAX_DEGREE is not None and self.degree() + other.degree() > MAX_DEGREE:
            raise ExactError(
                f"x-degree {self.degree() + other.degree()} exceeds BISPEC_MAX_DEGREE={MAX_DEGREE}")
        if self.is_parameter_free() and other.is_parameter_free():
            a, b = self._dense(), other._dense()
            dense = [RAT_ZERO] * (len(a) + len(b) - 1)
            for da, ca in enumerate(a):
                if ca:
                    for db, cb in enumerate(b):
                        if cb:
                            dense[da + db] += ca * cb
            return XPoly._from_dense(dense)
        out: dict = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                v = c1 * c2
                acc = out.get(d)
                if acc is None:
                    out[d] = v
                else:
                    acc = acc + v
                    if acc.is_zero():
                        del out[d]
                    else:
                        out[d] = acc
        return XPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ExactError("negative power of a polynomial")
        result = _XP_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            if n > 1:
                base = base * base
            n >>= 1
        return result

    def derivative(self) -> "XPoly":
        return XPoly({d - 1: c * d for d, c in self.coeffs.items() if d})

    def monic(self) -> tuple:
        """(leading coefficient, self/leading)."""
        lead = self.lead_coeff()
        if lead.is_one():
            return lead, self
        inv = lead.invert()
        return lead, XPoly({d: c * inv for d, c in self.coeffs.items()})

    def divmod(self, other: "XPoly") -> tuple:
        """Quotient and remainder over the coefficient field."""
        if other.is_zero():
            raise ExactError("division by the zero polynomial")
        dd = other.degree()
        if self.is_parameter_free() and other.is_parameter_free():
            rem = self._dense()
            div = other._dense()
            lead = div[-1]
            quo = [RAT_ZERO] * max(len(rem) - dd, 0)
            while len(rem) > dd:
                c = rem[-1]
                if c:
                    q = c / lead
                    quo[len(rem) - 1 - dd] = q
                    for idx in range(dd + 1):
                        rem[len(rem) - 1 - dd + idx] -= q * div[idx]
                rem.pop()
            while rem and not rem[-1]:
                rem.pop()
            return XPoly._from_dense(quo), XPoly._from_dense(rem)
        rem = dict(self.coeffs)
        quo: dict = {}
        inv = other.lead_coeff().invert()
        items = list(other.coeffs.items())
        while rem:
            dn = max(rem)
            if dn < dd:
                break
            q = rem[dn] * inv
            qd = dn - dd
            quo[qd] = q
            for d, c in items:
                key = d + qd
                acc = rem.get(key)
                v = q * c
                if acc is None:
                    rem[key] = -v
                else:
                    acc = acc - v
                    if acc.is_zero():
                        del rem[key]
                    else:
                        rem[key] = acc
        return XPoly(quo), XPoly(rem)

    def substitute(self, mapping: dict) -> "XPoly":
        out = {}
        for d, c in self.coeffs.items():
            c = c.substitute(mapping)
            if not c.is_zero():
                out[d] = c
        return XPoly(out)

    def __str__(self):
        return render_xpoly(self)

    def __repr__(self):
        return f"XPoly({self})"


_XP_ZERO = XPoly({})
_XP_ONE = XPoly({0: PS_ONE})
_XP_X = XPoly({1: PS_ONE})


def _int_list(p: XPoly) -> list:
    """Ascending integer coefficients of a parameter-free polynomial, up to scale."""
    deg = p.degree()
    qs = [p.coeffs[d].const_value() if d in p.coeffs else None for d in range(deg + 1)]
    lcm = 1
    for q in qs:
        if q is not None:
            d = int(q.denominator)
            lcm = lcm // math.gcd(lcm, d) * d
    return [0 if q is None else int(q * lcm) for q in qs]


def _primitive(c: list) -> list:
    g = 0
    for v in c:
        g = math.gcd(g, v)
        if g == 1:
            return c
    return [v // g for v in c] if g > 1 else c


def _pseudo_rem(a: list, b: list) -> list:
    """Pseudo-remainder of integer coefficient lists (ascending)."""
    a = list(a)
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db:
        if a[-1] == 0:
            a.pop()
            if not a:
                return []
            continue
        la = a[-1]
        shift = len(a) - 1 - db
        a = [v * lb for v in a]
        for idx in range(db + 1):
            a[shift + idx] -= la * b[idx]
        while a and a[-1] == 0:
            a.pop()
        if not a:
            return []
    return a


def xpoly_gcd_rational(a: XPoly, b: XPoly) -> XPoly:
    """Monic gcd of two parameter-free polynomials (primitive PRS over Z)."""
    if a.is_zero():
        return b if b.is_zero() else b.monic()[1]
    if b.is_zero():
        return a.monic()[1]
    ca = _primitive(_int_list(a))
    cb = _primitive(_int_list(b))
    if len(ca) < len(cb):
        ca, cb = cb, ca
    while cb:
        r = _primitive(_pseudo_rem(ca, cb))
        ca, cb = cb, r
    lead = Rat(ca[-1])
    return XPoly({d: ParamScalar.const(Rat(v) / lead) for d, v in enumerate(ca) if v})


class XRat:
    """Rational function num / prod(base_i ** e_i) in x.

    Bases are monic and of positive degree; parameter-free values are kept
    fully reduced (gcd-cancelled, monic denominator), parametric values are
    only reduced on request via :meth:`reduced`.
    """

    __slots__ = ("num", "factors", "_den", "_deriv")

    def __init__(self, num: XPoly, factors=(), _normalize=True):
        if _normalize:
            num, factors = _normalize_xrat(num, factors)
        self.num = num
        self.factors = factors
        self._den = None
        self._deriv = None

    # -- constructors ----------------------------------------------------

    @classmethod
    def from_poly(cls, p: XPoly) -> "XRat":
        return cls(p, ())

    @classmethod
    def const(cls, value) -> "XRat":
        return cls(XPoly.const(value), ())

    @classmethod
    def from_ratio(cls, num: XPoly, den: XPoly) -> "XRat":
        if den.is_zero():
            raise ExactError("division by zero polynomial")
        if den.is_constant():
            return cls(num.scale(den.coeff(0).invert()), ())
        lead, monic = den.monic()
        return cls(num.scale(lead.invert()), ((monic, 1),)).reduced()

    # -- structure ---------------------------------------------------------

    @property
    def den(self) -> XPoly:
        """The expanded denominator polynomial."""
        if self._den is None:
            den = _XP_ONE
            for base, exp in self.factors:
                den = den * base ** exp
            self._den = den
        return self._den

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_polynomial(self) -> bool:
        return not self.factors

    def as_xpoly(self) -> XPoly:
        if self.factors:
            raise ExactError(f"not a polynomial: {self}")
        return self.num

    def is_parameter_free(self) -> bool:
        return self.num.is_parameter_free() and all(
            b.is_parameter_free() for b, _ in self.factors)

    def is_constant(self) -> bool:
        return not self.factors and self.num.is_constant()

    def __bool__(self):
        return bool(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Rat, ParamScalar, XPoly)):
            other = XRat.from_poly(other if isinstance(other, XPoly) else XPoly.const(other))
        if not isinstance(other, XRat):
            return NotImplemented
        if _same_factors(self.factors, other.factors):
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    __hash__ = None

    # -- arithmetic ----------------------------------------------------

    def __neg__(self):
        out = XRat(-self.num, self.factors, _normalize=False)
        return out

    def __add__(self, other):
        other = _coerce_xrat(other)
        if other is None:
            return NotImplemented
        if self.num.is_zero():
            return other
        if other.num.is_zero():
            return self
        if _same_factors(self.factors, other.factors):
            return XRat(self.num + other.num, self.factors)
        merged = _merge_factors(self.factors, other.factors)
        n1 = self.num * _complement(merged, self.factors)
        n2 = other.num * _complement(merged, other.factors)
        return XRat(n1 + n2, merged)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce_xrat(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if isinstance(other, (int, Rat, ParamScalar)):
            c = _coerce_ps(other)
            if c.is_zero():
                return XR_ZERO
            return XRat(self.num.scale(c), self.factors, _normalize=False)
        other = _coerce_xrat(other)
        if other is None:
            return NotImplemented
        if self.num.is_zero() or other.num.is_zero():
            return XR_ZERO
        factors = _add_factor_lists(self.factors, other.factors)
        return XRat(self.num * other.num, factors)

    __rmul__ = __mul__

    def invert(self) -> "XRat":
        if self.num.is_zero():
            raise ExactError("division by zero rational function")
        new_num = self.den
        lead, monic = self.num.monic()
        new_num = new_num.scale(lead.invert())
        if monic.is_constant():
            return XRat(new_num, ())
        return XRat(new_num, ((monic, 1),))

    def __truediv__(self, other):
        other = _coerce_xrat(other)
        if other is None:
            return NotImplemented
        return self * other.invert()

    def __rtruediv__(self, other):
        return _coerce_xrat(other) * self.invert()

    def __pow__(self, n: int):
        if n == 0:
            return XR_ONE
        if n < 0:
            return self.invert() ** (-n)
        factors = tuple((b, e * n) for b, e in self.factors)
        return XRat(self.num ** n, factors)

    def derivative(self) -> "XRat":
        """d/dx by the factored quotient rule; each factor exponent grows by one."""
        if self._deriv is not None:
            return self._deriv
        if not self.factors:
            result = XRat(self.num.derivative(), (), _normalize=False)
        else:
            bases = [b for b, _ in self.factors]
            prod_all = _XP_ONE
            for b in bases:
                prod_all = prod_all * b
            log_term = _XP_ZERO
            for idx, (b, e) in enumerate(self.factors):
                partial = _XP_ONE
                for jdx, bb in enumerate(bases):
                    if jdx != idx:
                        partial = partial * bb
                log_term = log_term + (b.derivative() * partial).scale(e)
            new_num = self.num.derivative() * prod_all - self.num * log_term
            factors = tuple((b, e + 1) for b, e in self.factors)
            result = XRat(new_num, factors)
        self._deriv = result
        return result

    def reduced(self) -> "XRat":
        """Cancel the numerator against the denominator.

        Parametric values are reduced by trial division against their own
        denominator factors (no multivariate gcd).  Parameter-free values are
        fully gcd-reduced: the numerator ends up coprime to every (monic)
        denominator base, splitting bases when only part of one cancels.
        """
        if not self.factors or self.num.is_zero():
            return self
        num = self.num
        changed = False
        if num.is_parameter_free() and all(b.is_parameter_free() for b, _ in self.factors):
            work = [[b, e] for b, e in self.factors]
            idx = 0
            while idx < len(work):
                base, exp = work[idx]
                while exp > 0 and num.degree() >= 1:
                    g = xpoly_gcd_rational(num, base)
                    if g.degree() < 1:
                        break
                    num, _ = num.divmod(g)
                    changed = True
                    if g.degree() == base.degree():
                        exp -= 1
                    else:
                        # only part of the base cancels: split off the rest
                        rest, _ = base.divmod(g)
                        exp -= 1
                        work.append([rest.monic()[1], 1])
                work[idx][1] = exp
                idx += 1
            if not changed:
                return self
            return XRat(num, tuple((b, e) for b, e in work if e))
        out = []
        for base, exp in self.factors:
            while exp > 0:
                quo, rem = num.divmod(base)
                if rem.is_zero():
                    num = quo
                    exp -= 1
                    changed = True
                else:
                    break
            if exp:
                out.append((base, exp))
        if not changed:
            return self
        return XRat(num, tuple(out))

    def substitute(self, mapping: dict) -> "XRat":
        num = self.num.substitute(mapping)
        den = _XP_ONE
        for base, exp in self.factors:
            den = den * base.substitute(mapping) ** exp
        if den.is_zero():
            raise ExactError("substitution makes a denominator vanish identically")
        return XRat.from_ratio(num, den)

    def constant_value(self):
        """The ParamScalar value if this rational function is x-free, else None."""
        if self.num.is_zero():
            return PS_ZERO
        quo, rem = self.num.divmod(self.den)
        if rem.is_zero() and quo.degree() <= 0:
            return quo.coeff(0)
        return None

    def __str__(self):
        return render_xrat(self)

    def __repr__(self):
        return f"XRat({self})"


def _coerce_xrat(value):
    if isinstance(value, XRat):
        return value
    if isinstance(value, XPoly):
        return XRat.from_poly(value)
    if isinstance(value, (int, Rat, ParamScalar, MPoly)):
        return XRat.const(value)
    return None


def _same_factors(f1, f2) -> bool:
    if len(f1) != len(f2):
        return False
    for (b1, e1), (b2, e2) in zip(f1, f2):
        if e1 != e2 or b1.coeffs.keys() != b2.coeffs.keys():
            return False
        if not (b1 is b2 or b1 == b2):
            return False
    return True


def _find_base(factors: list, base: XPoly):
    deg = base.degree()
    for idx, (b, _) in enumerate(factors):
        if b is base or (b.degree() == deg and b == base):
            return idx
    return None


def _add_factor_lists(f1, f2):
    out = [list(f) for f in f1]
    for base, exp in f2:
        idx = _find_base(out, base)
        if idx is None:
            out.append([base, exp])
        else:
            out[idx][1] += exp
    return tuple((b, e) for b, e in out)


def _merge_factors(f1, f2):
    out = [list(f) for f in f1]
    for base, exp in f2:
        idx = _find_base(out, base)
        if idx is None:
            out.append([base, exp])
        elif exp > out[idx][1]:
            out[idx][1] = exp
    return tuple((b, e) for b, e in out)


def _complement(merged, own) -> XPoly:
    """prod merged / prod own as a polynomial (own divides merged by construction)."""
    out = _XP_ONE
    own_list = [list(f) for f in own]
    for base, exp in merged:
        idx = _find_base(own_list, base)
        have = own_list[idx][1] if idx is not None else 0
        if exp > have:
            out = out * base ** (exp - have)
    return out


def _normalize_xrat(num: XPoly, factors):
    if num.is_zero():
        return _XP_ZERO, ()
    out = []
    for base, exp in factors:
        if exp == 0 or base.is_constant():
            if base.is_constant() and exp:
                num = num.scale(base.coeff(0).invert() ** exp)
            continue
        lead = base.lead_coeff()
        if not lead.is_one():
            inv = lead.invert()
            base = XPoly({d: c * inv for d, c in base.coeffs.items()})
            num = num.scale(lead ** (-exp))
        idx = _find_base(out, base)
        if idx is None:
            out.append([base, exp])
        else:
            out[idx][1] += exp
    factors = tuple((b, e) for b, e in out if e)
    if any(e < 0 for _, e in factors):
        # negative exponents move to the numerator
        pos = []
        for base, exp in factors:
            if exp < 0:
                num = num * base ** (-exp)
            else:
                pos.append((base, exp))
        factors = tuple(pos)
    return num, factors


XR_ZERO = XRat(_XP_ZERO, ())
XR_ONE = XRat(_XP_ONE, ())
XR_X = XRat(_XP_X, ())


class DiffOp:
    """Differential operator sum_r c_r(x) D**r with XRat coefficients.

    A subclass may use other coefficients (``matrixop.MatDiffOp``); it names
    them by ``kind``, which both operands of a sum, product or comparison
    must share, and builds its results through ``_like``.
    """

    __slots__ = ("coeffs",)
    kind = "scalar"

    def __init__(self, coeffs: dict | None = None, _normalize=True):
        if _normalize and coeffs:
            coeffs = {r: c for r, c in coeffs.items() if not c.is_zero()}
        self.coeffs = coeffs if coeffs else {}

    @classmethod
    def zero(cls):
        return cls({})

    @classmethod
    def identity(cls):
        return cls({0: XR_ONE}, _normalize=False)

    @classmethod
    def d(cls, order: int = 1) -> "DiffOp":
        return cls({order: XR_ONE}, _normalize=False)

    @classmethod
    def mul_by(cls, f) -> "DiffOp":
        """Multiplication operator g -> f*g."""
        f = _coerce_xrat(f)
        return cls({0: f})

    @classmethod
    def schrodinger(cls, potential) -> "DiffOp":
        """-D**2 + V."""
        v = _coerce_xrat(potential)
        return cls({2: -XR_ONE, 0: v})

    def is_zero(self) -> bool:
        return not self.coeffs

    def order(self) -> int:
        return max(self.coeffs) if self.coeffs else -1

    def coeff(self, r: int) -> XRat:
        return self.coeffs.get(r, XR_ZERO)

    def potential(self) -> XRat:
        """V for an operator of the exact form -D**2 + V."""
        if self.coeffs.get(2) != -XR_ONE or 1 in self.coeffs or self.order() > 2:
            raise ExactError("expected an operator of the form -D^2 + V")
        return self.coeffs.get(0, XR_ZERO)

    def __eq__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return equals(self, other)

    __hash__ = None

    def _like(self, coeffs: dict, _normalize=True) -> "DiffOp":
        """An operator of this one's kind with ``coeffs``; subclasses keep their data."""
        return DiffOp(coeffs, _normalize)

    def __neg__(self):
        return self._like({r: -c for r, c in self.coeffs.items()}, _normalize=False)

    def __add__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        _check_kinds(self, other)
        out = dict(self.coeffs)
        for r, c in other.coeffs.items():
            acc = out.get(r)
            if acc is None:
                out[r] = c
            else:
                acc = acc + c
                if acc.is_zero():
                    del out[r]
                else:
                    out[r] = acc
        return self._like(out, _normalize=False)

    def __sub__(self, other):
        if not isinstance(other, DiffOp):
            return NotImplemented
        return self + (-other)

    def scale(self, c) -> "DiffOp":
        if isinstance(c, XRat):
            if c.is_zero():
                return self._like({})
            return self._like({r: v * c for r, v in self.coeffs.items()})
        c = _coerce_ps(c)
        if c.is_zero():
            return self._like({})
        return self._like({r: v * c for r, v in self.coeffs.items()}, _normalize=False)

    def __mul__(self, other):
        """Operator composition (self after other)."""
        if isinstance(other, DiffOp):
            return compose(self, other)
        return NotImplemented

    def reduced(self) -> "DiffOp":
        return self._like({r: c.reduced() for r, c in self.coeffs.items()}, _normalize=False)

    def __str__(self):
        return render_diffop(self)

    def __repr__(self):
        return f"DiffOp({self})"


def _check_kinds(a: DiffOp, b: DiffOp):
    if a.kind != b.kind:
        raise ExactError(f"operator kind mismatch: {a.kind} and {b.kind}")


def compose(a: DiffOp, b: DiffOp) -> DiffOp:
    """Composition a(b(f)), expanded by the Leibniz rule.

    Each term C(r,m) * (a_r * b_s^(m)) at D^(r+s-m) uses the coefficients' own
    product, so coefficients that do not commute (matrices) fix its order.
    """
    _check_kinds(a, b)
    out: dict = {}
    for r, ar in a.coeffs.items():
        for s, bs in b.coeffs.items():
            db = bs
            for m in range(r + 1):
                if m > 0:
                    db = db.derivative()
                term = ar * db
                if m != 0 and (binom := math.comb(r, m)) != 1:
                    term = term * binom
                key = r + s - m
                acc = out.get(key)
                if acc is None:
                    out[key] = term
                else:
                    out[key] = acc + term
    return a._like(out)


def commutator(a: DiffOp, b: DiffOp) -> DiffOp:
    """[a, b] = a b - b a."""
    return compose(a, b) - compose(b, a)


def schrodinger_commutator(v_derivs: list, a: DiffOp) -> DiffOp:
    """[-D**2 + V, a] by the closed form, with v_derivs[m] = V^(m).

    [L, sum_r b_r D^r] = sum_r (-b_r'' D^r - 2 b_r' D^(r+1)
                                - sum_{m>=1} C(r,m) b_r V^(m) D^(r-m)).
    ``v_derivs`` starts as [V] and is extended in place as orders need it.

    Each coefficient comes back over the denominator factor list that
    compose(L, a) - compose(a, L) would give it, V's bases included.  The
    reduction that follows only cancels the bases it is offered, and a
    potential's list may hold a base next to its square (the Laguerre chain's
    do); over the closed-form terms' own list such a coefficient keeps a
    spurious factor and the tower grows.  The same list also keeps the reduced
    denominators as :func:`commutator` gives them.
    """
    while len(v_derivs) <= max(a.coeffs, default=0):
        v_derivs.append(v_derivs[-1].derivative())
    v = v_derivs[0]
    terms = defaultdict(list)
    lists: dict = {}

    def offer(key, factors):
        lists[key] = _merge_factors(lists.get(key, ()), factors)

    # L a = sum_r (-b D^(r+2) - 2b' D^(r+1) - b'' D^r + V b D^r); its factor
    # lists are offered in the order compose(L, a) meets them
    for r, b in a.coeffs.items():
        db = b.derivative()
        ddb = db.derivative()
        offer(r + 2, b.factors)
        offer(r + 1, db.factors)
        offer(r, ddb.factors)
        terms[r + 1].append(db * -2)
        terms[r].append(-ddb)
    if not v.is_zero():
        for r, b in a.coeffs.items():
            offer(r, _add_factor_lists(v.factors, b.factors))
    # what a L leaves after the cancellation: -C(r,m) b V^(m) D^(r-m)
    for r, b in a.coeffs.items():
        for m in range(1, r + 1):
            term = b * v_derivs[m]
            offer(r - m, term.factors)
            terms[r - m].append(term * -math.comb(r, m))
    out = {}
    for r, factors in lists.items():
        # one sum of numerators over the final list, not a chain of XRat sums
        num = _XP_ZERO
        for t in terms[r]:
            num = num + t.num * _complement(factors, t.factors)
        if not num.is_zero():
            out[r] = XRat(num, factors)
    return DiffOp(out, _normalize=False)


def apply_op(a: DiffOp, f) -> XRat:
    """The exact image sum_r c_r(x) f^(r)(x)."""
    f = _coerce_xrat(f)
    out = XR_ZERO
    derivs = f
    last = -1
    for r in sorted(a.coeffs):
        while last < r:
            if last >= 0:
                derivs = derivs.derivative()
            last += 1
        out = out + a.coeffs[r] * derivs
    return out


def equals(a: DiffOp, b: DiffOp) -> bool:
    """True iff a - b has identically zero coefficients."""
    _check_kinds(a, b)
    for r in a.coeffs.keys() | b.coeffs.keys():
        ca = a.coeffs.get(r)
        cb = b.coeffs.get(r)
        if ca is None:
            if not cb.is_zero():
                return False
        elif cb is None:
            if not ca.is_zero():
                return False
        elif ca != cb:
            return False
    return True


def common_numerators(rats) -> list:
    """Numerators of a list of XRats over their merged common denominator."""
    merged = ()
    for f in rats:
        merged = _merge_factors(merged, f.factors)
    out = []
    for f in rats:
        if f.num.is_zero():
            out.append(_XP_ZERO)
        else:
            out.append(f.num * _complement(merged, f.factors))
    return out


def annihilates_monomials(a: DiffOp) -> bool:
    """Independent zero test: an operator of order <= r is zero iff it kills
    x**0 .. x**r."""
    if a.is_zero():
        return True
    for m in range(a.order() + 1):
        image = apply_op(a, XRat.from_poly(XPoly.monomial(m)))
        if not image.is_zero():
            return False
    return True


class QuasiRat:
    """Product of polynomial powers times exp of a polynomial.

    ``scale * prod base_i ** exponent_i * exp(exp_part)`` with ParamScalar
    exponents.  Sums are not representable; only the logarithmic derivative
    (an XRat) is consumed downstream.
    """

    __slots__ = ("factors", "exp_part", "scale")

    def __init__(self, factors=(), exp_part: XPoly | None = None, scale=None):
        norm = []
        scale_ps = _coerce_ps(scale) if scale is not None else PS_ONE
        for base, exponent in factors:
            if base.is_zero():
                raise ExactError("zero base polynomial in a quasi-rational function")
            exponent = _coerce_ps(exponent)
            if exponent.is_zero():
                continue
            norm.append((base, exponent))
        self.factors = tuple(norm)
        self.exp_part = exp_part if exp_part is not None else _XP_ZERO
        self.scale = scale_ps

    def log_derivative(self) -> XRat:
        """sum e_i b_i'/b_i + exp_part'."""
        out = XRat.from_poly(self.exp_part.derivative())
        for base, exponent in self.factors:
            if base.is_constant():
                continue
            out = out + XRat.from_ratio(base.derivative(), base) * exponent
        return out

    def __mul__(self, other):
        if isinstance(other, QuasiRat):
            return QuasiRat(self.factors + other.factors,
                            self.exp_part + other.exp_part,
                            self.scale * other.scale)
        other = _coerce_xrat(other)
        if other is None:
            return NotImplemented
        factors = list(self.factors)
        if not other.num.is_constant():
            factors.append((other.num, PS_ONE))
            extra = PS_ONE
        else:
            extra = other.num.coeff(0)
        for base, exp in other.factors:
            factors.append((base, ParamScalar.const(-exp)))
        return QuasiRat(tuple(factors), self.exp_part, self.scale * extra)

    __rmul__ = __mul__

    def __str__(self):
        return render_quasirat(self)

    def __repr__(self):
        return f"QuasiRat({self})"


def log_derivative(psi: QuasiRat) -> XRat:
    return psi.log_derivative()


def eigen_ratio(v: XRat, w: XRat) -> XRat:
    """(L psi)/psi = V - w' - w**2 for L = -D**2 + V and w = (log psi)'."""
    return v - w.derivative() - w * w


def is_eigenfunction(op: DiffOp, psi: QuasiRat):
    """(L psi)/psi as a constant, or None if it depends on x."""
    return eigen_ratio(op.potential(), psi.log_derivative()).constant_value()


# ---------------------------------------------------------------------------
# rendering
# ---------------------------------------------------------------------------


def _balanced_parens(text: str) -> bool:
    if not (text.startswith("(") and text.endswith(")")):
        return False
    depth = 0
    for idx, ch in enumerate(text):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth == 0:
                return idx == len(text) - 1
    return False


def _paren(text: str) -> str:
    return text if _balanced_parens(text) else f"({text})"


def _coeff_str(c: ParamScalar) -> str:
    text = render_scalar(c)
    if "+" in text or " - " in text or text.startswith("-") or "/" in text:
        return _paren(text)
    return text


def render_xpoly(p: XPoly) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    for n, d in enumerate(sorted(p.coeffs, reverse=True)):
        c = p.coeffs[d]
        text = render_scalar(c)
        neg = text.startswith("-") and "+" not in text and " - " not in text
        if neg:
            text = text[1:]
        mono = "" if d == 0 else ("x" if d == 1 else f"x^{d}")
        if not mono:
            body = text if _plain(text) else f"({text})"
        elif text == "1":
            body = mono
        else:
            body = f"{text}*{mono}" if _plain(text) else f"{_paren(text)}*{mono}"
        if n == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f" - {body}" if neg else f" + {body}")
    return "".join(chunks)


def _plain(text: str) -> bool:
    return "+" not in text and " - " not in text and not text.startswith("-")


def render_xrat(f: XRat) -> str:
    num = render_xpoly(f.num)
    if not f.factors:
        return num
    parts = []
    for base, exp in f.factors:
        btxt = render_xpoly(base)
        btxt = btxt if _is_simple(btxt) else _paren(btxt)
        parts.append(btxt if exp == 1 else f"{btxt}^{exp}")
    ntxt = num if _is_simple(num) else _paren(num)
    if len(parts) > 1:
        return f"{ntxt}/({'*'.join(parts)})"
    return f"{ntxt}/{parts[0]}"


def _is_simple(text: str) -> bool:
    return ("+" not in text and " - " not in text and "*" not in text
            and "/" not in text and not text.startswith("-"))


def render_diffop(op: DiffOp) -> str:
    if op.is_zero():
        return "0"
    chunks = []
    for r in sorted(op.coeffs, reverse=True):
        c = op.coeffs[r]
        ctxt = render_xrat(c)
        dtxt = "" if r == 0 else ("D" if r == 1 else f"D^{r}")
        if not dtxt:
            body = ctxt
        elif ctxt == "1":
            body = dtxt
        elif ctxt == "-1":
            body = f"-{dtxt}"
        else:
            body = f"{ctxt}*{dtxt}" if _is_simple(ctxt) else f"{_paren(ctxt)}*{dtxt}"
        chunks.append(body)
    out = chunks[0]
    for chunk in chunks[1:]:
        out += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
    return out


def render_quasirat(q: QuasiRat) -> str:
    parts = []
    if not q.scale.is_one():
        parts.append(_coeff_str(q.scale))
    for base, exponent in q.factors:
        btxt = render_xpoly(base)
        btxt = btxt if _is_simple(btxt) else _paren(btxt)
        if exponent.is_one():
            parts.append(btxt)
        else:
            etxt = render_scalar(exponent)
            parts.append(f"{btxt}^{etxt}" if _is_simple(etxt) else f"{btxt}^{_paren(etxt)}")
    if not q.exp_part.is_zero():
        parts.append(f"exp({render_xpoly(q.exp_part)})")
    return "*".join(parts) if parts else "1"
