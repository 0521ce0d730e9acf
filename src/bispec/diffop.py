"""Scalar differential operators with exact rational-function coefficients.

An :class:`XPoly` is one fraction: an MPoly numerator whose packed keys carry
the x-degree in field 0 (``bispec.exact``), over one MPoly denominator without
x, normalised by the ParamScalar rule.  An x-product is one MPoly product (one
in x alone takes the univariate kernel), division by a monic base works in
place on the numerator's x-slices, and an x-degree is at most 32767.

Operators are kept in right normal form ``sum_r c_r(x) * D**r`` with every
``c_r`` an :class:`XRat`.  Denominators of rational functions are stored as
monic factor lists ``prod b_i(x)**e_i`` so repeated differentiation grows the
exponents linearly instead of squaring blindly.  ``XRat.reduced`` is one loop
of trial divisions against a value's own denominator factors; parameter-free
values end fully reduced, because a base that does not divide the numerator
is either proven coprime to it or partly cancelled through a rational gcd.

No base of a factor list divides another: wherever lists meet, a base
b = q*c listed next to c is split into q, and c takes b's exponent, so trial
division meets every power of c in one base.  Bases are
not made squarefree or coprime; a parametric square typed with no sibling
base, such as 1/(x^4+2*k*x^2+k^2), stays one base (splitting it would need a
parametric gcd).  The catalog therefore enters the squared poles of its
potentials as the factor (base, 2) (``families._inv_square``).  A list that
is already normal is not normalised again: a sum over one list, a derivative
(each exponent + 1), a power and a reduced value keep theirs, and a product
or a sum over a merged list only merges equal bases and splits divisible ones.

An ad tower step (:func:`schrodinger_commutator`) uses the formal adjoint
(sum_r b_r D**r)* = sum_r (-D)**r b_r.  L = -D**2 + V and a function theta
are formally self-adjoint, so A_j = ad_L^j(theta) has A_j* = (-1)**j A_j:
the coefficient at an order k of the other parity than j is fixed by the
higher ones, b_k = (-1)**j / 2 * sum_{r>k} (-1)**r C(r,k) b_r^(r-k).  The
step forms the orders of the parity of j by the closed form and fills the
others from this identity; it holds over K(x), so every coefficient is still
exact.  A theta of order >= 1 has no such parity and is refused by
``adcond.ad_tower``.

Trial divisions are decided mod p first.  Numerator and base are mapped to
GF(p), p = 2**61 - 1, with each parameter at a fixed residue derived from its
name (``exact.mod_p_residue``).  Where every image is defined and the base's
leading coefficient maps to a unit, the map is a ring homomorphism, so a
nonzero image remainder proves a nonzero remainder (Schwartz 1980, Zippel
1979), and after an exact division the image quotient is the image of the
new numerator, which ``reduced`` carries instead of mapping it again.  For a
parameter-free value a gcd of degree 0 of the two images
(``exact._image_gcd``) proves that numerator and base are coprime over Q
(Brown 1971): a monic factor over Q of a monic base whose coefficients have
images also has images, and would divide both images.  The rational gcd
runs only where the images share a factor.  When an image is
undefined (a relation-bearing parameter, or a denominator or the base's
leading coefficient mapping to 0), the check is undecided and the symbolic
division decides as before.  The images only prove negative facts: every
cancellation is an exact symbolic division.
"""

from __future__ import annotations

import math
from collections import defaultdict
from itertools import permutations
from operator import add

from .exact import (
    EXP_MAX,
    MOD_P,
    MPoly,
    PS_ONE,
    PS_ZERO,
    ParamScalar,
    Rat,
    ExactError,
    _coerce,
    _image_divmod,
    _image_gcd,
    _is_atomic,
    _normalize_fraction_parts,
    cancel_common_factor,
    denominator_cofactors,
    int_poly_gcd,
    render_scalar,
)

_MP_ONE = MPoly.one()  # the den of every XPoly without a parameter denominator


def _coerce_ps(value) -> ParamScalar:
    c = _coerce(value)
    if c is None:
        raise TypeError(f"cannot use {value!r} as a scalar coefficient")
    return c


class XPoly:
    """Polynomial in the distinguished variable x with ParamScalar coefficients.

    Stored as one fraction ``num / den``: ``num`` is an MPoly whose keys carry
    the x-degree in field 0 (see ``bispec.exact``), ``den`` an MPoly without
    x, normalised by the ParamScalar rule (primitive, positive lead, no
    monomial in common with num's parameter part, none of a relation-bearing
    field; a constant den is ``MPoly.one()``).  A parameter-free polynomial is
    int numerators over one int.  ``XPoly({degree: coefficient})`` builds one,
    and :attr:`coeffs` maps each degree back to a normalised ParamScalar.

    A value never changes, so facts about it are memoised on it at first use
    and never invalidated: the x-degree, the GF(p) image (``_mod_p_coeffs``),
    the powers, the log-derivative parts of a factor list it heads
    (``_log_parts``) and the bases shown not to divide it
    (``_refutes_division``).  Their slots stay unset until then, so building
    a value costs no more.
    """

    __slots__ = ("num", "den", "_degree", "_image", "_powers", "_log_parts", "_refuted")

    def __init__(self, coeffs: dict | None = None):
        p = _XP_ZERO
        for d, c in (coeffs or {}).items():
            p = p + XPoly.monomial(d, c)
        self.num, self.den = p.num, p.den

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
        return cls.monomial(0, value)

    @classmethod
    def monomial(cls, deg: int, coeff=1) -> "XPoly":
        c = _coerce_ps(coeff)
        if not 0 <= deg <= EXP_MAX:
            raise ExactError(f"x-degree {deg} is outside 0..{EXP_MAX}")
        if c.is_zero():
            return _XP_ZERO
        return _xp(c.num.x_shift(deg), c.den)

    @classmethod
    def from_list(cls, ascending) -> "XPoly":
        return cls(dict(enumerate(ascending)))

    @property
    def coeffs(self) -> dict:
        """{degree: normalised ParamScalar} in ascending degree, built on each access."""
        den = self.den
        return {d: _coefficient(c, den) for d, c in self.num.x_slices().items()}

    def is_zero(self) -> bool:
        return not self.num.terms

    def degree(self) -> int:
        try:
            return self._degree
        except AttributeError:
            d = self._degree = self.num.x_degree()
            return d

    def coeff(self, deg: int) -> ParamScalar:
        return _coefficient(self.num.x_slice(deg), self.den)

    def is_parameter_free(self) -> bool:
        return self.den is _MP_ONE and not self.num.has_params()

    def is_constant(self) -> bool:
        return self.degree() <= 0

    def __bool__(self):
        return bool(self.num.terms)

    def __eq__(self, other):
        if not isinstance(other, XPoly):
            return NotImplemented
        if self.den is other.den or self.den == other.den:
            return self.num == other.num
        return self.num * other.den == other.num * self.den

    __hash__ = None

    def __neg__(self):
        return _xp(-self.num, self.den)

    def __add__(self, other):
        if not isinstance(other, XPoly):
            other = XPoly.const(other)
        if not self.num.terms:
            return other
        if not other.num.terms:
            return self
        d1, d2 = self.den, other.den
        if d1 is d2 or d1 == d2:
            return _xp_norm(self.num + other.num, d1)
        l1, l2 = denominator_cofactors(d1, d2)
        return _xp_norm(self.num * l1 + other.num * l2, d1 * l1)

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
        if c.den is _MP_ONE and self.den is _MP_ONE:
            return _xp(self.num * c.num, _MP_ONE)
        return _xp_norm(self.num * c.num, self.den * c.den)

    def __mul__(self, other):
        if isinstance(other, (int, Rat, ParamScalar, MPoly)):
            return self.scale(other)
        if not isinstance(other, XPoly):
            return NotImplemented
        if self.den is _MP_ONE and other.den is _MP_ONE:
            return _xp(self.num * other.num, _MP_ONE)
        return _xp_norm(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        """self**n, memoised; a power next above a memoised one is one product."""
        if n < 0:
            raise ExactError("negative power of a polynomial")
        if n == 1:
            return self
        powers = getattr(self, "_powers", None)
        if powers is None:
            powers = self._powers = {}
        p = powers.get(n)
        if p is None:
            prev = self if n == 2 else powers.get(n - 1)
            if prev is None:
                p = _xp_norm(self.num ** n, self.den ** n)
            else:
                p = _xp_norm(prev.num * self.num, prev.den * self.den)
            powers[n] = p
        return p

    def derivative(self) -> "XPoly":
        return _xp_norm(self.num.x_derivative(), self.den)

    def monic(self) -> tuple:
        """(leading coefficient, self/leading)."""
        top = self.num.x_slice(self.degree())
        lead = ParamScalar(top, self.den)
        if lead.is_one():
            return lead, self
        # (num / den) / (top / den) = num / top
        return lead, _xp_norm(self.num, top)

    def divmod(self, other: "XPoly") -> tuple:
        """Quotient and remainder over the coefficient field."""
        if other.is_zero():
            raise ExactError("division by the zero polynomial")
        dd = other.degree()
        if self.degree() < dd:
            return _XP_ZERO, self
        lead = other.num.x_slice(dd)
        if other.den is _MP_ONE and lead == _MP_ONE:
            # the top coefficient is 1 and no parameter denominator: in place
            quo, rem = self.num.x_divmod(other.num)
            return _xp_norm(quo, self.den), _xp_norm(rem, self.den)
        # pseudo-division by other.num, whose top coefficient is lead: quo and
        # rem over one den that takes a factor lead per step, and
        # self = quo * other.num / den + rem / den
        quo, rem, den = MPoly.zero(), self.num, self.den
        while rem and (n := rem.x_degree()) >= dd:
            top = rem.x_slice(n).x_shift(n - dd)
            quo = quo * lead + top
            rem = rem * lead - top * other.num
            den = den * lead
        return _xp_norm(quo * other.den, den), _xp_norm(rem, den)

    def substitute(self, mapping: dict) -> "XPoly":
        return XPoly({d: c.substitute(mapping) for d, c in self.coeffs.items()})

    def __str__(self):
        return render_xpoly(self)

    def __repr__(self):
        return f"XPoly({self})"


def _xp(num: MPoly, den: MPoly) -> XPoly:
    """num / den from parts already in normal form."""
    p = object.__new__(XPoly)
    p.num, p.den = num, den
    return p


def _coefficient(c: MPoly, den: MPoly) -> ParamScalar:
    """The coefficient c / den of one x-slice c, normalised.  The shared den
    may hold factors this coefficient does not need; cancel_common_factor
    removes those it finds."""
    if den is _MP_ONE:
        return ParamScalar.from_poly(c)
    return ParamScalar(*cancel_common_factor(c, den))


def _xp_norm(num: MPoly, den: MPoly) -> XPoly:
    """num / den for a den without x, normalised."""
    if den is _MP_ONE:
        return _xp(num, den)
    return _xp(*_normalize_fraction_parts(num, den))


_XP_ZERO = _xp(MPoly.zero(), _MP_ONE)
_XP_ONE = _xp(MPoly.one(), _MP_ONE)
_XP_X = _xp(MPoly.from_x_ints([0, 1]), _MP_ONE)


def xpoly_gcd_rational(a: XPoly, b: XPoly) -> XPoly:
    """Monic gcd of two parameter-free polynomials (primitive PRS over Z)."""
    if a.is_zero():
        return b if b.is_zero() else b.monic()[1]
    if b.is_zero():
        return a.monic()[1]
    g = int_poly_gcd(a.num.int_list(), b.num.int_list())
    return _xp(MPoly.from_x_ints(g, g[-1]), _MP_ONE)


class XRat:
    """Rational function num / prod(base_i ** e_i) in x.

    Bases are monic, of positive degree and distinct, and none divides
    another; a parametric square typed with no sibling base stays one base,
    so the catalog passes its squared poles as the factor ``(base, 2)``.
    Values are cancelled on request via :meth:`reduced`: fully when
    parameter-free, by trial division against their own bases otherwise.

    In a tower every coefficient is a fraction over the same few bases, so
    what depends on a base alone is memoised on the base (see XPoly): its
    degree, GF(p) image, powers, the log-derivative parts of the factor list
    it heads, and the bases refuted as its divisors.  A memoised image cannot
    go stale.  Each field's residue is fixed by its name
    (``exact.mod_p_residue``), and ``declare_param`` refuses a relation for a
    field already in use, so a defined image stays defined and correct.  A
    relation dropped by ``ParamRegistry.restore_relations`` can leave a
    memoised None, but None means only "undecided", and the symbolic division
    decides as it would without the image.  A change that gives
    relation-bearing parameters an image must make the memo follow the
    relation registry.
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
            self._den = _product(base ** exp for base, exp in self.factors)
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
        other = _coerce_xrat(other)
        if other is None:
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
            return _xrat_normal(self.num + other.num, self.factors)
        merged, (n1, n2) = _over_common_den((self, other))
        return _xrat_merged(n1 + n2, merged)

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
        return _xrat_merged(self.num * other.num, self.factors + other.factors)

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
        return XRat(self.num ** n, factors, _normalize=False)

    def derivative(self) -> "XRat":
        """d/dx by the factored quotient rule; each factor exponent grows by one."""
        if self._deriv is not None:
            return self._deriv
        if not self.factors:
            result = XRat(self.num.derivative(), (), _normalize=False)
        else:
            prod_all, parts = _log_parts([b for b, _ in self.factors])
            log_term = _XP_ZERO
            for part, (_, e) in zip(parts, self.factors):
                log_term = log_term + part.scale(e)
            new_num = self.num.derivative() * prod_all - self.num * log_term
            result = _xrat_normal(new_num, tuple((b, e + 1) for b, e in self.factors))
        self._deriv = result
        return result

    def reduced(self) -> "XRat":
        """Cancel the numerator against the denominator: one loop of trial
        divisions over the factor list, for parametric and parameter-free
        values alike.

        Each base is mapped once to GF(2**61 - 1), and the numerator only once
        a base's image is defined; after an exact division the image quotient
        is carried as the new numerator's image (:func:`_image_divmod`).  The
        symbolic ``num.divmod(base)`` runs only when the image remainder is
        zero or undecided, since a nonzero one proves the division fails
        (Schwartz 1980, Zippel 1979).  A parametric value is then done with
        that base: no multivariate gcd.  A parameter-free value is done with
        it only once the two are coprime, which an images' gcd of degree 0
        proves (:func:`_image_gcd`, Brown 1971); when the images share a
        factor the rational gcd runs, and a base that only partly cancels is
        split as base**(e-1) * rest.  So parameter-free values end fully
        reduced.  The module docstring gives the soundness argument; every
        cancellation is an exact symbolic division.
        """
        if not self.factors or self.num.is_zero():
            return self
        num = self.num
        free = self.is_parameter_free()
        image, imaged = None, False  # num's image, once mapped (None: undefined)
        work = [[b, e] for b, e in self.factors]
        changed = split = False
        for item in work:  # a split appends its rest, which is visited too
            base, exp = item
            b = _mod_p_coeffs(base)
            if b is not None and not b[-1]:
                b = None
            while exp:
                if b is not None and not imaged:
                    image, imaged = _mod_p_coeffs(num), True
                division = _image_divmod(image, b) if b is not None and image is not None else None
                if division is None or not division[1]:
                    quo, rem = num.divmod(base)
                    if rem.is_zero():
                        num, exp, changed = quo, exp - 1, True
                        image, imaged = (division[0], True) if division else (None, False)
                        continue
                if not free or (division is not None and len(_image_gcd(b, division[1])) == 1):
                    break
                g = xpoly_gcd_rational(num, base)
                if g.degree() < 1:
                    break
                # only part of the base cancels: base**e = base**(e-1) * g * rest
                num = num.divmod(g)[0]
                work.append([base.divmod(g)[0], 1])
                exp -= 1
                changed = split = True
                imaged = False
            item[1] = exp
        if not changed:
            return self
        factors = [(b, e) for b, e in work if e]
        if split:
            return _xrat_merged(num, factors)
        return XRat(num, tuple(factors), _normalize=False)

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


def _mod_p_coeffs(p: XPoly, at=None):
    """Ascending coefficient images in GF(MOD_P), or None if one is undefined,
    at the point of MPoly.x_images_mod(at).  The image at the fixed point
    (``at`` None) is memoised on p (see XRat for why a memoised image cannot
    go stale); callers must not change the list."""
    if at is None:
        try:
            return p._image
        except AttributeError:
            pass
    den = 1 if p.den is _MP_ONE else p.den.evaluate_mod(at)
    image = p.num.x_images_mod(den, at) if den else None
    if at is None:
        p._image = image
    return image


def _refutes_division(num: XPoly, base: XPoly) -> bool:
    """True when num mod base provably leaves a nonzero remainder: both map to
    GF(MOD_P) at the fixed point of MPoly.evaluate_mod and the image remainder
    is nonzero (:func:`_image_divmod`).  False means undecided too: an image
    is undefined, or base's leading coefficient maps to 0.

    A True verdict is memoised on num, keyed by the id of base, which the
    memo keeps alive so that the id cannot be reused.
    """
    refuted = getattr(num, "_refuted", None)
    if refuted is not None and id(base) in refuted:
        return True
    b = _mod_p_coeffs(base)
    if b is None or not b[-1]:
        return False
    a = _mod_p_coeffs(num)
    if a is None or not _image_divmod(a, b)[1]:
        return False
    if refuted is None:
        refuted = num._refuted = {}
    refuted[id(base)] = base
    return True


def _product(polys) -> XPoly:
    """The product of polys, left to right; 1 when there are none."""
    out = None
    for p in polys:
        out = p if out is None else out * p
    return _XP_ONE if out is None else out


def _log_parts(bases: list) -> tuple:
    """(prod b_j, [b_i' * prod_(j != i) b_j for each i]) for the bases of a
    factor list, whatever their exponents: the parts of its log-derivative
    sum_i e_i b_i'/b_i over prod b_j.  Memoised on the first base, keyed by
    the ids of the others, which the memo keeps alive."""
    first, rest = bases[0], bases[1:]
    memo = getattr(first, "_log_parts", None)
    if memo is None:
        memo = first._log_parts = {}
    key = tuple(map(id, rest))
    hit = memo.get(key)
    if hit is None:
        parts = [_product([b.derivative(), *bases[:idx], *bases[idx + 1:]])
                 for idx, b in enumerate(bases)]
        hit = memo[key] = (rest, _product(bases), parts)
    return hit[1], hit[2]


def _coerce_xrat(value):
    if isinstance(value, XRat):
        return value
    if isinstance(value, XPoly):
        return XRat.from_poly(value)
    if isinstance(value, (int, Rat, ParamScalar, MPoly)):
        return XRat.const(value)
    return None


def as_function(theta) -> XRat:
    """Theta as a function: itself, or the coefficient of a multiplication
    operator.  Raises ExactError for an operator of order >= 1."""
    if not isinstance(theta, DiffOp):
        return _coerce_xrat(theta)
    if theta.order() > 0:
        raise ExactError("ad tower needs theta to be a function (order 0)")
    return theta.coeff(0)


def _same_factors(f1, f2) -> bool:
    if len(f1) != len(f2):
        return False
    for (b1, e1), (b2, e2) in zip(f1, f2):
        if e1 != e2 or not (b1 is b2 or b1 == b2):
            return False
    return True


def _find_base(factors: list, base: XPoly):
    deg = base.degree()
    for idx, (b, _) in enumerate(factors):
        # the degree rejects cheaply: == cross-multiplies when the dens differ
        if b is base or (b.degree() == deg and b == base):
            return idx
    return None


def _merge_equal(pairs, combine=add) -> list:
    """[base, exp] lists of pairs, with the exponents of equal bases combined
    (summed, by default) into the first one."""
    out = []
    for base, exp in pairs:
        idx = _find_base(out, base)
        if idx is None:
            out.append([base, exp])
        else:
            out[idx][1] = combine(out[idx][1], exp)
    return out


def _complement(merged, own) -> XPoly:
    """prod merged / prod own as a polynomial (own divides merged by construction)."""
    powers = []
    for base, exp in merged:
        idx = _find_base(own, base)
        have = own[idx][1] if idx is not None else 0
        if exp > have:
            powers.append(base ** (exp - have))
    return _product(powers)


def _xrat_normal(num: XPoly, factors: tuple) -> "XRat":
    """num / prod factors for a factor list already in normal form."""
    if num.is_zero():
        return XR_ZERO
    return XRat(num, factors, _normalize=False)


def _xrat_merged(num: XPoly, pairs) -> "XRat":
    """num / prod pairs for pairs taken from normal factor lists (monic bases
    of positive degree, positive exponents): equal bases are merged and
    divisible ones split, and nothing else is done to them."""
    if num.is_zero():
        return XR_ZERO
    out = _merge_equal(pairs)
    if len(out) > 1:
        _split_divisible(out)
    return XRat(num, tuple((b, e) for b, e in out), _normalize=False)


def _normalize_xrat(num: XPoly, factors):
    """num and factors in normal form: monic bases of positive degree, equal
    ones merged, none dividing another, negative exponents moved to num."""
    if num.is_zero():
        return _XP_ZERO, ()
    pairs = []
    for base, exp in factors:
        if exp == 0 or base.is_constant():
            if base.is_constant() and exp:
                num = num.scale(base.coeff(0).invert() ** exp)
            continue
        lead, monic = base.monic()
        if monic is not base:
            base = monic
            num = num.scale(lead ** (-exp))
        pairs.append((base, exp))
    pos = []
    for base, exp in _merge_equal(pairs):
        if exp < 0:
            num = num * base ** (-exp)
        elif exp:
            pos.append([base, exp])
    if len(pos) > 1:
        _split_divisible(pos)
    return num, tuple((b, e) for b, e in pos)


def _split_divisible(work: list) -> None:
    """Split the [base, exp] pairs of work in place until no base divides another.

    A base b = q*c next to a base c of lower degree becomes q and c takes b's
    exponent, since b^e * c^f = q^e * c^(e+f).  Each split lowers the total
    degree, so the loop ends.  _refutes_division rules a pair out first.
    """
    while True:
        degs = [f[0].degree() for f in work]
        for (big, dbig), (small, dsmall) in permutations(zip(work, degs), 2):
            if dsmall < dbig and not _refutes_division(big[0], small[0]):
                quo, rem = big[0].divmod(small[0])
                if rem.is_zero():
                    break
        else:
            return
        small[1] += big[1]
        same = _find_base(work, quo)
        if same is None:
            big[0] = quo
        else:
            work[same][1] += big[1]
            work[:] = [f for f in work if f is not big]


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
        c = _coerce_ps(c)
        if c.is_zero():
            return self._like({})
        return self._like({r: v * c for r, v in self.coeffs.items()}, _normalize=False)

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


def schrodinger_commutator(v_derivs: list, a: DiffOp, parity: int) -> DiffOp:
    """[-D**2 + V, a] for a = A_j of an ad tower, reduced, with
    v_derivs[m] = V^(m) and parity = (j + 1) % 2.

    The orders k of the result with k % 2 == parity come from the closed form

        [L, sum_r b_r D^r] = sum_r (-b_r'' D^r - 2 b_r' D^(r+1)
                                    - sum_{m>=1} C(r,m) b_r V^(m) D^(r-m)),

    and the other orders, top down, from the formal adjoint: L and theta are
    formally self-adjoint, so A_(j+1)* = (-1)^(j+1) A_(j+1), where
    (sum_r b_r D^r)* = sum_r (-D)^r b_r; for k % 2 != parity this fixes

        b_k = (-1)^(j+1) / 2 * sum_{r>k} (-1)^r C(r,k) b_r^(r-k)

    by the reduced higher coefficients and their cached derivatives.  The
    identity holds over K(x), so every coefficient is still exact.
    ``v_derivs`` starts as [V] and is extended in place as orders need it.

    Each coefficient is summed over the merge of its own terms' factor lists,
    and the XRat built over it splits a base that another divides, so the
    reduction that follows meets every power of a base in one place (a
    parametric square typed expanded with no sibling base stays whole).
    """
    while len(v_derivs) <= max(a.coeffs, default=0):
        v_derivs.append(v_derivs[-1].derivative())
    # derivative terms first: sums then share ints with b's cached derivatives
    terms = defaultdict(list)
    for r, b in a.coeffs.items():
        db = b.derivative()
        if (r + 1) % 2 == parity:
            terms[r + 1].append(db * -2)
        else:
            terms[r].append(-db.derivative())
    # what a L leaves after the cancellation: -C(r,m) b V^(m) D^(r-m)
    for r, b in a.coeffs.items():
        for m in range(2 - (r + parity) % 2, r + 1, 2):
            terms[r - m].append(b * v_derivs[m] * -math.comb(r, m))
    out = {}
    for r, rats in terms.items():
        coeff = _summed(rats)
        if coeff is not None:
            out[r] = coeff
    half = Rat(1 if parity == 0 else -1, 2)
    for k in range(max(out, default=0) - 1, -1, -2):
        rats = []
        for r in sorted(out):
            if r > k:
                d = out[r]
                for _ in range(r - k):
                    d = d.derivative()
                rats.append(d * ((-1) ** r * math.comb(r, k)))
        coeff = _summed(rats)
        if coeff is not None:
            out[k] = coeff * half
    return DiffOp(out, _normalize=False)


def _summed(rats):
    """The reduced sum of rats, one sum of numerators over their merged list
    rather than a chain of XRat sums; None when it is zero."""
    factors, nums = _over_common_den(rats)
    num = sum(nums, _XP_ZERO)
    return None if num.is_zero() else _xrat_merged(num, factors).reduced()


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


def _over_common_den(rats) -> tuple:
    """(merged factor list, an iterator of the numerators of rats over it);
    the merge keeps each base at its largest exponent."""
    merged = _merge_equal([p for f in rats for p in f.factors], max)
    return merged, (f.num * _complement(merged, f.factors) if f.num else _XP_ZERO for f in rats)


def common_numerators(rats) -> list:
    """Numerators of a list of XRats over their merged common denominator."""
    return list(_over_common_den(rats)[1])


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


def render_xpoly(p: XPoly) -> str:
    if p.is_zero():
        return "0"
    chunks = []
    coeffs = p.coeffs
    for n, d in enumerate(sorted(coeffs, reverse=True)):
        c = coeffs[d]
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
        btxt = _base_str(base, exp != 1)
        parts.append(btxt if exp == 1 else f"{btxt}^{exp}")
    ntxt = num if _is_atomic(num) else _paren(num)
    if len(parts) > 1:
        return f"{ntxt}/({'*'.join(parts)})"
    return f"{ntxt}/{parts[0]}"


def _base_str(base: XPoly, powered: bool) -> str:
    """A denominator or quasi-rational base; a powered base whose own text
    has a '^' is parenthesised, since x^2^3 does not parse."""
    text = render_xpoly(base)
    if _is_atomic(text) and not (powered and "^" in text):
        return text
    return _paren(text)


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
            body = f"{ctxt}*{dtxt}" if _is_atomic(ctxt) else f"{_paren(ctxt)}*{dtxt}"
        chunks.append(body)
    out = chunks[0]
    for chunk in chunks[1:]:
        out += f" - {chunk[1:]}" if chunk.startswith("-") else f" + {chunk}"
    return out


def render_quasirat(q: QuasiRat) -> str:
    parts = []
    if not q.scale.is_one():
        text = render_scalar(q.scale)
        parts.append(text if _plain(text) and "/" not in text else _paren(text))
    for base, exponent in q.factors:
        btxt = _base_str(base, not exponent.is_one())
        if exponent.is_one():
            parts.append(btxt)
        else:
            etxt = render_scalar(exponent)
            parts.append(f"{btxt}^{etxt}" if _is_atomic(etxt) else f"{btxt}^{_paren(etxt)}")
    if not q.exp_part.is_zero():
        parts.append(f"exp({render_xpoly(q.exp_part)})")
    return "*".join(parts) if parts else "1"
