"""Exact scalar arithmetic: big rationals, parametric polynomials and
their fraction field, plus fraction-free linear algebra.

Every coefficient appearing elsewhere in the package is a
:class:`ParamScalar`: a quotient of two :class:`MPoly` values, i.e.
multivariate polynomials over exact rationals in named parameters
(``k``, ``a``, ``b``, ...).  A parameter may carry a quadratic relation
``p**2 -> r`` with rational ``r``; the predeclared names ``sqrt2``,
``sqrt3`` and ``i`` rewrite to 2, 3 and -1, which covers every
algebraic constant needed by the built-in solution catalogs.

Polynomials are stored expanded, so zero testing is structural and
never wrong.  Fractions are deliberately *not* reduced by multivariate
gcd: normalisation cancels integer content, the sign of the
denominator and common monomial factors, nothing more.  Equality of
fractions is decided by cross-multiplication, which only needs
polynomial zero testing.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

try:
    from gmpy2 import mpq as Rat
except ImportError:  # gmpy2 is the optional "fast" extra; Fraction is the pure-Python backend
    from fractions import Fraction as Rat

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)

# "x" is the distinguished function variable and may never be a parameter.
_RESERVED_NAMES = {"x", "exp", "D"}

# name -> rational value of the parameter's square
_relations: dict[str, Rat] = {}


class ExactError(ValueError):
    """Raised for ill-formed exact-arithmetic requests (zero denominators etc.)."""


@dataclass(frozen=True)
class Param:
    """A named scalar parameter; ``relation`` is the rational value of its square, if any."""

    name: str
    relation: object = None


def check_param_name(name: str) -> None:
    """Raise ExactError unless ``name`` can name a parameter."""
    if not name.isidentifier():
        raise ExactError(f"invalid parameter name {name!r}")
    if name in _RESERVED_NAMES:
        raise ExactError(f"{name!r} is reserved and cannot be a parameter")


def _is_rational_square(q: Rat) -> bool:
    n, d = int(q.numerator), int(q.denominator)
    return n >= 0 and math.isqrt(n) ** 2 == n and math.isqrt(d) ** 2 == d


def declare_param(name: str, relation=None) -> Param:
    """Register a parameter name, optionally with a quadratic relation p**2 = relation.

    Re-declaring a name is allowed only with the identical relation.  A new
    relation value r is rejected when r times a product of declared relation
    values (the empty product included) is a rational square: p would then
    be a product of the other roots up to a rational, and p minus that
    product a zero divisor.  Relations that pass keep the coefficient ring a
    field of degree 2**n over Q(free parameters).
    """
    check_param_name(name)
    rel = None if relation is None else Rat(relation)
    old = _relations.get(name)
    if rel is None:
        if old is not None:
            raise ExactError(f"parameter {name!r} already declared with relation {old}")
    elif old is None:
        products = [rel]
        for other in _relations.values():
            products += [q * other for q in products]
        if any(_is_rational_square(q) for q in products):
            raise ExactError(f"relation {name}^2 = {rel} creates zero divisors: {rel} times "
                             "a product of declared relation values is a rational square")
        _relations[name] = rel
    elif old != rel:
        raise ExactError(f"parameter {name!r} already declared with relation {old}")
    return Param(name, rel)


def relation_of(name: str):
    """The rational square of a relation-bearing parameter, or None."""
    return _relations.get(name)


declare_param("sqrt2", 2)
declare_param("sqrt3", 3)
declare_param("i", -1)


# Refutation by specialisation maps values to GF(MOD_P) at one fixed point;
# see MPoly.evaluate_mod.
MOD_P = (1 << 61) - 1


@functools.lru_cache(maxsize=None)
def mod_p_residue(name: str) -> int:
    """The residue of parameter ``name`` at the fixed point.

    The name's bytes, read as an integer, raised to the power 65537: the same
    in every process and call order, and with no low-degree relation between
    the residues of names such as ``a1`` and ``a2``.
    """
    return pow(int.from_bytes(name.encode(), "big"), 65537, MOD_P)


# A monomial key is a tuple of (name, exponent) pairs, sorted by name,
# with all exponents >= 1 and relation-bearing exponents <= 1.
_EMPTY_KEY: tuple = ()


def _normalize_key(key):
    """Fold relation-bearing exponents out of a raw key; returns (key, scale)."""
    scale = RAT_ONE
    out = []
    for name, exp in key:
        rel = _relations.get(name)
        if rel is not None and exp >= 2:
            scale *= rel ** (exp // 2)
            exp %= 2
        if exp:
            out.append((name, exp))
    return tuple(out), scale


def _mul_keys(k1, k2):
    """Merge two sorted monomial keys; returns (key, scale) after relation folding."""
    if not k1:
        return k2, RAT_ONE
    if not k2:
        return k1, RAT_ONE
    out = []
    scale = RAT_ONE
    i = j = 0
    n1, n2 = len(k1), len(k2)
    while i < n1 and j < n2:
        name1, e1 = k1[i]
        name2, e2 = k2[j]
        if name1 == name2:
            e = e1 + e2
            rel = _relations.get(name1)
            if rel is not None and e >= 2:
                scale *= rel ** (e // 2)
                e %= 2
            if e:
                out.append((name1, e))
            i += 1
            j += 1
        elif name1 < name2:
            out.append(k1[i])
            i += 1
        else:
            out.append(k2[j])
            j += 1
    out.extend(k1[i:])
    out.extend(k2[j:])
    return tuple(out), scale


def _key_sort(key):
    # graded order: total degree first, then the key tuple itself
    return (sum(e for _, e in key), key)


class MPoly:
    """Multivariate polynomial over the rationals in named parameters.

    Stored as a map from monomial key to nonzero rational coefficient,
    always in expanded canonical form: ``is_zero`` is an O(1) check.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        self.terms = terms if terms is not None else {}

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls):
        return _MP_ZERO

    @classmethod
    def one(cls):
        return _MP_ONE

    @classmethod
    def const(cls, value) -> "MPoly":
        q = Rat(value)
        return cls({_EMPTY_KEY: q}) if q else cls({})

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "MPoly":
        if name in _RESERVED_NAMES:
            raise ExactError(f"{name!r} is reserved and cannot be a parameter")
        key, scale = _normalize_key(((name, exp),))
        return cls({key: scale})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and _EMPTY_KEY in self.terms)

    def const_value(self) -> Rat:
        if not self.terms:
            return RAT_ZERO
        if self.is_constant():
            return self.terms[_EMPTY_KEY]
        raise ExactError(f"not a constant polynomial: {self}")

    def params(self) -> set:
        names = set()
        for key in self.terms:
            for name, _ in key:
                names.add(name)
        return names

    def degree(self, name: str | None = None) -> int:
        """Total degree, or degree in one parameter; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        if name is None:
            return max(sum(e for _, e in key) for key in self.terms)
        best = 0
        for key in self.terms:
            for n, e in key:
                if n == name and e > best:
                    best = e
        return best

    # -- arithmetic ----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.terms == other.terms
        if isinstance(other, (int, Rat)):
            return self.terms == MPoly.const(other).terms
        return NotImplemented

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    def __neg__(self):
        return MPoly({k: -c for k, c in self.terms.items()})

    def __add__(self, other):
        if isinstance(other, (int, Rat)):
            other = MPoly.const(other)
        elif not isinstance(other, MPoly):
            return NotImplemented
        if not self.terms:
            return other
        if not other.terms:
            return self
        out = dict(self.terms)
        for key, c in other.terms.items():
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                acc = acc + c
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return MPoly(out)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Rat)):
            other = MPoly.const(other)
        elif not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, q: Rat) -> "MPoly":
        if not q:
            return _MP_ZERO
        if q == 1:
            return self
        return MPoly({k: c * q for k, c in self.terms.items()})

    def _univar(self):
        """The single parameter this polynomial uses, if it is univariate
        in one relation-free name; '' for constants; None otherwise."""
        name = ""
        for key in self.terms:
            if not key:
                continue
            if len(key) > 1:
                return None
            n = key[0][0]
            if name == "":
                if n in _relations:
                    return None
                name = n
            elif n != name:
                return None
        return name

    def __mul__(self, other):
        if isinstance(other, (int, Rat)):
            return self._scaled(Rat(other))
        if not isinstance(other, MPoly):
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return _MP_ZERO
        if len(a) == 1:
            ((key, c),) = a.items()
            if not key:
                return other._scaled(c)
            return MPoly(_shift_terms(b, key, c))
        if len(b) == 1:
            ((key, c),) = b.items()
            if not key:
                return self._scaled(c)
            return MPoly(_shift_terms(a, key, c))
        ua = self._univar()
        if ua is not None:
            ub = other._univar()
            if ub is not None and (ua == ub or ua == "" or ub == ""):
                return _mul_univar(a, b, ua or ub)
        out: dict = {}
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                key, scale = _mul_keys(k1, k2)
                c = c1 * c2
                if scale != 1:
                    c *= scale
                acc = out.get(key)
                if acc is None:
                    out[key] = c
                else:
                    acc = acc + c
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
        return MPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ExactError("negative power of a polynomial")
        result = _MP_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- structure -----------------------------------------------------

    def content(self) -> Rat:
        """Positive rational c such that self/c has coprime integer coefficients."""
        if not self.terms:
            return RAT_ONE
        num_gcd = 0
        den_lcm = 1
        for c in self.terms.values():
            p, q = int(c.numerator), int(c.denominator)
            num_gcd = math.gcd(num_gcd, p)
            den_lcm = den_lcm // math.gcd(den_lcm, q) * q
        return Rat(num_gcd, den_lcm)

    def lead_key(self):
        return max(self.terms, key=_key_sort)

    def lead_coeff(self) -> Rat:
        return self.terms[self.lead_key()]

    def monomial_gcd(self):
        """(key, content): the largest monomial-with-content dividing every term."""
        key = None
        for k in self.terms:
            if key is None:
                key = dict(k)
            else:
                for name in list(key):
                    e = 0
                    for n, ee in k:
                        if n == name:
                            e = ee
                            break
                    if e < key[name]:
                        if e:
                            key[name] = e
                        else:
                            del key[name]
                if not key:
                    break
        key = tuple(sorted(key.items())) if key else _EMPTY_KEY
        return key, self.content()

    def div_monomial(self, key, c: Rat) -> "MPoly":
        """Exact division by c * monomial(key); every term must be divisible."""
        if key == _EMPTY_KEY and c == 1:
            return self
        inv = 1 / c
        out = {}
        for k, coeff in self.terms.items():
            if key:
                kk = dict(k)
                for name, e in key:
                    left = kk.get(name, 0) - e
                    if left < 0:
                        raise ExactError("monomial does not divide every term")
                    if left:
                        kk[name] = left
                    else:
                        kk.pop(name, None)
                k = tuple(sorted(kk.items()))
            out[k] = coeff * inv
        return MPoly(out)

    def substitute(self, mapping: dict) -> "MPoly":
        """Replace parameters by polynomials or rationals; unmapped names stay."""
        out = _MP_ZERO
        for key, c in self.terms.items():
            term = MPoly.const(c)
            for name, e in key:
                if name in mapping:
                    value = mapping[name]
                    if not isinstance(value, MPoly):
                        value = MPoly.const(value)
                    term = term * value ** e
                else:
                    term = term * MPoly.var(name, e)
            out = out + term
        return out

    def substitute_scalar(self, mapping: dict) -> "ParamScalar":
        """Like substitute, but values may also be ParamScalar fractions."""
        out = PS_ZERO
        for key, c in self.terms.items():
            term = ParamScalar.const(c)
            for name, e in key:
                value = mapping.get(name)
                if value is None:
                    term = term * ParamScalar.from_poly(MPoly.var(name, e))
                else:
                    if not isinstance(value, ParamScalar):
                        value = ParamScalar.from_poly(value) if isinstance(value, MPoly) \
                            else ParamScalar.const(value)
                    term = term * value ** e
            out = out + term
        return out

    def evaluate(self, point: dict) -> Rat:
        """Evaluate at rational parameter values; every used name must be given."""
        total = RAT_ZERO
        for key, c in self.terms.items():
            v = c
            for name, e in key:
                v *= Rat(point[name]) ** e
            total += v
        return total

    def evaluate_mod(self):
        """The image in GF(MOD_P) with every parameter at mod_p_residue(name).

        None when it is undefined: a relation-bearing parameter occurs (the
        point need not satisfy its relation), or a coefficient denominator is
        divisible by MOD_P.  Otherwise the map is a ring homomorphism on the
        polynomials it is defined for.
        """
        num, den = 0, 1
        for key, c in self.terms.items():
            v = int(c.numerator)
            for name, e in key:
                if name in _relations:
                    return None
                v = v * pow(mod_p_residue(name), e, MOD_P) % MOD_P
            d = int(c.denominator)
            num = (num * d + v * den) % MOD_P
            den = den * d % MOD_P
        if not den:
            return None
        return num * pow(den, -1, MOD_P) % MOD_P

    # -- rendering -------------------------------------------------------

    def __str__(self):
        return render_mpoly(self)

    def __repr__(self):
        return f"MPoly({self})"


def _shift_terms(terms: dict, key, c: Rat) -> dict:
    out = {}
    for k, coeff in terms.items():
        kk, scale = _mul_keys(k, key)
        v = coeff * c if scale == 1 else coeff * c * scale
        acc = out.get(kk)
        if acc is None:
            out[kk] = v
        else:
            acc = acc + v
            if acc:
                out[kk] = acc
            else:
                del out[kk]
    return out


def _mul_univar(a: dict, b: dict, name: str) -> MPoly:
    da = max((k[0][1] if k else 0) for k in a)
    db = max((k[0][1] if k else 0) for k in b)
    dense = [RAT_ZERO] * (da + db + 1)
    aa = [(k[0][1] if k else 0, c) for k, c in a.items()]
    bb = [(k[0][1] if k else 0, c) for k, c in b.items()]
    for ea, ca in aa:
        for eb, cb in bb:
            dense[ea + eb] += ca * cb
    out = {}
    for e, c in enumerate(dense):
        if c:
            out[((name, e),) if e else _EMPTY_KEY] = c
    return MPoly(out)


_MP_ZERO = MPoly({})
_MP_ONE = MPoly({_EMPTY_KEY: RAT_ONE})


class ParamScalar:
    """Element of the coefficient field: a fraction of two MPoly values.

    The denominator is normalised to have coprime integer coefficients
    and positive leading sign; common monomial factors (with content)
    of numerator and denominator are cancelled.  No multivariate gcd is
    attempted, so representations are not canonical: equality cross-
    multiplies and tests the difference for zero.
    """

    __slots__ = ("num", "den")

    def __init__(self, num: MPoly, den: MPoly = _MP_ONE, _normalize: bool = True):
        if den.is_zero():
            raise ExactError("division by zero polynomial")
        if _normalize:
            num, den = _normalize_fraction_parts(num, den)
        self.num = num
        self.den = den

    # -- constructors --------------------------------------------------

    @classmethod
    def const(cls, value) -> "ParamScalar":
        return cls(MPoly.const(value), _MP_ONE, _normalize=False)

    @classmethod
    def var(cls, name: str) -> "ParamScalar":
        return cls(MPoly.var(name), _MP_ONE, _normalize=False)

    @classmethod
    def from_poly(cls, p: MPoly) -> "ParamScalar":
        return cls(p, _MP_ONE, _normalize=False)

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_one(self) -> bool:
        return self.num.terms == self.den.terms

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def const_value(self) -> Rat:
        return self.num.const_value() / self.den.const_value()

    def params(self) -> set:
        return self.num.params() | self.den.params()

    # -- arithmetic ----------------------------------------------------

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.den is other.den or self.den.terms == other.den.terms:
            return self.num.terms == other.num.terms
        return (self.num * other.den - other.num * self.den).is_zero()

    def __neg__(self):
        return ParamScalar(-self.num, self.den, _normalize=False)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.den is _MP_ONE and other.den is _MP_ONE:
            return ParamScalar(self.num + other.num, _MP_ONE, _normalize=False)
        if self.den.terms == other.den.terms:
            return ParamScalar(self.num + other.num, self.den)
        return ParamScalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.den is _MP_ONE and other.den is _MP_ONE:
            return ParamScalar(self.num - other.num, _MP_ONE, _normalize=False)
        if self.den.terms == other.den.terms:
            return ParamScalar(self.num - other.num, self.den)
        return ParamScalar(self.num * other.den - other.num * self.den, self.den * other.den)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.den is _MP_ONE and other.den is _MP_ONE:
            return ParamScalar(self.num * other.num, _MP_ONE, _normalize=False)
        return ParamScalar(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if other.num.is_zero():
            raise ExactError("division by zero polynomial")
        return ParamScalar(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return _coerce(other) / self

    def invert(self) -> "ParamScalar":
        if self.num.is_zero():
            raise ExactError("division by zero polynomial")
        return ParamScalar(self.den, self.num)

    def __pow__(self, n: int):
        if n == 0:
            return PS_ONE
        if n < 0:
            return self.invert() ** (-n)
        return ParamScalar(self.num ** n, self.den ** n)

    def substitute(self, mapping: dict) -> "ParamScalar":
        if any(isinstance(v, ParamScalar) for v in mapping.values()):
            num = self.num.substitute_scalar(mapping)
            den = self.den.substitute_scalar(mapping)
            return num / den
        return ParamScalar(self.num.substitute(mapping), self.den.substitute(mapping))

    def evaluate(self, point: dict) -> Rat:
        den = self.den.evaluate(point)
        if not den:
            raise ExactError("denominator vanishes at evaluation point")
        return self.num.evaluate(point) / den

    def evaluate_mod(self):
        """The image in GF(MOD_P) at the fixed point of MPoly.evaluate_mod, or
        None when num or den has none or den maps to 0."""
        if self.den is _MP_ONE:
            return self.num.evaluate_mod()
        den = self.den.evaluate_mod()
        if not den:
            return None
        num = self.num.evaluate_mod()
        return None if num is None else num * pow(den, -1, MOD_P) % MOD_P

    def __str__(self):
        return render_scalar(self)

    def __repr__(self):
        return f"ParamScalar({self})"

    __hash__ = None


def _coerce(value):
    if isinstance(value, ParamScalar):
        return value
    if isinstance(value, (int, Rat)):
        return ParamScalar.const(value)
    if isinstance(value, MPoly):
        return ParamScalar.from_poly(value)
    return None


def _normalize_fraction_parts(num: MPoly, den: MPoly):
    if num.is_zero():
        return _MP_ZERO, _MP_ONE
    if den.is_constant():
        c = den.const_value()
        if c == 1:
            return num, den
        return num._scaled(1 / c), _MP_ONE
    nk, nc = num.monomial_gcd()
    dk, dc = den.monomial_gcd()
    common = []
    nk_d, dk_d = dict(nk), dict(dk)
    for name, e in nk_d.items():
        if name in dk_d:
            common.append((name, min(e, dk_d[name])))
    common = tuple(sorted(common))
    if common != _EMPTY_KEY or dc != 1:
        num = num.div_monomial(common, dc)
        den = den.div_monomial(common, dc)
        if den.is_constant():
            return _normalize_fraction_parts(num, den)
    if den.lead_coeff() < 0:
        num, den = -num, -den
    return num, den


def normalize_fraction(num: MPoly, den: MPoly) -> ParamScalar:
    """Content/sign-normalised fraction num/den; the value is unchanged."""
    return ParamScalar(num, den)


def is_zero(s: ParamScalar) -> bool:
    """True iff the numerator expands to the zero polynomial."""
    return s.is_zero()


PS_ZERO = ParamScalar.const(0)
PS_ONE = ParamScalar.const(1)


# ---------------------------------------------------------------------------
# fraction-free linear algebra
# ---------------------------------------------------------------------------


@dataclass
class NullspaceResult:
    """Right-nullspace basis plus the generic-nonvanishing pivot assumptions."""

    basis: list
    assumptions: list

    def __iter__(self):
        return iter((self.basis, self.assumptions))


def nullspace(matrix) -> NullspaceResult:
    """Basis of the right nullspace of a rectangular ParamScalar matrix.

    Elimination is Bareiss-style fraction-free over the row-cleared
    MPoly numerators; every non-constant pivot is recorded as a
    "generic nonvanishing" assumption.  Falls back to ordinary field
    elimination when relation-bearing parameters are present (Bareiss
    exact division is only guaranteed over a polynomial ring).
    """
    rows = [list(r) for r in matrix]
    if rows:
        ncols = len(rows[0])
        for r in rows:
            if len(r) != ncols:
                raise ExactError("matrix is not rectangular")
    else:
        return NullspaceResult([], [])
    if ncols == 0:
        return NullspaceResult([], [])

    has_relation = any(name in _relations
                       for r in rows for entry in r for name in entry.params())
    if has_relation:
        return _nullspace_field(rows, ncols)
    cleared = [_clear_denominators(r) for r in rows]
    return _nullspace_bareiss(cleared, ncols)


def _clear_denominators(entries):
    """Scale a list of ParamScalar by the product of their denominators."""
    dens = [e.den for e in entries]
    n = len(entries)
    prefix = [_MP_ONE] * (n + 1)
    for idx, d in enumerate(dens):
        prefix[idx + 1] = prefix[idx] * d
    suffix = [_MP_ONE] * (n + 1)
    for idx in range(n - 1, -1, -1):
        suffix[idx] = suffix[idx + 1] * dens[idx]
    return [entries[idx].num * (prefix[idx] * suffix[idx + 1]) for idx in range(n)]


def mpoly_divexact(a: MPoly, b: MPoly) -> MPoly:
    """Exact multivariate division a/b; raises ExactError if not divisible.

    Relation-bearing parameters are rejected: leading-term division is
    only sound over a genuine polynomial ring.
    """
    if b.is_zero():
        raise ExactError("division by zero polynomial")
    if any(name in _relations for name in a.params() | b.params()):
        raise ExactError("exact division with relation-bearing parameters")
    if b.is_constant():
        return a._scaled(RAT_ONE / b.const_value())
    rem = dict(a.terms)
    out: dict = {}
    bk = max(b.terms, key=_key_sort)
    bc = b.terms[bk]
    b_items = list(b.terms.items())
    bk_d = dict(bk)
    while rem:
        rk = max(rem, key=_key_sort)
        rc = rem[rk]
        qk = dict(rk)
        for name, e in bk_d.items():
            left = qk.get(name, 0) - e
            if left < 0:
                raise ExactError("polynomials do not divide exactly")
            if left:
                qk[name] = left
            else:
                qk.pop(name, None)
        qk = tuple(sorted(qk.items()))
        qc = rc / bc
        out[qk] = qc
        for k, c in b_items:
            kk, scale = _mul_keys(qk, k)
            v = qc * c * scale
            acc = rem.get(kk)
            if acc is None:
                rem[kk] = -v
            else:
                acc = acc - v
                if acc:
                    rem[kk] = acc
                else:
                    del rem[kk]
    return MPoly(out)


def _pick_pivot(rows, row_ids, col):
    best = None
    best_rank = None
    for idx in row_ids:
        p = rows[idx][col]
        if p.is_zero():
            continue
        rank = (0 if p.is_constant() else 1, len(p.terms))
        if best_rank is None or rank < best_rank:
            best, best_rank = idx, rank
    return best


def _nullspace_bareiss(rows, ncols) -> NullspaceResult:
    assumptions = []
    nrows = len(rows)
    remaining = list(range(nrows))
    pivots = []  # (row index, col index)
    prev = _MP_ONE
    for col in range(ncols):
        idx = _pick_pivot(rows, remaining, col)
        if idx is None:
            continue
        remaining.remove(idx)
        piv = rows[idx][col]
        if not piv.is_constant() and all(piv != a for a in assumptions):
            assumptions.append(piv)
        for other in remaining:
            entry = rows[other][col]
            if entry.is_zero():
                row = rows[other]
                for j in range(col, ncols):
                    v = row[j] * piv
                    row[j] = mpoly_divexact(v, prev) if not prev.is_constant() else v._scaled(
                        RAT_ONE / prev.const_value())
            else:
                row = rows[other]
                prow = rows[idx]
                for j in range(col, ncols):
                    v = row[j] * piv - prow[j] * entry
                    row[j] = mpoly_divexact(v, prev) if not prev.is_constant() else v._scaled(
                        RAT_ONE / prev.const_value())
        pivots.append((idx, col))
        prev = piv
    return _back_substitute(rows, pivots, ncols, assumptions)


def _nullspace_field(rows, ncols) -> NullspaceResult:
    assumptions = []
    remaining = list(range(len(rows)))
    pivots = []
    for col in range(ncols):
        best = None
        best_rank = None
        for idx in remaining:
            p = rows[idx][col]
            if p.is_zero():
                continue
            rank = (0 if p.is_constant() else 1, len(p.num.terms))
            if best_rank is None or rank < best_rank:
                best, best_rank = idx, rank
        if best is None:
            continue
        remaining.remove(best)
        piv = rows[best][col]
        if not piv.is_constant() and all(piv.num != a for a in assumptions):
            assumptions.append(piv.num)
        for other in remaining:
            factor = rows[other][col]
            if factor.is_zero():
                continue
            ratio = factor / piv
            row, prow = rows[other], rows[best]
            for j in range(col, ncols):
                row[j] = row[j] - ratio * prow[j]
        pivots.append((best, col))
    ps_rows = rows
    return _back_substitute_ps(ps_rows, pivots, ncols, assumptions)


def _back_substitute(rows, pivots, ncols, assumptions) -> NullspaceResult:
    ps_rows = [[ParamScalar.from_poly(p) for p in rows[idx]] for idx, _ in pivots]
    ps_pivots = [(i, col) for i, (_, col) in enumerate(pivots)]
    return _back_substitute_ps(ps_rows, ps_pivots, ncols, assumptions, reindexed=True)


def _back_substitute_ps(rows, pivots, ncols, assumptions, reindexed=False) -> NullspaceResult:
    if not reindexed:
        rows = [rows[idx] for idx, _ in pivots]
        pivots = [(i, col) for i, (_, col) in enumerate(pivots)]
    pivot_cols = {col for _, col in pivots}
    free_cols = [c for c in range(ncols) if c not in pivot_cols]
    basis = []
    for free in free_cols:
        vec = [PS_ZERO] * ncols
        vec[free] = PS_ONE
        for i, col in reversed(pivots):
            row = rows[i]
            acc = PS_ZERO
            for j in range(col + 1, ncols):
                if not vec[j].is_zero() and not row[j].is_zero():
                    acc = acc + row[j] * vec[j]
            vec[col] = -acc / row[col]
        basis.append(_tidy_vector(vec))
    return NullspaceResult(basis, assumptions)


def _rat_gcd(a: Rat, b: Rat) -> Rat:
    num = math.gcd(int(a.numerator), int(b.numerator))
    da, db = int(a.denominator), int(b.denominator)
    return Rat(num, da // math.gcd(da, db) * db)


def _tidy_vector(vec):
    """Clear denominators and divide out common content/monomial factors."""
    polys = _clear_denominators(vec)
    common_key = None
    content = None
    for p in polys:
        if p.is_zero():
            continue
        k, c = p.monomial_gcd()
        content = c if content is None else _rat_gcd(content, c)
        kd = dict(k)
        if common_key is None:
            common_key = kd
        else:
            for name in list(common_key):
                e = kd.get(name, 0)
                if e < common_key[name]:
                    if e:
                        common_key[name] = e
                    else:
                        del common_key[name]
    if content is None:
        content = RAT_ONE
    key = tuple(sorted(common_key.items())) if common_key else _EMPTY_KEY
    out = []
    for p in polys:
        if p.is_zero():
            out.append(PS_ZERO)
        else:
            out.append(ParamScalar.from_poly(p.div_monomial(key, content)))
    return out


# ---------------------------------------------------------------------------
# rendering (kept next to the types; the parser in expr.py accepts this form)
# ---------------------------------------------------------------------------


def render_rat(q: Rat) -> str:
    return str(q)


def _render_monomial(key) -> str:
    parts = []
    for name, e in key:
        parts.append(name if e == 1 else f"{name}^{e}")
    return "*".join(parts)


def render_mpoly(p: MPoly) -> str:
    if not p.terms:
        return "0"
    items = sorted(p.terms.items(), key=lambda kv: _key_sort(kv[0]), reverse=True)
    chunks = []
    for n, (key, c) in enumerate(items):
        mono = _render_monomial(key)
        neg = c < 0
        mag = -c if neg else c
        if not mono:
            body = render_rat(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{render_rat(mag)}*{mono}"
        if n == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f" - {body}" if neg else f" + {body}")
    return "".join(chunks)


def _is_atomic(text: str) -> bool:
    return (" " not in text and "+" not in text and "/" not in text
            and "*" not in text and not text.startswith("-"))


def render_scalar(s: ParamScalar) -> str:
    if s.den.is_constant() and s.den.const_value() == 1:
        num = s.num
        c = num.content()
        if not num.is_constant() and c.denominator != 1:
            inner = render_mpoly(num._scaled(1 / c))
            top = inner if _is_atomic(inner) else f"({inner})"
            if c.numerator != 1:
                top = f"{c.numerator}*{top}"
            return f"{top}/{c.denominator}"
        return render_mpoly(num)
    num = render_mpoly(s.num)
    den = render_mpoly(s.den)
    ns = num if _is_atomic(num) else f"({num})"
    ds = den if _is_atomic(den) else f"({den})"
    return f"{ns}/{ds}"
