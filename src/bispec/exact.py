"""Exact scalar arithmetic: big rationals, parametric polynomials and
their fraction field, plus fraction-free linear algebra.

Every coefficient appearing elsewhere in the package is a
:class:`ParamScalar`: a quotient of two :class:`MPoly` values, i.e.
multivariate polynomials over exact rationals in named parameters
(``k``, ``a``, ``b``, ...).  A parameter may carry a quadratic relation
``p**2 -> r`` with integer ``r``; the predeclared names ``sqrt2``,
``sqrt3`` and ``i`` rewrite to 2, 3 and -1, which covers every
algebraic constant needed by the built-in solution catalogs.  An integer
value loses nothing: Q(sqrt(a/q)) = Q(sqrt(a*q)), the root of a/q being
sqrt(a*q)/q, and folding a relation into a product then stays int work.

An MPoly stores integer numerators over one shared positive denominator
(content times primitive part), so products and sums of polynomials are
plain ``int`` work; :data:`Rat` values are built only at the edges, where
a single coefficient or value is asked for, and for rendering.

A monomial is one int, a packed exponent vector (Monagan & Pearce 2007):
every parameter owns a fixed 16-bit field, 15 exponent bits under a guard
bit, so the key of a product is the sum of the keys and an exponent may
be at most 32767; a larger one raises :class:`ExactError`.  Names and
exponents are read back only to render, sort for display, substitute and
map to GF(p), and nothing is cached per key across calls.  Within one call,
rendering and the map to GF(p) split the fields a polynomial uses into
groups of three or four and memoise what each group's part of a key gives.

Field 0 belongs to x, the function variable, which is never a parameter:
``diffop.XPoly`` stores an x-polynomial as one MPoly whose keys carry the
x-degree in that field (so an x-degree too is at most 32767), over one
parameter-only MPoly denominator.  The ``x_*`` methods of MPoly are the
kernels it works with; every other MPoly holds no x.

Polynomials are stored expanded, so zero testing is structural and
never wrong.  Fractions are deliberately *not* reduced by multivariate
gcd: normalisation cancels integer content, the sign of the denominator
and common monomial factors, and rationalises the relation-bearing
parameters of the denominator's monomial factor, nothing more.  Equality
of fractions is decided by cross-multiplication, which only needs
polynomial zero testing.
"""

from __future__ import annotations

import math
from collections import namedtuple

from fractions import Fraction as Rat

RAT_ZERO = Rat(0)
RAT_ONE = Rat(1)

# "x" is the distinguished function variable and may never be a parameter.
_RESERVED_NAMES = {"x", "exp", "D"}

# A packed monomial key gives each parameter a _FIELD-bit field: the exponent
# in the low 15 bits, a guard bit on top.  The constant monomial is key 0.
# Field 0 is x's: an x-degree is key & _FIELD_MASK.
_FIELD = 16
_FIELD_MASK = (1 << _FIELD) - 1
EXP_MAX = (1 << 15) - 1


class ExactError(ValueError):
    """Raised for ill-formed exact-arithmetic requests (zero denominators etc.)."""


# Refutation by specialisation maps values to GF(MOD_P) at one fixed point;
# see MPoly.evaluate_mod.
MOD_P = (1 << 61) - 1


def mod_p_residue(name: str) -> int:
    """The residue of parameter ``name`` at the fixed point.

    The name's bytes, read as an integer, raised to the power 65537: the same
    in every process and call order, and with no low-degree relation between
    the residues of names such as ``a1`` and ``a2``.  ParamRegistry keeps the
    powers of the residue of each name it hands a field (see _powers_mod).
    """
    return pow(int.from_bytes(name.encode(), "big"), 65537, MOD_P)


class ParamRegistry:
    """The parameters of the process: each name's field in a packed monomial
    key, and the quadratic relations.

    A name gets the next free field the first time it is used and keeps it
    for the life of the process.  Live MPoly values hold packed keys, so a
    field handed to another name would silently rename their parameter:
    relations may be saved and restored, field assignments never are.
    Field 0 is x's from the start; x never gets a relation.
    """

    def __init__(self):
        self.shifts: dict[str, int] = {}  # name -> bit offset of its field
        self.names: list[str] = ["x"]  # field index -> name
        self.guard = 1 << (_FIELD - 1)  # the guard bit of every field handed out
        self.relations: dict[str, int] = {}  # name -> the int value of its square
        # lowest bit of a relation-bearing field -> that value
        self.rel_values: dict[int, int] = {}
        # the lowest bit of every relation-bearing field; such a field holds 0 or 1
        self.relmask = 0
        # field index -> [1, r, r**2, ...] in GF(MOD_P), r = mod_p_residue(name);
        # x is never mapped, so its list stays [1]
        self.powers: list[list[int]] = [[1]]

    def shift(self, name: str) -> int:
        """The bit offset of name's field, handing out the next one on first use."""
        s = self.shifts.get(name)
        if s is None:
            s = self.shifts[name] = _FIELD * len(self.names)
            self.names.append(name)
            self.powers.append([1, mod_p_residue(name)])
            self.guard |= 1 << (s + _FIELD - 1)
        return s

    def add_relation(self, name: str, rel: int) -> None:
        bit = 1 << self.shift(name)
        self.relations[name] = self.rel_values[bit] = rel
        self.relmask |= bit

    def save_relations(self):
        return dict(self.relations), dict(self.rel_values), self.relmask

    def restore_relations(self, saved) -> None:
        relations, rel_values, self.relmask = saved
        self.relations, self.rel_values = dict(relations), dict(rel_values)


PARAMS = ParamRegistry()


def check_param_name(name: str) -> None:
    """Raise ExactError unless ``name`` can name a parameter."""
    if not name.isidentifier():
        raise ExactError(f"invalid parameter name {name!r}")
    if name in _RESERVED_NAMES:
        raise ExactError(f"{name!r} is reserved and cannot be a parameter")


def _is_square(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def declare_param(name: str, relation=None) -> None:
    """Register a parameter name, optionally with a quadratic relation p**2 = relation.

    The relation value must be an integer, which loses no field (a root of
    a/q is sqrt(a*q)/q, so the relation a*q covers it); any other value raises
    ExactError.  Re-declaring a name is allowed only with the identical
    relation.  A new relation value r is rejected when r times a product of
    declared relation values (the empty product included) is a square: p
    would then be a product of the other roots up to a rational, and p minus
    that product a zero divisor.  Relations that pass keep the coefficient ring a
    field of degree 2**n over Q(free parameters).  A relation is also
    refused for a name already in use as a free parameter: live values may
    hold it squared, which a relation-bearing field cannot.
    """
    check_param_name(name)
    rel = None if relation is None else Rat(relation)
    if rel is not None:
        if rel.denominator != 1:
            raise ExactError(f"relation {name}^2 = {rel}: the value must be an integer")
        rel = int(rel)
    old = PARAMS.relations.get(name)
    if rel is None:
        if old is not None:
            raise ExactError(f"parameter {name!r} already declared with relation {old}")
    elif old is None:
        products = [rel]
        for other in PARAMS.relations.values():
            products += [q * other for q in products]
        if any(_is_square(q) for q in products):
            raise ExactError(f"relation {name}^2 = {rel} creates zero divisors: {rel} times "
                             "a product of declared relation values is a square")
        if name in PARAMS.shifts:
            raise ExactError(f"parameter {name!r} is already in use without a relation")
        PARAMS.add_relation(name, rel)
    elif old != rel:
        raise ExactError(f"parameter {name!r} already declared with relation {old}")


def relation_of(name: str):
    """The int square of a relation-bearing parameter, or None."""
    return PARAMS.relations.get(name)


declare_param("sqrt2", 2)
declare_param("sqrt3", 3)
declare_param("i", -1)


# -- packed monomial keys ------------------------------------------------------
# A field never changes its name (see ParamRegistry), so a key means the same
# monomial for the life of the process.  Nothing is cached per key across
# calls: in one CLI process most keys are met only once or twice, so a memo
# would hold every key ever seen and be read seldom.  Within one call, the
# part of a key in a few fields repeats across the terms of a polynomial in
# many fields; _field_groups memoises those parts for that call alone.


def _field_shifts(key: int) -> list:
    """The bit offsets of the nonzero fields of key, lowest first."""
    out = []
    while key:
        s = (key & -key).bit_length() - 1
        s -= s % _FIELD
        out.append(s)
        key &= ~(_FIELD_MASK << s)
    return out


def _decode(key: int) -> tuple:
    """The (name, exponent) pairs of a packed key, sorted by name, exponents >= 1."""
    names = PARAMS.names
    return tuple(sorted((names[s // _FIELD], (key >> s) & _FIELD_MASK)
                        for s in _field_shifts(key)))


def _key_degree(key: int) -> int:
    return sum((key >> s) & _FIELD_MASK for s in _field_shifts(key))


def _key_sort(key: int):
    """Display order: total degree first, then the decoded (name, exp) tuple.

    The tuples compare pair by pair, in name order, and a tuple that is a
    prefix of another ranks lower.  So at the first name where two keys
    differ, a larger exponent ranks higher; a zero exponent ranks above every
    nonzero one when the key has a nonzero exponent at some later name, and
    below every nonzero one when it has none.  Within one degree the second
    case cannot occur (the key with only zeros left has the lower degree),
    so there a zero exponent always ranks above every nonzero one:
    render_mpoly's sort code rests on that.  Not a monomial order (b > a,
    yet a*a > a*b); mpoly_divexact grades the packed int instead.
    """
    return (_key_degree(key), _decode(key))


def _powers_mod(shift: int, n: int, at=None) -> list:
    """A list whose entry e is r**e in GF(MOD_P) for e = 0 .. n at least, r
    the value ``at`` gives the field at bit offset ``shift``, else the
    residue of the field's name.  A value of ``at`` gets a list made for the
    call; a residue's list is the registry's, extended on demand, so it is
    bounded by the largest exponent ever mapped."""
    if at is not None and shift in at:
        powers, r = [1], at[shift]
        for _ in range(n):
            powers.append(powers[-1] * r % MOD_P)
        return powers
    powers = PARAMS.powers[shift // _FIELD]
    if len(powers) <= n:
        r = powers[1]
        for _ in range(n + 1 - len(powers)):
            powers.append(powers[-1] * r % MOD_P)
    return powers


def _key_or(terms) -> int:
    """The bitwise or of the keys: a field is nonzero iff some key uses it."""
    m = 0
    for k in terms:
        m |= k
    return m


# Fields per group, as measured fastest on gen-system's constraint systems
# (7-11 unknowns).
_RENDER_GROUP = 3
_IMAGE_GROUP = 4


class _PartMemo(dict):
    """part of a key -> make(part, group), computed the first time a part is
    looked up; made afresh by each call, so nothing outlives the call."""

    __slots__ = ("make", "group")

    def __missing__(self, part):
        value = self[part] = self.make(part, self.group)
        return value


def _field_groups(fields: list, size: int, make) -> list:
    """[(mask, memo)] for the consecutive groups of ``size`` of ``fields``,
    items whose first element is a field's bit offset: key & mask is the
    part of a key in the group's fields, and memo[part] is make(part, group).
    A term then costs a mask and a dict lookup per group, not a step per
    field."""
    groups = []
    for i in range(0, len(fields), size):
        memo = _PartMemo()
        memo.make, memo.group = make, fields[i:i + size]
        mask = 0
        for item in memo.group:
            mask |= _FIELD_MASK << item[0]
        groups.append((mask, memo))
    return groups


def _image_part(part: int, group: list) -> int:
    """The image in GF(MOD_P) of the monomial of a key's part; group holds
    (bit offset, the residue's powers) per field."""
    v = 1
    for s, powers in group:
        v = v * powers[(part >> s) & _FIELD_MASK] % MOD_P
    return v


def _key_min(a: int, b: int) -> int:
    """The field-wise minimum of two keys: the key of the monomial gcd."""
    g = PARAMS.guard
    # all ones in each field where a >= b; no field borrows from the next
    m = ((((a | g) - b) & g) >> (_FIELD - 1)) * _FIELD_MASK
    return a ^ ((a ^ b) & m)


def _overflow_error():
    return ExactError(f"an exponent of x or of a parameter exceeds {EXP_MAX}")


def _check_keys(keys, guard: int) -> None:
    """Raise ExactError if a key's exponent reached its guard bit."""
    for k in keys:
        if k & guard:
            raise _overflow_error()


def _fold_scale(f: int, rel_values: dict) -> int:
    """The product of the relation values of the fields in f, which has one
    bit per folded field (its lowest)."""
    scale = 1
    while f:
        low = f & -f
        scale *= rel_values[low]
        f ^= low
    return scale


def _normed(terms: dict, den: int) -> "MPoly":
    """terms / den as an MPoly, after dividing out the gcd of den and the numerators."""
    if not terms:
        return _MP_ZERO
    if den != 1:
        g = den
        for c in terms.values():
            g = math.gcd(g, c)
            if g == 1:
                break
        if g != 1:
            terms = {k: c // g for k, c in terms.items()}
            den //= g
    return MPoly(terms, den)


class MPoly:
    """Multivariate polynomial over the rationals in named parameters.

    Stored in expanded canonical form: ``terms`` maps each packed monomial
    key (an int; see the module docstring) to a nonzero int numerator, over
    one shared int ``den`` > 0 with gcd(den, every numerator) == 1, so the
    coefficient of a key is ``terms[key] / den``.  No key has a guard bit
    set, and a relation-bearing exponent is 0 or 1.  The zero polynomial has
    no terms and den 1.
    The form is unique, so ``==`` is structural and ``is_zero`` is an O(1)
    check.
    """

    __slots__ = ("terms", "den")

    def __init__(self, terms=None, den: int = 1):
        # the parts must already be normalised; _normed normalises them
        self.terms = terms if terms is not None else {}
        self.den = den

    # -- constructors --------------------------------------------------

    @classmethod
    def zero(cls):
        return _MP_ZERO

    @classmethod
    def one(cls):
        return _MP_ONE

    @classmethod
    def const(cls, value) -> "MPoly":
        if type(value) is int:
            return cls({0: value}) if value else _MP_ZERO
        q = Rat(value)
        n = int(q.numerator)
        return cls({0: n}, int(q.denominator)) if n else _MP_ZERO

    @classmethod
    def var(cls, name: str, exp: int = 1) -> "MPoly":
        if name in _RESERVED_NAMES:
            raise ExactError(f"{name!r} is reserved and cannot be a parameter")
        if exp < 0:
            raise ExactError(f"negative exponent {exp} of parameter {name!r}")
        p = 1
        rel = PARAMS.relations.get(name)
        if rel is not None and exp >= 2:
            p = rel ** (exp // 2)
            exp %= 2
        if exp > EXP_MAX:
            raise _overflow_error()
        return cls({exp << PARAMS.shift(name): p})

    # -- predicates ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_constant(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and 0 in self.terms)

    def const_value(self) -> Rat:
        if not self.terms:
            return RAT_ZERO
        if self.is_constant():
            return Rat(self.terms[0], self.den)
        raise ExactError(f"not a constant polynomial: {self}")

    def params(self) -> set:
        return {name for name, _ in _decode(_key_or(self.terms))}

    def degree(self, name: str | None = None) -> int:
        """Total degree, or degree in one parameter; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        if name is None:
            return max(_key_degree(key) for key in self.terms)
        s = PARAMS.shifts.get(name)
        if s is None:
            return 0
        return max((key >> s) & _FIELD_MASK for key in self.terms)

    def split_linear(self, name: str):
        """(lead, rest) with self = name * lead + rest, for self of degree
        at most 1 in name."""
        s = PARAMS.shifts.get(name)
        if s is None:
            return _MP_ZERO, self
        unit = 1 << s
        mask = _FIELD_MASK << s
        lead, rest = {}, {}
        for key, c in self.terms.items():
            e = key & mask
            if not e:
                rest[key] = c
            elif e == unit:
                lead[key - unit] = c
            else:
                raise ExactError(f"degree in {name!r} exceeds 1")
        return _normed(lead, self.den), _normed(rest, self.den)

    # -- x, the function variable (field 0 of every key) -------------------

    def has_params(self) -> bool:
        """True iff some key uses a parameter field."""
        return _key_or(self.terms) > _FIELD_MASK

    def x_degree(self) -> int:
        """The degree in x; -1 for the zero polynomial."""
        return max(map(_FIELD_MASK.__and__, self.terms), default=-1)

    def _x_parts(self) -> dict:
        """{x-degree: {key without x: int numerator}}."""
        parts: dict = {}
        for k, c in self.terms.items():
            d = k & _FIELD_MASK
            part = parts.get(d)
            if part is None:
                parts[d] = {k ^ d: c}
            else:
                part[k ^ d] = c
        return parts

    def x_slices(self) -> dict:
        """{d: the coefficient of x**d} in ascending d, each an MPoly without x."""
        parts, den = self._x_parts(), self.den
        return {d: _normed(parts[d], den) for d in sorted(parts)}

    def x_slice(self, deg: int) -> "MPoly":
        """The coefficient of x**deg, an MPoly without x."""
        return _normed({k ^ deg: c for k, c in self.terms.items() if k & _FIELD_MASK == deg},
                       self.den)

    def x_shift(self, deg: int) -> "MPoly":
        """self * x**deg for deg >= 0."""
        if not deg or not self.terms:
            return self
        if deg + self.x_degree() > EXP_MAX:
            raise _overflow_error()
        return MPoly({k + deg: c for k, c in self.terms.items()}, self.den)

    def x_derivative(self) -> "MPoly":
        """d/dx: each key loses one x unit, its numerator times the x-degree."""
        out = {}
        for k, c in self.terms.items():
            d = k & _FIELD_MASK
            if d:
                out[k - 1] = c * d
        return _normed(out, self.den)

    def int_list(self, shift: int = 0) -> list:
        """The int numerators of a polynomial in the one field at shift (x's
        by default), ascending in its exponent; the coefficients are these
        over den."""
        out = [0] * (self.degree() + 1)
        for k, c in self.terms.items():
            out[k >> shift] = c
        return out

    @classmethod
    def from_x_ints(cls, ints: list, den: int = 1) -> "MPoly":
        """sum_d ints[d] * x**d / den, for an int den != 0."""
        if den < 0:
            ints, den = [-v for v in ints], -den
        return _normed({d: v for d, v in enumerate(ints) if v}, den)

    def x_images_mod(self, den: int = 1, at=None):
        """The images in GF(MOD_P) of the coefficients of x**0, x**1, ... of
        self / den, for an int den (already an image), with every parameter at
        mod_p_residue(name), or at the value that ``at`` maps its field's bit
        offset to.

        None when that is undefined: a relation-bearing parameter occurs (the
        point need not satisfy its relation), or the denominator maps to 0.
        Otherwise the map is a ring homomorphism on the polynomials it is
        defined for.  Each field in use has a table of its residue's powers,
        or one of its value's powers made for the call (_powers_mod).
        With more than one parameter in use, the fields go in groups of
        _IMAGE_GROUP, and the image of each group's part of a key is memoised
        for the call (_field_groups).
        """
        den = self.den * den % MOD_P
        if not den:
            return None
        terms = self.terms
        used = _key_or(terms) >> _FIELD << _FIELD  # the parameter fields
        if used & PARAMS.relmask:
            return None
        out = [0] * (self.x_degree() + 1)
        top = (used.bit_length() - 1) // _FIELD * _FIELD
        if not used:
            for key, c in terms.items():
                out[key] += c
        elif used >> top << top == used:
            # one parameter: key >> top is its exponent
            powers = _powers_mod(top, used >> top, at)
            for key, c in terms.items():
                out[key & _FIELD_MASK] += c * powers[key >> top]
        else:
            fields = [(s, _powers_mod(s, (used >> s) & _FIELD_MASK, at))
                      for s in _field_shifts(used)]
            groups = _field_groups(fields, _IMAGE_GROUP, _image_part)
            for k, v in terms.items():
                for mask, memo in groups:
                    v = v * memo[k & mask] % MOD_P
                out[k & _FIELD_MASK] += v
        if den == 1:
            return [v % MOD_P for v in out]
        inv = pow(den, -1, MOD_P)
        return [v * inv % MOD_P for v in out]

    def x_divmod(self, b: "MPoly"):
        """(q, r) with self = q*b + r and r of lower x-degree than b, for b
        whose coefficient of its top power of x is 1.

        Works in place on self's x-slices, from the top down, over one int
        denominator; that grows only when a slice times b's lower terms
        (over b.den) is not integral.
        """
        dd = b.x_degree()
        reg = PARAMS
        relmask, rel_values, guard = reg.relmask, reg.rel_values, reg.guard
        rs = self._x_parts()
        lower = [(k & _FIELD_MASK, k & ~_FIELD_MASK, c) for k, c in b.terms.items()
                 if k & _FIELD_MASK < dd]
        bor = _key_or(pk for _, pk, _ in lower)
        bden, den = b.den, self.den
        qs: dict = {}
        for n in range(max(rs, default=-1), dd - 1, -1):
            top = rs.pop(n, None)
            if not top:
                continue
            tor = _key_or(top)
            fold = tor & bor & relmask
            if bden != 1:
                g = bden
                for c in top.values():
                    g = math.gcd(g, c)
                    if g == 1:
                        break
                scale = bden // g
                if scale != 1:
                    den *= scale
                    for part in (top, *rs.values(), *qs.values()):
                        for k in part:
                            part[k] *= scale
            check = (tor + bor) & guard
            s = n - dd
            for pk1, c1 in top.items():
                c1 //= bden
                for j, pk2, c2 in lower:
                    key = pk1 + pk2
                    v = c1 * c2
                    if fold:
                        f = pk1 & pk2 & fold
                        if f:
                            key -= f << 1
                            v *= _fold_scale(f, rel_values)
                    if check and key & guard:
                        raise _overflow_error()
                    part = rs.get(s + j)
                    if part is None:
                        rs[s + j] = {key: -v}
                        continue
                    acc = part.get(key)
                    if acc is None:
                        part[key] = -v
                    else:
                        acc -= v
                        if acc:
                            part[key] = acc
                        else:
                            del part[key]
            qs[s] = top  # b's top coefficient is 1: the quotient's slice is the top one
        q = {pk + d: c for d, part in qs.items() for pk, c in part.items()}
        r = {pk + d: c for d, part in rs.items() for pk, c in part.items()}
        return _normed(q, den), _normed(r, den)

    # -- arithmetic ----------------------------------------------------

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        if isinstance(other, MPoly):
            return self.den == other.den and self.terms == other.terms
        if isinstance(other, (int, Rat)):
            return self == MPoly.const(other)
        return NotImplemented

    __hash__ = None

    def __neg__(self):
        return MPoly({k: -c for k, c in self.terms.items()}, self.den)

    def __add__(self, other):
        if type(other) is not MPoly:
            if not isinstance(other, (int, Rat)):
                return NotImplemented
            other = MPoly.const(other)
        if not self.terms:
            return other
        if not other.terms:
            return self
        den, b = self.den, other.terms
        if den == other.den:
            out = dict(self.terms)
        else:
            # over lcm(den, other.den); a side whose factor is 1 is not rescaled
            g = math.gcd(den, other.den)
            sa, sb = other.den // g, den // g
            out = {k: c * sa for k, c in self.terms.items()} if sa != 1 else dict(self.terms)
            if sb != 1:
                b = {k: c * sb for k, c in b.items()}
            den *= sa
        for key, c in b.items():
            acc = out.get(key)
            if acc is None:
                out[key] = c
            else:
                acc = acc + c
                if acc:
                    out[key] = acc
                else:
                    del out[key]
        return _normed(out, den)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, (int, Rat)):
            other = MPoly.const(other)
        elif not isinstance(other, MPoly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def _scaled(self, q) -> "MPoly":
        """self * q for an int or Rat q."""
        if not q:
            return _MP_ZERO
        if isinstance(q, int):
            return self._times(q, 1)
        return self._times(int(q.numerator), int(q.denominator))

    def _times(self, p: int, r: int) -> "MPoly":
        """self * p / r for coprime ints p != 0 and r > 0.

        Of den * r and the numerators times p, only den and p, and r and
        the numerators, can share factors; two partial gcds find them all.
        """
        if p == r:
            return self
        den = self.den
        g = math.gcd(den, p)
        if g != 1:
            den //= g
            p //= g
        g = r
        for c in self.terms.values():
            if g == 1:
                break
            g = math.gcd(g, c)
        if g != 1:
            r //= g
            return MPoly({k: c // g * p for k, c in self.terms.items()}, den * r)
        return MPoly({k: c * p for k, c in self.terms.items()}, den * r)

    def _univar(self):
        """The bit offset of the one relation-free field every non-constant
        key uses; None if there is no such field."""
        shift = None
        for key in self.terms:
            if not key:
                continue
            if shift is None:
                shift = (key.bit_length() - 1) // _FIELD * _FIELD
                if (1 << shift) & PARAMS.relmask:
                    return None
            e = key >> shift
            if e > _FIELD_MASK or e << shift != key:
                return None
        return shift

    def __mul__(self, other):
        if type(other) is not MPoly:
            if isinstance(other, (int, Rat)):
                return self._scaled(other)
            return NotImplemented
        a, b = self.terms, other.terms
        if not a or not b:
            return _MP_ZERO
        if len(a) == 1:
            ((key, c),) = a.items()
            if not key:
                return other._times(c, self.den)
            return _shift_terms(b, key, c, self.den * other.den)
        if len(b) == 1:
            ((key, c),) = b.items()
            if not key:
                return self._times(c, other.den)
            return _shift_terms(a, key, c, self.den * other.den)
        ua = self._univar()
        if ua is not None and ua == other._univar():
            return _mul_univar(a, b, ua, self.den * other.den)
        reg = PARAMS
        ora, orb = _key_or(a), _key_or(b)
        # the relation-bearing fields both factors use; only these can fold
        fold = ora & orb & reg.relmask
        rel_values = reg.rel_values
        out: dict = {}
        get = out.get
        for k1, c1 in a.items():
            for k2, c2 in b.items():
                key = k1 + k2
                c = c1 * c2
                if fold:
                    f = k1 & k2 & fold
                    if f:
                        key -= f << 1
                        c *= _fold_scale(f, rel_values)
                acc = get(key)
                if acc is None:
                    out[key] = c
                else:
                    acc += c
                    if acc:
                        out[key] = acc
                    else:
                        del out[key]
        # each field of ora + orb bounds that field of every product key, and
        # no field carries into the next: with no guard bit there, out has none
        if (ora + orb) & reg.guard:
            _check_keys(out, reg.guard)
        return _normed(out, self.den * other.den)

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

    def int_content(self) -> int:
        """gcd of the int numerators, 0 for the zero polynomial; the content is this over den."""
        g = 0
        for c in self.terms.values():
            g = math.gcd(g, c)
            if g == 1:
                break
        return g

    def content(self) -> Rat:
        """Positive rational c such that self/c has coprime integer coefficients."""
        if not self.terms:
            return RAT_ONE
        return Rat(self.int_content(), self.den)

    def lead_key(self) -> int:
        """The key of the first term in display order (see _key_sort)."""
        return max(self.terms, key=_key_sort)

    def lead_coeff(self) -> Rat:
        return Rat(self.terms[self.lead_key()], self.den)

    def monomial_gcd(self, start: int | None = None) -> int:
        """The key of the largest monomial dividing every term and, when
        given, monomial(start); the scan stops once that key is 0."""
        if 0 in self.terms:
            return 0
        keys = iter(self.terms)
        key = next(keys, 0) if start is None else start
        g = PARAMS.guard
        for k in keys:
            if not key:
                break
            # _key_min(key, k), inlined
            m = ((((key | g) - k) & g) >> (_FIELD - 1)) * _FIELD_MASK
            key ^= (key ^ k) & m
        return key

    def div_monomial(self, key: int, p: int, q: int) -> "MPoly":
        """Exact division by (p/q) * monomial(key) for coprime ints p, q > 0;
        every term must be divisible by the monomial."""
        poly = self
        if key:
            g = PARAMS.guard
            out = {}
            for k, coeff in self.terms.items():
                # a field keeps its guard bit iff it is at least key's
                d = (k | g) - key
                if d & g != g:
                    raise ExactError("monomial does not divide every term")
                out[d ^ g] = coeff
            poly = MPoly(out, self.den)
        return poly._times(q, p)

    def substitute_scalar(self, mapping: dict) -> "ParamScalar":
        """Replace parameters by ParamScalar, MPoly or rational values; unmapped
        names stay."""
        out = PS_ZERO
        for key, c in self.terms.items():
            term = ParamScalar.from_poly(_normed({0: c}, self.den))
            for name, e in _decode(key):
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

    def evaluate_mod(self, at=None):
        """The image in GF(MOD_P) with every parameter at mod_p_residue(name)
        or at its value in ``at``, or None when undefined; see x_images_mod."""
        images = self.x_images_mod(at=at)
        if images is None:
            return None
        return images[0] if images else 0

    # -- rendering -------------------------------------------------------

    def __str__(self):
        return render_mpoly(self)

    def __repr__(self):
        return f"MPoly({self})"


def _shift_terms(terms: dict, key: int, c: int, den: int) -> MPoly:
    """The numerator map terms times c * monomial(key), over den.

    Adding key, with or without folds, maps distinct keys to distinct keys,
    so no two products meet.
    """
    reg = PARAMS
    ora = _key_or(terms)
    fold = ora & key & reg.relmask
    if not fold:
        out = {k + key: v * c for k, v in terms.items()}
    else:
        rel_values = reg.rel_values
        out = {}
        for k, v in terms.items():
            f = k & fold
            if f:
                out[k + key - (f << 1)] = v * c * _fold_scale(f, rel_values)
            else:
                out[k + key] = v * c
    if (ora + key) & reg.guard:
        _check_keys(out, reg.guard)
    return _normed(out, den)


def _mul_univar(a: dict, b: dict, shift: int, den: int) -> MPoly:
    """The product of two numerator maps in the one relation-free field at shift, over den."""
    aa = [(k >> shift, c) for k, c in a.items()]
    bb = [(k >> shift, c) for k, c in b.items()]
    top = max(e for e, _ in aa) + max(e for e, _ in bb)
    if top > EXP_MAX:
        raise _overflow_error()
    dense = [0] * (top + 1)
    for ea, ca in aa:
        for eb, cb in bb:
            dense[ea + eb] += ca * cb
    out = {}
    for e, c in enumerate(dense):
        if c:
            out[e << shift] = c
    return _normed(out, den)


_MP_ZERO = MPoly({})
_MP_ONE = MPoly({0: 1})


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
        return self.num == self.den

    def is_constant(self) -> bool:
        return self.num.is_constant() and self.den.is_constant()

    def const_value(self) -> Rat:
        value = self.num.const_value()
        return value if self.den is _MP_ONE else value / self.den.const_value()

    def params(self) -> set:
        return self.num.params() | self.den.params()

    # -- arithmetic ----------------------------------------------------

    def __bool__(self):
        return not self.num.is_zero()

    def __eq__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.den is other.den or self.den == other.den:
            return self.num == other.num
        return (self.num * other.den - other.num * self.den).is_zero()

    def __neg__(self):
        return ParamScalar(-self.num, self.den, _normalize=False)

    def __add__(self, other):
        other = _coerce(other)
        if other is None:
            return NotImplemented
        if self.den is _MP_ONE and other.den is _MP_ONE:
            return ParamScalar(self.num + other.num, _MP_ONE, _normalize=False)
        if self.den == other.den:
            return ParamScalar(self.num + other.num, self.den)
        return ParamScalar(self.num * other.den + other.num * self.den, self.den * other.den)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-other)

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
        return self.num.substitute_scalar(mapping) / self.den.substitute_scalar(mapping)

    def evaluate_mod(self, at=None):
        """The image in GF(MOD_P) at the point of MPoly.evaluate_mod(at), or
        None when num or den has none or den maps to 0."""
        if self.den is _MP_ONE:
            return self.num.evaluate_mod(at)
        den = self.den.evaluate_mod(at)
        if not den:
            return None
        num = self.num.evaluate_mod(at)
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
    """num / den with den primitive, of positive lead, sharing no monomial
    with num's parameter part and keeping no relation-bearing field in its
    monomial factor; a constant den becomes _MP_ONE.  num may hold x (its
    field never meets den's, which holds none)."""
    if num.is_zero():
        return _MP_ZERO, _MP_ONE
    if den.is_constant():
        (n,) = den.terms.values()
        if n == 1 and den.den == 1:
            return num, _MP_ONE
        # num / (n / den.den) = num * den.den / n
        return (num._times(den.den, n) if n > 0 else num._times(-den.den, -n)), _MP_ONE
    dk = den.monomial_gcd()
    common = num.monomial_gcd(dk) if dk else 0
    # den's content is g / den.den, two coprime ints
    g, dd = den.int_content(), den.den
    if common or g != 1 or dd != 1:
        num = num.div_monomial(common, g, dd)
        den = den.div_monomial(common, g, dd)
        if den.is_constant():
            return _normalize_fraction_parts(num, den)
    # the relation-bearing fields of den's monomial factor: times that
    # monomial, each folds to its rational value
    rational = (dk - common) & PARAMS.relmask
    if rational:
        return _normalize_fraction_parts(_shift_terms(num.terms, rational, 1, num.den),
                                         _shift_terms(den.terms, rational, 1, den.den))
    if den.terms[den.lead_key()] < 0:
        num, den = -num, -den
    return num, den


def denominator_cofactors(d1: MPoly, d2: MPoly) -> tuple:
    """(l1, l2) with d1*l1 == d2*l2, a common multiple of two denominators:
    the field-wise larger monomial factor, times the rest of d1 and the rest
    of d2 unless the two rests are equal."""
    m1, m2 = d1.monomial_gcd(), d2.monomial_gcd()
    m = m1 + m2 - _key_min(m1, m2)
    l1, l2 = MPoly({m - m1: 1}), MPoly({m - m2: 1})
    r1, r2 = d1.div_monomial(m1, 1, 1), d2.div_monomial(m2, 1, 1)
    if r1 == r2:
        return l1, l2
    return l1 * r2, l2 * r1


def _primitive(c: list) -> list:
    g = 0
    for v in c:
        g = math.gcd(g, v)
        if g == 1:
            return c
    return [v // g for v in c] if g > 1 else c


def _trim(a: list) -> list:
    """a without its trailing zeros, in place."""
    while a and not a[-1]:
        a.pop()
    return a


def _pseudo_rem(a: list, b: list) -> list:
    """Pseudo-remainder of integer coefficient lists (ascending, no trailing
    zeros)."""
    db = len(b) - 1
    lb = b[-1]
    while len(a) - 1 >= db:
        la = a[-1]
        shift = len(a) - 1 - db
        a = [v * lb for v in a]
        for idx in range(db + 1):
            a[shift + idx] -= la * b[idx]
        if not _trim(a):
            return []
    return a


def _image_divmod(a: list, b: list) -> tuple:
    """(quotient, remainder) of the images a by b in GF(MOD_P), both ascending
    coefficient lists, b with a nonzero top entry; both are returned without
    trailing zeros, so a zero remainder is [].

    Where every coefficient has an image and the base's leading coefficient
    maps to a unit, the map to GF(MOD_P) is a ring homomorphism which carries
    the quotient and remainder of a division to those of the images; so a
    nonzero image remainder proves a nonzero remainder (Schwartz 1980, Zippel
    1979), and the image quotient of an exact division is the quotient's image.
    """
    a = list(a)
    db = len(b) - 1
    inv = pow(b[-1], -1, MOD_P)
    quo = [0] * max(len(a) - db, 0)
    for top in range(len(a) - 1, db - 1, -1):
        q = a[top] * inv % MOD_P
        if q:
            shift = top - db
            quo[shift] = q
            for idx in range(db):
                a[shift + idx] = (a[shift + idx] - q * b[idx]) % MOD_P
    return _trim(quo), _trim(a[:db])


def _image_gcd(a: list, b: list) -> list:
    """A gcd over GF(MOD_P) of the images a and b, ascending coefficient lists
    without trailing zeros, a nonzero (Euclid's algorithm); it has degree 0
    exactly when they are coprime.

    In ``diffop.XRat.reduced``, b is the remainder of num's image by the
    image a of a monic base; a gcd of degree 0 proves num and base coprime
    over Q (Brown 1971): a monic factor g over Q of the monic base has
    p-integral coefficients, since they are integral over the p-integral
    coefficients of the base and Z localised at p is integrally closed; so g
    has an image, and the monic image of g divides both images.
    :func:`int_poly_gcd` gives its own argument.
    """
    while b:
        a, b = b, _image_divmod(a, b)[1]
    return a


def int_poly_gcd(a: list, b: list) -> list:
    """The primitive gcd of two nonzero univariate int coefficient lists
    (ascending, no trailing zeros), by the primitive PRS over Z.

    When both leading coefficients map to units of GF(MOD_P) and the images'
    gcd has degree 0 (:func:`_image_gcd`), the answer is [1] without the
    PRS (Brown 1971): a primitive common factor g over Z has a leading
    coefficient that divides a's, so its image keeps g's degree and divides
    both images.
    """
    if a[-1] % MOD_P and b[-1] % MOD_P and len(_image_gcd(
            [v % MOD_P for v in a], [v % MOD_P for v in b])) == 1:
        return [1]
    a, b = _primitive(a), _primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, _primitive(_pseudo_rem(a, b))
    return a


def _univar_gcd(polys):
    """A gcd, as an MPoly, of nonconstant polynomials that all lie in one
    and the same relation-free parameter; None when they do not."""
    s = polys[0]._univar()
    if s is None or any(p._univar() != s for p in polys[1:]):
        return None
    g = polys[0].int_list(s)
    for p in polys[1:]:
        g = int_poly_gcd(g, p.int_list(s))
    return MPoly({e << s: c for e, c in enumerate(g) if c})


def cancel_common_factor(num: MPoly, den: MPoly):
    """(num / g, den / g) for a common factor g that is cheap to find: the
    gcd when both are polynomials in one and the same relation-free
    parameter, else num or den itself when it divides the other exactly in
    K[params] (mpoly_divexact; relation-bearing sides included); (num, den)
    when none is found.  Monomials are left to normalisation."""
    if len(num.terms) < 2 or len(den.terms) < 2:
        return num, den
    g = _univar_gcd((num, den))
    if g is not None:
        if g.is_constant():
            return num, den
        return mpoly_divexact(num, g), mpoly_divexact(den, g)
    dn, dd = num.degree(), den.degree()
    try:
        if dn >= dd:
            return mpoly_divexact(num, den), _MP_ONE
    except ExactError:
        pass
    try:
        if dd >= dn:
            return _MP_ONE, mpoly_divexact(den, num)
    except ExactError:
        pass
    return num, den


PS_ZERO = ParamScalar.const(0)
PS_ONE = ParamScalar.const(1)


# ---------------------------------------------------------------------------
# fraction-free linear algebra
# ---------------------------------------------------------------------------


class NullspaceResult(namedtuple("NullspaceResult", "basis assumptions")):
    """Right-nullspace basis plus the generic-nonvanishing pivot assumptions."""

    __slots__ = ()


def nullspace(matrix) -> NullspaceResult:
    """Basis of the right nullspace of a rectangular ParamScalar matrix.

    Fraction-free Gauss–Jordan elimination (Bareiss 1968; Nakos, Turner &
    Williams 1997) of the row-cleared MPoly numerators over K[params], K =
    Q(the declared roots), an integral domain (see mpoly_divexact): every
    entry is a minor, and the vector for a free column f is the last pivot
    d at f and -R_i[f] at the pivot column of row i.  Vectors are primitive
    in one parameter.  The assumptions are the zero sets of the non-constant
    pivots (see _pivot_factors), and none when the basis is empty: a trivial
    kernel over K(params) is a claim for generic parameters.
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
    rows = [_clear_denominators(r) for r in rows]
    remaining = list(range(len(rows)))
    pivots = []  # (row index, col index)
    chosen = []  # each pivot as it was chosen
    prev = _MP_ONE
    for col in range(ncols):
        idx = _pick_pivot(rows, remaining, col)
        if idx is None:
            continue
        remaining.remove(idx)
        prow = rows[idx]
        piv = prow[col]
        chosen.append(piv)
        # rows below are zero left of col; rows above are scaled in every column
        for other, start in [(i, 0) for i, _ in pivots] + [(i, col) for i in remaining]:
            row = rows[other]
            entry = row[col]
            for j in range(start, ncols):
                v = row[j] * piv
                if entry:
                    v = v - prow[j] * entry
                row[j] = mpoly_divexact(v, prev) if v else v
        pivots.append((idx, col))
        prev = piv
    basis = _kernel(rows, pivots, ncols)
    return NullspaceResult(basis, _pivot_factors(chosen) if basis else [])


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
    """Exact division a/b in K[params], K = Q(the declared roots); raises
    ExactError if b does not divide a.

    declare_param keeps K a field, so K[params] is an integral domain.  For
    each relation-bearing parameter s of b, both sides are multiplied by the
    conjugate of b under s -> -s (its terms that hold s negated): the product
    is fixed by that map, so it holds no s.  Then no quotient term times a
    term of b folds, and leading-term division in graded order gives the
    quotient, or fails when there is none.  The order is the int order of a
    key with its total degree put in one more field above the others (total
    degree, then lex on fields: a monomial order); a sum of such keys is the
    graded key of the product.
    """
    if b.is_zero():
        raise ExactError("division by zero polynomial")
    while rel := _key_or(b.terms) & PARAMS.relmask:
        s = rel & -rel
        conj = MPoly({k: -c if k & s else c for k, c in b.terms.items()}, b.den)
        a, b = a * conj, b * conj
    if b.is_constant():
        return a._scaled(RAT_ONE / b.const_value())
    g = PARAMS.guard
    top = _FIELD * len(PARAMS.names)  # the degree field of a graded key
    # over Rat: the quotient's coefficients need not share a's denominator
    rem = {k | _key_degree(k) << top: Rat(c, a.den) for k, c in a.terms.items()}
    out: dict = {}
    b_items = [(k | _key_degree(k) << top, Rat(c, b.den)) for k, c in b.terms.items()]
    bk, bc = max(b_items)
    while rem:
        rk = max(rem)
        rc = rem[rk]
        qk = (rk | g) - bk
        if qk & g != g:
            raise ExactError("polynomials do not divide exactly")
        qk ^= g
        qc = rc / bc
        out[qk & ((1 << top) - 1)] = qc
        for k, c in b_items:
            kk = qk + k  # b holds no relation-bearing field, so no fold
            if kk & g:
                raise _overflow_error()
            v = qc * c
            acc = rem.get(kk)
            if acc is None:
                rem[kk] = -v
            else:
                acc = acc - v
                if acc:
                    rem[kk] = acc
                else:
                    del rem[kk]
    # the lcm of reduced denominators is coprime to the numerators over it
    den = math.lcm(*(int(q.denominator) for q in out.values()))
    return MPoly({k: int(q.numerator) * (den // int(q.denominator)) for k, q in out.items()}, den)


def _pick_pivot(rows, row_ids, col):
    """The row of row_ids whose entry in col is nonzero and simplest
    (constant, then fewest terms), or None."""
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


def _pivot_factors(pivots) -> list:
    """Factors whose zero sets cover those of the non-constant pivots: the
    relation-free parameters of each pivot's monomial factor, in name order,
    then its primitive rest with a positive lead when that is non-constant;
    each factor once.  The relation-bearing parameters are units of K."""
    out = []
    for p in pivots:
        if p.is_constant():
            continue
        key = p.monomial_gcd()
        factors = [MPoly.var(n) for n, _ in _decode(key) if n not in PARAMS.relations]
        rest = p.div_monomial(key, p.int_content(), p.den)
        if not rest.is_constant():
            factors.append(rest if rest.terms[rest.lead_key()] > 0 else -rest)
        out += [f for f in factors if f not in out]
    return out


def _kernel(rows, pivots, ncols) -> list:
    """The nullspace basis from MPoly rows in fraction-free Gauss–Jordan
    form: each pivot row holds the last pivot d in its pivot column and 0
    in the other pivot columns."""
    d = rows[pivots[-1][0]][pivots[-1][1]] if pivots else _MP_ONE
    basis = []
    for free in sorted(set(range(ncols)) - {col for _, col in pivots}):
        vec = [_MP_ZERO] * ncols
        vec[free] = d
        for idx, col in pivots:
            vec[col] = -rows[idx][free]
        basis.append(_tidy_vector(vec, free))
    return basis


def primitive_vector(entries: list, free: int, name: str | None) -> list:
    """The vector of polynomials sum_e entries[i][e] * name**e (lists of Rat,
    ascending in e; with no name each list holds one constant), scaled as
    :func:`nullspace` scales its basis vectors (see _tidy_vector), with free
    the free column.  Returns ParamScalar entries."""
    shift = PARAMS.shifts[name] if name else 0
    polys = []
    for coeffs in entries:
        den = math.lcm(*(q.denominator for q in coeffs))
        polys.append(_normed({e << shift: int(q * den) for e, q in enumerate(coeffs) if q}, den))
    return _tidy_vector(polys, free)


def _tidy_vector(polys, free):
    """Divide out the common content, the common monomial and, when every
    nonzero entry lies in one relation-free parameter, their gcd; then give
    the entry at free a positive lead.  Returns ParamScalar entries."""
    g = _univar_gcd([p for p in polys if p])
    if g is not None and not g.is_constant():
        polys = [mpoly_divexact(p, g) if p else p for p in polys]
    key = None
    num_gcd, den_lcm = 0, 1  # the common content is num_gcd / den_lcm
    for p in filter(None, polys):
        num_gcd = math.gcd(num_gcd, p.int_content())
        den_lcm = math.lcm(den_lcm, p.den)
        key = p.monomial_gcd(key)
    polys = [p.div_monomial(key, num_gcd, den_lcm) if p else p for p in polys]
    if polys[free].terms[polys[free].lead_key()] < 0:
        polys = [-p for p in polys]
    return [ParamScalar.from_poly(p) if p else PS_ZERO for p in polys]


# ---------------------------------------------------------------------------
# rendering (kept next to the types; the parser in expr.py accepts this form)
# ---------------------------------------------------------------------------


def _monomial_part(part: int, group: list) -> tuple:
    """The text and the sort-code piece of a key's part.

    group holds (bit offset, name, code offset) per field, in name order; a
    field adds "name^e*" (or "name*") to the text when e is nonzero, and e,
    or 0xFFFF for e = 0, at its code offset to the piece."""
    text, code = "", 0
    for s, name, at in group:
        e = (part >> s) & _FIELD_MASK
        if e:
            text += f"{name}*" if e == 1 else f"{name}^{e}*"
            code += e << at
        else:
            code += _FIELD_MASK << at
    return text, code


def render_mpoly(p: MPoly) -> str:
    """The terms in display order (see _key_sort), each coefficient in lowest
    terms.

    With one field in use, key order is display order.  With more, the fields
    are put in name order and split into groups of _RENDER_GROUP, and each
    group's part of a key gives, memoised for the call, its text and its
    piece of the term's int sort code.  The code is the total degree, then
    one 16-bit digit per field in name order: the exponent, or 0xFFFF for a
    zero one, which within one degree ranks above every exponent (see
    _key_sort).  The total degree is key % 0xFFFF, since 2**16 = 1 mod
    2**16 - 1, unless the fields' largest exponents may sum to 0xFFFF.
    """
    terms = p.terms
    if not terms:
        return "0"
    names = PARAMS.names
    used = _key_or(terms)
    top = (used.bit_length() - 1) // _FIELD * _FIELD
    if not used:
        rows = [("", terms[0])]
    elif used >> top << top == used:
        # one field: every key is e << top, so key order is exponent order,
        # which is the display order
        name = names[top // _FIELD]
        rows = [("" if not key else name if key >> top == 1 else f"{name}^{key >> top}", c)
                for key, c in sorted(terms.items(), reverse=True)]
    else:
        shifts = _field_shifts(used)
        nf = len(shifts)
        fields = [(s, name, _FIELD * (nf - 1 - r)) for r, (name, s) in
                  enumerate(sorted((names[s // _FIELD], s) for s in shifts))]
        groups = _field_groups(fields, _RENDER_GROUP, _monomial_part)
        wide = sum((used >> s) & _FIELD_MASK for s in shifts) >= _FIELD_MASK
        order = {}
        for key, c in terms.items():
            text, code = "", (_key_degree(key) if wide else key % _FIELD_MASK) << _FIELD * nf
            for mask, memo in groups:
                t, b = memo[key & mask]
                text += t
                code += b
            order[code] = (text[:-1], c)
        rows = [order[code] for code in sorted(order, reverse=True)]
    den = p.den
    chunks = []
    for n, (mono, c) in enumerate(rows):
        neg = c < 0
        mag = -c if neg else c
        # the coefficient's magnitude mag/den in lowest terms
        try:
            if den == 1:
                text = str(mag)
            else:
                g = math.gcd(mag, den)
                text = str(mag // g) if g == den else f"{mag // g}/{den // g}"
        except ValueError:
            raise ExactError("a coefficient exceeds Python's limit on integer-string "
                             "conversion") from None
        if not mono:
            body = text
        elif text == "1":
            body = mono
        else:
            body = f"{text}*{mono}"
        if n == 0:
            chunks.append(f"-{body}" if neg else body)
        else:
            chunks.append(f" - {body}" if neg else f" + {body}")
    return "".join(chunks)


def _is_atomic(text: str) -> bool:
    return (" " not in text and "+" not in text and "/" not in text
            and "*" not in text and not text.startswith("-"))


def render_scalar(s: ParamScalar) -> str:
    if s.den == _MP_ONE:
        num = s.num
        if not num.is_constant() and num.den != 1:
            # content g / num.den in front of the primitive part
            g = num.int_content()
            inner = render_mpoly(MPoly({k: c // g for k, c in num.terms.items()}))
            # a monomial such as sqrt2*sqrt3 needs no parentheses before /den
            top = inner if _is_atomic(inner.replace("*", "")) else f"({inner})"
            if g != 1:
                top = f"{g}*{top}"
            return f"{top}/{num.den}"
        return render_mpoly(num)
    num = render_mpoly(s.num)
    den = render_mpoly(s.den)
    ns = num if _is_atomic(num) else f"({num})"
    ds = den if _is_atomic(den) else f"({den})"
    return f"{ns}/{ds}"
