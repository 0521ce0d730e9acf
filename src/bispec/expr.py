"""Expression grammar for the CLI: parser and round-trip printing.

Grammar (binding loosest to tightest):

    expr    := ['-'] term (('+' | '-') term)*
    term    := power (('*' | '/') power)*
    power   := atom ['^' power]
    atom    := integer | identifier | 'x' | 'exp' '(' expr ')' | '(' expr ')'

``^`` binds tighter than ``*`` and ``/``; unary minus binds loosest (below
``^``), so ``-x^2`` is ``-(x^2)``.  Integers and ``p/q`` fractions are exact;
identifiers must be declared parameters (``sqrt2``, ``sqrt3`` and ``i`` are
always available and carry their quadratic relations).  ``exp(...)`` of a
polynomial and non-integer powers of polynomial bases produce quasi-rational
values; sums of those are rejected.

Every value the parser builds is bounded, so that a short expression cannot
start unbounded work: the size of a product, quotient or power is bounded
before it is formed, and a sum is measured once formed.  Its numerator and
its denominator, as expanded, may have at most :data:`TERMS_MAX` terms each,
and their integers must print within Python's 4 300-digit limit; the terms
times the bits of all the values an expression builds are bounded too.
Past a bound :class:`ExactError` is raised.
"""

from __future__ import annotations

import math

from .exact import ExactError, ParamScalar, relation_of
from .diffop import QuasiRat, XPoly, XRat, XR_ONE

# The most terms of a parsed value's numerator or denominator (cli.LIMITS
# "expression terms").  Measured on 2 cores, Python 3.11, fractions.Fraction:
# ad --j 1 on --theta '(2^3*k+1)^499*x/(2^3*k+3)^499' took 10.9 s, mostly
# printing its parametric coefficients, and at 1000 '(k+1)^999*x/(k+2)^999' 21.5 s.
TERMS_MAX = 500
# the bit length of the largest integer that prints within Python's 4 300-digit limit
_BITS_MAX = math.ceil(4300 * math.log2(10))


def _power_terms(t: int, n: int) -> int:
    """C(t + n - 1, n), the most terms a t-term polynomial to the power n can
    have; just n when that is past TERMS_MAX already."""
    return n if t > 1 and n > TERMS_MAX else math.comb(t + n - 1, n)


def _side(factors) -> tuple:
    """(terms, degrees, bits) of a product of (MPoly, exponent) factors, as
    expanded: a bound on its terms; its degree in x and in each parameter;
    and a bound on the bit length of its integers, from the coefficient sum
    or common denominator of each factor."""
    terms, degrees, bits = 1, {}, 0
    for p, e in factors:
        terms *= _power_terms(len(p.terms), e)
        bits += e * (max(p.den, sum(map(abs, p.terms.values()))) - 1).bit_length()
        for name, d in [("x", p.x_degree()), *((q, p.degree(q)) for q in p.params())]:
            degrees[name] = degrees.get(name, 0) + e * max(d, 0)
    return terms, degrees, bits


def _sides(v) -> tuple:
    """The sizes of a parsed value's numerator and denominator; for a
    quasi-rational value, both are those of the product of its parts."""
    if isinstance(v, QuasiRat):
        parts = (v.exp_part, v.scale, *(p for f in v.factors for p in f))
        side = _side([(q, 1) for p in parts for q in (p.num, p.den)])
        return side, side
    return (_side([(v.num.num, 1), *((b.den, e) for b, e in v.factors)]),
            _side([(v.num.den, 1), *((b.num, e) for b, e in v.factors)]))


def _times(a: tuple, b: tuple) -> tuple:
    """The sizes of a product of two sides."""
    (ta, da, ba), (tb, db, bb) = a, b
    return ta * tb, {k: da.get(k, 0) + db.get(k, 0) for k in da.keys() | db.keys()}, ba + bb


class ParseError(ValueError):
    """Syntax or lookup error, carrying the offending position."""

    def __init__(self, message: str, pos: int | None = None):
        if pos is not None:
            message = f"{message} (at position {pos})"
        super().__init__(message)
        self.pos = pos


_DEFAULT_PARAMS = ("sqrt2", "sqrt3", "i")


def _tokenize(text: str):
    tokens = []
    pos = 0
    n = len(text)
    while pos < n:
        ch = text[pos]
        if ch.isspace():
            pos += 1
            continue
        if ch.isdecimal():
            start = pos
            while pos < n and text[pos].isdecimal():
                pos += 1
            tokens.append(("int", text[start:pos], start))
            continue
        if ch.isalpha() or ch == "_":
            start = pos
            while pos < n and (text[pos].isalnum() or text[pos] == "_"):
                pos += 1
            tokens.append(("name", text[start:pos], start))
            continue
        if ch in "+-*/^()":
            tokens.append((ch, ch, pos))
            pos += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", pos)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    """Each method returns an XRat, or a QuasiRat for a quasi-rational value."""

    def __init__(self, text: str, params):
        self.tokens = _tokenize(text)
        self.idx = 0
        self.params = set(params)
        # what all the values built may hold together: term counts times bits
        self.budget = TERMS_MAX * _BITS_MAX

    def peek(self):
        return self.tokens[self.idx]

    def take(self, kind=None):
        tok = self.tokens[self.idx]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.idx += 1
        return tok

    def check(self, sides, pos: int) -> None:
        """ExactError unless values of these sizes are within the bound; the
        terms of each are at most the dense count its degrees allow."""
        for terms, degrees, bits in sides:
            terms = min(terms, math.prod(d + 1 for d in degrees.values()))
            self.budget -= terms * max(bits, 1)
            if bits > _BITS_MAX:
                raise ExactError("an integer exceeds Python's limit on integer-string "
                                 f"conversion (at position {pos})")
            if terms > TERMS_MAX:
                raise ExactError(f"expression terms exceed the limit {TERMS_MAX} "
                                 f"(at position {pos})")
            if self.budget < 0:
                raise ExactError(f"the values of the expression exceed {TERMS_MAX} terms "
                                 f"of {_BITS_MAX} bits in all (at position {pos})")

    def expr(self):
        negate = self.peek()[0] == "-"
        if negate:
            self.take()
        value = self.term()
        if negate:
            value = (QuasiRat(value.factors, value.exp_part, -value.scale)
                     if isinstance(value, QuasiRat) else -value)
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.take()
            rhs = self.term()
            if isinstance(value, QuasiRat) or isinstance(rhs, QuasiRat):
                raise ParseError("sums of quasi-rational factors are not supported", pos)
            # a sum costs at most a product of its bounded terms: measure it
            value = value + rhs if op == "+" else value - rhs
            self.check(_sides(value), pos)
        return value

    def term(self):
        value = self.power()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            rhs = self.power()
            (na, da), (nb, db) = _sides(value), _sides(rhs)
            self.check([_times(na, nb), _times(da, db)] if op == "*" else
                       [_times(na, db), _times(da, nb)], pos)
            if isinstance(rhs, QuasiRat):
                if op == "/":
                    rhs = QuasiRat(tuple((b, -e) for b, e in rhs.factors),
                                   -rhs.exp_part, rhs.scale.invert())
                value = (value if isinstance(value, QuasiRat) else QuasiRat() * value) * rhs
            elif op == "*":
                value = value * rhs
            elif rhs.is_zero():
                raise ParseError("division by zero", pos)
            else:
                value = value * rhs.invert()
        return value

    def power(self):
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        _, _, pos = self.take()
        # an exponent is an atom; negative exponents come parenthesized, e.g. x^(-1/2)
        if self.peek()[0] not in ("(", "int", "name"):
            raise ParseError("expected exponent", pos)
        return self._pow(base, self.atom(), pos)

    def _pow(self, base, exponent, pos):
        if isinstance(exponent, QuasiRat):
            raise ParseError("exponent must be a scalar", pos)
        if not exponent.is_constant():
            raise ParseError("exponent must not depend on x", pos)
        if exponent.is_zero():
            return XR_ONE
        scalar = exponent.num.coeff(0)
        if scalar.is_constant() and scalar.const_value().denominator == 1 \
                and not isinstance(base, QuasiRat):
            n = int(scalar.const_value())
            if n < 0 and base.is_zero():
                raise ParseError("zero to a negative power", pos)
            self.check([(_power_terms(t, abs(n)), {k: d * abs(n) for k, d in degrees.items()},
                         bits * abs(n)) for t, degrees, bits in _sides(base)], pos)
            return base ** n
        self.check(map(_times, _sides(base), _sides(exponent)), pos)
        if not isinstance(base, QuasiRat):
            if base.num.is_constant() and not base.num.coeff(0).is_one():
                raise ParseError("cannot raise a scaled constant to a symbolic power", pos)
            base = QuasiRat() * base
        if not base.exp_part.is_zero():
            raise ParseError("cannot raise an exp factor to a symbolic power", pos)
        if not base.scale.is_one():
            raise ParseError("cannot raise a scaled product to a symbolic power", pos)
        return QuasiRat(tuple((b, e * scalar) for b, e in base.factors))

    def atom(self):
        kind, textv, pos = self.peek()
        if kind == "int":
            self.take()
            try:
                return XRat.const(int(textv))
            except ValueError:  # past Python's limit on the digits of a str-to-int conversion
                raise ExactError(f"integer literal of {len(textv)} digits exceeds Python's "
                                 "limit on integer-string conversion") from None
        if kind == "(":
            self.take()
            value = self.expr()
            self.take(")")
            return value
        if kind == "name":
            self.take()
            if textv == "x":
                return XRat.from_poly(XPoly.x())
            if textv == "exp":
                self.take("(")
                arg = self.expr()
                self.take(")")
                if isinstance(arg, QuasiRat) or not arg.is_polynomial():
                    raise ParseError("exp argument must be a polynomial in x", pos)
                return QuasiRat(exp_part=arg.as_xpoly())
            if textv in self.params or relation_of(textv) is not None:
                return XRat.const(ParamScalar.var(textv))
            declared = ", ".join(sorted(self.params | set(_DEFAULT_PARAMS)))
            raise ParseError(f"unknown identifier {textv!r}; declared parameters: {declared}", pos)
        raise ParseError(f"unexpected {textv!r}", pos)


def parse_expr(text: str, params=()):
    """Parse to an XPoly, XRat or QuasiRat, whichever is most specific.

    ``params`` lists the declared parameter names allowed as identifiers
    (relation-bearing built-ins are always allowed).
    """
    parser = _Parser(text, params)
    value = parser.expr()
    kind, textv, pos = parser.peek()
    if kind != "end":
        raise ParseError(f"unexpected {textv!r}", pos)
    if isinstance(value, XRat) and value.is_polynomial():
        return value.as_xpoly()
    return value


def render(value) -> str:
    """Print any expression value in the grammar accepted by parse_expr."""
    return str(value)
