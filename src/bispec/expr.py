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
"""

from __future__ import annotations

from .exact import ExactError, ParamScalar, relation_of
from .diffop import QuasiRat, XPoly, XRat, XR_ONE


def _int_literal(text: str) -> int:
    """The value of a run of digits; ExactError past Python's limit on the
    digits of a str-to-int conversion."""
    try:
        return int(text)
    except ValueError:
        raise ExactError(f"integer literal of {len(text)} digits exceeds Python's "
                         "limit on integer-string conversion") from None


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
        if ch.isdigit():
            start = pos
            while pos < n and text[pos].isdigit():
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


class _Value:
    """Either a rational function (xrat) or a quasi-rational product (quasi)."""

    __slots__ = ("xrat", "quasi")

    def __init__(self, xrat=None, quasi=None):
        self.xrat = xrat
        self.quasi = quasi

    @property
    def is_quasi(self):
        return self.quasi is not None


def _as_quasi(v: _Value) -> QuasiRat:
    if v.quasi is not None:
        return v.quasi
    return QuasiRat() * v.xrat


class _Parser:
    def __init__(self, text: str, params):
        self.text = text
        self.tokens = _tokenize(text)
        self.idx = 0
        self.params = dict(params)

    def peek(self):
        return self.tokens[self.idx]

    def take(self, kind=None):
        tok = self.tokens[self.idx]
        if kind is not None and tok[0] != kind:
            raise ParseError(f"expected {kind!r}, found {tok[1]!r}", tok[2])
        self.idx += 1
        return tok

    def parse(self) -> _Value:
        value = self.expr()
        tok = self.peek()
        if tok[0] != "end":
            raise ParseError(f"unexpected {tok[1]!r}", tok[2])
        return value

    def expr(self) -> _Value:
        negate = False
        if self.peek()[0] == "-":
            self.take()
            negate = True
        value = self.term()
        if negate:
            value = self._negate(value)
        while self.peek()[0] in ("+", "-"):
            op, _, pos = self.take()
            rhs = self.term()
            if value.is_quasi or rhs.is_quasi:
                raise ParseError("sums of quasi-rational factors are not supported", pos)
            value = _Value(xrat=value.xrat + rhs.xrat if op == "+" else value.xrat - rhs.xrat)
        return value

    def term(self) -> _Value:
        value = self.power()
        while self.peek()[0] in ("*", "/"):
            op, _, pos = self.take()
            rhs = self.power()
            if op == "*":
                if value.is_quasi or rhs.is_quasi:
                    value = _Value(quasi=_as_quasi(value) * _as_quasi(rhs))
                else:
                    value = _Value(xrat=value.xrat * rhs.xrat)
            else:
                if rhs.is_quasi:
                    inv = QuasiRat(tuple((b, -e) for b, e in rhs.quasi.factors),
                                   -rhs.quasi.exp_part, rhs.quasi.scale.invert())
                    value = _Value(quasi=_as_quasi(value) * inv)
                elif value.is_quasi:
                    if rhs.xrat.is_zero():
                        raise ParseError("division by zero", pos)
                    value = _Value(quasi=value.quasi * rhs.xrat.invert())
                else:
                    if rhs.xrat.is_zero():
                        raise ParseError("division by zero", pos)
                    value = _Value(xrat=value.xrat / rhs.xrat)
        return value

    def power(self) -> _Value:
        base = self.atom()
        if self.peek()[0] != "^":
            return base
        _, _, pos = self.take()
        exponent = self.power_exponent(pos)
        return self._pow(base, exponent, pos)

    def power_exponent(self, pos):
        # an exponent is itself a power expression; negative exponents come
        # parenthesized, e.g. x^(-1/2)
        if self.peek()[0] == "(":
            self.take()
            value = self.expr()
            self.take(")")
            return value
        if self.peek()[0] == "int":
            tok = self.take()
            return _Value(xrat=XRat.const(_int_literal(tok[1])))
        tok = self.peek()
        if tok[0] == "name":
            return self.atom()
        raise ParseError("expected exponent", pos)

    def _pow(self, base: _Value, exponent: _Value, pos: int) -> _Value:
        if exponent.is_quasi:
            raise ParseError("exponent must be a scalar", pos)
        exp_rat = exponent.xrat
        if not exp_rat.is_constant():
            raise ParseError("exponent must not depend on x", pos)
        c = exp_rat.num.coeff(0) if not exp_rat.is_zero() else None
        if c is not None and c.is_constant() and c.const_value().denominator == 1 \
                and not base.is_quasi:
            n = int(c.const_value())
            if n >= 0:
                return _Value(xrat=base.xrat ** n)
            if base.xrat.is_zero():
                raise ParseError("zero to a negative power", pos)
            return _Value(xrat=base.xrat ** n)
        if exp_rat.is_zero():
            return _Value(xrat=XR_ONE)
        scalar = exp_rat.num.coeff(0)
        if base.is_quasi:
            q = base.quasi
            if not q.exp_part.is_zero():
                raise ParseError("cannot raise an exp factor to a symbolic power", pos)
            factors = tuple((b, e * scalar) for b, e in q.factors)
            if not q.scale.is_one():
                raise ParseError("cannot raise a scaled product to a symbolic power", pos)
            return _Value(quasi=QuasiRat(factors))
        xr = base.xrat
        factors = []
        if not xr.num.is_constant():
            factors.append((xr.num, scalar))
            lead = None
        else:
            lead = xr.num.coeff(0)
        for b, e in xr.factors:
            factors.append((b, scalar * (-e)))
        if lead is not None and not lead.is_one():
            raise ParseError("cannot raise a scaled constant to a symbolic power", pos)
        return _Value(quasi=QuasiRat(tuple(factors)))

    def atom(self) -> _Value:
        tok = self.peek()
        kind, textv, pos = tok
        if kind == "int":
            self.take()
            return _Value(xrat=XRat.const(_int_literal(textv)))
        if kind == "(":
            self.take()
            value = self.expr()
            self.take(")")
            return value
        if kind == "name":
            self.take()
            if textv == "x":
                return _Value(xrat=XRat.from_poly(XPoly.x()))
            if textv == "exp":
                self.take("(")
                arg = self.expr()
                self.take(")")
                if arg.is_quasi or not arg.xrat.is_polynomial():
                    raise ParseError("exp argument must be a polynomial in x", pos)
                return _Value(quasi=QuasiRat(exp_part=arg.xrat.as_xpoly()))
            if textv in self.params or relation_of(textv) is not None:
                return _Value(xrat=XRat.const(ParamScalar.var(textv)))
            declared = sorted(set(self.params) | set(_DEFAULT_PARAMS))
            raise ParseError(
                f"unknown identifier {textv!r}; declared parameters: {', '.join(declared) or '(none)'}",
                pos)
        raise ParseError(f"unexpected {textv!r}", pos)

    def _negate(self, v: _Value) -> _Value:
        if v.is_quasi:
            return _Value(quasi=QuasiRat(v.quasi.factors, v.quasi.exp_part, -v.quasi.scale))
        return _Value(xrat=-v.xrat)


def parse_expr(text: str, params=()):
    """Parse to an XPoly, XRat or QuasiRat, whichever is most specific.

    ``params`` lists the declared parameter names allowed as identifiers
    (relation-bearing built-ins are always allowed).
    """
    parser = _Parser(text, {p: True for p in params})
    value = parser.parse()
    if value.is_quasi:
        return value.quasi
    if value.xrat.is_polynomial():
        return value.xrat.as_xpoly()
    return value.xrat


def render(value) -> str:
    """Print any expression value in the grammar accepted by parse_expr."""
    return str(value)
