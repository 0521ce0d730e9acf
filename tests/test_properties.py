"""Randomized algebraic-law suites; every check is exact.

Each suite runs at least 100 independently generated instances, either via
hypothesis or a seeded RNG.
"""

import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from bispec import exact
from bispec.exact import (
    ExactError,
    MPoly,
    PS_ONE,
    PS_ZERO,
    ParamScalar,
    Rat,
    declare_param,
    nullspace,
)
from bispec.diffop import (
    DiffOp,
    QuasiRat,
    XPoly,
    XRat,
    annihilates_monomials,
    commutator,
    compose,
    equals,
    is_eigenfunction,
    xpoly_gcd_rational,
)
from bispec.adcond import ad_power, ad_tower, fit_weights
from bispec.darboux import darboux_step, intertwine_check

N_INSTANCES = 100


# ---------------------------------------------------------------------------
# MPoly ring laws (hypothesis)
# ---------------------------------------------------------------------------

_coeffs = st.integers(min_value=-9, max_value=9)
_names = st.sampled_from(["a", "b", "sqrt2", "i"])


@st.composite
def mpolys(draw):
    n_terms = draw(st.integers(min_value=0, max_value=4))
    poly = MPoly.zero()
    for _ in range(n_terms):
        c = draw(_coeffs)
        mono = MPoly.const(c)
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            mono = mono * MPoly.var(draw(_names))
        poly = poly + mono
    return poly


@settings(max_examples=N_INSTANCES, deadline=None)
@given(mpolys(), mpolys(), mpolys())
def test_mpoly_add_associative(p, q, r):
    assert (p + q) + r == p + (q + r)


@settings(max_examples=N_INSTANCES, deadline=None)
@given(mpolys(), mpolys(), mpolys())
def test_mpoly_mul_distributes(p, q, r):
    assert p * (q + r) == p * q + p * r


@settings(max_examples=N_INSTANCES, deadline=None)
@given(mpolys(), mpolys())
def test_mpoly_mul_commutes(p, q):
    assert p * q == q * p


@settings(max_examples=N_INSTANCES, deadline=None)
@given(mpolys(), mpolys(), mpolys())
def test_mpoly_mul_associative(p, q, r):
    assert (p * q) * r == p * (q * r)


_rat_coeffs = st.builds(Rat, st.integers(min_value=-9, max_value=9),
                        st.integers(min_value=1, max_value=6))


@st.composite
def rat_mpolys(draw):
    """Like mpolys, with rational coefficients, so that den > 1 occurs."""
    n_terms = draw(st.integers(min_value=0, max_value=4))
    poly = MPoly.zero()
    for _ in range(n_terms):
        mono = MPoly.const(draw(_rat_coeffs))
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            mono = mono * MPoly.var(draw(_names))
        poly = poly + mono
    return poly


@settings(max_examples=N_INSTANCES, deadline=None)
@given(rat_mpolys(), rat_mpolys(), rat_mpolys())
def test_rational_mpoly_ring_laws(p, q, r):
    assert (p + q) + r == p + (q + r)
    assert p * (q + r) == p * q + p * r
    assert p * q == q * p
    assert (p * q) * r == p * (q * r)


# ---------------------------------------------------------------------------
# the int-over-den MPoly kernel against a Fraction dict oracle
# ---------------------------------------------------------------------------

# h carries a relation value other than the built-ins' 2, 3 and -1
_ORACLE_RELATIONS = {"sqrt2": Fraction(2), "sqrt3": Fraction(3), "i": Fraction(-1),
                     "h": Fraction(5)}


def _as_fractions(p):
    return {exact._decode(key): Fraction(c, p.den) for key, c in p.terms.items()}


def _oracle_mul(x, y):
    out = {}
    for k1, c1 in x.items():
        for k2, c2 in y.items():
            exps = dict(k1)
            for name, e in k2:
                exps[name] = exps.get(name, 0) + e
            c = c1 * c2
            for name, rel in _ORACLE_RELATIONS.items():
                e = exps.get(name, 0)
                if e >= 2:
                    c *= rel ** (e // 2)
                    exps[name] = e % 2
            key = tuple(sorted((n, e) for n, e in exps.items() if e))
            out[key] = out.get(key, 0) + c
    return {k: c for k, c in out.items() if c}


def _oracle_add(x, y, sign=1):
    out = dict(x)
    for key, c in y.items():
        out[key] = out.get(key, 0) + sign * c
    return {k: c for k, c in out.items() if c}


def _oracle_content(x):
    if not x:
        return Fraction(1)
    num, den = 0, 1
    for c in x.values():
        num = math.gcd(num, c.numerator)
        den = math.lcm(den, c.denominator)
    return Fraction(num, den)


def _assert_canonical(p):
    """den > 0, gcd(den, numerators) == 1, no zero numerator, keys in normal form:
    decoded names sorted, exponents >= 1, relation exponents <= 1, no guard bit set."""
    assert type(p.den) is int and p.den > 0
    assert all(type(c) is int and c for c in p.terms.values())
    assert math.gcd(p.den, *p.terms.values()) == 1
    if not p.terms:
        assert p.den == 1
    for packed in p.terms:
        assert packed & exact.PARAMS.guard == 0
        key = exact._decode(packed)
        assert list(key) == sorted(key) and all(e >= 1 for _, e in key)
        assert all(e == 1 for n, e in key if n in _ORACLE_RELATIONS)


def _random_oracle_pair(rng, names):
    """A random polynomial built through the public MPoly API, and its oracle dict."""
    poly, oracle = MPoly.zero(), {}
    for _ in range(rng.randint(0, 4)):
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        mono, mono_oracle = MPoly.const(c), ({(): c} if c else {})
        for _ in range(rng.randint(0, 3)):
            name = rng.choice(names)
            mono = mono * MPoly.var(name)
            mono_oracle = _oracle_mul(mono_oracle, {((name, 1),): Fraction(1)})
        poly = poly + mono
        oracle = _oracle_add(oracle, mono_oracle)
    return poly, oracle


def test_mpoly_kernel_matches_fraction_oracle():
    declare_param("h", 5)
    rng = random.Random(606)
    names = ["a", "b", "sqrt2", "i", "h"]
    for _ in range(2 * N_INSTANCES):
        x, ox = _random_oracle_pair(rng, names)
        y, oy = _random_oracle_pair(rng, names)
        for p, op in ((x, ox), (y, oy)):
            _assert_canonical(p)
            assert _as_fractions(p) == op
            assert p.content() == _oracle_content(op)
        results = [(x * y, _oracle_mul(ox, oy)), (x + y, _oracle_add(ox, oy)),
                   (x - y, _oracle_add(ox, oy, -1))]
        q = Fraction(rng.randint(-9, 9), rng.randint(1, 6))
        results.append((x._scaled(Rat(q)), {k: c * q for k, c in ox.items() if c * q}))
        for p, op in results:
            _assert_canonical(p)
            assert _as_fractions(p) == op
        if y:
            s = ParamScalar(x, y)
            _assert_canonical(s.num)
            _assert_canonical(s.den)
            # the value is kept; the denominator is primitive with a positive lead
            assert (_oracle_mul(_as_fractions(s.num), oy)
                    == _oracle_mul(ox, _as_fractions(s.den)))
            assert s.den.den == 1 and s.den.int_content() == 1
            assert s.den.lead_coeff() > 0


def _oracle_monomial_pair(rng, names):
    """A random monomial as an MPoly, and its exponents as a dict."""
    exps = {n: rng.randint(0, 3) for n in names}
    mono = MPoly.one()
    for n, e in exps.items():
        mono = mono * MPoly.var(n, e)
    return mono, {n: e for n, e in exps.items() if e}


def _oracle_poly(rng, names, max_terms=4):
    """A random polynomial with rational coefficients, and its oracle dict."""
    poly, oracle = MPoly.zero(), {}
    for _ in range(rng.randint(1, max_terms)):
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 4))
        mono, exps = _oracle_monomial_pair(rng, names)
        poly = poly + mono * MPoly.const(c)
        oracle = _oracle_add(oracle, {tuple(sorted(exps.items())): c} if c else {})
    return poly, oracle


def test_packed_monomial_ops_match_tuple_oracle():
    # Fields go to names in first-use order; reverse alphabetical order here
    # makes raw packed-int order disagree with name order.
    names = ["zzo", "mmo", "aao"]
    for n in names:
        MPoly.var(n)
    shifts = [exact.PARAMS.shifts[n] for n in names]
    assert shifts == sorted(shifts)
    rng = random.Random(707)
    for _ in range(N_INSTANCES):
        p, op = _oracle_poly(rng, names)
        if not op:
            continue
        assert _as_fractions(p) == op
        # the monomial gcd: the field-wise minimum exponent
        want = {n: min(dict(key).get(n, 0) for key in op) for n in names}
        assert exact._decode(p.monomial_gcd()) == tuple(sorted(
            (n, e) for n, e in want.items() if e))
        # the display-order lead: total degree, then the decoded tuple
        lead = max(op, key=lambda key: (sum(e for _, e in key), key))
        assert exact._decode(p.lead_key()) == lead
        # division by a monomial, exactly when it divides every term
        mono, exps = _oracle_monomial_pair(rng, names)
        (mkey,) = mono.terms
        assert (p * mono).div_monomial(mkey, 1, 1) == p
        divides = all(dict(key).get(n, 0) >= e for key in op for n, e in exps.items())
        if divides:
            quotient = p.div_monomial(mkey, 1, 1)
            assert quotient * mono == p
        else:
            with pytest.raises(ExactError):
                p.div_monomial(mkey, 1, 1)
        # exact division by a polynomial; off by a constant it fails
        q, _ = _oracle_poly(rng, names, max_terms=3)
        if q:
            assert exact.mpoly_divexact(p * q, q) == p
            if not q.is_constant():
                with pytest.raises(ExactError):
                    exact.mpoly_divexact(p * q + 1, q)


# 17 names registered in reverse name order, so packed keys pass 256 bits and
# field order disagrees with name order; with x and one relation-bearing name
_COLUMN_NAMES = [f"kc{c}" for c in "qponmlkjihgfedcba"]


def _field_decode(key):
    """(name, exponent) pairs, by name, read one 16-bit field at a time."""
    names, out, i = exact.PARAMS.names, [], 0
    while key:
        if key & 0xFFFF:
            out.append((names[i], key & 0xFFFF))
        key >>= 16
        i += 1
    return tuple(sorted(out))


def _oracle_render(p):
    """render_mpoly's text, built from terms sorted by (degree, decoded pairs)."""
    if not p.terms:
        return "0"
    order = sorted(p.terms, key=lambda k: (sum(e for _, e in _field_decode(k)),
                                           _field_decode(k)), reverse=True)
    out = ""
    for n, key in enumerate(order):
        c = Fraction(p.terms[key], p.den)
        mono = "*".join(name if e == 1 else f"{name}^{e}" for name, e in _field_decode(key))
        body = str(abs(c)) if not mono else mono if abs(c) == 1 else f"{abs(c)}*{mono}"
        sign = ("-" if c < 0 else "") if n == 0 else (" - " if c < 0 else " + ")
        out += sign + body
    return out


def _oracle_images(p, den):
    """x_images_mod term by term: each parameter's residue to its power."""
    d = p.den * den % exact.MOD_P
    if not d or any(exact.relation_of(name) for key in p.terms
                    for name, _ in _field_decode(key)):
        return None
    out = [0] * (p.x_degree() + 1)
    for key, c in p.terms.items():
        for name, e in _field_decode(key):
            if name != "x":
                c *= pow(exact.mod_p_residue(name), e, exact.MOD_P)
        out[key & 0xFFFF] += c
    return [v * pow(d, -1, exact.MOD_P) % exact.MOD_P for v in out]


def _column_poly(rng, names):
    """A random polynomial in none, one or many of names ("x" is x), each
    term using a random subset of them."""
    used = rng.choice([[], [rng.choice(names)], rng.sample(names, rng.randint(2, len(names)))])
    poly = MPoly.zero()
    for _ in range(rng.randint(1, 6)):
        term = MPoly.const(Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 6])))
        for name in used:
            e = rng.choice([0, 0, 0, 1, 2, 3, 7, 300])
            term = term * (MPoly.from_x_ints([0] * e + [1]) if name == "x"
                           else MPoly.var(name, e))
        poly = poly + term
    return poly


def test_key_columns_match_field_by_field_decoding():
    for name in _COLUMN_NAMES:
        MPoly.var(name)
    shifts = [exact.PARAMS.shifts[n] for n in _COLUMN_NAMES]
    assert shifts == sorted(shifts) and _COLUMN_NAMES != sorted(_COLUMN_NAMES)
    rng = random.Random(1601)
    names = _COLUMN_NAMES + ["x", "sqrt2"]
    wide = undefined = 0
    field_counts = set()  # none, one or many fields in use
    for _ in range(3 * N_INSTANCES):
        p = _column_poly(rng, names)
        field_counts.add(min(len(_field_decode(exact._key_or(p.terms))), 2))
        for key in p.terms:
            assert exact._decode(key) == _field_decode(key)
            assert exact._key_degree(key) == sum(e for _, e in _field_decode(key))
        assert exact.render_mpoly(p) == _oracle_render(p)
        if p.terms:
            assert exact._decode(p.lead_key()) == max(
                map(_field_decode, p.terms), key=lambda t: (sum(e for _, e in t), t))
        den = rng.choice([1, 3, rng.randrange(1, exact.MOD_P)])
        images = p.x_images_mod(den)
        assert images == _oracle_images(p, den)
        undefined += images is None
        # the monomial gcd, seeded with a monomial or not: field-wise minimum
        start = rng.choice([None, 0, *p.terms, *_column_poly(rng, names).terms])
        keys = list(p.terms) + ([] if start is None else [start])
        want = {}
        if keys and 0 not in p.terms:
            want = dict(_field_decode(keys[0]))
            for key in keys[1:]:
                have = dict(_field_decode(key))
                want = {n: min(e, have[n]) for n, e in want.items() if n in have}
        assert _field_decode(p.monomial_gcd(start)) == tuple(sorted(want.items()))
        wide += max(p.terms, default=0).bit_length() > 256
    assert wide >= 20 and undefined >= 20 and field_counts == {0, 1, 2}
    # products in 5-17 of the names, at least 50 terms each: one call uses more
    # than one group of fields and meets the same group part of a key many times
    repeats = high = 0
    for _ in range(N_INSTANCES // 4):
        p = _many_field_poly(rng, rng.sample(_COLUMN_NAMES, rng.randint(5, 17)) + ["x"])
        fields = _field_decode(exact._key_or(p.terms))
        assert len(p.terms) >= 50 and len(fields) > exact._IMAGE_GROUP
        assert exact.render_mpoly(p) == _oracle_render(p)
        assert exact._decode(p.lead_key()) == max(
            map(_field_decode, p.terms), key=lambda t: (sum(e for _, e in t), t))
        den = rng.choice([1, 3, rng.randrange(1, exact.MOD_P)])
        assert p.x_images_mod(den) == _oracle_images(p, den)
        first = [exact.PARAMS.shifts[n] for n, _ in fields[:exact._RENDER_GROUP]]
        mask = sum(0xFFFF << s for s in first)
        repeats += len(p.terms) - len({k & mask for k in p.terms})
        high += max(sum(e for _, e in _field_decode(k)) for k in p.terms) >= 0xFFFF
    assert repeats >= 10 * N_INSTANCES and high >= 5


def _many_field_poly(rng, names):
    """A product of three random polynomials in names ("x" is x), with at
    least 50 terms; in half of them, exponents of 10000 take the total degree
    of some terms past 0xFFFF."""
    pool, most = rng.choice([([1, 2, 3], 3), ([1, 10000], 5)])
    while True:
        poly = MPoly.one()
        for _ in range(3):
            factor = MPoly.zero()
            for _ in range(rng.randint(4, 6)):
                term = MPoly.const(Fraction(rng.randint(-9, 9), rng.choice([1, 1, 2, 6])))
                for name in rng.sample(names, rng.randint(1, most)):
                    e = rng.choice(pool)
                    term = term * (MPoly.from_x_ints([0] * e + [1]) if name == "x"
                                   else MPoly.var(name, e))
                factor = factor + term
            poly = poly * factor
        if len(poly.terms) >= 50:
            return poly


def test_mpoly_divexact_recovers_every_factor():
    # the second set divides in K[k], K = Q(sqrt2, sqrt3, i, sqrt7): a divisor
    # holding a root is first multiplied by its conjugates
    declare_param("divq7", 7)
    rng = random.Random(708)
    for names in (["a", "b", "c", "k"], ["sqrt2", "sqrt3", "i", "divq7", "k"]):
        checked = inexact = 0
        for _ in range(3 * N_INSTANCES):
            p, _ = _oracle_poly(rng, names, max_terms=5)
            q, _ = _oracle_poly(rng, names, max_terms=4)
            if q:
                assert exact.mpoly_divexact(p * q, q) == p
                checked += 1
            if "k" in q.params():
                # off by a constant, a divisor of positive degree in k never divides
                with pytest.raises(ExactError):
                    exact.mpoly_divexact(p * q + 1, q)
                inexact += 1
        assert checked >= 250 and inexact >= 100


# ---------------------------------------------------------------------------
# fraction field laws
# ---------------------------------------------------------------------------


def _random_mpoly(rng, allow_params=True, max_terms=3):
    poly = MPoly.zero()
    for _ in range(rng.randint(0, max_terms)):
        mono = MPoly.const(rng.randint(-6, 6))
        if allow_params:
            for _ in range(rng.randint(0, 2)):
                mono = mono * MPoly.var(rng.choice(["a", "b", "sqrt2"]))
        poly = poly + mono
    return poly


def _random_scalar(rng, allow_params=True):
    num = _random_mpoly(rng, allow_params)
    den = MPoly.zero()
    while den.is_zero():
        den = _random_mpoly(rng, allow_params)
    return ParamScalar(num, den)


def test_fraction_equality_is_equivalence():
    rng = random.Random(101)
    for _ in range(N_INSTANCES):
        s = _random_scalar(rng)
        t = _random_scalar(rng)
        u = _random_scalar(rng)
        assert s == s
        if s == t:
            assert t == s
        if s == t and t == u:
            assert s == u
        # scaling numerator and denominator by a common factor keeps the value
        f = MPoly.zero()
        while f.is_zero():
            f = _random_mpoly(rng)
        scaled = ParamScalar(s.num * f, s.den * f)
        assert scaled == s


def test_normalize_fraction_preserves_value():
    rng = random.Random(202)
    for _ in range(N_INSTANCES):
        num = _random_mpoly(rng)
        den = MPoly.zero()
        while den.is_zero():
            den = _random_mpoly(rng)
        s = ParamScalar(num, den)
        # cross-multiplication against the raw pair
        assert (s.num * den - num * s.den).is_zero()


def test_relation_parameters_hold_under_operation_sequences():
    rng = random.Random(303)
    s2 = ParamScalar.var("sqrt2")
    i = ParamScalar.var("i")
    for _ in range(N_INSTANCES):
        acc = _random_scalar(rng)
        acc = acc * s2 + i
        assert (s2 * s2) == ParamScalar.const(2)
        assert (i * i) == ParamScalar.const(-1)
        # (acc * sqrt2)^2 == 2 * acc^2
        assert (acc * s2) ** 2 == acc * acc * 2


# ---------------------------------------------------------------------------
# operator laws
# ---------------------------------------------------------------------------


def _random_xpoly(rng, deg=2, allow_params=False):
    out = {}
    for d in range(deg + 1):
        c = rng.randint(-4, 4)
        if c and allow_params and rng.random() < 0.3:
            out[d] = ParamScalar.const(c) * ParamScalar.var("a")
        elif c:
            out[d] = ParamScalar.const(c)
    return XPoly(out)


def _random_op(rng, max_order=2, allow_params=False):
    coeffs = {}
    for order in range(rng.randint(0, max_order) + 1):
        poly = _random_xpoly(rng, rng.randint(0, 2), allow_params)
        if not poly.is_zero():
            coeffs[order] = XRat.from_poly(poly)
    if not coeffs:
        coeffs[0] = XRat.const(rng.randint(1, 3))
    return DiffOp(coeffs)


def test_jacobi_identity():
    rng = random.Random(404)
    for _ in range(N_INSTANCES):
        a = _random_op(rng)
        b = _random_op(rng)
        c = _random_op(rng)
        jac = (commutator(a, commutator(b, c))
               + commutator(b, commutator(c, a))
               + commutator(c, commutator(a, b)))
        assert jac.is_zero()


def test_derivation_law():
    rng = random.Random(505)
    for _ in range(N_INSTANCES):
        lop = _random_op(rng)
        a = _random_op(rng, max_order=1)
        b = _random_op(rng, max_order=1)
        lhs = commutator(lop, compose(a, b))
        rhs = compose(commutator(lop, a), b) + compose(a, commutator(lop, b))
        assert equals(lhs, rhs)


def test_commutator_bilinear_and_antisymmetric():
    rng = random.Random(606)
    for _ in range(N_INSTANCES):
        a = _random_op(rng)
        b = _random_op(rng)
        c = _random_op(rng)
        alpha = ParamScalar.const(rng.randint(-3, 3))
        assert commutator(a, a).is_zero()
        assert equals(commutator(a, b), -commutator(b, a))
        lhs = commutator(a, b.scale(alpha) + c)
        rhs = commutator(a, b).scale(alpha) + commutator(a, c)
        assert equals(lhs, rhs)


def test_order_zero_operators_commute():
    rng = random.Random(707)
    for _ in range(N_INSTANCES):
        f = DiffOp.mul_by(_random_xpoly(rng, 3))
        g = DiffOp.mul_by(XRat.from_ratio(
            _random_xpoly(rng, 2), XPoly.from_list([1, 0, 1])))
        assert commutator(f, g).is_zero()


def test_monomial_oracle_agrees_with_equals():
    rng = random.Random(808)
    agreements = {True: 0, False: 0}
    for _ in range(N_INSTANCES):
        a = _random_op(rng)
        b = _random_op(rng) if rng.random() < 0.5 else a + DiffOp({0: XRat.const(0)})
        same = equals(a, b)
        diff = a - b
        assert annihilates_monomials(diff) == same
        agreements[same] += 1
    assert agreements[True] > 0 and agreements[False] > 0


def test_ad_power_linear_in_theta():
    rng = random.Random(909)
    v = XPoly.monomial(2)
    lop = DiffOp.schrodinger(v)
    for _ in range(N_INSTANCES // 4):
        t1 = _random_xpoly(rng, 3)
        t2 = _random_xpoly(rng, 3)
        alpha = ParamScalar.const(rng.randint(-3, 3))
        beta = ParamScalar.const(rng.randint(-3, 3))
        for j in (1, 2, 3, 4):
            lhs = ad_power(lop, t1.scale(alpha) + t2.scale(beta), j)
            rhs = ad_power(lop, t1, j).scale(alpha) + ad_power(lop, t2, j).scale(beta)
            assert equals(lhs, rhs)


def _random_potential(rng, kind):
    """A polynomial V, a rational V with poles, or a V with symbolic k."""
    if kind == 0:
        return XRat.from_poly(_random_xpoly(rng, rng.randint(0, 3)))
    if kind == 1:
        base = XPoly.from_list([rng.randint(-2, 2), 1] if rng.random() < 0.5 else [1, 0, 1])
        num = XPoly.zero()
        while num.is_zero():
            num = _random_xpoly(rng, rng.randint(0, 2))
        return XRat.from_ratio(num, base ** rng.randint(1, 2))
    k = ParamScalar.var("k")
    num = XPoly({d: k * rng.randint(-3, 3) + rng.randint(-3, 3) for d in range(rng.randint(0, 2) + 1)})
    pick = rng.randrange(3)
    if pick == 0:
        return XRat.from_poly(num)
    den = XPoly.monomial(2) if pick == 1 else XPoly({1: PS_ONE, 0: -k})
    return XRat.from_ratio(num, den)


def formal_adjoint(op: DiffOp) -> DiffOp:
    """(sum_r b_r D^r)* = sum_r (-D)^r b_r, by Leibniz compositions."""
    out = DiffOp.zero()
    for r, b in op.coeffs.items():
        out = out + compose(DiffOp.d(r).scale((-1) ** r), DiffOp.mul_by(b))
    return out


def test_ad_tower_matches_generic_commutator_oracle():
    # the Schrodinger step against [L, A] = L A - A L expanded by two Leibniz
    # compositions, reduced after each step as ad_tower does; and every entry
    # has the parity of its order, A_j* = (-1)^j A_j, which the step uses to
    # fill half of each A_j's orders
    rng = random.Random(1212)
    for n in range(N_INSTANCES):
        lop = DiffOp.schrodinger(_random_potential(rng, n % 3))
        theta = _random_xpoly(rng, rng.randint(0, 4), allow_params=True)
        up_to = rng.randint(0, 5)
        tower = ad_tower(lop, theta, up_to)
        current = DiffOp.mul_by(theta)
        assert len(tower) == up_to + 1
        assert equals(tower[0], current)
        for j in range(1, up_to + 1):
            current = commutator(lop, current).reduced()
            assert equals(tower[j], current), (str(lop), str(theta), j)
        for j, a in enumerate(tower):
            assert equals(formal_adjoint(a), a.scale((-1) ** j)), (str(lop), str(theta), j)


def test_ad_tower_rejects_non_schrodinger_operators():
    theta = XPoly.monomial(2)
    for op in (DiffOp.d(3), DiffOp({2: XRat.const(1)}),
               DiffOp({2: XRat.const(-1), 1: XRat.from_poly(XPoly.x())})):
        with pytest.raises(ExactError):
            ad_tower(op, theta, 2)
    # a theta of order >= 1 has no parity, so the adjoint step does not apply
    with pytest.raises(ExactError, match="function"):
        ad_tower(DiffOp.schrodinger(XPoly.monomial(2)), DiffOp.d(), 1)
    # fit_weights rejects it too, before its rank certificate could decide
    with pytest.raises(ExactError, match="function"):
        fit_weights(DiffOp.schrodinger(XPoly.monomial(2)), DiffOp.d(), [1])


# ---------------------------------------------------------------------------
# darboux and nullspace oracles
# ---------------------------------------------------------------------------


def _random_seed(rng):
    factors = []
    for _ in range(rng.randint(0, 2)):
        base = XPoly.zero()
        while base.degree() < 1:
            base = _random_xpoly(rng, rng.randint(1, 2))
        factors.append((base, ParamScalar.const(rng.randint(-3, 3))))
    exp_part = XPoly({2: ParamScalar.const(Rat(rng.randint(-2, 2), 2)),
                      1: ParamScalar.const(rng.randint(-2, 2))})
    if not factors and exp_part.is_zero():
        factors.append((XPoly.x(), ParamScalar.const(1)))
    return QuasiRat(tuple(factors), exp_part)


def test_darboux_intertwining_on_random_seeds():
    # build the potential that makes each random quasi-rational function an
    # eigenfunction, then transform and check the intertwining identity
    rng = random.Random(1010)
    count = 0
    while count < N_INSTANCES:
        seed = _random_seed(rng)
        w = seed.log_derivative()
        v = (w.derivative() + w * w).reduced()
        lop = DiffOp.schrodinger(v)
        assert is_eigenfunction(lop, seed) == PS_ZERO
        new_op, record = darboux_step(lop, seed)
        assert intertwine_check(lop, new_op, seed)
        assert isinstance(record.output_v, XRat)
        count += 1


def _random_poly_in_a(rng):
    a = MPoly.var("a")
    poly = MPoly.zero()
    for _ in range(rng.randint(0, 3)):
        poly = poly + a ** rng.randint(0, 2) * rng.randint(-6, 6)
    return poly


def _random_scalar_in_a(rng):
    den = MPoly.zero()
    while den.is_zero():
        den = _random_poly_in_a(rng)
    return ParamScalar(_random_poly_in_a(rng), den)


def test_nullspace_back_substitution_random():
    # the first half mixes a, b and sqrt2; the second half uses a alone, where
    # every vector must also have no common polynomial factor
    rng = random.Random(1111)
    for instance in range(2 * N_INSTANCES):
        rows = rng.randint(1, 4)
        cols = rng.randint(1, 4)
        if instance < N_INSTANCES:
            use_params = rng.random() < 0.4
            matrix = [[_random_scalar(rng, use_params) if rng.random() < 0.8 else PS_ZERO
                       for _ in range(cols)] for _ in range(rows)]
        else:
            matrix = [[_random_scalar_in_a(rng) if rng.random() < 0.8 else PS_ZERO
                       for _ in range(cols)] for _ in range(rows)]
        basis, _ = nullspace(matrix)
        names = set().union(*(entry.params() for row in matrix for entry in row))
        for vec in basis:
            assert any(not entry.is_zero() for entry in vec)
            for row in matrix:
                acc = PS_ZERO
                for entry, x in zip(row, vec):
                    acc = acc + entry * x
                assert acc.is_zero()
            # primitive: integer content 1 and no common monomial
            polys = [x.num for x in vec if not x.is_zero()]
            assert all(x.den == MPoly.one() and x.num.den == 1 for x in vec if not x.is_zero())
            assert math.gcd(*(p.int_content() for p in polys)) == 1
            assert MPoly({key: 1 for p in polys for key in p.terms}).monomial_gcd() == 0
            if len(names) == 1 and names != {"sqrt2"}:
                shift = exact.PARAMS.shifts[next(iter(names))]
                g = polys[0].int_list(shift)
                for p in polys[1:]:
                    g = exact.int_poly_gcd(g, p.int_list(shift))
                assert len(g) == 1


# ---------------------------------------------------------------------------
# packed XPoly against a dict-of-ParamScalar reference
# ---------------------------------------------------------------------------
# A reference x-polynomial is {degree: nonzero ParamScalar}, with the
# coefficient-wise arithmetic XPoly had before it was packed.


def _ref_clean(p):
    return {d: c for d, c in p.items() if not c.is_zero()}


def _ref_add(a, b, sign=1):
    out = dict(a)
    for d, c in b.items():
        out[d] = out.get(d, PS_ZERO) + (c if sign > 0 else -c)
    return _ref_clean(out)


def _ref_mul(a, b):
    out = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            out[d1 + d2] = out.get(d1 + d2, PS_ZERO) + c1 * c2
    return _ref_clean(out)


def _ref_mod_p(a):
    images = {d: c.evaluate_mod() for d, c in a.items()}
    if any(v is None for v in images.values()):
        return None
    return [images.get(d, 0) for d in range(max(a, default=-1) + 1)]


def _assert_matches_ref(p, ref):
    coeffs = p.coeffs
    assert sorted(coeffs) == list(coeffs) == sorted(ref)
    for d, c in ref.items():
        assert coeffs[d] == c and p.coeff(d) == c
    assert p.degree() == max(ref, default=-1)
    assert p.coeff(p.degree() + 1).is_zero()


def _assert_xpoly_canonical(p):
    """num and den canonical MPolys, x only in num, den primitive with a
    positive lead, no monomial shared with num, no relation field in den's
    monomial factor, and a constant den is the one MPoly.one()."""
    num, den = p.num, p.den
    for poly in (num, den):
        assert type(poly.den) is int and poly.den > 0
        assert all(type(c) is int and c for c in poly.terms.values())
        assert math.gcd(poly.den, *poly.terms.values()) == 1
        for packed in poly.terms:
            assert packed & exact.PARAMS.guard == 0
            assert all(e == 1 for n, e in exact._decode(packed) if exact.relation_of(n))
    assert all(n != "x" for n, _ in exact._decode(exact._key_or(den.terms)))
    if den.is_constant():
        assert den is MPoly.one()
        return
    assert num.terms
    assert den.den == 1 and den.int_content() == 1 and den.lead_coeff() > 0
    assert exact._key_min(num.monomial_gcd(), den.monomial_gcd()) == 0
    assert den.monomial_gcd() & exact.PARAMS.relmask == 0


_XP_NAMES = ["k", "a", "sqrt2", "i", "rq"]


def _xp_denominators():
    k, a = MPoly.var("k"), MPoly.var("a")
    return [k, a * a, k * a, MPoly.var("sqrt2") * k,  # monomials, one rationalised
            k + 1, a - 2, k * a + 3]                  # not monomials


def _random_coeff(rng, kind, names=_XP_NAMES):
    """A random coefficient: parameter-free, a polynomial or a fraction."""
    if kind == "free":
        return ParamScalar.const(Fraction(rng.randint(-9, 9), rng.randint(1, 6)))
    num = MPoly.zero()
    for _ in range(rng.randint(1, 2)):
        term = MPoly.const(Fraction(rng.randint(-9, 9), rng.randint(1, 4)))
        for _ in range(rng.randint(0, 2)):
            term = term * MPoly.var(rng.choice(names))
        num = num + term
    if kind == "poly":
        return ParamScalar.from_poly(num)
    return ParamScalar(num, rng.choice(_xp_denominators()))


def _random_xpoly_pair(rng, kind, deg):
    ref = _ref_clean({d: _random_coeff(rng, kind) if rng.random() < 0.8 else PS_ZERO
                      for d in range(deg + 1)})
    return XPoly(ref), ref


def test_packed_xpoly_matches_param_scalar_reference():
    from bispec.diffop import _mod_p_coeffs

    declare_param("rq", 7)  # a relation other than the built-ins
    rng = random.Random(808)
    kinds = ["free", "poly", "frac"]
    for case in range(2 * N_INSTANCES):
        a, ra = _random_xpoly_pair(rng, kinds[case % 3], rng.randint(0, 3))
        b, rb = _random_xpoly_pair(rng, rng.choice(kinds), rng.randint(0, 2))
        c = _random_coeff(rng, rng.choice(kinds))
        # a sum that cancels back to b, whose normal form differs from both terms'
        results = [(a, ra), (b, rb), (a * b, _ref_mul(ra, rb)), (a + b, _ref_add(ra, rb)),
                   (a - b, _ref_add(ra, rb, -1)), (-a, _ref_add({}, ra, -1)), ((b - a) + a, rb),
                   (a.scale(c), _ref_mul(ra, {0: c} if c else {})),
                   (a.derivative(), {d - 1: v * d for d, v in ra.items() if d})]
        for p, ref in results:
            _assert_xpoly_canonical(p)
            _assert_matches_ref(p, ref)
            assert _mod_p_coeffs(p) == _ref_mod_p(ref)
        if ra:
            lead, m = a.monic()
            top = max(ra)
            assert lead == ra[top]
            _assert_xpoly_canonical(m)
            _assert_matches_ref(m, {d: v / lead for d, v in ra.items()})
        if b.degree() >= 1:
            base = b.monic()[1]
            quo, rem = a.divmod(base)
            for p in (quo, rem):
                _assert_xpoly_canonical(p)
            # the quotient and remainder of a division are unique
            assert rem.degree() < base.degree()
            _assert_matches_ref(a, _ref_add(_ref_mul(quo.coeffs, base.coeffs), rem.coeffs))


_DIVMOD_NAMES = ["k", "a", "sqrt2"]  # no relation a test declares for itself


def _random_divisor(rng, kind):
    """A divisor of degree 1-3: non-monic over Q ("rational"), with a leading
    coefficient in k and a ("param-lead"), or with a parametric denominator
    ("param-den", monic or not)."""
    deg = rng.randint(1, 3)
    if kind == "rational":
        rest, lead = "free", PS_ZERO
        while lead.is_zero() or lead.is_one():
            lead = _random_coeff(rng, "free")
    elif kind == "param-lead":
        rest, lead = "poly", PS_ZERO
        while lead.is_constant():
            lead = _random_coeff(rng, "poly", ["k", "a"])
    else:
        rest = "frac"
        lead = PS_ONE if rng.random() < 0.5 else _random_coeff(rng, "frac", _DIVMOD_NAMES)
    coeffs = {d: _random_coeff(rng, rest, _DIVMOD_NAMES) for d in range(deg)}
    return XPoly({**coeffs, deg: lead})


def test_divmod_by_any_divisor_satisfies_the_division_identity():
    rng = random.Random(1801)
    kinds = ["rational", "param-lead", "param-den"]
    dividing = 0
    for case in range(120):
        b = _random_divisor(rng, kinds[case % 3])
        kind = rng.choice(["free", "poly", "frac"])
        a = XPoly({d: _random_coeff(rng, kind, _DIVMOD_NAMES) for d in range(rng.randint(1, 6))})
        quo, rem = a.divmod(b)
        for p in (quo, rem):
            _assert_xpoly_canonical(p)
        assert rem.degree() < b.degree()
        assert a == quo * b + rem
        dividing += a.degree() >= b.degree()
    assert dividing >= 60


# ---------------------------------------------------------------------------
# XRat factor lists: no base divides another
# ---------------------------------------------------------------------------


def assert_no_base_divides_another(factors):
    """The XRat invariant, checked by plain symbolic division."""
    for i, (b, _) in enumerate(factors):
        for j, (c, _) in enumerate(factors):
            if i != j and c.degree() <= b.degree():
                assert not b.divmod(c)[1].is_zero(), f"{c} divides {b}"


def _random_monic_base(rng):
    deg = rng.randint(1, 2)
    return XPoly({deg: PS_ONE, **{d: _random_coeff(rng, "poly") for d in range(deg)}})


def _random_num(rng):
    return XPoly({d: _random_coeff(rng, "poly") for d in range(rng.randint(0, 2))}) + 1


def test_xrat_factor_lists_have_no_dividing_bases():
    rng = random.Random(909)
    for _ in range(N_INSTANCES):
        c, d = _random_monic_base(rng), _random_monic_base(rng)
        cd = c * d
        f = XRat(_random_num(rng), ((cd, rng.randint(1, 2)),))
        g = XRat(_random_num(rng), ((c, rng.randint(1, 2)),))
        h = XRat.from_poly(c).invert()   # the base c from a numerator
        k = XRat.from_poly(cd).invert()
        # each result against (numerator, denominator) of its value
        cases = [(f + g, f.num * g.den + g.num * f.den, f.den * g.den),
                 (f * g, f.num * g.num, f.den * g.den),
                 (f + h, f.num * c + f.den, f.den * c),
                 (k * g, g.num, cd * g.den),
                 (k - h, 1 - d, cd)]
        for r, num, den in cases:
            assert_no_base_divides_another(r.factors)
            assert r.num * den == num * r.den


# ---------------------------------------------------------------------------
# XRat.reduced on parameter-free values against the all-gcd loop
# ---------------------------------------------------------------------------


def _gcd_reduced(f):
    """The reduction of parameter-free values before images mod p: a rational
    gcd of numerator and base at every step, a base that only partly cancels
    split as base**(e-1) * rest."""
    num = f.num
    work = [[b, e] for b, e in f.factors]
    changed = False
    idx = 0
    while idx < len(work):
        base, exp = work[idx]
        while exp > 0 and num.degree() >= 1:
            g = xpoly_gcd_rational(num, base)
            if g.degree() < 1:
                break
            num, _ = num.divmod(g)
            changed = True
            exp -= 1
            if g.degree() < base.degree():
                rest, _ = base.divmod(g)
                work.append([rest.monic()[1], 1])
        work[idx][1] = exp
        idx += 1
    if not changed:
        return f
    return XRat(num, tuple((b, e) for b, e in work if e))


_X = XPoly.x()
# linear factors, an irreducible quadratic and a shifted cube; products of
# them share some factors and not others
_FREE_FACTORS = [_X - 1, _X + 1, _X - 2, _X + Fraction(1, 2), _X,
                 _X * _X + 1, _X * _X * _X - 3]


@st.composite
def free_products(draw, max_factors=3):
    out = XPoly.const(draw(st.fractions(min_value=-5, max_value=5,
                                        max_denominator=4).filter(bool)))
    for _ in range(draw(st.integers(min_value=0, max_value=max_factors))):
        out = out * draw(st.sampled_from(_FREE_FACTORS))
    if draw(st.booleans()):
        out = out + draw(st.integers(min_value=-3, max_value=3))
    return out


@st.composite
def free_xrats(draw):
    bases = draw(st.lists(free_products(), min_size=1, max_size=3))
    factors = tuple((b, draw(st.integers(min_value=1, max_value=3)))
                    for b in bases if b.degree() >= 1)
    return XRat(draw(free_products(max_factors=5)), factors)


_SAMPLE_Q = _X * _X + _X + 3


@settings(max_examples=N_INSTANCES, deadline=None)
@given(free_xrats())
@example(XRat((_X - 1) * _SAMPLE_Q, ((_X * _X - 1, 2),)))        # x^2 - 1 partly cancels
@example(XRat((_X - 2) ** 3 * _X, ((_X - 2, 2), (_X * _X + 1, 1))))  # a base listed squared
@example(XRat(_SAMPLE_Q, ((_X - 1, 1), (_X * _X + 1, 2))))         # coprime to every base
def test_reduced_matches_the_all_gcd_loop(f):
    want = _gcd_reduced(f)
    got = f.reduced()
    assert got.num == want.num
    assert len(got.factors) == len(want.factors)
    for (b1, e1), (b2, e2) in zip(got.factors, want.factors):
        assert b1 == b2 and e1 == e2
