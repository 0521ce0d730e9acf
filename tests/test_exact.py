import random

import pytest

from bispec import exact
from bispec.exact import (
    EXP_MAX,
    MOD_P,
    ExactError,
    MPoly,
    ParamScalar,
    Rat,
    declare_param,
    mod_p_residue,
    mpoly_divexact,
    nullspace,
    relation_of,
)


def ps(v):
    return ParamScalar.const(v)


def var(name):
    return MPoly.var(name)


def test_normalize_fraction_integer_content():
    k = var("k")
    s = ParamScalar(k * 2, MPoly.const(4))
    assert s == ParamScalar(k, MPoly.const(2))
    assert str(s) == "k/2"


def test_normalize_fraction_zero_numerator():
    k = var("k")
    s = ParamScalar(MPoly.zero(), k * k + 1)
    assert s.is_zero()
    assert s.den == MPoly.one()


def test_unreduced_fraction_equality():
    k = var("k")
    a = ParamScalar(k * k - 4, k - 2)
    b = ParamScalar(k + 2, MPoly.one())
    assert a == b


def test_zero_denominator_rejected():
    with pytest.raises(ExactError, match="division by zero polynomial"):
        ParamScalar(MPoly.one(), MPoly.zero())


def test_is_zero_by_expansion():
    k = var("k")
    assert ParamScalar((k * k - 4) - (k - 2) * (k + 2)).is_zero()
    assert not (ps(Rat(1, 2)) - ps(Rat(1, 3))).is_zero()


def test_relation_parameters_square():
    s2 = var("sqrt2")
    s3 = var("sqrt3")
    i = var("i")
    assert s2 * s2 == MPoly.const(2)
    assert s3 ** 2 == MPoly.const(3)
    assert i * i == MPoly.const(-1)
    assert s2 ** 3 == s2 * 2
    # mixed products stay unreduced
    assert (s2 * s3) ** 2 == MPoly.const(6)


def test_relation_survives_fraction_arithmetic():
    s2 = ParamScalar.var("sqrt2")
    half = ps(Rat(1, 2))
    inv = s2.invert()
    assert inv == s2 * half  # 1/sqrt2 = sqrt2/2
    assert (s2 ** 2) == ps(2)


def test_var_rejects_negative_exponent():
    with pytest.raises(ExactError, match="negative exponent"):
        MPoly.var("k", -1)
    assert MPoly.var("k", 0) == MPoly.one()
    assert MPoly.var("sqrt2", 3) == var("sqrt2") * 2


def test_declare_param_conflicts():
    declare_param("fresh_q", 5)  # 5, 10, 15, 30 and their negatives are no squares
    declare_param("fresh_q", 5)
    with pytest.raises(ExactError):
        declare_param("fresh_q", 7)
    with pytest.raises(ExactError):
        declare_param("x")


@pytest.mark.parametrize("name, relation", [
    ("s", 4),    # a rational square: (s-2)*(s+2) == 0
    ("t", 6),    # 6*2*3 = 36: t is sqrt2*sqrt3 up to sign
    ("u", -4),   # -4*-1 = 4: u is 2*i up to sign
])
def test_declare_param_keeps_a_field(name, relation):
    with pytest.raises(ExactError, match="zero divisors"):
        declare_param(name, relation)
    assert relation_of(name) is None


def test_declare_param_takes_integer_relations_only():
    with pytest.raises(ExactError, match="must be an integer"):
        declare_param("frac_q", Rat(5, 7))
    assert relation_of("frac_q") is None
    declare_param("int_q", Rat(10, 2))
    assert relation_of("int_q") == 5
    assert var("int_q") ** 2 == MPoly.const(5)


def test_evaluate_mod_is_a_ring_homomorphism():
    rng = random.Random(4)
    k, a = var("k"), var("a")

    def rand_poly():
        terms = (k ** rng.randint(0, 3) * a ** rng.randint(0, 2)
                 * Rat(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(rng.randint(1, 4)))
        return sum(terms, MPoly.zero())

    def rand_scalar():
        den = rand_poly()
        return ParamScalar(rand_poly(), den if den else MPoly.one())

    for _ in range(100):
        x, y = rand_scalar(), rand_scalar()
        fx, fy = x.evaluate_mod(), y.evaluate_mod()
        assert (x + y).evaluate_mod() == (fx + fy) % MOD_P
        assert (x * y).evaluate_mod() == fx * fy % MOD_P
    k2 = ParamScalar.var("k") * ParamScalar.var("k")
    assert k2.evaluate_mod() == pow(mod_p_residue("k"), 2, MOD_P)


def test_evaluate_mod_undefined_cases():
    k = var("k")
    assert ParamScalar.var("sqrt2").evaluate_mod() is None
    assert ParamScalar(k + var("i")).evaluate_mod() is None
    assert ParamScalar(MPoly.one(), k - mod_p_residue("k")).evaluate_mod() is None
    assert ParamScalar.const(Rat(1, MOD_P)).evaluate_mod() is None
    assert ParamScalar.const(Rat(3, 2)).evaluate_mod() == 3 * pow(2, -1, MOD_P) % MOD_P


def test_monomial_cancellation():
    k = var("k")
    s = ParamScalar(-(k * k), k)
    assert s.num == -k
    assert s.den == MPoly.one()


def test_substitute_and_evaluate():
    k, a = var("k"), var("a")
    p = k * k * a + a * 2
    assert p.substitute_scalar({"k": MPoly.const(3)}) == a * 11


def vec_proportional(u, v):
    """Span comparison for nullspace vectors."""
    pairs = [(x, y) for x, y in zip(u, v)]
    for x, y in pairs:
        if x.is_zero() != y.is_zero():
            return False
    witness = next(((x, y) for x, y in pairs if not x.is_zero()), None)
    if witness is None:
        return True
    wx, wy = witness
    return all(x * wy == y * wx for x, y in pairs)


def test_nullspace_identity_empty():
    m = [[ps(1), ps(0)], [ps(0), ps(1)]]
    assert nullspace(m).basis == []


def test_nullspace_rank_one():
    m = [[ps(1), ps(4)], [ps(2), ps(8)]]
    basis, assumptions = nullspace(m)
    assert len(basis) == 1
    # the free column's entry has a positive lead
    assert basis[0] == [ps(-4), ps(1)]
    assert assumptions == []


def test_nullspace_parametric_pivot():
    k = ParamScalar.var("k")
    basis, assumptions = nullspace([[k, k * k]])
    assert len(basis) == 1
    assert vec_proportional(basis[0], [-k, ParamScalar.const(1)])
    assert [str(a) for a in assumptions] == ["k"]


def test_nullspace_back_substitution_exact():
    k = ParamScalar.var("k")
    m = [[k, ps(2), ps(1)], [ps(0), k + 1, ps(3)], [k, ps(2), ps(1)]]
    basis, _ = nullspace(m)
    for vec in basis:
        for row in m:
            acc = ps(0)
            for entry, x in zip(row, vec):
                acc = acc + entry * x
            assert acc.is_zero()


def test_nullspace_with_relation_parameters():
    s2 = ParamScalar.var("sqrt2")
    basis, _ = nullspace([[s2, ps(2)]])
    assert len(basis) == 1
    # sqrt2 * v0 + 2 * v1 = 0 -> direction (sqrt2, -1)
    v0, v1 = basis[0]
    assert (s2 * v0 + ps(2) * v1).is_zero()


# ---------------------------------------------------------------------------
# packed monomial keys: exact division, exponent limit, key-free accessors
# ---------------------------------------------------------------------------


def test_mpoly_divexact_exact_divisions():
    # a display-order leading term (b > a, but a*a > a*b) made these fail
    a, b = var("a"), var("b")
    for num, den, quo in ((a * a + a * b, a + b, a), ((a + b) ** 2, a + b, a + b),
                          (a * a - b * b, a + b, a - b)):
        assert mpoly_divexact(num, den) == quo


def test_mpoly_divexact_rejects_inexact_division():
    a, b = var("a"), var("b")
    with pytest.raises(ExactError):
        mpoly_divexact(a * a + b, a + b)
    # over Q(sqrt2)[a]: a - sqrt2 divides a^2 - 2 but not a^2 + sqrt2
    s2 = var("sqrt2")
    assert mpoly_divexact(a * a - 2, a - s2) == a + s2
    with pytest.raises(ExactError):
        mpoly_divexact(a * a + s2, a - s2)


def test_nullspace_bareiss_two_parameters():
    a, b = ParamScalar.var("a"), ParamScalar.var("b")
    m = [[a + b, a, ps(1), ps(0)], [a - b, b, ps(0), ps(1)], [a + 2 * b, ps(1), a, b]]
    # the last b scaled by sqrt2: relation-bearing rows, the same elimination
    scaled = m[:2] + [m[2][:3] + [b * ParamScalar.var("sqrt2")]]
    # entries are 3x3 minors of a matrix of degree-1 entries (Cramer), and
    # sqrt2 adds at most one to a minor's degree
    for matrix, bound in ((m, 3), (scaled, 4)):
        basis, _ = nullspace(matrix)
        assert len(basis) == 1
        assert any(not x.is_zero() for x in basis[0])
        assert all(x.num.degree() <= bound and x.den.is_constant() for x in basis[0])
        for row in matrix:
            acc = ps(0)
            for entry, x in zip(row, basis[0]):
                acc = acc + entry * x
            assert acc.is_zero()


def test_exponent_limit():
    assert EXP_MAX == 2 ** 15 - 1
    k = MPoly.var("k", EXP_MAX)
    assert k.degree("k") == EXP_MAX and str(k) == f"k^{EXP_MAX}"
    assert (MPoly.var("k", 2 ** 14 - 1) * MPoly.var("k", 2 ** 14)).degree() == EXP_MAX
    with pytest.raises(ExactError):
        MPoly.var("k", 2 ** 15)
    with pytest.raises(ExactError):
        MPoly.var("k", 2 ** 14) ** 2
    with pytest.raises(ExactError):
        (var("a") + 1) * MPoly.var("k", EXP_MAX) * var("k")  # a one-term factor
    with pytest.raises(ExactError):
        (var("k") + 1) * (MPoly.var("k", EXP_MAX) + 1)  # the univariate product
    with pytest.raises(ExactError):
        (var("k") + var("a")) * (MPoly.var("k", EXP_MAX) + var("a"))
    # a relation folds before the limit applies: sqrt2^40000 = 2^20000
    assert MPoly.var("sqrt2", 40000) == MPoly.const(2 ** 20000)


def test_split_linear():
    a, b, c = var("a"), var("b"), var("c")
    eq = a * b * 3 + a + b * c - 5
    lead, rest = eq.split_linear("a")
    assert lead == b * 3 + 1 and rest == b * c - 5
    assert eq.split_linear("never_used") == (MPoly.zero(), eq)
    with pytest.raises(ExactError):
        (a * a + b).split_linear("a")


def test_relation_monomial_denominators_are_rationalised():
    s2, s3, k = var("sqrt2"), var("sqrt3"), var("k")
    assert str(ParamScalar(MPoly.one(), s2 * s3)) == "sqrt2*sqrt3/6"
    # one value, two routes, one print
    by_division = ParamScalar(MPoly.const(18), s2 * s3)
    by_product = ParamScalar.var("sqrt2") * ParamScalar.var("sqrt3") * 3
    assert str(by_division) == str(by_product) == "3*sqrt2*sqrt3"
    assert by_division.den == MPoly.one()
    # the relation field leaves a non-constant denominator too: k/(sqrt2*k^2) = sqrt2/(2*k)
    half = ParamScalar(k, s2 * k * k)
    assert half.den == k and half.num == s2 * Rat(1, 2)
    assert ParamScalar(MPoly.one(), var("i") * k).den == k


def test_declare_param_refuses_a_name_in_use():
    v = MPoly.var("hq", 3)
    with pytest.raises(ExactError, match="already in use"):
        declare_param("hq", 5)
    assert relation_of("hq") is None
    assert v * v == MPoly.var("hq", 6)
    # the zero-divisor check comes first
    with pytest.raises(ExactError, match="zero divisors"):
        declare_param("hq", 4)


def _int_mul(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        for j, v in enumerate(b):
            out[i + j] += u * v
    return out


def _prs_gcd(a, b):
    """The primitive PRS over Z alone, up to sign (the oracle)."""
    a, b = exact._primitive(a), exact._primitive(b)
    if len(a) < len(b):
        a, b = b, a
    while b:
        a, b = b, exact._primitive(exact._pseudo_rem(a, b))
    return a if a[-1] > 0 else [-v for v in a]


def _random_int_poly(rng, deg):
    return [rng.randint(-9, 9) for _ in range(deg)] + [rng.choice([-3, -2, -1, 1, 2, 3])]


def test_int_poly_gcd_matches_the_prs():
    rng = random.Random(2727)
    coprime = 0
    for _ in range(200):
        g = _random_int_poly(rng, rng.randint(0, 2))
        a = _int_mul(g, _random_int_poly(rng, rng.randint(0, 3)))
        b = _int_mul(g, _random_int_poly(rng, rng.randint(0, 3)))
        got = exact.int_poly_gcd(a, b)
        assert (got if got[-1] > 0 else [-v for v in got]) == _prs_gcd(a, b), (a, b)
        coprime += got == [1]
    assert 20 < coprime < 180


def test_int_poly_gcd_skips_the_prs_only_where_a_unit_image_gcd_proves_coprime(monkeypatch):
    calls = []
    pseudo_rem = exact._pseudo_rem

    def counting(a, b):
        calls.append(len(a))
        return pseudo_rem(a, b)

    monkeypatch.setattr(exact, "_pseudo_rem", counting)
    # (k+1)^60 and (k+2)^60 as int lists in k: coprime, proven mod p
    a = b = [1]
    for _ in range(60):
        a, b = _int_mul(a, [1, 1]), _int_mul(b, [2, 1])
    assert exact.int_poly_gcd(a, b) == [1] and calls == []
    # the common factor 1 + p*x has no image of its degree: its leading
    # coefficient maps to 0, the images x and x + 3 are coprime, and the PRS
    # finds the factor
    g = [1, MOD_P]
    got = exact.int_poly_gcd(_int_mul(g, [0, 1]), _int_mul(g, [3, 1]))
    assert calls and (got if got[-1] > 0 else [-v for v in got]) == g
