import random
import sys

import pytest

from bispec import cli, diffop
from bispec.exact import EXP_MAX, ExactError, MPoly, PS_ONE, ParamScalar, Rat, mod_p_residue
from bispec.adcond import WeightVector, ad_tower
from bispec.ansatz import generate_system
from bispec.families import get_entry, verify_entry
from bispec.diffop import (
    DiffOp,
    QuasiRat,
    XPoly,
    XRat,
    annihilates_monomials,
    apply_op,
    commutator,
    compose,
    equals,
    is_eigenfunction,
    log_derivative,
    _image_divmod,
    _image_gcd,
    _mod_p_coeffs,
    _refutes_division,
)


def xp(*ascending):
    return XPoly.from_list(list(ascending))


D = DiffOp.d()
X_OP = DiffOp.mul_by(XPoly.x())


def test_compose_d_with_x():
    # D o x = x D + 1
    got = compose(D, X_OP)
    want = DiffOp({1: XRat.from_poly(XPoly.x()), 0: XRat.const(1)})
    assert equals(got, want)


def test_compose_d2_with_x():
    got = compose(DiffOp.d(2), X_OP)
    want = DiffOp({2: XRat.from_poly(XPoly.x()), 1: XRat.const(2)})
    assert equals(got, want)
    # cross-check against the action on monomials
    for m in range(4):
        f = XRat.from_poly(XPoly.monomial(m))
        image = apply_op(got, f)
        direct = XRat.from_poly((XPoly.monomial(m + 1)).derivative().derivative())
        assert image == direct


def test_compose_xd_squared():
    xd = compose(X_OP, D)
    got = compose(xd, xd)
    want = DiffOp({2: XRat.from_poly(XPoly.monomial(2)), 1: XRat.from_poly(XPoly.x())})
    assert equals(got, want)


def test_commutator_dx():
    assert equals(commutator(D, X_OP), DiffOp.identity())


def test_commutator_with_multiplication():
    # [-D^2 + V, g] = -2 g' D - g'' for any V
    v = XRat.from_ratio(xp(1, 2), xp(0, 0, 1))
    op = DiffOp.schrodinger(v)
    g = xp(1, 2, 3)
    got = commutator(op, DiffOp.mul_by(g))
    want = DiffOp({1: XRat.from_poly(g.derivative().scale(-2)),
                   0: XRat.from_poly(-g.derivative().derivative())})
    assert equals(got, want)
    assert annihilates_monomials(got - want)


def test_apply_examples():
    assert apply_op(DiffOp({1: XRat.const(-2)}), XRat.from_poly(xp(0, 0, 0, 1))) \
        == XRat.from_poly(XPoly.monomial(2, -6))
    harmonic = DiffOp.schrodinger(XPoly.monomial(2))
    assert apply_op(harmonic, XRat.const(1)) == XRat.from_poly(XPoly.monomial(2))
    a1 = commutator(harmonic, X_OP)
    assert apply_op(a1, XRat.from_poly(XPoly.x())) == XRat.const(-2)


def test_equals_with_zero_padding():
    a = DiffOp({1: XRat.const(1)})
    b = a + DiffOp({2: XRat.const(0)})
    assert equals(a, b)


def test_second_ad_power_is_2vprime():
    v = XRat.from_poly(XPoly.monomial(2))
    op = DiffOp.schrodinger(v)
    a1 = commutator(op, X_OP)
    a2 = commutator(op, a1)
    want = DiffOp.mul_by(XPoly.monomial(1, 4))
    assert equals(a2, want)


def test_xrat_parameter_free_reduction():
    f = XRat.from_ratio(xp(0, 0, 0, 1), XPoly.x())
    assert f.is_polynomial()
    assert f.as_xpoly() == XPoly.monomial(2)
    g = XRat.from_ratio(xp(-1, 0, 1), xp(-1, 1) * xp(2, 1)).reduced()
    assert g.num == xp(1, 1)
    assert g.den == xp(2, 1)
    # the constructor's normal form: a constant base scales the numerator,
    # and a negative exponent moves its base to the numerator
    half = XRat(XPoly.x(), ((XPoly.const(2), 1),))
    assert half.factors == () and half.num == xp(0, Rat(1, 2))
    moved = XRat(XPoly.x(), ((xp(1, 1), -2),))
    assert moved.factors == () and moved.num == XPoly.x() * xp(1, 1) ** 2


def test_xrat_derivative_quotient_rule():
    f = XRat.from_ratio(XPoly.one(), XPoly.monomial(2))
    df = f.derivative()
    assert df == XRat.from_ratio(XPoly.const(-2), XPoly.monomial(3))


def test_log_derivative_power():
    a = ParamScalar.var("alpha")
    q = QuasiRat(factors=((XPoly.x(), a),))
    assert log_derivative(q) == XRat.from_ratio(XPoly.const(a), XPoly.x())


def test_log_derivative_exponential():
    q = QuasiRat(exp_part=XPoly.monomial(2, Rat(1, 8)))
    assert log_derivative(q) == XRat.from_poly(XPoly.monomial(1, Rat(1, 4)))


def test_log_derivative_seed_product():
    # x^(m+1/2) * (x^2-k^2)/4 * exp(x^2/8)
    k = ParamScalar.var("k")
    mu = ParamScalar.const(Rat(-1, 4)) * (k * k + 2)
    base = XPoly({2: PS_ONE, 0: -(k * k)})
    q = QuasiRat(((XPoly.x(), mu), (base, PS_ONE)),
                 exp_part=XPoly.monomial(2, Rat(1, 8)),
                 scale=ParamScalar.const(Rat(1, 4)))
    want = (XRat.from_ratio(XPoly.const(mu), XPoly.x())
            + XRat.from_ratio(XPoly.monomial(1, 2), base)
            + XRat.from_poly(XPoly.monomial(1, Rat(1, 4))))
    assert log_derivative(q) == want


def test_quasirat_rejects_zero_base():
    with pytest.raises(ExactError):
        QuasiRat(factors=((XPoly.zero(), PS_ONE),))


def test_is_eigenfunction_cases():
    free = DiffOp.schrodinger(XRat.const(0))
    assert is_eigenfunction(free, QuasiRat(((XPoly.x(), PS_ONE),))) == ParamScalar.const(0)
    harmonic = DiffOp.schrodinger(XPoly.monomial(2))
    ground = QuasiRat(exp_part=XPoly.monomial(2, Rat(-1, 2)))
    assert is_eigenfunction(harmonic, ground) == ParamScalar.const(1)
    first = QuasiRat(((XPoly.x(), PS_ONE),), exp_part=XPoly.monomial(2, Rat(-1, 2)))
    assert is_eigenfunction(harmonic, first) == ParamScalar.const(3)
    # x is not an eigenfunction of the harmonic oscillator
    assert is_eigenfunction(harmonic, QuasiRat(((XPoly.x(), PS_ONE),))) is None


def test_potential_extraction_requires_schrodinger_form():
    op = DiffOp({2: XRat.const(-1), 1: XRat.const(1)})
    with pytest.raises(ExactError):
        op.potential()


def test_order_bound_for_commutators():
    v = XRat.from_poly(xp(0, 1, 2))
    op = DiffOp.schrodinger(v)
    a = DiffOp({3: XRat.from_poly(xp(1, 1)), 0: XRat.const(5)})
    assert commutator(op, a).order() <= op.order() + a.order() - 1


_DENOMINATORS = [MPoly.one(), MPoly.var("k") + 1, MPoly.var("a") - 2,
                 MPoly.var("k") * MPoly.var("a") + 3]


def _random_param_scalar(rng):
    """A small ParamScalar, mostly with a parametric denominator."""
    num = MPoly.const(rng.randint(-4, 4))
    for _ in range(rng.randint(1, 2)):
        num = num + MPoly.var(rng.choice("ka"), rng.randint(1, 2)) * rng.randint(-5, 5)
    return ParamScalar(num, rng.choice(_DENOMINATORS))


def _random_xpoly(rng, deg, monic=False):
    coeffs = {d: _random_param_scalar(rng) for d in range(deg + 1)}
    if monic:
        coeffs[deg] = PS_ONE
    return XPoly({d: c for d, c in coeffs.items() if not c.is_zero()})


def test_mod_p_refutation_is_sound_oracle():
    """The check refutes a trial division only when the symbolic remainder is
    nonzero, never an exact multiple, and here every division that fails."""
    rng = random.Random(20261018)
    refuted = inexact = 0
    for _ in range(120):
        base = _random_xpoly(rng, rng.randint(1, 3), monic=True)
        num = _random_xpoly(rng, rng.randint(0, 2), monic=True) * base
        assert not num.is_zero() and not _refutes_division(num, base)
        assert num.divmod(base)[1].is_zero()
        rest = _random_xpoly(rng, rng.randint(0, base.degree() - 1))
        num = num + rest if rng.random() < 0.8 else rest
        if num.is_zero():
            continue
        _, rem = num.divmod(base)
        inexact += not rem.is_zero()
        if _refutes_division(num, base):
            refuted += 1
            assert not rem.is_zero()
    assert inexact >= 100
    assert refuted == inexact


def test_mod_p_refutation_undecided_cases():
    k = ParamScalar.var("k")
    r = mod_p_residue("k")
    sqrt2 = ParamScalar.var("sqrt2")
    x2_plus_1 = xp(1, 0, 1)
    cases = [
        (x2_plus_1, xp(sqrt2, 1)),                               # relation in the base
        (xp(sqrt2 * k, 0, 1), xp(k, 1)),                         # relation in the numerator
        (xp(PS_ONE / (k - r), 0, 1), xp(k, 1)),                  # a denominator maps to 0
        (x2_plus_1, XPoly({1: k - r, 0: PS_ONE})),               # the leading coefficient maps to 0
    ]
    for num, base in cases:
        assert not num.divmod(base)[1].is_zero()
        assert not _refutes_division(num, base)
    assert _refutes_division(x2_plus_1, xp(k, 1))
    assert _refutes_division(x2_plus_1, xp(-1, 1))  # no parameter: refuted too


def test_gen_system_trial_divisions_all_succeed(monkeypatch):
    """Every failing trial division of XRat.reduced on this system is refuted
    mod p before its symbolic divmod runs."""
    seen = []
    divmod_ = XPoly.divmod

    def recording(self, other):
        quo, rem = divmod_(self, other)
        if sys._getframe(1).f_code.co_name == "reduced":
            seen.append(rem.is_zero())
        return quo, rem

    monkeypatch.setattr(XPoly, "divmod", recording)
    generate_system(WeightVector({5: 1, 3: -5, 1: 4}))
    assert seen and all(seen)


def test_split_divisible_runs_only_exact_divisions(monkeypatch):
    """Every pair of bases that does not divide is refuted mod p, parameter-free
    pairs included, so each symbolic divmod of the split leaves no remainder."""
    entry = get_entry("hermite-exc:k=3")  # the catalog is built before the wrap
    seen = []
    divmod_ = XPoly.divmod

    def recording(self, other):
        quo, rem = divmod_(self, other)
        if sys._getframe(1).f_code.co_name == "_split_divisible":
            seen.append(rem.is_zero())
        return quo, rem

    monkeypatch.setattr(XPoly, "divmod", recording)
    assert verify_entry(entry).holds
    assert seen and all(seen)


def test_rational_gcd_runs_only_where_images_share_a_factor(monkeypatch):
    """The parameter-free counterpart: every base that the numerator of
    hermite-exc:k=3's tower does not divide is proven coprime to it mod p,
    except x^3 - 3/2*x, of which only x cancels; the rational gcd runs for
    that base alone, once: the orders that the adjoint identity fills
    (``schrodinger_commutator``) meet no base that only partly cancels."""
    entry = get_entry("hermite-exc:k=3")  # the catalog is built before the wrap
    seen = []
    gcd = diffop.xpoly_gcd_rational

    def recording(num, base):
        seen.append(base)
        return gcd(num, base)

    monkeypatch.setattr(diffop, "xpoly_gcd_rational", recording)
    assert verify_entry(entry).holds
    assert len(seen) == 1
    assert all(base == xp(0, Rat(-3, 2), 0, 1) for base in seen)


def _images(num, base):
    """The images of num and base, or None when undecided."""
    a, b = _mod_p_coeffs(num), _mod_p_coeffs(base)
    if a is None or b is None or not b[-1]:
        return None
    return a, b


def _random_free_xpoly(rng, deg, monic=False):
    coeffs = {d: Rat(rng.randint(-6, 6), rng.randint(1, 3)) for d in range(deg + 1)}
    if monic:
        coeffs[deg] = 1
    return XPoly({d: c for d, c in coeffs.items() if c})


def test_carried_image_quotient_is_the_quotients_image():
    """After an exact division num = q*base, the image quotient that
    XRat.reduced carries as the new numerator's image is q's own image."""
    rng = random.Random(20261019)
    checked = {"free": 0, "parametric": 0}
    for case in range(160):
        kind = "free" if case % 2 else "parametric"
        if kind == "free":
            base = _random_free_xpoly(rng, rng.randint(1, 3), monic=True)
            q = _random_free_xpoly(rng, rng.randint(0, 3))
        else:
            base = _random_xpoly(rng, rng.randint(1, 3), monic=True)
            q = _random_xpoly(rng, rng.randint(0, 3))
        if q.is_zero():
            continue
        num = q * base
        images = _images(num, base)
        if images is None:
            continue
        quo, rem = _image_divmod(*images)
        assert not any(rem)
        assert quo == _mod_p_coeffs(q)
        assert num.divmod(base) == (q, XPoly.zero())
        checked[kind] += 1
    assert min(checked.values()) >= 50


def test_images_never_call_a_common_factor_coprime():
    """num = g*h and base = g*k with deg g >= 1 share g, so the images are
    never reported coprime; unrelated pairs mostly are."""
    rng = random.Random(20261020)
    shared = coprime = 0
    for case in range(160):
        make = _random_free_xpoly if case % 2 else _random_xpoly
        g = make(rng, rng.randint(1, 2), monic=True)
        h = make(rng, rng.randint(0, 2))
        k = make(rng, rng.randint(0, 2), monic=True)
        if h.is_zero():
            continue
        images = _images(g * h, g * k)
        if images is None:
            continue
        a, b = images
        assert len(_image_gcd(b, _image_divmod(a, b)[1])) > 1
        shared += 1
        images = _images(h + 1, g)
        if images is not None:
            a, b = images
            coprime += len(_image_gcd(b, _image_divmod(a, b)[1])) == 1
    assert shared >= 100 and coprime >= 50


def test_relation_bearing_base_is_left_to_the_symbolic_division(monkeypatch):
    """A base in sqrt2 has no image, so reduced runs the symbolic division,
    which cancels an exact factor and keeps one that does not divide."""
    sqrt2 = ParamScalar.var("sqrt2")
    base = xp(sqrt2, 1)
    assert _mod_p_coeffs(base) is None
    seen = []
    divmod_ = XPoly.divmod

    def recording(self, other):
        quo, rem = divmod_(self, other)
        if sys._getframe(1).f_code.co_name == "reduced":
            seen.append(rem.is_zero())
        return quo, rem

    monkeypatch.setattr(XPoly, "divmod", recording)
    exact_ = XRat(base * xp(1, 0, 1), ((base, 2),)).reduced()
    assert exact_.num == xp(1, 0, 1) and exact_.factors == ((base, 1),)
    assert seen == [True, False]
    seen.clear()
    inexact = XRat(xp(1, 0, 1), ((base, 1),))
    assert inexact.reduced() is inexact
    assert seen == [False]


def test_xrat_equals_mpoly_and_param_scalar():
    k = MPoly.var("k")
    assert XRat.const(k) == k
    assert XRat.const(k) == ParamScalar.from_poly(k)
    assert XRat.const(k) != MPoly.var("a")



def test_x_degree_limit():
    """x has one 15-bit field like a parameter: 32767 is the largest x-degree,
    and a larger one raises rather than spilling into a parameter's field."""
    k = ParamScalar.var("k")
    assert XPoly.monomial(EXP_MAX).degree() == EXP_MAX
    with pytest.raises(ExactError):
        XPoly.monomial(EXP_MAX + 1)
    half = XPoly.monomial(1 << 14)
    with pytest.raises(ExactError):
        half * half                                          # x alone
    with pytest.raises(ExactError):
        half.scale(k) * half.scale(k)                        # one term each
    with pytest.raises(ExactError):
        (half + XPoly.const(k)) * (half + XPoly.const(k))    # x and a parameter
    with pytest.raises(ExactError):
        XPoly.monomial(EXP_MAX, k).derivative() * XPoly.monomial(2)
    top = XPoly.monomial(EXP_MAX, k)
    assert top.degree() == EXP_MAX and top.coeff(EXP_MAX) == k and top.coeff(0).is_zero()


def test_x_is_never_a_parameter():
    # declare_param("x") and --param x are pinned in test_exact and test_expr_cli
    with pytest.raises(ExactError):
        MPoly.var("x")
    with pytest.raises(ExactError):
        ParamScalar.var("x")


def test_xpoly_sum_renormalises_its_denominator():
    k = ParamScalar.var("k")
    a = XPoly({1: PS_ONE / k, 0: PS_ONE})   # (x + k)/k
    total = a + XPoly({1: -PS_ONE / k})     # k/k
    assert total.num == MPoly.one() and total.den is MPoly.one()
    assert a.derivative().den == MPoly.var("k")
    assert (a * XPoly.const(k)).den is MPoly.one()


def test_coefficient_view_cancels_factors_of_the_shared_denominator():
    """An XPoly keeps one denominator for all coefficients; each coefficient
    prints without the factors only the others need."""
    k, a, b = ParamScalar.var("k"), ParamScalar.var("a"), ParamScalar.var("b")
    one_parameter = XPoly({2: k / 3, 0: PS_ONE / (k + 1)})
    assert one_parameter.den == MPoly.var("k") + 1
    assert str(one_parameter) == "k/3*x^2 + (1/(k + 1))"
    two_parameters = XPoly({2: PS_ONE / (a + b), 1: PS_ONE / (a - b), 0: a})
    assert str(two_parameters) == "(1/(b + a))*x^2 + ((-1)/(b - a))*x + a"
    assert two_parameters.coeff(1).den == MPoly.var("b") - MPoly.var("a")
    report = cli.run(["ad", "--L", "x^2 + 1/(k+1)", "--param", "k",
                      "--theta", "x^2/(k+2) + x", "--j", "2"])
    assert report["inputs"]["theta"] == "(1/(k + 2))*x^2 + x"
    assert report["verdicts"][0]["residual"] == "(8/(k + 2))*D^2 + (8/(k + 2))*x^2 + 4*x"


def _fresh(p):
    """p as a new value, with no fact memoised on it."""
    return diffop._xp(p.num, p.den)


def _random_base(rng, kind):
    """A monic base of degree 1-3: int, rational, parametric or sqrt2 coefficients."""
    deg = rng.randint(1, 3)
    if kind == "polynomial":
        coeffs = {d: rng.randint(-5, 5) for d in range(deg)}
    elif kind == "rational":
        coeffs = {d: Rat(rng.randint(-6, 6), rng.randint(1, 4)) for d in range(deg)}
    elif kind == "parametric":
        coeffs = {d: _random_param_scalar(rng) for d in range(deg)}
    else:
        sqrt2 = ParamScalar.var("sqrt2")
        coeffs = {d: sqrt2 * rng.randint(1, 3) + rng.randint(-3, 3) for d in range(deg)}
    coeffs[deg] = 1
    return XPoly(coeffs)


_BASE_KINDS = ["polynomial", "rational", "parametric", "relation"]


def test_memoised_base_facts_equal_a_fresh_computation():
    """Each fact memoised on a base (degree, image, powers, log-derivative
    parts, refuted divisors) equals the same fact computed on a fresh value,
    whether it is read first or from the memo."""
    rng = random.Random(20261021)
    bases = [_random_base(rng, _BASE_KINDS[idx % 4]) for idx in range(24)]
    bases += [b * _random_base(rng, _BASE_KINDS[idx % 3]) for idx, b in enumerate(bases[:8])]
    for idx, b in enumerate(bases):
        for _ in range(2):  # the second read comes from the memo
            assert b.degree() == b.num.x_degree()
            assert _mod_p_coeffs(b) == _mod_p_coeffs(_fresh(b))
        assert (_mod_p_coeffs(b) is None) == (idx % 4 == 3)  # a product keeps sqrt2
        for n in rng.sample(range(6), 6):  # some powers come from the one below
            fresh = _fresh(b)
            want = diffop._xp_norm(fresh.num ** n, fresh.den ** n)
            got = b ** n
            assert got.num == want.num and got.den == want.den
            assert b ** n is got
    for _ in range(60):
        group = rng.sample(bases, rng.randint(1, 3))
        prod_all, parts = diffop._log_parts(group)
        fresh = [_fresh(b) for b in group]
        want_prod = XPoly.one()
        for b in fresh:
            want_prod = want_prod * b
        assert prod_all == want_prod
        for idx, b in enumerate(fresh):
            want = b.derivative()
            for jdx, other in enumerate(fresh):
                if jdx != idx:
                    want = want * other
            assert parts[idx] == want
        again = diffop._log_parts(group)
        assert again[0] is prod_all and again[1] is parts
    refuted = undecided = 0
    for big in bases:
        for small in bases:
            if small.degree() >= big.degree():
                continue
            verdict = _refutes_division(big, small)
            assert verdict == _refutes_division(_fresh(big), _fresh(small))
            assert _refutes_division(big, small) == verdict
            inexact = not big.divmod(small)[1].is_zero()
            refuted += verdict
            undecided += inexact and not verdict
            assert inexact or not verdict
    assert refuted >= 150 and undecided >= 20
    assert not _refutes_division(bases[24], bases[0])  # bases[0] divides it


def test_ad_tower_maps_each_base_to_gf_p_once(monkeypatch):
    """An ad tower on a potential over two bases maps each base once, from
    building V to the last step: every later trial division and split reads
    the memoised image."""
    seen = []
    images = MPoly.x_images_mod

    def recording(self, den=1, at=None):
        seen.append(self)
        return images(self, den, at)

    monkeypatch.setattr(MPoly, "x_images_mod", recording)
    x = XPoly.x()
    b1, b2 = x + 1, x * x + 3
    v = XRat(x * x, ()) + XRat(XPoly.const(1), ((b1, 2),)) + XRat(XPoly.const(2), ((b2, 1),))
    tower = ad_tower(DiffOp.schrodinger(v), x ** 3, 5)
    assert {id(b) for a in tower for c in a.coeffs.values() for b, _ in c.factors} == \
        {id(b1), id(b2)}
    assert [sum(m == b.num for m in seen) for b in (b1, b2)] == [1, 1]
