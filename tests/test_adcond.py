import pytest

from bispec.exact import EXP_MAX, ExactError, ParamScalar, Rat
from bispec.diffop import DiffOp, XPoly, XRat, commutator, equals, schrodinger_commutator
from bispec.adcond import (
    WeightVector,
    ad_power,
    ad_tower,
    fit_weights,
    heisenberg_series,
    hermite_new_weights,
    reach_weights,
    residual_from_tower,
    solve_theta,
    verify_condition,
)

HARMONIC = DiffOp.schrodinger(XPoly.monomial(2))
X = XPoly.x()


def exc_hermite_k1():
    v = XRat.from_poly(XPoly.monomial(2)) + XRat.from_ratio(XPoly.const(2), XPoly.monomial(2))
    return DiffOp.schrodinger(v), XPoly.from_list([-2, 0, 4])


def test_ad_power_zero_is_theta():
    assert equals(ad_power(HARMONIC, X, 0), DiffOp.mul_by(X))


def test_ad_power_harmonic():
    assert equals(ad_power(HARMONIC, X, 1), DiffOp({1: XRat.const(-2)}))
    assert equals(ad_power(HARMONIC, X, 2), DiffOp.mul_by(XPoly.monomial(1, 4)))


@pytest.mark.parametrize("entry_id", ["laguerre-step:2", "ansatz:A4-40A2+144A0:10"])
def test_schrodinger_commutator_lists_have_no_dividing_bases(entry_id):
    # the step-2 Laguerre potential is built from a base and its square; no
    # coefficient list of either tower may keep a base next to a multiple
    from bispec.families import get_entry
    from .test_properties import assert_no_base_divides_another
    entry = get_entry(entry_id)
    v_derivs = [entry.operator.potential()]
    current = DiffOp.mul_by(entry.theta)
    for j in range(4):
        closed = schrodinger_commutator(v_derivs, current, (j + 1) % 2)
        generic = commutator(entry.operator, current)
        for op in (closed, generic):
            for c in op.coeffs.values():
                assert_no_base_divides_another(c.factors)
        assert equals(closed, generic)
        current = closed.reduced()


def test_ad_power_order_bound_and_exact_order():
    tower = ad_tower(HARMONIC, X, 6)
    for j, a in enumerate(tower):
        assert a.order() <= j
    # the order-j coefficient of A_j is a multiple of the j-th derivative of
    # theta, so the order is exactly j as long as j <= deg theta
    op, theta = exc_hermite_k1()
    tower = ad_tower(op, theta, 5)
    for j, a in enumerate(tower):
        assert a.order() <= j
        if j <= theta.degree():
            assert a.order() == j


def elementary_symmetric(values, m):
    out = [Rat(1)] + [Rat(0)] * len(values)
    for v in values:
        for idx in range(len(values), 0, -1):
            out[idx] += v * out[idx - 1]
    return out[m]


@pytest.mark.parametrize("n,s,expected", [
    (1, 1, {3: 1, 1: -1}),
    (2, 1, {5: 1, 3: -5, 1: 4}),
    (1, 2, {3: 1, 1: -4}),
    (2, 2, {5: 1, 3: -20, 1: 64}),
    (3, 1, {7: 1, 5: -14, 3: 49, 1: -36}),
    (4, 1, {9: 1, 7: -30, 5: 273, 3: -820, 1: 576}),
    (3, 2, {7: 1, 5: -56, 3: 784, 1: -2304}),
    (4, 2, {9: 1, 7: -120, 5: 4368, 3: -52480, 1: 147456}),
])
def test_reach_weights(n, s, expected):
    assert reach_weights(n, s) == WeightVector(expected)


@pytest.mark.parametrize("n,s", [(1, 1), (2, 1), (3, 1), (2, 2), (3, 2), (4, 3)])
def test_reach_weights_elementary_symmetric_oracle(n, s):
    # independent oracle: expand prod (z - (s i)^2) by elementary symmetric sums
    w = reach_weights(n, s)
    squares = [Rat(s * i) ** 2 for i in range(1, n + 1)]
    for m in range(n + 1):
        order = 2 * n + 1 - 2 * m
        want = elementary_symmetric(squares, m) * (-1) ** m
        assert w.get(order) == ParamScalar.const(want)


@pytest.mark.parametrize("k,expected", [
    (0, {2: 1, 0: -4}),
    (1, {3: 1, 1: -16}),
    (2, {4: 1, 2: -40, 0: 144}),
    (3, {5: 1, 3: -80, 1: 1024}),
    (4, {6: 1, 4: -140, 2: 4144, 0: -14400}),
])
def test_hermite_new_weights(k, expected):
    w = hermite_new_weights(k)
    assert w == WeightVector(expected)
    assert w.top_order == k + 2


def test_verify_condition_holds_and_fails():
    op, theta = exc_hermite_k1()
    assert verify_condition(op, theta, WeightVector({3: 1, 1: -16})).holds
    report = verify_condition(op, theta, WeightVector({2: 1, 0: -16}))
    assert not report.holds
    assert not report.residual.is_zero()


def test_verify_condition_zero_theta():
    report = verify_condition(HARMONIC, XPoly.zero(), WeightVector({0: 1}))
    assert report.holds


def test_weight_vector_invariants():
    with pytest.raises(ExactError):
        WeightVector({})
    with pytest.raises(ExactError):
        WeightVector({2: 0})
    w = WeightVector({3: 2, 1: -8})
    assert w.monic() == WeightVector({3: 1, 1: -4})


def test_fit_weights_examples():
    result = fit_weights(HARMONIC, X, [2, 0])
    assert len(result.vectors) == 1
    assert result.vectors[0].monic() == WeightVector({2: 1, 0: -4})

    result = fit_weights(HARMONIC, X, [3, 1])
    assert len(result.vectors) == 1
    assert result.vectors[0].monic() == WeightVector({3: 1, 1: -4})

    op, theta = exc_hermite_k1()
    result = fit_weights(op, theta, [3, 1])
    assert len(result.vectors) == 1
    assert result.vectors[0].monic() == WeightVector({3: 1, 1: -16})


def test_fit_weights_no_condition():
    # no condition of the form a*A_2 + b*A_0 = 0 exists for the k=1 family
    op, theta = exc_hermite_k1()
    result = fit_weights(op, theta, [2, 0])
    assert result.vectors == []


def test_fit_weights_rejects_negative_orders():
    with pytest.raises(ExactError, match="orders must be >= 0"):
        fit_weights(HARMONIC, X, [3, -1])


def test_solve_theta_examples():
    result = solve_theta(HARMONIC, WeightVector({2: 1, 0: -4}), 1)
    assert [str(t) for t in result.thetas] == ["x"]

    op, _ = exc_hermite_k1()
    result = solve_theta(op, WeightVector({3: 1, 1: -16}), 3)
    assert len(result.thetas) == 1
    # the H_2 direction up to the dropped constant
    assert result.thetas[0] == XPoly.monomial(2)


def test_solve_theta_respects_degree_bound_argument():
    with pytest.raises(ExactError):
        solve_theta(HARMONIC, WeightVector({2: 1, 0: -4}), 0)
    # the command line stops far lower (cli.LIMITS); the library bound is EXP_MAX
    with pytest.raises(ExactError, match="exceeds the largest x-degree"):
        solve_theta(HARMONIC, WeightVector({2: 1, 0: -4}), EXP_MAX + 1)


def test_implication_chain_weight_factorization():
    # (ad^2 - 4) applied to the k=1 condition gives the ladder condition
    lowered = hermite_new_weights(1)
    assert lowered.quadratic_step(4) == WeightVector({5: 1, 3: -20, 1: 64})
    # k=0: ladder condition = ad applied to the lowered one
    shifted0 = WeightVector({j + 1: c for j, c in hermite_new_weights(0).items()})
    assert shifted0 == WeightVector({3: 1, 1: -4})
    # k=2: (ad^2-16) ad applied to the lowered condition gives the ladder
    shifted2 = WeightVector({j + 1: c for j, c in hermite_new_weights(2).items()})
    assert shifted2.quadratic_step(16) == reach_weights(3, 2)


@pytest.mark.parametrize("k", [0, 1, 2])
def test_implication_chain_verifies(k):
    from bispec.families import exceptional_hermite
    op, theta = exceptional_hermite(k)
    tower = ad_tower(op, theta, 2 * (k + 1) + 1)
    assert residual_from_tower(tower, hermite_new_weights(k)).is_zero()
    assert residual_from_tower(tower, reach_weights(k + 1, 2)).is_zero()


def test_heisenberg_harmonic():
    report = heisenberg_series(HARMONIC, X, 5)
    assert report.rate == ParamScalar.const(4)
    assert all(report.closed_form_matches.values())
    # A_{2i+1} = 4^i A_1 and A_{2i} = 4^{i-1} A_2
    for j, c in report.relations:
        assert c == ParamScalar.const(4)
    assert {j for j, _ in report.relations} == {0, 1, 2, 3}
    # closed form: cosh(2t) x - sinh(2t) D
    assert equals(report.powers[1], DiffOp({1: XRat.const(-2)}))


def test_heisenberg_exceptional_k1():
    op, theta = exc_hermite_k1()
    report = heisenberg_series(op, theta, 9)
    assert report.rate == ParamScalar.const(16)
    assert {j for j, _ in report.relations} == {1, 2, 3, 4, 5, 6, 7}
    for m in range(1, 10, 2):
        assert report.closed_form_matches[m]
    assert report.closed_form_matches[0]
    for m in range(2, 10, 2):
        assert not report.closed_form_matches[m]
        assert report.even_chain_matches[m]


def test_heisenberg_zero_theta():
    report = heisenberg_series(HARMONIC, XPoly.zero(), 3)
    assert all(p.is_zero() for p in report.powers)
