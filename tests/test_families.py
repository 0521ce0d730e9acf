import pytest

from bispec.exact import ParamScalar, Rat, ExactError
from bispec.diffop import XPoly, XRat
from bispec.adcond import WeightVector, reach_weights, solve_theta
from bispec.families import (
    STEP2_WEIGHTS_PRINTED,
    ansatz_solution_catalog,
    ansatz_equations,
    ansatz_solution_count,
    catalog_ids,
    exceptional_hermite,
    get_entry,
    hermite_poly,
    laguerre_catalog,
    verify_entry,
    _inv_square,
    _pole,
)


def test_hermite_polynomials():
    assert hermite_poly(0) == XPoly.one()
    assert hermite_poly(1) == XPoly.monomial(1, 2)
    assert hermite_poly(2) == XPoly.from_list([-2, 0, 4])
    assert hermite_poly(3) == XPoly.from_list([0, -12, 0, 8])


@pytest.mark.parametrize("n", range(1, 11))
def test_hermite_derivative_identity(n):
    assert hermite_poly(n).derivative() == hermite_poly(n - 1).scale(2 * n)


def test_exceptional_hermite_small_cases():
    op0, theta0 = exceptional_hermite(0)
    assert op0.potential() == XRat.from_poly(XPoly.monomial(2))
    assert theta0 == XPoly.monomial(1, 2)
    op1, theta1 = exceptional_hermite(1)
    want = XRat.from_poly(XPoly.monomial(2)) + XRat.from_ratio(XPoly.const(2), XPoly.monomial(2))
    assert op1.potential() == want
    assert theta1 == XPoly.from_list([-2, 0, 4])


def test_partition_22_entry():
    entry = get_entry("hermite-exc:p22")
    assert entry.theta == XPoly({5: ParamScalar.const(4), 1: ParamScalar.const(15)})
    assert verify_entry(entry).holds


def test_every_entry_matches_expectation():
    for cid in catalog_ids():
        entry = get_entry(cid)
        report = verify_entry(entry)
        assert report.holds == entry.expect_holds, cid


def test_flagged_entries_documented():
    for cid in ("laguerre-step:2", "laguerre-step:3", "matrix:laguerre:1a-printed"):
        entry = get_entry(cid)
        assert not entry.expect_holds
        assert entry.notes


def test_laguerre_catalog_weights():
    assert laguerre_catalog(1).condition == WeightVector({5: 1, 3: -5, 1: 4})
    assert laguerre_catalog(2).condition == STEP2_WEIGHTS_PRINTED
    assert laguerre_catalog(3).condition == WeightVector(
        {9: 1, 7: -30, 5: 273, 3: -820, 1: 576})
    with pytest.raises(ExactError):
        laguerre_catalog(4)


def test_laguerre_step0_potential():
    v = laguerre_catalog(0).operator.potential()
    k = ParamScalar.var("k")
    k2 = k * k
    want = (XRat.from_poly(XPoly.monomial(2, Rat(1, 16)))
            + XRat.from_ratio(
                XPoly.const((k2 * k2 + 8 * k2 + 12) * ParamScalar.const(Rat(1, 16))),
                XPoly.monomial(2)))
    assert v == want


def test_step2_weight_discrepancy_is_resolved_by_solve_theta():
    # printed -34 admits no eigenvalue polynomial; -36 admits exactly one ray
    entry = laguerre_catalog(2)
    towers = {}
    empty = solve_theta(entry.operator, STEP2_WEIGHTS_PRINTED, 6, monomial_towers=towers)
    assert empty.thetas == [] and empty.assumptions == []
    good = solve_theta(entry.operator, reach_weights(3, 1), 6, monomial_towers=towers)
    assert len(good.thetas) == 1
    # the pivots' zero sets, once each: k = 0 and k^2 = 4
    assert [str(a) for a in good.assumptions] == ["k", "k^2 - 4"]
    # primitive over Q[k]: no spurious (k^2 - 4) factor
    k = ParamScalar.var("k")
    assert good.thetas[0] == XPoly({6: ParamScalar.const(1), 4: k * k * -3,
                                    2: k ** 4 * 3 - k * k * 12})


def test_theta_derivative_is_a_constant_multiple_of_tau():
    # theta' = c * tau on the Hermite entries and c * x * tau on the Laguerre
    # chain, c constant in x; only the printed tau of laguerre-step:3 breaks it
    checked = []
    for cid in catalog_ids():
        entry = get_entry(cid)
        if entry.tau is None:
            continue
        tau = entry.tau if cid.startswith("hermite-exc:") else entry.tau * XPoly.x()
        dtheta = entry.theta.derivative()
        c = dtheta.coeff(dtheta.degree()) / tau.coeff(tau.degree())
        assert (dtheta == tau.scale(c)) is (cid != "laguerre-step:3"), cid
        checked.append(cid)
    assert checked == [f"hermite-exc:k={k}" for k in range(5)] + ["hermite-exc:p22"] + [
        "laguerre-step:0", "laguerre-step:1", "laguerre-step:2", "laguerre-step:2-product",
        "laguerre-step:3", "laguerre-step:3-wronskian"]


def test_ansatz_catalog_lookup():
    assert set(ansatz_equations()) == {
        "A2-4A0", "A3-16A1", "A5-5A3+4A1", "A4-40A2+144A0"}
    assert ansatz_solution_count("A5-5A3+4A1") == 7
    assert ansatz_solution_count("A4-40A2+144A0") == 10
    theta, v = ansatz_solution_catalog("A4-40A2+144A0", 4)
    assert theta == XPoly.monomial(3)
    with pytest.raises(ExactError):
        ansatz_solution_catalog("A4-40A2+144A0", 11)
    with pytest.raises(ExactError):
        ansatz_solution_catalog("A9", 1)


def test_fifth_quintic_solution_shape():
    theta, v = ansatz_solution_catalog("A5-5A3+4A1", 5)
    a = ParamScalar.var("a")
    # V = (2x^2 + ax)/32
    assert v == XRat.from_poly(XPoly({2: ParamScalar.const(Rat(1, 16)),
                                      1: a * Rat(1, 32)}))
    assert theta.degree() == 4


def _squared_pole_sites():
    """(c, base) of every squared pole the catalog enters through _inv_square."""
    k, c1, p1, e1, t, u = (ParamScalar.var(n) for n in ("k", "c1", "p1", "e1", "t", "u"))
    sixteenth = ParamScalar.const(Rat(1, 16))
    return [
        (2, XPoly.from_list([k, 1])),                                   # _step1_v
        (2, XPoly.from_list([-k, 1])),
        (8 * k * k - 16 * k, XPoly({2: ParamScalar.const(1), 0: -k * k + 2 * k})),  # _step2_v
        (8 * k * k + 16 * k, XPoly({2: ParamScalar.const(1), 0: -k * k - 2 * k})),
        (4 * p1, XPoly.from_list([c1, 2])),                             # A5 fourth
        (p1, _pole(e1)),                                                # A5 sixth
        (2, _pole(t + u)),                                              # A5 seventh
        (2, _pole(t - u)),
        ((u ** 4 - 4) * sixteenth, _pole(t)),
    ]


@pytest.mark.parametrize("site", range(9))
def test_squared_pole_factor_equals_expanded_square(site):
    c, base = _squared_pole_sites()[site]
    assert _inv_square(c, base) == XRat.from_ratio(XPoly.const(c), base * base)


def test_quintic_seventh_potential_keeps_squared_poles_as_factors():
    _, v = ansatz_solution_catalog("A5-5A3+4A1", 7)
    t, u = ParamScalar.var("t"), ParamScalar.var("u")
    poles = [_pole(t + u), _pole(t - u), _pole(t)]
    assert len(v.factors) == 3
    for pole in poles:
        assert any(base == pole and exp == 2 for base, exp in v.factors)


def test_unknown_catalog_id():
    with pytest.raises(ExactError, match="unknown catalog id"):
        get_entry("nope:1")
