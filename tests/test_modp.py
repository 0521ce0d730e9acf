"""Rank certificates mod p (bispec.modp) and the ``decided_by`` verdicts of
fit_weights and solve_theta."""

import random

from bispec import cli, modp
from bispec.exact import MOD_P, ParamScalar
from bispec.diffop import DiffOp, XPoly, XRat
from bispec.adcond import WeightVector, ad_tower, as_operator, fit_weights, solve_theta
from bispec.families import catalog_ids, get_entry

N_INSTANCES = 100
K = ParamScalar.var("k")


def _value_mod_p(f: XRat, x0: int) -> int:
    """The image of f at x = x0, from its expanded numerator and denominator."""
    def at(p: XPoly) -> int:
        return sum(c.evaluate_mod() * pow(x0, d, MOD_P) for d, c in p.coeffs.items()) % MOD_P

    den = at(f.den)
    assert den, "the test point is a pole"
    return at(f.num) * pow(den, -1, MOD_P) % MOD_P


def _random_poly(rng, deg, parametric):
    coeffs = []
    for _ in range(deg + 1):
        c = ParamScalar.const(rng.randint(-5, 5))
        if parametric and rng.random() < 0.5:
            c = c + rng.randint(-3, 3) * K ** rng.randint(1, 2)
        coeffs.append(c)
    return XPoly.from_list(coeffs)


def _random_potential(rng, kind):
    v = XRat.from_poly(_random_poly(rng, rng.randint(0, 3), kind == "parametric"))
    if kind == "polynomial":
        return v
    shift = K if kind == "parametric" else ParamScalar.const(rng.randint(1, 4))
    base = rng.choice([XPoly.from_list([-shift, 1]), XPoly.from_list([shift, 0, 1])])
    num = _random_poly(rng, rng.randint(0, 1), kind == "parametric")
    if num.is_zero():
        num = XPoly.const(1)
    return v + XRat.from_ratio(num, base ** rng.randint(1, 2))


def test_tower_jets_match_the_symbolic_tower():
    # oracle: the image of every symbolic ad_tower coefficient at x0, and its
    # jet there, equal the jets stepped by the closed form mod p
    rng = random.Random(2024)
    kinds = ["polynomial", "rational", "parametric"]
    checked = 0
    for idx in range(N_INSTANCES):
        v = _random_potential(rng, kinds[idx % 3])
        theta = _random_poly(rng, rng.randint(1, 4), rng.random() < 0.5)
        if theta.is_zero():
            theta = XPoly.x()
        op = DiffOp.schrodinger(v)
        j = rng.randint(0, 5)
        tower = ad_tower(op, theta, j)
        a_images = {r: modp._image(c) for r, c in as_operator(theta).coeffs.items()}
        x0 = rng.randrange(2, MOD_P)
        jets = modp._tower_at(modp._image(v), a_images, x0, j)
        assert jets is not None
        for level, (sym, jet_level) in enumerate(zip(tower, jets)):
            n = 2 * (j - level) + 1
            assert set(jet_level) >= set(sym.coeffs)
            for r, jet in jet_level.items():
                c = sym.coeff(r)
                assert len(jet) == n
                assert jet[0] == _value_mod_p(c, x0)
                assert jet == modp._jet(modp._image(c), x0, n)
                checked += 1
    assert checked > 5 * N_INSTANCES


def test_own_condition_is_never_refuted():
    # every holding scalar entry has a condition on its own orders, so the
    # certificate must stay undecided there
    for cid in catalog_ids():
        entry = get_entry(cid)
        if entry.kind != "scalar" or not entry.expect_holds:
            continue
        orders = [j for j, _ in entry.condition.items()]
        assert not modp.no_weights(entry.operator, as_operator(entry.theta), orders), cid


def test_printed_three_step_display_has_no_condition():
    # with the printed tau constant no condition exists on orders 9,7,...,1
    entry = get_entry("laguerre-step:3")
    assert modp.no_weights(entry.operator, as_operator(entry.theta), [9, 7, 5, 3, 1])


def test_existing_theta_stays_symbolic():
    entry = get_entry("laguerre-step:1")
    result = solve_theta(entry.operator, WeightVector({5: 1, 3: -5, 1: 4}), 4)
    assert result.decided_by == "symbolic"
    assert len(result.thetas) == 1


def test_relation_bearing_entries_stay_symbolic():
    for cid in ("ansatz:A4-40A2+144A0:9", "ansatz:A4-40A2+144A0:10"):
        entry = get_entry(cid)
        assert "sqrt2*sqrt3" in str(entry.theta)
        result = fit_weights(entry.operator, entry.theta, [2, 0])
        assert result.vectors == [] and result.decided_by == "symbolic"
        result = fit_weights(entry.operator, entry.theta, [4, 2, 0])
        assert len(result.vectors) == 1 and result.decided_by == "symbolic"


def test_verify_refute_nullspaces_are_decided_mod_p():
    for argv in (["fit-weights", "--catalog", "laguerre-step:2", "--orders", "5,3,1"],
                 ["solve-theta", "--catalog", "laguerre-step:1",
                  "--weights", "5:1,3:-34,1:4", "--deg", "4"]):
        (verdict,) = cli.run(argv)["verdicts"]
        assert verdict["holds"] is True
        assert verdict["decided_by"] == "mod-p"
        assert verdict["assumptions"] == []
        assert "weights" not in verdict and "theta" not in verdict


def test_found_solutions_report_symbolic():
    report = cli.run(["fit-weights", "--catalog", "laguerre-step:1", "--orders", "5,3,1"])
    assert [v["decided_by"] for v in report["verdicts"]] == ["symbolic"]
    report = cli.run(["solve-theta", "--L", "x^2", "--weights", "2:1,0:-4", "--deg", "1"])
    assert [v["decided_by"] for v in report["verdicts"]] == ["symbolic"]


def test_certificate_is_undecided_for_undefined_images():
    # a relation-bearing weight has no image
    op = DiffOp.schrodinger(XPoly.monomial(2))
    w = WeightVector({2: 1, 0: ParamScalar.var("sqrt2")})
    assert not modp.no_theta(op, w, [1, 2])


def test_pole_at_a_point_is_skipped():
    # V has a pole at the first point, so the certificate comes from the next;
    # x, -2D and -2/(x - x0)^2 are independent
    x0 = pow(2, 65537, MOD_P)
    v = XRat.from_ratio(XPoly.const(1), XPoly.from_list([-x0, 1]))
    a_images = {0: modp._image(XRat.from_poly(XPoly.x()))}
    assert modp._tower_at(modp._image(v), a_images, x0, 2) is None
    op = DiffOp.schrodinger(v)
    assert modp.no_weights(op, as_operator(XPoly.x()), [2, 1, 0])
