"""Rank certificates mod p (bispec.modp), the ``decided_by`` verdicts of
fit_weights and solve_theta, and the witnesses that refute a failing
condition in ``verify``."""

import math
import random

import pytest

from bispec import cli, modp
from bispec.exact import MOD_P, ExactError, ParamScalar, mod_p_residue
from bispec.diffop import DiffOp, XPoly, XRat
from bispec.adcond import (
    ConditionReport,
    WeightVector,
    ad_tower,
    fit_weights,
    solve_theta,
    verify_condition,
)
from bispec.matrixop import (
    JetCoeff,
    MatCondition,
    MatDiffOp,
    _images,
    _jet_coeff,
    mat_ad_tower,
    matrix_condition_witness,
    verify_matrix_condition,
)
from bispec.families import catalog_ids, get_entry, verify_entry

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


def test_functional_columns_match_the_symbolic_tower():
    # oracle: entry r of the functional column delta·A_i at x0, r <= i, is r!
    # times the image there of the symbolic ad_tower coefficient of D^r
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
        x0 = rng.randrange(2, MOD_P)
        columns = modp._columns(modp._image(v), modp._image(XRat.from_poly(theta)), [1],
                                [modp._horner([(i, 1)]) for i in range(j + 1)], x0)
        assert columns is not None
        for i, (sym, col) in enumerate(zip(tower, columns, strict=True)):
            assert len(col) == i + 1 > sym.order()
            for r, entry in enumerate(col):
                want = math.factorial(r) * _value_mod_p(sym.coeff(r), x0) % MOD_P
                assert entry == want, (idx, r)
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
        assert not modp.no_weights(entry.operator, DiffOp.mul_by(entry.theta), orders), cid


def test_printed_three_step_display_has_no_condition():
    # with the printed tau constant no condition exists on orders 9,7,...,1
    entry = get_entry("laguerre-step:3")
    assert modp.no_weights(entry.operator, DiffOp.mul_by(entry.theta), [9, 7, 5, 3, 1])


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
                 ["fit-weights", "--L", "x^2+1/x^2", "--theta", "x", "--orders", "70,1"],
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
    theta_image = modp._image(XRat.from_poly(XPoly.x()))
    assert modp._columns(modp._image(v), theta_image, [1], [modp._horner([(2, 1)])], x0) is None
    op = DiffOp.schrodinger(v)
    assert modp.no_weights(op, DiffOp.mul_by(XPoly.x()), [2, 1, 0])


FIRST_POINT = pow(2, 65537, MOD_P)


def _horner(images: list, x0: int) -> int:
    acc = 0
    for c in reversed(images):
        acc = (acc * x0 + c) % MOD_P
    return acc


def _image_at(f: XRat, x0: int) -> int:
    """f at x = x0 in GF(p), from the images of the coefficients of its
    expanded numerator and denominator (``x_images_mod``), by Horner's rule."""
    def at(p: XPoly) -> int:
        return _horner(p.num.x_images_mod(p.den.evaluate_mod()), x0)

    return at(f.num) * pow(at(f.den), -1, MOD_P) % MOD_P


def test_scalar_witness_is_the_symbolic_residual_mod_p():
    entry = get_entry("laguerre-step:2")
    witness = modp.condition_witness(entry.operator, DiffOp.mul_by(entry.theta),
                                     entry.condition)
    residual = verify_condition(entry.operator, entry.theta, entry.condition).residual
    assert witness["prime"] == MOD_P and witness["x0"] == FIRST_POINT
    assert witness["parameters"] == {"k": mod_p_residue("k")}
    r = witness["order"]
    assert witness["image"] == _image_at(residual.coeff(r), FIRST_POINT) != 0
    # the witness names the lowest order with a nonzero image
    assert all(_image_at(residual.coeff(s), FIRST_POINT) == 0
               for s in residual.coeffs if s < r)


def test_random_scalar_witnesses_match_the_symbolic_residual():
    # oracle: the witness names the lowest order whose residual coefficient
    # has a nonzero image at its point, and there is none exactly when every
    # image there is zero
    rng = random.Random(22)
    refuted = 0
    for idx in range(30):
        v = _random_potential(rng, ["polynomial", "rational", "parametric"][idx % 3])
        theta = _random_poly(rng, rng.randint(1, 3), rng.random() < 0.5)
        op = DiffOp.schrodinger(v)
        w = WeightVector({j: rng.randint(-3, 3) or 1 for j in rng.sample(range(5), 2)})
        witness = modp.condition_witness(op, DiffOp.mul_by(theta), w)
        residual = verify_condition(op, theta, w).residual
        x0 = FIRST_POINT if witness is None else witness["x0"]
        images = {r: _image_at(residual.coeff(r), x0) for r in residual.coeffs}
        if witness is None:
            assert not any(images.values())
            continue
        refuted += 1
        r = witness["order"]
        assert witness["image"] == images[r] != 0
        assert not any(images[s] for s in images if s < r)
    assert refuted > 20


@pytest.mark.parametrize("side", ["left", "right"])
def test_matrix_witness_is_the_symbolic_residual_mod_p(side):
    entry = get_entry("matrix:laguerre:1a-printed")
    op = entry.operator.with_side(side)
    witness = matrix_condition_witness(op, entry.condition)
    residual = verify_matrix_condition(op, entry.condition).residual
    assert witness["x0"] == FIRST_POINT and witness["parameters"] == {"a": mod_p_residue("a")}
    i, k = witness["entry"]
    assert witness["image"] == _image_at(residual.coeff(witness["order"])[i][k],
                                         FIRST_POINT) != 0


def _random_matrix(rng, size, deg, rational):
    def entry():
        if rng.random() < 0.3:
            return XRat.const(0)
        f = XRat.from_poly(XPoly.from_list([rng.randint(-4, 4) for _ in range(deg + 1)]))
        if rational and rng.random() < 0.5:
            f = f + XRat.from_ratio(XPoly.const(rng.randint(1, 3)),
                                    XPoly.from_list([rng.randint(1, 5), 1]))
        return f
    return [[entry() for _ in range(size)] for _ in range(size)]


@pytest.mark.parametrize("side", ["left", "right"])
def test_matrix_jet_tower_matches_the_symbolic_tower(side):
    # oracle: mat_ad_tower on operators with JetCoeff coefficients gives the
    # images of the symbolic tower's coefficients, under either action side
    rng = random.Random(22)
    for size in (1, 2, 3):
        for _ in range(4):
            identity = [[XRat.const(int(i == k)) for k in range(size)] for i in range(size)]
            top = identity if rng.random() < 0.5 else _random_matrix(rng, size, 0, False)
            op = MatDiffOp({2: top, 1: _random_matrix(rng, size, 1, False),
                            0: _random_matrix(rng, size, 2, True)}, size, side)
            theta = MatDiffOp({0: _random_matrix(rng, size, 2, False)}, size, side)
            steps = rng.randint(1, 3)
            n = max(op.order(), 0) * steps + 1
            x0 = rng.randrange(2, MOD_P)
            jets = mat_ad_tower(
                op._like({r: _jet_coeff(_images(c.rows), x0, n, side)
                          for r, c in op.coeffs.items()}),
                op._like({0: _jet_coeff(_images(theta.coeff(0).rows), x0, n, side)}), steps)
            for sym, jet_op in zip(mat_ad_tower(op, theta, steps), jets):
                for r in set(sym.coeffs) | set(jet_op.coeffs):
                    jet_rows = jet_op.coeffs[r].rows if r in jet_op.coeffs else None
                    for i, row in enumerate(sym.coeff(r).rows):
                        for k, f in enumerate(row):
                            jet = jet_rows[i][k] if jet_rows else None
                            value = jet[0] % MOD_P if jet else 0
                            assert value == _image_at(f, x0), (size, side, r, i, k)


def test_conditions_the_symbolic_check_rejects_get_no_witness():
    entry = get_entry("matrix:laguerre:1a-printed")
    three = [[1, 0, 0], [0, 0, 0], [0, 0, 0]]
    for cond in (MatCondition([], entry.condition.theta),
                 MatCondition([(1, three)], entry.condition.theta)):
        assert matrix_condition_witness(entry.operator, cond) is None
        with pytest.raises(ExactError):
            verify_matrix_condition(entry.operator, cond)


def test_jet_coeff_products_follow_the_action_side():
    x0 = FIRST_POINT
    a = _images([[XRat.const(1), XRat.const(2)], [XRat.const(0), XRat.const(3)]])
    b = _images([[XRat.const(0), XRat.const(1)], [XRat.const(5), XRat.const(0)]])
    for side, want in (("left", [[10, 1], [15, 0]]), ("right", [[0, 3], [5, 10]])):
        prod = _jet_coeff(a, x0, 1, side) * _jet_coeff(b, x0, 1, side)
        assert isinstance(prod, JetCoeff)
        assert [[jet[0] if jet else 0 for jet in row] for row in prod.rows] == want


def test_witness_skips_a_pole_at_the_first_point():
    # V has a pole at the first point; [L, x] = -2D is refuted at the next one
    v = XRat.from_ratio(XPoly.const(1), XPoly.from_list([-FIRST_POINT, 1]))
    op = DiffOp.schrodinger(v)
    witness = modp.condition_witness(op, DiffOp.mul_by(XPoly.x()), WeightVector({1: 1}))
    assert witness["x0"] == pow(3, 65537, MOD_P)
    assert (witness["order"], witness["image"]) == (1, MOD_P - 2)
    assert witness["parameters"] == {}


def test_witness_image_is_the_coefficient_not_its_functional_entry():
    # ad^2 of x^2 under -D^2 is 8 D^2: the functional's entry 2 is 2! * 8
    witness = modp.condition_witness(DiffOp.schrodinger(0), XPoly.monomial(2),
                                     WeightVector({2: 1}))
    assert (witness["order"], witness["image"]) == (2, 8)


def test_only_the_flagged_failures_are_decided_mod_p():
    report = cli.run(["verify", "--all"])
    by_id = {v["claim"]: v for v in report["verdicts"]}
    modp_ids = {cid for cid, v in by_id.items() if v["decided_by"] == "mod-p"}
    assert modp_ids == {"laguerre-step:2", "laguerre-step:3", "matrix:laguerre:1a-printed"}
    for cid, verdict in by_id.items():
        assert verdict["matches_expectation"], cid
        if verdict["decided_by"] == "mod-p":
            assert "residual" not in verdict and not verdict["expected_to_hold"]
            assert verdict["witness"]["image"] and verdict["witness"]["prime"] == MOD_P
        else:
            assert verdict["decided_by"] == "symbolic" and "witness" not in verdict
            assert verdict["residual"] == "0" and verdict["expected_to_hold"], cid


def test_relation_bearing_entries_never_reach_the_jets(monkeypatch):
    def refuse(*args):
        raise AssertionError("a relation-bearing entry reached the jets")

    monkeypatch.setattr(modp, "_columns", refuse)
    for index in (6, 7, 9, 10):
        report = verify_entry(get_entry(f"ansatz:A4-40A2+144A0:{index}"))
        assert report.holds and report.decided_by == "symbolic" and report.witness is None


def _witness_first(entry):
    """The report of the order that seeks the witness before the symbolic check."""
    if entry.kind == "scalar":
        witness = modp.condition_witness(entry.operator, DiffOp.mul_by(entry.theta),
                                         entry.condition)
    else:
        witness = matrix_condition_witness(entry.operator, entry.condition)
    if witness is not None:
        return ConditionReport(False, None, decided_by="mod-p", witness=witness)
    if entry.kind == "scalar":
        return verify_condition(entry.operator, entry.theta, entry.condition)
    return verify_matrix_condition(entry.operator, entry.condition)


def _fields(report):
    residual = None if report.residual is None else str(report.residual)
    return report.holds, residual, report.assumptions, report.decided_by, report.witness


def test_holding_claims_check_symbolically_first_with_the_same_reports():
    # an entry expected to hold reaches its symbolic check first; every report
    # is the one the witness-first order gives, also for a holding entry
    # whose expectation is flipped (no witness, then the symbolic check)
    for cid in catalog_ids():
        entry = get_entry(cid)
        want = _fields(_witness_first(entry))
        assert _fields(verify_entry(entry)) == want, cid
        if entry.expect_holds:
            assert _fields(verify_entry(entry._replace(expect_holds=False))) == want, cid
    # so a claim expected to hold that fails still reports its witness
    entry = get_entry("matrix:laguerre:1a-printed")
    claimed = verify_entry(entry._replace(expect_holds=True))
    assert claimed.decided_by == "mod-p" and not claimed.holds and claimed.residual is None
    assert claimed.witness == verify_entry(entry).witness
