import json

import pytest

from bispec.exact import ParamScalar, Rat
from bispec.diffop import QuasiRat, XPoly, XRat
from bispec.expr import ParseError, parse_expr, render
from bispec import cli
from bispec.families import catalog_ids, get_entry


def test_parse_rational_example():
    v = parse_expr("x^2 + 2/x^2")
    assert isinstance(v, XRat)
    assert v.num == XPoly({4: ParamScalar.const(1), 0: ParamScalar.const(2)})
    assert v.den == XPoly.monomial(2)


def test_parse_singular_term():
    v = parse_expr("(k^4+8*k^2+12)/(16*x^2)", params=["k"])
    k = ParamScalar.var("k")
    want = XRat.from_ratio(
        XPoly.const((k ** 4 + 8 * k * k + 12) * ParamScalar.const(Rat(1, 16))),
        XPoly.monomial(2))
    assert v == want


def test_parse_quasi_rational_seed():
    v = parse_expr("x^(m+1/2) * exp(x^2/8) * (x^2-k^2)/4", params=["k", "m"])
    assert isinstance(v, QuasiRat)
    assert len(v.factors) == 2
    k, m = ParamScalar.var("k"), ParamScalar.var("m")
    want = (XRat.from_ratio(XPoly.const(m + Rat(1, 2)), XPoly.x())
            + XRat.from_ratio(XPoly.monomial(1, 2), XPoly({2: ParamScalar.const(1), 0: -(k * k)}))
            + XRat.from_poly(XPoly.monomial(1, Rat(1, 4))))
    assert v.log_derivative() == want


def test_parse_polynomial_returns_xpoly():
    v = parse_expr("4*x^2 - 2")
    assert isinstance(v, XPoly)
    assert v == XPoly.from_list([-2, 0, 4])


def test_unary_minus_binds_below_power():
    assert parse_expr("-x^2") == -XPoly.monomial(2)
    assert parse_expr("-2*x + 3") == XPoly.from_list([3, -2])


def test_parse_errors():
    with pytest.raises(ParseError, match="unknown identifier"):
        parse_expr("x + zz")
    with pytest.raises(ParseError, match="position"):
        parse_expr("x + ")
    with pytest.raises(ParseError):
        parse_expr("exp(1/x)")
    with pytest.raises(ParseError):
        parse_expr("exp(x) + 1")


def test_round_trip_catalog():
    # printer output re-parses to an equal value for every scalar entry
    for cid in catalog_ids():
        entry = get_entry(cid)
        if entry.kind != "scalar":
            continue
        params = list(entry.parameters) + ["k"]
        theta = entry.theta
        assert parse_expr(render(theta), params=params) == theta, cid
        v = entry.operator.potential()
        reparsed = parse_expr(render(v), params=params)
        if isinstance(reparsed, XPoly):
            reparsed = XRat.from_poly(reparsed)
        assert reparsed == v, cid


def test_round_trip_weights_rendering():
    from bispec.adcond import reach_weights
    w = reach_weights(3, 1)
    assert cli._parse_weights("7:1,5:-14,3:49,1:-36") == w


def run_cli(args):
    report = cli.run(args)
    # reports must be JSON-serializable with sorted keys
    encoded = json.dumps(report, sort_keys=True)
    return report, encoded


def test_cli_verify_single():
    report, _ = run_cli(["verify", "hermite-exc:k=2"])
    assert report["exit_code"] == 0
    assert report["verdicts"][0]["holds"] is True


def test_cli_verify_failing_entry_exit_code():
    report, _ = run_cli(["verify", "laguerre-step:2"])
    assert report["exit_code"] == 1


def test_cli_verify_all_uses_expectations():
    report, _ = run_cli(["verify", "--all"])
    assert report["exit_code"] == 0
    assert all(v["holds"] for v in report["verdicts"])
    flagged = [v for v in report["verdicts"] if not v["expected_to_hold"]]
    assert flagged


def test_cli_determinism():
    _, one = run_cli(["reach-weights", "--n", "3", "--step", "1"])
    _, two = run_cli(["reach-weights", "--n", "3", "--step", "1"])
    assert one == two


def test_cli_reach_weights_values():
    report, _ = run_cli(["reach-weights", "--n", "3", "--step", "1"])
    assert report["verdicts"][0]["weights"] == {"7": "1", "5": "-14", "3": "49", "1": "-36"}


def test_cli_fit_weights_resolves_step2():
    report, _ = run_cli(["fit-weights", "--catalog", "laguerre-step:2",
                         "--orders", "7,5,3,1"])
    assert report["exit_code"] == 0
    weights = report["verdicts"][0]["weights"]
    assert weights == {"7": "1", "5": "-14", "3": "49", "1": "-36"}


def test_cli_ad_and_solve_theta():
    report, _ = run_cli(["ad", "--L", "x^2", "--theta", "x", "--j", "2"])
    assert report["verdicts"][0]["residual"] == "4*x"
    report, _ = run_cli(["solve-theta", "--L", "x^2", "--weights", "2:1,0:-4",
                         "--deg", "1"])
    assert report["verdicts"][0]["theta"] == "x"


def test_cli_darboux():
    report, _ = run_cli(["darboux", "--L", "0", "--seed", "x"])
    v = report["verdicts"][0]
    assert v["holds"] and v["potential"] == "2/x^2" and v["eigenvalue"] == "0"


def test_cli_gen_system_forced():
    report, _ = run_cli(["gen-system", "--weights", "5:1,3:-5,1:4"])
    forced = {f["unknown"]: f["value"] for f in report["verdicts"][0]["forced"]}
    assert forced["c6"] == "a4/12"
    assert forced["c5"] == "a3/8"


def test_cli_heisenberg():
    report, _ = run_cli(["heisenberg", "--L", "x^2", "--theta", "x", "--order", "5"])
    v = report["verdicts"][0]
    assert v["rate"] == "4"
    assert all(v["closed_form_matches"].values())


def test_cli_catalog_list():
    report, _ = run_cli(["catalog", "list"])
    ids = [e["id"] for e in report["entries"]]
    assert ids == sorted(ids)
    assert "hermite-exc:k=2" in ids


def test_cli_errors_exit_2():
    assert cli.main(["verify", "no-such-id"]) == 2
    assert cli.main(["ad", "--L", "x +", "--theta", "x", "--j", "1"]) == 2


@pytest.mark.parametrize("argv", [
    ["reach-weights", "--n", "2", "--step", "abc"],
    ["reach-weights", "--n", "2", "--step", "1/0"],
    ["fit-weights", "--catalog", "hermite-exc:k=1", "--orders", "3,x"],
])
def test_cli_bad_numbers_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 2 and payload["error"]


def test_cli_main_exit_codes(capsys):
    assert cli.main(["verify", "hermite-exc:k=0"]) == 0
    out = capsys.readouterr()
    payload = json.loads(out.out)
    assert payload["schema"] == 1
    assert "# verify" in out.err


def test_cli_heisenberg_catalog_id_flag():
    report, _ = run_cli(["heisenberg", "--catalog-id", "hermite-exc:k=1",
                         "--order", "4"])
    assert report["verdicts"][0]["rate"] == "16"


def test_quasi_rational_round_trip():
    from bispec.families import laguerre_phi
    seed = laguerre_phi(1)
    reparsed = parse_expr(render(seed), params=["k"])
    assert isinstance(reparsed, QuasiRat)
    assert reparsed.log_derivative() == seed.log_derivative()


def test_degree_safety_valve(monkeypatch):
    from bispec import diffop
    monkeypatch.setattr(diffop, "MAX_DEGREE", 6)
    big = XPoly.monomial(4)
    with pytest.raises(Exception, match="BISPEC_MAX_DEGREE"):
        big * big
    small = XPoly.monomial(3)
    assert small * small == XPoly.monomial(6)
