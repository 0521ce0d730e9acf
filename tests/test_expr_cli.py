import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from bispec.exact import ExactError, MPoly, ParamScalar, Rat
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
    v = parse_expr("(x+1)^(-2)")  # a negative power of a rational value
    assert v == XRat.from_ratio(XPoly.one(), XPoly.from_list([1, 2, 1]))
    assert render(v) == "1/(x + 1)^2"


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
    assert parse_expr("x^0 + x") == XPoly.from_list([1, 1])


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
    with pytest.raises(ParseError, match="unexpected character"):
        parse_expr("x^\u00b2")  # a superscript digit is no integer literal
    for text, message in [
        ("x^x", "exponent must not depend on x"),
        ("x^exp(x)", "exponent must be a scalar"),
        ("0^(-1)", "zero to a negative power"),
        ("2^(1/2)", "cannot raise a scaled constant to a symbolic power"),
        ("exp(x)^(1/2)", "cannot raise an exp factor to a symbolic power"),
        ("(2*x^(1/2))^(1/3)", "cannot raise a scaled product to a symbolic power"),
        ("x^", "expected exponent"),
        ("(x", "expected '\\)'"),
        ("x)", "unexpected '\\)'"),
    ]:
        with pytest.raises(ParseError, match=message):
            parse_expr(text)


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


def test_cli_fit_weights_none_exists_reports_assumptions():
    # sqrt2 leaves the decision to the symbolic nullspace, k*x^2 to the mod-p
    # certificate; either way "none exists" is a claim for generic k
    report, _ = run_cli(["fit-weights", "--L", "sqrt2*k*x^2", "--param", "k",
                         "--theta", "x", "--orders", "2,1"])
    (verdict,) = report["verdicts"]
    assert verdict["claim"] == "no condition exists on the given orders"
    assert verdict["decided_by"] == "symbolic"
    assert verdict["assumptions"] == []
    report, _ = run_cli(["fit-weights", "--L", "k*x^2", "--param", "k",
                         "--theta", "x", "--orders", "2,1"])
    (twin,) = report["verdicts"]
    assert twin["claim"] == verdict["claim"]
    assert twin["decided_by"] == "mod-p"
    assert twin["assumptions"] == []


def test_cli_ad_and_solve_theta():
    report, _ = run_cli(["ad", "--L", "x^2", "--theta", "x", "--j", "2"])
    assert report["verdicts"][0]["residual"] == "4*x"
    for theta, residual in [("x/2", "-D"), ("-x/2", "D")]:  # unit coefficients of D
        report, _ = run_cli(["ad", "--L", "x^2", "--theta", theta, "--j", "1"])
        assert report["verdicts"][0]["residual"] == residual
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


# sha256 of json.dumps(report, sort_keys=True) for the gen-system argvs of
# the benchmark's gen-system workload, as first recorded; a change in term
# order or coefficient text changes them
_GEN_SYSTEM_DIGESTS = {
    "5:1,3:-5,1:4": "72226211750e7585c7c4bf7945c039fae8dfcd7c3777e3966b926b1bb2c6eae6",
    "4:1,2:-40,0:144": "a0f46c889d8c2866f7f639fdf8cb3d2f67ec39b53ebbcaa98c12c03ff186a9f3",
    "3:1,1:-16": "c96d5e02516a99f99c38db5164104971ce96995f27b9341ce4d42ef394de366b",
    "2:1,0:-4": "d3fa3f32c4cbb81c4a2ebc7ab836051110f781bfe2902e347af59fe563d421a1",
    "4:1,2:-40,0:144 --allow-constant":
        "fe5deeac04f3a61348bb044cbe5a3753ac8734e0a5fae60673f9479ffd927937",
}


@pytest.mark.parametrize("weights", list(_GEN_SYSTEM_DIGESTS))
def test_cli_gen_system_reports_are_byte_identical(weights):
    text = json.dumps(cli.run(["gen-system", "--weights", *weights.split()]), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == _GEN_SYSTEM_DIGESTS[weights]


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


# usage errors, each with the token its message names
_USAGE_ERRORS = [
    (["frobnicate"], "frobnicate"),
    (["ad", "--L", "x^2", "--theta", "x", "--j", "1", "--bogus", "1"], "--bogus"),
    (["heisenberg", "--cat", "hermite-exc:k=1", "--order", "4"], "--cat"),  # no prefixes
    (["ad", "--L", "x^2", "--theta", "x"], "--j"),
    (["ad", "--L", "x^2", "--theta", "x", "--j"], "--j"),
    (["ad", "--L", "x^2", "--theta", "x", "--j", "one"], "one"),
    (["solve-theta", "--L", "x^2", "--weights", "2:1,0:-4", "--deg", "2.5"], "2.5"),
    (["catalog", "show"], "show"),
    (["catalog", "list", "extra"], "extra"),
    (["verify", "a", "b"], "b"),
    (["verify", "hermite-exc:k=1", "--all"], "--all"),
]


@pytest.mark.parametrize("argv", [
    ["reach-weights", "--n", "2", "--step", "abc"],
    ["reach-weights", "--n", "2", "--step", "1/0"],
    ["reach-weights", "--n", "2", "--step", "0"],
    ["reach-weights", "--n", "0"],
    ["hermite-new-weights", "--k", "-1"],
    ["fit-weights", "--catalog", "hermite-exc:k=1", "--orders", "3,x"],
    ["fit-weights", "--catalog", "hermite-exc:k=1", "--orders", "3,-1"],
    ["ad", "--L", "k^40000*x^2", "--param", "k", "--theta", "x", "--j", "1"],
    ["solve-theta", "--L", "x^2 + 2/x^2", "--weights", "3:1,1:-16,1:5", "--deg", "3"],
    ["fit-weights", "--L", "x^2", "--theta", "5", "--orders", "3,1"],  # theta without x
    ["fit-weights", "--L", "x^2", "--theta", "0", "--orders", "2,0"],
    ["solve-theta", "--L", "x^2", "--weights", "2:1,0:-4", "--deg", "40000"],  # > EXP_MAX
] + [argv for argv, _ in _USAGE_ERRORS] + [
    # over Python's 4 300-digit limit on integer-string conversion: parsing,
    # and printing the square
    ["ad", "--L", "x^2", "--theta", "1" * 4400 + "*x", "--j", "1"],
    ["ad", "--L", "x^2", "--theta", "7" * 2200 + "^2*x", "--j", "1"],
    # sizes over cli.LIMITS: 40 000 unknowns, towers and ladders that would not end
    ["gen-system", "--weights", "40000:1,0:-4"],
    ["heisenberg", "--L", "x^2", "--theta", "x", "--order", "40000"],
    ["fit-weights", "--L", "x^2+1/x^2", "--theta", "x^2", "--orders", "40000,1"],
    ["reach-weights", "--n", "3000"],
    ["hermite-new-weights", "--k", "40000"],
    # solve-theta's rank certificate, still running after 30 s
    ["solve-theta", "--L", "x^2+1/x^2", "--weights", "100:1,0:1", "--deg", "2"],
    ["solve-theta", "--L", "x^2", "--weights", "2:1,0:-4", "--deg", "300"],
    # expressions over the parser's bound: powers that ran for seconds to
    # minutes, a 99-character product still running at 60 s, a parameter
    # power, and a 100-million-bit integer
    *(["ad", "--L", "x^2", "--theta", f"(x+1)^{n}", "--j", "1"] for n in (1000, 2000, 4000, 8000)),
    ["ad", "--L", "x^2", "--theta", "*".join(["(x+1)^900"] * 10), "--j", "1"],
    ["ad", "--L", "(k+1)^6000*x^2", "--param", "k", "--theta", "x", "--j", "1"],
    ["ad", "--L", "x^2", "--theta", "2^(10^8)*x", "--j", "1"],
    # commutator orders on towers that grow every step (2 cores): fit-weights
    # 11.6 s, 37 s and over 60 s; ad 18.8 s, 18.9 s (a 27 MB report) and over
    # 30 s; heisenberg at order 200 not run; and, within the order limit, ad
    # over 60 s on a theta of x-degree 499
    *(["fit-weights", "--L", "x^2+1/x^2", "--theta", theta, "--orders", f"{n},1"]
      for theta, n in [("x^3", 80), ("(x+1)^5", 100), ("(x+1)^20", 200)]),
    ["ad", "--L", "x^2+1/x^2", "--theta", "x^3", "--j", "100"],
    ["ad", "--L", "x^2", "--theta", "(x+1)^300", "--j", "200"],
    ["ad", "--L", "x^2", "--theta", "(x+1)^499", "--j", "200"],
    ["heisenberg", "--L", "x^2+1/x^2", "--theta", "x^3", "--order", "200"],
    ["ad", "--L", "x^2+1/x^2", "--theta", "(x+1)^499", "--j", "60"],
    ["ad", "--L", "x^(1/2)", "--theta", "x", "--j", "1"],  # a quasi-rational potential
    ["probe-convention"],  # no id
])
def test_cli_bad_numbers_exit_2(argv, capsys):
    assert cli.main(argv) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 2 and payload["error"]
    for usage_argv, token in _USAGE_ERRORS:
        if argv == usage_argv:
            assert token in payload["error"]


@pytest.mark.parametrize("name", ["x", "exp", "D", "1a"])
def test_cli_bad_param_name_exit_2(name, capsys):
    argv = ["ad", "--L", "1/x", "--theta", "x", "--j", "1", "--param", name]
    assert cli.main(argv) == 2
    payload = json.loads(capsys.readouterr().out)
    assert payload["exit_code"] == 2 and repr(name) in payload["error"]


def test_cli_one_parser_carries_no_state(capsys):
    run_cli(["ad", "--L", "k*x^2", "--param", "k", "--theta", "x", "--j", "1"])
    args = cli.parse_args(["ad", "--L", "x^2", "--theta", "x", "--j", "1"])
    assert args.param == []
    with pytest.raises(ParseError):
        cli.run(["ad", "--L", "k*x^2", "--theta", "x", "--j", "1"])
    with pytest.raises(cli.UsageError):
        cli.run(["ad", "--L", "x^2", "--theta", "x", "--j", "one"])
    report, _ = run_cli(["ad", "--L", "x^2", "--theta", "x", "--j", "1"])
    assert report["exit_code"] == 0


@pytest.mark.parametrize("argv, shows", [
    (["--help"], "probe-convention"),
    (["-h"], "probe-convention"),
    (["ad", "--help"], "--theta"),
    (["verify", "-h"], "--all"),
    (["ad", "--L", "x^2", "-h", "--j", "one"], "--catalog-id"),
    (["--help"], "--n at most 800"),
    (["gen-system", "--help"], "weight order at most 6"),
])
def test_cli_help_exits_0(argv, shows, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: bispec") and shows in out


def test_cli_limits_admit_their_own_value():
    # a value of each bounded option's kind whose size is n
    texts = {"int": str, "orders": lambda n: f"1,{n}", "weights": lambda n: f"{n}:1,0:1"}
    bounded = [(command, option, spec.partition("<=")) for command, (_, _, _, options)
               in cli.COMMANDS.items() for option, spec in options.items() if "<=" in spec]
    assert {what for _, _, (_, _, what) in bounded} == set(cli.LIMITS)
    for command, option, (kind, _, what) in bounded:
        if kind.rstrip("!") not in cli._READERS:
            continue  # an expression, bounded as it is parsed: test_expression_terms_limit
        read, text = cli._READERS[kind.rstrip("!")], texts[kind.rstrip("!")]
        limit = cli.LIMITS[what]
        read(text(limit), what)
        with pytest.raises(cli.UsageError, match=f"{what} {limit + 1} exceeds the limit"):
            cli.parse_args([command, option, text(limit + 1)])
    assert cli.parse_args(["reach-weights", "--n", "800"]).n == 800
    assert cli.parse_args(["fit-weights", "--orders", "70,1"]).orders == [70, 1]
    # the commutator order counts theta's x-degree: order * (order + degree)
    # may reach the limit's count on theta = x and no more
    for theta, order, admitted in [("x", 70, True), ("x^3", 69, True), ("x^2", 70, False),
                                   ("(x+1)^499", 9, True), ("(x+1)^499", 10, False)]:
        args = cli.parse_args(["ad", "--L", "x^2", "--theta", theta, "--j", str(order)])
        if admitted:
            cli._theta_from(args, None, order)
        else:
            with pytest.raises(cli.UsageError, match="exceeds the limit 70"):
                cli._theta_from(args, None, order)


# a valid command line for each option an expression bound applies to
_EXPRESSION_ARGV = {
    "ad": ["--L", "x^2", "--theta", "x", "--j", "1"],
    "fit-weights": ["--L", "x^2", "--theta", "x", "--orders", "3,1"],
    "solve-theta": ["--L", "x^2", "--weights", "2:1,0:-4", "--deg", "1"],
    "darboux": ["--L", "x^2", "--seed", "exp(-x^2/2)"],
    "heisenberg": ["--L", "x^2", "--theta", "x", "--order", "2"],
}


def test_expression_terms_limit(capsys):
    limit = cli.LIMITS["expression terms"]
    assert len(parse_expr(f"(x+1)^{limit - 1}").coeffs) == limit
    # a quotient keeps numerator and denominator apart; two parameters
    # bound a power by its term count, not by each degree
    assert isinstance(parse_expr(f"(x+1)^{limit - 1}/(x+2)^{limit - 1}"), XRat)
    assert parse_expr("(x+k+1)^30", params=["k"])
    too_large = [f"(x+1)^{limit}", f"(x+1)^{limit // 2}*(x+2)^{limit // 2}", "(x+k+1)^31",
                 f"1/(x+1)^{limit // 2} + 1/(x+2)^{limit // 2}",
                 f"exp(x)*(k+1)^{limit // 2}*(k+2)^{limit // 2}"]
    for text in too_large:
        with pytest.raises(ExactError, match=f"expression terms exceed the limit {limit}"):
            parse_expr(text, params=["k"])
    with pytest.raises(ExactError, match="integer-string conversion"):
        parse_expr("((2^1000)^10)^2")
    with pytest.raises(ExactError, match="integer-string conversion"):
        str(MPoly.const(10 ** 4400))
    # each value fits, but together they exceed the budget of the expression
    assert parse_expr("+".join([f"(x+1)^{limit - 1}"] * 3))
    with pytest.raises(ExactError, match="in all"):
        parse_expr("+".join([f"(x+1)^{limit - 1}"] * 40))
    bounded = [(command, option) for command, (_, _, _, options) in cli.COMMANDS.items()
               for option, spec in options.items() if spec.endswith("<=expression terms")]
    assert {command for command, _ in bounded} == set(_EXPRESSION_ARGV)
    for command, option in bounded:
        argv = [command, *_EXPRESSION_ARGV[command]]
        assert cli.main(argv) == 0
        argv[argv.index(option) + 1] = f"(x+1)^{limit}"
        assert cli.main(argv) == 2
        assert f"expression terms exceed the limit {limit}" in capsys.readouterr().out


def test_cli_probe_convention(capsys):
    report, _ = run_cli(["probe-convention", "matrix:hermite:1"])
    (verdict,) = report["verdicts"]
    assert report["exit_code"] == 0 and verdict["sides"] == ["left", "right"]
    assert verdict["residual_left"] == verdict["residual_right"] == "0"
    report, _ = run_cli(["probe-convention", "matrix:laguerre:1a-printed"])
    assert report["exit_code"] == 1 and report["verdicts"][0]["sides"] == []
    assert cli.main(["probe-convention", "laguerre-step:1"]) == 2
    assert "applies to matrix entries" in json.loads(capsys.readouterr().out)["error"]


@pytest.mark.parametrize("k, weights", [
    (4, {"0": "-14400", "2": "4144", "4": "-140", "6": "1"}),
    (3, {"1": "1024", "3": "-80", "5": "1"}),
])
def test_cli_hermite_new_weights(k, weights):
    report, _ = run_cli(["hermite-new-weights", "--k", str(k)])
    assert report["exit_code"] == 0 and report["inputs"] == {"k": k}
    assert report["verdicts"][0]["weights"] == weights


def test_cli_equals_form_gives_the_same_report():
    one, _ = run_cli(["ad", "--L=x^2", "--theta", "x", "--j=2"])
    two, _ = run_cli(["ad", "--j", "2", "--theta", "x", "--L", "x^2"])
    assert one == two
    args = cli.parse_args(["reach-weights", "--n", "3", "--step", "-1/2", "--n=4"])
    assert (args.n, args.step) == (4, "-1/2")  # the value is the next token; last one wins


def _readme() -> str:
    return (Path(__file__).resolve().parents[1] / "README.md").read_text()


def _readme_cli_examples() -> list:
    block = _readme().split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)
            for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def test_readme_cli_examples_parse():
    examples = _readme_cli_examples()
    assert len(examples) == 12
    for prog, command, *rest in examples:
        args = cli.parse_args([command, *rest])
        assert prog == "bispec" and args.command == command
        assert args.func is cli.COMMANDS[command][0]
        if rest and not rest[0].startswith("--"):
            assert rest[0] in (getattr(args, "id", None), getattr(args, "action", None))
        for token, value in zip(rest, rest[1:] + [None]):
            if token.startswith("--"):
                option = cli._ALIASES.get(token, token)
                got = getattr(args, option[2:].replace("-", "_"))
                kind = cli.COMMANDS[command][3][option].partition("<=")[0].rstrip("!")
                want = cli._READERS[kind](value) if kind in cli._READERS else value
                assert got is True or (want in got if kind == "repeat" else want == got)


def test_cli_help_and_import_in_a_fresh_process():
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1])}
    proc = subprocess.run([sys.executable, "-m", "bispec.cli", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0
    assert all(f"  {name} " in proc.stdout for name in cli.COMMANDS) and len(cli.COMMANDS) == 11
    probe = ("import sys, bispec.cli; "
             "print([m for m in ('argparse', 'dataclasses', 'inspect') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0 and proc.stdout.strip() == "[]"


@pytest.mark.parametrize("entry_id", ["laguerre-step:3", "matrix:laguerre:1a-printed"])
def test_cli_refutation_is_the_same_in_every_process(entry_id):
    # the witness must not depend on set or dict order, so on the hash seed
    outputs = []
    for seed in ("0", "4242"):
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).resolve().parents[1]),
               "PYTHONHASHSEED": seed}
        proc = subprocess.run([sys.executable, "-m", "bispec.cli", "verify", entry_id],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 1
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    (verdict,) = json.loads(outputs[0])["verdicts"]
    assert verdict["decided_by"] == "mod-p" and verdict["witness"]["image"]


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
    # a quasi-rational divisor, a rational one with denominator factors, and
    # scales that print in parentheses
    for text, printed in [("x/x^(1/2)", "x*x^(-1/2)"),
                          ("x^(1/2)/(x+1)", "x^(1/2)*(x + 1)^(-1)"),
                          ("-x^(1/2)/3", "(-1/3)*x^(1/2)"), ("2*x^(1/2)/3", "(2/3)*x^(1/2)"),
                          ("(k+1)*x^(1/2)", "(k + 1)*x^(1/2)")]:
        value = parse_expr(text, params=["k"])
        assert isinstance(value, QuasiRat) and render(value) == printed
        assert render(parse_expr(printed, params=["k"])) == printed


def test_powered_base_with_a_power_round_trips():
    # the base x^2 cubed prints (x^2)^3; x^2^3 does not parse
    v = get_entry("laguerre-step:0").operator.potential()
    vpp = v.derivative().derivative()
    assert "(x^2)^3" in str(vpp)
    assert parse_expr(str(vpp), params=["k"]) == vpp


def test_relation_denominators_print_rationalised():
    report, _ = run_cli(["ad", "--catalog", "ansatz:A4-40A2+144A0:10", "--j", "1"])
    assert report["verdicts"][0]["residual"] == \
        "(-6*x^2 + 6*sqrt2*sqrt3*x - 6)*D - 6*x + 3*sqrt2*sqrt3"


def test_generic_and_closed_form_towers_print_the_same():
    from bispec.diffop import DiffOp, commutator, schrodinger_commutator

    for entry_id in ("ansatz:A4-40A2+144A0:10", "laguerre-step:2"):
        entry = get_entry(entry_id)
        v_derivs = [entry.operator.potential()]
        current = DiffOp.mul_by(entry.theta)
        for j in range(3):
            generic = commutator(entry.operator, current).reduced()
            closed = schrodinger_commutator(v_derivs, current, (j + 1) % 2).reduced()
            assert str(generic) == str(closed)
            current = generic


def test_readme_limits_table_is_cli_limits():
    # each row: the size, its value, and the options that name it with "<=";
    # "cmd --opt" names one command's option, a bare "--opt" every command's
    rows = _readme().split("| size | at most | set by |\n| --- | --- | --- |\n", 1)[1]
    table = {}
    for row in rows.split("\n\n", 1)[0].splitlines():
        size, most, where = (cell.strip() for cell in row.strip("|").split("|"))
        named = set()
        for span in re.findall(r"`([^`]+)`", where.partition(":")[0]):
            *command, option = span.split()
            found = {(c, option) for c, spec in cli.COMMANDS.items()
                     if option in spec[3] and command in ([], [c])}
            assert found, span
            named |= found
        table[size.strip("`")] = (int(most), named)
    assert table == {what: (limit, {(c, o) for c, spec in cli.COMMANDS.items()
                                    for o, kind in spec[3].items() if kind.endswith(f"<={what}")})
                     for what, limit in cli.LIMITS.items()}
