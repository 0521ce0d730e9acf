"""Task lists of the benchmark workloads and the semantic check of each output.

A task is one ``bispec.cli.run(argv)`` call followed by ``json.dumps`` of the
report.  Each check reads the decoded JSON report and compares verdicts, not
bytes, so that a report gaining keys does not fail.  README.md explains why
each workload holds the tasks it does.

Importing this module must not import ``bispec``: the child process imports it
before its set-up clock stops, and set-up is the program's cost, not ours.
"""

from __future__ import annotations

from fractions import Fraction

# Catalog entries with expect_holds true, minus the two largest ones
# (laguerre-step:2-product, laguerre-step:3-wronskian), which alone take
# about 20 s and would leave one sample per run.
_HOLDING_ENTRIES = [
    "ansatz:A2-4A0:1", "ansatz:A2-4A0:2",
    "ansatz:A3-16A1:1", "ansatz:A3-16A1:2",
    "ansatz:A4-40A2+144A0:1", "ansatz:A4-40A2+144A0:2",
    "ansatz:A4-40A2+144A0:3", "ansatz:A4-40A2+144A0:4",
    "ansatz:A4-40A2+144A0:5", "ansatz:A4-40A2+144A0:6",
    "ansatz:A4-40A2+144A0:7", "ansatz:A4-40A2+144A0:8",
    "ansatz:A4-40A2+144A0:9", "ansatz:A4-40A2+144A0:10",
    "ansatz:A5-5A3+4A1:1", "ansatz:A5-5A3+4A1:2", "ansatz:A5-5A3+4A1:3",
    "ansatz:A5-5A3+4A1:4", "ansatz:A5-5A3+4A1:5", "ansatz:A5-5A3+4A1:6",
    "ansatz:A5-5A3+4A1:7",
    "hermite-exc:k=0", "hermite-exc:k=1", "hermite-exc:k=2",
    "hermite-exc:k=3", "hermite-exc:k=4", "hermite-exc:p22",
    "laguerre-step:0", "laguerre-step:1",
    "matrix:hermite:1", "matrix:laguerre:1a", "matrix:laguerre:1b",
    "matrix:laguerre:2",
]

DARBOUX_ARGV = [
    "darboux", "--L", "x^2/16 + (k^4+8*k^2+12)/(16*x^2)", "--param", "k",
    "--seed", "x^(-(k^2+2)/4) * (x^2-k^2) * exp(x^2/8)",
]

# weights -> (equation count, forced relations) as the seed reports them
_GEN_SYSTEMS = {
    "5:1,3:-5,1:4": (49, {"c6": "a4/12", "c5": "a3/8"}),
    "4:1,2:-40,0:144": (17, {"c5": "a3", "c4": "5*a2/3"}),
    "3:1,1:-16": (3, {"c4": "2*a2/3", "c3": "4*a1/3"}),
    "2:1,0:-4": (2, {"c3": "a1/3", "c2": "0"}),
}


def _verify_task(entry_id: str, holds: bool) -> dict:
    return {"name": f"verify {entry_id}", "argv": ["verify", entry_id],
            "check": "verify", "expect": holds}


def _gen_task(weights: str, allow_constant: bool = False) -> dict:
    count, forced = _GEN_SYSTEMS[weights]
    argv = ["gen-system", "--weights", weights]
    if allow_constant:
        argv.append("--allow-constant")
    return {"name": " ".join(argv), "argv": argv, "check": "gen-system",
            "expect": {"equations": count, "forced": forced}}


WORKLOADS = {
    "verify-holds": [_verify_task(e, True) for e in _HOLDING_ENTRIES],
    "verify-refute": [
        _verify_task("matrix:laguerre:1a-printed", False),
        {"name": "fit-weights laguerre-step:2 orders 5,3,1",
         "argv": ["fit-weights", "--catalog", "laguerre-step:2", "--orders", "5,3,1"],
         "check": "none-exists", "expect": "weights"},
        {"name": "solve-theta laguerre-step:1 printed -34 weights deg 4",
         "argv": ["solve-theta", "--catalog", "laguerre-step:1",
                  "--weights", "5:1,3:-34,1:4", "--deg", "4"],
         "check": "none-exists", "expect": "theta"},
    ],
    "chain-solve": [
        {"name": "solve-theta laguerre-step:1 deg 4",
         "argv": ["solve-theta", "--catalog", "laguerre-step:1",
                  "--weights", "5:1,3:-5,1:4", "--deg", "4"],
         "check": "solve-theta", "expect": ["x^4 - 2*k^2*x^2", ["k"]]},
        {"name": "fit-weights laguerre-step:1 orders 5,3,1",
         "argv": ["fit-weights", "--catalog", "laguerre-step:1", "--orders", "5,3,1"],
         "check": "fit-weights", "expect": {"5": "1", "3": "-5", "1": "4"}},
        {"name": "darboux one-step laguerre, symbolic k", "argv": DARBOUX_ARGV,
         "check": "darboux", "expect": ["(k^2 - 8)/8", ["k"]]},
        {"name": "heisenberg hermite-exc:k=4 order 9",
         "argv": ["heisenberg", "--catalog-id", "hermite-exc:k=4", "--order", "9"],
         "check": "holds", "expect": None},
    ],
    "gen-system": [_gen_task(w) for w in _GEN_SYSTEMS]
                  + [_gen_task("4:1,2:-40,0:144", allow_constant=True)],
}

WHY = {
    "verify-holds": "33 holding catalog entries: symbolic expansion to zero, "
                    "almost all of it in ad_tower",
    "verify-refute": "claims that fail: a printed matrix identity, and proofs that "
                     "no condition (laguerre-step:2) or no theta (printed -34 weights) exists",
    "chain-solve": "the discovery path: solve-theta and fit-weights with re-verification, "
                   "darboux with its intertwining check, heisenberg series",
    "gen-system": "constraint systems for the four equations: the multivariate "
                  "MPoly product path with 7-11 unknowns",
}


def _same_expr(text: str, expected: str, params) -> bool:
    from bispec.expr import parse_expr

    return parse_expr(text, params=params) == parse_expr(expected, params=params)


def _verdict(report: dict) -> dict:
    verdicts = report.get("verdicts", [])
    if len(verdicts) != 1:
        raise AssertionError(f"expected one verdict, got {len(verdicts)}")
    return verdicts[0]


def _check_verify(report, expect):
    holds = _verdict(report)["holds"]
    if holds is not expect:
        return f"holds={holds}, expected {expect}"
    return None


def _check_holds(report, _expect):
    return None if _verdict(report)["holds"] is True else "claim does not hold"


def _check_none_exists(report, key):
    """The one verdict holds and offers no solution (no ``key``)."""
    verdict = _verdict(report)
    if key in verdict or verdict["holds"] is not True:
        return f"expected a proof that no {key} exists, got {verdict['claim']!r}"
    return None


def _check_fit_weights(report, expect):
    got = _verdict(report).get("weights")
    if got is None:
        return "no fitted weight vector"
    if {k: Fraction(v) for k, v in got.items()} != {k: Fraction(v) for k, v in expect.items()}:
        return f"weights {got}, expected {expect}"
    return None


def _check_solve_theta(report, expect):
    text, params = expect
    theta = _verdict(report).get("theta")
    if theta is None or not _same_expr(theta, text, params):
        return f"theta {theta!r}, expected {text!r}"
    return None


def _check_darboux(report, expect):
    text, params = expect
    verdict = _verdict(report)
    if verdict["holds"] is not True:
        return "intertwining check fails"
    if not _same_expr(verdict["eigenvalue"], text, params):
        return f"eigenvalue {verdict['eigenvalue']!r}, expected {text!r}"
    return None


def _check_gen_system(report, expect):
    verdict = _verdict(report)
    count = len(verdict["equations"])
    if count != expect["equations"]:
        return f"{count} equations, expected {expect['equations']}"
    forced = {f["unknown"]: f["value"] for f in verdict["forced"]}
    names = verdict["unknowns"]
    if forced.keys() != expect["forced"].keys() or not all(
            _same_expr(forced[u], v, names) for u, v in expect["forced"].items()):
        return f"forced relations {forced}, expected {expect['forced']}"
    return None


_CHECKS = {
    "verify": _check_verify,
    "holds": _check_holds,
    "none-exists": _check_none_exists,
    "fit-weights": _check_fit_weights,
    "solve-theta": _check_solve_theta,
    "darboux": _check_darboux,
    "gen-system": _check_gen_system,
}


def check(task: dict, report: dict):
    """None when the report is right for the task, else what is wrong."""
    try:
        return _CHECKS[task["check"]](report, task["expect"])
    except (AssertionError, KeyError, TypeError, ValueError) as err:
        return f"malformed report: {err!r}"
