"""A fuzzer over the command table.

Command lines are drawn from :data:`bispec.cli.COMMANDS`: every command, its
positionals, and its options of every kind, with values from small pools of
valid text, malformed text, and for each ``<=`` limit the value one above it
(never the limit itself, which takes seconds).  Each must exit 0, 1 or 2 with
one JSON report on stdout and no traceback.
"""

import contextlib
import io
import json

from hypothesis import given, settings, strategies as st

from bispec import cli

# each pool: (valid values, malformed or oversized values)
_IDS = (["hermite-exc:k=1", "laguerre-step:1", "ansatz:A2-4A0:1", "matrix:hermite:1",
         "matrix:laguerre:1a-printed"], ["no-such-id", ""])
_TERMS = cli.LIMITS["expression terms"]
_EXPRESSIONS = (
    ["x^2", "x", "x^2 + 2/x^2", "k*x^2", "x^2/(k+2) + x", "exp(-x^2/2)", "x^(1/2)*exp(x)",
     "x^(-(k^2+2)/4) * (x^2-k^2) * exp(x^2/8)", "0", "5"],
    ["x +", "1/0", "0^(-1)", "zz", "exp(1/x)", "x^x", "(x", "", f"(x+1)^{_TERMS}",
     "(x+1)^8000", "*".join(["(x+1)^900"] * 10), "(k+1)^6000*x^2", "2^(10^8)*x",
     "1" * 4400 + "*x", "k^40000*x^2"],
)


def _values(option: str, spec: str) -> tuple:
    """The pools of values for one option of the command table."""
    spec, _, limit = spec.partition("<=")
    kind = spec.rstrip("!").partition("=")[0]
    over = [str(cli.LIMITS[limit] + 1)] if limit else []
    if limit == "expression terms":
        return _EXPRESSIONS
    if kind == "int":
        return ["1", "2", "3"], ["0", "-1", "one", "2.5", "", *over]
    if kind == "orders":
        return ["3,1", "2,0", "5,3,1", "1"], ["3,x", "3,-1", ",", *(f"{n},1" for n in over)]
    if kind == "weights":
        return (["2:1,0:-4", "3:1,1:-16", "2:1"],
                ["3:1,1:-16,1:5", "2:0", "1:x", "2:1/0", "-1:1", *(f"{n}:1,0:1" for n in over)])
    if kind == "repeat":
        return ["k", "a"], ["x", "1a", ""]
    if option == "--catalog":
        return _IDS
    return ["1", "-1/2", "2"], ["0", "abc", "1/0"]


@st.composite
def _argvs(draw):
    """A command line: each value valid five times in six."""
    pick = lambda pools: draw(st.sampled_from(pools[draw(st.integers(0, 5)) == 0]))
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    _, _, positionals, options = cli.COMMANDS[command]
    argv = [command]
    for spec in positionals:
        word = spec.rstrip("?").partition("=")[2]
        if not spec.endswith("?") or draw(st.booleans()):
            argv.append(pick(([word], ["show"]) if word else _IDS))
    for option, spec in options.items():
        if spec == "flag":
            argv += [option] if draw(st.booleans()) else []
        elif spec.partition("<=")[0].endswith("!") or draw(st.booleans()):
            argv += [option, pick(_values(option, spec))]
    return argv + pick(([[]], [["--bogus", "1"], ["extra"], ["--all=1"]]))


@settings(max_examples=400, deadline=None)
@given(_argvs())
def test_cli_command_lines_exit_with_one_report(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2)
    report = json.loads(out.getvalue())
    assert report["exit_code"] == code
    assert "Traceback" not in err.getvalue()
