"""Self-tests of the benchmark.  Run from the checkout root:

    python3 -m pytest benchmarks/test_bench.py -q

They take about 15 s: a few short passes in fresh processes and one
smoke run of the gen-system workload.
"""

from __future__ import annotations

import copy
import json
import subprocess
import sys
from pathlib import Path

import pytest

import run
import workloads
from tracer import COUNTED, SPANNED, Tracer, _resolve

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

# quick tasks that still reach every traced layer: verify (scalar and matrix),
# parse, darboux, fit-weights with its nullspace, and gen-system
SHORT = [
    workloads._verify_task("hermite-exc:k=2", True),
    workloads._verify_task("matrix:laguerre:1a-printed", False),
    next(t for t in workloads.WORKLOADS["chain-solve"] if t["check"] == "darboux"),
    {"name": "fit-weights hermite-exc:k=1", "check": "holds", "expect": None,
     "argv": ["fit-weights", "--catalog", "hermite-exc:k=1", "--orders", "3,1"]},
    workloads._gen_task("3:1,1:-16"),
]


def _outputs(result):
    return [t["output"] for t in result["tasks"]]


@pytest.fixture(scope="module")
def passes():
    return {mode: run.run_child(SHORT, mode, 7) for mode in ("plain", "spans", "profile")}


def test_traced_outputs_equal_untraced(passes):
    assert _outputs(passes["spans"]) == _outputs(passes["plain"])
    assert _outputs(passes["profile"]) == _outputs(passes["plain"])
    assert all(t["problem"] is None for p in passes.values() for t in p["tasks"])


def test_counts_repeat_exactly(passes):
    again = {mode: run.run_child(SHORT, mode, 7) for mode in ("spans", "profile")}

    def counts(result):
        return {k: v for k, v in result["profile"].items() if k != "rat_s"}

    assert counts(again["profile"]) == counts(passes["profile"])
    assert again["spans"]["trace"]["sizes"] == passes["spans"]["trace"]["sizes"]
    assert again["spans"]["trace"]["counts"]["exact.mpoly_mul"][0] \
        == passes["spans"]["trace"]["counts"]["exact.mpoly_mul"][0]
    assert [s[0] for s in again["spans"]["trace"]["spans"]] \
        == [s[0] for s in passes["spans"]["trace"]["spans"]]


def test_layer_metrics_cover_the_definition(passes):
    metrics = run.layer_metrics(passes["spans"]["trace"], passes["profile"]["profile"],
                                passes["plain"]["wall_s"], passes["spans"]["wall_s"], 1)
    names = {m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
    assert names <= metrics.keys()
    for layer in ("adcond.ad_tower_calls", "diffop.compose_calls", "exact.nullspace_calls",
                  "matrixop.compose_calls", "ansatz.equations_n", "exact.rat_ops"):
        assert metrics[layer] > 0, layer
    assert metrics["darboux.step_s"] > 0 and metrics["expr.parse_s"] > 0


def _bispec_bindings():
    """id of every attribute of every bispec module and of its classes."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "bispec" or name.startswith("bispec."):
            for owner in [module] + [v for v in vars(module).values() if isinstance(v, type)]:
                for attr, value in list(vars(owner).items()):
                    out[(id(owner), attr)] = id(value)
    return out


def test_uninstall_restores_every_wrapped_function():
    from bispec import cli

    before = _bispec_bindings()
    tracer = Tracer()
    tracer.install()
    try:
        patched = {attr for _, attr in tracer.patched()}
        for _, path in {**SPANNED, **COUNTED}.values():
            assert path.split(".")[-1] in patched, path
        report = cli.run(["verify", "hermite-exc:k=1"])
    finally:
        tracer.uninstall()
    assert report["verdicts"][0]["holds"] is True
    assert any(s[0] == "adcond.ad_tower" for s in tracer.spans)
    assert _bispec_bindings() == before
    for module, path in {**SPANNED, **COUNTED}.values():
        assert not hasattr(_resolve(module, path), "__wrapped__"), path


def test_checks_reject_wrong_outputs():
    from bispec import cli

    reports = {}
    for task in SHORT:
        reports[task["name"]] = json.loads(json.dumps(cli.run(task["argv"])))
        assert workloads.check(task, reports[task["name"]]) is None, task["name"]
    verify, refute, darboux, _, gen = SHORT
    flipped = copy.deepcopy(reports[refute["name"]])
    flipped["verdicts"][0]["holds"] = True
    assert workloads.check(refute, flipped)
    wrong = copy.deepcopy(reports[darboux["name"]])
    wrong["verdicts"][0]["eigenvalue"] = "(k^2 - 7)/8"
    assert workloads.check(darboux, wrong)
    short = copy.deepcopy(reports[gen["name"]])
    short["verdicts"][0]["equations"].pop()
    assert workloads.check(gen, short)
    forced = copy.deepcopy(reports[gen["name"]])
    forced["verdicts"][0]["forced"][0]["value"] = "a2"
    assert workloads.check(gen, forced)
    # semantic, not textual: an equal value written differently passes
    renamed = copy.deepcopy(reports[gen["name"]])
    renamed["verdicts"][0]["forced"][0]["value"] = "(2/3)*a2"
    renamed["verdicts"][0]["extra_key"] = "ignored"
    assert workloads.check(gen, renamed) is None
    assert workloads.check(verify, {"verdicts": []})


def test_compare_refuses_mixed_backends(tmp_path):
    record = {"workload": "gen-system", "trace": 0, "env": {"rat_backend": "fractions.Fraction"},
              "result": {"metrics": {"wall_s": {"value": 1.0, "unit": "s"}}}}
    other = copy.deepcopy(record)
    other["env"]["rat_backend"] = "gmpy2.mpq"
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps([record]))
    b.write_text(json.dumps([other]))
    assert run.compare(str(a), str(b)) == 2
    assert run.compare(str(a), str(a)) == 0


def test_smoke_run_has_no_failures():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / "run.py"), "--workload", "gen-system",
         "--seed", "3", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["attempted"] == 5 and result["failed"] == 0
    assert set(result["metrics"]) == {"wall_s", "setup_s", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in result["metrics"].values())
