"""The bispec benchmark: four CLI workloads, measured end to end, and a traced
run that breaks one pass down by layer.

    python3 benchmarks/run.py --workload verify-holds --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --seed 1 --seconds 20
    python3 benchmarks/run.py --workload chain-solve --seed 1 --trace 1 --out BENCH_x.json
    python3 benchmarks/run.py compare BENCH_before.json BENCH_after.json

The checkout is the directory above this one.  A pass runs a workload's
whole task list, in an order drawn from the seed, in one fresh
single-threaded Python process (child.py) started with PYTHONPATH=src and a
PYTHONHASHSEED drawn from the seed.  Passes never overlap: one client, closed loop.  With ``--trace 0`` the
run repeats passes until ``--seconds`` have gone by and reports medians of
the end-to-end metrics.  With ``--trace 1`` it makes three passes of one order
(untraced, span-traced, cProfile) and reports the per-layer metrics.  The last
line on stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import layer_metrics
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 10  # set-up-only processes per run, on top of one per pass
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    pass


def _definition() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _child_env(hashseed: int) -> dict:
    env = dict(os.environ)
    env.pop("BISPEC_MAX_DEGREE", None)
    # cached bytecode, as an installed bispec has it; the first process writes it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = str(hashseed)
    return env


def run_child(tasks: list, mode: str, hashseed: int) -> dict:
    """One pass in a fresh process; returns child.py's result object."""
    job = {"tasks": tasks, "mode": mode, "spawned": time.monotonic()}
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "child.py"), json.dumps(job)],
            env=_child_env(hashseed), cwd=ROOT, capture_output=True, text=True,
            timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BenchError(f"{mode} pass did not finish in {CHILD_TIMEOUT_S} s") from None
    if proc.returncode != 0:
        raise BenchError(f"{mode} pass exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["hashseed"] = hashseed
    result["wall_s"] = sum(t["s"] for t in result["tasks"])
    return result


def _draw(rng: random.Random, tasks: list):
    return rng.sample(tasks, len(tasks)), rng.randrange(2 ** 32)


def tail_percentile(samples: list):
    """(p, value) for the highest of p99/p95/p90/p50 with at least ten samples
    beyond it, or None when there are too few samples."""
    for p in (99, 95, 90, 50):
        if len(samples) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(samples, n=100, method="inclusive")[p - 1]
    return None


def _failures(passes: list) -> tuple:
    attempted = sum(len(p["tasks"]) for p in passes)
    problems = [t["problem"] for p in passes for t in p["tasks"] if t["problem"]]
    return attempted, problems


def measure(workload: str, seed: int, seconds: float) -> dict:
    """End-to-end metrics: medians over the passes that fit in ``seconds``."""
    rng = random.Random(seed)
    tasks = WORKLOADS[workload]
    start = time.monotonic()
    probes = [run_child([], "plain", rng.randrange(2 ** 32)) for _ in range(SETUP_PROBES)]
    passes = []
    while not passes or time.monotonic() - start < seconds:
        order, hashseed = _draw(rng, tasks)
        passes.append(run_child(order, "plain", hashseed))
    walls = [p["wall_s"] for p in passes]
    attempted, problems = _failures(passes)
    return {
        "metrics": {
            "wall_s": statistics.median(walls),
            "setup_s": statistics.median(p["setup_s"] for p in probes + passes),
            "peak_rss_mb": statistics.median(p["rss_kb"] / 1024 for p in passes),
        },
        "attempted": attempted,
        "problems": problems,
        "samples": {
            "wall_s": walls,
            "wall_s_tail": tail_percentile(walls),
            "setup_s": [p["setup_s"] for p in probes + passes],
            "peak_rss_mb": [p["rss_kb"] / 1024 for p in passes],
        },
        "passes": passes,
    }


def trace(workload: str, seed: int) -> dict:
    """Per-layer metrics: one task order run untraced, with spans and under
    cProfile.  All three must give identical task outputs."""
    rng = random.Random(seed)
    order, hashseed = _draw(rng, WORKLOADS[workload])
    plain, spans, profile = (run_child(order, mode, hashseed)
                             for mode in ("plain", "spans", "profile"))
    passes = [plain, spans, profile]
    attempted, problems = _failures(passes)
    outputs = [[t["output"] for t in p["tasks"]] for p in passes]
    if outputs[1] != outputs[0] or outputs[2] != outputs[0]:
        problems.append("traced task outputs differ from untraced ones")
    metrics = layer_metrics(spans["trace"], profile["profile"], plain["wall_s"],
                            spans["wall_s"], sum(t["bytes"] for t in plain["tasks"]))
    return {"metrics": metrics, "attempted": attempted, "problems": problems,
            "spans": spans["trace"]["spans"], "passes": passes}


def environment(seed: int, passes: list) -> dict:
    return {
        "rat_backend": passes[0]["rat_backend"],
        "python": passes[0]["python"],
        "nproc": len(os.sched_getaffinity(0)),
        "seed": seed,
        "pythonhashseeds": [p["hashseed"] for p in passes],
    }


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    """One run; returns the full record, metrics as BENCHMARK.json lists them."""
    section = "per_layer" if traced else "end_to_end"
    outcome = trace(workload, seed) if traced else measure(workload, seed, seconds)
    values = outcome.pop("metrics")
    metrics = {}
    for spec in _definition()[section]:
        if spec["name"] not in values:
            raise BenchError(f"benchmark does not compute metric {spec['name']}")
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}
    passes = outcome.pop("passes")
    problems = outcome.pop("problems")
    return {
        "workload": workload,
        "trace": int(traced),
        "env": environment(seed, passes),
        "result": {"correct": not problems, "attempted": outcome.pop("attempted"),
                   "failed": len(problems), "metrics": metrics},
        "problems": problems,
        **outcome,
    }


def _print_summary(record: dict) -> None:
    result = record["result"]
    print(f"# {record['workload']}  seed={record['env']['seed']}  "
          f"rat={record['env']['rat_backend']}  python={record['env']['python']}  "
          f"nproc={record['env']['nproc']}")
    for name, m in result["metrics"].items():
        print(f"  {name:<40} {m['value']:>14.6g} {m['unit']}")
    print(f"  {'failed_ratio':<40} {result['failed'] / result['attempted']:>14.6g} "
          f"ratio ({result['failed']} of {result['attempted']} tasks)")
    samples = record.get("samples")
    if samples:
        tail = samples["wall_s_tail"]
        tail_text = (f"p{tail[0]} {tail[1]:.4f} s" if tail else
                     "no percentile has ten samples beyond it")
        print(f"  wall_s over {len(samples['wall_s'])} passes; {tail_text}")
    for problem in record["problems"][:10]:
        print(f"  FAILED: {problem}")


def compare(old_path: str, new_path: str) -> int:
    """Change per metric between two files of records saved with --out."""
    with open(old_path) as fh:
        old = {(r["workload"], r["trace"]): r for r in json.load(fh)}
    with open(new_path) as fh:
        new = {(r["workload"], r["trace"]): r for r in json.load(fh)}
    if old.keys() != new.keys():
        print("refusing to compare files of different workloads or trace modes",
              file=sys.stderr)
        return 2
    backends = {r["env"]["rat_backend"] for r in [*old.values(), *new.values()]}
    if len(backends) != 1:
        print(f"refusing to compare: Rat backends differ ({', '.join(sorted(backends))})",
              file=sys.stderr)
        return 2
    for key, record in new.items():
        print(f"# {record['workload']}  {old_path} -> {new_path}")
        for name, m in record["result"]["metrics"].items():
            before = old[key]["result"]["metrics"].get(name, {}).get("value")
            change = f"{(m['value'] - before) / before:+.1%}" if before else "n/a"
            print(f"  {name:<40} {before!s:>14} {m['value']:>14.6g} {m['unit']:<6} {change}")
    return 0


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv[:1] == ["compare"]:
        if len(argv) != 3:
            print("usage: run.py compare OLD.json NEW.json", file=sys.stderr)
            return 2
        return compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None,
                        help="how long a --trace 0 run measures (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out", help="also write the full record, as JSON, to this file")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bispec").is_dir():
        print(f"error: no src/bispec under {ROOT}: the benchmark needs a full checkout",
              file=sys.stderr)
        return 2
    seconds = args.seconds if args.seconds is not None else _definition()["run_seconds"]
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        records = [run_workload(n, args.seed, seconds, bool(args.trace)) for n in names]
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    for record in records:
        _print_summary(record)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(records, fh, indent=1)
    if len(records) == 1:
        result = records[0]["result"]
    else:
        result = {
            "correct": all(r["result"]["correct"] for r in records),
            "attempted": sum(r["result"]["attempted"] for r in records),
            "failed": sum(r["result"]["failed"] for r in records),
            "metrics": {f"{r['workload']}.{name}": m for r in records
                        for name, m in r["result"]["metrics"].items()},
        }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
