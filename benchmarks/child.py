"""One pass of a workload in a fresh process; run by run.py, not by hand.

Usage: python3 child.py '<job JSON>'  (with PYTHONPATH pointing at src)

The job holds the tasks in pass order, the mode ("plain", "spans" or
"profile") and the parent's CLOCK_MONOTONIC reading just before it started
this process.  Set-up ends right before the first task: it covers interpreter
start, the bispec imports, the catalog build and building the argv lists.
The last line on stdout is one JSON object with the results.
"""

from __future__ import annotations

import json
import sys
import time

import workloads


def _pass(tasks, mode):
    from bispec import cli
    from bispec.families import catalog_ids

    tracer = profiler = None
    if mode == "spans":
        from tracer import Tracer

        tracer = Tracer()
        idx = tracer.open("families.catalog_build")
    catalog_ids()  # builds the catalog, as every catalog command does
    if tracer:
        tracer.close(idx)
        tracer.install()  # after the build, so layer counts cover the tasks only
    argvs = [list(task["argv"]) for task in tasks]
    ready = time.monotonic()

    if mode == "profile":
        import cProfile

        profiler = cProfile.Profile()
    texts, errors, times = [], [], []
    for argv in argvs:
        span = tracer.open("task") if tracer else None
        if profiler:
            profiler.enable()
        start = time.perf_counter()
        text = error = None
        try:
            text = json.dumps(cli.run(argv), sort_keys=True)
        except Exception as err:  # a task that raises counts as failed
            error = f"{type(err).__name__}: {err}"
        times.append(time.perf_counter() - start)
        if profiler:
            profiler.disable()
        if tracer:
            tracer.close(span)
        texts.append(text)
        errors.append(error)
    rss_kb = _peak_rss_kb()
    if tracer:
        tracer.uninstall()

    out = {"ready": ready, "rss_kb": rss_kb, "tasks": []}
    for task, text, error, seconds in zip(tasks, texts, errors, times):
        problem = error if text is None else workloads.check(task, json.loads(text))
        text = text or error
        out["tasks"].append({"s": seconds, "bytes": len(text), "output": _digest(text),
                             "problem": problem})
    if tracer:
        out["trace"] = tracer.result()
    if profiler:
        out["profile"] = _profile_summary(profiler)
    return out


def _peak_rss_kb() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _digest(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()


def _profile_summary(profiler) -> dict:
    import pstats

    from bispec.exact import Rat
    from tracer import profile_counts

    rat_file = getattr(sys.modules[Rat.__module__], "__file__", None)
    return profile_counts(pstats.Stats(profiler).stats, rat_file)


def _environment() -> dict:
    from bispec.exact import Rat

    return {"rat_backend": f"{Rat.__module__}.{Rat.__name__}",
            "python": sys.version.split()[0]}


def main() -> None:
    job = json.loads(sys.argv[1])
    out = _pass(job["tasks"], job["mode"])
    out["setup_s"] = out.pop("ready") - job["spawned"]
    out.update(_environment())
    print(json.dumps(out))


if __name__ == "__main__":
    main()
