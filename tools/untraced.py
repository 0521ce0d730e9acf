"""List the statements of src/bispec that no run executes.

Traces, in one process with ``sys.settrace``:
``pytest tests``, every task of the benchmark workloads
(``benchmarks/workloads.py``), every example of the README's CLI section and
``verify --all``, each command through ``bispec.cli.main``.  Then prints, file
by file, each executable line of ``src/bispec`` that none of them reached, as
``path:line: text``, and a count per file.  A statement is what the
standard library's ``trace`` module counts as one (docstrings excluded).

    python tools/untraced.py

The pytest part takes a few minutes, since every traced line costs a Python
call.  Nothing is imported from ``bispec`` before tracing starts, so the
module-level statements count as executed by the import.
"""

from __future__ import annotations

import contextlib
import io
import shlex
import sys
import trace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "bispec"


def _readme_examples() -> list:
    """The argv of each ``bispec`` line in the README's CLI example block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.replace("\\\n", " ").splitlines() if line.strip()]


def _argvs() -> list:
    sys.path.insert(0, str(ROOT / "benchmarks"))
    from workloads import WORKLOADS

    tasks = [task["argv"] for tasks in WORKLOADS.values() for task in tasks]
    return tasks + _readme_examples() + [["verify", "--all"]]


def _run_all() -> int:
    """Run the tests, then every command line; the pytest exit code."""
    # no addopts: the project's --durations=10 block would land in the listing
    code = pytest.main(["-q", "-o", "addopts=", "-p", "no:cacheprovider", str(ROOT / "tests")])
    from bispec import cli

    for argv in _argvs():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)
    return code


def _traced(func, prefix: str) -> tuple:
    """(func's result, the set of (file, line) executed in files under prefix)."""
    executed = set()

    def line(frame, event, _arg):
        if event == "line":
            executed.add((frame.f_code.co_filename, frame.f_lineno))
        return line

    # only frames of files under prefix get the line tracer
    sys.settrace(lambda frame, _event, _arg: line if frame.f_code.co_filename.startswith(prefix)
                 else None)
    try:
        return func(), executed
    finally:
        sys.settrace(None)


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    code, executed = _traced(_run_all, str(PACKAGE))
    executed = {(Path(f).resolve(), line) for f, line in executed}
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = path.read_text().splitlines()
        # line 0 is the module's own start, not a statement
        missing = sorted(n for n in trace._find_executable_linenos(str(path))
                         if n and (path, n) not in executed)
        for n in missing:
            print(f"{path.relative_to(ROOT)}:{n}: {lines[n - 1].strip()}")
        if missing:
            print(f"# {path.name}: {len(missing)} statements not executed")
        total += len(missing)
    print(f"# {total} statements not executed; pytest exit code {code}")
    return 1 if code else 0


if __name__ == "__main__":
    sys.exit(main())
