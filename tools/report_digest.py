"""Print a sha256 digest of the JSON report of each command line in a fixed list.

The list: every task of the benchmark workloads, every example of the
README's CLI section and ``verify --all`` (as ``tools/untraced.py`` runs
them); ``ad``, ``heisenberg`` and ``fit-weights`` of every scalar catalog
entry except ``laguerre-step:3``, at its condition's orders; ``gen-system``
at weight order 6; the rank certificates of ``CERTIFICATES``, at weight
orders 7 to 40; and the ``solve-theta`` calls of ``FINDS``, which find a
Theta.  Each runs in this process through ``bispec.cli.run``, and
its digest is taken over ``json.dumps(report, sort_keys=True)``; a command
that exits 2 is digested as the error report that ``cli.main`` prints.

    python tools/report_digest.py > NEW.json
    python tools/report_digest.py --compare OLD.json NEW.json

The first form prints one JSON object, argv -> digest.  ``--compare`` lists
the argvs whose digests differ, or that only one file has, and exits 1 when
there is one.  To compare two commits, run the first form in a checkout of
each: this file imports ``bispec`` from its own checkout's ``src``.
"""

from __future__ import annotations

import hashlib
import json
import shlex
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SKIPPED = {"laguerre-step:3"}  # its ad tower alone takes seconds
# command lines that run a rank certificate mod p above the workloads' order 5
CERTIFICATES = [
    ["solve-theta", "--L", "x^2+1/x^2", "--weights", "20:1,0:1", "--deg", "10"],
    ["solve-theta", "--L", "x^2+1/x^2", "--weights", "15:1,0:1", "--deg", "15"],
    ["fit-weights", "--L", "x^2+1/x^2", "--theta", "x^3", "--orders", "30,1"],
    ["fit-weights", "--L", "x^2+1/x^2", "--theta", "x", "--orders", "40,1"],
    ["solve-theta", "--L", "x^2+1/(x+1)^3+2/x", "--weights", "12:1,2:3,0:1", "--deg", "8"],
    ["fit-weights", "--catalog", "laguerre-step:2", "--orders", "7,5,3,1"],
]
# command lines that find a Theta: lifted from GF(p) in one parameter (the
# last one skips k = 2^23, the first value tried, where V has no image), and
# found by the symbolic nullspace with two parameters or a relation-bearing one
FINDS = [
    ["solve-theta", "--catalog", "laguerre-step:2", "--weights", "7:1,5:-14,3:49,1:-36",
     "--deg", "6"],
    ["solve-theta", "--catalog", "laguerre-step:1", "--weights", "5:1,3:-5,1:4", "--deg", "4",
     "--allow-constant"],
    ["solve-theta", "--catalog", "ansatz:A5-5A3+4A1:7", "--weights", "5:1,3:-5,1:4",
     "--deg", "4"],
    ["solve-theta", "--catalog", "ansatz:A4-40A2+144A0:9", "--weights", "4:1,2:-40,0:144",
     "--deg", "3"],
    ["solve-theta", "--L", "x^2 + 1/(k - 8388608)", "--param", "k", "--weights", "3:1,1:-16",
     "--deg", "2"],
]


def _catalog_argvs() -> list:
    from bispec.families import catalog_ids, get_entry

    argvs = []
    for entry_id in catalog_ids():
        entry = get_entry(entry_id)
        if entry.kind != "scalar" or entry_id in SKIPPED:
            continue
        w = entry.condition
        top = str(w.top_order)
        argvs += [["ad", "--catalog", entry_id, "--j", top],
                  ["heisenberg", "--catalog", entry_id, "--order", top],
                  ["fit-weights", "--catalog", entry_id,
                   "--orders", ",".join(str(j) for j, _ in reversed(w.items()))]]
    return argvs


def argvs() -> list:
    """The fixed list of command lines, in order."""
    from untraced import _argvs

    return (_argvs() + _catalog_argvs()
            + [["gen-system", "--weights", "6:1,4:-140,2:4144,0:-14400"]] + CERTIFICATES + FINDS)


def digest(argv: list) -> str:
    from bispec import cli
    from bispec.exact import ExactError
    from bispec.expr import ParseError

    try:
        report = cli.run(argv)
    except (cli.UsageError, ParseError, ExactError) as err:
        report = {"schema": cli.SCHEMA, "error": str(err), "exit_code": 2}
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


def compare(old: dict, new: dict) -> list:
    """The argvs whose digests differ, or that one side lacks."""
    return [argv for argv in sorted(old.keys() | new.keys()) if old.get(argv) != new.get(argv)]


def main(args: list) -> int:
    if args[:1] == ["--compare"] and len(args) == 3:
        old, new = (json.loads(Path(name).read_text()) for name in args[1:])
        differ = compare(old, new)
        for argv in differ:
            print(argv)
        print(f"# {len(differ)} of {len(old.keys() | new.keys())} argvs differ")
        return 1 if differ else 0
    if args:
        print("usage: python tools/report_digest.py [--compare OLD.json NEW.json]", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    digests = {shlex.join(argv): digest(argv) for argv in argvs()}
    print(json.dumps(digests, indent=1, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
