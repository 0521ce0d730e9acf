"""Outside-in layer trace of the bispec package.

:class:`Tracer` rebinds public functions and methods of the bispec modules to
wrappers that record spans (name, start, end, parent) in memory, and restores
every original on :meth:`Tracer.uninstall`.  The ``Rat`` layer is too
fine-grained to wrap; :func:`profile_counts` reads its calls from a cProfile
pass instead.  :func:`layer_metrics` turns spans, counts and size maxima into
the per-layer metrics named in BENCHMARK.json.
"""

from __future__ import annotations

import functools
import importlib
import re
import sys
import time

# span name -> (module, attribute path) of the wrapped callable
SPANNED = {
    "cli.run": ("bispec.cli", "run"),
    "expr.parse": ("bispec.expr", "parse_expr"),
    "expr.render": ("bispec.expr", "render"),
    "expr.render.diffop": ("bispec.diffop", "render_diffop"),
    "expr.render.xrat": ("bispec.diffop", "render_xrat"),
    "expr.render.xpoly": ("bispec.diffop", "render_xpoly"),
    "expr.render.quasirat": ("bispec.diffop", "render_quasirat"),
    "expr.render.scalar": ("bispec.exact", "render_scalar"),
    "expr.render.mpoly": ("bispec.exact", "render_mpoly"),
    "families.verify_entry": ("bispec.families", "verify_entry"),
    "adcond.ad_tower": ("bispec.adcond", "ad_tower"),
    "adcond.residual": ("bispec.adcond", "residual_from_tower"),
    "adcond.linear_rows": ("bispec.adcond", "_linear_rows"),
    "adcond.verify_condition": ("bispec.adcond", "verify_condition"),
    "adcond.fit_weights": ("bispec.adcond", "fit_weights"),
    "adcond.solve_theta": ("bispec.adcond", "solve_theta"),
    "adcond.heisenberg": ("bispec.adcond", "heisenberg_series"),
    "exact.nullspace": ("bispec.exact", "nullspace"),
    "diffop.commutator": ("bispec.diffop", "commutator"),
    "diffop.compose": ("bispec.diffop", "compose"),
    "diffop.reduce": ("bispec.diffop", "XRat.reduced"),
    "darboux.step": ("bispec.darboux", "darboux_step"),
    "darboux.intertwine": ("bispec.darboux", "intertwine_check"),
    "ansatz.generate_system": ("bispec.ansatz", "generate_system"),
    "matrixop.verify": ("bispec.matrixop", "verify_matrix_condition"),
    "matrixop.compose": ("bispec.matrixop", "mat_compose"),
}

# called too often for one span per call: count and outermost time only
COUNTED = {
    "exact.mpoly_mul": ("bispec.exact", "MPoly.__mul__"),
}

# cProfile call counts; MPoly.__mul__ again, so that the univariate share
# compares two counts of the same pass
PROFILED = {
    "univar_mul": ("bispec.exact", "_mul_univar"),
    "mpoly_mul": ("bispec.exact", "MPoly.__mul__"),
    "xpoly_mul": ("bispec.diffop", "XPoly.__mul__"),
    "divmod": ("bispec.diffop", "XPoly.divmod"),
    "gcd": ("bispec.diffop", "xpoly_gcd_rational"),
}

# the heaviest catalog entries run by the workloads, reported one by one
HEAVY_ENTRIES = [
    "ansatz:A5-5A3+4A1:7", "ansatz:A4-40A2+144A0:10", "ansatz:A4-40A2+144A0:9",
    "laguerre-step:1", "ansatz:A5-5A3+4A1:6", "hermite-exc:k=4",
]

SIZE_KEYS = ("tower_xdeg_max", "tower_den_exp_max",
             "tower_param_terms_max", "tower_coeff_bits_max")


def _resolve(module: str, path: str):
    obj = importlib.import_module(module)
    for part in path.split("."):
        obj = getattr(obj, part, None)
    return obj


def entry_metric(entry_id: str) -> str:
    return "families.entry." + re.sub(r"[^A-Za-z0-9_.-]", "_", entry_id) + "_s"


class Tracer:
    """Spans and counts of one traced pass, collected in memory."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counts = {}  # name -> [calls, outermost seconds]
        self.sizes = dict.fromkeys(SIZE_KEYS, 0)
        self.sizes.update(tower_steps=0, linear_rows_n=0, nullspace_cells=0,
                          equations_n=0, equation_terms=0)
        self._stack = []
        self._paused = 0.0
        self._patches = []  # (owner, attribute, original)

    def now(self) -> float:
        """Clock that stops while the tracer measures result sizes."""
        return time.perf_counter() - self._paused

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, self.now(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def close(self, idx: int) -> None:
        self._stack.pop()
        self.spans[idx][2] = self.now()

    def _spanned(self, name, fn):
        label = _LABELS.get(name)
        measure = _MEASURES.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(label(name, args) if label else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if measure:
                start = time.perf_counter()
                measure(self.sizes, args, result)
                self._paused += time.perf_counter() - start
            return result
        return wrapper

    def _counted(self, name, fn):
        slot = self.counts.setdefault(name, [0, 0.0])
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            slot[0] += 1
            if depth[0]:
                return fn(*args, **kwargs)
            depth[0] = 1
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[1] += time.perf_counter() - start
                depth[0] = 0
        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        """Rebind every reference to each traced callable inside bispec."""
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for name, (module, path) in table.items():
                original = _resolve(module, path)
                if original is not None:
                    self._rebind(original, make(name, original))

    def _rebind(self, original, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "bispec" and not modname.startswith("bispec."):
                continue
            owners = [module] + [v for v in vars(module).values()
                                 if isinstance(v, type) and v.__module__ == modname]
            for owner in owners:
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)
                        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def patched(self) -> list:
        return [(owner, attr) for owner, attr, _ in self._patches]

    def result(self) -> dict:
        return {"spans": self.spans, "counts": self.counts, "sizes": self.sizes}


def _label_entry(name, args):
    return f"{name}:{args[0].id}"


_LABELS = {"families.verify_entry": _label_entry}


def _rat_bits(q) -> int:
    return max(int(q.numerator).bit_length(), int(q.denominator).bit_length())


def _scalar_sizes(sizes, scalar) -> None:
    for poly in (scalar.num, scalar.den):
        terms = poly.terms
        if len(terms) > sizes["tower_param_terms_max"]:
            sizes["tower_param_terms_max"] = len(terms)
        for q in terms.values():
            bits = _rat_bits(q)
            if bits > sizes["tower_coeff_bits_max"]:
                sizes["tower_coeff_bits_max"] = bits


def _measure_tower(sizes, args, tower) -> None:
    sizes["tower_steps"] += len(tower) - 1
    for op in tower:
        for coeff in op.coeffs.values():
            num = coeff.num
            if num.coeffs:
                sizes["tower_xdeg_max"] = max(sizes["tower_xdeg_max"], max(num.coeffs))
            for scalar in num.coeffs.values():
                _scalar_sizes(sizes, scalar)
            for base, exp in coeff.factors:
                sizes["tower_den_exp_max"] = max(sizes["tower_den_exp_max"], exp)
                for scalar in base.coeffs.values():
                    _scalar_sizes(sizes, scalar)


def _measure_rows(sizes, args, rows) -> None:
    sizes["linear_rows_n"] += len(rows)


def _measure_nullspace(sizes, args, result) -> None:
    rows = args[0]
    sizes["nullspace_cells"] += len(rows) * (len(rows[0]) if rows else 0)


def _measure_system(sizes, args, system) -> None:
    sizes["equations_n"] += len(system.equations)
    sizes["equation_terms"] += sum(len(eq.terms) for eq in system.equations)


_MEASURES = {
    "adcond.ad_tower": _measure_tower,
    "adcond.linear_rows": _measure_rows,
    "exact.nullspace": _measure_nullspace,
    "ansatz.generate_system": _measure_system,
}


# -- cProfile pass --------------------------------------------------------------

def _code_key(fn):
    code = getattr(fn, "__code__", None)
    return None if code is None else (code.co_filename, code.co_firstlineno, code.co_name)


def profile_counts(stats: dict, rat_file) -> dict:
    """Counts from ``pstats.Stats(...).stats``.

    ``rat_ops`` counts calls into the Rat backend's module from outside it,
    ``rat_s`` is the self time inside it; both are 0 for a backend written
    in C, whose operators cProfile does not see.
    """
    out = {"rat_ops": 0, "rat_s": 0.0}
    for (filename, _, _), (_, _, selftime, _, callers) in stats.items():
        if filename != rat_file:
            continue
        out["rat_s"] += selftime
        out["rat_ops"] += sum(c[0] for key, c in callers.items() if key[0] != rat_file)
    for name, (module, path) in PROFILED.items():
        key = _code_key(_resolve(module, path))
        out[name] = stats[key][1] if key in stats else 0
    return out


# -- metrics ------------------------------------------------------------------

def _durations(spans, name: str, prefix: bool = False):
    """Durations of the spans called ``name`` (or starting with it) that have
    no ancestor of the same kind, so nested calls are not counted twice."""
    def match(n):
        return n.startswith(name) if prefix else n == name

    for span in spans:
        if not match(span[0]):
            continue
        parent = span[3]
        while parent >= 0 and not match(spans[parent][0]):
            parent = spans[parent][3]
        if parent < 0:
            yield span[2] - span[1]


def layer_metrics(trace: dict, profile: dict, plain_wall: float, traced_wall: float,
                  report_bytes: int) -> dict:
    """Every per-layer metric of BENCHMARK.json from one traced pass and one
    cProfile pass of the same tasks."""
    spans, sizes = trace["spans"], trace["sizes"]

    def total(name, prefix=False):
        return sum(_durations(spans, name, prefix))

    def calls(name):
        return sum(1 for s in spans if s[0] == name)

    by_parent = {}
    for span in spans:
        by_parent.setdefault(span[3], []).append(span)

    def child_time(idx):
        return sum(c[2] - c[1] for c in by_parent.get(idx, []))

    cli_self = sum(s[2] - s[1] - child_time(i) for i, s in enumerate(spans) if s[0] == "cli.run")
    reverify = sum(s[2] - s[1] for s in spans if s[0] == "adcond.verify_condition"
                   and s[3] >= 0 and spans[s[3]][0] in ("adcond.fit_weights", "adcond.solve_theta"))
    mul_calls, mul_s = trace["counts"].get("exact.mpoly_mul", (0, 0.0))

    metrics = {
        "exact.rat_ops": profile["rat_ops"],
        "exact.rat_s": profile["rat_s"],
        "exact.mpoly_mul_calls": mul_calls,
        "exact.mpoly_mul_s": mul_s,
        "exact.univar_mul_share": profile["univar_mul"] / max(profile["mpoly_mul"], 1),
        "exact.nullspace_calls": calls("exact.nullspace"),
        "exact.nullspace_s": total("exact.nullspace"),
        "exact.nullspace_cells": sizes["nullspace_cells"],
        "diffop.commutator_calls": calls("diffop.commutator"),
        "diffop.commutator_s": total("diffop.commutator"),
        "diffop.compose_calls": calls("diffop.compose"),
        "diffop.compose_s": total("diffop.compose"),
        "diffop.reduce_calls": calls("diffop.reduce"),
        "diffop.reduce_s": total("diffop.reduce"),
        "diffop.divmod_calls": profile["divmod"],
        "diffop.gcd_calls": profile["gcd"],
        "diffop.xpoly_mul_calls": profile["xpoly_mul"],
        "adcond.ad_tower_calls": calls("adcond.ad_tower"),
        "adcond.ad_tower_s": total("adcond.ad_tower"),
        "adcond.tower_steps": sizes["tower_steps"],
        "adcond.residual_s": total("adcond.residual"),
        "adcond.linear_rows_s": total("adcond.linear_rows"),
        "adcond.linear_rows_n": sizes["linear_rows_n"],
        "adcond.reverify_s": reverify,
        "darboux.step_s": total("darboux.step"),
        "darboux.intertwine_s": total("darboux.intertwine"),
        "ansatz.generate_system_s": total("ansatz.generate_system"),
        "ansatz.equations_n": sizes["equations_n"],
        "ansatz.equation_terms": sizes["equation_terms"],
        "matrixop.verify_s": total("matrixop.verify"),
        "matrixop.compose_calls": calls("matrixop.compose"),
        "families.catalog_build_s": total("families.catalog_build"),
        "families.verify_entry_s": total("families.verify_entry:", prefix=True),
        "expr.parse_s": total("expr.parse"),
        "expr.render_s": total("expr.render", prefix=True),
        "cli.self_s": cli_self,
        "cli.report_bytes": report_bytes,
        "trace.overhead_ratio": traced_wall / plain_wall,
        "trace.wall_s": traced_wall,
    }
    for key in SIZE_KEYS:
        metrics["adcond." + key] = sizes[key]
    for entry_id in HEAVY_ENTRIES:
        metrics[entry_metric(entry_id)] = total(f"families.verify_entry:{entry_id}")
    return metrics
