"""Per-layer spans and counts, recorded by wrapping mackeywitt from outside.

``Tracer.install()`` replaces public callables of the package with timing
wrappers: methods on their classes, module functions in every
``mackeywitt`` module that holds them by name (``twisted_cyclic_nerve``
lives in ``cli``, ``geomfix``, ``cycmonoid`` and ``suites`` as well as in
``hochschild``), and the suite functions in ``suites.SUITES``.
``fgab._SNF`` is the one non-public name wrapped: every factorization goes
through it.  ``uninstall()`` puts every original back.

Each wrapped call is a span (id, name, start, end, parent id, job), named
after the callable (``fgab._SNF.__init__``, ``wittcore.witt_mul``).  Spans
stay in memory until ``write_spans``.  A span's self time is its duration
minus the part covered by its child spans; it is summed per metric key as
``<key>.self_s``.  The benchmark's untraced passes never import this
module.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "mackeywitt"

# (metric key, module, function) rebound wherever the package holds it.
FUNCTIONS = (
    ("fgab.solve_left", "fgab", "solve_left"),
    ("fgab.row_hnf", "fgab", "row_hnf"),
    ("fgab.mat_mul", "fgab", "mat_mul"),
    ("green.box_list", "green", "box_list"),
    ("hochschild.nerve", "hochschild", "twisted_cyclic_nerve"),
    ("hochschild.moore", "hochschild", "moore_complex"),
    ("mackey.axioms", "mackey", "check_axioms"),
    ("geomfix.cyclotomic", "geomfix", "cyclotomic_check_norm"),
    ("geomfix.cyclotomic", "geomfix", "cyclotomic_check"),
    ("norm.build", "norm", "norm_trivial_ring"),
    ("wittcore.arith", "wittcore", "witt_add"),
    ("wittcore.arith", "wittcore", "witt_mul"),
    ("wittcore.arith", "wittcore", "witt_neg"),
    ("wittcore.arith", "wittcore", "witt_sub"),
    ("wittcore.arith", "wittcore", "witt_scalar"),
    ("wittcore.arith", "wittcore", "frobenius"),
    ("wittcore.arith", "wittcore", "verschiebung"),
    ("wittgreen.compare", "wittgreen", "compare_with_classical"),
    ("wittgreen.witt_green", "wittgreen", "witt_green"),
    ("cycmonoid.splitting", "cycmonoid", "splitting_check"),
    ("cycmonoid.algebra", "cycmonoid", "monoid_algebra"),
    ("cli", "cli", "main"),
)

# (metric key, module, class, method).
METHODS = (
    ("fgab.snf", "fgab", "_SNF", "__init__"),
    ("fgab.hom_check", "fgab", "AbHom", "__init__"),
    ("fgab.kernel", "fgab", "AbHom", "kernel"),
    ("fgab.subquotient", "fgab", "Subquotient", "__init__"),
    ("hochschild.identities", "hochschild", "SimplicialMackey", "check_identities"),
    ("hochschild.homology", "hochschild", "MackeyHomology", "__init__"),
    ("mackey.hom_check", "mackey", "MackeyHom", "__init__"),
    ("mackey.hom_eq", "mackey", "MackeyHom", "__eq__"),
    ("geomfix.report", "geomfix", "ComparisonReport", "note"),
)

# Every per-layer metric and its unit, in report order.
METRICS = {
    "fgab.snf.calls": "count",
    "fgab.snf.cells": "count",
    "fgab.snf.max_rows": "count",
    "fgab.snf.distinct_ratio": "ratio",
    "fgab.snf.self_s": "s",
    "fgab.solve_left.calls": "count",
    "fgab.solve_left.self_s": "s",
    "fgab.hom_check.calls": "count",
    "fgab.hom_check.relations": "count",
    "fgab.hom_check.self_s": "s",
    "fgab.kernel.calls": "count",
    "fgab.kernel.self_s": "s",
    "fgab.subquotient.calls": "count",
    "fgab.subquotient.self_s": "s",
    "fgab.row_hnf.self_s": "s",
    "fgab.mat_mul.self_s": "s",
    "green.box_list.calls": "count",
    "green.box_list.self_s": "s",
    "green.box.tags": "count",
    "green.box.relations": "count",
    "green.box.tags_over_canonical": "ratio",
    "hochschild.nerve.calls": "count",
    "hochschild.nerve.self_s": "s",
    "hochschild.identities.self_s": "s",
    "hochschild.moore.calls": "count",
    "hochschild.homology.calls": "count",
    "hochschild.homology.self_s": "s",
    "mackey.hom_check.calls": "count",
    "mackey.hom_check.self_s": "s",
    "mackey.hom_eq.calls": "count",
    "mackey.axioms.self_s": "s",
    "spans.self_s": "s",
    "geomfix.cyclotomic.self_s": "s",
    "geomfix.report.checks": "count",
    "norm.build.calls": "count",
    "norm.build.self_s": "s",
    "wittcore.arith.calls": "count",
    "wittcore.arith.self_s": "s",
    "wittcore.poly.misses": "count",
    "wittgreen.compare.calls": "count",
    "wittgreen.compare.self_s": "s",
    "wittgreen.witt_green.self_s": "s",
    "cycmonoid.splitting.self_s": "s",
    "cycmonoid.algebra.self_s": "s",
    "suites.cases": "count",
    "suites.self_s": "s",
    "cli.self_s": "s",
    "cli.stdout_bytes": "count",
}


def _check_flag(args, kwargs) -> bool:
    """The ``check`` argument of ``AbHom``/``MackeyHom.__init__`` (default True)."""
    return kwargs.get("check", args[4] if len(args) > 4 else True)


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self.job = -1
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self._next_id = 0
        self._stack: list[list] = []  # [span id, time covered by children]
        self._paused = False
        self._snf_seen: set[int] = set()
        self._box_levels: list = []
        self._canonical_gens = 0
        self._restore: list[tuple] = []
        self._poly_misses0 = 0

    # -- recording ---------------------------------------------------------

    def _wrap(self, key: str, fn, when=None, after=None):
        counts, self_s, stack, spans = self.counts, self.self_s, self._stack, self.spans
        name = f"{fn.__module__.removeprefix(PACKAGE + '.')}.{fn.__qualname__}"
        calls = key + ".calls"

        def wrapper(*args, **kwargs):
            if self._paused or (when is not None and not when(args, kwargs)):
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            parent = stack[-1][0] if stack else -1
            frame = [span_id, 0.0]
            stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                if after is not None:
                    after(result, args)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                dur = t1 - t0
                self_s[key] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                counts[calls] += 1
                spans.append((span_id, name, t0, t1, parent, self.job))

        wrapper.__wrapped__ = fn
        return wrapper

    def _counter(self, key: str, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_snf(self, _result, args):
        m = args[1]
        rows = len(m)
        cols = len(m[0]) if rows else 0
        self.counts["fgab.snf.cells"] += rows * cols
        if rows > self.counts["fgab.snf.max_rows"]:
            self.counts["fgab.snf.max_rows"] = rows
        self._snf_seen.add(hash(tuple(map(tuple, m))))

    def _after_hom_check(self, _result, args):
        self.counts["fgab.hom_check.relations"] += len(args[1].relations)

    def _after_box_list(self, pres, _args):
        levels = pres.mackey.level
        self.counts["green.box.tags"] += sum(len(t) for t in pres.tags.values())
        self.counts["green.box.relations"] += sum(len(g.relations) for g in levels.values())
        self._box_levels.extend(levels.values())

    def _after_suite(self, result, _args):
        self.counts["suites.cases"] += result.cases

    def count(self, key: str, n: int) -> None:
        self.counts[key] += n

    def end_job(self) -> None:
        """Count canonical generators of the job's box levels, untraced.

        Done between jobs so the presentations are released with their job.
        """
        self._paused = True
        try:
            for g in self._box_levels:
                inv, rank = g.canonical_form
                self._canonical_gens += len(inv) + rank
        finally:
            self._paused = False
            self._box_levels = []

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        mods = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in (
            "fgab", "green", "hochschild", "mackey", "spans", "geomfix", "norm",
            "wittcore", "wittgreen", "cycmonoid", "suites", "cli")}
        package = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]
        afters = {"green.box_list": self._after_box_list}
        targets = [(key, mods[mod], fname) for key, mod, fname in FUNCTIONS]
        spans = mods["spans"]
        targets += [("spans", spans, name) for name, obj in sorted(vars(spans).items())
                    if callable(obj) and not name.startswith("_")
                    and getattr(obj, "__module__", None) == spans.__name__]
        for key, mod, fname in targets:
            original = getattr(mod, fname)
            wrapper = self._wrap(key, original, after=afters.get(key))
            for m in package:
                for name, value in list(vars(m).items()):
                    if value is original:
                        self._restore.append((m, name, original))
                        setattr(m, name, wrapper)

        whens = {"fgab.hom_check": _check_flag, "mackey.hom_check": _check_flag}
        method_afters = {"fgab.snf": self._after_snf, "fgab.hom_check": self._after_hom_check}
        for key, mod, cls_name, meth in METHODS:
            cls = getattr(mods[mod], cls_name)
            original = cls.__dict__[meth]
            if key == "geomfix.report":
                wrapper = self._counter("geomfix.report.checks", original)
            else:
                wrapper = self._wrap(key, original, when=whens.get(key), after=method_afters.get(key))
            self._restore.append((cls, meth, original))
            setattr(cls, meth, wrapper)

        suites_table = mods["suites"].SUITES
        for name, original in list(suites_table.items()):
            self._restore.append((suites_table, name, original))
            suites_table[name] = self._wrap("suites", original, after=self._after_suite)

        self._poly_misses0 = mods["wittcore"]._universal_poly.cache_info().misses

    def uninstall(self) -> None:
        poly = sys.modules[f"{PACKAGE}.wittcore"]._universal_poly
        self.counts["wittcore.poly.misses"] = poly.cache_info().misses - self._poly_misses0
        for owner, name, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[name] = original
            else:
                setattr(owner, name, original)
        self._restore = []

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Every name in METRICS, from the counts and self times so far."""
        out: dict[str, float] = {}
        for name in METRICS:
            if name.endswith(".self_s"):
                out[name] = self.self_s.get(name[: -len(".self_s")], 0.0)
            else:
                out[name] = self.counts.get(name, 0)
        snf_calls = self.counts.get("fgab.snf.calls", 0)
        out["fgab.snf.distinct_ratio"] = len(self._snf_seen) / snf_calls if snf_calls else 0.0
        tags = self.counts.get("green.box.tags", 0)
        out["green.box.tags_over_canonical"] = tags / self._canonical_gens if self._canonical_gens else 0.0
        return out

    def write_spans(self, path: str, jobs: list[str]) -> None:
        """Write the spans as JSON lines: a header with the job ids, then one span a line."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "name", "start", "end", "parent", "job"], "jobs": jobs}) + "\n")
            for span in sorted(self.spans):
                fh.write(json.dumps(span) + "\n")
