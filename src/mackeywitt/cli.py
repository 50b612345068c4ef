"""Command-line front end.

Subcommands: norm, hh, witt, tr, check, monoid.  All configuration is by
flags; identical invocations (including --seed) produce byte-identical
output.  Results go to stdout, diagnostics to stderr.  Exit status 2 means
invalid parameters, including an enumeration over
``wittcore.ENUMERATION_BUDGET``; exit status 1 means an internal invariant
violation (a bug, never user error).  Either way stderr gets one line.
When the reader of stdout goes away early (``| head``), the exit status is
141, as for a process killed by SIGPIPE, and stderr stays empty.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from json.encoder import encode_basestring_ascii as _jstr

from .fgab import AbHom, CompositeNotZeroError, FgAbGroup, NotInSubgroupError, NotWellDefinedError, Sparse, group_str
from .hochschild import MackeyHomology, moore_complex, require_nerve_budget, twisted_cyclic_nerve
from .geomfix import tr_tower
from .mackey import GroupContext, RingData, fixed_point_mackey
from .norm import norm_level_sizes, norm_trivial_ring
from .suites import SUITES, run_suites
from .wittcore import (
    ENUMERATION_BUDGET,
    BaseRing,
    EnumerationBudgetError,
    TruncationSet,
    UnsupportedRingError,
    is_prime,
)
from .wittgreen import compare_with_classical, witt_green

SCHEMA = "mackey-witt/1"


class ValidationError(ValueError):
    pass


def _parse_ring(text: str) -> BaseRing:
    try:
        return BaseRing.parse(text)
    except UnsupportedRingError as exc:
        raise ValidationError(str(exc)) from exc


def _emit(payload: dict, args) -> None:
    payload = {"schema": SCHEMA, **payload}
    if args.json:
        print(_dumps(payload))
    else:
        print(_render_table(payload))


def _violation(certificate: str) -> int:
    """Exit status 1 once stdout is written, with one stderr line naming the failed certificate."""
    sys.stdout.flush()  # a closed stdout is exit 141 with an empty stderr, as in main
    print(f"internal invariant violation: {certificate}", file=sys.stderr)
    return 1


def _dumps(obj, nl: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for obj on a line that starts
    with ``nl``, an ``AbHom`` leaf written as its dense matrix.  The indenting
    encoder of ``json`` is pure Python; this one appends the pieces of the text
    to one list (``_write``) and joins them once."""
    out: list[str] = []
    _write(obj, nl, out)
    return "".join(out)


def _write(obj, nl: str, out: list) -> None:
    """Append the pieces of ``_dumps(obj, nl)`` to out."""
    if isinstance(obj, str):
        out.append(_jstr(obj))
        return
    if isinstance(obj, int) and not isinstance(obj, bool):
        out.append(int.__repr__(obj))
        return
    if isinstance(obj, AbHom):
        _write_rows(obj.rows, nl, out)
        return
    inner = nl + "  "
    sep = "," + inner
    if isinstance(obj, (list, tuple)) and obj:
        out.append("[")
        for i, x in enumerate(obj):
            out.append(sep if i else inner)
            _write(x, inner, out)
        out += (nl, "]")
    elif isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            out += (sep if i else inner, _jstr(k), ": ")
            _write(v, inner, out)
        out += (nl, "}")
    else:  # empty containers, non-str keys and other leaves
        out.append(json.dumps(obj, indent=2).replace("\n", nl))


def _write_rows(rows: Sparse, nl: str, out: list) -> None:
    """Append the text of the dense matrix of ``rows`` at ``nl``.  The text of
    an all-zero row is built once; a row with nonzeros is written as that
    text's slices around them."""
    if not rows:
        out.append("[]")
        return
    inner = nl + "  "
    sep, cell = "," + inner, "," + inner + "  "
    zero = "[" + cell[1:] + cell.join(["0"] * rows.width) + inner + "]" if rows.width else "[]"
    first, step = len(cell), len(cell) + 1  # the offset of column 0's "0" and of each next one
    out.append("[")
    for i, r in enumerate(rows):
        out.append(sep if i else inner)
        at = 0
        for j, x in r:
            p = first + j * step
            out += (zero[at:p], int.__repr__(x))
            at = p + 1
        out.append(zero[at:])
    out += (nl, "]")


def _render_mackey(name: str, mj: dict, indent: str = "  ") -> list[str]:
    lines = [f"{name} (C_{mj['n']}-Mackey functor)"]
    for d in sorted(mj["levels"], key=int, reverse=True):
        lines.append(f"{indent}level {d} (C_{mj['n']}/C_{d}): {group_str(mj['levels'][d])}")
    for field, label in (("res", "res "), ("tr", "tr  "), ("weyl", "weyl ")):
        for key, h in mj[field].items():
            lines.append(f"{indent}{label}{key}: {[list(r) for r in h.matrix]}")
    return lines


def _render_table(payload: dict) -> str:
    lines = []
    kind = payload.get("kind")
    if kind == "norm":
        lines += _render_mackey(payload["description"], payload["mackey"])
    elif kind == "hh":
        for entry in payload["homology"]:
            lines += _render_mackey(f"HH_{entry['degree']}", entry["mackey"])
    elif kind == "witt":
        lines += _render_mackey(payload["description"], payload["green_side"]["mackey"])
        lines.append("classical side: W_<%d>(%s)" % (payload["n"], payload["ring"]))
        lines.append("  components indexed by " + str(payload["classical_side"]["truncation"]))
        lines.append("  additive group: " + group_str(payload["classical_side"]["group"]))
        lines.append("comparison verdict: " + payload["verdict"])
    elif kind == "tr":
        for stage in payload["tower"]["stages"]:
            lines.append(f"stage n={stage['n']} (C_{payload['p']}^{stage['n']}): {group_str(stage['group'])}")
        lines.append("limit: %s (precision %d)" % (
            payload["tower"]["limit"]["description"], payload["tower"]["limit"]["precision"]))
    elif kind == "check":
        for s in payload["suites"]:
            status = "pass" if not s["failures"] else "FAIL"
            lines.append(f"{s['name']}: {status} ({s['cases']} cases)")
            lines += ["  " + f for f in s["failures"]]
        lines.append(f"total: {payload['total_cases']} cases, {payload['total_failures']} failures")
    elif kind == "monoid":
        lines += _render_mackey("R[M]", payload["monoid_algebra"]["mackey"])
        if "splitting" in payload:
            for c in payload["splitting"]["checks"]:
                lines.append(("ok   " if c["ok"] else "FAIL ") + c["message"])
    return "\n".join(lines)


def cmd_norm(args) -> int:
    ring = _parse_ring(args.ring)
    nm = norm_trivial_ring(ring, args.n)
    _emit(
        {
            "kind": "norm",
            "description": f"N_e^C_{args.n}({args.ring})",
            "mackey": nm.to_json(),
        },
        args,
    )
    return 0


def cmd_hh(args) -> int:
    ring = _parse_ring(args.ring)
    require_nerve_budget(norm_level_sizes(ring, args.n), args.max_degree + 1)
    nm = norm_trivial_ring(ring, args.n)
    nerve = twisted_cyclic_nerve(nm, args.max_degree + 1)
    cx = moore_complex(nerve)
    entries = [
        {"degree": k, "mackey": MackeyHomology(cx, k).mackey.to_json()}
        for k in range(args.max_degree + 1)
    ]
    complex_json = {
        "degrees": [m.to_json() for m in cx.degrees],
        "boundaries": [{str(d): b.maps[d] for d in nerve.ctx.divisors} for b in cx.boundaries[1:]],
    }
    _emit(
        {"kind": "hh", "ring": args.ring, "n": args.n, "homology": entries, "complex": complex_json},
        args,
    )
    return 0


def cmd_witt(args) -> int:
    ring = _parse_ring(args.ring)
    w = witt_green(ring, args.n)
    verdict = compare_with_classical(w, ring, args.n)
    trunc = TruncationSet.of(args.n)
    top = w.top()
    payload = {
        "kind": "witt",
        "description": f"W_C_{args.n}({args.ring})",
        "ring": args.ring,
        "n": args.n,
        "green_side": {
            "mackey": w.green.to_json(),
            "top": top.to_json(),
        },
        "classical_side": {
            "truncation": list(trunc.sorted()),
            "group": top.to_json(),
            "generator_components": [
                list(g.component_tuple()) for g in w.norm.witt_levels[args.n].gens
            ],
        },
        "verdict": "isomorphic" if verdict.isomorphic else "NOT isomorphic",
        "verdict_detail": repr(verdict),
    }
    _emit(payload, args)
    return 0 if verdict.isomorphic else _violation(f"classical comparison of {payload['description']}: NOT isomorphic")


def cmd_tr(args) -> int:
    if args.p > ENUMERATION_BUDGET:
        raise EnumerationBudgetError(
            f"--p {args.p} exceeds the enumeration budget of {ENUMERATION_BUDGET}"
        )
    if not is_prime(args.p):
        raise ValidationError(f"tr requires a prime p, got {args.p}")
    ring = BaseRing.integers_mod(args.p) if args.ring is None else _parse_ring(args.ring)
    tower = tr_tower(ring, args.p, args.stages, args.degree)
    _emit({"kind": "tr", "p": args.p, "degree": args.degree, "tower": tower.to_json()}, args)
    return 0


def cmd_check(args) -> int:
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    for name in names:
        if name not in SUITES:
            raise ValidationError(f"unknown suite {name!r}; have {sorted(SUITES)} or 'all'")
    results = run_suites(names, args.seed)
    payload = {
        "kind": "check",
        "seed": args.seed,
        "suites": [
            {"name": r.name, "cases": r.cases, "failures": list(r.failures)} for r in results
        ],
        "total_cases": sum(r.cases for r in results),
        "total_failures": sum(len(r.failures) for r in results),
    }
    _emit(payload, args)
    failed = [r.name for r in results if not r.passed]
    return _violation(f"suites failed: {', '.join(failed)}") if failed else 0


def _constant_green(ring: BaseRing, n: int):
    group = FgAbGroup(1, () if ring.is_torsion_free else ((ring.modulus,),))
    return fixed_point_mackey(
        GroupContext(n), group, ((1,),), RingData(mult=(((1,),),), unit=(1,))
    )


def cmd_monoid(args) -> int:
    from .cycmonoid import PointedGMonoid, algebra_level_sizes, monoid_algebra, splitting_check

    try:
        with open(args.file) as fh:
            data = json.load(fh)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, RecursionError) as exc:
        raise ValidationError(f"cannot read monoid file: {exc}") from exc
    ctx = GroupContext(args.n)
    try:
        m = PointedGMonoid.from_json(ctx, data)
    except (KeyError, ValueError) as exc:
        raise ValidationError(f"invalid monoid: {exc}") from exc
    ring = _parse_ring(args.ring)
    r = _constant_green(ring, args.n)
    if args.max_degree is not None:  # the splitting's nerve, refused before A̅[M] is built
        require_nerve_budget(algebra_level_sizes(r, m), args.max_degree + 1)
    pres = monoid_algebra(r, m)
    payload = {
        "kind": "monoid",
        "ring": args.ring,
        "n": args.n,
        "monoid_algebra": {"mackey": pres.mackey.to_json()},
    }
    if args.max_degree is not None:
        rep = splitting_check(pres, m, args.max_degree)
        payload["splitting"] = {
            "passed": rep.passed,
            "checks": [{"ok": ok, "message": msg} for ok, msg in rep.checks],
        }
    _emit(payload, args)
    if "splitting" in payload and not rep.passed:
        return _violation(f"splitting check failed: {rep.failures[0]}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """A bad flag is one stderr line and exit 2, without the usage block."""
        self.exit(2, f"error: {self.prog}: {_one_line(message)}\n")

    def parse_known_args(self, args=None, namespace=None):
        """Refuse ``--flag=--``: before Python 3.13, argparse strips the ``--``
        and hands the command the value [] instead of a string or an int."""
        ns, rest = super().parse_known_args(args, namespace)
        for action in self._actions:
            if action.option_strings and isinstance(getattr(ns, action.dest, None), list):
                self.error(f"argument {'/'.join(action.option_strings)}: expected one argument")
        return ns, rest


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per interpreter; ``main`` calls ``cmd_<command>``."""
    parser = _Parser(
        prog="mackeywitt",
        description="Exact twisted Hochschild homology for Green functors over cyclic groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument("--table", dest="json", action="store_false", help="human-readable table (default)")
        p.set_defaults(json=False)

    p = sub.add_parser("norm", help="norm of a trivial-action base ring")
    p.add_argument("--ring", required=True, help="Z, Z/m, or F_p")
    p.add_argument("--n", type=int, required=True, help="order of the cyclic group")
    add_output_flags(p)

    p = sub.add_parser("hh", help="twisted Hochschild homology of a base ring")
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=2)
    add_output_flags(p)

    p = sub.add_parser("witt", help="Green Witt vectors and the classical comparison")
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    add_output_flags(p)

    p = sub.add_parser("tr", help="algebraic TR tower")
    p.add_argument("--p", type=int, required=True, help="prime")
    p.add_argument("--ring", default=None, help="base ring (default F_p)")
    p.add_argument("--stages", type=int, default=3)
    p.add_argument("--degree", type=int, default=0)
    add_output_flags(p)

    p = sub.add_parser("check", help="run the property suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--seed", type=int, default=0)
    add_output_flags(p)

    p = sub.add_parser("monoid", help="pointed-monoid algebra and splitting check")
    p.add_argument("--file", required=True, help="monoid JSON file")
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None, help="run the splitting check up to this degree")
    add_output_flags(p)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        n = getattr(args, "n", None)
        if n is not None and n < 1:
            raise ValidationError("n must be a positive integer")
        if n is not None and n > ENUMERATION_BUDGET:
            raise EnumerationBudgetError(f"--n {n} exceeds the enumeration budget of {ENUMERATION_BUDGET}")
        for attr in ("max_degree", "degree"):
            v = getattr(args, attr, None)
            if v is not None and v < 0:
                raise ValidationError(f"{attr.replace('_', '-')} must be nonnegative")
        if getattr(args, "stages", 1) < 1:
            raise ValidationError("stages must be at least 1")
        code = globals()[f"cmd_{args.command}"](args)  # read at call time, so a patched command runs
        sys.stdout.flush()  # a closed stdout surfaces here, not in the exit flush
        return code
    except BrokenPipeError:
        # the reader left: send what is still buffered to devnull and exit
        # as a process killed by SIGPIPE would (128 + 13)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValidationError, EnumerationBudgetError) as exc:
        print(f"error: {_one_line(exc)}", file=sys.stderr)
        return 2
    except (
        AssertionError,
        ArithmeticError,
        NotWellDefinedError,
        CompositeNotZeroError,
        NotInSubgroupError,
    ) as exc:
        print(f"internal invariant violation: {_one_line(exc)}", file=sys.stderr)
        return 1


def _one_line(exc: Exception) -> str:
    return " ".join(str(exc).split())


if __name__ == "__main__":
    sys.exit(main())
