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
import json
import os
import sys
from itertools import compress
from json.encoder import encode_basestring_ascii as _jstr

from .fgab import CompositeNotZeroError, NotInSubgroupError, NotWellDefinedError
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


def _dumps(obj, nl: str = "\n") -> str:
    """``json.dumps(obj, indent=2)``, byte for byte, for obj on a line that
    starts with ``nl``.  The indenting encoder of ``json`` is pure Python;
    this one joins strings.  A list of plain ints is written from its
    nonzeros over one shared ``"0"``, and each container's text is built
    in one copy."""
    if isinstance(obj, str):
        return _jstr(obj)
    if isinstance(obj, int) and not isinstance(obj, bool):
        return int.__repr__(obj)
    inner = nl + "  "
    if isinstance(obj, (list, tuple)) and obj:
        if set(map(type, obj)) == {int}:
            items = ["0"] * len(obj)
            for i in compress(range(len(obj)), obj):
                items[i] = int.__repr__(obj[i])
        else:
            items = (_dumps(x, inner) for x in obj)
    elif isinstance(obj, dict) and obj and all(isinstance(k, str) for k in obj):
        items = (f"{_jstr(k)}: {_dumps(v, inner)}" for k, v in obj.items())
    else:  # empty containers, non-str keys and other leaves
        return json.dumps(obj, indent=2).replace("\n", nl)
    brackets = "{}" if isinstance(obj, dict) else "[]"
    return f"{brackets[0]}{inner}{(',' + inner).join(items)}{nl}{brackets[1]}"


def _group_str(desc: dict) -> str:
    parts = [f"Z/{d}" for d in desc["invariant_factors"]] + ["Z"] * desc["rank"]
    return " + ".join(parts) if parts else "0"


def _render_mackey(name: str, mj: dict, indent: str = "  ") -> list[str]:
    lines = [f"{name} (C_{mj['n']}-Mackey functor)"]
    for d in sorted(mj["levels"], key=int, reverse=True):
        lines.append(f"{indent}level {d} (C_{mj['n']}/C_{d}): {_group_str(mj['levels'][d])}")
    for key, matrix in mj.get("res", {}).items():
        lines.append(f"{indent}res {key}: {matrix}")
    for key, matrix in mj.get("tr", {}).items():
        lines.append(f"{indent}tr  {key}: {matrix}")
    for d, matrix in mj.get("weyl", {}).items():
        lines.append(f"{indent}weyl {d}: {matrix}")
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
        lines.append("  additive group: " + _group_str(payload["classical_side"]["group"]))
        lines.append("comparison verdict: " + payload["verdict"])
    elif kind == "tr":
        for stage in payload["tower"]["stages"]:
            lines.append(f"stage n={stage['n']} (C_{payload['p']}^{stage['n']}): {_group_str(stage['group'])}")
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
        "boundaries": [
            {str(d): [list(r) for r in b.maps[d].matrix] for d in nerve.ctx.divisors}
            for b in cx.boundaries[1:]
        ],
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
    inv, rank = top.canonical_form
    payload = {
        "kind": "witt",
        "description": f"W_C_{args.n}({args.ring})",
        "ring": args.ring,
        "n": args.n,
        "green_side": {
            "mackey": w.green.to_json(),
            "top": {"invariant_factors": list(inv), "rank": rank},
        },
        "classical_side": {
            "truncation": list(trunc.sorted()),
            "group": {"invariant_factors": list(inv), "rank": rank},
            "generator_components": [
                list(g.component_tuple()) for g in w.norm.witt_levels[args.n].gens
            ],
        },
        "verdict": "isomorphic" if verdict.isomorphic else "NOT isomorphic",
        "verdict_detail": repr(verdict),
    }
    _emit(payload, args)
    return 0 if verdict.isomorphic else 1


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
    return 0 if payload["total_failures"] == 0 else 1


def _constant_green(ring: BaseRing, n: int):
    from .fgab import FgAbGroup

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
    if "splitting" in payload and not payload["splitting"]["passed"]:
        return 1
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


def build_parser() -> argparse.ArgumentParser:
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
    p.set_defaults(func=cmd_norm)

    p = sub.add_parser("hh", help="twisted Hochschild homology of a base ring")
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=2)
    add_output_flags(p)
    p.set_defaults(func=cmd_hh)

    p = sub.add_parser("witt", help="Green Witt vectors and the classical comparison")
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    add_output_flags(p)
    p.set_defaults(func=cmd_witt)

    p = sub.add_parser("tr", help="algebraic TR tower")
    p.add_argument("--p", type=int, required=True, help="prime")
    p.add_argument("--ring", default=None, help="base ring (default F_p)")
    p.add_argument("--stages", type=int, default=3)
    p.add_argument("--degree", type=int, default=0)
    add_output_flags(p)
    p.set_defaults(func=cmd_tr)

    p = sub.add_parser("check", help="run the property suites")
    p.add_argument("--suite", default="all")
    p.add_argument("--seed", type=int, default=0)
    add_output_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("monoid", help="pointed-monoid algebra and splitting check")
    p.add_argument("--file", required=True, help="monoid JSON file")
    p.add_argument("--ring", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-degree", type=int, default=None, help="run the splitting check up to this degree")
    add_output_flags(p)
    p.set_defaults(func=cmd_monoid)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    n = getattr(args, "n", None)
    if n is not None and n < 1:
        print("error: n must be a positive integer", file=sys.stderr)
        return 2
    if n is not None and n > ENUMERATION_BUDGET:
        print(f"error: --n {n} exceeds the enumeration budget of {ENUMERATION_BUDGET}", file=sys.stderr)
        return 2
    for attr in ("max_degree", "degree"):
        v = getattr(args, attr, None)
        if v is not None and v < 0:
            print(f"error: {attr.replace('_', '-')} must be nonnegative", file=sys.stderr)
            return 2
    if getattr(args, "stages", 1) < 1:
        print("error: stages must be at least 1", file=sys.stderr)
        return 2
    try:
        code = args.func(args)
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
