"""The CLI contract under generated input.

Every input exits 0 or 2, writes at most one line to stderr and never a
traceback: malformed monoid files (bad shapes, bytes that are not JSON,
tables that are not associative or have no unit, actions that are not
monoid maps, 0 = 1), ring names for ``BaseRing.parse`` and the integer
flags, small, negative and far over every budget.  Flag values are drawn
so that every accepted run stays small.  Each refusal of a monoid table or
action is also reached by one fixed file.
"""

import argparse
import contextlib
import io
import json

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from test_golden import DUAL_NUMBERS

from mackeywitt.cli import build_parser, main
from mackeywitt.wittcore import BaseRing, is_prime


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv):
    code, out, err = run(argv)
    assert code in (0, 2), (argv, err)
    assert len(err.splitlines()) <= 1 and "Traceback" not in out + err
    assert (code == 0) is (err == ""), (argv, err)
    return code


# ---------------------------------------------------------------------------
# monoid files

NAMES = st.sampled_from(["0", "1", "x", "y", 0, 1, 2])
# tables of monoids with 0 and 1, so that actions get tested on valid tables
MONOIDS = [
    DUAL_NUMBERS,
    {"elements": ["0", "1"], "zero": "0", "one": "1", "table": [["0", "0"], ["0", "1"]], "action": ["0", "1"]},
    {"elements": ["0", "1", "x"], "zero": "0", "one": "1",
     "table": [["0", "0", "0"], ["0", "1", "x"], ["0", "x", "x"]], "action": ["0", "1", "x"]},
    {"elements": ["0", "1", "x", "y"], "zero": "0", "one": "1",
     "table": [["0", "0", "0", "0"], ["0", "1", "x", "y"], ["0", "x", "x", "0"], ["0", "y", "0", "y"]],
     "action": ["0", "1", "y", "x"]},
    {"elements": ["0", "1", "x", "y"], "zero": "0", "one": "1",  # x² = x, y² = 0: swapping x, y is no monoid map
     "table": [["0", "0", "0", "0"], ["0", "1", "x", "y"], ["0", "x", "x", "0"], ["0", "y", "0", "0"]],
     "action": ["0", "1", "x", "y"]},
]
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-3, 3), NAMES, st.floats(allow_nan=True)),
    lambda inner: st.one_of(st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=3), inner, max_size=4)),
    max_leaves=12,
)


@st.composite
def monoid_like(draw):
    """Near-monoids: named pieces of the right or wrong shape, or a valid table with any action."""
    if draw(st.booleans()):
        data = dict(draw(st.sampled_from(MONOIDS)))
        els = data["elements"]  # 0 and 1 first
        data["action"] = draw(st.one_of(
            st.permutations(els[2:]).map(lambda p: els[:2] + p),
            st.lists(st.sampled_from(els), min_size=len(els), max_size=len(els)),
        ))
        if len(els) > 2 and draw(st.booleans()):  # a product of x, y changed: associativity may fail
            i, j = draw(st.integers(2, len(els) - 1)), draw(st.integers(2, len(els) - 1))
            data["table"] = [list(r) for r in data["table"]]
            data["table"][i][j] = draw(st.sampled_from(els))
        if draw(st.integers(0, 3)) == 0:
            data["one"] = data["zero"]
        return data
    els = draw(st.lists(NAMES, min_size=1, max_size=4))
    pick = st.sampled_from(els + ["z"]) if draw(st.integers(0, 4)) == 0 else st.sampled_from(els)
    k = len(els) + draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    data = {
        "elements": els,
        "zero": draw(pick),
        "one": draw(pick),
        "table": [[draw(pick) for _ in range(k)] for _ in range(k)],
        "action": [draw(pick) for _ in range(k)],
    }
    for key in draw(st.lists(st.sampled_from(sorted(data)), max_size=1)):
        data[key] = draw(JSON_VALUES)  # a wrong shape, or a missing key
    return data


MONOID_FILES = st.one_of(
    monoid_like().map(lambda d: json.dumps(d).encode()),
    JSON_VALUES.map(lambda d: json.dumps(d).encode()),
    st.binary(max_size=12),
)


@settings(deadline=None, max_examples=150, suppress_health_check=[HealthCheck.too_slow])
@given(MONOID_FILES, st.sampled_from(["1", "2", "4"]), st.sampled_from(["Z", "F_2"]))
def test_monoid_files_keep_the_contract(tmp_path_factory, content, n, ring):
    path = tmp_path_factory.mktemp("monoid") / "m.json"
    path.write_bytes(content)
    assert_contract(["monoid", "--file", str(path), "--ring", ring, "--n", n])


def _monoid(rows, action, n="2"):
    """A monoid file on the elements 0, 1, x, ...: row i of the table and the action as strings."""
    els = list("01xy"[: len(rows)])
    return {"elements": els, "zero": "0", "one": "1", "table": [list(r) for r in rows], "action": list(action)}, n


# Each file passes every check before the one it fails, so the refusal names that check.
@pytest.mark.parametrize("data,n,refusal", [
    (*_monoid(["00x", "01x", "0x0"], "01x"), "0 must be absorbing"),  # 0·x = x
    (*_monoid(["0000", "01xy", "0x0y", "0y00"], "01xy"), "associativity fails at (x,x,y)"),  # (xx)y = 0 ≠ x(xy) = y
    (*_monoid(["0000", "01xy", "0xx0", "0y00"], "01yx"), "action must be by monoid maps"),  # x² = x but y² = 0
    (*_monoid(["0000", "01xy", "0x00", "0y00"], "01yx", n="3"), "action order must divide n"),  # a swap over C_3
], ids=["absorbing", "associativity", "monoid-maps", "action-order"])
def test_each_monoid_refusal_is_one_line_exit_2(tmp_path, data, n, refusal):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(data))
    code, out, err = run(["monoid", "--file", str(path), "--ring", "Z", "--n", n])
    assert (code, out) == (2, "")
    assert err == f"error: invalid monoid: {refusal}\n"


@pytest.mark.parametrize(
    "content", [b"[" * 100000, b"\xff\xfe{}", b"", b"{\"elements\": "], ids=["deep", "not-utf8", "empty", "truncated"]
)
def test_unreadable_monoid_files_are_one_line_exit_2(tmp_path, content):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    code, out, err = run(["monoid", "--file", str(path), "--ring", "Z", "--n", "2"])
    assert (code, out) == (2, "") and err.startswith("error: cannot read monoid file: ") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# ring names

RING_TEXT = st.one_of(
    st.text(st.sampled_from("ZF_/ℤ0123456789-+ .xq٣²\n"), max_size=8),
    st.tuples(st.sampled_from(["Z/", "F_", "F", "Z", "z/", " Z / "]), st.integers(-3, 10**30)).map(
        lambda p: f"{p[0]}{p[1]}"
    ),
)


@settings(deadline=None, max_examples=200)
@given(RING_TEXT)
@example(text="--")  # before Python 3.13 argparse read --ring=-- as the value []
def test_ring_names_parse_or_are_refused_with_one_line(text):
    try:
        ring = BaseRing.parse(text)
    except ValueError:
        ring = None
    else:
        m = ring.modulus
        assert m == 0 or m >= 2
        assert not text.strip().startswith("F") or is_prime(m)
    assume(ring is None or ring.modulus <= 64)  # the norm's cost grows with the modulus
    assert (assert_contract(["norm", f"--ring={text}", "--n", "1"]) == 0) is (ring is not None)


# ---------------------------------------------------------------------------
# integer flags: small values run, negative and huge ones are refused

HUGE = [65537, 10**9, 10**30]
N = st.sampled_from([-1, 0, 1, 2, 3, *HUGE])
DEGREE = st.sampled_from([-1, 0, 1, 2, 13, 16, 17, *HUGE])


@st.composite
def flag_commands(draw):
    cmd = draw(st.sampled_from(["norm", "witt", "hh", "tr", "check", "monoid"]))
    if cmd in ("norm", "witt"):
        return [cmd, "--ring", "F_2", "--n", str(draw(N))]
    if cmd == "hh":
        return [cmd, "--ring", "F_2", "--n", str(draw(N)), "--max-degree", str(draw(DEGREE))]
    if cmd == "tr":
        p = draw(st.sampled_from([-2, 0, 1, 2, 3, 4, *HUGE]))
        stages = draw(st.sampled_from([-1, 0, 1, 2, *HUGE]))
        degree = draw(st.sampled_from([-1, 0, 1, 15, 16, *HUGE]))
        return [cmd, "--p", str(p), "--stages", str(stages), "--degree", str(degree)]
    if cmd == "check":
        return [cmd, "--suite", draw(st.sampled_from(["snf", "ghost"])), "--seed", str(draw(st.sampled_from([-1, 0, *HUGE])))]
    argv = [cmd, "--file", "DUAL", "--ring", "Z", "--n", str(draw(N))]
    degree = draw(st.sampled_from([None, -1, 0, 16, *HUGE]))
    return argv if degree is None else [*argv, "--max-degree", str(degree)]


@settings(deadline=None, max_examples=120)
@given(flag_commands())
@example(argv=["hh", "--ring", "F_2", "--n", "2", "--max-degree=--"])
@example(argv=["tr", "--p=--"])
def test_integer_flags_keep_the_contract(tmp_path_factory, argv):
    if "DUAL" in argv:
        path = tmp_path_factory.mktemp("monoid") / "dual.json"
        path.write_text(json.dumps(DUAL_NUMBERS))
        argv[argv.index("DUAL")] = str(path)
    assert_contract(argv)


@pytest.mark.parametrize("argv", [
    ["hh", "--ring", "F_2", "--n", "x"],
    ["hh", "--n", "2"],
    ["norm", "--ring", "F_2", "--n", "2", "--bogus"],
    ["bogus"],
    [],
], ids=" ".join)
def test_argument_errors_are_one_line_exit_2(argv):
    code, out, err = run(argv)
    assert (code, out) == (2, "") and err.startswith("error: mackeywitt") and err.count("\n") == 1


# ---------------------------------------------------------------------------
# --flag=--: argparse before Python 3.13 hands the command [] for the value

REQUIRED = {
    "norm": ["--ring", "F_2", "--n", "2"],
    "hh": ["--ring", "F_2", "--n", "2"],
    "witt": ["--ring", "F_2", "--n", "2"],
    "tr": ["--p", "2"],
    "check": [],
    "monoid": ["--file", "m.json", "--ring", "Z", "--n", "2"],
}


def value_options():
    """(command, flag) for every option of every subcommand that takes a value."""
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return [
        (cmd, a.option_strings[0])
        for cmd, p in sub.choices.items()
        for a in p._actions
        if a.option_strings and a.nargs is None
    ]


def test_every_subcommand_has_value_options():
    assert {cmd for cmd, _ in value_options()} == set(REQUIRED)


@pytest.mark.parametrize("cmd,flag", value_options())
def test_a_double_dash_value_is_one_line_exit_2(cmd, flag):
    argv = list(REQUIRED[cmd])
    if flag in argv:
        del argv[argv.index(flag):argv.index(flag) + 2]
    code, out, err = run([cmd, *argv, f"{flag}=--"])
    assert (code, out) == (2, "") and err.count("\n") == 1
    assert err.startswith(f"error: mackeywitt {cmd}: argument {flag}: ")


def test_tr_refuses_an_empty_ring_name():
    # an empty name is parsed (and refused), not read as "no --ring" (F_p)
    code, out, err = run(["tr", "--p", "2", "--ring", ""])
    assert (code, out, err) == (2, "", "error: cannot parse ring ''\n")
