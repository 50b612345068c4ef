import json
import os
import subprocess
import sys
import time
from enum import IntEnum
from itertools import product
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from test_golden import DUAL_NUMBERS, GOLDEN

from mackeywitt import cli, cycmonoid, fgab, geomfix, mackey, norm, wittcore
from mackeywitt.cli import main
from mackeywitt.fgab import AbHom, CompositeNotZeroError, NotInSubgroupError, NotWellDefinedError, free_group
from mackeywitt.hochschild import hh0_oracle
from mackeywitt.wittgreen import ComparisonVerdict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_norm_json_f2_n8(capsys):
    code, out, err = run_cli(capsys, "norm", "--ring", "F_2", "--n", "8", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "mackey-witt/1"
    levels = data["mackey"]["levels"]
    assert [levels[str(d)]["invariant_factors"] for d in (1, 2, 4, 8)] == [[2], [4], [8], [16]]


def test_norm_table_mode(capsys):
    code, out, err = run_cli(capsys, "norm", "--ring", "F_3", "--n", "3")
    assert code == 0
    assert "level 3 (C_3/C_3): Z/9" in out
    assert "level 1 (C_3/C_1): Z/3" in out


def test_hh_f3_n3(capsys):
    code, out, err = run_cli(capsys, "hh", "--ring", "F_3", "--n", "3", "--max-degree", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert len(data["homology"]) == 4
    h0 = data["homology"][0]["mackey"]["levels"]
    assert h0["3"]["invariant_factors"] == [9]
    assert h0["1"]["invariant_factors"] == [3]
    for entry in data["homology"][1:]:
        for level in entry["mackey"]["levels"].values():
            assert level == {"invariant_factors": [], "rank": 0}


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_hh_over_Z_is_the_norm_in_degree_0_and_vanishes_above(capsys, n):
    code, out, err = run_cli(capsys, "hh", "--ring", "Z", "--n", str(n), "--max-degree", "2", "--json")
    assert (code, err) == (0, "")
    homology = json.loads(out)["homology"]
    oracle = hh0_oracle(norm.norm_trivial_ring(wittcore.BaseRing.integers(), n))
    for d in oracle.ctx.divisors:
        inv, rank = oracle.level[d].canonical_form
        assert homology[0]["mackey"]["levels"][str(d)] == {"invariant_factors": list(inv), "rank": rank}
    assert [entry["degree"] for entry in homology] == [0, 1, 2]
    for entry in homology[1:]:
        for level in entry["mackey"]["levels"].values():
            assert level == {"invariant_factors": [], "rank": 0}


@pytest.mark.parametrize("ring", ["Z", "Z/4", "F_2", "F_3", "Z/6"])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_hh_degree_2_exits_0_for_every_ring(capsys, ring, n):
    code, out, err = run_cli(capsys, "hh", "--ring", ring, "--n", str(n), "--max-degree", "2", "--json")
    assert (code, err) == (0, "")
    assert "Traceback" not in out
    assert len(json.loads(out)["homology"]) == 3


def test_witt_z_n6(capsys):
    code, out, err = run_cli(capsys, "witt", "--ring", "Z", "--n", "6", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["verdict"] == "isomorphic"
    assert data["green_side"]["top"] == {"invariant_factors": [], "rank": 4}


def test_tr_json(capsys):
    code, out, err = run_cli(capsys, "tr", "--p", "3", "--stages", "2", "--degree", "0", "--json")
    assert code == 0
    data = json.loads(out)
    stages = data["tower"]["stages"]
    assert [s["group"]["invariant_factors"] for s in stages] == [[3], [9]]
    assert data["tower"]["limit"]["description"].startswith("Z_p")


def test_check_single_suite(capsys):
    code, out, err = run_cli(capsys, "check", "--suite", "snf", "--seed", "3", "--json")
    assert code == 0
    data = json.loads(out)
    assert data["total_failures"] == 0
    assert data["total_cases"] >= 50


def test_determinism(capsys):
    code1, out1, _ = run_cli(capsys, "norm", "--ring", "Z/4", "--n", "4", "--json")
    code2, out2, _ = run_cli(capsys, "norm", "--ring", "Z/4", "--n", "4", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_monoid_command(tmp_path, capsys):
    mfile = tmp_path / "dual.json"
    mfile.write_text(json.dumps(DUAL_NUMBERS))
    code, out, err = run_cli(
        capsys, "monoid", "--file", str(mfile), "--ring", "Z", "--n", "2",
        "--max-degree", "0", "--json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["splitting"]["passed"] is True


def test_validation_errors(capsys, tmp_path):
    code, out, err = run_cli(capsys, "tr", "--p", "6")
    assert code == 2
    assert "prime" in err
    code, out, err = run_cli(capsys, "norm", "--ring", "Q", "--n", "2")
    assert code == 2
    assert err.strip().count("\n") == 0  # one-line reason
    code, out, err = run_cli(capsys, "norm", "--ring", "F_2", "--n", "0")
    assert code == 2
    code, out, err = run_cli(capsys, "check", "--suite", "nope")
    assert code == 2
    code, out, err = run_cli(capsys, "monoid", "--file", str(tmp_path / "missing.json"),
                             "--ring", "Z", "--n", "1")
    assert code == 2


@pytest.mark.parametrize("stages", ["0", "-1", "-1000000000000"])
def test_tr_stages_below_1_is_one_line_exit_2(capsys, stages):
    code, out, err = run_cli(capsys, "tr", "--p", "2", "--stages", stages)
    assert (code, out, err) == (2, "", "error: stages must be at least 1\n")


@pytest.mark.parametrize("content", [
    [],
    {"elements": ["0", "1", "x"], "zero": "0", "one": "1", "table": 5, "action": ["0", "1", "x"]},
    {"elements": [["0"], ["1"]], "zero": ["0"], "one": ["1"],
     "table": [[["0"], ["0"]], [["0"], ["1"]]], "action": [["0"], ["1"]]},
    {"elements": ["0", "1", "1"], "zero": "0", "one": "1",
     "table": [["0", "0", "0"], ["0", "1", "1"], ["0", "1", "1"]], "action": ["0", "1", "1"]},
    {"elements": ["0"], "zero": "0", "one": "0", "table": [["0"]], "action": ["0"]},
    {"zero": "0"},
])
def test_malformed_monoid_file_is_one_line_exit_2(capsys, tmp_path, content):
    mfile = tmp_path / "bad.json"
    mfile.write_text(json.dumps(content))
    code, out, err = run_cli(capsys, "monoid", "--file", str(mfile), "--ring", "Z", "--n", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: invalid monoid: ") and err.count("\n") == 1
    if content == {"zero": "0"}:
        assert err == "error: invalid monoid: missing key 'elements'\n"


@pytest.mark.parametrize("ring", ["F_4", "F6", "F_x", "Z/abc", "Z/-3"])
def test_unsupported_ring_is_one_line_exit_2(capsys, ring):
    code, out, err = run_cli(capsys, "norm", "--ring", ring, "--n", "2")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("error", [NotWellDefinedError, CompositeNotZeroError, NotInSubgroupError])
def test_internal_certificate_failure_is_one_line_exit_1(capsys, monkeypatch, error):
    def broken(args):
        raise error("map not well defined:\nrelation (1, 2) maps to (3,)")

    monkeypatch.setattr(cli, "cmd_norm", broken)
    code, out, err = run_cli(capsys, "norm", "--ring", "F_2", "--n", "2")
    assert code == 1
    assert out == ""
    assert err.startswith("internal invariant violation: ") and err.count("\n") == 1
    assert "Traceback" not in err


def _failing_report(name):
    rep = mackey.Report(name)
    rep.note(True, "holds")
    rep.note(False, "the forged check")
    return rep


def _forge_witt(monkeypatch):
    monkeypatch.setattr(cli, "compare_with_classical", lambda w, ring, n: ComparisonVerdict(False, "forged"))


def _forge_check(monkeypatch):
    monkeypatch.setattr(cli, "run_suites", lambda names, seed: [_failing_report(names[0])])


def _forge_splitting(monkeypatch):
    def splitting_check(pres, m, max_k):
        rep = _failing_report("splitting")
        return cycmonoid.SplittingReport(rep.name, rep.checks)

    monkeypatch.setattr(cycmonoid, "splitting_check", splitting_check)


# A certificate that fails after the answer is written: the answer on stdout as
# always, then exit 1 and one stderr line naming the failed certificate.
@pytest.mark.parametrize("forge,argv,named,stdout_says", [
    (_forge_witt, ("witt", "--ring", "Z", "--n", "2", "--json"),
     "classical comparison of W_C_2(Z): NOT isomorphic", '"verdict": "NOT isomorphic"'),
    (_forge_check, ("check", "--suite", "mackey", "--json"),
     "suites failed: mackey", '"total_failures": 1'),
    (_forge_splitting, ("monoid", "--file", "DUAL", "--ring", "Z", "--n", "2", "--max-degree", "0", "--json"),
     "splitting check failed: the forged check", '"passed": false'),
], ids=["witt", "check", "monoid"])
def test_a_failed_certificate_is_one_line_exit_1(capsys, monkeypatch, tmp_path, forge, argv, named, stdout_says):
    mfile = tmp_path / "dual.json"
    mfile.write_text(json.dumps(DUAL_NUMBERS))
    forge(monkeypatch)
    code, out, err = run_cli(capsys, *(str(mfile) if a == "DUAL" else a for a in argv))
    assert code == 1
    assert stdout_says in out and json.loads(out)
    assert err == f"internal invariant violation: {named}\n"


# (argv, what runs before the refusal): a huge modulus is refused before
# its primality is tested, a huge truncation before any norm level is built
@pytest.mark.parametrize("argv,allowed", [
    (("norm", "--ring", "F_1000000000000000003", "--n", "1"), []),
    (("norm", "--ring", "Z/1000000000000000003", "--n", "1"), []),
    (("norm", "--ring", "F_2", "--n", "360"), ["is_prime"]),
    (("witt", "--ring", "F_2", "--n", "360"), ["is_prime"]),
])
def test_enumeration_over_budget_is_refused_up_front(capsys, monkeypatch, argv, allowed):
    started = []

    def record(name, real):
        def wrapper(*a, **k):
            started.append(name)
            return real(*a, **k)
        return wrapper

    monkeypatch.setattr(wittcore, "is_prime", record("is_prime", wittcore.is_prime))
    monkeypatch.setattr(norm, "WittLevel", record("WittLevel", norm.WittLevel))
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "enumeration budget" in err
    assert started == allowed


@pytest.mark.parametrize("command,ring", [("norm", "Z"), ("hh", "F_2"), ("witt", "Z")])
def test_group_order_over_budget_is_refused_before_any_group(capsys, monkeypatch, command, ring):
    def never(*a, **k):
        raise AssertionError("a group context was built")

    monkeypatch.setattr(mackey.GroupContext, "__init__", never)
    code, out, err = run_cli(capsys, command, "--ring", ring, "--n", "1000000000000")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "enumeration budget" in err


def test_tr_prime_over_budget_is_refused_before_primality(capsys, monkeypatch):
    def never(p):
        raise AssertionError("primality tested")

    monkeypatch.setattr(cli, "is_prime", never)
    monkeypatch.setattr(wittcore, "is_prime", never)
    code, out, err = run_cli(capsys, "tr", "--p", "1000000000000000003", "--stages", "1")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "enumeration budget" in err


@pytest.mark.parametrize(
    "extra",
    [("--stages", "100"), ("--stages", "1000000000000"), ("--stages", "17"), ("--stages", "18", "--ring", "Z")],
)
def test_tr_over_budget_top_stage_is_refused_before_any_stage(capsys, monkeypatch, extra):
    def never(*a, **k):
        raise AssertionError("a tower stage was built")

    monkeypatch.setattr(geomfix, "norm_trivial_ring", never)
    code, out, err = run_cli(capsys, "tr", "--p", "2", *extra)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "enumeration budget" in err


def test_mod_m_witt_arithmetic_builds_no_universal_polynomial(capsys):
    wittcore._universal_poly.cache_clear()
    assert run_cli(capsys, "norm", "--ring", "F_2", "--n", "16")[0] == 0
    assert run_cli(capsys, "witt", "--ring", "Z/4", "--n", "6")[0] == 0
    assert wittcore._universal_poly.cache_info().misses == 0


def test_witt_f2_n30_is_isomorphic(capsys):
    code, out, err = run_cli(capsys, "witt", "--ring", "F_2", "--n", "30", "--json")
    assert code == 0
    assert json.loads(out)["verdict"] == "isomorphic"


def _sweep_cases():
    for ring in ("Z", "Z/4", "F_2", "F_3", "Z/6"):
        for n in range(1, 7):
            common = ["--ring", ring, "--n", str(n)]
            yield ["norm", *common]
            yield ["witt", *common]
            yield ["hh", *common, "--max-degree", "2"]
            yield ["monoid", *common]
            if n <= 2:  # the splitting check at larger n is a perf frontier
                yield ["monoid", *common, "--max-degree", "1"]
        for p, stages, degree in product("23", "123", "012"):
            yield ["tr", "--ring", ring, "--p", p, "--stages", stages, "--degree", degree]


@pytest.mark.parametrize(
    "argv", list(_sweep_cases()), ids=lambda argv: "_".join(a.lstrip("-") for a in argv).replace("/", "mod")
)
def test_cli_sweep_exits_cleanly(capsys, tmp_path, argv):
    if argv[0] == "monoid":
        mfile = tmp_path / "dual.json"
        mfile.write_text(json.dumps(DUAL_NUMBERS))
        argv = [*argv, "--file", str(mfile)]
    t0 = time.perf_counter()
    code, out, err = run_cli(capsys, *argv)
    elapsed = time.perf_counter() - t0
    assert code in (0, 2), err
    assert len(err.splitlines()) <= 1
    assert "Traceback" not in out + err
    assert elapsed < 30  # a hang guard, far above the slowest case


# ---------------------------------------------------------------------------
# the --json writer

JSON_TEXT = st.text(st.one_of(st.sampled_from('"\\/\n\r\t\b\f\x00\x1f\x7fé€ 😀'), st.characters()), max_size=8)
JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=2**64, max_value=2**200).flatmap(lambda x: st.sampled_from([x, -x])),
    st.floats(),
    JSON_TEXT,
)
JSON_PAYLOADS = st.recursive(
    JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(st.integers(-(2**70), 2**70)),
        st.lists(st.one_of(st.integers(), st.booleans())),
        st.lists(inner),
        st.lists(inner).map(tuple),
        st.dictionaries(JSON_TEXT, inner),
        st.dictionaries(st.one_of(st.integers(), st.booleans(), st.none()), inner),
    ),
    max_leaves=20,
)


class _Cell(IntEnum):
    ONE = 1


# int lists, and falsy entries that are not plain ints, which must not be written "0"
@settings(deadline=None, max_examples=150)
@given(JSON_PAYLOADS)
@example([0, False])
@example([False, 0])
@example([0, 0.0])
@example([0, -0.0])
@example([0, None])
@example([0, ""])
@example((0, 0, 0))
@example([[0, 0, 5], [0, 0, 0], []])
@example([0, 2**70, 0, -(2**70)])
@example([0, _Cell.ONE])
def test_json_writer_is_json_dumps_with_indent_2(payload):
    assert cli._dumps(payload) == json.dumps(payload, indent=2)


def dense(h: AbHom) -> list:
    """The JSON value the writer prints for a hom: its dense matrix."""
    return [list(r) for r in h.matrix]


# mostly zeros, as in the package's matrices, and cells past 64 bits
CELLS = st.one_of(
    st.just(0),
    st.just(0),
    st.integers(-3, 3),
    st.integers(2**63, 2**80).flatmap(lambda x: st.sampled_from([x, -x])),
)


@st.composite
def homs(draw):
    """An uncertified hom between free groups with 0 to 4 generators in and 0 to 5 out."""
    k, w = draw(st.integers(0, 4)), draw(st.integers(0, 5))
    rows = draw(st.lists(st.lists(CELLS, min_size=w, max_size=w), min_size=k, max_size=k))
    return AbHom(free_group(k), free_group(w), rows, check=False)


HOM_PAYLOADS = st.recursive(
    st.one_of(homs(), st.integers(), JSON_TEXT),
    lambda inner: st.one_of(st.lists(inner), st.dictionaries(JSON_TEXT, inner)),
    max_leaves=8,
)


@settings(deadline=None, max_examples=150)
@given(HOM_PAYLOADS)
@example(AbHom(free_group(0), free_group(3), (), check=False))
@example([AbHom(free_group(2), free_group(0), ((), ()), check=False)])
@example({"m": AbHom(free_group(3), free_group(2), ((0, 0), (0, -5), (0, 0)), check=False)})
@example({"a": [AbHom(free_group(1), free_group(3), ((2**64, 0, -(2**70)),), check=False), 0]})
def test_json_writer_writes_homs_as_their_dense_matrices(payload):
    assert cli._dumps(payload) == json.dumps(payload, indent=2, default=dense)


class Writes(list):
    """A text file that keeps each write."""

    def write(self, text):
        self.append(text)


@pytest.mark.parametrize("rows,width", [(300, 400), (5, 20000)], ids=["many-rows", "wide-rows"])
def test_json_is_written_a_few_mb_at_a_time(monkeypatch, rows, width):
    """``_dump`` writes ``_dumps``'s text and a newline, and never holds much more
    than SPILL_BYTES of it: a 64 KB threshold splits a 1.2 MB matrix into runs of
    rows, and a matrix whose zero row alone is 200 KB into single rows."""
    limit = 1 << 16
    monkeypatch.setattr(cli, "SPILL_BYTES", limit)
    cells = [tuple((i * j) % 7 - 3 if (i + j) % 50 == 0 else 0 for j in range(width)) for i in range(rows)]
    payload = {"kind": "test", "m": AbHom(free_group(rows), free_group(width), cells, check=False), "n": [1, {"a": 2}]}
    out = Writes()
    cli._dump(payload, out)
    assert "".join(out) == cli._dumps(payload) + "\n" == json.dumps(payload, indent=2, default=dense) + "\n"
    row = len("".join(out)) // rows  # about the text of one row
    assert len(out) > 4
    assert max(map(len, out)) < 2 * limit + 2 * row


def test_json_writer_never_builds_a_dense_matrix(capsys, monkeypatch):
    def refuse(*args):
        raise AssertionError("dense matrix built")

    monkeypatch.setattr(AbHom, "matrix", property(refuse))
    monkeypatch.setattr(fgab, "mat", refuse)
    code, out, err = run_cli(capsys, "hh", "--ring", "F_2", "--n", "4", "--max-degree", "3", "--json")
    assert (code, err) == (0, "")
    assert json.loads(out)["kind"] == "hh"


def json_cases() -> list:
    """Each pinned command once, to run with --json: a table digest whose --json twin is pinned adds no case."""
    cases: dict = {}
    for argv, _ in GOLDEN:
        cases.setdefault(tuple(x for x in argv if x != "--json"), argv)
    return list(cases.values())


# On a mismatch in a large case (hh F_2 n=4 deg 3 prints 2.7 MB), pytest spends
# minutes diffing the two strings before it reports; that is not a hang.
@pytest.mark.parametrize("argv", json_cases(), ids=[" ".join(a) for a in json_cases()])
def test_json_stdout_is_json_dumps_of_the_payload(capsys, monkeypatch, tmp_path, argv):
    if argv[0] == "monoid":
        path = tmp_path / "dual-numbers.json"
        path.write_text(json.dumps(DUAL_NUMBERS))
        argv = ("monoid", "--file", str(path)) + argv[2:]
    payloads = []
    write = cli._dump

    def spy(obj, file):  # the whole payload, written to stdout
        payloads.append(obj)
        return write(obj, file)

    monkeypatch.setattr(cli, "_dump", spy)
    code, out, err = run_cli(capsys, *argv, "--json")
    assert (code, err, len(payloads)) == (0, "", 1)
    assert out == json.dumps(payloads[0], indent=2, default=dense) + "\n"


SRC = str(Path(__file__).resolve().parent.parent / "src")


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("argv", [
    ("monoid", "--file", "DUAL_NUMBERS", "--ring", "Z", "--n", "2", "--max-degree", "1", "--json"),
    ("hh", "--ring", "F_2", "--n", "2", "--max-degree", "2", "--json"),
], ids=["monoid", "hh"])
def test_closed_stdout_exits_141_without_stderr(tmp_path, argv, unbuffered):
    # the reader of stdout is gone before anything is written, as in `| head -c 100`
    mfile = tmp_path / "dual.json"
    mfile.write_text(json.dumps(DUAL_NUMBERS))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    argv = [str(mfile) if a == "DUAL_NUMBERS" else a for a in argv]
    proc = subprocess.Popen(
        [sys.executable, "-m", "mackeywitt.cli", *argv],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_a_reader_that_leaves_after_100_bytes_gets_exit_141(unbuffered):
    # as in `| head -c 100`: the 2.7 MB text is cut short by the reader, and that is
    # exit 141 even when an unbuffered stdout drops the rest of a write without an error
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "mackeywitt.cli", "hh", "--ring", "F_2", "--n", "4", "--max-degree", "3", "--json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env,
    )
    assert len(proc.stdout.read(100)) == 100
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 141
    assert err == b""


# x·x = y, y·y = x and x·y = y·x = 0: associativity fails at (x,x,y) and at (y,y,x)
NON_ASSOCIATIVE = {
    "elements": ["0", "1", "x", "y"], "zero": "0", "one": "1",
    "table": [["0", "0", "0", "0"], ["0", "1", "x", "y"], ["0", "x", "y", "0"], ["0", "y", "0", "x"]],
    "action": ["0", "1", "x", "y"],
}


def test_monoid_refusal_names_the_same_triple_under_every_hash_seed(tmp_path):
    # string hashes differ between the two seeds, so a loop over a set would
    # meet a different failing triple first (under seed 1 or 2, one each)
    mfile = tmp_path / "nonassoc.json"
    mfile.write_text(json.dumps(NON_ASSOCIATIVE))
    results = []
    for seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
        proc = subprocess.run(
            [sys.executable, "-m", "mackeywitt.cli", "monoid", "--file", str(mfile), "--ring", "Z", "--n", "2"],
            capture_output=True, text=True, env=env, timeout=120,
        )
        results.append((proc.returncode, proc.stdout, proc.stderr))
    assert results[0] == results[1] == (2, "", "error: invalid monoid: associativity fails at (x,x,y)\n")
