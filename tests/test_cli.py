import json

import pytest

from mackeywitt import cli, norm, wittcore
from mackeywitt.cli import main
from mackeywitt.fgab import CompositeNotZeroError, NotInSubgroupError, NotWellDefinedError


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
    mfile.write_text(json.dumps({
        "elements": ["0", "1", "x"],
        "zero": "0",
        "one": "1",
        "table": [["0", "0", "0"], ["0", "1", "x"], ["0", "x", "0"]],
        "action": ["0", "1", "x"],
    }))
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
