"""Byte-identity guard: the stdout of a set of fast commands is pinned by sha256.

A refactor that keeps results must keep these digests.  A change that is
meant to alter the output of one of these commands updates its digest here
and says why.
"""

import contextlib
import hashlib
import io
import json

import pytest

from mackeywitt.cli import main
from mackeywitt.geomfix import edgewise_comparison_norm
from mackeywitt.wittcore import BaseRing

# The README's dual-numbers monoid {0, 1, x}, x^2 = 0, with trivial action.
DUAL_NUMBERS = {
    "elements": ["0", "1", "x"],
    "zero": "0",
    "one": "1",
    "table": [["0", "0", "0"], ["0", "1", "x"], ["0", "x", "0"]],
    "action": ["0", "1", "x"],
}

# The noncommutative right-zero band {0, 1, a, b}, xy = y on {a, b}, with trivial action.
RIGHT_ZERO_BAND = {
    "elements": ["0", "1", "a", "b"],
    "zero": "0",
    "one": "1",
    "table": [["0", "0", "0", "0"], ["0", "1", "a", "b"], ["0", "a", "a", "b"], ["0", "b", "a", "b"]],
    "action": ["0", "1", "a", "b"],
}

MONOIDS = {"DUAL_NUMBERS": DUAL_NUMBERS, "RIGHT_ZERO_BAND": RIGHT_ZERO_BAND}

GOLDEN = [
    (("norm", "--ring", "F_2", "--n", "8", "--json"),
     "b4975cf48aa762760c5cc4a6a632f1d2adf8284730049a7b2a97841c1320c353"),
    (("norm", "--ring", "Z", "--n", "6"),
     "4413149961e5545221aae44c88757fb3156800a685d9ec6a06cd202e2b59342f"),
    (("hh", "--ring", "Z", "--n", "2", "--max-degree", "2", "--json"),
     "0b0c17ee27d9ec56452fb5799569081cf177b39a5e764cb8aa4eebafd81a09f0"),
    (("hh", "--ring", "F_2", "--n", "2", "--max-degree", "2", "--json"),
     "58ac329942ecdc16cbc7107aaaa2a2a6f71173a79927c7d54a9fafc68efdef8f"),
    (("hh", "--ring", "F_2", "--n", "4", "--max-degree", "2", "--json"),
     "58253aa66aa6f7cdfdc701280ce405b618aebc372feff212576571026f89dbdb"),
    (("witt", "--ring", "Z/4", "--n", "6", "--json"),
     "5d912a00aab06f056948b637ee329ddbe7e6ccc0832fbfd092bb922c4b574347"),
    (("witt", "--ring", "Z", "--n", "6", "--json"),
     "266c4a9aebc37b98c13a554dd5b29f2317942d303363776671006da674177619"),
    (("tr", "--p", "3", "--stages", "2", "--degree", "0", "--json"),
     "4570c1d4f1d88e6d5ddf2fb5788b2ba08872fbeee521d2600256fc923128502b"),
    (("tr", "--p", "2", "--stages", "3", "--degree", "1", "--json"),
     "014132d206b585237f4117f647fbb61e37d66e1255880b51bc3255d95a3c7d2f"),
    # Φ over ℤ: the TR tower's connecting maps through the cyclotomic isomorphism
    (("tr", "--p", "2", "--ring", "Z", "--stages", "4", "--degree", "1", "--json"),
     "ac02006c0e84f7cb0adcd375eb88ae5a6003cb224b9ce66971213467335b6af3"),
    (("tr", "--p", "3", "--ring", "Z", "--stages", "3", "--degree", "2", "--json"),
     "2f84ea01d2fcc7559258af2707cf4eeb4a40484c2e46dbf4b271d974079e74cc"),
    (("check", "--suite", "box", "--json"),
     "c4371735c614465f5253489d866e85fcd3a4b3f45927197dd29e4bdf08ca0944"),
    (("monoid", "DUAL_NUMBERS", "--ring", "Z", "--n", "2", "--max-degree", "1", "--json"),
     "9f300da559e537437d0dd5735e20caa15eb5965b636ca57dc289dca3a88e980f"),
    # the largest presentations in Tier-1: the tag-basis complexes of two nerves
    (("hh", "--ring", "F_2", "--n", "4", "--max-degree", "3", "--json"),
     "5151eaf01d5b592efd751631c2fc7c45f2a3c42e0ba29cced6d7df3a25e0ce92"),
    (("hh", "--ring", "Z", "--n", "6", "--max-degree", "2", "--json"),
     "d244ba716c720ce90a60ce4ef08436064889bdebc5c1f2541a65a1de56f2d926"),
    # two more large presentations: the C_6 nerve to degree 3 and the
    # dual-numbers monoid over C_4
    (("hh", "--ring", "F_2", "--n", "6", "--max-degree", "3", "--json"),
     "bfc822cf92b58280aff18b469ed57099016899f4d7a3ed089027dd39edf503a5"),
    (("monoid", "DUAL_NUMBERS", "--ring", "Z", "--n", "4", "--max-degree", "1", "--json"),
     "f1f448375e5041d45dd5800805d08a062385bc4969404c1526b08cd07b3162a5"),
    # the Green certificate (check_axioms) over Burnside, fixed-point and norm
    # functors, and every suite on one more seed
    (("check", "--suite", "mackey", "--json"),
     "041cd0b6f8317e3960eb690e049fc9fc3625889a9618229bd201f986687c5c36"),
    (("check", "--suite", "all", "--seed", "3", "--json"),
     "3412d4cc5978c355fbf9b300d32097da9ea95684c7dc04d536518821ec478873"),
    # the cyclic bar construction on a monoid: cells to degree 3 over C_2, to degree 4
    # over C_1, and a noncommutative monoid
    (("monoid", "DUAL_NUMBERS", "--ring", "Z", "--n", "2", "--max-degree", "2", "--json"),
     "2584eb2f2115617bfa611aa6b070ddfa897de2ba0c947cdcf8ea9aac89ad5236"),
    (("monoid", "DUAL_NUMBERS", "--ring", "Z", "--n", "1", "--max-degree", "3", "--json"),
     "8a1a80437bfe261265eeaa4ef05abf0d2656afecca5ec4e33e8f29554ae8324b"),
    (("monoid", "RIGHT_ZERO_BAND", "--ring", "Z", "--n", "2", "--max-degree", "1", "--json"),
     "1364a3030d2ae7d01fffecdc689afefbb4bcf05911b458ef3733ff30c348cad7"),
    # the table renderer over the matrices of a nerve's homology, a Green
    # functor, a TR tower and a monoid algebra with its splitting
    (("hh", "--ring", "F_2", "--n", "4", "--max-degree", "2"),
     "fe4f5a204849e65859ad4d06e673bea23765e7670efa991af6e7ef2d30aab1f8"),
    (("witt", "--ring", "Z/4", "--n", "6"),
     "12f4a7cbfc3fe10b0693c9fa2c8a191beed7bab1d36ca39eda7d4a007b78fa14"),
    (("tr", "--p", "2", "--stages", "3", "--degree", "1"),
     "1ec37ca398e2183cc3188e74eaa11ae4d0f051e3b8f890e8fbfcb90cf9128502"),
    (("monoid", "DUAL_NUMBERS", "--ring", "Z", "--n", "2", "--max-degree", "1"),
     "7b73c7bbba8c74a486424b32c6ad2f4fabf097ea9cabecabb709e6437a436403"),
]


def stdout_digest(tmp_path, argv) -> str:
    """The sha256 of the command's stdout; it must exit 0."""
    if argv[0] == "monoid":
        path = tmp_path / "monoid.json"
        path.write_text(json.dumps(MONOIDS[argv[1]]))
        argv = ("monoid", "--file", str(path)) + argv[2:]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_digest_is_pinned(tmp_path, argv, digest):
    assert stdout_digest(tmp_path, argv) == digest


# The pinned commands that build norm levels (``check --suite all`` does too,
# but its norm work is the mackey and norm suites', at more than four times the cost).
NORM_GOLDEN = [
    (a, d) for a, d in GOLDEN
    if a[0] in ("norm", "witt", "hh", "tr") or a[:3] == ("check", "--suite", "mackey")
]


def test_digests_hold_whatever_norm_levels_were_built_before(tmp_path):
    """Norm levels and edges are built once per process and shared: every pinned
    command that builds them, run forward and then in reverse in one
    interpreter, keeps its digest."""
    for argv, digest in NORM_GOLDEN + NORM_GOLDEN[::-1]:
        assert stdout_digest(tmp_path, argv) == digest, " ".join(argv)


def test_edgewise_checks_are_pinned():
    """The edgewise report's checks (θ built by the block map) for C_4 over C_2 to degree 2."""
    checks = edgewise_comparison_norm(BaseRing.parse("F_2"), 4, 2, 2).checks
    digest = hashlib.sha256(repr(checks).encode()).hexdigest()
    assert digest == "9166ead875038b27472ab98b5f12c734f22ec8e78339f8245d712a7d5d87e5b8"
