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

# The README's dual-numbers monoid {0, 1, x}, x^2 = 0, with trivial action.
DUAL_NUMBERS = {
    "elements": ["0", "1", "x"],
    "zero": "0",
    "one": "1",
    "table": [["0", "0", "0"], ["0", "1", "x"], ["0", "x", "0"]],
    "action": ["0", "1", "x"],
}

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
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[" ".join(a) for a, _ in GOLDEN])
def test_stdout_digest_is_pinned(tmp_path, argv, digest):
    if argv[0] == "monoid":
        path = tmp_path / "dual-numbers.json"
        path.write_text(json.dumps(DUAL_NUMBERS))
        argv = ("monoid", "--file", str(path)) + argv[2:]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0
    assert hashlib.sha256(out.getvalue().encode()).hexdigest() == digest
