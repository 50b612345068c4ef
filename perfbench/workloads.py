"""Job lists of the three benchmark workloads.

A job is a dict with a stable ``id`` (the key of its golden digest) and a
``kind``: ``cli`` jobs run ``mackeywitt.cli.main(argv)`` with stdout
captured, ``cyclotomic`` jobs call ``geomfix.cyclotomic_check_norm``.

* ``nerve``: few, very large presentations (the degree-4 nerve of
  ``N(F_2)`` over ``C_4`` and the ``F_3``, ``C_6`` cyclotomic check).
* ``ring``: multiplicative structure (classical Witt comparisons, a
  large norm, the dual-numbers monoid splitting), jobs that share work.
* ``suites``: many small structures (every property suite of
  ``check``, one CLI call each), where per-call overhead dominates.

The seed only permutes job order: its total work does not depend on the
order, but the order decides which job pays the cold-cache cost.  The
property suites run at the fixed suite seed ``SUITE_SEED``, because their
work depends strongly on that seed (``--suite all`` took 7.8 to 39 s over
suite seeds 0 to 15, two runs side by side on 2 cores), which would make
runs with different benchmark seeds incomparable.
"""

from __future__ import annotations

import random

WORKLOADS = ("nerve", "ring", "suites")
SUITE_SEED = 0
# The names of ``mackeywitt.suites.SUITES``.
SUITE_NAMES = ("box", "ddzero", "ghost", "hh0", "mackey", "norm", "snf", "wittfv")
WITT_RINGS = ("Z", "Z/4", "F_2", "F_3")
WITT_NS = (1, 2, 3, 4, 6)

# The README's dual-numbers monoid {0, 1, x}, x^2 = 0, with trivial action.
DUAL_NUMBERS = {
    "elements": ["0", "1", "x"],
    "zero": "0",
    "one": "1",
    "table": [["0", "0", "0"], ["0", "1", "x"], ["0", "x", "0"]],
    "action": ["0", "1", "x"],
}


def cli_job(*argv: str) -> dict:
    return {"id": " ".join(argv), "kind": "cli", "argv": list(argv)}


def cyclotomic_job(ring: str, n: int, m: int, max_degree: int) -> dict:
    return {
        "id": f"cyclotomic_check_norm {ring} {n} {m} {max_degree}",
        "kind": "cyclotomic",
        "args": [ring, n, m, max_degree],
    }


def jobs_for(workload: str, seed: int, monoid_file: str) -> list[dict]:
    """The jobs of one pass, in the order the seed gives them."""
    if workload == "nerve":
        jobs = [
            cli_job("hh", "--ring", "F_2", "--n", "4", "--max-degree", "3", "--json"),
            cyclotomic_job("F_3", 6, 3, 2),
        ]
    elif workload == "ring":
        jobs = [cli_job("witt", "--ring", r, "--n", str(n), "--json") for r in WITT_RINGS for n in WITT_NS]
        jobs.append(cli_job("norm", "--ring", "F_2", "--n", "16", "--json"))
        monoid = cli_job("monoid", "--file", monoid_file, "--ring", "Z", "--n", "2", "--max-degree", "1", "--json")
        # The file's location differs between checkouts; its content does not.
        monoid["id"] = "monoid --file dual-numbers.json --ring Z --n 2 --max-degree 1 --json"
        jobs.append(monoid)
    elif workload == "suites":
        jobs = [cli_job("check", "--suite", name, "--seed", str(SUITE_SEED), "--json") for name in SUITE_NAMES]
    else:
        raise ValueError(f"unknown workload {workload!r}; have {list(WORKLOADS)}")
    random.Random(seed).shuffle(jobs)
    return jobs
