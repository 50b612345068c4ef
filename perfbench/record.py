"""Record the golden digests in ``perfbench/golden.json``.

    python3 perfbench/record.py

Runs every job of every workload in two fresh interpreters side by side,
requires the two to print byte-identical output (the README's determinism
contract) and exit 0, and writes the
sha256 of each job's stdout, or of a comparison report's notes, keyed by
job id.  Run it only at a commit whose outputs are known to be right:
every later benchmark run is checked against these digests.
"""

from __future__ import annotations

import json
import sys
import threading
import time

from run import GOLDEN, prepare, run_pass
from workloads import WORKLOADS, jobs_for


def main() -> int:
    monoid = prepare()
    jobs = [job for w in WORKLOADS for job in jobs_for(w, 0, monoid)]
    deadline = time.monotonic() + 24 * 3600
    passes: list = [None, None]

    def one(k):
        passes[k] = run_pass(jobs, deadline)

    threads = [threading.Thread(target=one, args=(k,)) for k in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    digests, bad = {}, []
    runs = [{r["i"]: r for r in p["results"]} for p in passes]
    for i, job in enumerate(jobs):
        a, b = runs[0].get(i), runs[1].get(i)
        if a is None or b is None or a.get("exit") != 0 or b.get("exit") != 0:
            bad.append(f"{job['id']}: did not finish with exit 0 ({a}, {b})")
        elif a.get("passed") is False:
            bad.append(f"{job['id']}: comparison report did not pass")
        elif a["digest"] != b["digest"]:
            bad.append(f"{job['id']}: two fresh runs printed different output")
        else:
            digests[job["id"]] = a["digest"]
            print(f"{a['wall_s']:8.2f} s  {a['digest'][:16]}  {job['id']}")
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    GOLDEN.write_text(json.dumps({"digests": digests}, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(digests)} digests in {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
