"""A fixed piece of pure-Python work that measures how fast the host runs now.

The benchmark runs on shared virtual machines whose CPU speed switches
between states that differ by up to half, for seconds to minutes at a time,
with no steal time to show it.  That is far more than the benchmark's own
run-to-run noise.  ``reference_s`` times a fixed workload that lives here,
beside the benchmark, and so never changes when the package does.  The
worker times one round of it every few tenths of a second while the jobs
run, in the same process and so on the same CPU as the job, and the
harness scales each job's wall time by ``NOMINAL_S / reference``: a time
reads as it would on a host that runs one round in ``NOMINAL_S`` seconds.

The reference does what the package spends its time on: integer row
reduction with Python ints (as ``fgab`` does), and hashing of tuples into
dicts (as ``green`` and ``wittcore`` do).  Nothing here depends on a seed.
A change to this file changes every scaled time: compare two commits only
with the same benchmark code.
"""

from __future__ import annotations

import gc
import time

NOMINAL_S = 0.028  # one round on the 2-core VM the baseline was measured on, in its usual state
SIZE = 36         # matrix size of one round


def _matrix(size: int) -> list[list[int]]:
    """A fixed dense integer matrix with small entries (a linear congruential fill)."""
    x = 12345
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size + 4):
            x = (1103515245 * x + 12345) % 2147483648
            row.append(x % 19 - 9)
        rows.append(row)
    return rows


def _row_reduce(m: list[list[int]]) -> int:
    """Fraction-free row reduction; returns a checksum of the result."""
    rows, cols = len(m), len(m[0])
    r = 0
    for c in range(cols):
        piv = next((i for i in range(r, rows) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r]
        for i in range(r + 1, rows):
            q = m[i][c]
            if q:
                row = m[i]
                m[i] = [p[c] * row[j] - q * p[j] for j in range(cols)]
                g = 0
                for v in m[i]:
                    if v:
                        g = v if g == 0 else _gcd(g, v)
                        if g in (1, -1):
                            break
                if g not in (0, 1, -1):
                    m[i] = [v // g for v in m[i]]
        r += 1
        if r == rows:
            break
    return sum(abs(v) % 1000003 for row in m for v in row)


def _gcd(a: int, b: int) -> int:
    # In Python, as ``fgab`` does it, rather than ``math.gcd`` in C.
    while b:
        a, b = b, a % b
    return a


def _hash_round(n: int) -> int:
    """Build and probe a dict keyed by small tuples."""
    table = {}
    for i in range(n):
        key = (i % 17, i % 31, i // 7)
        table[key] = table.get(key, 0) + i
    return sum(table.get((i % 17, i % 31, i // 7), 0) for i in range(0, n, 3)) % 1000003


def reference_work() -> int:
    """One round of the reference; returns a checksum that never changes."""
    return (_row_reduce(_matrix(SIZE)) + _hash_round(15000)) % 1000003


def reference_s(rounds: int = 3) -> float:
    """Wall seconds of one round of the reference, the median of ``rounds``.

    The garbage collector is off while it runs, so that a large heap left
    by an earlier job does not make the reference slower.
    """
    times = []
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for _ in range(rounds):
            t0 = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    times.sort()
    return times[len(times) // 2]
