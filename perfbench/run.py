"""mackeywitt benchmark: closed-loop passes over the nerve, ring and suites workloads.

    python3 perfbench/run.py --workload nerve --seed 0 --seconds 30 --trace 0

Run from the repository root (or anywhere: paths are resolved from this
file).  The package is imported from ``src/`` of the same checkout.

One pass runs a workload's job list, one job after another, in a fresh
interpreter (``perfbench/worker.py``), so process-level caches start cold
as they do for every CLI call.  Passes run one at a time until the next
one would end after ``--seconds``; there is always at least one.  Every
job's stdout (and every comparison report's notes) is checked against
the sha256 recorded in ``perfbench/golden.json``; a job that exits
non-zero, raises, reports a failed comparison, prints other bytes or
runs past ``JOB_LIMIT_S`` fails.

``--trace 0`` reports the end-to-end metrics (see ``END_TO_END``).  Their
times are scaled to a nominal host speed: the worker times a fixed
reference workload every ``SAMPLE_EVERY_S`` seconds while the jobs run,
and each job's wall time (without those pauses) is multiplied by
``calibrate.NOMINAL_S`` over the mean reference time taken during it.  The
spawns of ``setup_s`` time the reference right after their import.  The
unscaled medians are printed too.
``--trace 1`` runs one untraced and one traced pass and reports the
per-layer metrics of ``tracer.METRICS`` plus ``trace.overhead``; the spans
go to ``.bench_out/``.  The last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import queue
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibrate import NOMINAL_S  # noqa: E402
from workloads import DUAL_NUMBERS, WORKLOADS, jobs_for  # noqa: E402

WORKER = HERE / "worker.py"
GOLDEN = HERE / "golden.json"
OUT_DIR = ROOT / ".bench_out"
JOB_LIMIT_S = 120.0   # a runaway job is killed after this long
RUN_LIMIT_S = 170.0   # no job runs past this point of the run
SETUP_SPAWNS = 11
SAMPLE_EVERY_S = 0.3  # how often the worker times the reference during a timed pass
# What a set-up spawn runs: the import that is timed, then the reference
# (three rounds, median) and how long everything after the import took.
SETUP_CODE = (
    "import mackeywitt.cli, sys, time; t = time.perf_counter(); sys.path.insert(0, {bench!r}); "
    "from calibrate import reference_s; r = reference_s(3); print(r, time.perf_counter() - t)"
)

END_TO_END = {
    "pass_s": "s",
    "slowest_job_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


class SetupError(RuntimeError):
    """The checkout cannot be benchmarked (no package source, no digests)."""


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def check_checkout() -> None:
    if not (ROOT / "src" / "mackeywitt" / "__init__.py").is_file():
        raise SetupError(f"no package source under {ROOT / 'src'}")
    out = subprocess.run(
        [sys.executable, "-c", "import mackeywitt, sys; sys.stdout.write(mackeywitt.__file__)"],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=60,
    )
    if out.returncode != 0 or Path(out.stdout).resolve().parent != ROOT / "src" / "mackeywitt":
        raise SetupError(f"mackeywitt does not import from {ROOT / 'src'}: {out.stderr.strip()}")


def measure_setup(spawns: int) -> list[tuple[float, float]]:
    """Wall seconds to spawn an interpreter that imports ``mackeywitt.cli``.

    That is what every CLI call pays before its command runs.  Each spawn
    also times the reference after its import; returns (wall seconds
    without that, reference seconds) per spawn.
    """
    code = SETUP_CODE.format(bench=str(HERE))
    times = []
    for _ in range(spawns):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=child_env(), check=True,
                             capture_output=True, text=True)
        wall = time.perf_counter() - t0
        ref, after_import = map(float, out.stdout.split())
        times.append((wall - after_import, ref))
    return times


def run_pass(jobs: list[dict], deadline: float, trace: bool = False, spans: str | None = None,
             sample_every: float | None = None) -> dict:
    """Run one pass in a fresh interpreter, killing it when a job overruns.

    With ``sample_every``, the worker times the reference work that often
    during the jobs (see ``worker.Sampler``).

    Returns the worker's per-job reports (``results``), its final report
    (``final``, None when killed), whether it timed out, and the peak RSS
    in MB from the child's resource usage.
    """
    spec = {"jobs": jobs, "trace": trace, "spans": spans, "sample_every": sample_every}
    proc = subprocess.Popen(
        [sys.executable, str(WORKER)], cwd=ROOT, env=child_env(),
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    lines: queue.Queue = queue.Queue()

    def read():
        for line in proc.stdout:
            lines.put(line)
        lines.put(None)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    proc.stdin.write(json.dumps(spec))
    proc.stdin.close()
    results, final, timed_out = [], None, False
    last = time.monotonic()
    while True:
        wait = min(last + JOB_LIMIT_S, deadline) - time.monotonic()
        try:
            line = lines.get(timeout=max(wait, 0.0))
        except queue.Empty:
            timed_out = True
            proc.kill()
            break
        if line is None:
            break
        msg = json.loads(line)
        if msg.get("done"):
            final = msg
        else:
            results.append(msg)
        last = time.monotonic()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    reader.join()
    proc.stdout.close()
    return {
        "results": results,
        "final": final if proc.returncode == 0 else None,
        "timed_out": timed_out,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
    }


def job_failure(job: dict, res: dict | None, golden: dict) -> str | None:
    """Why a job failed, or None when its output is correct."""
    if res is None:
        return "not run (pass killed or crashed)"
    if res.get("error"):
        return res["error"]
    if res["exit"] != 0:
        return f"exit status {res['exit']}"
    if res.get("passed") is False:
        return "comparison report did not pass"
    want = golden.get(job["id"])
    if want is None:
        return "no recorded digest"
    if res["digest"] != want:
        return f"digest {res['digest'][:12]} != recorded {want[:12]}"
    return None


def check_pass(jobs: list[dict], p: dict, golden: dict) -> list[str]:
    """Failure messages of one pass; a job that never reported counts as failed."""
    by_index = {r["i"]: r for r in p["results"]}
    failures = []
    for i, job in enumerate(jobs):
        why = job_failure(job, by_index.get(i), golden)
        if why is not None:
            if p["timed_out"] and i == len(p["results"]):
                why = f"killed after {JOB_LIMIT_S:.0f} s limit"
            failures.append(f"{job['id']}: {why}")
    if p["final"] is None and not failures:
        failures.append(f"{jobs[-1]['id']}: the pass did not finish after it")
    return failures


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def prepare() -> str:
    """Check the checkout and write the monoid file the jobs read; return its path."""
    check_checkout()
    OUT_DIR.mkdir(exist_ok=True)
    monoid = OUT_DIR / "dual-numbers.json"
    monoid.write_text(json.dumps(DUAL_NUMBERS))
    return str(monoid)


def load_golden() -> dict:
    if not GOLDEN.is_file():
        raise SetupError(f"no recorded digests at {GOLDEN}")
    return json.loads(GOLDEN.read_text())["digests"]


def scaled_job_times(p: dict) -> list[float]:
    """Each job's wall seconds without sampling pauses, at nominal host speed.

    A job is scaled by the mean reference time taken during it, or during
    the whole pass when it was too short to be sampled.
    """
    pass_ref = statistics.fmean(p["final"]["refs"])
    return [r["net_s"] * NOMINAL_S / (statistics.fmean(r["refs"]) if r["refs"] else pass_ref)
            for r in p["results"]]


def bench_workload(workload: str, seed: int, seconds: float, started: float) -> dict:
    """The timed run: setup spawns, then passes until ``seconds`` is used."""
    golden, monoid = load_golden(), prepare()
    jobs = jobs_for(workload, seed, monoid)
    # Half of the set-up spawns before the passes and half after, so that a
    # short burst of load on the machine moves the median less.
    setup = measure_setup(SETUP_SPAWNS // 2)
    deadline = started + RUN_LIMIT_S
    passes, failures = [], []
    t_start = time.monotonic()
    while True:
        t0 = time.monotonic()
        p = run_pass(jobs, deadline, sample_every=SAMPLE_EVERY_S)
        failures += check_pass(jobs, p, golden)
        passes.append(p)
        if p["final"] is None:
            break
        now = time.monotonic()
        if now - t_start + (now - t0) > seconds or now + (now - t0) > deadline:
            break
    setup += measure_setup(SETUP_SPAWNS - SETUP_SPAWNS // 2)
    done = [p for p in passes if p["final"] is not None]
    job_times = [scaled_job_times(p) for p in done]
    samples = {
        "pass_s": [sum(ts) for ts in job_times],
        "slowest_job_s": [max(ts) for ts in job_times],
        "peak_rss_mb": [p["peak_rss_mb"] for p in passes],
        "setup_s": [wall * NOMINAL_S / ref for wall, ref in setup],
    }
    unscaled = {
        "pass_s": [sum(r["net_s"] for r in p["results"]) for p in done],
        "slowest_job_s": [max(r["net_s"] for r in p["results"]) for p in done],
        "setup_s": [wall for wall, _ in setup],
    }
    refs = {"passes": [ref for p in done for ref in p["final"]["refs"]], "setup": [ref for _, ref in setup]}
    metrics = {}
    for name, unit in END_TO_END.items():
        vals = samples[name]
        metrics[name] = {"value": statistics.median(vals) if vals else None, "unit": unit}
    attempted = len(jobs) * len(passes)
    return {
        "workload": workload, "jobs": jobs, "samples": samples, "unscaled": unscaled, "refs": refs,
        "metrics": metrics, "attempted": attempted, "failed": len(failures), "failures": failures,
        "job_walls": [[r["net_s"] for r in p["results"]] for p in done],
    }


def trace_workload(workload: str, seed: int, started: float) -> dict:
    """The traced run: one untraced and one traced pass of the same jobs."""
    golden, monoid = load_golden(), prepare()
    jobs = jobs_for(workload, seed, monoid)
    deadline = started + RUN_LIMIT_S
    spans = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    plain = run_pass(jobs, deadline)
    traced = run_pass(jobs, deadline, trace=True, spans=str(spans))
    failures = check_pass(jobs, plain, golden) + [f"traced: {f}" for f in check_pass(jobs, traced, golden)]
    from tracer import METRICS

    metrics = {}
    if traced["final"] is not None:
        layers = traced["final"]["layers"]
        metrics = {name: {"value": layers[name], "unit": unit} for name, unit in METRICS.items()}
    if plain["final"] is not None and traced["final"] is not None:
        ratio = traced["final"]["pass_s"] / plain["final"]["pass_s"]
        metrics["trace.overhead"] = {"value": ratio, "unit": "ratio"}
    return {
        "workload": workload, "jobs": jobs, "metrics": metrics, "spans": str(spans),
        "attempted": 2 * len(jobs), "failed": len(failures), "failures": failures,
        "job_walls": [[r["wall_s"] for r in p["results"]] for p in (plain, traced)],
    }


def print_report(res: dict, traced: bool) -> None:
    w = res["workload"]
    rate = res["failed"] / res["attempted"]
    print(f"workload {w}: error_rate {rate:.4g} ({res['failed']} of {res['attempted']} jobs failed)")
    for f in res["failures"]:
        print(f"  FAILED {f}")
    if traced:
        print(f"  per-job wall s (untraced, traced); spans in {res['spans']}")
        walls = res["job_walls"]
        for i, job in enumerate(res["jobs"]):
            cells = [f"{ws[i]:9.3f}" if i < len(ws) else "        -" for ws in walls]
            print(f"  {' '.join(cells)}  {job['id']}")
        for name, m in res["metrics"].items():
            print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    else:
        for name, unit in END_TO_END.items():
            vals = res["samples"][name]
            if not vals:
                print(f"  {name:14s} not measured")
                continue
            q1, med, q3 = quartiles(vals)
            n = len(vals)
            line = f"  {name:14s} {med:10.4f} {unit:3s} (median of {n}; quartiles {q1:.4f} .. {q3:.4f})"
            if res["unscaled"].get(name):
                line += f"; unscaled {statistics.median(res['unscaled'][name]):.4f}"
            print(line)
        for during, refs in res["refs"].items():
            if refs:
                q1, med, q3 = quartiles(refs)
                print(f"  reference s in {during}: {med:.4f} (median of {len(refs)}; quartiles {q1:.4f} .. {q3:.4f};"
                      f" nominal {NOMINAL_S})")
        for k, ws in enumerate(res["job_walls"]):
            slow = max(range(len(ws)), key=ws.__getitem__)
            print(f"  pass {k}: slowest job {ws[slow]:.3f} s: {res['jobs'][slow]['id']}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args(argv)
    started = time.monotonic()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = []
        for w in names:
            # With several workloads, each gets its own run-time limit.
            t0 = time.monotonic() if len(names) > 1 else started
            if args.trace:
                results.append(trace_workload(w, args.seed, t0))
            else:
                results.append(bench_workload(w, args.seed, args.seconds, t0))
            print_report(results[-1], bool(args.trace))
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results for k, v in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
