"""One pass: run a job list in this (fresh) interpreter and report each job.

Reads a JSON spec on stdin:
``{"jobs": [...], "trace": bool, "spans": path, "sample_every": seconds}``.
Writes one JSON line per finished job to stdout, then a final line with the
pass time (after importing ``mackeywitt.cli``) and, when traced, the per-layer
metrics.  Job output is captured, never echoed; the parent process checks
digests, enforces the per-job time limit and reads the peak RSS.

With ``sample_every``, a ``Sampler`` times one round of the reference work
(``calibrate.py``) every ``sample_every`` seconds while the jobs run.  Each
job's report then carries the reference times taken during it (``refs``)
and its wall time without those pauses (``net_s``); the final line carries
every reference time of the pass.

Run from the repository root with ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import sys
import time
import traceback

from calibrate import reference_s


def digest(data: str) -> str:
    return hashlib.sha256(data.encode()).hexdigest()


def run_job(job: dict) -> dict:
    """Run one job; report its exit code, output digest and verdict."""
    from mackeywitt import cli, geomfix
    from mackeywitt.wittcore import BaseRing

    if job["kind"] == "cli":
        buf = io.StringIO()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.main(job["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        out = buf.getvalue()
        return {"exit": code, "digest": digest(out), "stdout_bytes": len(out.encode())}
    if job["kind"] == "cyclotomic":
        ring, n, m, max_degree = job["args"]
        report = geomfix.cyclotomic_check_norm(BaseRing.parse(ring), n, m, max_degree)
        return {"exit": 0, "passed": report.passed, "digest": digest(json.dumps(report.checks))}
    raise ValueError(f"unknown job kind {job['kind']!r}")


class Sampler:
    """Times one round of the reference work every ``every`` seconds.

    It runs from a SIGALRM handler, so in this process and on the CPU the
    job runs on: the reference sees the same host speed as the job.
    ``paused`` is the wall time spent in the handler.
    """

    def __init__(self, every: float):
        self.every = every
        self.refs: list[float] = []
        self.paused = 0.0
        self.on = False

    def tick(self, signum=None, frame=None) -> None:
        t0 = time.perf_counter()
        self.refs.append(reference_s(1))
        self.paused += time.perf_counter() - t0
        if self.on:
            signal.setitimer(signal.ITIMER_REAL, self.every)

    def start(self) -> None:
        signal.signal(signal.SIGALRM, self.tick)
        self.on = True
        self.tick()  # every pass has at least one sample
        self.paused = 0.0

    def stop(self) -> None:
        self.on = False
        signal.setitimer(signal.ITIMER_REAL, 0)


def main() -> int:
    spec = json.load(sys.stdin)
    report = os.fdopen(os.dup(sys.stdout.fileno()), "w", buffering=1)
    import mackeywitt.cli  # noqa: F401  (import time is setup_s, not pass time)
    import mackeywitt.geomfix  # noqa: F401

    tracer = None
    if spec.get("trace"):
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    sampler = None
    if spec.get("sample_every"):
        sampler = Sampler(spec["sample_every"])
        sampler.start()
    t_pass = time.perf_counter()
    for i, job in enumerate(spec["jobs"]):
        if tracer is not None:
            tracer.job = i
        if sampler is not None:
            paused0, refs0 = sampler.paused, len(sampler.refs)
        t0 = time.perf_counter()
        try:
            res = run_job(job)
        except Exception as exc:  # a failed job is reported, the pass goes on
            traceback.print_exc()
            res = {"exit": None, "error": f"{type(exc).__name__}: {exc}"}
        res["wall_s"] = time.perf_counter() - t0
        res["i"] = i
        if sampler is not None:
            res["net_s"] = res["wall_s"] - (sampler.paused - paused0)
            res["refs"] = sampler.refs[refs0:]
        if tracer is not None:
            tracer.count("cli.stdout_bytes", res.get("stdout_bytes", 0))
            tracer.end_job()
        report.write(json.dumps(res) + "\n")
    final = {"done": True, "pass_s": time.perf_counter() - t_pass}
    if sampler is not None:
        sampler.stop()
        final["refs"] = sampler.refs
    if tracer is not None:
        tracer.uninstall()
        final["layers"] = tracer.metrics()
        if spec.get("spans"):
            tracer.write_spans(spec["spans"], [job["id"] for job in spec["jobs"]])
    report.write(json.dumps(final) + "\n")
    report.close()
    return 0


if __name__ == "__main__":
    sys.exit(main())
