"""Tests of the benchmark harness on tiny jobs (a few seconds in all).

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
from workloads import cli_job, cyclotomic_job  # noqa: E402

TINY = [
    cli_job("hh", "--ring", "F_2", "--n", "2", "--max-degree", "1", "--json"),
    cyclotomic_job("F_2", 2, 2, 1),
    cli_job("check", "--suite", "snf", "--seed", "1", "--json"),
    cli_job("witt", "--ring", "Z/4", "--n", "2", "--json"),
]


def far() -> float:
    return time.monotonic() + 600


@pytest.fixture(scope="module")
def tiny_golden():
    """Digests of the tiny jobs, from two fresh runs that must agree."""
    a, b = run.run_pass(TINY, far()), run.run_pass(TINY, far())
    da = [r["digest"] for r in a["results"]]
    assert da == [r["digest"] for r in b["results"]]
    return {job["id"]: d for job, d in zip(TINY, da)}


@pytest.fixture
def tiny_bench(monkeypatch, tmp_path, tiny_golden):
    """Point run.py at the tiny jobs, their digests and a scratch output dir."""
    golden = tmp_path / "golden.json"
    golden.write_text(json.dumps({"digests": tiny_golden}))
    monkeypatch.setattr(run, "GOLDEN", golden)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setattr(run, "SETUP_SPAWNS", 2)
    monkeypatch.setattr(run, "jobs_for", lambda workload, seed, monoid: list(TINY))
    return golden


def last_json(capsys) -> dict:
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


def benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_end_to_end_metrics_named_with_units(tiny_bench, capsys):
    assert run.main(["--workload", "nerve", "--seed", "3", "--seconds", "0"]) == 0
    out = last_json(capsys)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] == len(TINY)
    declared = {m["name"]: m["unit"] for m in benchmark_json()["end_to_end"]}
    assert declared == run.END_TO_END
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in out["metrics"].values())


def test_traced_run_reports_every_layer_metric(tiny_bench, capsys):
    assert run.main(["--workload", "ring", "--seed", "1", "--trace", "1"]) == 0
    out = last_json(capsys)
    assert out["correct"] and out["attempted"] == 2 * len(TINY)
    declared = {m["name"]: m["unit"] for m in benchmark_json()["per_layer"]}
    assert declared == {**tracer.METRICS, "trace.overhead": "ratio"}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert out["metrics"]["fgab.snf.calls"]["value"] > 0
    assert out["metrics"]["trace.overhead"]["value"] > 0
    spans = list((run.OUT_DIR).glob("spans-ring-1.jsonl"))
    assert spans and len(spans[0].read_text().splitlines()) > 1


def test_corrupted_digest_counts_as_failure(tiny_golden):
    p = run.run_pass(TINY, far())
    assert run.check_pass(TINY, p, tiny_golden) == []
    bad = dict(tiny_golden)
    bad[TINY[2]["id"]] = "0" * 64
    failures = run.check_pass(TINY, p, bad)
    assert len(failures) == 1 and failures[0].startswith(TINY[2]["id"])


def test_sampled_pass_is_correct_and_pauses_are_taken_out(tiny_golden):
    p = run.run_pass(TINY, far(), sample_every=0.05)
    assert run.check_pass(TINY, p, tiny_golden) == []
    assert sum(len(r["refs"]) for r in p["results"]) > 0
    assert all(ref > 0 for ref in p["final"]["refs"])
    assert all(0 < r["net_s"] <= r["wall_s"] for r in p["results"])
    assert sum(r["net_s"] for r in p["results"]) < sum(r["wall_s"] for r in p["results"])
    times = run.scaled_job_times(p)
    assert len(times) == len(TINY) and all(t > 0 for t in times)


def test_reference_work_is_fixed():
    import calibrate

    assert calibrate.reference_work() == calibrate.reference_work()
    assert calibrate.reference_s(1) > 0


def test_runaway_job_is_killed_and_later_jobs_fail(monkeypatch, tiny_golden):
    monkeypatch.setattr(run, "JOB_LIMIT_S", 2.0)
    slow = cli_job("norm", "--ring", "F_2", "--n", "30", "--json")
    jobs = [TINY[0], slow, TINY[1]]
    t0 = time.monotonic()
    p = run.run_pass(jobs, far())
    assert time.monotonic() - t0 < 30
    assert p["timed_out"] and p["final"] is None
    failures = run.check_pass(jobs, p, {**tiny_golden, slow["id"]: "x"})
    assert [f.split(": ")[0] for f in failures] == [slow["id"], TINY[1]["id"]]
    assert "limit" in failures[0]


def test_wrappers_leave_stdout_identical_and_counts_repeat(tiny_golden):
    traced = [run.run_pass(TINY, far(), trace=True) for _ in range(2)]
    for p in traced:
        assert run.check_pass(TINY, p, tiny_golden) == []
    counts = [{k: v for k, v in p["final"]["layers"].items() if not k.endswith("_s")} for p in traced]
    assert counts[0] == counts[1]
    assert counts[0]["fgab.snf.calls"] > 0 and counts[0]["green.box.tags"] > 0


def _snapshot():
    from mackeywitt import cli, cycmonoid, suites  # noqa: F401  (every module loaded)

    mods = {n: dict(vars(m)) for n, m in sys.modules.items() if n.startswith("mackeywitt")}
    classes = {
        (mod, cls): dict(vars(getattr(sys.modules[f"mackeywitt.{mod}"], cls)))
        for _, mod, cls, _ in tracer.METHODS
    }
    return mods, classes, dict(suites.SUITES)


def _same(a: dict, b: dict) -> bool:
    return a.keys() == b.keys() and all(a[k] is b[k] for k in a)


def test_wrappers_removed_after_traced_run():
    from mackeywitt import cli

    mods0, classes0, suites0 = _snapshot()
    t = tracer.Tracer()
    t.install()
    try:
        mods1, classes1, suites1 = _snapshot()
        assert not _same(mods0["mackeywitt.cli"], mods1["mackeywitt.cli"])
        assert not _same(suites0, suites1)
        assert cli.main(["norm", "--ring", "F_2", "--n", "4"]) == 0
    finally:
        t.uninstall()
    assert t.counts["norm.build.calls"] == 1
    mods2, classes2, suites2 = _snapshot()
    assert all(_same(mods0[n], mods2[n]) for n in mods0)
    assert all(_same(classes0[k], classes2[k]) for k in classes0)
    assert _same(suites0, suites2)


def test_fails_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "nerve", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert out.returncode != 0
    assert "correct" not in out.stdout
