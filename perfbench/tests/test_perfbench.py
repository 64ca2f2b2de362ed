"""Tests of the benchmark itself: metrics, tracing, failure accounting.

Run from the repository root:  python3 -m pytest perfbench/tests
"""
import json
import re
import shutil
import subprocess
import sys
from time import perf_counter

import pytest

import nlsground.coupled
import run as bench_run
import tracer as tracing
import worker
import workloads
from conftest import BENCH, ROOT
from nlsground import SolveConfig
from nlsground.errors import NoConvergence

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def last_json(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def bindings() -> dict:
    return {(m, a): getattr(*tracing._resolve(m, a))
            for m, a, _, _ in tracing.PLAN}


def test_spec_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert set(w["name"] for w in SPEC["workloads"]) == set(bench_run.PRIMARY)
    names = [m["name"] for key in ("workloads", "end_to_end", "per_layer")
             for m in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert e2e["setup_s"]["bound"] == max(m["bound"] for m in e2e.values()) <= 0.25
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    # every per-layer metric names the end-to-end metric it should move
    assert all(m["name"] in tracing.GROUP for m in SPEC["per_layer"])
    assert set(tracing.GROUP.values()) <= set(tracing.TARGETS)


def test_tail_percentile():
    assert bench_run.tail_percentile(list(range(10))) is None
    assert bench_run.tail_percentile([float(x) for x in range(11)]) == (9, 0.0)
    assert bench_run.tail_percentile([float(x) for x in range(20, 0, -1)]) == (50, 10.0)


def test_count_mismatch_names_every_difference():
    a = {"coupled.descent_iters": 13239, "calls:energy.terms": 5}
    b = {"coupled.descent_iters": 13240, "calls:grid.profile": 1,
         "calls:energy.terms": 5}
    assert bench_run.count_mismatch(a, a) == {}
    assert bench_run.count_mismatch(a, b) == {
        "calls:grid.profile": (None, 1),
        "coupled.descent_iters": (13239, 13240)}


def test_self_time_and_parent_attribution():
    tr = tracing.Tracer()

    def inner():
        t = perf_counter()
        while perf_counter() - t < 0.01:
            pass

    wrapped_inner = tr._wrapper(inner, "energy.terms", None)

    def outer():
        wrapped_inner()
        wrapped_inner()

    tr._wrapper(outer, "coupled.descent", None)()
    wrapped_inner()
    table = tr.table()
    assert table["energy.terms"]["calls"] == 3
    assert table["coupled.descent"]["s"] >= 0.02
    assert table["coupled.descent"]["self_s"] < 0.5 * table["coupled.descent"]["s"]
    assert table["energy.terms"]["self_s"] == pytest.approx(table["energy.terms"]["s"])
    assert tr.calls_under("energy.terms", ("coupled.descent",)) == 2


def test_end_to_end_metrics_emitted_with_units():
    proc = bench("--workload", "cli-far", "--seed", "3", "--seconds", "1",
                 "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] == 8
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert all(v["value"] > 0 for v in out["metrics"].values())
    for name in ("setup_s", "pass_s", "cli_coupled_s", "failed_frac",
                 "peak_rss_mb"):
        assert name in proc.stdout


def test_per_layer_metrics_emitted_with_units():
    proc = bench("--workload", "cli-far", "--seed", "3", "--seconds", "1",
                 "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    out = last_json(proc.stdout)
    assert out["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    # layer metrics that only cli-far exercises are printed, not emitted
    for name in ("cli.main_s", "config.load_s", "grid.csv_write_s",
                 "grid.csv_read_s", "coupled.certify_s"):
        assert re.search(rf"^\s+{re.escape(name)}\s+\d", proc.stdout, re.M)


def test_wrappers_removed_before_untraced_timing(tmp_path, monkeypatch):
    original = bindings()
    seen = []
    solve = workloads.CoupledNear._solve

    def spy(self, beta):
        seen.append(bindings() == original)
        return solve(self, beta)

    monkeypatch.setattr(workloads.CoupledNear, "_solve", spy)
    res = worker.execute("coupled-near", 0, 0.0, "trace", tmp_path,
                         cfg=SolveConfig(max_iters=1), t0=perf_counter())
    assert seen == [False, False, True, True]
    assert bindings() == original
    assert res["untraced_pass_s"] > 0 and res["layers"]["coupled.solve_s"] > 0


def test_counts_repeat_exactly(tmp_path):
    cfg = SolveConfig(max_iters=1)
    a = worker.execute("coupled-near", 5, 0.0, "trace-repeat", tmp_path / "a",
                       cfg=cfg, t0=perf_counter())
    b = worker.execute("coupled-near", 5, 0.0, "trace-repeat", tmp_path / "b",
                       cfg=cfg, t0=perf_counter())
    assert a["counts"] == b["counts"]
    assert a["counts"]["scalar.rk4_runs"] > 0


def test_forced_failure_is_counted_not_raised(tmp_path, monkeypatch):
    # one descent step from the perturbed pair alone never leaves the
    # scalar basin, so β = 1.01 returns the wrong kind
    cfg = SolveConfig(max_iters=1, init_strategy="perturbed_scalar")
    res = worker.execute("coupled-near", 0, 0.0, "run", tmp_path, cfg=cfg,
                         t0=perf_counter())
    errors = {r["label"]: r["error"] for r in bench_run.ops_of(res)}
    assert errors["solve beta=0.99"] is None
    assert "want vector" in errors["solve beta=1.01"]

    def broken(*args, **kwargs):
        raise NoConvergence("forced")

    monkeypatch.setattr(nlsground.coupled, "solve_coupled", broken)
    res = worker.execute("coupled-near", 0, 0.0, "run", tmp_path, cfg=cfg,
                         t0=perf_counter())
    ops = bench_run.ops_of(res)
    assert len(ops) == 2
    assert all(r["error"] == "NoConvergence: forced" for r in ops)


def test_missing_sources_exit_nonzero_without_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", "threshold", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
