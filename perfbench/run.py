"""nlsground benchmark: time to a certified ground state and to β₀.

Run from the root of a checkout:

    python3 perfbench/run.py --workload cli-far --seed 1 --seconds 36 --trace 0

Workloads (see workloads.py and BENCHMARK.json for why each exists):
  cli-far       CLI `coupled`/`check` pairs far from β₀, plus `scalar`/`check`
  coupled-near  solve_coupled for the cubic at β = 0.99 and 1.01
  threshold     sweep over 7 values of β, then bisect_beta0 to 1e-2

With --trace 0 the end-to-end metrics are measured untraced: set-up in three
fresh interpreters (median), then passes until --seconds is used up.  With
--trace 1 two worker processes each trace set-up and one pass; the first
also runs one untraced pass for the tracing overhead, and the counts of the
two must agree exactly.  Every operation's output is judged by the
certificate and by offline oracles; failures go to `failed`.  The last line
of standard output is the JSON result.

The program is imported from the checkout's ``src``; without it the
benchmark exits with status 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

from tracer import GROUP, TARGETS

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
OUT = HERE / "out"
SETUP_SAMPLES = 3
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")
# op kind -> the name its per-operation time is reported under
OP_METRICS = {"cli_coupled": "cli_coupled_s", "cli_scalar": "cli_scalar_s",
              "cli_check": "cli_check_s", "solve": "solve_s",
              "sweep": "sweep_s", "bisect": "bisect_s"}
PRIMARY = {"cli-far": "cli_coupled", "coupled-near": "solve",
           "threshold": "bisect"}


class BenchError(RuntimeError):
    pass


def tail_percentile(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least ten samples above it."""
    n = len(samples)
    if n < 11:
        return None
    k = n - 10                      # 1-based rank of the reported sample
    return 100 * k // n, sorted(samples)[k - 1]


def per_pass_mean(passes: list[dict], kind: str) -> list[float]:
    out = []
    for p in passes:
        times = [r["seconds"] for r in p["ops"] if r["kind"] == kind]
        if times:
            out.append(sum(times) / len(times))
    return out


class Runner:
    def __init__(self, root: Path, workload: str, seed: int):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = monotonic() + TIME_LIMIT_S
        self.env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        src = str(root / "src")
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)
        self.n = 0

    def worker(self, mode: str, seconds: float = 0.0, spans: Path | None = None):
        self.n += 1
        workdir = OUT / "work" / f"{self.workload}-{os.getpid()}-{self.n}"
        cmd = [sys.executable, str(WORKER), "--workload", self.workload,
               "--seed", str(self.seed), "--seconds", str(seconds),
               "--mode", mode, "--workdir", str(workdir)]
        if spans is not None:
            cmd += ["--spans", str(spans)]
        try:
            proc = subprocess.run(cmd, env=self.env, cwd=self.root, text=True,
                                  capture_output=True,
                                  timeout=max(1.0, self.deadline - monotonic()))
        except subprocess.TimeoutExpired as exc:
            raise BenchError(f"{mode} worker ran past the time limit") from exc
        if proc.returncode != 0:
            raise BenchError(f"{mode} worker exited {proc.returncode}:\n"
                             f"{proc.stderr[-3000:]}")
        lines = proc.stdout.strip().splitlines()
        if not lines:
            raise BenchError(f"{mode} worker printed no result")
        return json.loads(lines[-1])


def ops_of(*results) -> list[dict]:
    return [r for res in results for p in res["passes"] for r in p["ops"]]


def untraced(run: Runner, seconds: float) -> tuple[dict, dict, dict]:
    setups = [run.worker("setup")["setup_s"] for _ in range(SETUP_SAMPLES - 1)]
    main = run.worker("run", seconds)
    setups.append(main["setup_s"])
    passes = main["passes"]
    pass_times = [p["seconds"] for p in passes]
    metrics = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(pass_times),
        "op_s": statistics.median(per_pass_mean(passes, PRIMARY[run.workload])),
        "peak_rss_mb": main["peak_rss_mb"],
    }
    report = {"setup_s": {"samples": setups}, "pass_s": {"samples": pass_times}}
    for kind, name in OP_METRICS.items():
        means = per_pass_mean(passes, kind)
        if means:
            samples = [r["seconds"] for r in ops_of(main) if r["kind"] == kind]
            report[name] = {"median": statistics.median(means),
                            "samples": samples}
    return metrics, report, main


def count_mismatch(a: dict, b: dict) -> dict:
    """Every count that differs between two traced runs, as (a, b)."""
    return {k: (a.get(k), b.get(k)) for k in sorted(set(a) | set(b))
            if a.get(k) != b.get(k)}


def traced(run: Runner) -> tuple[dict, dict, dict, dict]:
    stem = OUT / f"{run.workload}-seed{run.seed}"
    a = run.worker("trace", spans=stem.with_name(stem.name + "-spans-a.npz"))
    b = run.worker("trace-repeat",
                   spans=stem.with_name(stem.name + "-spans-b.npz"))
    metrics = dict(a["layers"])
    metrics["trace.overhead_frac"] = (a["traced_pass_s"] / a["untraced_pass_s"]
                                      - 1.0)
    metrics["trace.span_cost_us"] = a["span_cost_us"]
    report = {"traced_pass_s": a["traced_pass_s"],
              "untraced_pass_s": a["untraced_pass_s"],
              "count_mismatch": count_mismatch(a["counts"], b["counts"])}
    return metrics, report, a, b


def fmt(x) -> str:
    return f"{x:.6g}" if isinstance(x, float) else str(x)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=sorted(PRIMARY))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "nlsground" / "__init__.py").is_file():
        print(f"error: no nlsground sources under {root / 'src'}; run from "
              "the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    OUT.mkdir(parents=True, exist_ok=True)
    run = Runner(root, args.workload, args.seed)
    try:
        if args.trace:
            metrics, report, *results = traced(run)
        else:
            metrics, report, *results = untraced(run, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    ops = ops_of(*results)
    failures = [f"{r['label']}: {r['error']}" for r in ops if r["error"]]
    env = results[0]["env"]
    problems = list(failures)
    if args.trace and report["count_mismatch"]:
        problems.append(f"counts differ between two traced runs: "
                        f"{report['count_mismatch']}")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"passes {sum(len(r['passes']) for r in results)}")
    print("env " + json.dumps(env, sort_keys=True))
    for name, row in report.items():
        if isinstance(row, dict) and "samples" in row:
            tail = tail_percentile(row["samples"])
            med = row.get("median", statistics.median(row["samples"]))
            extra = f"  p{tail[0]} {fmt(tail[1])}" if tail else ""
            print(f"  {name:<16} median {fmt(med)} s{extra}  "
                  f"n={len(row['samples'])}")
        elif name != "count_mismatch":
            print(f"  {name:<16} {fmt(row)}")
    for name in sorted(metrics):
        target = TARGETS[GROUP[name]] if args.trace else ""
        print(f"  {name:<30} {fmt(metrics[name]):<12} {target}")
    print(f"  failed_frac {len(failures)}/{len(ops)} = "
          f"{len(failures) / len(ops):.6g}")
    for p in problems:
        print(f"error: {p}", file=sys.stderr)

    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not measured: {missing}", file=sys.stderr)
        return 1
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"metrics": metrics, "report": report, "env": env,
                    "failures": failures}, indent=1, default=str))
    print(json.dumps({
        "correct": not problems,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
