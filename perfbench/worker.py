"""One benchmark process: set up a workload, then run and time its passes.

Started by run.py in a fresh interpreter, with PYTHONPATH pointing at the
checkout's ``src`` and the BLAS/OpenMP thread variables pinned to 1.
Prints one JSON object as the last line of its standard output.

Modes:
  setup         set up once and report the set-up time
  run           set up, then run passes until --seconds is used up
  trace         trace set-up and one pass, remove the wrappers, then run
                one untraced pass for the tracing overhead
  trace-repeat  trace set-up and one pass only (for the count check)
"""
from time import perf_counter

T0 = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402  (imports nlsground: part of set-up)
from run import THREAD_VARS  # noqa: E402


def run_pass(wl, rng: random.Random) -> dict:
    """Time each operation of one pass; oracles are applied later."""
    records = []
    for op in wl.ops(rng):
        t = perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:  # a failed operation is a measured outcome
            result, error = None, f"{type(exc).__name__}: {exc}"
        seconds = perf_counter() - t
        obs = None
        if error is None:
            try:
                obs = op.observe(result)
            except Exception as exc:  # unreadable output fails the operation
                error = f"observe: {type(exc).__name__}: {exc}"
        records.append({"kind": op.kind, "label": op.label,
                        "seconds": seconds, "error": error, "obs": obs})
    return {"seconds": sum(r["seconds"] for r in records), "ops": records}


def judge(wl, passes: list[dict]) -> None:
    for p in passes:
        for rec in p["ops"]:
            if rec["error"] is None:
                try:
                    rec["error"] = wl.judge(rec["kind"], rec["label"], rec["obs"])
                except Exception as exc:  # a malformed output fails its oracle
                    rec["error"] = f"judge: {type(exc).__name__}: {exc}"


def run_timed(wl, rng: random.Random, seconds: float) -> list[dict]:
    """Passes until another one, as long as the longest so far, would overrun."""
    start = perf_counter()
    passes: list[dict] = []
    longest = 0.0
    while True:
        passes.append(run_pass(wl, rng))
        longest = max(longest, passes[-1]["seconds"])
        if perf_counter() - start + longest > seconds:
            return passes


def counts_of(tr: tracing.Tracer, layers: dict) -> dict:
    """Everything the count-determinism check compares exactly."""
    calls = {f"calls:{k}": v["calls"] for k, v in tr.table().items()}
    whole = {k: v for k, v in layers.items() if isinstance(v, int)}
    return {**calls, **whole}


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS this process has loaded (Linux only)."""
    import ctypes
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    libs = sorted({line.split()[-1] for line in maps.splitlines()
                   if "openblas" in line.rsplit("/", 1)[-1].lower()})
    found = {}
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def execute(name: str, seed: int, seconds: float, mode: str, workdir: Path,
            spans: Path | None = None, cfg=None, t0: float = T0) -> dict:
    """Run one worker mode in this process and return its result."""
    wl = workloads.WORKLOADS[name](workdir, cfg)
    rng = random.Random(seed)
    tr = None
    if mode in ("trace", "trace-repeat"):
        tr = tracing.Tracer()
        tr.install()
    try:
        wl.setup()
        setup_s = perf_counter() - t0
        if mode == "setup":
            return {"setup_s": setup_s}
        if mode == "run":
            passes = run_timed(wl, rng, seconds)
        else:
            passes = [run_pass(wl, rng)]
    finally:
        if tr is not None:
            tr.uninstall()
    result = {"setup_s": setup_s}
    if tr is not None:
        layers = tracing.layer_metrics(tr)
        result.update(layers=layers, counts=counts_of(tr, layers),
                      traced_pass_s=passes[0]["seconds"],
                      span_cost_us=tracing.span_cost_us())
        if spans is not None:
            tr.save(spans)
        del tr
        if mode == "trace":
            passes.append(run_pass(wl, rng))
            result["untraced_pass_s"] = passes[-1]["seconds"]
    judge(wl, passes)
    result["passes"] = passes
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                             / 1024.0)
    return result


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True,
                    choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", required=True,
                    choices=("setup", "run", "trace", "trace-repeat"))
    ap.add_argument("--workdir", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args(argv)
    try:
        result = execute(args.workload, args.seed, args.seconds, args.mode,
                         args.workdir, args.spans)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)
    if args.mode != "setup":
        result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
