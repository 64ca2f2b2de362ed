"""Span tracer that measures nlsground's layers from outside the package.

Each traced function is wrapped by rebinding the name that the *calling*
module looks up (``from x import f`` makes a separate binding in every
importer, so each importer's binding is wrapped on its own).  Nothing under
``src/`` changes.  Spans (name, start, end, parent) and counters live in
memory; ``save`` writes them out once the run is over.

A layer is the prefix of a span name: ``cli``, ``config``, ``scalar``,
``coupled``, ``energy``, ``grid``, ``nonlinearity``, ``threshold``, and
``linalg`` for scipy's ``solve_banded``.  ``errors`` does no work.
"""
from __future__ import annotations

import functools
import importlib
import json
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("cli", "config", "scalar", "coupled", "energy", "grid",
          "nonlinearity", "threshold", "linalg")


def _banded_name(args, kwargs):
    l_and_u = args[0] if args else kwargs["l_and_u"]
    return f"linalg.banded_{l_and_u[0]}_{l_and_u[1]}"


def _count_descent_iters(tracer, out):
    tracer.counts["coupled.descent_iters"] += out[1]


def _count_starts(tracer, out):
    tracer.counts["coupled.starts"] += len(out)


# (module, attribute, span name or name function, hook on the return value)
PLAN = (
    ("cli", "main", "cli.main", None),
    ("cli", "load_config", "config.load", None),
    ("cli", "write_state_csv", "grid.csv_write", None),
    ("cli", "write_profile_csv", "grid.csv_write", None),
    ("cli", "state_from_csv", "grid.csv_read", None),
    ("cli", "solve_scalar", "scalar.solve", None),
    ("cli", "solve_coupled", "coupled.solve", None),
    ("cli", "certify", "coupled.certify", None),
    ("cli", "energy_report", "energy.report", None),
    ("cli", "sweep", "threshold.sweep", None),
    ("threshold", "sweep", "threshold.sweep", None),
    ("threshold", "bisect_beta0", "threshold.bisect", None),
    ("threshold", "solve_coupled", "coupled.solve", None),
    ("threshold", "solve_scalar", "scalar.solve", None),
    ("coupled", "solve_coupled", "coupled.solve", None),
    ("coupled", "solve_scalar", "scalar.solve", None),
    ("coupled", "certify", "coupled.certify", None),
    ("coupled", "classify", "coupled.classify", None),
    ("coupled", "_initial_states", "coupled.init", _count_starts),
    ("coupled", "_descend", "coupled.descent", _count_descent_iters),
    ("coupled", "_phi_gradient", "coupled.gradient", None),
    ("coupled", "_precondition", "coupled.precondition", None),
    ("coupled", "_coupled_newton", "coupled.newton", None),
    ("coupled", "_terms", "energy.terms", None),
    ("coupled", "residuals", "energy.residuals", None),
    ("coupled", "project_pohozaev", "energy.project", None),
    ("coupled", "energy_report", "energy.report", None),
    ("coupled", "eval_f", "nonlinearity.eval", None),
    ("coupled", "eval_df", "nonlinearity.eval", None),
    ("coupled", "solve_banded", _banded_name, None),
    ("scalar", "solve_scalar", "scalar.solve", None),
    ("scalar", "_bisect_amplitude", "scalar.shoot", None),
    ("scalar", "_integrate", "scalar.rk4", None),
    ("scalar", "_newton_polish", "scalar.polish", None),
    ("scalar", "residuals", "energy.residuals", None),
    ("scalar", "eval_f", "nonlinearity.eval", None),
    ("scalar", "eval_df", "nonlinearity.eval", None),
    ("scalar", "solve_banded", _banded_name, None),
    ("energy", "_terms", "energy.terms", None),
    ("energy", "residuals", "energy.residuals", None),
    ("energy", "eval_f", "nonlinearity.eval", None),
    ("energy", "eval_F", "nonlinearity.eval", None),
    ("grid", "Profile.__post_init__", "grid.profile", None),
)


def _resolve(module: str, attr: str):
    owner = importlib.import_module(f"nlsground.{module}")
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Records spans and counters while its wrappers are installed."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counts: dict[str, int] = {"coupled.descent_iters": 0,
                                       "coupled.starts": 0}
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _wrapper(self, orig, name, hook):
        fixed = None if callable(name) else self._id(name)
        stack = self._stack
        name_id, parent, start, end = (self.name_id, self.parent,
                                       self.start, self.end)

        @functools.wraps(orig)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_id.append(fixed if fixed is not None
                           else self._id(name(args, kwargs)))
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = orig(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(self, out)
            return out
        return wrapper

    # -- installation ---------------------------------------------------
    def install(self, plan=PLAN) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        for module, attr, name, hook in plan:
            owner, key = _resolve(module, attr)
            orig = getattr(owner, key)
            self._patches.append((owner, key, orig))
            setattr(owner, key, self._wrapper(orig, name, hook))

    def uninstall(self) -> None:
        """Restore every original binding, then verify that each holds."""
        for owner, key, orig in reversed(self._patches):
            setattr(owner, key, orig)
        stale = [f"{getattr(o, '__name__', o)}.{k}"
                 for o, k, orig in self._patches if getattr(o, k) is not orig]
        self._patches.clear()
        if stale:
            raise RuntimeError(f"tracer wrappers left in place: {stale}")

    # -- analysis -------------------------------------------------------
    def table(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive seconds, self seconds."""
        n = len(self.start)
        nid = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        par = np.frombuffer(self.parent, dtype=np.int32, count=n)
        dur = (np.frombuffer(self.end, count=n)
               - np.frombuffer(self.start, count=n))
        has = par >= 0
        child = np.bincount(par[has], weights=dur[has], minlength=n)
        own = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        selft = np.bincount(nid, weights=own, minlength=k)
        return {name: {"calls": int(calls[i]), "s": float(total[i]),
                       "self_s": float(selft[i])}
                for i, name in enumerate(self.names)}

    def calls_under(self, child: str, parents: tuple[str, ...]) -> int:
        """Number of `child` spans whose direct parent is one of `parents`."""
        if child not in self._ids:
            return 0
        n = len(self.start)
        nid = np.frombuffer(self.name_id, dtype=np.int32, count=n)
        par = np.frombuffer(self.parent, dtype=np.int32, count=n)
        pids = [self._ids[p] for p in parents if p in self._ids]
        mine = (nid == self._ids[child]) & (par >= 0)
        return int(np.isin(nid[par[mine]], pids).sum())

    def save(self, path) -> None:
        n = len(self.start)
        np.savez_compressed(
            path, names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.int32, count=n),
            parent=np.frombuffer(self.parent, dtype=np.int32, count=n),
            start=np.frombuffer(self.start, count=n),
            end=np.frombuffer(self.end, count=n),
            counts=np.array(json.dumps(self.counts)))


def span_cost_us(calls: int = 200_000) -> float:
    """Microseconds one traced call adds, measured on a function doing nothing."""
    def noop():
        return None

    wrapped = Tracer()._wrapper(noop, "trace.noop", None)
    t = perf_counter()
    for _ in range(calls):
        noop()
    raw = perf_counter() - t
    t = perf_counter()
    for _ in range(calls):
        wrapped()
    return 1e6 * (perf_counter() - t - raw) / calls


def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every per-layer number the traced run reports, keyed by metric name."""
    t = tr.table()

    def s(name):
        return t.get(name, {}).get("s", 0.0)

    def calls(name):
        return t.get(name, {}).get("calls", 0)

    c = tr.counts
    descents = calls("coupled.descent")
    trials = tr.calls_under("energy.terms", ("coupled.descent",)) - descents
    iters = c["coupled.descent_iters"]
    kept = tr.calls_under("coupled.classify", ("coupled.solve",))
    banded = ("linalg.banded_1_1", "linalg.banded_2_2")
    m = {
        "scalar.solve_s": s("scalar.solve"),
        "scalar.shoot_s": s("scalar.shoot"),
        "scalar.rk4_runs": calls("scalar.rk4"),
        "scalar.polish_s": s("scalar.polish"),
        "scalar.polish_iters": tr.calls_under("linalg.banded_1_1",
                                              ("scalar.polish",)),
        "coupled.solve_s": s("coupled.solve"),
        "coupled.descent_s": s("coupled.descent"),
        "coupled.descent_iters": iters,
        "coupled.descent_iter_ms": (1e3 * s("coupled.descent") / iters
                                    if iters else 0.0),
        "coupled.armijo_trials": trials,
        "coupled.armijo_accept_ratio": iters / trials if trials else 0.0,
        "coupled.gradient_s": s("coupled.gradient"),
        "coupled.precondition_s": s("coupled.precondition"),
        "coupled.starts": c["coupled.starts"],
        "coupled.starts_kept": kept,
        "coupled.start_yield": (kept / c["coupled.starts"]
                                if c["coupled.starts"] else 0.0),
        "coupled.newton_s": s("coupled.newton"),
        "coupled.newton_iters": tr.calls_under("linalg.banded_2_2",
                                               ("coupled.newton",)),
        "coupled.certify_s": s("coupled.certify"),
        "coupled.certify_calls": calls("coupled.certify"),
        "threshold.solves": tr.calls_under(
            "coupled.solve", ("threshold.sweep", "threshold.bisect")),
        "threshold.scalar_solves": tr.calls_under(
            "scalar.solve", ("threshold.sweep", "threshold.bisect")),
        "energy.terms_s": s("energy.terms"),
        "energy.terms_calls": calls("energy.terms"),
        "energy.residuals_s": s("energy.residuals"),
        "energy.project_s": s("energy.project"),
        "nonlinearity.eval_s": s("nonlinearity.eval"),
        "nonlinearity.eval_calls": calls("nonlinearity.eval"),
        "grid.profiles_built": calls("grid.profile"),
        "grid.csv_write_s": s("grid.csv_write"),
        "grid.csv_read_s": s("grid.csv_read"),
        "config.load_s": s("config.load"),
        "cli.main_s": s("cli.main"),
        "linalg.banded_s": sum(s(b) for b in banded),
        "linalg.banded_calls": sum(calls(b) for b in banded),
        "linalg.banded11_s": s("linalg.banded_1_1"),
        "linalg.banded11_calls": calls("linalg.banded_1_1"),
        "linalg.banded22_s": s("linalg.banded_2_2"),
        "linalg.banded22_calls": calls("linalg.banded_2_2"),
        "trace.spans": len(tr.start),
    }
    for layer in LAYERS:
        m[f"{layer}.self_s"] = sum(row["self_s"] for name, row in t.items()
                                   if name.split(".", 1)[0] == layer)
    return m


# The end-to-end metric each per-layer metric should move, on which workload.
TARGETS = {
    "scalar": ("cli_coupled_s on cli-far and setup_s on coupled-near; "
               "sweep_s and bisect_s by at most about 0.5 s each; "
               "not solve_s"),
    "descent": ("solve_s on coupled-near, then bisect_s on threshold; "
                "cli_coupled_s only a little"),
    "starts": ("sweep_s and bisect_s on threshold; nothing on coupled-near"),
    "polish": ("cli_coupled_s on cli-far; bisect_s through continuation"),
    "inner": "solve_s on coupled-near",
    "linalg": ("solve_s on coupled-near; also shows whether the "
               "preconditioner is still refactored every iteration"),
    "io": "pass_s on cli-far only",
    "self": "the end-to-end metrics of the layers above, where that layer works",
    "trace": "nothing: the cost of tracing itself",
}
GROUP = {
    "scalar.solve_s": "scalar", "scalar.shoot_s": "scalar",
    "scalar.rk4_runs": "scalar", "scalar.polish_s": "scalar",
    "scalar.polish_iters": "scalar",
    "coupled.solve_s": "descent", "coupled.descent_s": "descent",
    "coupled.descent_iters": "descent", "coupled.descent_iter_ms": "descent",
    "coupled.armijo_trials": "descent",
    "coupled.armijo_accept_ratio": "descent",
    "coupled.gradient_s": "descent", "coupled.precondition_s": "descent",
    "coupled.starts": "starts", "coupled.starts_kept": "starts",
    "coupled.start_yield": "starts", "threshold.solves": "starts",
    "threshold.scalar_solves": "starts",
    "coupled.newton_s": "polish", "coupled.newton_iters": "polish",
    "energy.project_s": "polish", "coupled.certify_s": "polish",
    "coupled.certify_calls": "polish",
    "energy.terms_s": "inner", "energy.terms_calls": "inner",
    "energy.residuals_s": "inner", "nonlinearity.eval_s": "inner",
    "nonlinearity.eval_calls": "inner", "grid.profiles_built": "inner",
    "linalg.banded_s": "linalg", "linalg.banded_calls": "linalg",
    "linalg.banded11_s": "linalg", "linalg.banded11_calls": "linalg",
    "linalg.banded22_s": "linalg", "linalg.banded22_calls": "linalg",
    "grid.csv_write_s": "io", "grid.csv_read_s": "io",
    "config.load_s": "io", "cli.main_s": "io",
    "trace.spans": "trace", "trace.overhead_frac": "trace",
    "trace.span_cost_us": "trace",
    **{f"{layer}.self_s": "self" for layer in LAYERS},
}
