"""Command-line front end.

Exit codes are part of the contract: 0 success, 1 configuration or I/O
error, 2 numerical failure, 3 certification failure, 4 partial results
(some sweep rows failed).  Commands raise; `main` alone maps each failure
to its code.  All files are written atomically (temp + rename) so
a crashed run never leaves a half-written CSV behind.
"""
from __future__ import annotations

import argparse
import os
import sys
import tempfile
from pathlib import Path

from .config import RunConfig, load_config
from .coupled import certify, solve_coupled
from .energy import EnergyParams, energy_report, morse_index
from .errors import CertificationFailure, ConfigError, NumericalError
from .grid import (Profile, State, state_from_csv, write_profile_csv,
                   write_state_csv)
from .scalar import solve_scalar
from .threshold import SweepResult, sweep

__all__ = ["main"]

_EXIT_OK = 0
_EXIT_CONFIG = 1
_EXIT_NUMERIC = 2
_EXIT_CERT = 3
_EXIT_PARTIAL = 4


def _fmt(x: float) -> str:
    return format(x, ".17g")


def _atomic_write(path: Path, write) -> None:
    """Run `write(tmp_path)` on a temp file beside `path`, then rename it in.

    On any failure the temp file is removed, so no `*.tmp` is left behind.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    os.close(fd)
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def cmd_scalar(cfg: RunConfig) -> int:
    gs = solve_scalar(cfg.f, cfg.grid)
    out = cfg.output_dir
    _atomic_write(out / "u0.csv", lambda p: write_profile_csv(gs.profile, p))
    params = EnergyParams(cfg.f, cfg.f, 0.0)
    state = State(gs.profile, Profile.zero(cfg.grid))
    rep = energy_report(state, params)
    body = "\n".join([rep.lines(),
                      f"center_value={_fmt(gs.center_value)}",
                      f"action={_fmt(gs.action)}"]) + "\n"
    _atomic_write(out / "u0.report", lambda p: Path(p).write_text(body))
    print(f"a={_fmt(gs.center_value)} action={_fmt(gs.action)} "
          f"residual={_fmt(gs.residual)}")
    return _EXIT_OK


def cmd_coupled(cfg: RunConfig) -> int:
    if cfg.beta is None:
        raise ConfigError("beta is required for the coupled command")
    params = EnergyParams(cfg.f, cfg.g, cfg.beta)
    gs = solve_coupled(params, cfg.grid, cfg.solver)
    rep = certify(gs, params)   # before any write: exit 3 leaves no state
    out = cfg.output_dir
    _atomic_write(out / "state.csv", lambda p: write_state_csv(gs.state, p))
    body = "\n".join([rep.lines(),
                      f"kind={gs.kind.value}",
                      f"m={_fmt(gs.m)}",
                      f"iterations={gs.iterations}"]) + "\n"
    _atomic_write(out / "state.report", lambda p: Path(p).write_text(body))
    print(f"kind={gs.kind.value} m={_fmt(gs.m)} beta={_fmt(cfg.beta)}")
    return _EXIT_OK


def _write_sweep_csv(res: SweepResult, path) -> None:
    lines = ["beta,m,kind,scalar_min,lhs_bound,beats"]
    for row in res.rows:
        kind = row.kind.value if row.kind is not None else "failed"
        lines.append(",".join([
            _fmt(row.beta), _fmt(row.m), kind, _fmt(row.scalar_min),
            _fmt(row.lhs_bound), str(row.vector_beats_scalar).lower(),
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def cmd_sweep(cfg: RunConfig) -> int:
    if not cfg.beta_list:
        raise ConfigError("a non-empty beta_list is required for sweep")
    params = EnergyParams(cfg.f, cfg.g, cfg.beta_list[0])
    res = sweep(params, list(cfg.beta_list), cfg.grid, cfg.solver)
    _atomic_write(cfg.output_dir / "sweep.csv", lambda p: _write_sweep_csv(res, p))
    if res.beta0_bracket is not None:
        lo, hi = res.beta0_bracket
        print(f"bracket_lo={_fmt(lo)} bracket_hi={_fmt(hi)}")
    else:
        print("bracket=none")
    failed = [r for r in res.rows if r.kind is None]
    for r in failed:
        print(f"row beta={_fmt(r.beta)} failed: {r.error}", file=sys.stderr)
    return _EXIT_PARTIAL if failed else _EXIT_OK


def cmd_check(cfg: RunConfig, state_csv: str) -> int:
    try:
        state = state_from_csv(state_csv, cfg.grid)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read state {state_csv}: {exc}") from exc
    # β multiplies only terms that a zero component makes vanish
    if cfg.beta is None and all(c.any() for c in state.values):
        raise ConfigError("beta is required to check a two-component state")
    beta = cfg.beta if cfg.beta is not None else 0.0
    params = EnergyParams(cfg.f, cfg.g, beta)
    print(energy_report(state, params).lines())
    certify(state, params)
    # a ground state has index 1
    index = morse_index(state.grid, state.values, params)
    print(f"morse_index={index}")
    if index != 1:
        raise CertificationFailure("morse_index", f"index {index}, want 1")
    return _EXIT_OK


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nlsground",
        description="Radial ground states of a coupled nonlinear "
                    "Schrödinger system via Pohozaev-constrained "
                    "minimization.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in [
        ("scalar", "solve the single-component equation"),
        ("coupled", "solve the coupled system at one beta"),
        ("sweep", "solve across beta_list and report the kind transition"),
        ("check", "certify a stored state CSV and require Morse index 1"),
    ]:
        p = sub.add_parser(name, help=doc)
        p.add_argument("config", help="path to a key = value config file")
        if name == "check":
            p.add_argument("state_csv", help="path to a stored state CSV")
    args = parser.parse_args(argv)

    # the one failure-to-exit-code mapping; CertificationFailure is a
    # NumericalError, so it is caught first
    try:
        cfg = load_config(args.config)
        if args.command == "scalar":
            return cmd_scalar(cfg)
        if args.command == "coupled":
            return cmd_coupled(cfg)
        if args.command == "sweep":
            return cmd_sweep(cfg)
        return cmd_check(cfg, args.state_csv)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_CONFIG
    except CertificationFailure as exc:
        print(f"certification failed: {exc}", file=sys.stderr)
        return _EXIT_CERT
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())
