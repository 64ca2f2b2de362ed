"""Flat `key = value` run configuration with strict key checking.

The format is deliberately dumb: one assignment per line, `#` comments,
dotted key prefixes instead of sections, Python literals for values (bare
words are taken as strings).  Unknown keys are rejected rather than
ignored — config typos must fail loudly, not silently run defaults.
"""
from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from pathlib import Path

from .coupled import SolveConfig
from .errors import ConfigError
from .grid import RadialGrid
from .nonlinearity import Nonlinearity, cubic, log_enhanced, power_sum

__all__ = ["RunConfig", "parse_config", "load_config"]

_GRID_KEYS = {"grid.R", "grid.N"}
_NL_KEYS = {"family", "terms", "amplitude"}
_TOP_KEYS = {"beta", "beta_list", "seed", "output.dir"}


@dataclass(frozen=True)
class RunConfig:
    grid: RadialGrid
    f: Nonlinearity
    g: Nonlinearity
    beta: float | None
    beta_list: tuple[float, ...] | None
    output_dir: Path
    solver: SolveConfig


def _parse_value(raw: str):
    try:
        return ast.literal_eval(raw)
    except (ValueError, SyntaxError):
        word = raw.strip()
        if word and all(c.isalnum() or c in "_./-" for c in word):
            return word
        raise ConfigError(f"cannot parse value: {raw!r}") from None


def _parse_lines(text: str) -> dict[str, object]:
    pairs: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected `key = value`")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if not key:
            raise ConfigError(f"line {lineno}: empty key")
        if key in pairs:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        pairs[key] = _parse_value(raw)
    return pairs


def _build_nonlinearity(pairs: dict[str, object], prefix: str) -> Nonlinearity | None:
    sub = {k.split(".", 1)[1]: v for k, v in pairs.items()
           if k.startswith(prefix + ".")}
    if not sub:
        return None
    unknown = set(sub) - _NL_KEYS
    if unknown:
        raise ConfigError(f"unknown {prefix}.* keys: {sorted(unknown)}")
    family = sub.get("family")
    if family is None:
        raise ConfigError(f"{prefix}.family is required when {prefix}.* is set")
    try:
        if family == "power_sum":
            if "amplitude" in sub:
                raise ConfigError(f"{prefix}: power_sum takes no amplitude")
            terms = sub.get("terms")    # none: f = 0, with no ground state
            if not isinstance(terms, (list, tuple)) or not terms:
                raise ConfigError(f"{prefix}.terms must list at least one (a, p) pair")
            return power_sum([tuple(t) for t in terms])
        if family == "cubic":
            if "terms" in sub or "amplitude" in sub:
                raise ConfigError(f"{prefix}: cubic takes no extra keys")
            return cubic()
        if family == "log_enhanced":
            if "terms" in sub:
                raise ConfigError(f"{prefix}: log_enhanced takes no terms")
            return log_enhanced(sub.get("amplitude", 1.0))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ConfigError(f"{prefix}: {exc}") from exc
    raise ConfigError(f"{prefix}.family: unknown family {family!r}")


def parse_config(text: str) -> RunConfig:
    pairs = _parse_lines(text)
    known = _GRID_KEYS | _TOP_KEYS
    unknown = [k for k in pairs
               if k not in known
               and not k.startswith("f.") and not k.startswith("g.")]
    if unknown:
        raise ConfigError(f"unknown keys: {sorted(unknown)}")

    try:
        grid = RadialGrid(R=pairs.get("grid.R", 20.0),
                          N=pairs.get("grid.N", 4000))
    except (TypeError, ValueError, OverflowError, MemoryError) as exc:
        # MemoryError: an N too large to allocate, such as 10**15
        raise ConfigError(f"grid: {exc}") from exc

    f = _build_nonlinearity(pairs, "f")
    if f is None:
        raise ConfigError("f.family is required")
    g = _build_nonlinearity(pairs, "g")
    if g is None:
        g = f

    beta = pairs.get("beta")
    if beta is not None:
        if not isinstance(beta, (int, float)) or isinstance(beta, bool):
            raise ConfigError("beta must be a number")
        try:
            beta = float(beta)
        except OverflowError as exc:    # an int past the float range
            raise ConfigError(f"beta: {exc}") from exc
        if not math.isfinite(beta):
            raise ConfigError(f"beta must be finite, got {beta}")
        if not beta > 0.0:
            raise ConfigError(f"beta must be positive, got {beta}")
    beta_list = pairs.get("beta_list")
    if beta_list is not None:
        if (not isinstance(beta_list, (list, tuple))
                or not all(isinstance(b, (int, float)) and not isinstance(b, bool)
                           for b in beta_list)):
            raise ConfigError("beta_list must be a list of numbers")
        try:
            beta_list = tuple(float(b) for b in beta_list)
        except OverflowError as exc:
            raise ConfigError(f"beta_list: {exc}") from exc
        if not all(math.isfinite(b) for b in beta_list):
            raise ConfigError("beta_list entries must be finite")
        if any(b <= 0.0 for b in beta_list):
            raise ConfigError("beta_list entries must be positive")
        if sorted(beta_list) != list(beta_list):
            raise ConfigError("beta_list must be sorted ascending")

    try:
        solver = SolveConfig(seed=pairs.get("seed", 0))
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc

    return RunConfig(
        grid=grid, f=f, g=g, beta=beta, beta_list=beta_list,
        output_dir=Path(str(pairs.get("output.dir", "."))),
        solver=solver)


def load_config(path: str | Path) -> RunConfig:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return parse_config(text)
