"""Coupling-strength sweep and empirical threshold location.

Beyond a finite coupling strength the ground state stops being a scalar
pair and both components switch on.  Two instruments locate that
transition: an analytic upper-bound comparison (the projected energy of
the unprojected scalar pair against the best scalar action — a sufficient
condition for the vector regime, since the pair is an admissible
competitor), and the solver itself, swept over a β grid and refined by
bisection on the returned kind.  The bound crossing and the observed kind
transition need not coincide: the pair is not the optimal vector
competitor, so its crossing happens later.  Both are reported; neither is
claimed sharp.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .coupled import Kind, SolveConfig, scalar_baselines, solve_coupled
from .energy import EnergyParams, projected_energy
from .errors import InvalidBracket, NumericalError
from .grid import RadialGrid, State
from .scalar import ScalarGroundState
from .scalar import solve_scalar  # noqa: F401  bound for perfbench tracer.PLAN

__all__ = ["SweepRow", "SweepResult", "compare_energies", "sweep",
           "bisect_beta0"]


@dataclass(frozen=True)
class SweepRow:
    beta: float
    m: float
    kind: Kind | None
    scalar_min: float
    lhs_bound: float
    vector_beats_scalar: bool
    error: str | None = None


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    beta0_bracket: tuple[float, float] | None


def compare_energies(params: EnergyParams, u0: ScalarGroundState,
                     v0: ScalarGroundState, grid: RadialGrid,
                     ) -> tuple[float, float, bool]:
    """Upper bound for the ground energy from the scalar pair vs. scalar best.

    The pair (u₀, v₀) has W > 0 (each factor alone does), so its dilation
    ray crosses the manifold and the projected energy bounds the ground
    energy from above.  When that bound undercuts every scalar action the
    minimizer cannot be scalar.
    """
    pair = State(u0.profile, v0.profile)
    lhs = projected_energy(pair, params)
    rhs = min(u0.action, v0.action)
    return lhs, rhs, lhs < rhs


def sweep(params_base: EnergyParams, beta_list: list[float], grid: RadialGrid,
          cfg: SolveConfig = SolveConfig()) -> SweepResult:
    """Solve for each β in turn, reusing the β-independent scalar baselines.

    A failed row (solver exception) is recorded with its message and NaN
    energy instead of aborting the remaining rows.
    """
    if any(b <= 0.0 for b in beta_list):
        raise ValueError("beta values must be positive")
    if sorted(beta_list) != list(beta_list):
        raise ValueError("beta_list must be sorted ascending")
    if not beta_list:
        return SweepResult(rows=(), beta0_bracket=None)

    base_u, base_v = scalar_baselines(params_base, grid)
    scalar_min = min(base_u.action, base_v.action)

    rows: list[SweepRow] = []
    for beta in beta_list:
        params = EnergyParams(params_base.f, params_base.g, beta)
        lhs, _, _ = compare_energies(params, base_u, base_v, grid)
        try:
            gs = solve_coupled(params, grid, cfg, baselines=(base_u, base_v))
        except NumericalError as exc:
            rows.append(SweepRow(beta=beta, m=math.nan, kind=None,
                                 scalar_min=scalar_min, lhs_bound=lhs,
                                 vector_beats_scalar=False, error=str(exc)))
            continue
        rows.append(SweepRow(
            beta=beta, m=gs.m, kind=gs.kind, scalar_min=scalar_min,
            lhs_bound=lhs,
            vector_beats_scalar=gs.m < scalar_min - 1e-9))

    bracket = None
    prev = None
    for row in rows:
        if row.kind is None:
            continue
        if prev is not None and ((prev.kind is Kind.VECTOR)
                                 != (row.kind is Kind.VECTOR)):
            bracket = (prev.beta, row.beta)
            break
        prev = row
    return SweepResult(rows=tuple(rows), beta0_bracket=bracket)


def bisect_beta0(params_base: EnergyParams, bracket: tuple[float, float],
                 tol: float, grid: RadialGrid,
                 cfg: SolveConfig = SolveConfig()) -> float:
    """Bisect the solver's kind transition inside `bracket` to width `tol`."""
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise InvalidBracket(f"need 0 < lo < hi, got ({lo}, {hi})")
    if not tol > 0.0:
        raise InvalidBracket("tol must be positive")

    base_u, base_v = scalar_baselines(params_base, grid)

    def kind_at(beta: float) -> bool:
        params = EnergyParams(params_base.f, params_base.g, beta)
        return solve_coupled(params, grid, cfg,
                             baselines=(base_u, base_v)).kind is Kind.VECTOR

    klo = kind_at(lo)
    khi = kind_at(hi)
    if klo == khi:
        raise InvalidBracket(
            f"endpoints agree (vector={klo}); no transition inside ({lo}, {hi})")
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if kind_at(mid) == klo:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
