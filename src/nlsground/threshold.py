"""Coupling-strength sweep and empirical threshold location.

Beyond a finite coupling strength the ground state stops being a scalar
pair and both components switch on.  Two instruments locate that
transition: an analytic upper-bound comparison (the projected energy of
the unprojected scalar pair against the best scalar action — a sufficient
condition for the vector regime, since the pair is an admissible
competitor), and the solver itself, swept over a β grid.  The ground
state is the least-action state on the manifold, so inside a bracket
whose end solves differ in kind the transition β₀ is the energy crossing
m_vec(β) = S of the vector branch with the least scalar action;
`bisect_beta0` continues the certified vector state in β and runs a
safeguarded secant on that difference.  The bound crossing and the
observed transition need not coincide: the pair is not the optimal vector
competitor, so its crossing happens later.  Both are reported; the bound
is not claimed sharp.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .coupled import (Kind, SolveConfig, _coupled_newton, _judge,
                      scalar_baselines, solve_coupled)
from .energy import EnergyParams, projected_energy
from .errors import InvalidBracket, NoConvergence, NumericalError, ZeroState
from .grid import RadialGrid, State
from .scalar import ScalarGroundState
from .scalar import solve_scalar  # noqa: F401  bound for perfbench tracer.PLAN

__all__ = ["SweepRow", "SweepResult", "compare_energies", "sweep",
           "bisect_beta0"]

MAX_STEPS = 64         # branch steps before `bisect_beta0` gives up


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
    if not all(0.0 < b < math.inf for b in beta_list):
        raise ValueError("beta values must be positive and finite")
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
    """β₀ where the vector branch's action m_vec(β) crosses S = min(S_f, S_g).

    Full solves at the two ends of `bracket` must disagree on the kind;
    they confirm the transition.  The vector end's state is then continued
    in β: each branch step runs `_coupled_newton` at the trial β from the
    nearest certified branch state, then `coupled._judge` (settle, `certify`,
    `classify`).  Steps are certified but not gated on Morse index: the
    cubic branch has index 2 below β = 1.  A safeguarded secant on
    m_vec(β) − S through the last two branch states picks each trial β; a
    secant point outside the bracket, or a lack of two states, bisects it.
    A step that raises, fails the certificate or leaves the vector kind
    counts as the non-vector side.  `tol` bounds the secant's β step and
    the bracket width: the search returns its next trial β once either is
    ≤ `tol`.
    """
    lo, hi = bracket
    if not (0.0 < lo < hi < math.inf):
        raise InvalidBracket(f"need 0 < lo < hi < inf, got ({lo}, {hi})")
    if not tol > 0.0:
        raise InvalidBracket("tol must be positive")

    base_u, base_v = scalar_baselines(params_base, grid)
    scalar_min = min(base_u.action, base_v.action)

    def at(beta: float) -> EnergyParams:
        return EnergyParams(params_base.f, params_base.g, beta)

    ends = [solve_coupled(at(b), grid, cfg, baselines=(base_u, base_v))
            for b in (lo, hi)]
    klo, khi = (gs.kind is Kind.VECTOR for gs in ends)
    if klo == khi:
        raise InvalidBracket(
            f"endpoints agree (vector={klo}); no transition inside ({lo}, {hi})")
    # the bracket as (non-vector side, vector side); branch: (β, state, m − S)
    b_s, b_v = (lo, hi) if khi else (hi, lo)
    start = ends[1] if khi else ends[0]
    branch = [(b_v, start.state, start.m - scalar_min)]

    def branch_step(beta: float) -> float | None:
        """m_vec(β) − S from a certified vector step, else None."""
        params = at(beta)
        _, seed, _ = min(branch, key=lambda p: abs(p[0] - beta))
        try:
            gs = _judge(_coupled_newton(seed, params), params, 0)
        except (NumericalError, ZeroState):
            return None
        if gs.kind is not Kind.VECTOR:
            return None
        gap = gs.m - scalar_min
        branch.append((beta, gs.state, gap))
        return gap

    last = b_v
    for _ in range(MAX_STEPS):
        trial = math.nan
        if len(branch) >= 2:
            (b1, _, g1), (b2, _, g2) = branch[-2:]
            if g1 != g2:
                trial = b2 - g2 * (b2 - b1) / (g2 - g1)
        if not min(b_s, b_v) < trial < max(b_s, b_v):
            trial = 0.5 * (b_s + b_v)
        if abs(trial - last) <= tol or abs(b_v - b_s) <= tol:
            return trial
        gap = branch_step(trial)
        if gap == 0.0:     # the cubic's m_vec(1) can equal S to the last bit
            return trial
        last = trial
        if gap is not None and gap < 0.0:
            b_v = trial
        else:
            b_s = trial
    raise NoConvergence(f"no β step or bracket ≤ {tol:g} after {MAX_STEPS} "
                        f"branch steps; bracket ({min(b_s, b_v)}, "
                        f"{max(b_s, b_v)})")
