"""Radial ground state of the single equation −Δw + w = f(w) on ℝ³.

Shooting in the radius: integrate w″ + (2/r)w′ − w + f(w) = 0 from
w(0) = a, w′(0) = 0 with fixed-step RK4 and classify the trajectory —
overshooting amplitudes cross zero, undershooting ones turn back up —
then bisect the amplitude between the two behaviors.  The converged
trajectory is sampled onto the solve grid and polished to the exact
discrete critical point by the coupled damped Newton iteration of
`nlsground.energy.newton`, run on the pair (w, 0) with β = 0, so the
returned profile satisfies the grid's own Euler–Lagrange equations to
roundoff rather than merely shadowing the continuum solution.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded  # noqa: F401  bound for perfbench tracer.PLAN

from .energy import EnergyParams, energy_I, newton, residuals
from .errors import (Blowup, BracketFailure, NoConvergence,
                     NonpositiveAmplitude)
from .grid import Profile, RadialGrid, State
from .nonlinearity import LOG_ENHANCED, POWER_SUM, Nonlinearity
from .nonlinearity import eval_df, eval_f  # noqa: F401  bound for perfbench tracer.PLAN

__all__ = ["ShootingConfig", "ScalarGroundState", "Outcome", "ShootResult",
           "shoot", "solve_scalar"]

DECAY_FLOOR = 1e-9
BLOWUP_LIMIT = 1e6
MAX_BISECT = 200       # cap on amplitude halvings; width 1e-12 takes about 45


@dataclass(frozen=True)
class ShootingConfig:
    """Amplitude bracket and ODE step for the shooting method.

    `ode_step` defaults to h/4 of the grid in play (20/16000 for a bare
    `shoot` call with no grid).  Trajectories are classified out to the
    grid's R (20 with no grid).
    """

    a_min: float = 0.1
    a_max: float = 50.0
    ode_step: float | None = None

    def __post_init__(self):
        if not (0.0 < self.a_min < self.a_max):
            raise ValueError("need 0 < a_min < a_max")
        if self.ode_step is not None and not self.ode_step > 0.0:
            raise ValueError("ode_step must be positive")


@dataclass(frozen=True)
class ScalarGroundState:
    profile: Profile
    center_value: float
    action: float
    residual: float


class Outcome(enum.Enum):
    CROSSES = "crosses"
    TURNS_UP = "turns_up"
    DECAYS = "decays"


@dataclass(frozen=True)
class ShootResult:
    outcome: Outcome
    radius: float | None = None


def _scalar_f(nl: Nonlinearity):
    """Pure-Python scalar f(t) closure (hot path of the RK4 loop)."""
    if nl.family == POWER_SUM:
        terms = nl.terms

        def f(t: float) -> float:
            s = 0.0
            for a, p in terms:
                s += a * abs(t) ** (p - 1.0) * t
            return s
    else:
        amp = nl.amplitude

        def f(t: float) -> float:
            t2 = t * t
            return amp * (t * math.log1p(t2) + t * t2 / (1.0 + t2))
    return f


def _integrate(nl: Nonlinearity, a: float, dt: float, r_max: float,
               record_every: int = 0):
    """RK4 march of (w, w') from r=0; returns (ShootResult, samples|None).

    With record_every = k > 0, w is recorded at steps 0, k, 2k, ... so that
    dt = h/k lands the samples exactly on grid nodes.
    """
    f = _scalar_f(nl)

    def accel(r: float, y: float, p: float) -> float:
        if r == 0.0:
            return (y - f(y)) / 3.0
        return -2.0 * p / r + y - f(y)

    n_steps = int(round(r_max / dt))
    y, p, r = a, 0.0, 0.0
    rec = [y] if record_every else None
    for k in range(1, n_steps + 1):
        k1y = p
        k1p = accel(r, y, p)
        rh = r + 0.5 * dt
        k2y = p + 0.5 * dt * k1p
        k2p = accel(rh, y + 0.5 * dt * k1y, k2y)
        k3y = p + 0.5 * dt * k2p
        k3p = accel(rh, y + 0.5 * dt * k2y, k3y)
        rf = r + dt
        k4y = p + dt * k3p
        k4p = accel(rf, y + dt * k3y, k4y)
        y += dt / 6.0 * (k1y + 2.0 * k2y + 2.0 * k3y + k4y)
        p += dt / 6.0 * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
        r = rf
        if abs(y) > BLOWUP_LIMIT:
            raise Blowup(f"|w({r:.3f})| > {BLOWUP_LIMIT:g} shooting from a={a}")
        if y <= 0.0:
            return ShootResult(Outcome.CROSSES, r), rec
        if p >= 0.0:
            return ShootResult(Outcome.TURNS_UP, r), rec
        if y < DECAY_FLOOR:
            return ShootResult(Outcome.DECAYS), rec
        if record_every and k % record_every == 0:
            rec.append(y)
    return ShootResult(Outcome.DECAYS), rec


def _effective(cfg: ShootingConfig, grid: RadialGrid | None):
    r_max = grid.R if grid is not None else 20.0
    dt = cfg.ode_step
    if dt is None:
        dt = (grid.h if grid is not None else 20.0 / 4000.0) / 4.0
    return dt, r_max


def shoot(nl: Nonlinearity, a: float, cfg: ShootingConfig = ShootingConfig()) -> ShootResult:
    """Classify the trajectory launched from w(0)=a: see module docstring."""
    if not a > 0.0:
        raise NonpositiveAmplitude(f"a={a}")
    dt, r_max = _effective(cfg, None)
    result, _ = _integrate(nl, a, dt, r_max)
    return result


def _bisect_amplitude(nl: Nonlinearity, cfg: ShootingConfig, dt: float,
                      r_max: float) -> float:
    def classify(a: float) -> Outcome:
        try:
            res, _ = _integrate(nl, a, dt, r_max)
        except Blowup:
            return Outcome.CROSSES    # too large an amplitude: an overshoot
        return res.outcome

    lo, hi = cfg.a_min, cfg.a_max
    out_lo, out_hi = classify(lo), classify(hi)
    if out_lo is Outcome.DECAYS:
        return lo
    if out_hi is Outcome.DECAYS:
        return hi
    if not (out_lo is Outcome.TURNS_UP and out_hi is Outcome.CROSSES):
        # scan for an adjacent (TurnsUp, Crosses) pair inside the bracket
        scan = np.geomspace(lo, hi, 25)
        outs = [classify(a) for a in scan]
        found = False
        for j in range(len(scan) - 1):
            if outs[j] is Outcome.DECAYS:
                return float(scan[j])
            if outs[j] is Outcome.TURNS_UP and outs[j + 1] is Outcome.CROSSES:
                lo, hi = float(scan[j]), float(scan[j + 1])
                found = True
                break
        else:
            if outs[-1] is Outcome.DECAYS:
                return float(scan[-1])
        if not found:
            raise BracketFailure(
                f"no TurnsUp/Crosses transition in [{cfg.a_min}, {cfg.a_max}]")
    for _ in range(MAX_BISECT):
        if hi - lo <= 1e-12 * hi:
            break
        mid = 0.5 * (lo + hi)
        out = classify(mid)
        if out is Outcome.CROSSES:
            hi = mid
        elif out is Outcome.TURNS_UP:
            lo = mid
        else:
            return mid
    else:
        raise NoConvergence(
            f"bisection did not reach width 1e-12 in {MAX_BISECT} steps")
    return 0.5 * (lo + hi)


def _newton_polish(grid: RadialGrid, vals: np.ndarray,
                   params: EnergyParams) -> np.ndarray:
    """The coupled Newton on (w, 0) with β = 0; returns the polished w."""
    u, _ = newton(grid, vals, np.zeros(grid.N + 1), params)
    return u


def solve_scalar(nl: Nonlinearity, grid: RadialGrid,
                 cfg: ShootingConfig = ShootingConfig()) -> ScalarGroundState:
    """Ground state of −Δw + w = f(w) on the given grid.

    Shooting pins the center amplitude, the grid polish pins the discrete
    critical point; see module docstring.
    """
    dt, r_max = _effective(cfg, grid)
    # snap the ODE step to an exact divisor of h so samples land on nodes
    per_node = max(1, int(round(grid.h / dt)))
    dt = grid.h / per_node
    a_star = _bisect_amplitude(nl, cfg, dt, r_max)
    _, rec = _integrate(nl, a_star, dt, grid.R, record_every=per_node)
    vals = np.zeros(grid.N + 1)
    m = min(len(rec), grid.N + 1)
    vals[:m] = rec[:m]
    vals[-1] = 0.0
    params = EnergyParams(nl, nl, 0.0)
    vals = _newton_polish(grid, vals, params)
    profile = Profile(grid, vals)
    if not np.all(vals[:-1] > 0.0):
        raise NoConvergence("polished profile lost positivity")
    if np.any(np.diff(vals) > 1e-12 * float(vals[0])):
        raise NoConvergence("polished profile lost monotonicity")
    state = State(profile, Profile.zero(grid))
    res_u, _ = residuals(state, params)
    if not res_u < 1e-6:
        # a large w(0) (high power) means a core only a few h wide, which
        # the grid under-resolves; name both so the cause is visible
        raise NoConvergence(f"scalar residual {res_u:.3e} >= 1e-6 "
                            f"(w(0)={vals[0]:.4g}, h={grid.h:g})")
    return ScalarGroundState(profile=profile, center_value=float(vals[0]),
                             action=energy_I(state, params), residual=res_u)
