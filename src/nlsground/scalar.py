"""Radial ground state of the single equation −Δw + w = f(w) on ℝ³.

The scalar problem is the coupled one at v = 0 and β = 0, with the absent
component dropped: `solve_scalar` runs the pipeline of
`nlsground.coupled` on the one node array (w,), so each step does half
the coupled work and Newton solves a tridiagonal system.  One round of
the descent on the projected action Φ finds the basin; the dilation onto
the Pohozaev manifold and the damped Newton iteration of
`nlsground.energy.newton` then reach the grid's discrete critical point.

`shoot` is the independent RK4 oracle: it integrates
w″ + (2/r)w′ − w + f(w) = 0 from w(0) = a, w′(0) = 0 and classifies the
trajectory — overshooting amplitudes cross zero, undershooting ones turn
back up.  `_bisect_amplitude` bisects between the two behaviors.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from . import coupled
from ._lapack import solve_banded  # noqa: F401  bound for perfbench tracer.PLAN
from .energy import (EnergyParams, _project, energy_I, morse_index, newton,
                     residuals)
from .errors import (Blowup, BracketFailure, NoConvergence,
                     NonpositiveAmplitude)
from .grid import Profile, RadialGrid, State
from .nonlinearity import POWER_SUM, Nonlinearity
from .nonlinearity import eval_df, eval_f  # noqa: F401  bound for perfbench tracer.PLAN

__all__ = ["ShootingConfig", "ScalarGroundState", "Outcome", "ShootResult",
           "shoot", "solve_scalar"]

DECAY_FLOOR = 1e-9
BLOWUP_LIMIT = 1e6
SHOOT_RADIUS = 20.0    # trajectories are classified out to this radius
LADDER = tuple(2.0 ** (k / 2) for k in range(-2, 19))   # start amplitudes 0.5..512


@dataclass(frozen=True)
class ShootingConfig:
    """Amplitude bracket and ODE step of the RK4 shooting oracle.

    `ode_step` defaults to 20/16000, h/4 of the default grid.
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


def _integrate(nl: Nonlinearity, a: float, dt: float,
               r_max: float) -> ShootResult:
    """RK4 march of (w, w') from r=0, classified as in the module docstring."""
    f = _scalar_f(nl)

    def accel(r: float, y: float, p: float) -> float:
        if r == 0.0:
            return (y - f(y)) / 3.0
        return -2.0 * p / r + y - f(y)

    n_steps = int(round(r_max / dt))
    y, p, r = a, 0.0, 0.0
    for _ in range(n_steps):
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
            return ShootResult(Outcome.CROSSES, r)
        if p >= 0.0:
            return ShootResult(Outcome.TURNS_UP, r)
        if y < DECAY_FLOOR:
            return ShootResult(Outcome.DECAYS)
    return ShootResult(Outcome.DECAYS)


def shoot(nl: Nonlinearity, a: float, cfg: ShootingConfig = ShootingConfig()) -> ShootResult:
    """Classify the trajectory launched from w(0)=a: see module docstring."""
    if not a > 0.0:
        raise NonpositiveAmplitude(f"a={a}")
    dt = cfg.ode_step if cfg.ode_step is not None else SHOOT_RADIUS / 16000.0
    return _integrate(nl, a, dt, SHOOT_RADIUS)


def _bisect_amplitude(nl: Nonlinearity, cfg: ShootingConfig) -> float:
    """The RK4 reference w(0): bisect TurnsUp against Crosses in the bracket.

    The bracket's ends must turn up (a_min) and cross (a_max), else
    `BracketFailure`.  The width test ends the halving within
    log2((a_max − a_min)/(1e-12·a_min)) steps, 49 for the default bracket.
    """
    def classify(a: float) -> Outcome:
        try:
            res = shoot(nl, a, cfg)
        except Blowup:
            return Outcome.CROSSES    # too large an amplitude: an overshoot
        return res.outcome

    lo, hi = cfg.a_min, cfg.a_max
    if (classify(lo), classify(hi)) != (Outcome.TURNS_UP, Outcome.CROSSES):
        raise BracketFailure(
            f"no TurnsUp/Crosses transition in [{cfg.a_min}, {cfg.a_max}]")
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        out = classify(mid)
        if out is Outcome.CROSSES:
            hi = mid
        elif out is Outcome.TURNS_UP:
            lo = mid
        else:
            return mid
    return 0.5 * (lo + hi)


def _newton_polish(grid: RadialGrid, vals: np.ndarray,
                   params: EnergyParams) -> np.ndarray:
    """The shared Newton on (w,); returns the polished w."""
    (w,) = newton(grid, (vals,), params)
    return w


def _start(grid: RadialGrid, params: EnergyParams) -> np.ndarray:
    """A·e^{−r²/2} with the ladder's A of least Φ.

    The first A with W > 0 sits at the edge of the cone, where the descent
    runs off along the dilation ray on coarse grids.
    """
    bump = np.exp(-0.5 * grid.r ** 2)
    bump[-1] = 0.0
    phi, amp = min((coupled._phi_value(*coupled._terms(grid, (a * bump,),
                                                       params)), a)
                   for a in LADDER)
    if phi == math.inf:
        raise BracketFailure(f"no amplitude in [{LADDER[0]:g}, {LADDER[-1]:g}] "
                             "gives W > 0")
    return amp * bump


def solve_scalar(nl: Nonlinearity, grid: RadialGrid) -> ScalarGroundState:
    """Ground state of −Δw + w = f(w) on the given grid; see module docstring.

    The profile must be positive and monotone, with residual below 1e-6
    and Morse index 1.  It is not put through `coupled.certify`: at R = 20
    and N ≤ 2000 the cubic misses the Pohozaev clause by the quadrature's
    O(h²), while index 1 holds on every grid.
    """
    params = EnergyParams(nl, nl, 0.0)
    # through the module object, so the tracer's rebinding of it is seen
    ys, _ = coupled._descend(grid, (_start(grid, params),), params,
                             coupled.ROUND)
    (projected,), _ = _project(grid, ys, params)
    vals = _newton_polish(grid, projected, params)
    # a large w(0) (high power) means a core only a few h wide, which the
    # grid under-resolves; name both so the cause is visible
    where = f"(w(0)={vals[0]:.4g}, h={grid.h:g})"
    if not np.all(vals[:-1] > 0.0):
        raise NoConvergence(f"polished profile lost positivity {where}")
    if np.any(np.diff(vals) > 1e-12 * float(vals[0])):
        raise NoConvergence(f"polished profile lost monotonicity {where}")
    state = State(Profile(grid, vals), Profile.zero(grid))
    res_u, _ = residuals(state, params)
    if not res_u < 1e-6:
        raise NoConvergence(f"scalar residual {res_u:.3e} >= 1e-6 {where}")
    index = morse_index(grid, (vals,), params)
    if index != 1:
        raise NoConvergence(f"polished profile has Morse index {index}, "
                            f"not 1 {where}")
    return ScalarGroundState(profile=state.u, center_value=float(vals[0]),
                             action=energy_I(state, params), residual=res_u)
