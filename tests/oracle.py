"""Shooting oracle for the radial ground state w of −Δw + w = f(w) on ℝ³.

The only pointwise check of w(0) that does not use the solver's grid: shoot
w″ + (2/r)w′ − w + f(w) = 0 from w(0) = a, w′(0) = 0 with scipy's adaptive
DOP853, and bisect a between trajectories that turn back up (a too small)
and ones that cross zero (a too large).  f is a pure-Python closed form of
each catalog family, so the oracle shares no kernel with
`nlsground.nonlinearity`.
"""
from __future__ import annotations

import math

from scipy.integrate import solve_ivp

R0 = 1e-8           # the march starts here, off the r = 0 singularity
R_END = 20.0        # every trajectory crosses or turns up before here
BRACKET = (0.1, 50.0)   # its low end must turn up and its high end cross


def scalar_f(nl):
    """f(t) of a catalog member, in closed form."""
    if nl.family == "power_sum":
        terms = nl.terms
        return lambda t: sum(a * abs(t) ** (p - 1.0) * t for a, p in terms)
    amp = nl.amplitude
    return lambda t: amp * (t * math.log1p(t * t) + t ** 3 / (1.0 + t * t))


def _crossed(r, y):
    return y[0]


def _turned(r, y):
    return y[1]


_crossed.terminal = _turned.terminal = True
_crossed.direction, _turned.direction = -1, 1


def crosses(f, a: float) -> bool:
    """True if the trajectory from w(0) = a crosses zero, False if it turns
    back up; one of the two must happen before `R_END`."""
    def rhs(r, y):
        return [y[1], -2.0 * y[1] / r + y[0] - f(y[0])]

    s = a - f(a)    # w = a + s r²/6 + O(r⁴) near the origin
    sol = solve_ivp(rhs, (R0, R_END), [a + s * R0 ** 2 / 6.0, s * R0 / 3.0],
                    method="DOP853", rtol=1e-12, atol=1e-14,
                    events=(_crossed, _turned))
    assert sol.status == 1, f"a={a!r}: no crossing or turn-up by r={R_END}"
    return sol.t_events[0].size > 0


def center(nl) -> float:
    """The oracle's w(0): bisect `BRACKET` until hi − lo ≤ 1e-12·hi."""
    f = scalar_f(nl)
    lo, hi = BRACKET
    assert (crosses(f, lo), crosses(f, hi)) == (False, True), \
        f"no turn-up/crossing transition in {BRACKET}"
    while hi - lo > 1e-12 * hi:
        mid = 0.5 * (lo + hi)
        if crosses(f, mid):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)
