from __future__ import annotations

import numpy as np
import pytest

import nlsground.energy as energy_mod
from nlsground import (EnergyParams, RadialGrid, cubic, log_enhanced,
                       solve_coupled, solve_scalar)
from nlsground.nonlinearity import eval_df

# Frozen reference values, computed with an independent adaptive-quadrature
# + stiff-ODE pipeline before this package was written.  See the test
# bodies for which checks anchor to which constant.
CUBIC_CENTER = 4.33738767997569          # center value of the cubic bound state
CUBIC_ACTION = 18.89725130251493         # its action
GAUSS_INT = 5.568327996831708            # ∫ exp(-|x|²) over ℝ³ = π^{3/2}
GAUSS_R2_INT = 8.352491995247561         # ∫ |x|² exp(-|x|²) = (3/2)π^{3/2}
GAUSS_NARROW_INT = 1.9687012432153024    # ∫ exp(-2|x|²) = (π/2)^{3/2}
AMP3_TBAR = 0.9198030415026162           # manifold dilation of 3·exp(-r²/2), cubic
AMP3_PROJECTED = 23.047942624064888      # its projected energy


@pytest.fixture(scope="session")
def grid():
    return RadialGrid(R=20.0, N=4000)


@pytest.fixture(scope="session")
def cubic_nl():
    return cubic()


@pytest.fixture(scope="session")
def log_nl():
    return log_enhanced()


@pytest.fixture(scope="session")
def cubic_scalar(grid, cubic_nl):
    return solve_scalar(cubic_nl, grid)


@pytest.fixture(scope="session")
def log_scalar(grid, log_nl):
    return solve_scalar(log_nl, grid)


@pytest.fixture(scope="session")
def coupled_beta2(grid, cubic_nl, cubic_scalar):
    params = EnergyParams(cubic_nl, cubic_nl, 2.0)
    gs = solve_coupled(params, grid, baselines=(cubic_scalar, cubic_scalar))
    return params, gs


@pytest.fixture(scope="session")
def coupled_beta01(grid, cubic_nl, cubic_scalar):
    params = EnergyParams(cubic_nl, cubic_nl, 0.1)
    gs = solve_coupled(params, grid, baselines=(cubic_scalar, cubic_scalar))
    return params, gs


def gaussian_bumps(grid, rng, n, amp=(0.3, 3.0), width=(0.5, 3.0),
                   center=(0.0, 8.0)):
    """Random smooth nonnegative profile: a sum of radial Gaussian bumps."""
    vals = np.zeros(grid.N + 1)
    for _ in range(n):
        a = rng.uniform(*amp)
        s = rng.uniform(*width)
        c = rng.uniform(*center)
        vals += a * np.exp(-((grid.r - c) ** 2) / (2 * s * s))
    vals[-1] = 0.0
    return vals


def reference_morse_index(grid, ys, params) -> int:
    """`energy.morse_index` by the block LDLᵀ recurrence over the node blocks.

    The same matrix H + INDEX_TOL·W on nodes 1..N−1 (`energy.morse_index`
    says which), eliminated node by node with 1×1 or 2×2 pivots D_i by the
    component count; its negative pivots are counted, each 2×2 block by its
    determinant and leading entry.  Reads `energy.INDEX_TOL` when called.
    """
    N, beta, tol = grid.N, params.beta, energy_mod.INDEX_TOL
    w = grid.w[1:N]
    diag, upper, _ = energy_mod._laplacian_band(grid)
    stiff = w * diag[1:]
    stiff[0] = -w[0] * upper[1]             # the tie drops the flux to node 0
    # node i couples to node i−1 by e·I with e = −flux_{i−1}; node 1 has none
    e2 = np.zeros(N - 1)
    e2[1:] = np.square(w[:-1] * upper[1:])
    u = ys[0][1:N]
    count = 0
    if len(ys) == 1:
        d = 1.0
        pivots = stiff + w * (1.0 + tol - eval_df(params.f, u))
        for a, s in zip(pivots.tolist(), e2.tolist()):
            d = a - s / d                   # D_i = A_i − e² / D_{i−1}
            if d < 0.0:
                count += 1
        return count
    v = ys[1][1:N]
    pu = w * (1.0 + tol - eval_df(params.f, u) - beta * v * v)
    pv = w * (1.0 + tol - eval_df(params.g, v) - beta * u * u)
    pc = -2.0 * beta * w * u * v
    da = db = dc = 0.0
    det = 1.0
    for a, b, c, s in zip((stiff + pu).tolist(), (stiff + pv).tolist(),
                          pc.tolist(), e2.tolist()):
        # D_i = A_i − e² D_{i−1}^{−1}, with D^{−1} = [[b, −c], [−c, a]] / det
        s /= det
        a -= s * db
        b -= s * da
        c += s * dc
        det = a * b - c * c
        if det < 0.0:
            count += 1
        elif a < 0.0:
            count += 2
        da, db, dc = a, b, c
    return count
