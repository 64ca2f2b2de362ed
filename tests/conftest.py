from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg.lapack import dgbsv, dpbtrf

import nlsground.coupled as coupled_mod
import nlsground.energy as energy_mod
from nlsground import (EnergyParams, RadialGrid, cubic, log_enhanced,
                       solve_coupled, solve_scalar)
from nlsground.errors import NoConvergence, NoProjection, ZeroState
from nlsground.grid import integrate
from nlsground.nonlinearity import eval_F, eval_df, eval_f

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


def laplacian(grid, p) -> np.ndarray:
    """Pointwise radial Laplacian u'' + (2/r) u' (central stencil).

    The independent reference for the package's flux-form Laplacian.  The
    r = 0 entry uses the symmetry limit 6 (u_1 - u_0) / h^2; the r = R
    entry uses a ghost value 0 beyond the truncation radius.  Second-order
    accurate at every node, exact on quadratics.
    """
    u = p.values
    h = grid.h
    out = np.empty_like(u)
    out[0] = 6.0 * (u[1] - u[0]) / h ** 2
    upp = (u[2:] - 2.0 * u[1:-1] + u[:-2]) / h ** 2
    up = (u[2:] - u[:-2]) / (2.0 * h)
    out[1:-1] = upp + 2.0 / grid.r[1:-1] * up
    out[-1] = (u[-2] - 2.0 * u[-1]) / h ** 2 + (0.0 - u[-2]) / (grid.R * h)
    return out


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


def reference_pivot_count(band) -> int:
    """`energy._count_nonpositive_pivots` with its restart done entry by entry.

    After pbtrf stops at a pivot d ≤ 0, the band entries of the rows the
    pivot updates are formed one at a time from Python floats, each the
    entry less Σ x_a·inv_ab·x_b over the pivot rows a, b in that order.
    The dense Schur step must give the same count.
    """
    kd = band.shape[0] - 1
    count = 0
    while band.shape[1]:
        band, info = dpbtrf(band, lower=1, overwrite_ab=1)
        if info == 0:
            break
        count += 1
        band = band[:, info - 1:]
        n = band.shape[1]
        size = min(2 * kd + 1, n)           # the rows the elimination reads
        diags = band[:, :size].tolist()

        def entry(r, q):
            r, q = max(r, q), min(r, q)
            return diags[r - q][q] if r - q <= kd and r < n else 0.0

        d = diags[0][0]
        m = next((k for k in range(1, min(kd + 1, n)) if diags[k][0] != 0.0), 0)
        if d < 0.0:
            piv, inv = (0,), ((1.0 / d,),)
        elif m:
            s, a = entry(m, 0), entry(m, m)
            piv, inv = (0, m), ((-a / s / s, 1.0 / s), (1.0 / s, 0.0))
        else:
            piv, inv = (0,), ((0.0,),)
        # the rows left, renumbered from 0, with the band entries they keep
        rest = [r for r in range(size) if r not in piv]
        rows = rest + list(range(size, size + kd))
        head = np.zeros((kd + 1, len(rest)))
        for i, r in enumerate(rest):
            for k, q in enumerate(rows[i:i + kd + 1]):
                head[k, i] = entry(q, r) - sum(
                    entry(r, pa) * inv[a][b] * entry(q, pb)
                    for a, pa in enumerate(piv) for b, pb in enumerate(piv))
        band[:, len(piv):size] = head
        band = band[:, len(piv):]
    return count


# The operator as it was before it evaluated each state once in reused
# buffers: every call forms its pieces afresh in new arrays.  The rewritten
# `energy._terms`, `energy._variation`, `coupled._phi_gradient`,
# `coupled._descend` and `energy.newton` must agree with these bitwise.

def reference_terms(grid, ys, params):
    """`energy._terms`: (K, W) of node arrays (u, v) or (w,)."""
    K = sum(float(grid.flux @ np.square(y[1:] - y[:-1])) for y in ys)
    u = ys[0]
    M, P = u * u, eval_F(params.f, u)
    if len(ys) == 2:
        vv = ys[1] * ys[1]
        P = P + eval_F(params.g, ys[1]) + 0.5 * params.beta * M * vv
        M = M + vv
    return K, integrate(grid, P) - 0.5 * integrate(grid, M)


def reference_variation(grid, ys, params, a=1.0, b=1.0):
    """`energy._variation`: a·(−Δ_h y) + b·(y − f(y) − β y·other²)."""
    out = []
    for k, (y, nl) in enumerate(zip(ys, (params.f, params.g))):
        source = y - eval_f(nl, y)
        if len(ys) == 2:
            other = ys[1 - k]
            source -= params.beta * y * (other * other)
        du = y[1:] - y[:-1]
        lap = (grid.flux[1:] * du[1:] - grid.flux[:-1] * du[:-1]) / grid.w[1:-1]
        var = np.empty(grid.N + 1)
        var[1:-1] = -a * lap + b * source[1:-1]
        var[0] = -a * 6.0 * (y[1] - y[0]) / grid.h ** 2 + b * source[0]
        var[-1] = 0.0
        out.append(var)
    return tuple(out)


def reference_phi_gradient(grid, ys, params, K, W):
    """`coupled._phi_gradient`: the weighted gradient of Φ."""
    a = math.sqrt(K / (6.0 * W))
    b = energy_mod._phi_value(K, W) / (2.0 * W)
    gs = reference_variation(grid, ys, params, a, b)
    for g in gs:
        g[0] = 0.0
    return gs


def reference_descend(grid, ys, params, max_iters):
    """`coupled._descend`: one round of Armijo descent on Φ."""
    ys = tuple(y.copy() for y in ys)
    for y in ys:
        y[0] = y[1]
    K, W = reference_terms(grid, ys, params)
    if K == 0.0:
        raise ZeroState("cannot project the zero state")
    phi = energy_mod._phi_value(K, W)
    if phi == math.inf:
        raise NoProjection(f"K={K:.6g}, W={W:.6g}: off the cone 0 < W, t̄ < inf")
    factors = coupled_mod._factor_preconditioner(grid)
    it = 0
    while it < max_iters:
        gs = reference_phi_gradient(grid, ys, params, K, W)
        if not all(np.isfinite(g).all() for g in gs):
            raise NoConvergence(f"non-finite descent gradient at iteration {it}")
        ds = coupled_mod._precondition(factors, gs)
        slope = float(sum(grid.w @ (g * d) for g, d in zip(gs, ds)))
        it += 1
        s = 1.0
        for _ in range(60):
            trial = tuple(y - s * d for y, d in zip(ys, ds))
            Kt, Wt = reference_terms(grid, trial, params)
            pt = energy_mod._phi_value(Kt, Wt)
            if pt <= phi - coupled_mod.ARMIJO * s * slope:
                ys, K, W, phi = trial, Kt, Wt, pt
                break
            s *= coupled_mod.BACKTRACK
        else:
            break
    return ys, it


def reference_newton(grid, ys, params):
    """`energy.newton`: the damped Newton polish, in fresh arrays."""
    N = grid.N
    c = len(ys)
    n = c * N
    beta = params.beta
    diag, upper, lower = energy_mod._laplacian_band(grid)
    lap = np.zeros((3 * c + 1, n), order="F")
    for k in range(c):
        lap[2 * c, k::c] = diag
        lap[c, c + k::c] = upper
        lap[3 * c, k:n - c:c] = lower

    def residual(trial):
        res = np.empty(n)
        for k, r in enumerate(reference_variation(grid, trial, params)):
            res[k::c] = r[:N]
        return res

    res = residual(ys)
    for _ in range(energy_mod.NEWTON_MAX_ITER):
        rn = float(np.sqrt(res @ res))
        ymax = max([float(np.max(np.abs(y))) for y in ys] + [1.0])
        if rn <= 1e-12 * ymax * math.sqrt(n):
            break
        ab = lap.copy(order="K")
        jac = [1.0 - eval_df(nl, y[:N]) for y, nl in zip(ys, (params.f, params.g))]
        if c == 2:
            u, v = ys[0][:N], ys[1][:N]
            cross = -2.0 * beta * u * v
            ab[3, 1::2] = cross
            ab[5, 0:n - 1:2] = cross
            jac = [jac[0] - beta * v ** 2, jac[1] - beta * u ** 2]
        for k, j in enumerate(jac):
            ab[2 * c, k::c] += j
        _, _, step, info = dgbsv(c, c, ab, res, overwrite_ab=1)
        if info > 0:
            raise np.linalg.LinAlgError("singular matrix")
        lam = 1.0
        for _ in range(30):
            trial = tuple(y.copy() for y in ys)
            for k, t in enumerate(trial):
                t[:N] -= lam * step[k::c]
            tres = residual(trial)
            if float(np.linalg.norm(tres)) < rn:
                ys, res = trial, tres
                break
            lam *= 0.5
        else:
            break
    return ys
