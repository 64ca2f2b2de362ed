from __future__ import annotations

import copy
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_banded

import nlsground.coupled as coupled_mod
import nlsground.energy as energy_mod
from nlsground.coupled import certify, solve_coupled
from nlsground.energy import (INDEX_TOL, EnergyParams, energy_I,
                              energy_report, first_variation, morse_index,
                              pohozaev_J, project_pohozaev, projected_energy,
                              residuals)
from nlsground.errors import NoProjection, NumericalError, ZeroState
from nlsground.grid import (Profile, RadialGrid, State, dilate, integrate,
                            kinetic)
from nlsground.nonlinearity import (cubic, eval_df, eval_f, log_enhanced,
                                    power_sum)
from nlsground.scalar import solve_scalar
from conftest import (AMP3_PROJECTED, AMP3_TBAR, GAUSS_INT, GAUSS_NARROW_INT,
                      GAUSS_R2_INT, gaussian_bumps, laplacian,
                      reference_descend, reference_morse_index,
                      reference_newton, reference_phi_gradient,
                      reference_pivot_count, reference_terms,
                      reference_variation)


def _gauss_state(grid, amp=1.0):
    u = Profile.from_callable(grid, lambda r: amp * np.exp(-r ** 2 / 2.0))
    return State(u, Profile.zero(grid))


def _pair_state(grid, amp=1.0):
    u = Profile.from_callable(grid, lambda r: amp * np.exp(-r ** 2 / 2.0))
    return State(u, u)


def test_energy_of_gaussian_without_potential(grid):
    # F == 0 isolates the quadratic part: I = (5/4) pi^{3/2}, J = (9/4) pi^{3/2}
    params = EnergyParams(power_sum([]), power_sum([]), beta=1.0)
    st = _gauss_state(grid)
    assert energy_I(st, params) == pytest.approx(
        0.5 * GAUSS_R2_INT + 0.5 * GAUSS_INT, rel=1e-6)
    assert pohozaev_J(st, params) == pytest.approx(
        0.5 * GAUSS_R2_INT + 1.5 * GAUSS_INT, rel=1e-6)


def test_energy_of_gaussian_cubic(grid):
    params = EnergyParams(cubic(), cubic(), beta=1.0)
    st = _gauss_state(grid)
    expect_I = 0.5 * GAUSS_R2_INT + 0.5 * GAUSS_INT - 0.25 * GAUSS_NARROW_INT
    expect_J = 0.5 * GAUSS_R2_INT + 1.5 * GAUSS_INT - 0.75 * GAUSS_NARROW_INT
    assert energy_I(st, params) == pytest.approx(expect_I, rel=1e-6)
    assert pohozaev_J(st, params) == pytest.approx(expect_J, rel=1e-6)


def test_energy_of_symmetric_pair_with_coupling(grid):
    beta = 2.0
    params = EnergyParams(cubic(), cubic(), beta=beta)
    st = _pair_state(grid)
    # P = 2 * (1/4) GN + (beta/2) GN with GN = int exp(-2 r^2)
    expect_I = (GAUSS_R2_INT + GAUSS_INT
                - (0.5 + 0.5 * beta) * GAUSS_NARROW_INT)
    assert energy_I(st, params) == pytest.approx(expect_I, rel=1e-6)


def test_projection_of_wide_gaussian(grid):
    params = EnergyParams(cubic(), cubic(), beta=1.0)
    st = _gauss_state(grid, amp=3.0)
    proj, tbar = project_pohozaev(st, params)
    assert tbar == pytest.approx(AMP3_TBAR, abs=5e-5)
    K = kinetic(proj.u) + kinetic(proj.v)
    assert abs(pohozaev_J(proj, params)) <= 1e-10 * (1.0 + K)
    # on the manifold the action collapses to K/3
    assert abs(energy_I(proj, params) - K / 3.0) <= 1e-8 * (1.0 + K)
    assert projected_energy(st, params) == pytest.approx(AMP3_PROJECTED,
                                                         rel=1e-5)
    assert energy_I(proj, params) == pytest.approx(AMP3_PROJECTED, rel=1e-4)


def test_projection_is_identity_on_manifold(grid):
    params = EnergyParams(cubic(), cubic(), beta=1.0)
    proj, _ = project_pohozaev(_gauss_state(grid, amp=3.0), params)
    again, t2 = project_pohozaev(proj, params)
    assert abs(t2 - 1.0) <= 1e-10
    np.testing.assert_allclose(again.u.values, proj.u.values, atol=1e-12)


def test_projected_energy_is_dilation_invariant(grid):
    params = EnergyParams(cubic(), cubic(), beta=1.0)
    st = _gauss_state(grid, amp=3.0)
    phi = projected_energy(st, params)
    for t in (0.7, 1.4):
        stretched = State(dilate(st.u, t), dilate(st.v, t))
        assert projected_energy(stretched, params) == pytest.approx(phi,
                                                                    rel=1e-3)


def test_projection_errors(grid):
    params = EnergyParams(cubic(), cubic(), beta=1.0)
    zero = State(Profile.zero(grid), Profile.zero(grid))
    with pytest.raises(ZeroState):
        project_pohozaev(zero, params)
    tiny = _gauss_state(grid, amp=0.1)       # W < 0: mass beats potential
    with pytest.raises(NoProjection):
        project_pohozaev(tiny, params)
    with pytest.raises(NoProjection):
        projected_energy(tiny, params)


@pytest.mark.parametrize("shape", [
    pytest.param(lambda r: np.exp(-(r - 5.0) ** 2), id="ring-W-inf"),
    pytest.param(lambda r: np.exp(-r ** 2 / 2.0), id="bump-W-nan"),
])
def test_overflowing_terms_lie_off_the_cone(shape):
    # at amplitude 1e62 the p = 4.9 potential overflows: the ring has W = inf
    # (which would read Φ = 0 and t̄ = 0), the bump W = nan (0·inf at r = 0);
    # both are off the cone, as `_phi_value` reads them
    g = RadialGrid(R=20.0, N=400)
    nl = power_sum([(1.0, 4.9)])
    params = EnergyParams(nl, nl, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        st = State(Profile.from_callable(g, lambda r: 1e62 * shape(r)),
                   Profile.zero(g))
        with pytest.raises(NoProjection, match="off the cone"):
            projected_energy(st, params)
        with pytest.raises(NoProjection, match="off the cone"):
            project_pohozaev(st, params)


def test_unusable_dilation_lies_off_the_cone():
    # W is finite (1.3e308), but 6W overflows, so t̄ = sqrt(K/(6W)) reads 0:
    # no dilation reaches the manifold, and Φ would read 0
    g = RadialGrid(R=20.0, N=400)
    nl = power_sum([(1e300, 3.0)])
    params = EnergyParams(nl, nl, 1.0)
    with np.errstate(over="ignore", invalid="ignore"):
        u = Profile.from_callable(g, lambda r: 128.0 * np.exp(-r ** 2 / 2.0))
        st = State(u, Profile.zero(g))
        _, W = energy_mod._terms(g, st.values, params)
        assert 0.0 < W < math.inf
        with pytest.raises(NoProjection, match="off the cone"):
            projected_energy(st, params)
        with pytest.raises(NoProjection, match="off the cone"):
            project_pohozaev(st, params)


def test_projection_that_loses_the_cone_raises_no_projection():
    # 50 descent iterations from 2·e^{−r²/2} leave a spike with u(0) ≈ 62
    # and W ≈ 9e7 at h = 0.05; its first dilation shrinks the core below h,
    # the interpolated state has W ≤ 0, and the next pass must say so
    nl = power_sum([(0.6373, 4.2018), (0.6741, 3.3798)])
    g = RadialGrid(R=20.0, N=400)
    params = EnergyParams(nl, nl, 0.0)
    (u, v), _ = coupled_mod._descend(g, _gauss_state(g, amp=2.0).values,
                                     params, 50)
    state = State(Profile(g, u), Profile(g, v))
    assert state.u.values[0] > 50.0
    assert projected_energy(state, params) < math.inf     # starts with W > 0
    with pytest.raises(NoProjection):
        project_pohozaev(state, params)


def test_first_variation_matches_pointwise_operator(grid):
    beta = 1.5
    params = EnergyParams(cubic(), cubic(), beta=beta)
    u = Profile.from_callable(grid, lambda r: 2.0 * np.exp(-r ** 2 / 2.0))
    v = Profile.from_callable(grid, lambda r: np.exp(-r ** 2 / 3.0))
    st = State(u, v)
    ru, rv = first_variation(st, params)
    lap_u = laplacian(grid, u)
    expect = (-lap_u + u.values - eval_f(params.f, u.values)
              - beta * u.values * v.values ** 2)
    # node 0 shares the symmetry-limit stencil exactly; away from the
    # origin the flux form and the pointwise stencil differ by O(h^2)
    # (the conservative form carries an O(h^2/r^2) term near r = 0, so
    # pointwise agreement is only asserted for r >= 0.5)
    assert ru[0] == expect[0]
    inner = (grid.r >= 0.5) & (grid.r <= grid.R - 3.0)
    assert np.max(np.abs(ru - expect)[inner]) <= 1e-3
    assert rv[-1] == 0.0 and ru[-1] == 0.0


def test_first_variation_is_gradient_of_action(grid):
    params = EnergyParams(cubic(), cubic(), beta=1.2)
    rng = np.random.default_rng(3)
    st = State(Profile(grid, gaussian_bumps(grid, rng, 2)),
               Profile(grid, gaussian_bumps(grid, rng, 2)))
    ru, rv = first_variation(st, params)
    eps = 1e-5
    for _ in range(2):
        du = gaussian_bumps(grid, rng, 2) - gaussian_bumps(grid, rng, 2)
        dv = gaussian_bumps(grid, rng, 2) - gaussian_bumps(grid, rng, 2)
        scale = math.sqrt(integrate(grid, du * du + dv * dv))
        du /= scale
        dv /= scale
        plus = State(Profile(grid, st.u.values + eps * du),
                     Profile(grid, st.v.values + eps * dv))
        minus = State(Profile(grid, st.u.values - eps * du),
                      Profile(grid, st.v.values - eps * dv))
        fd = (energy_I(plus, params) - energy_I(minus, params)) / (2 * eps)
        inner = integrate(grid, ru * du) + integrate(grid, rv * dv)
        assert fd == pytest.approx(inner, rel=1e-5, abs=1e-8)


def _newton_reevaluating(grid, u, v, params):
    """The damped Newton of `energy.newton`, with the residual recomputed
    at the start of every step.  Returns (u, v, line-search trials)."""
    N, n, beta = grid.N, 2 * grid.N, params.beta
    diag, upper, lower = energy_mod._laplacian_band(grid)
    lap = np.zeros((5, n))
    lap[2, 0::2] = lap[2, 1::2] = diag
    lap[0, 2::2] = lap[0, 3::2] = upper
    lap[4, 0:n - 2:2] = lap[4, 1:n - 2:2] = lower

    def residual(uf, vf):
        ru, rv = energy_mod._variation(grid, (uf, vf), params)
        res = np.empty(n)
        res[0::2] = ru[:N]
        res[1::2] = rv[:N]
        return res

    trials = 0
    for _ in range(energy_mod.NEWTON_MAX_ITER):
        res = residual(u, v)
        rn = float(np.sqrt(res @ res))
        umax = max(float(np.max(np.abs(u))), float(np.max(np.abs(v))), 1.0)
        if rn <= 1e-12 * umax * math.sqrt(n):
            break
        ab = lap.copy()
        ab[2, 0::2] += 1.0 - eval_df(params.f, u[:N]) - beta * v[:N] ** 2
        ab[2, 1::2] += 1.0 - eval_df(params.g, v[:N]) - beta * u[:N] ** 2
        ab[1, 1::2] = ab[3, 0:n - 1:2] = -2.0 * beta * u[:N] * v[:N]
        step = solve_banded((2, 2), ab, res)
        lam = 1.0
        for _ in range(30):
            tu, tv = u.copy(), v.copy()
            tu[:N] -= lam * step[0::2]
            tv[:N] -= lam * step[1::2]
            trials += 1
            if float(np.linalg.norm(residual(tu, tv))) < rn:
                u, v = tu, tv
                break
            lam *= 0.5
        else:
            break
    return u, v, trials


def test_newton_evaluates_each_point_once(monkeypatch, grid, cubic_nl,
                                          cubic_scalar):
    # from a projected descent iterate of (w, w) at β = 1.01, the polish
    # reuses each accepted trial's residual: one evaluation at the start
    # and one per line-search trial, with iterates bitwise unchanged
    params = EnergyParams(cubic_nl, cubic_nl, 1.01)
    w = cubic_scalar.profile
    ys, _ = coupled_mod._descend(grid, (w.values, w.values), params,
                                 coupled_mod.ROUND)
    (u0, v0), _ = energy_mod._project(grid, ys, params)
    want_u, want_v, trials = _newton_reevaluating(grid, u0, v0, params)
    assert trials >= 2
    calls = []
    real = energy_mod._variation

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(energy_mod, "_variation", counted)
    u, v = energy_mod.newton(grid, (u0, v0), params)
    assert len(calls) == 1 + trials
    assert np.array_equal(u, want_u) and np.array_equal(v, want_v)


def test_residuals_of_scalar_solution_embedding(grid, cubic_scalar):
    params = EnergyParams(cubic(), cubic(), beta=2.0)
    st = State(cubic_scalar.profile, Profile.zero(grid))
    ru, rv = residuals(st, params)
    assert ru < 1e-6
    assert rv == 0.0
    K = kinetic(st.u)
    assert abs(pohozaev_J(st, params)) <= 1e-5 * (1.0 + K)


def test_energy_report_fields_and_format(grid):
    params = EnergyParams(cubic(), cubic(), beta=1.0)
    rep = energy_report(_gauss_state(grid), params)
    assert rep.normH1_sq == pytest.approx(GAUSS_R2_INT + GAUSS_INT, rel=1e-6)
    assert rep.W == pytest.approx(0.25 * GAUSS_NARROW_INT - 0.5 * GAUSS_INT,
                                  rel=1e-6)
    text = rep.lines()
    rows = text.splitlines()
    assert len(rows) == 7
    parsed = dict(row.split("=", 1) for row in rows)
    assert set(parsed) == {"I", "J", "K", "W", "normH1_sq",
                           "residual_u", "residual_v"}
    assert float(parsed["I"]) == rep.I


def _dense_hessian(state, params):
    """The discrete action's Hessian on nodes 1..N−1 of u then v, y_0 = y_1,
    and its mass matrix.

    Assembled from the quadrature definitions alone: K = Σ flux_i
    (y_{i+1} − y_i)² over the nodes 0..N, with node 0 tied to node 1 and
    node N pinned to 0, and the pointwise weights of M/2 − P.
    """
    g = state.grid
    N = g.N
    tie = np.zeros((N + 1, N - 1))      # nodes 0..N from the unknowns
    tie[1:N, :] = np.eye(N - 1)
    tie[0, 0] = 1.0
    diff = np.diff(np.eye(N + 1), axis=0) @ tie
    stiffness = diff.T @ (g.flux[:, None] * diff)
    u, v, beta = state.u.values, state.v.values, params.beta

    def weight(q):
        return tie.T @ ((g.w * q)[:, None] * tie)

    huu = stiffness + weight(1.0 - eval_df(params.f, u) - beta * v * v)
    hvv = stiffness + weight(1.0 - eval_df(params.g, v) - beta * u * u)
    huv = weight(-2.0 * beta * u * v)
    zero = np.zeros_like(huv)
    mass = np.block([[weight(1.0), zero], [zero, weight(1.0)]])
    return np.block([[huu, huv], [huv, hvv]]), mass


def test_morse_index_matches_dense_eigenvalues():
    g = RadialGrid(R=20.0, N=200)
    rng = np.random.default_rng(11)
    nls = (cubic(), log_enhanced(), power_sum([(1.0, 2.0), (0.5, 3.5)]))
    counts = set()
    for k in range(12):
        u = gaussian_bumps(g, rng, 2, amp=(0.2, 2.5))
        v = gaussian_bumps(g, rng, 1, amp=(0.0, 2.5)) if k % 3 else 0.0 * u
        st = State(Profile(g, u), Profile(g, v))
        params = EnergyParams(nls[k % 3], nls[(k + 1) % 3],
                              float(rng.uniform(0.1, 3.0)))
        hessian, mass = _dense_hessian(st, params)
        scale = 1.0 / np.sqrt(np.diag(mass))
        eig = np.linalg.eigvalsh(scale[:, None] * hessian * scale[None, :])
        index = morse_index(g, st.values, params)
        assert index == int(np.sum(eig < -INDEX_TOL))
        counts.add(index)
    assert len(counts) >= 4     # the draws exercise several indices


@pytest.mark.parametrize("beta, scalar_index, symmetric_index",
                         [(0.5, 1, None), (0.99, 1, 2), (1.01, 2, 1),
                          (2.0, 2, None)])
def test_cubic_morse_index_table(grid, cubic_scalar, beta, scalar_index,
                                 symmetric_index):
    # (w, 0) loses its ground-state index at Λ = 1, where the symmetric
    # vector state (w, w)/sqrt(1 + β) gains it
    params = EnergyParams(cubic(), cubic(), beta)
    w = cubic_scalar.profile
    zero = np.zeros(grid.N + 1)
    assert morse_index(grid, (w.values, zero), params) == scalar_index
    if symmetric_index is not None:
        sym = w.values / math.sqrt(1.0 + beta)
        assert morse_index(grid, (sym, sym), params) == symmetric_index


def test_zero_mode_at_beta_one_is_not_counted(monkeypatch, grid, cubic_nl,
                                              cubic_scalar):
    # at β = 1 the cubic action is rotation invariant, so the vector state
    # and (w, 0) both have a zero mode; a perturbation the certificate still
    # accepts moves it by about its residual, to either side of 0
    params = EnergyParams(cubic_nl, cubic_nl, 1.0)
    gs = solve_coupled(params, grid, baselines=(cubic_scalar, cubic_scalar))
    strict = set()
    for st in (gs.state, State(cubic_scalar.profile, Profile.zero(grid))):
        for scale in (1.0 - 1.5e-6, 1.0 + 1.5e-6):
            moved, _ = project_pohozaev(
                State(Profile(grid, scale * st.u.values),
                      Profile(grid, scale * st.v.values)), params)
            certify(moved, params)
            assert morse_index(grid, moved.values, params) == 1
            with monkeypatch.context() as m:
                m.setattr(energy_mod, "INDEX_TOL", 0.0)
                strict.add(morse_index(grid, moved.values, params))
    assert strict == {1, 2}     # the zero mode reads on both sides of 0


_BUMP = st.tuples(st.floats(0.5, 8.0), st.floats(0.5, 3.0), st.floats(0.0, 8.0))
_CATALOG = (cubic(), log_enhanced(), power_sum([(1.0, 2.0), (0.5, 3.5)]))


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(bumps=st.lists(_BUMP, min_size=1, max_size=2),
       which=st.integers(0, len(_CATALOG) - 1), N=st.sampled_from([200, 400]))
@example(bumps=[(1.0, 1.5, 3.0)], which=0, N=400)     # index 1
@example(bumps=[(2.0, 1.5, 3.0)], which=0, N=400)     # index 3
@example(bumps=[(8.0, 3.0, 6.0)], which=2, N=200)     # index 44
def test_one_component_operator_is_the_pair_at_v_zero(bumps, which, N):
    # the operator on (u,) drops the absent component's terms; at β = 0 the
    # pair (u, 0) adds only exact zeros, so every value agrees bitwise
    g = RadialGrid(R=20.0, N=N)
    u = np.zeros(N + 1)
    for amp, width, center in bumps:
        u += amp * np.exp(-((g.r - center) ** 2) / (2.0 * width * width))
    u[-1] = 0.0
    pair = (u, np.zeros(N + 1))
    nl = _CATALOG[which]
    params = EnergyParams(nl, nl, 0.0)
    K, W = energy_mod._terms(g, (u,), params)
    assert (K, W) == energy_mod._terms(g, pair, params)
    (ru,) = energy_mod._variation(g, (u,), params)
    assert np.array_equal(ru, energy_mod._variation(g, pair, params)[0])
    if coupled_mod._phi_value(K, W) < math.inf:
        (gu,) = coupled_mod._phi_gradient(g, (u,), params, K, W)
        assert np.array_equal(
            gu, coupled_mod._phi_gradient(g, pair, params, K, W)[0])
    index = morse_index(g, (u,), params)
    assert index == morse_index(g, pair, params)


def _bump_profile(g, bumps):
    u = np.zeros(g.N + 1)
    for amp, width, center in bumps:
        u += amp * np.exp(-((g.r - center) ** 2) / (2.0 * width * width))
    u[-1] = 0.0
    return u


@settings(max_examples=60, derandomize=True, deadline=None, database=None)
@given(ubumps=st.lists(_BUMP, min_size=1, max_size=2),
       vbumps=st.lists(_BUMP, max_size=2), beta=st.floats(0.0, 3.0),
       which=st.tuples(st.integers(0, len(_CATALOG) - 1),
                       st.integers(0, len(_CATALOG) - 1)),
       N=st.sampled_from([64, 200]), strict=st.booleans())
@example(ubumps=[(8.0, 3.0, 6.0)], vbumps=[], beta=0.0, which=(2, 2),
         N=200, strict=False)                               # index 44
@example(ubumps=[(8.0, 3.0, 6.0)], vbumps=[(2.0, 1.0, 1.0)], beta=1.5,
         which=(2, 0), N=64, strict=True)
def test_morse_index_matches_the_ldlt_recurrence(ubumps, vbumps, beta, which,
                                                 N, strict):
    # the banded Cholesky count equals the node-block LDLᵀ recurrence's on
    # one- and two-component states (no v bumps: the one component), and
    # at N = 64 the dense count; strict drops the zero-mode tolerance
    g = RadialGrid(R=20.0, N=N)
    u = _bump_profile(g, ubumps)
    ys = (u, _bump_profile(g, vbumps)) if vbumps else (u,)
    params = EnergyParams(_CATALOG[which[0]], _CATALOG[which[1]], beta)
    tol = 0.0 if strict else INDEX_TOL
    with mock.patch.object(energy_mod, "INDEX_TOL", tol):
        index = morse_index(g, ys, params)
        assert index == reference_morse_index(g, ys, params)
    if N == 64:
        pair = ys if len(ys) == 2 else (u, np.zeros(N + 1))
        st_ = State(Profile(g, pair[0]), Profile(g, pair[1]))
        hessian, mass = _dense_hessian(st_, params)
        if len(ys) == 1:
            hessian, mass = hessian[:N - 1, :N - 1], mass[:N - 1, :N - 1]
        scale = 1.0 / np.sqrt(np.diag(mass))
        eig = np.linalg.eigvalsh(scale[:, None] * hessian * scale[None, :])
        assert index == int(np.sum(eig < -tol))


@pytest.mark.parametrize("tol", [INDEX_TOL, 0.0])
def test_zero_mode_states_match_the_ldlt_recurrence(grid, cubic_nl,
                                                    cubic_scalar, tol):
    # at β = 1 the cubic (w, 0) and (w, w)/√2 carry a zero mode; moved by
    # the certificate's residual it reads on either side of 0
    params = EnergyParams(cubic_nl, cubic_nl, 1.0)
    w = cubic_scalar.profile.values
    counts = []
    for u, v in ((w, 0.0 * w), (w / math.sqrt(2.0), w / math.sqrt(2.0))):
        for scale in (1.0 - 1.5e-6, 1.0 + 1.5e-6):
            ys = (scale * u, scale * v)
            with mock.patch.object(energy_mod, "INDEX_TOL", tol):
                counts.append(morse_index(grid, ys, params))
                assert counts[-1] == reference_morse_index(grid, ys, params)
    assert set(counts) == ({1} if tol else {1, 2})


def _band(dense, kd):
    """Lower band storage, Fortran-ordered, of a symmetric matrix."""
    n = len(dense)
    band = np.zeros((kd + 1, n), order="F")
    for k in range(kd + 1):
        band[k, :n - k] = np.diagonal(dense, -k)
    return band


@pytest.mark.parametrize("dense, kd, want", [
    # a zero pivot and its −∞ follower count once, whatever comes next
    ([[0.0, 1.0], [1.0, 2.0]], 1, 1),
    ([[0.0, 1.0], [1.0, -2.0]], 1, 1),
    ([[4.0, -2.0, 0.0, 0.0], [-2.0, 1.0, -1.0, 0.0],
      [0.0, -1.0, -3.0, -1.0], [0.0, 0.0, -1.0, 2.0]], 1, 1),
    # a zero coupled to nothing is one zero eigenvalue
    ([[0.0, 0.0], [0.0, 2.0]], 1, 1),
    # half-width 2: the zero pairs with the first row it couples to
    ([[0.0, 0.0, 1.0, 0.0, 0.0], [0.0, 3.0, -1.0, 0.5, 0.0],
      [1.0, -1.0, -2.0, 1.0, 0.3], [0.0, 0.5, 1.0, 4.0, 1.0],
      [0.0, 0.0, 0.3, 1.0, -1.0]], 2, 2),
    ([[0.0, 2.0, 1.0, 0.0, 0.0], [2.0, -3.0, -1.0, 0.5, 0.0],
      [1.0, -1.0, -2.0, 1.0, 0.3], [0.0, 0.5, 1.0, 4.0, 1.0],
      [0.0, 0.0, 0.3, 1.0, -1.0]], 2, 3),
    ([[4.0, 2.0, 0.0], [2.0, 1.0, 1.0], [0.0, 1.0, 5.0]], 2, 1),
    ([[4.0, 2.0, 1.0, 0.0], [2.0, 1.0, 0.0, 1.0], [1.0, 0.0, 3.0, 1.0],
      [0.0, 1.0, 1.0, 2.0]], 2, 1),
    # after a restart the zero may pair with a row that is not the next one
    ([[-1.0, 1.0, 0.0, 0.0, 0.0], [1.0, -1.0, 0.0, 1.0, 0.0],
      [0.0, 0.0, 2.0, 1.0, 1.0], [0.0, 1.0, 1.0, 3.0, 1.0],
      [0.0, 0.0, 1.0, 1.0, 2.0]], 2, 2),
])
def test_zero_pivot_counts_once(dense, kd, want):
    dense = np.array(dense)
    assert energy_mod._count_nonpositive_pivots(_band(dense, kd)) == want
    eig = np.linalg.eigvalsh(dense)
    if np.all(np.abs(eig) > 1e-9):
        assert want == int(np.sum(eig < 0.0))
    # the count reads the factor pbtrf returns: a C-ordered band is copied
    assert energy_mod._count_nonpositive_pivots(
        np.ascontiguousarray(_band(dense, kd))) == want


def test_pivot_count_matches_the_entrywise_reference():
    # random symmetric bands of half-width 1 or 2, integer-valued or
    # Gaussian: 500 draws take every kind of restart, among them ~5,000
    # negative pivots, 18 lone zeros and 3 2×2 steps with m = 2
    rng = np.random.default_rng(26)
    for _ in range(500):
        kd, n = int(rng.integers(1, 3)), int(rng.integers(1, 40))
        band = np.zeros((kd + 1, n), order="F")
        for k in range(min(kd, n - 1) + 1):
            band[k, :n - k] = (rng.integers(-3, 4, n - k).astype(float)
                               if rng.random() < 0.5 else rng.normal(size=n - k))
        assert (energy_mod._count_nonpositive_pivots(band.copy(order="F"))
                == reference_pivot_count(band))


def test_pivot_count_survives_a_zero_in_a_trailing_complement():
    # the recipe above, replayed to its draws 1784, 6033 and 7157 of a
    # 20,000-draw census: kd = 2, integer entries, n = 39, 10 and 17, no
    # eigenvalue near 0; LDLᵀ without pivoting read 19, 6 and 10
    rng = np.random.default_rng(26)
    counts = {}
    for trial in range(7158):
        kd, n = int(rng.integers(1, 3)), int(rng.integers(1, 40))
        band = np.zeros((kd + 1, n), order="F")
        for k in range(min(kd, n - 1) + 1):
            band[k, :n - k] = (rng.integers(-3, 4, n - k).astype(float)
                               if rng.random() < 0.5 else rng.normal(size=n - k))
        if trial in (1784, 6033, 7157):
            dense = sum(np.diag(band[k, :n - k], -k) for k in range(kd + 1))
            dense += np.tril(dense, -1).T
            counts[trial] = (
                energy_mod._count_nonpositive_pivots(band.copy(order="F")),
                int((np.linalg.eigvalsh(dense) <= 0.0).sum()))
    assert counts == {1784: (18, 18), 6033: (5, 5), 7157: (9, 9)}


def test_solver_states_are_counted_by_pivots_alone(monkeypatch, grid,
                                                   cubic_scalar):
    # sbev takes about a second on a solver band of 7,998 rows: no state
    # the solvers return may meet a pivot within roundoff of zero
    banded = []
    real = energy_mod.dsbev
    monkeypatch.setattr(energy_mod, "dsbev",
                        lambda ab, **kw: banded.append(ab.shape) or real(ab, **kw))
    assert energy_mod._count_nonpositive_pivots(
        _band(np.array([[0.0, 1.0], [1.0, 2.0]]), 1)) == 1
    assert banded == [(2, 2)]
    banded.clear()
    for nl in _CATALOG:
        w = solve_scalar(nl, grid).profile.values
        assert morse_index(grid, (w,), EnergyParams(nl, nl, 0.0)) == 1
    for beta in (0.5, 0.99, 1.01, 2.0):
        params = EnergyParams(cubic(), cubic(), beta)
        gs = solve_coupled(params, grid, baselines=(cubic_scalar, cubic_scalar))
        assert morse_index(grid, gs.state.values, params) == 1
    assert banded == []


def _same_bits(got, want):
    """Equal node arrays, bit for bit, component by component."""
    return len(got) == len(want) and all(
        g.shape == w.shape and np.array_equal(g.view(np.uint64),
                                              w.view(np.uint64))
        for g, w in zip(got, want))


def test_operator_reads_the_node_radii_not_the_spacing():
    # node 0's symmetry-limit stencil reads r₁, which is h to the bit on a
    # uniform grid: the operator's geometry is the nodes, weights and flux
    g = RadialGrid(R=20.0, N=200)
    blind = copy.copy(g)
    blind.h = math.nan
    assert g.r[1] == g.h
    w = solve_scalar(cubic(), g).profile.values
    beta = 1.5
    a = 1.0 / math.sqrt(1.0 + beta)
    params = EnergyParams(cubic(), cubic(), beta)
    assert _same_bits(energy_mod._laplacian_band(blind),
                      energy_mod._laplacian_band(g))
    for ys in ((1.02 * w,), (1.01 * a * w, 0.99 * a * w)):
        assert _same_bits(energy_mod._variation(blind, ys, params),
                          energy_mod._variation(g, ys, params))
        assert _same_bits(energy_mod.newton(blind, ys, params),
                          energy_mod.newton(g, ys, params))
        assert (morse_index(blind, ys, params)
                == morse_index(g, ys, params))


def _outcome(fn, *args):
    """fn's result, or the type and text of the exception it raises."""
    try:
        return fn(*args)
    except (NumericalError, ZeroState, np.linalg.LinAlgError) as exc:
        return type(exc), str(exc)


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(seed=st.integers(0, 2 ** 32 - 1), bumps=st.tuples(
           st.integers(1, 2), st.integers(0, 2)),
       beta=st.floats(0.0, 3.0),
       which=st.tuples(st.integers(0, len(_CATALOG) - 1),
                       st.integers(0, len(_CATALOG) - 1)),
       N=st.sampled_from([64, 200]))
@example(seed=1, bumps=(2, 2), beta=2.0, which=(2, 0), N=200)
@example(seed=2, bumps=(1, 0), beta=0.0, which=(1, 1), N=64)
def test_operator_matches_the_fresh_array_reference(seed, bumps, beta, which,
                                                    N):
    # the kernels that evaluate each state once in reused buffers agree
    # bitwise with the forms that build every array afresh, on one- and
    # two-component states (no v bumps: the one component) over the catalog
    g = RadialGrid(R=20.0, N=N)
    rng = np.random.default_rng(seed)
    ys = tuple(gaussian_bumps(g, rng, n) for n in bumps if n)
    params = EnergyParams(_CATALOG[which[0]], _CATALOG[which[1]], beta)
    K, W = energy_mod._terms(g, ys, params)
    assert (K, W) == reference_terms(g, ys, params)
    assert _same_bits(energy_mod._variation(g, ys, params),
                      reference_variation(g, ys, params))
    if coupled_mod._phi_value(K, W) < math.inf:
        assert _same_bits(coupled_mod._phi_gradient(g, ys, params, K, W),
                          reference_phi_gradient(g, ys, params, K, W))
    got = _outcome(coupled_mod._descend, g, ys, params, coupled_mod.ROUND)
    want = _outcome(reference_descend, g, ys, params, coupled_mod.ROUND)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert _same_bits(got[0], want[0]) and got[1:] == want[1:]
    got = _outcome(energy_mod.newton, g, ys, params)
    want = _outcome(reference_newton, g, ys, params)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert _same_bits(got, want)


def _descend_works(monkeypatch):
    """The `mirror` flag of each `_Work` that `coupled._descend` builds."""
    made, real = [], coupled_mod._Work

    def spy(*args, **kwargs):
        work = real(*args, **kwargs)
        made.append(work.mirror)
        return work

    monkeypatch.setattr(coupled_mod, "_Work", spy)
    return made


def _round_matches_the_reference(g, ys, params):
    got = coupled_mod._descend(g, ys, params, coupled_mod.ROUND)
    want = reference_descend(g, ys, params, coupled_mod.ROUND)
    assert _same_bits(got[0], want[0]) and got[1] == want[1] > 0
    return got[0]


@pytest.mark.parametrize("beta", [0.5, 1.01, 2.0])
@pytest.mark.parametrize("which", range(len(_CATALOG)))
def test_mirrored_round_matches_the_reference(monkeypatch, which, beta):
    # for f = g a pair of one array to the bit runs on that one array, with
    # the pair's arithmetic: the round is the two-array reference's, bit for
    # bit, and it returns two arrays that the caller may write apart
    g = RadialGrid(R=20.0, N=200)
    nl = _CATALOG[which]
    y = solve_scalar(nl, g).profile.values
    params = EnergyParams(nl, nl, beta)
    works = _descend_works(monkeypatch)
    u, v = _round_matches_the_reference(g, (y, y.copy()), params)
    assert works == [True, True] and u is not v
    # controls on the two-array path: v one ulp off u at one node, and
    # f ≠ g on one array
    off = y.copy()
    off[7] = np.nextafter(off[7], np.inf)
    other = EnergyParams(nl, _CATALOG[(which + 1) % len(_CATALOG)], beta)
    works.clear()
    _round_matches_the_reference(g, (y, off), params)
    _round_matches_the_reference(g, (y, y.copy()), other)
    assert works == [False] * 4


def test_action_minus_a_third_of_k_is_a_third_of_j():
    # I = K/2 − W and J = K/2 − 3W, so I − K/3 = J/3: `certify`'s Pohozaev
    # clause bounds |I − K/3| as well, up to a few ulps of K and W
    g = RadialGrid(R=20.0, N=200)
    rng = np.random.default_rng(27)
    for f in _CATALOG:
        for nl_v in _CATALOG:
            for bumps in ((1, 0), (2, 0), (1, 1), (2, 2)):
                u, v = (gaussian_bumps(g, rng, n) for n in bumps)
                params = EnergyParams(f, nl_v, rng.uniform(0.0, 3.0))
                rep = energy_report(State(Profile(g, u), Profile(g, v)),
                                    params)
                assert (abs((rep.I - rep.K / 3.0) - rep.J / 3.0)
                        <= 8.0 * 2.0 ** -52 * (rep.K + abs(rep.W)))
