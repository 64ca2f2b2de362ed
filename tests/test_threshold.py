from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import nlsground.threshold as threshold_mod
from nlsground.coupled import Kind, solve_coupled
from nlsground.energy import EnergyParams
from nlsground.errors import InvalidBracket, NoConvergence, NumericalError
from nlsground.grid import Profile, RadialGrid, State, integrate, kinetic
from nlsground.nonlinearity import cubic, eval_F, log_enhanced
from nlsground.scalar import solve_scalar
from nlsground.threshold import (SweepRow, bisect_beta0, compare_energies,
                                 sweep)


@pytest.fixture(scope="module")
def mid_grid():
    return RadialGrid(R=20.0, N=1600)


@pytest.fixture(scope="module")
def mid_scalar(mid_grid):
    return solve_scalar(cubic(), mid_grid)


def test_compare_energies_against_raw_integrals(grid, cubic_scalar):
    beta = 2.0
    params = EnergyParams(cubic(), cubic(), beta)
    lhs, rhs, beats = compare_energies(params, cubic_scalar, cubic_scalar)
    w = cubic_scalar.profile
    K = 2.0 * kinetic(w)
    M = 2.0 * integrate(grid, w.values ** 2)
    P = integrate(grid, 2.0 * eval_F(params.f, w.values)
                  + 0.5 * beta * w.values ** 4)
    W = P - 0.5 * M
    assert lhs == pytest.approx((K / 3.0) ** 1.5 / math.sqrt(2.0 * W),
                                rel=1e-12)
    assert rhs == cubic_scalar.action
    assert beats


def test_pair_bound_decreases_with_coupling(cubic_scalar):
    values = []
    for beta in (0.5, 1.0, 2.0, 5.0):
        params = EnergyParams(cubic(), cubic(), beta)
        lhs, _, _ = compare_energies(params, cubic_scalar, cubic_scalar)
        values.append(lhs)
        # the bound can never undercut the true symmetric vector energy
        assert lhs > 2.0 * cubic_scalar.action / (1.0 + beta) - 1e-9
    assert all(a > b for a, b in zip(values, values[1:]))


def test_pair_bound_crossing_location(cubic_scalar):
    # sufficient condition only: the unoptimized pair overshoots near the
    # transition and only undercuts the scalar action somewhat later
    weak = compare_energies(EnergyParams(cubic(), cubic(), 0.01),
                            cubic_scalar, cubic_scalar)
    assert not weak[2]
    near = compare_energies(EnergyParams(cubic(), cubic(), 1.2),
                            cubic_scalar, cubic_scalar)
    assert not near[2]
    strong = compare_energies(EnergyParams(cubic(), cubic(), 2.0),
                              cubic_scalar, cubic_scalar)
    assert strong[2]


def test_sweep_brackets_the_transition(mid_grid):
    params = EnergyParams(cubic(), cubic(), 1.0)
    betas = [0.5, 0.9, 1.1, 2.0]
    result = sweep(params, betas, mid_grid)
    assert [row.beta for row in result.rows] == betas
    kinds = [row.kind for row in result.rows]
    assert kinds[0] in (Kind.SCALAR_U, Kind.SCALAR_V)
    assert kinds[1] in (Kind.SCALAR_U, Kind.SCALAR_V)
    assert kinds[2] is Kind.VECTOR and kinds[3] is Kind.VECTOR
    assert result.beta0_bracket == (0.9, 1.1)
    for row in result.rows:
        assert row.error is None
        assert row.m <= row.scalar_min + 1e-9
        assert row.m <= row.lhs_bound + 1e-9
        is_vec = row.kind is Kind.VECTOR
        assert row.vector_beats_scalar == is_vec
    # the vector rows track the symmetric-ansatz energy
    scalar_min = result.rows[0].scalar_min
    for row in result.rows[2:]:
        assert row.m == pytest.approx(2.0 * scalar_min / (1.0 + row.beta),
                                      rel=1e-3)


def test_sweep_validation(mid_grid):
    params = EnergyParams(cubic(), cubic(), 1.0)
    with pytest.raises(ValueError):
        sweep(params, [0.5, -1.0], mid_grid)
    with pytest.raises(ValueError):
        sweep(params, [0.5, math.inf], mid_grid)
    with pytest.raises(ValueError):
        sweep(params, [2.0, 1.0], mid_grid)
    empty = sweep(params, [], mid_grid)
    assert empty.rows == ()
    assert empty.beta0_bracket is None


def test_sweep_isolates_failed_rows(monkeypatch, mid_grid):
    params = EnergyParams(cubic(), cubic(), 1.0)
    real_solve = threshold_mod.solve_coupled

    def flaky(params, grid, cfg, baselines):
        if params.beta == 0.5:
            raise NoConvergence("synthetic failure")
        return real_solve(params, grid, cfg, baselines=baselines)

    monkeypatch.setattr(threshold_mod, "solve_coupled", flaky)
    result = sweep(params, [0.5, 1.1], mid_grid)
    bad, good = result.rows
    assert bad.error is not None and "synthetic" in bad.error
    assert math.isnan(bad.m) and bad.kind is None
    assert not bad.vector_beats_scalar
    assert good.error is None and good.kind is Kind.VECTOR
    # a None row breaks the adjacency needed for a bracket
    assert result.beta0_bracket is None


def test_bisect_validation(mid_grid):
    params = EnergyParams(cubic(), cubic(), 1.0)
    with pytest.raises(InvalidBracket):
        bisect_beta0(params, (0.0, 1.0), 0.1, mid_grid)
    with pytest.raises(InvalidBracket):
        bisect_beta0(params, (2.0, 1.0), 0.1, mid_grid)
    with pytest.raises(InvalidBracket):
        bisect_beta0(params, (0.5, math.inf), 0.1, mid_grid)
    with pytest.raises(InvalidBracket):
        bisect_beta0(params, (0.5, 1.5), -0.1, mid_grid)


def test_bisect_rejects_equal_endpoint_kinds(mid_grid):
    params = EnergyParams(cubic(), cubic(), 1.0)
    with pytest.raises(InvalidBracket, match="endpoints agree"):
        bisect_beta0(params, (2.0, 3.0), 0.5, mid_grid)


def test_bisect_narrows_towards_unity(mid_grid):
    params = EnergyParams(cubic(), cubic(), 1.0)
    b0 = bisect_beta0(params, (0.8, 1.25), 0.25, mid_grid)
    assert 0.8 < b0 < 1.25
    assert abs(b0 - 1.0) <= 0.15


@pytest.mark.parametrize("bracket, tol", [((0.9, 1.1), 1e-2),
                                          ((0.5, 2.0), 1e-8)])
def test_bisect_finds_cubic_crossing_with_two_solves(monkeypatch, grid,
                                                     bracket, tol):
    # the symmetric vector branch has m = 2S/(1+β): it crosses S at β = 1
    # on every grid, and only the two endpoint solves are full solves
    calls = []
    real_solve = threshold_mod.solve_coupled

    def spy(params, grid, cfg, baselines):
        calls.append(params.beta)
        return real_solve(params, grid, cfg, baselines=baselines)

    monkeypatch.setattr(threshold_mod, "solve_coupled", spy)
    params = EnergyParams(cubic(), cubic(), 1.0)
    b0 = bisect_beta0(params, bracket, tol, grid)
    assert abs(b0 - 1.0) <= 1e-8
    assert calls == list(bracket)


def test_bisect_log_crossing_is_the_kind_transition(grid):
    # first order: the vector branch is a local minimizer on both sides of
    # β₀, and the full solve changes kind where the actions cross
    nl = log_enhanced()
    tol = 1e-4
    b0 = bisect_beta0(EnergyParams(nl, nl, 1.0), (0.3, 0.45), tol, grid)
    assert b0 == pytest.approx(0.38902348462, abs=tol)
    below = solve_coupled(EnergyParams(nl, nl, b0 - 2.0 * tol), grid)
    above = solve_coupled(EnergyParams(nl, nl, b0 + 2.0 * tol), grid)
    assert below.kind is Kind.SCALAR_U
    assert above.kind is Kind.VECTOR


@pytest.mark.parametrize("cut", [1.05, math.inf])
def test_bisect_counts_failed_branch_steps_as_non_vector(monkeypatch,
                                                          mid_grid, cut):
    # a Newton that loses the branch below `cut`; with cut = inf every
    # step fails and the search is plain bisection
    real_newton = threshold_mod._coupled_newton

    def flaky(state, params):
        if params.beta < cut:
            raise NoConvergence("synthetic branch failure")
        return real_newton(state, params)

    monkeypatch.setattr(threshold_mod, "_coupled_newton", flaky)
    params = EnergyParams(cubic(), cubic(), 1.0)
    try:
        b0 = bisect_beta0(params, (0.9, 1.1), 1e-2, mid_grid)
    except NumericalError:
        return
    assert 0.9 < b0 < 1.1


def test_bisect_step_budget_raises(monkeypatch, mid_grid):
    monkeypatch.setattr(threshold_mod, "MAX_STEPS", 1)
    params = EnergyParams(cubic(), cubic(), 1.0)
    with pytest.raises(NoConvergence, match="after 1 branch steps"):
        bisect_beta0(params, (0.5, 2.0), 1e-8, mid_grid)


def test_bisect_counts_scalar_branch_steps_as_non_vector(monkeypatch,
                                                         mid_grid, mid_scalar):
    # a Newton that falls onto the scalar embedding below β = 1.05: the
    # step certifies, but a state that is not vector is the non-vector side
    real_newton = threshold_mod._coupled_newton
    real_judge = threshold_mod._judge
    kinds = []

    def to_scalar(state, params):
        if params.beta < 1.05:
            return State(mid_scalar.profile, Profile.zero(mid_grid))
        return real_newton(state, params)

    def judge(state, params, iterations):
        gs = real_judge(state, params, iterations)
        kinds.append(gs.kind)
        return gs

    monkeypatch.setattr(threshold_mod, "_coupled_newton", to_scalar)
    monkeypatch.setattr(threshold_mod, "_judge", judge)
    params = EnergyParams(cubic(), cubic(), 1.0)
    b0 = bisect_beta0(params, (0.9, 1.1), 1e-2, mid_grid)
    assert Kind.SCALAR_U in kinds
    # the scalar steps at β ≤ 1.0375 moved the non-vector end past 1
    assert 1.0 < b0 < 1.1


def test_bisect_returns_a_step_whose_gap_is_exactly_zero(monkeypatch,
                                                         mid_grid, mid_scalar):
    # the first branch step, at the bracket's midpoint, reads m = S to the
    # last bit: that trial β is the crossing, returned as it is
    real_judge = threshold_mod._judge
    trials = []

    def exact(state, params, iterations):
        gs = real_judge(state, params, iterations)
        trials.append(params.beta)
        if len(trials) == 1:
            return dataclasses.replace(gs, m=mid_scalar.action)
        return gs

    monkeypatch.setattr(threshold_mod, "_judge", exact)
    params = EnergyParams(cubic(), cubic(), 1.0)
    b0 = bisect_beta0(params, (0.9, 1.2), 1e-2, mid_grid)
    assert trials[0] == 0.5 * (0.9 + 1.2)
    assert b0 == 0.5 * (0.9 + 1.2)
    assert len(trials) == 1
