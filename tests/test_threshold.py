from __future__ import annotations

import math

import numpy as np
import pytest

import nlsground.threshold as threshold_mod
from nlsground.coupled import Kind
from nlsground.energy import EnergyParams
from nlsground.errors import InvalidBracket, NoConvergence
from nlsground.grid import RadialGrid, integrate, kinetic
from nlsground.nonlinearity import cubic, eval_F
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
    lhs, rhs, beats = compare_energies(params, cubic_scalar, cubic_scalar,
                                       grid)
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


def test_pair_bound_decreases_with_coupling(grid, cubic_scalar):
    values = []
    for beta in (0.5, 1.0, 2.0, 5.0):
        params = EnergyParams(cubic(), cubic(), beta)
        lhs, _, _ = compare_energies(params, cubic_scalar, cubic_scalar, grid)
        values.append(lhs)
        # the bound can never undercut the true symmetric vector energy
        assert lhs > 2.0 * cubic_scalar.action / (1.0 + beta) - 1e-9
    assert all(a > b for a, b in zip(values, values[1:]))


def test_pair_bound_crossing_location(grid, cubic_scalar):
    # sufficient condition only: the unoptimized pair overshoots near the
    # transition and only undercuts the scalar action somewhat later
    weak = compare_energies(EnergyParams(cubic(), cubic(), 0.01),
                            cubic_scalar, cubic_scalar, grid)
    assert not weak[2]
    near = compare_energies(EnergyParams(cubic(), cubic(), 1.2),
                            cubic_scalar, cubic_scalar, grid)
    assert not near[2]
    strong = compare_energies(EnergyParams(cubic(), cubic(), 2.0),
                              cubic_scalar, cubic_scalar, grid)
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
