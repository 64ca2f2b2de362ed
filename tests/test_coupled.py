from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solveh_banded

import nlsground.coupled as coupled_mod
import nlsground.energy as energy_mod
from nlsground.coupled import (GroundState, InitStrategy, Kind, SolveConfig,
                               certify, classify, solve_coupled)
from nlsground.energy import (EnergyParams, energy_report, project_pohozaev,
                              projected_energy)
from nlsground.errors import (CertificationFailure, InfeasibleStart,
                              NegativeBeta, NoConvergence, NoProjection,
                              NumericalError, ZeroState)
from nlsground.grid import (Profile, RadialGrid, State,
                            flux_laplacian_interior)
from nlsground.nonlinearity import power_sum
from nlsground.scalar import solve_scalar


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolveConfig(init_strategy="bogus")
    cfg = SolveConfig(init_strategy="scalar_pair")
    assert cfg.init_strategy is InitStrategy.SCALAR_PAIR


@pytest.mark.parametrize("bad", [2.5, True])
def test_solve_config_max_iters_must_be_integer(bad):
    with pytest.raises(ValueError, match="max_iters must be an integer"):
        SolveConfig(max_iters=bad)


def test_classify_kinds(grid):
    u = Profile.from_callable(grid, lambda r: np.exp(-r ** 2 / 2.0))
    zero = Profile.zero(grid)
    assert classify(State(u, zero)) is Kind.SCALAR_U
    assert classify(State(zero, u)) is Kind.SCALAR_V
    assert classify(State(u, u)) is Kind.VECTOR
    faint = Profile(grid, 1e-9 * u.values)
    assert classify(State(u, faint)) is Kind.SCALAR_U
    with pytest.raises(ZeroState):
        classify(State(zero, zero))


def test_strong_coupling_vector_state(coupled_beta2):
    params, gs = coupled_beta2
    assert gs.kind is Kind.VECTOR
    assert gs.m > 0.0
    assert gs.iterations > 0
    assert max(gs.residuals) < 1e-5
    # the symmetric system has a swap-symmetric ground state
    du = np.max(np.abs(gs.state.u.values - gs.state.v.values))
    assert du <= 1e-4 * np.max(gs.state.u.values)


def test_vector_energy_matches_symmetric_ansatz(coupled_beta2, cubic_scalar):
    # for f = g cubic the vector state is (w, w)/sqrt(1+beta) with
    # energy 2 I_scalar / (1 + beta)
    params, gs = coupled_beta2
    expect = 2.0 * cubic_scalar.action / (1.0 + params.beta)
    assert gs.m == pytest.approx(expect, rel=1e-3)


def test_weak_coupling_returns_scalar(coupled_beta01, cubic_scalar):
    params, gs = coupled_beta01
    assert gs.kind in (Kind.SCALAR_U, Kind.SCALAR_V)
    assert gs.m == pytest.approx(cubic_scalar.action, rel=1e-6)


def test_energy_never_exceeds_scalar_baselines(coupled_beta2, coupled_beta01,
                                               cubic_scalar):
    for _, gs in (coupled_beta2, coupled_beta01):
        assert gs.m <= cubic_scalar.action + 1e-9


def test_certify_accepts_solver_output(coupled_beta2):
    params, gs = coupled_beta2
    rep = certify(gs, params)
    assert abs(rep.J) <= 1e-6 * (1.0 + rep.K)
    assert abs(rep.I - rep.K / 3.0) <= 1e-6 * (1.0 + rep.K)
    assert rep.residual_u < 1e-5 and rep.residual_v < 1e-5


def test_certify_rejects_off_manifold_state(coupled_beta2):
    params, gs = coupled_beta2
    scaled = State(Profile(gs.state.grid, 1.2 * gs.state.u.values),
                   Profile(gs.state.grid, 1.2 * gs.state.v.values))
    fake = GroundState(state=scaled, m=gs.m, kind=gs.kind,
                       residuals=gs.residuals, iterations=gs.iterations)
    with pytest.raises(CertificationFailure) as exc:
        certify(fake, params)
    assert exc.value.clause == "pohozaev"


def test_certify_rejects_noncritical_state(coupled_beta2, grid):
    # a smooth on-manifold perturbation passes the Pohozaev clause but
    # fails the residual gate
    params, gs = coupled_beta2
    bump = 5e-3 * np.exp(-(grid.r - 3.0) ** 2)
    bump[-1] = 0.0
    noisy = State(Profile(grid, gs.state.u.values + bump), gs.state.v)
    settled, _ = project_pohozaev(noisy, params)
    fake = GroundState(state=settled, m=gs.m, kind=gs.kind,
                       residuals=gs.residuals, iterations=gs.iterations)
    with pytest.raises(CertificationFailure) as exc:
        certify(fake, params)
    assert exc.value.clause == "residual"


def test_descent_candidates_go_through_certify(monkeypatch, grid, cubic_nl,
                                               cubic_scalar):
    # the candidate filter is `certify` itself: when it rejects, no descent
    # run survives, however good its state
    params = EnergyParams(cubic_nl, cubic_nl, 2.0)
    seen = []
    rounds = _count_rounds(monkeypatch)

    def reject(gs, params):
        seen.append(gs)
        raise CertificationFailure("residual", "rejected by the spy")

    monkeypatch.setattr(coupled_mod, "certify", reject)
    with pytest.raises(NoConvergence):
        solve_coupled(params, grid, SolveConfig(init_strategy="scalar_pair"),
                      baselines=(cubic_scalar, cubic_scalar))
    # the two scalar embeddings, then one Newton handoff per descent round
    assert len(rounds) >= 2
    assert len(seen) == 2 + len(rounds)


def _count_rounds(monkeypatch):
    """Record the iteration count of every `_descend` round."""
    rounds = []
    real = coupled_mod._descend

    def counted(state, params, max_iters):
        out = real(state, params, max_iters)
        rounds.append(out[1])
        return out

    monkeypatch.setattr(coupled_mod, "_descend", counted)
    return rounds


def test_symmetric_start_ends_on_the_saddle(monkeypatch, grid, cubic_nl,
                                           cubic_scalar):
    # below β = 1 the scalar pair (w, w) cannot leave the symmetric subspace,
    # and every handoff polishes to its index-2 vector state: two rounds on
    # one saddle end the start, and the scalar_u embedding wins
    params = EnergyParams(cubic_nl, cubic_nl, 0.99)
    rounds = _count_rounds(monkeypatch)
    gs = solve_coupled(params, grid, SolveConfig(init_strategy="scalar_pair"),
                       baselines=(cubic_scalar, cubic_scalar))
    assert len(rounds) == 2 and rounds[0] == coupled_mod.ROUND
    assert gs.kind is Kind.SCALAR_U and gs.iterations == 0
    assert gs.state.u is cubic_scalar.profile


def test_repeated_saddle_ends_a_moving_start(monkeypatch, grid, cubic_nl,
                                             cubic_scalar):
    # the random starts at β = 0.99 also polish to the symmetric saddle; their
    # descent is still moving, so only the repeated action ends them, after
    # two full rounds each
    params = EnergyParams(cubic_nl, cubic_nl, 0.99)
    rounds = _count_rounds(monkeypatch)
    gs = solve_coupled(params, grid,
                       SolveConfig(init_strategy="random_gaussians"),
                       baselines=(cubic_scalar, cubic_scalar))
    assert rounds == [coupled_mod.ROUND, coupled_mod.ROUND] * 2
    assert gs.kind is Kind.SCALAR_U and gs.iterations == 0


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.01, 2.0])
def test_returned_state_has_morse_index_one(monkeypatch, grid, cubic_nl,
                                            cubic_scalar, beta):
    params = EnergyParams(cubic_nl, cubic_nl, beta)
    indices = []

    def spy(state, params):
        index = energy_mod.morse_index(state, params)
        indices.append((state, index))
        return index

    monkeypatch.setattr(coupled_mod, "morse_index", spy)
    gs = solve_coupled(params, grid, baselines=(cubic_scalar, cubic_scalar))
    assert [i for st, i in indices if st is gs.state] == [1]


def test_returned_state_is_one_certify_accepted(monkeypatch, grid, cubic_nl,
                                                cubic_scalar):
    # at weak coupling a scalar embedding wins; it is a candidate like any
    # descent run, so `certify` must have accepted the very state returned
    params = EnergyParams(cubic_nl, cubic_nl, 0.5)
    accepted = []

    def spy(state, params):
        rep = certify(state, params)
        accepted.append(state)
        return rep

    monkeypatch.setattr(coupled_mod, "certify", spy)
    gs = solve_coupled(params, grid, SolveConfig(init_strategy="scalar_pair"),
                       baselines=(cubic_scalar, cubic_scalar))
    assert gs.kind is Kind.SCALAR_U
    assert any(gs.state is st for st in accepted)


def test_descend_rejects_overflowing_potential(monkeypatch, cubic_nl):
    # a potential that overflows gives W = inf, hence Φ = 0: such a trial
    # step lies outside the cone and must be rejected, not accepted as the
    # lowest Φ seen
    g = RadialGrid(R=20.0, N=400)
    w = solve_scalar(cubic_nl, g).profile.values
    real = energy_mod.eval_F

    def overflowing(nl, t):
        out = real(nl, t)
        if np.max(np.abs(t)) > 0.51 * w[0]:
            out = np.array(out, dtype=float)
            out[1:] = np.inf
        return out

    monkeypatch.setattr(energy_mod, "eval_F", overflowing)
    params = EnergyParams(cubic_nl, cubic_nl, 2.0)
    half = Profile(g, 0.5 * w)
    st, _, _ = coupled_mod._descend(State(half, half), params,
                                    coupled_mod.ROUND)
    assert math.isfinite(energy_report(st, params).W)


def test_non_finite_gradient_is_a_numerical_error(monkeypatch, grid, cubic_nl,
                                                  cubic_scalar):
    def poisoned(grid, u, v, params, K, W):
        return np.full(grid.N + 1, np.nan), np.full(grid.N + 1, np.nan)

    monkeypatch.setattr(coupled_mod, "_phi_gradient", poisoned)
    params = EnergyParams(cubic_nl, cubic_nl, 2.0)
    with pytest.raises(NumericalError, match="iteration 0"):
        solve_coupled(params, grid, SolveConfig(init_strategy="scalar_pair"),
                      baselines=(cubic_scalar, cubic_scalar))


def test_precondition_matches_dense_and_banded_references():
    # (I − Δ_h) on nodes 0..N, assembled densely from the grid's own
    # Laplacian stencil: row 0 is the tie d_0 = d_1, row N the Dirichlet
    # d_N = 0, and the gradient is zero at both ends
    g = RadialGrid(R=20.0, N=200)
    n = g.N + 1
    A = np.zeros((n, n))
    A[0, :2] = (1.0, -1.0)
    A[-1, -1] = 1.0
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        A[1:-1, j] = e[1:-1] - flux_laplacian_interior(g, e)
    # the symmetric banded path the held factors reproduce: W(I − Δ_h) on
    # nodes 1..N−1 with W = diag(w), against the right-hand side W·g
    diag, upper, _ = energy_mod._laplacian_band(g)
    w = g.w[1:-1]
    ab = np.zeros((2, g.N - 1))
    ab[0, 1:] = w[:-1] * upper[1:]
    ab[1, :] = w * (1.0 + diag[1:])
    ab[1, 0] = w[0] * (1.0 - upper[1])

    factors = coupled_mod._factor_preconditioner(g)
    rng = np.random.default_rng(7)
    for _ in range(3):
        gu, gv = rng.standard_normal((2, n))
        gu[0] = gv[0] = gu[-1] = gv[-1] = 0.0
        du, dv = coupled_mod._precondition(factors, gu.copy(), gv.copy())
        banded = solveh_banded(ab, w[:, None] * np.stack((gu, gv), 1)[1:-1])
        for d, rhs, col in ((du, gu, 0), (dv, gv, 1)):
            ref = np.linalg.solve(A, rhs)
            assert np.max(np.abs(d - ref)) <= 1e-12 * np.max(np.abs(ref))
            assert d[0] == d[1] and d[-1] == 0.0
            np.testing.assert_allclose(d[1:-1], banded[:, col], rtol=1e-15,
                                       atol=0.0)
            np.testing.assert_allclose(d[0], banded[0, col], rtol=1e-15,
                                       atol=0.0)


def test_negative_beta_rejected(grid, cubic_nl):
    for beta in (0.0, -1.0, math.inf):
        params = EnergyParams(cubic_nl, cubic_nl, beta)
        with pytest.raises(NegativeBeta):
            solve_coupled(params, grid)


def test_infeasible_inits_raise(monkeypatch, grid, cubic_nl, cubic_scalar):
    # an initialization below the mass/potential balance has W <= 0; it is
    # that start's reason in the one failure, next to the embeddings' index 2
    params = EnergyParams(cubic_nl, cubic_nl, 2.0)
    tiny = Profile.from_callable(grid, lambda r: 0.1 * np.exp(-r ** 2 / 2.0))

    def tiny_inits(params, grid, cfg, base_u, base_v):
        return [("tiny", State(tiny, tiny))]

    monkeypatch.setattr(coupled_mod, "_initial_states", tiny_inits)
    with pytest.raises(NoConvergence, match="tiny: initial state lies off "
                                            "the cone"):
        solve_coupled(params, grid, baselines=(cubic_scalar, cubic_scalar))


def test_failed_start_drops_only_itself(monkeypatch, grid, cubic_nl,
                                        cubic_scalar):
    # a start that raises is one run without a candidate: the certified
    # scalar_u embedding still wins
    def failing(init, params, max_iters):
        raise NoProjection("spy")

    monkeypatch.setattr(coupled_mod, "_run_start", failing)
    params = EnergyParams(cubic_nl, cubic_nl, 0.5)
    gs = solve_coupled(params, grid, baselines=(cubic_scalar, cubic_scalar))
    assert gs.state.u is cubic_scalar.profile and gs.iterations == 0


def test_handoff_without_projection_keeps_the_embedding(grid):
    # a property draw whose scalar_pair handoff loses W > 0 on projection
    # (W = -3.2e-9): that start drops out, and scalar_u is the ground state
    f = power_sum([(0.5779227699391589, 3.3392584809375725)] * 2)
    params = EnergyParams(f, power_sum([(0.5, 1.2)]), 0.2)
    gs = solve_coupled(params, grid)
    assert gs.kind is Kind.SCALAR_U and gs.iterations == 0
    assert gs.m == pytest.approx(13.170089128943363, rel=1e-12)
    certify(gs, params)
    assert energy_mod.morse_index(gs.state, params) == 1


def test_descend_rejects_infeasible_state(grid, cubic_nl):
    params = EnergyParams(cubic_nl, cubic_nl, 2.0)
    tiny = Profile.from_callable(grid, lambda r: 0.1 * np.exp(-r ** 2 / 2.0))
    with pytest.raises(InfeasibleStart):
        coupled_mod._descend(State(tiny, tiny), params,
                             SolveConfig().max_iters)


@pytest.mark.parametrize("strategy", ["scalar_pair", "random_gaussians"])
def test_init_strategies_reach_same_ground_state(strategy, grid, cubic_nl,
                                                 cubic_scalar, coupled_beta2):
    params, reference = coupled_beta2
    cfg = SolveConfig(init_strategy=strategy)
    gs = solve_coupled(params, grid, cfg,
                       baselines=(cubic_scalar, cubic_scalar))
    assert gs.kind is Kind.VECTOR
    assert gs.m == pytest.approx(reference.m, rel=1e-8)


def test_solver_deterministic(grid, cubic_nl, cubic_scalar, coupled_beta2):
    params, first = coupled_beta2
    again = solve_coupled(params, grid,
                          baselines=(cubic_scalar, cubic_scalar))
    assert again.m == first.m
    assert np.array_equal(again.state.u.values, first.state.u.values)
    assert np.array_equal(again.state.v.values, first.state.v.values)


def test_start_that_cannot_win_ends_in_rounds(monkeypatch, cubic_nl):
    # p = 4.6 is under-resolved at h = 0.0125: no start polishes to a state
    # that wins, and each one ends when its handoff repeats, not when the
    # 20,000-iteration budget runs out; the scalar_u embedding certifies,
    # but its action is three times the bound Φ_h of (0, w_g), whose
    # certificate fails on this grid, so the solve fails and names both
    g = RadialGrid(R=20.0, N=1600)
    params = EnergyParams(cubic_nl, power_sum([(1.0, 4.6)]), 1.0)
    base_u, base_v = coupled_mod.scalar_baselines(params, g)
    rounds = _count_rounds(monkeypatch)
    with pytest.raises(NoConvergence) as exc:
        solve_coupled(params, g, baselines=(base_u, base_v))
    message = str(exc.value)
    assert "N=1600" in message
    assert "scalar_u: m=18.89720235 above the embeddings' bound" in message
    assert "scalar_v: certificate clause violated" in message
    assert len(rounds) <= 10 and set(rounds) == {coupled_mod.ROUND}


def test_start_resumes_from_its_projection(monkeypatch):
    # a peaked g (w_g(0) = 140) lets the descent iterate drift far along its
    # dilation ray; resuming from each handoff's projection keeps it on
    # scale, so every start ends within a few rounds
    g = RadialGrid(R=20.0, N=400)
    params = EnergyParams(power_sum([(0.5, 1.2), (0.5, 1.2)]),
                          power_sum([(0.5, 1.2)]), 2.9418)
    base_u, base_v = coupled_mod.scalar_baselines(params, g)
    rounds = _count_rounds(monkeypatch)
    with pytest.raises(NumericalError):
        solve_coupled(params, g, baselines=(base_u, base_v))
    assert len(rounds) <= 20


def test_scalar_pair_needs_more_than_one_round(monkeypatch):
    # both embeddings have Morse index > 1, so only a descent start can give
    # the vector state, and its first handoff is not yet in the basin
    g = RadialGrid(R=20.0, N=1200)
    params = EnergyParams(power_sum([(0.5, 1.3483990280942597)]),
                          power_sum([(0.5, 1.2)]), 0.2)
    base_u, base_v = coupled_mod.scalar_baselines(params, g)
    rounds = _count_rounds(monkeypatch)
    gs = solve_coupled(params, g, SolveConfig(init_strategy="scalar_pair"),
                       baselines=(base_u, base_v))
    assert gs.kind is Kind.VECTOR
    assert gs.m == pytest.approx(127.649453939963, rel=1e-9)
    assert 1 < len(rounds) <= 5


def test_coarse_grid_cannot_certify(monkeypatch, cubic_nl):
    # on a deliberately coarse mesh the discrete Pohozaev defect of the
    # converged states exceeds the certificate budget, and the solver
    # reports that honestly instead of returning an uncertified state; each
    # of the four starts polishes twice to that one state and stops there
    g = RadialGrid(R=20.0, N=640)
    base = solve_scalar(cubic_nl, g)
    params = EnergyParams(cubic_nl, cubic_nl, 2.0)
    rounds = _count_rounds(monkeypatch)
    with pytest.raises(NoConvergence) as exc:
        solve_coupled(params, g, baselines=(base, base))
    assert rounds == [coupled_mod.ROUND] * 8
    # the one failure names every run with its reason
    for name in ("scalar_u", "scalar_v", "scalar_pair", "perturbed_scalar",
                 "random_0", "random_1"):
        assert f"{name}: certificate clause violated" in str(exc.value)


_TERMS = st.lists(st.tuples(st.floats(0.5, 2.0), st.floats(1.2, 4.5)),
                  min_size=1, max_size=2)


@settings(max_examples=25, derandomize=True, deadline=None, database=None)
@given(f=_TERMS, g=_TERMS, beta=st.floats(0.2, 3.0),
       N=st.sampled_from([400, 800]))
@example(f=[(0.9176, 2.0391)], g=[(1.2568, 2.9051), (1.9933, 3.5987)],
         beta=1.9421, N=800)
def test_coupled_state_is_certified_or_fails_cleanly(f, g, beta, N):
    # every draw ends in a certified index-1 state within the embeddings'
    # bound, or in a named numerical failure
    assume(f != g)
    params = EnergyParams(power_sum(f), power_sum(g), beta)
    grid = RadialGrid(R=20.0, N=N)
    try:
        baselines = coupled_mod.scalar_baselines(params, grid)
        gs = solve_coupled(params, grid, baselines=baselines)
    except NumericalError:
        return
    certify(gs, params)
    assert energy_mod.morse_index(gs.state, params) == 1
    bound = _embedding_bound(params, *baselines)
    assert gs.m <= bound + coupled_mod.TIE_REL * (1.0 + abs(bound))


def _embedding_bound(params, base_u, base_v):
    """The lesser projected action of the embeddings (w_f, 0) and (0, w_g)."""
    zero = Profile.zero(base_u.profile.grid)
    return min(projected_energy(State(base_u.profile, zero), params),
               projected_energy(State(zero, base_v.profile), params))


# in each case the lower embedding fails the certificate on its grid, while
# other runs reach certified index-1 states of more action
@pytest.mark.parametrize("N, f, g, beta", [
    (1600, [(1.7451, 1.7097)], [(0.9014, 4.1051)], 1.578),
    (1600, [(0.8044, 1.3673), (0.8194, 4.221)], [(1.7603, 1.5709)], 1.431),
    (1600, [(1.9075, 2.9767)], [(1.7174, 3.3715)], 1.139),
    (4000, [(1.5796, 2.7016)], [(0.5852, 4.4847)], 2.33),
    (4000, [(1.2742, 3.2742), (1.3043, 2.5055)], [(1.6862, 4.0823)], 2.294),
])
def test_answer_never_exceeds_the_embeddings_bound(N, f, g, beta):
    params = EnergyParams(power_sum(f), power_sum(g), beta)
    grid = RadialGrid(R=20.0, N=N)
    baselines = coupled_mod.scalar_baselines(params, grid)
    try:
        gs = solve_coupled(params, grid, baselines=baselines)
    except NumericalError as exc:
        assert f"N={N}" in str(exc)   # the failure names the grid
        return
    bound = _embedding_bound(params, *baselines)
    assert gs.m <= bound + coupled_mod.TIE_REL * (1.0 + abs(bound))
