from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import solveh_banded

import nlsground.coupled as coupled_mod
import nlsground.energy as energy_mod
from nlsground.coupled import (GroundState, Kind, SolveConfig, certify,
                               classify, solve_coupled)
from nlsground.energy import (EnergyParams, energy_report, project_pohozaev,
                              projected_energy)
from nlsground.errors import (CertificationFailure, NegativeBeta,
                              NoConvergence, NoProjection, NumericalError,
                              ZeroState)
from nlsground.grid import (Profile, RadialGrid, State,
                            flux_laplacian_interior)
from nlsground.nonlinearity import power_sum
from nlsground.scalar import solve_scalar


def test_solve_config_validation():
    with pytest.raises(ValueError):
        SolveConfig(max_iters=0)
    with pytest.raises(ValueError):
        SolveConfig(seed=-1)


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


def test_near_threshold_vector_state_takes_one_round(grid, cubic_nl,
                                                     cubic_scalar):
    # just above β = 1 the descent from (w, w) finds the vector basin in
    # its first round: the first handoff is accepted
    params = EnergyParams(cubic_nl, cubic_nl, 1.01)
    gs = solve_coupled(params, grid, baselines=(cubic_scalar, cubic_scalar))
    assert gs.kind is Kind.VECTOR
    assert gs.iterations == coupled_mod.ROUND
    expect = 2.0 * cubic_scalar.action / (1.0 + params.beta)
    assert gs.m == pytest.approx(expect, rel=1e-9)


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
        solve_coupled(params, grid, SolveConfig(),
                      baselines=(cubic_scalar, cubic_scalar))
    # the two scalar embeddings, then one Newton handoff per descent round
    assert len(rounds) >= 2
    assert len(seen) == 2 + len(rounds)


def _count_rounds(monkeypatch):
    """Record the iteration count of every `_descend` round."""
    rounds = []
    real = coupled_mod._descend

    def counted(*args):
        out = real(*args)
        rounds.append(out[1])
        return out

    monkeypatch.setattr(coupled_mod, "_descend", counted)
    return rounds


def _record_starts(monkeypatch):
    """Record what every descent start returns: (accepted state, reason)."""
    ends = []
    real = coupled_mod._run_start

    def recorded(init, params, max_iters):
        out = real(init, params, max_iters)
        ends.append(out)
        return out

    monkeypatch.setattr(coupled_mod, "_run_start", recorded)
    return ends


def test_symmetric_start_ends_on_the_saddle(monkeypatch, grid, cubic_nl,
                                           cubic_scalar):
    # below β = 1 the scalar pair (w, w) cannot leave the symmetric subspace,
    # and every handoff polishes to its index-2 vector state: two rounds on
    # one saddle end the start, and the scalar_u embedding wins
    params = EnergyParams(cubic_nl, cubic_nl, 0.99)
    rounds = _count_rounds(monkeypatch)
    gs = solve_coupled(params, grid, SolveConfig(),
                       baselines=(cubic_scalar, cubic_scalar))
    assert len(rounds) == 2 and rounds[0] == coupled_mod.ROUND
    assert gs.kind is Kind.SCALAR_U and gs.iterations == 0
    assert gs.state.u is cubic_scalar.profile


def test_repeated_saddle_ends_a_moving_start(monkeypatch, grid, cubic_nl,
                                             cubic_scalar):
    # two asymmetric Gaussian starts at β = 0.99 also polish to the symmetric
    # saddle; their descent is still moving, so only the repeated action
    # ends them, after two full rounds each
    params = EnergyParams(cubic_nl, cubic_nl, 0.99)

    def gauss(a, s):
        return Profile.from_callable(grid,
                                     lambda r: a * np.exp(-r ** 2 / (2 * s * s)))

    def gaussian_inits(base_u, base_v):
        return [("gauss_0", State(gauss(3.09, 0.945), gauss(2.17, 0.918))),
                ("gauss_1", State(gauss(3.53, 1.57), gauss(3.78, 1.70)))]

    monkeypatch.setattr(coupled_mod, "_initial_states", gaussian_inits)
    rounds = _count_rounds(monkeypatch)
    ends = _record_starts(monkeypatch)
    gs = solve_coupled(params, grid, baselines=(cubic_scalar, cubic_scalar))
    assert rounds == [coupled_mod.ROUND, coupled_mod.ROUND] * 2
    assert ends == [(None, f"Morse index 2 after {2 * coupled_mod.ROUND} "
                           "iterations")] * 2
    assert gs.kind is Kind.SCALAR_U and gs.iterations == 0


def test_armijo_failure_ends_a_start(monkeypatch, grid, cubic_nl,
                                     cubic_scalar):
    # with no trial step able to pass, the round stops after its first
    # iteration, and that round's handoff (the saddle, rejected) is the
    # start's last; the scalar_u embedding wins
    params = EnergyParams(cubic_nl, cubic_nl, 0.99)
    monkeypatch.setattr(coupled_mod, "ARMIJO", math.inf)
    rounds = _count_rounds(monkeypatch)
    ends = _record_starts(monkeypatch)
    gs = solve_coupled(params, grid, baselines=(cubic_scalar, cubic_scalar))
    assert rounds == [1]
    assert ends == [(None, "Morse index 2 after 1 iterations")]
    assert gs.kind is Kind.SCALAR_U and gs.iterations == 0


@pytest.mark.parametrize("beta", [0.5, 1.0, 1.01, 2.0])
def test_returned_state_has_morse_index_one(monkeypatch, grid, cubic_nl,
                                            cubic_scalar, beta):
    params = EnergyParams(cubic_nl, cubic_nl, beta)
    indices = []

    def spy(grid, ys, params):
        index = energy_mod.morse_index(grid, ys, params)
        indices.append((ys, index))
        return index

    monkeypatch.setattr(coupled_mod, "morse_index", spy)
    gs = solve_coupled(params, grid, baselines=(cubic_scalar, cubic_scalar))
    assert [i for (u, v), i in indices
            if u is gs.state.u.values and v is gs.state.v.values] == [1]


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
    gs = solve_coupled(params, grid, SolveConfig(),
                       baselines=(cubic_scalar, cubic_scalar))
    assert gs.kind is Kind.SCALAR_U
    assert any(gs.state is st for st in accepted)


def _reference_solve(params, grid, baselines):
    """`solve_coupled`'s reduction over all three runs, each one judged.

    Both embeddings and the start go through `_candidate` in the order the
    failure lists them; the bound and the tie rule are `solve_coupled`'s.
    """
    base_u, base_v = baselines
    zero = Profile.zero(grid)
    embeddings = {"scalar_u": State(base_u.profile, zero),
                  "scalar_v": State(zero, base_v.profile)}
    runs = [(name, coupled_mod._candidate(e, params, 0))
            for name, e in embeddings.items()]
    for name, init in coupled_mod._initial_states(base_u, base_v):
        try:
            runs.append((name, coupled_mod._run_start(init, params, 20000)))
        except (NumericalError, ZeroState) as exc:
            runs.append((name, (None, str(exc))))
    bound = min(projected_energy(e, params) for e in embeddings.values())
    for i, (name, (gs, _)) in enumerate(runs):
        if gs is not None and gs.m > coupled_mod._tie_limit(bound):
            runs[i] = name, (None, f"m={gs.m:.10g} above the embeddings' "
                                   f"bound {bound:.10g}")
    candidates = [gs for _, (gs, _) in runs if gs is not None]
    if not candidates:
        raise NoConvergence(
            f"no certified state of Morse index 1 within the embeddings' bound "
            f"on N={grid.N}, h={grid.h:g} (under-resolved? refine N): "
            + "; ".join(f"{name}: {reason}" for name, (_, reason) in runs))
    m_min = min(c.m for c in candidates)
    tied = [c for c in candidates if c.m <= coupled_mod._tie_limit(m_min)]
    return min(tied, key=lambda c: (c.kind is not Kind.VECTOR,
                                    c.kind is Kind.SCALAR_V, c.iterations,
                                    max(c.residuals)))


def _spy_on_the_gate(monkeypatch):
    """Record every state that reaches `certify` or `morse_index`."""
    seen = []
    real_certify, real_index = coupled_mod.certify, coupled_mod.morse_index

    def certify_spy(state, params):
        seen.append(state.values)
        return real_certify(state, params)

    def index_spy(grid, ys, params):
        seen.append(ys)
        return real_index(grid, ys, params)

    monkeypatch.setattr(coupled_mod, "certify", certify_spy)
    monkeypatch.setattr(coupled_mod, "morse_index", index_spy)
    return seen


def _embedding_states(seen):
    """The recorded states with one component identically zero."""
    return [ys for ys in seen if not (ys[0].any() and ys[1].any())]


def test_an_embedding_that_cannot_win_is_not_judged(monkeypatch, grid,
                                                    cubic_nl, cubic_scalar):
    # at β = 2 the start's vector state lies far below both embeddings, so
    # neither reaches the certificate or the index, and the answer is the
    # one the reduction over all three judged runs gives
    params = EnergyParams(cubic_nl, cubic_nl, 2.0)
    baselines = (cubic_scalar, cubic_scalar)
    want = _reference_solve(params, grid, baselines)
    seen = _spy_on_the_gate(monkeypatch)
    gs = solve_coupled(params, grid, baselines=baselines)
    assert seen and _embedding_states(seen) == []
    assert gs.kind is want.kind is Kind.VECTOR
    assert (gs.m, gs.iterations, gs.residuals) == (want.m, want.iterations,
                                                   want.residuals)
    assert np.array_equal(gs.state.u.values, want.state.u.values)
    assert np.array_equal(gs.state.v.values, want.state.v.values)


def test_embeddings_that_can_win_are_judged(monkeypatch, grid, cubic_nl,
                                            cubic_scalar):
    # at β = 0.5 the start ends on its saddle with no state, so both
    # embeddings are judged, and scalar_u wins
    params = EnergyParams(cubic_nl, cubic_nl, 0.5)
    seen = _spy_on_the_gate(monkeypatch)
    gs = solve_coupled(params, grid, baselines=(cubic_scalar, cubic_scalar))
    embedded = _embedding_states(seen)
    assert any(not v.any() for _, v in embedded)
    assert any(not u.any() for u, _ in embedded)
    assert gs.kind is Kind.SCALAR_U and gs.iterations == 0


def test_a_start_above_the_bound_leaves_the_embeddings_judged(monkeypatch):
    # the start's state lies above the embeddings' bound, so it sets no
    # ceiling: both embeddings are judged, both fail, and the failure reads
    # as the reduction over all three judged runs has it
    g = RadialGrid(R=20.0, N=1600)
    params = EnergyParams(power_sum([(1.7451, 1.7097)]),
                          power_sum([(0.9014, 4.1051)]), 1.578)
    baselines = coupled_mod.scalar_baselines(params, g)
    with pytest.raises(NoConvergence) as want:
        _reference_solve(params, g, baselines)
    seen = _spy_on_the_gate(monkeypatch)
    with pytest.raises(NoConvergence) as exc:
        solve_coupled(params, g, baselines=baselines)
    assert str(exc.value) == str(want.value)
    assert "scalar_pair: m=" in str(exc.value)
    embedded = _embedding_states(seen)
    assert any(not v.any() for _, v in embedded)
    assert any(not u.any() for u, _ in embedded)


def test_an_exact_tie_prefers_fewer_iterations(monkeypatch, grid, cubic_nl,
                                               cubic_scalar):
    # the start returns the scalar_u embedding's own judged state after 20
    # iterations and with a smaller residual: the energies tie exactly, and
    # the embedding, with 0 iterations, wins
    params = EnergyParams(cubic_nl, cubic_nl, 0.5)
    judged = coupled_mod._judge(
        State(cubic_scalar.profile, Profile.zero(grid)), params, 0)
    copy = dataclasses.replace(
        judged, iterations=20,
        residuals=tuple(0.5 * r for r in judged.residuals))
    monkeypatch.setattr(coupled_mod, "_run_start",
                        lambda init, params, max_iters: (copy, ""))
    gs = solve_coupled(params, grid, baselines=(cubic_scalar, cubic_scalar))
    assert gs.m == copy.m and max(gs.residuals) > max(copy.residuals)
    assert gs.iterations == 0


def test_descend_rejects_overflowing_potential(monkeypatch, cubic_nl):
    # a potential that overflows gives W = inf, hence Φ = 0: such a trial
    # step lies outside the cone and must be rejected, not accepted as the
    # lowest Φ seen
    g = RadialGrid(R=20.0, N=400)
    w = solve_scalar(cubic_nl, g).profile.values
    real = energy_mod._potential

    def overflowing(nl, t, *buffers):
        out = real(nl, t, *buffers)
        if np.max(np.abs(t)) > 0.51 * w[0]:
            out = np.array(out, dtype=float)
            out[1:] = np.inf
        return out

    monkeypatch.setattr(energy_mod, "_potential", overflowing)
    params = EnergyParams(cubic_nl, cubic_nl, 2.0)
    half = Profile(g, 0.5 * w)
    (u, v), _ = coupled_mod._descend(g, (half.values, half.values), params,
                                     coupled_mod.ROUND)
    st = State(Profile(g, u), Profile(g, v))
    assert math.isfinite(energy_report(st, params).W)


def test_non_finite_gradient_is_a_numerical_error(monkeypatch, grid, cubic_nl,
                                                  cubic_scalar):
    def poisoned(grid, ys, params, K, W):
        return tuple(np.full(grid.N + 1, np.nan) for _ in ys)

    monkeypatch.setattr(coupled_mod, "_phi_gradient", poisoned)
    params = EnergyParams(cubic_nl, cubic_nl, 2.0)
    with pytest.raises(NumericalError, match="iteration 0"):
        solve_coupled(params, grid, SolveConfig(),
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
        du, dv = coupled_mod._precondition(factors, (gu.copy(), gv.copy()))
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

    def tiny_inits(base_u, base_v):
        return [("tiny", State(tiny, tiny))]

    monkeypatch.setattr(coupled_mod, "_initial_states", tiny_inits)
    with pytest.raises(NoConvergence, match="tiny: K=.*off the cone"):
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
    assert energy_mod.morse_index(grid, gs.state.values, params) == 1


def test_descend_rejects_infeasible_state(grid, cubic_nl):
    params = EnergyParams(cubic_nl, cubic_nl, 2.0)
    tiny = Profile.from_callable(grid, lambda r: 0.1 * np.exp(-r ** 2 / 2.0))
    with pytest.raises(NoProjection):
        coupled_mod._descend(grid, (tiny.values, tiny.values), params,
                             SolveConfig().max_iters)


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
    gs = solve_coupled(params, g, SolveConfig(),
                       baselines=(base_u, base_v))
    assert gs.kind is Kind.VECTOR
    assert gs.m == pytest.approx(127.649453939963, rel=1e-9)
    assert 1 < len(rounds) <= 5


def test_coarse_grid_cannot_certify(monkeypatch, cubic_nl):
    # on a deliberately coarse mesh the discrete Pohozaev defect of the
    # converged states exceeds the certificate budget, and the solver
    # reports that honestly instead of returning an uncertified state; the
    # start polishes twice to that one state and stops there
    g = RadialGrid(R=20.0, N=640)
    base = solve_scalar(cubic_nl, g)
    params = EnergyParams(cubic_nl, cubic_nl, 2.0)
    rounds = _count_rounds(monkeypatch)
    with pytest.raises(NoConvergence) as exc:
        solve_coupled(params, g, baselines=(base, base))
    assert rounds == [coupled_mod.ROUND] * 2
    # the one failure names every run with its reason
    for name in ("scalar_u", "scalar_v", "scalar_pair"):
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
    assert energy_mod.morse_index(grid, gs.state.values, params) == 1
    bound = _embedding_bound(params, *baselines)
    assert gs.m <= bound + coupled_mod.TIE_REL * (1.0 + abs(bound))


# draws of the property test above that return a state, pinned here: the
# starts must keep reaching each answer, and hypothesis seeds its draws with
# number literals from the source, so the test's own draws shift with edits
@pytest.mark.parametrize("N, f, g, beta, kind, m", [
    (400, [(1.8605774100131578, 1.2)], [(0.5, 1.2)], 0.2,
     Kind.SCALAR_U, 0.31146979588656487),
    (400, [(1.4390811863748851, 1.2)], [(0.5, 1.2)], 0.2,
     Kind.SCALAR_U, 4.06481158878757),
    (800, [(1.4390811863748851, 2.661538484714544)], [(1.0, 3.826593723128285)],
     2.3876456135900965, Kind.VECTOR, 10.256058133046448),
    (400, [(1.1108377789831216, 2.5897802047907126),
           (0.8412144659914103, 1.4328378029018312)],
     [(1.4328378029018312, 1.2)], 0.2, Kind.SCALAR_V, 4.245443490812157),
    (400, [(1.4328378029018312, 2.5897802047907126),
           (0.8412144659914103, 1.4328378029018312)],
     [(1.4328378029018312, 1.2)], 0.2, Kind.SCALAR_V, 4.24544349081215),
    (400, [(0.6021710535936445, 2.004699634865476), (1.5, 1.2549705284347261)],
     [(0.5406704614203819, 2.9503117082776136)], 0.23408928754432684,
     Kind.SCALAR_U, 2.1409067798463504),
])
def test_property_draws_keep_their_answers(N, f, g, beta, kind, m):
    params = EnergyParams(power_sum(f), power_sum(g), beta)
    gs = solve_coupled(params, RadialGrid(R=20.0, N=N))
    assert gs.kind is kind
    assert gs.m == pytest.approx(m, rel=1e-9)


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


@pytest.mark.parametrize("family, beta", [("cubic", 0.99), ("cubic", 2.0),
                                          ("log", 0.3)])
def test_scalar_pair_round_stays_mirrored(request, grid, family, beta):
    # for f = g the Φ-flow keeps u = v: a round from (w, w) ends on a pair
    # of one array to the bit, and so does its projection, the next round's
    # start, so every round of the scalar pair runs on one array
    nl = request.getfixturevalue(f"{family}_nl")
    w = request.getfixturevalue(f"{family}_scalar").profile
    params = EnergyParams(nl, nl, beta)
    (u, v), _ = coupled_mod._descend(grid, (w.values, w.values), params,
                                     coupled_mod.ROUND)
    assert u.tobytes() == v.tobytes()
    state, _ = project_pohozaev(State(Profile(grid, u), Profile(grid, v)),
                                params)
    assert state.u.values.tobytes() == state.v.values.tobytes()
