from __future__ import annotations

import math

import numpy as np
import pytest

from nlsground.errors import InvalidExponent
from nlsground.nonlinearity import (AR_MARGIN, check_assumptions, cubic,
                                    eval_F, eval_df, eval_f, log_enhanced,
                                    power_sum)


def test_cubic_point_values():
    nl = cubic()
    assert eval_f(nl, 2.0) == pytest.approx(8.0, rel=1e-15)
    assert eval_F(nl, 2.0) == pytest.approx(4.0, rel=1e-15)
    assert eval_df(nl, 2.0) == pytest.approx(12.0, rel=1e-15)


def test_log_enhanced_point_values():
    nl = log_enhanced()
    # f(1) = ln 2 + 1/2,  F(2) = 2 ln 5
    assert eval_f(nl, 1.0) == pytest.approx(math.log(2.0) + 0.5, rel=1e-14)
    assert eval_F(nl, 2.0) == pytest.approx(2.0 * math.log(5.0), rel=1e-14)


def test_odd_even_symmetry():
    t = np.linspace(-7.0, 7.0, 201)
    for nl in (cubic(), log_enhanced(0.7), power_sum([(0.5, 2.2), (1.0, 4.5)])):
        np.testing.assert_allclose(eval_f(nl, -t), -eval_f(nl, t), atol=1e-14)
        np.testing.assert_allclose(eval_F(nl, -t), eval_F(nl, t), atol=1e-14)
        np.testing.assert_allclose(eval_df(nl, -t), eval_df(nl, t), atol=1e-14)


@pytest.mark.parametrize("nl", [cubic(), log_enhanced(), power_sum([(2.0, 1.5)])])
def test_derivative_consistency(nl):
    t = np.linspace(0.1, 6.0, 97)
    eps = 1e-6
    fd_f = (eval_F(nl, t + eps) - eval_F(nl, t - eps)) / (2 * eps)
    np.testing.assert_allclose(fd_f, eval_f(nl, t), rtol=1e-8)
    fd_df = (eval_f(nl, t + eps) - eval_f(nl, t - eps)) / (2 * eps)
    np.testing.assert_allclose(fd_df, eval_df(nl, t), rtol=1e-7)


def test_empty_power_sum_is_zero():
    nl = power_sum([])
    t = np.linspace(-3.0, 3.0, 11)
    assert np.all(eval_f(nl, t) == 0.0)
    assert np.all(eval_F(nl, t) == 0.0)
    assert np.all(eval_df(nl, t) == 0.0) and eval_df(nl, t).shape == t.shape
    assert isinstance(eval_f(nl, 1.5), float) and eval_F(nl, -2.0) == 0.0


def test_power_sum_matches_the_accumulator_loop():
    # the sums start from their first term; adding it onto zeros was exact,
    # so every value is bitwise that of the zero-initialised loop
    def loop(nl, t):
        t = np.asarray(t, dtype=float)
        at = np.abs(t)
        f = np.zeros_like(t)
        F = np.zeros_like(t)
        df = np.zeros_like(t)
        for a, p in nl.terms:
            f += a * at ** (p - 1.0)
            F += a / (p + 1.0) * at ** (p - 1.0) * (t * t)
            df += a * p * at ** (p - 1.0)
        return f * t, F, df

    arrays = (np.array([-3.2, -1.0, -0.0, 0.0, 1e-300, 0.5, 2.0, 7.3]),
              np.linspace(-5.0, 5.0, 101))
    for nl in (cubic(), power_sum([(1.0, 2.0), (0.5, 3.5)]),
               power_sum([(2.0, 1.5), (0.3, 2.5), (1.0, 4.5)])):
        for t in arrays:
            for got, want in zip((eval_f(nl, t), eval_F(nl, t),
                                  eval_df(nl, t)), loop(nl, t)):
                assert np.array_equal(got, want)
        for t in (0.0, -1.7, 2.3):
            for got, want in zip((eval_f(nl, t), eval_F(nl, t),
                                  eval_df(nl, t)), loop(nl, t)):
                assert isinstance(got, float) and got == float(want)


@pytest.mark.parametrize("nl", [
    cubic(), log_enhanced(0.7), power_sum([(1.0, 2.0), (0.5, 3.5)]),
    power_sum([(2.0, 1.5), (0.3, 2.5), (1.0, 4.5)]), power_sum([(1.3, 1.05)])])
def test_primitive_matches_its_closed_form(nl):
    # F(t) = Σ a|t|^{p+1}/(p+1), or a t² ln(1+t²)/2, summed term by term
    # in Python floats
    def closed(t):
        if nl.family == "log_enhanced":
            return 0.5 * nl.amplitude * t * t * math.log1p(t * t)
        return sum(a / (p + 1.0) * abs(t) ** (p + 1.0) for a, p in nl.terms)

    t = np.concatenate([[0.0, -0.0, 1e-8, -1e-3], np.linspace(-7.5, 7.5, 301),
                        [-40.0, 123.4]])
    want = np.array([closed(x) for x in t.tolist()])
    np.testing.assert_allclose(eval_F(nl, t), want, rtol=1e-14, atol=0.0)
    for x in (0.0, -2.3, 0.6):
        assert eval_F(nl, x) == pytest.approx(closed(x), rel=1e-14, abs=0.0)


def test_validation_errors():
    with pytest.raises(InvalidExponent):
        power_sum([(1.0, 6.0)])
    with pytest.raises(InvalidExponent):
        power_sum([(1.0, 1.0)])
    with pytest.raises(InvalidExponent):
        power_sum([(1.0, 5.0)])
    with pytest.raises(ValueError):
        power_sum([(-1.0, 3.0)])
    with pytest.raises(ValueError):
        log_enhanced(-2.0)


@pytest.mark.parametrize("bad", [True, np.bool_(True), "2", "1.0", None,
                                 math.inf, math.nan, 1e999])
def test_numbers_must_be_finite_reals(bad):
    with pytest.raises(ValueError, match="must be a finite real number"):
        power_sum([(bad, 3.0)])
    with pytest.raises(ValueError, match="must be a finite real number"):
        power_sum([(1.0, bad)])
    with pytest.raises(ValueError, match="must be a finite real number"):
        log_enhanced(bad)


def test_ints_and_numpy_floats_are_numbers():
    nl = power_sum([(np.float64(2.0), 3), (np.int64(1), np.float32(2.5))])
    assert nl.terms == ((2.0, 3.0), (1.0, 2.5))
    assert all(type(x) is float for term in nl.terms for x in term)
    assert log_enhanced(2).amplitude == 2.0
    assert type(log_enhanced(np.float32(2.0)).amplitude) is float
    with pytest.raises(OverflowError):      # past the float range
        power_sum([(10 ** 400, 3.0)])


def test_scalar_and_array_evaluation_agree():
    nl = log_enhanced(1.3)
    assert isinstance(eval_f(nl, 1.5), float)
    arr = eval_f(nl, np.array([1.5, 2.5]))
    assert arr.shape == (2,)
    assert arr[0] == eval_f(nl, 1.5)


def test_check_assumptions_cubic():
    rep = check_assumptions(cubic(), p_test=3.0)
    assert rep.f1_ok and rep.f2_ok and rep.f3_ok
    assert rep.T1 is not None and rep.T1 > 0.0
    # f(t)t/F(t) = 4 identically for a pure cubic
    assert rep.mu == pytest.approx(4.0, rel=1e-12)
    assert rep.ar_ok
    for eps, c_f, c_F, c_Fs in rep.growth_constants:
        assert c_f >= 0.0 and c_F >= 0.0 and c_Fs >= 0.0
        assert math.isfinite(c_f) and math.isfinite(c_F) and math.isfinite(c_Fs)


def test_check_assumptions_log_family_fails_superquadraticity():
    rep = check_assumptions(log_enhanced(), p_test=3.0)
    assert rep.f1_ok and rep.f2_ok and rep.f3_ok
    # ratio f(t)t/F(t) = 2 + 2t²/((1+t²)ln(1+t²)) decreases to 2: the
    # infimum over the asymptotic scan sits inside (2, 2 + margin), so no
    # margin-clearing mu > 2 exists
    assert not rep.ar_ok
    assert 2.0 < rep.mu < 2.0 + AR_MARGIN
    assert rep.ar_witness is not None
    mu_required, t_at = rep.ar_witness
    assert mu_required == pytest.approx(2.0 + AR_MARGIN)
    assert t_at > 1e6


def test_check_assumptions_fails_ar_where_F_is_not_positive():
    # f = 2t³ − t² has F = t⁴/2 − t³/3 < 0 on (0, 2/3), so AR fails however
    # far f(t)t/F(t) clears 2 where F > 0; the catalog admits no negative
    # coefficient, hence the bypass
    nl = power_sum([(2.0, 3.0), (1.0, 2.0)])
    object.__setattr__(nl, "terms", ((2.0, 3.0), (-1.0, 2.0)))
    rep = check_assumptions(nl, p_test=3.0)
    assert not rep.ar_ok
    assert rep.ar_witness == (2.0 + AR_MARGIN, pytest.approx(1e-4, rel=1e-12))
    assert eval_F(nl, rep.ar_witness[1]) < 0.0
    assert rep.mu == pytest.approx(4.0, rel=1e-6)      # over F > 0 only
    assert rep.f1_ok and rep.f2_ok and rep.f3_ok


def test_check_assumptions_rejects_bad_p_test():
    with pytest.raises(InvalidExponent):
        check_assumptions(cubic(), p_test=5.5)


def test_subquadratic_profile_fails_f3():
    # a single nearly-linear power has F(t) < t²/2 for small coefficients,
    # and the scan over (0, t_max] finds no superquadratic witness
    nl = power_sum([(1e-4, 1.1)])
    rep = check_assumptions(nl, p_test=3.0)
    assert not rep.f3_ok
    assert rep.T1 is None
