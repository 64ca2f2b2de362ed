"""Nonlinearity catalog and numerical certification of the standing assumptions.

Two closed-form families are shipped:

``power_sum``
    f(t) = sum_k a_k |t|^(p_k - 1) t with a_k > 0 and p_k in (1, 5),
    F(t) = sum_k a_k |t|^(p_k + 1) / (p_k + 1).

``log_enhanced``
    F(t) = a t^2 ln(1 + t^2) / 2,
    f(t) = a [t ln(1 + t^2) + t^3 / (1 + t^2)].

Both are odd in f / even in F by construction.  The log-enhanced family is
superquadratic but f(t)t / F(t) decreases to 2 as t grows, so it violates the
classical superquadraticity (Ambrosetti-Rabinowitz) condition while still
admitting a ground state; ``check_assumptions`` is built to detect exactly
this distinction.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidExponent

POWER_SUM = "power_sum"
LOG_ENHANCED = "log_enhanced"

# Margin for the superquadraticity certificate: ar_ok requires
# inf_t f(t)t/F(t) >= 2 + AR_MARGIN over the sampled range.
AR_MARGIN = 0.05
# The AR infimum is an asymptotic quantity; the scan always extends
# logarithmically out to this horizon, past the linear samples' range.
AR_HORIZON = 1.0e9
# `check_assumptions` samples (0, SAMPLE_T_MAX] at SAMPLE_COUNT points
SAMPLE_T_MAX, SAMPLE_COUNT = 10.0, 400


def _finite_real(x, what: str) -> float:
    """`x` as a float, or ValueError; an int past the float range overflows."""
    if isinstance(x, bool) or not isinstance(x, numbers.Real) or not math.isfinite(x):
        raise ValueError(f"{what} must be a finite real number, got {x!r}")
    return float(x)


@dataclass(frozen=True)
class Nonlinearity:
    """A member of the catalog, closed under odd reflection.

    Parameters
    ----------
    family : str
        ``"power_sum"`` or ``"log_enhanced"``.
    terms : tuple of (float, float)
        For power_sum: (coefficient, exponent) pairs, coefficients > 0 and
        exponents in the open subcritical window (1, 5).
    amplitude : float
        For log_enhanced: overall factor a > 0.
    """

    family: str
    terms: tuple[tuple[float, float], ...] = ()
    amplitude: float = 1.0

    def __post_init__(self):
        if self.family not in (POWER_SUM, LOG_ENHANCED):
            raise ValueError(f"unknown nonlinearity family: {self.family!r}")
        terms = tuple((_finite_real(a, "coefficient"),
                       _finite_real(p, "exponent")) for a, p in self.terms)
        object.__setattr__(self, "terms", terms)
        object.__setattr__(self, "amplitude", _finite_real(self.amplitude, "amplitude"))
        if self.family == POWER_SUM:
            for a, p in terms:
                if not (1.0 < p < 5.0):
                    raise InvalidExponent(
                        f"exponent {p} outside the admissible range (1, 5)")
                if not a > 0.0:
                    raise ValueError(f"coefficient {a} must be positive")
        elif not self.amplitude > 0.0:
            raise ValueError("log_enhanced amplitude must be positive")


def power_sum(terms) -> Nonlinearity:
    """Build a power-sum nonlinearity from (coefficient, exponent) pairs."""
    return Nonlinearity(POWER_SUM, terms=tuple((a, p) for a, p in terms))


def log_enhanced(amplitude: float = 1.0) -> Nonlinearity:
    """Build the log-enhanced nonlinearity F(t) = a t^2 ln(1+t^2)/2."""
    return Nonlinearity(LOG_ENHANCED, amplitude=amplitude)


def cubic() -> Nonlinearity:
    """The classical cubic f(t) = t^3."""
    return power_sum([(1.0, 3.0)])


def _shared(nl: Nonlinearity, t, t2, out):
    """The piece that f, F and f′ share at t, given t2 = t·t.

    For a power sum it is the list of |t|^(p − 1), one per term; for an
    array t a term with p = 3 takes t2 itself, which is |t|**2.0 to the
    bit.  For log_enhanced it is log1p(t²).  `out` is `_shared_buffers`'
    result in t's shape; the arrays written are returned.
    """
    if nl.family != POWER_SUM:
        return np.log1p(t2, out=out)
    if t.ndim == 0:     # a numpy float's `**`, which rounds unlike the ufunc
        return [np.asarray(abs(t[()]) ** (p - 1.0)) for _, p in nl.terms]
    *bufs, at = out
    if at is not None:
        np.abs(t, out=at)
    return [t2 if p == 3.0 else np.power(at, p - 1.0, out=buf)
            for (_, p), buf in zip(nl.terms, bufs)]


def _shared_buffers(nl: Nonlinearity, empty):
    """Arrays for `_shared`, each made by `empty()`: the one log1p(t²), or
    one per power term with p ≠ 3 and then |t| (None where none is needed)."""
    if nl.family != POWER_SUM:
        return empty()
    bufs = [None if p == 3.0 else empty() for _, p in nl.terms]
    return bufs + [None if all(p == 3.0 for _, p in nl.terms) else empty()]


def _sum_terms(out, tmp, coefs, pieces, factor=None):
    """Σ coef·piece (·factor per term) into `out`, added in order onto the
    first term; zeros with no term.  `tmp` holds each later term."""
    if not pieces:
        out[...] = 0.0
    for k, (c, piece) in enumerate(zip(coefs, pieces)):
        term = np.multiply(c, piece, out=tmp if k else out)
        if factor is not None:
            term *= factor
        if k:
            out += term
    return out


def _potential(nl: Nonlinearity, t, t2, shared, out, tmp):
    """F from `_shared`'s piece into `out`; `tmp` is one scratch array."""
    if nl.family == POWER_SUM:
        # |t|^{p+1} as |t|^{p−1}·t²: the cubic's piece is t² itself
        return _sum_terms(out, tmp[0], [a / (p + 1.0) for a, p in nl.terms],
                          shared, t2)
    np.multiply(0.5 * nl.amplitude, t2, out=out)
    return np.multiply(out, shared, out=out)


def _force(nl: Nonlinearity, t, t2, shared, out, tmp):
    """f from `_shared`'s piece into `out`; `tmp` holds two scratch arrays."""
    if nl.family == POWER_SUM:
        _sum_terms(out, tmp[0], [a for a, _ in nl.terms], shared)
        return np.multiply(out, t, out=out)
    np.multiply(t, shared, out=out)
    ratio = np.multiply(t, t2, out=tmp[0])
    ratio /= np.add(1.0, t2, out=tmp[1])
    out += ratio
    return np.multiply(nl.amplitude, out, out=out)


def _stiffness(nl: Nonlinearity, t, t2, shared, out, tmp):
    """f′ from `_shared`'s piece into `out`; `tmp` holds three scratch arrays."""
    if nl.family == POWER_SUM:
        return _sum_terms(out, tmp[0], [a * p for a, p in nl.terms], shared)
    opt2 = np.add(1.0, t2, out=tmp[0])
    np.multiply(2.0, t2, out=out)
    out /= opt2
    np.add(shared, out, out=out)
    quartic = np.multiply(3.0, t2, out=tmp[1])
    quartic += np.multiply(t2, t2, out=tmp[2])
    quartic /= np.multiply(opt2, opt2, out=opt2)
    out += quartic
    return np.multiply(nl.amplitude, out, out=out)


def _evaluate(formula, nl: Nonlinearity, t):
    """One of f, F, f′ at t, in fresh arrays: a float for a scalar t."""
    t = np.asarray(t, dtype=float)
    t2 = t * t
    shared = _shared(nl, t, t2, _shared_buffers(nl, lambda: np.empty_like(t)))
    out = formula(nl, t, t2, shared, np.empty_like(t),
                  [np.empty_like(t) for _ in range(3)])
    return float(out) if out.ndim == 0 else out


def eval_f(nl: Nonlinearity, t):
    """Evaluate f(t); odd in t, vectorized over numpy arrays."""
    return _evaluate(_force, nl, t)


def eval_F(nl: Nonlinearity, t):
    """Evaluate the exact primitive F(t) = int_0^t f; even in t, F(0) = 0."""
    return _evaluate(_potential, nl, t)


def eval_df(nl: Nonlinearity, t):
    """Evaluate f'(t) (even in t); used by Newton polishing."""
    return _evaluate(_stiffness, nl, t)


@dataclass(frozen=True)
class AssumptionReport:
    """Outcome of the sampled assumption checks, with reproducible witnesses."""

    f1_ok: bool
    f2_ok: bool
    f3_ok: bool
    T1: float | None
    ar_ok: bool
    mu: float            # inf of f(t)t/F(t) over the samples with F > 0
    ar_witness: tuple[float, float] | None   # (mu_required, t) when ar fails


def _loglog_slope(t, ratio):
    """Least-squares slope of log(ratio) against log(t), ignoring zeros."""
    mask = ratio > 0.0
    if mask.sum() < 2:
        return 0.0
    x = np.log(t[mask])
    y = np.log(ratio[mask])
    x = x - x.mean()
    return float((x * y).sum() / (x * x).sum())


def check_assumptions(nl: Nonlinearity, p_test: float) -> AssumptionReport:
    """Certify (f1)-(f3) and the superquadraticity condition on samples.

    Parameters
    ----------
    nl : Nonlinearity
    p_test : float
        Growth exponent to test against, in (1, 5).

    Returns
    -------
    AssumptionReport

    Notes
    -----
    The limit conditions are decided from log-log trends on sample ramps,
    not symbolically: (f1) requires f(t)/t -> 0 at 0 (positive slope of the
    ratio), (f2) requires f(t)/t^p_test non-growing at infinity.  The
    superquadraticity infimum inf f(t)t/F(t) is scanned out to t = 1e9
    because it is an asymptotic quantity; ar_ok demands the infimum clear
    2 by the margin 0.05, and F > 0 at every sample: else the least t
    with F <= 0 is the witness.
    """
    t_max, n_samples = SAMPLE_T_MAX, SAMPLE_COUNT
    if not (1.0 < p_test < 5.0):
        raise InvalidExponent(f"p_test={p_test} outside (1, 5)")

    # (f1): f(t)/t -> 0 as t -> 0+.
    t_small = np.logspace(-8.0, 0.0, 65)
    r_small = np.abs(eval_f(nl, t_small)) / t_small
    if np.all(r_small < 1e-300):
        f1_ok = True       # identically zero near the origin
    else:
        slope = _loglog_slope(t_small, r_small)
        f1_ok = slope >= 0.02 and r_small[0] <= r_small[-1] * (1.0 + 1e-9)

    # (f2): f(t)/t^p_test stays bounded (non-growing trend) at large t.
    t_big = np.logspace(np.log10(t_max), np.log10(t_max) + 4.0, 65)
    r_big = np.abs(eval_f(nl, t_big)) / t_big ** p_test
    f2_ok = _loglog_slope(t_big, r_big) <= 0.02

    # (f3): scan for a witness T1 with F(T1) > T1^2 / 2.
    t_lin = np.linspace(t_max / n_samples, t_max, n_samples)
    gap = eval_F(nl, t_lin) - 0.5 * t_lin * t_lin
    hits = np.nonzero(gap > 0.0)[0]
    f3_ok = hits.size > 0
    T1 = float(t_lin[hits[0]]) if f3_ok else None

    # Superquadraticity: infimum of f(t)t/F(t) over linear samples plus a
    # logarithmic tail out to the asymptotic horizon.
    t_ar = np.concatenate([t_lin, np.logspace(-4.0, np.log10(AR_HORIZON), 257)])
    Fv = eval_F(nl, t_ar)
    good = Fv > 0.0
    if good.any():
        ratio = eval_f(nl, t_ar[good]) * t_ar[good] / Fv[good]
        k = int(np.argmin(ratio))
        mu = float(ratio[k])
        t_at_min = float(t_ar[good][k])
    else:
        mu = 0.0
    nonpositive = t_ar[Fv <= 0.0]    # F <= 0 at some t > 0 breaks AR outright
    if nonpositive.size:
        t_at_min = float(nonpositive.min())
    ar_ok = mu >= 2.0 + AR_MARGIN and not nonpositive.size
    ar_witness = None if ar_ok else (2.0 + AR_MARGIN, t_at_min)

    return AssumptionReport(
        f1_ok=bool(f1_ok), f2_ok=bool(f2_ok), f3_ok=bool(f3_ok), T1=T1,
        ar_ok=bool(ar_ok), mu=mu, ar_witness=ar_witness)
