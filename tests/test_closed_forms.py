"""Closed-form entropies and exact D = W + S densities against quadrature.

The library evaluates the two-rate sum entropy, the uniform sum entropy,
the Erlang entropy and the inter-departure densities of the shipped service
laws in closed form.  The oracles here are the quadratures those closed
forms replaced: the certified adaptive quadrature of -f log f (kept only in
this file), the composite Gauss-Legendre entropy of `NumericalConvolution`,
the Gauss-Legendre convolution `oracles.gl_sum_log_pdf`, and scipy.stats.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from oracles import (
    gl_sum_log_pdf,
    mp_erlang_sum_entropy,
    mp_erlang_sum_log_pdf,
    support,
    two_rate_quantile,
)
from timingq import (
    Erlang,
    Exponential,
    NumericalConvolution,
    QuadratureError,
    Uniform,
    cas_bound,
    hypoexp_entropy,
)
from timingq.distributions import ENTROPY_ABS_TOL, _neg_f_log_f

# Survival level of the oracle's upper integration limit.
TAIL_MASS = 1e-12

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True,
                    database=None)


# ------------------------------------------------------------------ oracles

def _entropy_quad(log_pdf, upper, points=(), abs_tol=ENTROPY_ABS_TOL,
                  tail_estimate=0.0):
    """Adaptive quadrature of -f log f on [0, upper] with certified error.

    `points` marks known fast-scale features or kinks.  The reported error
    is QUADPACK's estimate plus `tail_estimate` for the truncated
    exponential tail; exceeding `abs_tol` raises QuadratureError.
    """

    def integrand(d):
        return float(_neg_f_log_f(log_pdf(np.array([d])))[0])

    pts = sorted({p for p in points if 0.0 < p < upper})
    value, err = integrate.quad(integrand, 0.0, upper, points=pts or None,
                                epsabs=abs_tol * 1e-2, epsrel=1e-12, limit=800)
    total_err = err + tail_estimate
    if total_err > abs_tol:
        raise QuadratureError("entropy quadrature did not converge", total_err)
    return value, total_err


def quadrature_two_rate_entropy(lam, mu):
    """Entropy of Exponential(lam) + Exponential(mu) over [0, Q], Q the
    1 - 1e-12 quantile, the discarded tail bounded by an envelope."""
    model = NumericalConvolution(lam, Exponential(mu))
    a, b = min(lam, mu), max(lam, mu)
    upper = two_rate_quantile(lam, mu, 1.0 - TAIL_MASS)
    tail = TAIL_MASS * (abs(float(model.log_pdf(upper))) + 2.0)
    # breakpoints resolve the fast scale 1/b when the rates are far apart
    points = (0.5 / b, 2.0 / b, 10.0 / b, 30.0 / b, 1.0 / a, 5.0 / a)
    value, _ = _entropy_quad(model.log_pdf, upper, points=points,
                             tail_estimate=tail)
    return value


def quadrature_erlang_entropy(model):
    upper = float(model.ppf(1.0 - TAIL_MASS))
    mode = max((model.shape - 1) / model.rate, 1e-12)
    value, _ = _entropy_quad(model.log_pdf, upper, points=(mode, 5.0 * mode),
                             tail_estimate=TAIL_MASS * (model.rate * upper + 40.0))
    return value


# -------------------------------------------------------- two-rate entropy

rho_values = st.floats(1e-3, 50.0)
# rate ratios b/a - 1 between 1e-8 and 1e-3, on either side of rho = 1
near_one = st.tuples(st.floats(3.0, 8.0), st.sampled_from((-1.0, 1.0))).map(
    lambda t: 1.0 + t[1] * 10.0 ** -t[0])


@PROPERTY
@given(rho=st.one_of(rho_values, near_one), mu=st.floats(0.1, 10.0))
@example(rho=1e-3, mu=1.0)
@example(rho=50.0, mu=1.0)
@example(rho=1.0 + 1e-8, mu=1.0)
@example(rho=1.0 - 1e-8, mu=1.0)
def test_two_rate_entropy_matches_quadrature_oracles(rho, mu):
    lam = rho * mu
    closed = hypoexp_entropy(lam, mu)
    assert abs(closed - quadrature_two_rate_entropy(lam, mu)) <= ENTROPY_ABS_TOL
    # Erlang(1, mu) is Exponential(mu), but its entropy takes the panels
    panels = NumericalConvolution(lam, Erlang(1, mu)).entropy()
    assert abs(closed - panels) <= ENTROPY_ABS_TOL


def test_two_rate_entropy_continuous_across_equal_rate_switch():
    # just inside and just outside the 1e-9 relative switch to Erlang-2
    inside = hypoexp_entropy(1.0, 1.0 + 5e-10)
    outside = hypoexp_entropy(1.0, 1.0 + 2e-9)
    assert abs(inside - outside) < 1e-8


# ------------------------------------------------------- exact densities

def _fallback_window_top(lam, service):
    # The Gauss-Legendre fallback drops the service mass beyond its
    # 1 - 1e-14 quantile and the idle mass beyond 700/lam.  Past those
    # points the dropped mass is no longer small relative to f_D(d), so the
    # fallback is only an oracle below them.
    return min(float(service.ppf(1.0 - 1e-14)), 700.0 / lam)


def _assert_exact_matches_fallback(lam, service, d):
    exact = NumericalConvolution(lam, service).log_pdf(d)
    fallback = gl_sum_log_pdf(lam, service, d)
    assert np.all(np.isfinite(exact))
    assert np.max(np.abs(exact - fallback)) <= 1e-10


lam_values = st.floats(0.05, 10.0)
# beta/lam: equal, within 1e-12..1e-3 of equal, or anywhere in 1/200..200
beta_ratio = st.one_of(
    st.just(1.0),
    st.tuples(st.floats(3.0, 12.0), st.sampled_from((-1.0, 1.0))).map(
        lambda t: 1.0 + t[1] * 10.0 ** -t[0]),
    st.floats(-math.log(200.0), math.log(200.0)).map(math.exp),
)


@PROPERTY
@given(lam=lam_values, ratio=beta_ratio, k=st.integers(1, 3))
@example(lam=10.0, ratio=0.2, k=2)
@example(lam=2.0, ratio=1.0, k=3)
@example(lam=0.05, ratio=40.0, k=3)
def test_exact_erlang_sum_density_matches_fallback(lam, ratio, k):
    service = Erlang(k, lam * ratio)
    top = _fallback_window_top(lam, service)
    _assert_exact_matches_fallback(lam, service, np.linspace(top * 1e-6, top, 300))


@pytest.mark.parametrize("lam, beta, k", [(0.05, 10.0, 3), (0.5, 2.0, 1),
                                          (10.0, 0.2, 2), (3.0, 2.0, 3)])
def test_exact_erlang_sum_density_far_tail(lam, beta, k):
    # |beta - lam| d reaches 2000, far past where exp(|beta - lam| d)
    # overflows, so neither form may let its 1F1 factor grow
    d = np.linspace(1.0, 2000.0, 50) / abs(beta - lam)
    exact = NumericalConvolution(lam, Erlang(k, beta)).log_pdf(d)
    assert np.all(np.isfinite(exact))
    if beta > lam:
        # f_D(d) = lam e^(-lam d) (beta/(beta - lam))^k P(k, (beta - lam) d)
        ref = (math.log(lam) - lam * d + k * math.log(beta / (beta - lam))
               + np.log(special.gammainc(k, (beta - lam) * d)))
    else:
        # with c = lam - beta, integrating s^(k-1) e^(c s) by parts gives
        # f_D(d) = lam (beta/c)^k [e^(-beta d) sum_j (-1)^(k-1-j) (c d)^j / j!
        #                          - (-1)^(k-1) e^(-lam d)]
        c = lam - beta
        series = sum((-1) ** (k - 1 - j) * (c * d) ** j / math.factorial(j)
                     for j in range(k))
        ref = (math.log(lam) + k * math.log(beta / c) - beta * d
               + np.log(series - (-1) ** (k - 1) * np.exp(-c * d)))
    assert np.max(np.abs(exact - ref)) <= 1e-10


@pytest.mark.parametrize("lam, k, beta", [
    (0.456, 2, 2.0), (5.0, 2, 2.0), (0.05, 1000, 1000.0), (0.5, 1000, 1000.0),
    (0.999, 200, 200.0), (0.5, 500, 500.0), (3.0, 7, 2.0),
    # lam > beta, past where scipy's 1F1 loses digits or reads nan
    (2000.0, 1000, 1000.0), (1251.0, 1000, 1.0), (1e6, 3, 2.0), (1e14, 10, 10.0)])
def test_exact_erlang_sum_density_matches_mpmath(lam, k, beta):
    # from 1e-3 to 30 times the mean of D: every branch of the exact form
    d = (1.0 / lam + k / beta) * np.array(
        [1e-3, 0.05, 0.2, 0.5, 0.9, 1.0, 1.1, 1.5, 3.0, 10.0, 30.0])
    exact = NumericalConvolution(lam, Erlang(k, beta)).log_pdf(d)
    ref = mp_erlang_sum_log_pdf(lam, k, beta, d)
    assert np.all(np.abs(exact - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))


def test_exact_erlang_sum_density_with_negligible_service():
    # beta >> lam: f_D(d) = lam e^(-lam d) (beta/(beta - lam))^k P(k, (beta - lam) d)
    # tends to lam e^(-lam d); 1F1(k; k+1; -(beta - lam) d) underflowed to 0 here
    lam, d = 1e-300, np.array([1e296, 1e299, 1e300, 3e300, 1e301])
    exact = NumericalConvolution(lam, Erlang(2, 1e300)).log_pdf(d)
    assert np.allclose(exact, math.log(lam) - lam * d, rtol=1e-15, atol=0)


@pytest.mark.parametrize("k, rho", [(1000, 0.05), (1000, 0.5), (500, 0.5)])
def test_cas_bound_with_large_erlang_shape_matches_mpmath(k, rho):
    # mean service 1, so rho = lam; the old 1F1(k; k+1; .) underflowed at
    # these shapes, and the converse came out too low or did not certify
    service = Erlang(k, float(k))
    ref = ((mp_erlang_sum_entropy(rho, k, float(k)) - service.entropy())
           / (1.0 / rho + 1.0))
    assert abs(cas_bound(rho, service) - ref) <= 1e-7


@PROPERTY
@given(lam=lam_values, lo=st.floats(0.0, 2.0), width=st.floats(1e-3, 5.0))
@example(lam=10.0, lo=0.0, width=2.0)
@example(lam=0.05, lo=0.5, width=1e-3)
def test_exact_uniform_sum_density_matches_fallback(lam, lo, width):
    service = Uniform(lo, lo + width)
    top = min(service.hi + 40.0 / lam, lo + 700.0 / lam)
    d = lo + np.linspace(width * 1e-6, top - lo, 300)
    _assert_exact_matches_fallback(lam, service, d)


@PROPERTY
@given(lam=lam_values, ratio=beta_ratio)
def test_exact_exponential_sum_density_matches_fallback(lam, ratio):
    service = Exponential(lam * ratio)
    top = _fallback_window_top(lam, service)
    _assert_exact_matches_fallback(lam, service, np.linspace(top * 1e-6, top, 300))


def test_exact_densities_vanish_below_support():
    for service in (Erlang(2, 2.0), Uniform(0.5, 1.5), Exponential(1.0)):
        conv = NumericalConvolution(0.7, service)
        lo = support(service)[0]
        assert conv.log_pdf(lo) == -math.inf
        assert np.all(conv.log_pdf(np.array([-1.0, lo])) == -math.inf)


def test_exact_density_scalar_in_scalar_out():
    conv = NumericalConvolution(0.456, Erlang(2, 2.0))
    value = conv.log_pdf(1.3)
    assert isinstance(value, float)
    assert value == conv.log_pdf(np.array([1.3]))[0]


def test_uniform_sum_density_survives_underflow_of_lam_width():
    # lam (m - lo) underflows to 0, where log(1 - e^(-x)) would read log 0;
    # log f = log lam + log(hi - lo) - lam (d - hi) - log(hi - lo)
    lam = 1e-200
    conv = NumericalConvolution(lam, Uniform(0.0, 1e-200))
    assert conv.log_pdf(1e199) == pytest.approx(math.log(lam) - 0.1, rel=1e-15)
    assert conv.log_pdf(1e-300) == pytest.approx(
        math.log(lam) + math.log(1e-300) - math.log(1e-200), rel=1e-15)
    # where the product does not underflow, the density keeps its old form
    d = np.array([0.3, 1.0, 2.5, 40.0])
    lam, lo, hi = 0.456, 0.0, 2.0
    m = np.minimum(d, hi)
    ref = (np.log(-np.expm1(-lam * (m - lo))) - lam * (d - m) - math.log(hi - lo))
    assert np.array_equal(NumericalConvolution(lam, Uniform(lo, hi)).log_pdf(d), ref)


# --------------------------------------------------------- uniform entropy

def _uniform_quadrature_entropy(conv):
    service = conv.service
    upper = conv.quantile_bound(1.0 - TAIL_MASS)
    tail = TAIL_MASS * (abs(float(conv.log_pdf(upper))) + 2.0)
    ref, _ = _entropy_quad(conv.log_pdf, upper,
                           points=(service.lo, service.hi), tail_estimate=tail)
    return ref


@pytest.mark.parametrize("service", [Uniform(0.5, 1.5), Uniform(0.9, 1.1),
                                     Uniform(5.0, 5.001)], ids=str)
def test_uniform_sum_entropy_with_positive_lo_matches_quadrature(service):
    # D's support starts at lo > 0, where -f log f has an x log x edge
    for rho in np.geomspace(0.01, 100.0, 9):
        conv = NumericalConvolution(rho / service.mean(), service)
        ref = _uniform_quadrature_entropy(conv)
        assert abs(conv.entropy() - ref) <= ENTROPY_ABS_TOL


@PROPERTY
@given(lam=st.floats(1e-2, 1e2), lo=st.floats(0.0, 5.0), width=st.floats(1e-3, 50.0))
@example(lam=1e-2, lo=0.0, width=1e-3)
@example(lam=1e2, lo=5.0, width=50.0)
@example(lam=1.0, lo=0.0, width=2.0)
def test_uniform_sum_entropy_matches_quadrature(lam, lo, width):
    conv = NumericalConvolution(lam, Uniform(lo, lo + width))
    assert abs(conv.entropy() - _uniform_quadrature_entropy(conv)) <= ENTROPY_ABS_TOL


@PROPERTY
@given(x=st.floats(1e-12, 1e-4), lam=st.floats(1e-3, 1e3), lo=st.floats(0.0, 5.0))
def test_uniform_sum_entropy_small_width_limit(x, lam, lo):
    # h = 1 - log lam + x/4 + O(x^2), x = lam (hi - lo): the service adds
    # little to the idle time, and the closed form must not cancel
    service = Uniform(lo, lo + x / lam)
    x = lam * (service.hi - service.lo)
    h = NumericalConvolution(lam, service).entropy()
    assert abs(h - (1.0 - math.log(lam) + x / 4.0)) <= (
        x * x + 1e-15 * max(1.0, abs(math.log(lam))))


@PROPERTY
@given(x=st.floats(30.0, 1e4), lam=st.floats(1e-2, 1e2))
@example(x=1e4, lam=1.0)
def test_uniform_sum_entropy_wide_width_limit(x, lam):
    # h = log L + (pi^2/6 - Li2(e^(-x)))/x; e^(-x) underflows past x ~ 745
    service = Uniform(1.0, 1.0 + x / lam)
    width = service.hi - service.lo
    h = NumericalConvolution(lam, service).entropy()
    assert math.isfinite(h)
    assert abs(h - (math.log(width) + math.pi ** 2 / (6.0 * lam * width))) <= 1e-12


def test_uniform_sum_entropy_when_lam_width_underflows():
    # lam (hi - lo) = 1e-400 underflows to 0: D is the idle time alone
    lam = 1e-200
    h = NumericalConvolution(lam, Uniform(0.0, 1e-200)).entropy()
    assert h == 1.0 - math.log(lam)


# ------------------------------------------------------------------ Erlang

erlang_models = st.builds(Erlang, st.integers(1, 12), st.floats(0.05, 20.0))


@PROPERTY
@given(model=erlang_models)
def test_erlang_entropy_matches_oracles(model):
    ref = float(stats.gamma.entropy(a=model.shape, scale=1.0 / model.rate))
    assert model.entropy() == pytest.approx(ref, rel=1e-13, abs=1e-13)
    assert abs(model.entropy() - quadrature_erlang_entropy(model)) <= ENTROPY_ABS_TOL


@PROPERTY
@given(model=erlang_models, q=st.floats(1e-12, 1.0 - 1e-12))
@example(model=Erlang(2, 2.0), q=1.0 - 1e-14)
def test_erlang_ppf_matches_scipy_stats(model, q):
    ref = float(stats.gamma.ppf(q, a=model.shape, scale=1.0 / model.rate))
    assert model.ppf(q) == pytest.approx(ref, rel=1e-13)
    grid = np.array([q, 0.5])
    assert np.allclose(model.ppf(grid),
                       stats.gamma.ppf(grid, a=model.shape, scale=1.0 / model.rate),
                       rtol=1e-13, atol=0)
