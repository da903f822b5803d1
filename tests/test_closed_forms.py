"""Closed-form entropies and exact D = W + S densities against quadrature.

The library evaluates the two-rate sum entropy, the uniform sum entropy,
the Erlang entropy and the inter-departure densities of the shipped service
laws in closed form.  The oracles here are the quadratures those closed
forms replaced: the certified adaptive quadrature of -f log f (kept only in
this file), the composite Gauss-Legendre entropy of `NumericalConvolution`,
the Gauss-Legendre convolution `oracles.gl_sum_log_pdf`, and scipy.stats;
at huge Erlang shapes, mpmath at 40 digits.
"""

import math
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import integrate, special, stats

from oracles import (
    gl_erlang_sum_entropy,
    gl_sum_log_pdf,
    mp_erlang_sum_entropy,
    mp_erlang_sum_log_pdf,
    mp_log_kummer,
    quantile_bound,
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
    sweep,
    universal_bound_at,
)
from timingq import distributions
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


@pytest.mark.parametrize("k, rho", [(1000, 0.05), (1000, 0.5), (500, 0.5),
                                    (3000, 10.0)])
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
    upper = quantile_bound(conv.lam, service, 1.0 - TAIL_MASS)
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


# ------------------------------------------------------ Erlang, huge shapes

# Erlang takes shapes below 2**20; the last three here it refuses
LARGEST_SHAPE = 2**20 - 1
HUGE_SHAPES = (1, 2, 1000, 10**6, LARGEST_SHAPE, 10**9, 2**40, 2**53)


def _refused(k):
    """Whether Erlang refuses shape k, asserting the refusal if so: a test
    given a refused shape checks that and nothing else."""
    if k <= LARGEST_SHAPE:
        return False
    with pytest.raises(ValueError, match=r"^shape must be below 2\*\*20"):
        Erlang(k, 1.0)
    return True


def _mp_log_poisson(k, m):
    # log(m^k e^(-m) / k!) at 40 digits, for the float m as it stands
    with mpmath.workdps(40):
        k, m = mpmath.mpf(k), mpmath.mpf(float(m))
        return k * mpmath.log(m) - m - mpmath.loggamma(k + 1) if m else (
            mpmath.mpf(0) if k == 0 else -mpmath.inf)


def _assert_close_to_mp(ours, refs, rel):
    for value, ref in zip(ours, refs):
        if ref == -mpmath.inf:
            assert value == -math.inf
        else:
            assert abs(value - float(ref)) <= rel * max(1.0, abs(float(ref)))


@pytest.mark.parametrize("k", HUGE_SHAPES)
def test_erlang_log_pdf_keeps_its_digits_at_huge_shapes(k):
    if _refused(k):
        return
    # (beta x)^(k-1) e^(-beta x) / (k-1)! summed k log(beta x), beta x and
    # log (k-1)!, terms of size k log k that cancel near beta x = k; the grid
    # straddles the switches of the Poisson deviance (beta x = 0.6 and 5/3
    # times k - 1) and reaches 0 and the subnormal range
    beta, j = 2.0, max(k - 1, 1)
    m = np.array([j + z * math.sqrt(j) for z in (-30, -3, -1, -1e-3, 0, 1e-3, 1, 3, 30)]
                 + [0.6 * j, 0.61 * j, 1.66 * j, 1.67 * j, 3.0 * j, 0.5, 1e-300, 0.0])
    m = m[m >= 0]
    ours = Erlang(k, beta).log_pdf(m / beta)
    refs = [math.log(beta) + _mp_log_poisson(k - 1, v) for v in m]
    _assert_close_to_mp(ours, refs, 4e-15)
    # beta x = inf, or a product beta x that overflows: no mass, and no warning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert Erlang(k, beta).log_pdf(math.inf) == -math.inf
        assert Erlang(k, 1e300).log_pdf(1e300) == -math.inf


def test_erlang_log_pdf_at_the_largest_shape():
    # mpmath at 40 digits; the plain sum k log m - m - log k! erred by 3.1e-10
    k = LARGEST_SHAPE
    assert abs(Erlang(k, 1.0).log_pdf(float(k)) + 7.8504099414396758) <= 1e-13


def _kummer_grid(k, lam):
    # beta = 1, so x = (1 - lam) d; points straddle every switch of the
    # density: x = k (incomplete gamma) and x = -(1.25 k + 40) (the
    # terminating series)
    if lam < 1.0:
        x = [k + z * math.sqrt(k) for z in (-3000, -100, -4, -1.75, 0, 4, 40)]
        x += [0.5 * k, 1e-3]
    else:
        edge = 1.25 * k + 40.0
        x = [-1e-3, -0.5 * k, -edge * (1 - 1e-9), -edge * (1 + 1e-9), -3.0 * k]
    x = np.array([v for v in x if v > 0] if lam < 1.0 else x)
    return x / (1.0 - lam)


@pytest.mark.parametrize("k", HUGE_SHAPES)
@pytest.mark.parametrize("lam", [0.5, 2.0])
def test_erlang_sum_density_keeps_its_digits_at_huge_shapes(k, lam):
    if _refused(k):
        return
    d = _kummer_grid(k, lam)
    ours = NumericalConvolution(lam, Erlang(k, 1.0)).log_pdf(d)
    with mpmath.workdps(40):
        refs = [mpmath.log(lam) + _mp_log_poisson(k, v) + mp_log_kummer(k, (1.0 - lam) * v)
                for v in d]
    _assert_close_to_mp(ours, refs, 4e-15)


@pytest.mark.parametrize("k", [1000, 10**6, LARGEST_SHAPE])
@pytest.mark.parametrize("lam", [1e-3, 0.05])
def test_erlang_sum_density_keeps_its_digits_at_light_load(k, lam):
    # x = (1 - lam) d rounds in floats here, so the reference takes the
    # exact x of each float d; scipy's 1F1 serves 0 < x <= k at every shape
    # Erlang takes (on this grid it errs 1.3e-14 at 2**20, the first refused)
    d = _kummer_grid(k, lam)
    ours = NumericalConvolution(lam, Erlang(k, 1.0)).log_pdf(d)
    with mpmath.workdps(40):
        refs = [mpmath.log(lam) + _mp_log_poisson(k, v)
                + mp_log_kummer(k, (1 - mpmath.mpf(lam)) * mpmath.mpf(float(v)))
                for v in d]
    _assert_close_to_mp(ours, refs, 1e-14)


@pytest.mark.parametrize("k", [2, 1000, LARGEST_SHAPE, 2**20, 2**30, 2**35, 2**36,
                               2**40, 2**45, 2**53])
def test_erlang_sum_density_has_no_nan_band(k):
    # scipy's 1F1(1; k+1; x) reads nan just below x = k from k ~ 2**35, which
    # the shape cap keeps out of reach, and scipy's incomplete gamma function
    # loses its digits below k - 4 sqrt(k) (off by 0.07 nats at k = 2**24),
    # so it may not serve there
    if _refused(k):
        return
    z = np.concatenate([np.linspace(-3000.0, 40.0, 400), np.linspace(-5.0, 0.0, 101)])
    x = k + z * math.sqrt(k)
    x = x[x > 0]
    reached = []

    def gammainc(a, v):
        reached.append(np.asarray(v))
        return special.gammainc(a, v)

    with mock.patch.object(distributions, "gammainc", gammainc):
        log_f = NumericalConvolution(0.5, Erlang(k, 1.0)).log_pdf(2.0 * x)
    assert np.all(np.isfinite(log_f))
    assert all(np.all(v >= k - 4.0 * math.sqrt(k)) for v in reached)


def _mp_erlang_entropy(k, beta):
    with mpmath.workdps(40):
        k = mpmath.mpf(k)
        return float(k + mpmath.loggamma(k) + (1 - k) * mpmath.digamma(k)
                     - mpmath.log(beta))


@pytest.mark.parametrize("k", [1, 2, 10, 49, 50, 51, 1000, 10**6, LARGEST_SHAPE,
                               10**9, 2**40, 2**53])
def test_erlang_entropy_keeps_its_digits_at_huge_shapes(k):
    # k + lgamma(k) + (1 - k) psi(k) cancels terms of size k log k; it erred
    # by 8.9e-11 at Erlang(2**20 - 1, 2**20 - 1)
    if _refused(k):
        return
    for beta in (1.0, float(k)):
        assert abs(Erlang(k, beta).entropy() - _mp_erlang_entropy(k, beta)) <= 1e-14


def test_erlang_entropy_at_the_largest_shape():
    # mpmath at 40 digits; the closed form erred by 8.9e-11
    k = LARGEST_SHAPE
    assert abs(Erlang(k, float(k)).entropy() + 5.5125331134492125) <= 1e-13


def test_sharper_erlang_service_lowers_entropy_and_raises_the_bound():
    # mean 1: Erlang(k, k) tends to a point mass as k grows, so its entropy
    # falls and the converse c_upper(1/lam)/(1/lam + 1) rises
    shapes = (1, 2, 10, 10**3, 10**5, 10**6, LARGEST_SHAPE)
    entropies = [Erlang(k, float(k)).entropy() for k in shapes]
    bounds = [universal_bound_at(0.2, Erlang(k, float(k))) for k in shapes]
    assert all(a > b for a, b in zip(entropies, entropies[1:]))
    assert all(a < b for a, b in zip(bounds, bounds[1:]))


# Mean-1 Erlang shapes past 2000, at which the entropy quadrature's panels,
# graded toward 0 alone, grew far wider than the service law's bulk
LARGE_SHAPES = (3000, 10**4, 10**5, 10**6, LARGEST_SHAPE)
LOADS = (0.01, 0.1, 0.5, 1.0, 2.0, 10.0, 100.0)


# (shape, rate, lam) over shapes, rates and loads, and mean-1 large shapes
ERLANG_GRID = [(k, beta, lam) for k in (1, 2, 3, 5, 10, 50, 100, 1000, 2000)
               for beta in (float(k), 2.0, 0.5) for lam in np.geomspace(1e-3, 1e3, 7)]
LARGE_GRID = [(k, float(k), lam) for k in LARGE_SHAPES for lam in LOADS]


def test_erlang_sum_entropy_certifies_across_shapes_rates_and_loads():
    for k, beta, lam in ERLANG_GRID:
        h = NumericalConvolution(lam, Erlang(k, beta)).entropy()
        assert h >= Erlang(k, beta).entropy() - ENTROPY_ABS_TOL


@pytest.mark.parametrize("grid", [ERLANG_GRID, LARGE_GRID], ids=["rates", "large"])
def test_erlang_sum_entropy_matches_the_32_64_node_rule(grid, monkeypatch):
    # the 16/32-node panels on D in units of its mean cycle keep the value of
    # the 32/64-node panels in the flags' unit, and certify 100 times tighter
    for k, beta, lam in grid:
        law = Erlang(k, beta)
        assert abs(law.departure_entropy(lam) - gl_erlang_sum_entropy(law, lam)) <= 1e-11
    monkeypatch.setattr(distributions, "ENTROPY_ABS_TOL", 1e-10)
    for k, beta, lam in grid:
        Erlang(k, beta).departure_entropy(lam)


def test_erlang_cas_column_keeps_the_32_64_node_values():
    # the default grid of `bounds --mu 1 --service erlang:2:2`, whose
    # largest change was 3.4e-14
    law, rho = Erlang(2, 2.0), np.linspace(0.05, 10.0, 200)
    ref = [(gl_erlang_sum_entropy(law, r) - law.entropy()) / (1.0 / r + 1.0) for r in rho]
    assert np.max(np.abs(sweep(rho, 1.0, service=law).cas_norm - ref)) <= 1e-13


def test_erlang_sum_entropy_answers_from_its_bracket_where_it_is_narrow():
    # 1 + log(1/lam + E[S]) - h(W) = log1p(lam E[S]) = 1e-10: no panel is
    # needed, and the midpoint errs by at most 5e-11
    law, lam = Erlang(2, 2.0), 1e-10
    with mock.patch.object(Erlang, "departure_log_pdf") as density:
        h = law.departure_entropy(lam)
    density.assert_not_called()
    assert abs(h - (1.0 - math.log(lam))) <= 1e-10


def test_erlang_sum_entropy_refuses_a_value_outside_its_bracket(monkeypatch):
    # the density of D/2: mass 1 and converging panels, but an entropy
    # log 2 nats too low, below h(W) = 1
    exact = Erlang.departure_log_pdf
    monkeypatch.setattr(Erlang, "departure_log_pdf",
                        lambda self, lam, d: math.log(2.0) + exact(self, lam, 2.0 * d))
    with pytest.raises(QuadratureError, match="bracket"):
        Erlang(2, 2.0).departure_entropy(1.0)


@pytest.mark.parametrize("lam", LOADS)
def test_erlang_sum_entropy_tends_to_the_point_mass_limit(lam):
    # Erlang(k, k) tends to a point mass at 1, and h(D) to h(W) = 1 - log lam;
    # every shape certifies, and the gap falls as k grows, like 0.9 lam / sqrt(k)
    # where that is small (lam times the service's standard deviation)
    gaps = [abs(NumericalConvolution(lam, Erlang(k, float(k))).entropy()
                - (1.0 - math.log(lam))) for k in LARGE_SHAPES]
    assert all(a > b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] <= lam / math.sqrt(LARGEST_SHAPE)
