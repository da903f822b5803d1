import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, stats

from oracles import gl_sum_log_pdf, quantile_bound, two_rate_quantile, two_rate_sf
from timingq import (
    Codebook,
    Deterministic,
    Erlang,
    Exponential,
    NumericalConvolution,
    QuadratureError,
    SimConfig,
    Uniform,
    c_upper,
    cas_bound,
    decode_rate_experiment,
    empirical_liminf,
    expected_decode_time,
    hypoexp_entropy,
    info_density_report,
    info_density_trial,
    maximize_rate,
    rate_R,
    sweep,
    universal_bound_at,
)


# ---------------------------------------------------------------- sampling

def test_point_mass_always_returns_its_value():
    rng = np.random.default_rng(0)
    model = Deterministic(2.0)
    for _ in range(5):
        assert model.sample(rng) == 2.0
    assert np.all(model.sample(rng, 7) == 2.0)
    assert model.mean() == 2.0


def test_seeded_draws_reproducible():
    a = Exponential(1.0).sample(np.random.default_rng(123), 10)
    b = Exponential(1.0).sample(np.random.default_rng(123), 10)
    assert np.array_equal(a, b)


def test_exponential_large_sample_mean():
    # law-of-large-numbers check: 1e6 draws at rate 2, mean 0.5, sd 0.5
    rng = np.random.default_rng(2718)
    x = Exponential(2.0).sample(rng, 10**6)
    sigma = 0.5 / math.sqrt(10**6)
    assert abs(x.mean() - 0.5) < 3 * sigma


def test_sample_means_match_model_means():
    rng = np.random.default_rng(99)
    for model in (Erlang(3, 2.0), Uniform(0.5, 2.5)):
        x = model.sample(rng, 200_000)
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - model.mean()) < 4 * se
    # D = W + S, W ~ Exp(0.7), S ~ Exp(1.3)
    idle, service = Exponential(0.7), Exponential(1.3)
    x = idle.sample(rng, 200_000) + service.sample(rng, 200_000)
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - (idle.mean() + service.mean())) < 4 * se


# ---------------------------------------------------------------- log_pdf

def test_exponential_log_pdf_at_origin_is_log_rate():
    assert Exponential(1.0).log_pdf(0.0) == 0.0
    assert Exponential(3.0).log_pdf(0.0) == pytest.approx(math.log(3.0))


def test_two_rate_sum_log_pdf_closed_point():
    # rates (1, 2) at ln 2: density 2(e^{-ln2} - e^{-2 ln2}) = 2(1/2 - 1/4) = 1/2
    d = NumericalConvolution(1.0, Exponential(2.0))
    assert d.log_pdf(math.log(2.0)) == pytest.approx(math.log(0.5), abs=1e-12)


def test_two_rate_sum_density_vanishes_at_origin():
    for lam, mu in ((1.0, 2.0), (0.3, 5.0), (4.0, 4.0)):
        d = NumericalConvolution(lam, Exponential(mu))
        assert d.log_pdf(0.0) == -math.inf
        assert d.log_pdf(-1.0) == -math.inf


def test_two_rate_sum_symmetric_in_rates():
    x = np.linspace(0.05, 20.0, 200)
    a = NumericalConvolution(0.6, Exponential(2.3)).log_pdf(x)
    b = NumericalConvolution(2.3, Exponential(0.6)).log_pdf(x)
    assert np.allclose(a, b, rtol=0, atol=1e-12)


def test_point_mass_log_pdf_is_generalized():
    model = Deterministic(1.5)
    assert model.log_pdf(1.5) == math.inf
    assert model.log_pdf(1.4999) == -math.inf


def test_uniform_log_pdf_support():
    model = Uniform(1.0, 3.0)
    assert model.log_pdf(2.0) == pytest.approx(math.log(0.5))
    assert model.log_pdf(0.5) == -math.inf
    assert model.log_pdf(3.5) == -math.inf


def test_equal_rate_branch_matches_gamma():
    # at lam == mu the two-rate density degenerates to a shape-2 gamma
    d = NumericalConvolution(2.0, Exponential(2.0))
    x = np.linspace(0.01, 8.0, 50)
    assert np.allclose(d.log_pdf(x), stats.gamma.logpdf(x, a=2, scale=0.5),
                       rtol=0, atol=1e-10)


# ---------------------------------------------------------------- entropy

def test_exponential_entropy_closed_forms():
    assert Exponential(1.0).entropy() == 1.0
    assert Exponential(2.0).entropy() == pytest.approx(1.0 - math.log(2.0), abs=1e-15)
    # identity holds to float precision across a rate grid
    for mu in (0.1, 0.5, 1.0, 3.0, 17.0):
        assert Exponential(mu).entropy() + math.log(mu) == pytest.approx(1.0, abs=1e-14)


def test_uniform_entropy_closed_form():
    assert Uniform(0.0, 2.0).entropy() == pytest.approx(math.log(2.0))
    assert Uniform(0.75, 1.25).entropy() == pytest.approx(math.log(0.5))


def test_point_mass_entropy_rejected():
    with pytest.raises(ValueError):
        Deterministic(1.0).entropy()


def test_erlang_entropy_matches_gamma_oracle():
    for k, rate in ((1, 1.0), (2, 2.0), (3, 0.7), (5, 1.9)):
        ours = Erlang(k, rate).entropy()
        ref = stats.gamma.entropy(a=k, scale=1.0 / rate)
        assert ours == pytest.approx(float(ref), abs=1e-7)


def test_two_rate_entropy_equal_rate_limit_is_shape2_gamma():
    # closed form for the shape-2 unit-rate gamma: 1 + gamma_Euler - ... ;
    # easier to take scipy's value than to re-derive the digamma terms
    ref = stats.gamma.entropy(a=2, scale=1.0)
    assert hypoexp_entropy(1.0, 1.0) == pytest.approx(float(ref), abs=1e-7)


def test_two_rate_entropy_symmetric():
    assert hypoexp_entropy(0.5, 1.0) == pytest.approx(hypoexp_entropy(1.0, 0.5), abs=1e-10)
    assert hypoexp_entropy(3.0, 0.2) == pytest.approx(hypoexp_entropy(0.2, 3.0), abs=1e-10)


def test_two_rate_entropy_exponential_limit():
    # as the first rate grows the idle part vanishes and h tends to h(Exp(mu)) = 1
    gaps = [abs(hypoexp_entropy(lam, 1.0) - 1.0) for lam in (1e2, 1e3, 1e4)]
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[2] < 1e-4


def test_two_rate_entropy_monte_carlo_small():
    lam, mu = 0.5, 1.0
    rng = np.random.default_rng(515)
    n = 10**5
    d = Exponential(lam).sample(rng, n) + Exponential(mu).sample(rng, n)
    logf = NumericalConvolution(lam, Exponential(mu)).log_pdf(d)
    est = -logf.mean()
    se = logf.std(ddof=1) / math.sqrt(n)
    assert abs(hypoexp_entropy(lam, mu) - est) < 3 * se


def test_entropy_objects_agree_with_module_function():
    # exponential service takes the closed form itself, not a quadrature
    for lam, mu in ((0.7, 1.1), (1.1, 0.7), (0.456, 1.0), (2.0, 2.0), (1e-3, 50.0)):
        assert (NumericalConvolution(lam, Exponential(mu)).entropy()
                == hypoexp_entropy(lam, mu))


# --------------------------------------------------- departure convolution

def test_convolution_matches_two_rate_closed_form():
    # exponential service makes the numerical convolution redundant, which is
    # exactly why it is the strongest check available for the Gauss-Legendre
    # oracle; the reference is the two-rate density written out directly
    d = np.linspace(0.05, 25.0, 300)
    for lam in (1e-3, 0.08, 0.456, 2.0, 50.0):
        conv = NumericalConvolution(lam, Exponential(1.0))
        ref = np.log(lam / (1.0 - lam) * (np.exp(-lam * d) - np.exp(-d)))
        assert np.max(np.abs(gl_sum_log_pdf(lam, Exponential(1.0), d) - ref)) < 1e-10
        assert np.max(np.abs(conv.log_pdf(d) - ref)) < 1e-10


def test_convolution_uniform_service_closed_form():
    lam = 0.8
    conv = NumericalConvolution(lam, Uniform(0.0, 2.0))
    d = np.linspace(0.05, 12.0, 160)
    ref = np.log(0.5 * (np.exp(-lam * np.maximum(d - 2.0, 0.0)) - np.exp(-lam * d)))
    assert np.max(np.abs(gl_sum_log_pdf(lam, Uniform(0.0, 2.0), d) - ref)) < 1e-12
    assert np.max(np.abs(conv.log_pdf(d) - ref)) < 1e-12


def test_convolution_point_mass_service_is_shifted_exponential():
    lam, c = 0.9, 1.4
    conv = NumericalConvolution(lam, Deterministic(c))
    d = np.array([1.5, 2.0, 6.0])
    assert np.allclose(conv.log_pdf(d),
                       math.log(lam) - lam * (d - c), rtol=0, atol=1e-14)
    assert conv.log_pdf(1.0) == -math.inf
    assert conv.entropy() == pytest.approx(1.0 - math.log(lam), abs=1e-12)


def test_convolution_takes_only_exact_laws():
    # Exponential(mu) and Erlang(1, mu) are one law reached by two exact
    # forms: the two-rate sum density and the 1F1 one
    d = np.linspace(0.01, 30.0, 200)
    assert np.allclose(NumericalConvolution(0.5, Exponential(1.0)).log_pdf(d),
                       NumericalConvolution(0.5, Erlang(1, 1.0)).log_pdf(d),
                       rtol=0, atol=1e-12)
    # a law without an exact W + S density is refused by name, here the
    # two-rate sum law itself
    with pytest.raises(ValueError, match="NumericalConvolution"):
        NumericalConvolution(1.0, NumericalConvolution(1.0, Exponential(2.0)))


@pytest.mark.parametrize("law", [Deterministic(0.7), Exponential(1.3),
                                 Uniform(0.2, 1.8), Erlang(3, 2.0)], ids=repr)
def test_convolution_hands_the_departure_law_to_the_service(law):
    # the law owns D = W + S; the convolution only checks lam and converts d
    lam, d = 0.8, np.linspace(0.0, 12.0, 97)
    conv = NumericalConvolution(lam, law)
    assert np.array_equal(conv.log_pdf(d), law.departure_log_pdf(lam, d))
    assert conv.entropy() == law.departure_entropy(lam)


@pytest.mark.parametrize("law", [Deterministic(0.7), Exponential(1.3),
                                 Uniform(0.2, 1.8), Erlang(2, 2.0)], ids=repr)
@pytest.mark.parametrize("lam", [0.0, math.nan, math.inf])
@pytest.mark.parametrize("method", [
    lambda law, lam: law.departure_log_pdf(lam, np.linspace(0.0, 5.0, 7)),
    lambda law, lam: law.departure_entropy(lam),
], ids=["departure_log_pdf", "departure_entropy"])
def test_departure_methods_hold_lam_to_the_rate_rule(law, lam, method):
    # called directly, not through NumericalConvolution
    with pytest.raises(ValueError, match="^lam"):
        method(law, lam)


_D_PAST = np.array([1.0, 1e10, 1e300])
_LOG_TINY = math.log(1e-300)


@pytest.mark.parametrize("law, lam, expected", [
    (Exponential(1e300), 1e-300, _LOG_TINY - 1e-300 * _D_PAST),
    (Exponential(1e-300), 1e300, _LOG_TINY - 1e-300 * _D_PAST),
    (Uniform(0.0, 1e10), 1e300, [-math.log(1e10), -math.log(1e10), -math.inf])],
    ids=["fast-service", "fast-arrivals", "uniform"])
def test_departure_density_past_the_float_range_warns_of_nothing(law, lam, expected):
    # the rate times d overflows to inf, where 1 - e^(-x) is 1: the two-rate
    # law is its slower exponential, and the uniform sum law flat up to hi
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        lp = law.departure_log_pdf(lam, _D_PAST)
    assert np.allclose(lp, expected, rtol=1e-15, atol=0)


def test_exponential_past_the_float_range_warns_of_nothing():
    # an implied service time of 1e307 at rate 1e306 (a decoder hypothesis),
    # and a hashed codeword gap at arrival rate 5e-308
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        assert Exponential(1e306).log_pdf(1e307) == -math.inf
        assert Exponential(5e-308).ppf(0.9999) == math.inf


def test_convolution_density_zero_at_origin():
    conv = NumericalConvolution(0.7, Erlang(2, 2.0))
    assert conv.log_pdf(0.0) == -math.inf


def test_convolution_entropy_matches_two_rate_quadrature():
    # Erlang(1, mu) is Exponential(mu) but still takes the panel quadrature
    for lam in (0.2, 0.456, 3.0):
        a = NumericalConvolution(lam, Erlang(1, 1.0)).entropy()
        b = hypoexp_entropy(lam, 1.0)
        assert abs(a - b) < 2e-8


def test_erlang_sum_density_far_past_the_service_rate():
    # for lam >> beta the idle time vanishes next to the service, so the
    # W + S density tends to the Erlang one; scipy's 1F1 factor read 0 or
    # nan here, which made the log-density -inf or nan
    d = np.array([1e-3, 0.5, 1.0, 3.0, 40.0, 100.0])
    for lam in (1e19, 1e150, 1e200, 1e308):
        conv = NumericalConvolution(lam, Erlang(2, 2.0))
        assert np.allclose(conv.log_pdf(d), Erlang(2, 2.0).log_pdf(d),
                           rtol=0, atol=1e-12)
        assert conv.entropy() == pytest.approx(Erlang(2, 2.0).entropy(), abs=1e-8)


def test_entropy_refuses_to_certify_a_nan_density(monkeypatch):
    # a nan log-density is not zero mass: the panels cannot certify it
    conv = NumericalConvolution(0.5, Erlang(2, 2.0))
    monkeypatch.setattr(Erlang, "departure_log_pdf",
                        lambda self, lam, d: np.full(np.shape(d), math.nan))
    with pytest.raises(QuadratureError):
        conv.entropy()


def test_entropy_refuses_to_certify_a_density_without_mass(monkeypatch):
    # a log-density of -inf everywhere converges, to 0, on every panel
    conv = NumericalConvolution(0.5, Erlang(2, 2.0))
    monkeypatch.setattr(Erlang, "departure_log_pdf",
                        lambda self, lam, d: np.full(np.shape(d), -math.inf))
    with pytest.raises(QuadratureError, match="integrate to 1"):
        conv.entropy()


@pytest.mark.parametrize("k", [2, 3, 10, 50])
def test_erlang_sum_entropy_certifies_at_every_load(k):
    # scipy's 1F1(1; k+1; x) reads nan past x = -1e12, so loads from about
    # 1e12 on did not certify for k >= 10
    service = Erlang(k, float(k))
    for lam in np.geomspace(0.01, 1e308, 25):
        h = NumericalConvolution(lam, service).entropy()
        # h(W + S) is at least h(W) and h(S), and at most the entropy of the
        # exponential law with the same mean
        assert max(1.0 - math.log(lam), service.entropy()) - 1e-8 <= h
        assert h <= 1.0 + math.log(1.0 / lam + 1.0) + 1e-8


def test_densities_integrate_to_one():
    models = [
        NumericalConvolution(0.5, Exponential(1.0)),
        NumericalConvolution(2.0, Exponential(2.0)),
        NumericalConvolution(0.8, Uniform(0.2, 1.8)),
        NumericalConvolution(0.8, Erlang(3, 2.0)),
    ]
    for m in models:
        hi = quantile_bound(m.lam, m.service, 1.0 - 1e-13)
        total, _ = integrate.quad(lambda x: math.exp(m.log_pdf(x)), 0.0, hi, limit=200)
        assert abs(total - 1.0) < 1e-6


def test_quantile_inverts_survival():
    for q in (0.1, 0.5, 0.9, 0.999):
        assert two_rate_sf(0.5, 1.0, two_rate_quantile(0.5, 1.0, q)) == pytest.approx(
            1.0 - q, abs=1e-10)


# ---------------------------------------------------------------- validation

def test_constructors_reject_bad_parameters():
    with pytest.raises(ValueError):
        Exponential(0.0)
    with pytest.raises(ValueError):
        Exponential(-1.0)
    with pytest.raises(ValueError):
        Deterministic(0.0)
    with pytest.raises(ValueError):
        Erlang(0, 1.0)
    with pytest.raises(ValueError):
        Erlang(2, -0.5)
    with pytest.raises(ValueError):
        Uniform(2.0, 2.0)
    with pytest.raises(ValueError):
        Uniform(-0.1, 1.0)
    with pytest.raises(ValueError, match="lam must be positive"):
        hypoexp_entropy(0.0, 1.0)
    with pytest.raises(ValueError):
        NumericalConvolution(0.0, Exponential(1.0))
    # a non-finite rate made hypoexp_entropy nan and cas_bound negative
    for rate in (math.inf, math.nan):
        for make in (lambda v: hypoexp_entropy(v, 1.0),
                     lambda v: hypoexp_entropy(1.0, v),
                     lambda v: NumericalConvolution(v, Exponential(1.0))):
            with pytest.raises(ValueError):
                make(rate)
    # an infinite rate or scale makes every gap 0 or inf, which the
    # simulator and the codebook would extend forever
    for make in (Exponential, Deterministic, lambda v: Erlang(2, v),
                 lambda v: Uniform(0.0, v)):
        with pytest.raises(ValueError):
            make(math.inf)
    # finite parameters whose mean overflows: an infinite service time
    for make in (lambda: Exponential(1e-320), lambda: Erlang(2, 1e-320),
                 lambda: Erlang(10**400, 1.0), lambda: Deterministic(10**400),
                 lambda: Uniform(1e308, 1.7e308)):
        with pytest.raises(ValueError, match="overflows"):
            make()
    # from 2**20 on scipy's 1F1 in the departure density loses digits; past
    # 2**53 float(shape) is inexact, and numpy cannot cast 2**63
    for shape in (2**20, 2**20 + 1, 2**40, 2**53, 2**53 + 1, 2**63, 10**20):
        with pytest.raises(ValueError, match="^shape must be below 2\\*\\*20"):
            Erlang(shape, float(shape))
    assert Erlang(2**20 - 1, 1.0).mean() == 2.0**20 - 1


# Every public entry that takes a rate, a count, a gamma or a target, as
# (the parameter's name in the refusal, a call with that parameter set to
# the value drawn and every other input valid).  A refusal is a ValueError
# naming the parameter: never a nan, a silent 0.0, a TypeError or a count
# truncated to an integer.
EXP = Exponential(1.0)


def _trial(lam, n):
    return info_density_trial(lam, EXP, n, np.random.default_rng(0))


RATE_ENTRIES = [
    ("rate", Exponential),
    ("rate", lambda v: Erlang(2, v)),
    ("value", Deterministic),
    ("lam", lambda v: hypoexp_entropy(v, 1.0)),
    ("mu", lambda v: hypoexp_entropy(1.0, v)),
    ("lam", lambda v: NumericalConvolution(v, EXP)),
    ("lam", lambda v: rate_R(v, 1.0)),
    ("mu", lambda v: rate_R(1.0, v)),
    ("lam", lambda v: universal_bound_at(v, EXP)),
    ("lam", lambda v: cas_bound(v, EXP)),
    ("mu", lambda v: sweep([0.5], v)),
    ("rho_grid", lambda v: sweep([0.5, v], 1.0)),
    ("mu", lambda v: maximize_rate(v)),
    ("bracket", lambda v: maximize_rate(1.0, bracket=(v, 2.0))),
    ("lam", lambda v: expected_decode_time(v, EXP, 5)),
    ("lam", lambda v: _trial(v, 5)),
    ("lam", lambda v: info_density_report(v, EXP, 5, 2)),
    ("lam", lambda v: empirical_liminf(v, EXP, [5], 2)),
    ("lam", lambda v: decode_rate_experiment([2], v, 1.0, [2], 2)),
    ("mu", lambda v: decode_rate_experiment([2], 1.0, v, [2], 2)),
]
COUNT_ENTRIES = [
    ("shape", lambda v: Erlang(v, 1.0)),
    ("M", lambda v: Codebook(v, 0, EXP)),
    ("n", lambda v: SimConfig(arrival=EXP, service=EXP, n=v)),
    ("n", lambda v: expected_decode_time(1.0, EXP, v)),
    ("n", lambda v: _trial(1.0, v)),
    ("n", lambda v: info_density_report(1.0, EXP, v, 2)),
    ("trials", lambda v: info_density_report(1.0, EXP, 5, v)),
    ("threads", lambda v: info_density_report(1.0, EXP, 5, 2, threads=v)),
    ("n_schedule", lambda v: empirical_liminf(1.0, EXP, [v], 2)),
    ("trials", lambda v: empirical_liminf(1.0, EXP, [5], v)),
    ("threads", lambda v: empirical_liminf(1.0, EXP, [5], 2, threads=v)),
    ("M_schedule", lambda v: decode_rate_experiment([v], 1.0, 1.0, [2], 2)),
    ("n_schedule", lambda v: decode_rate_experiment([2], 1.0, 1.0, [v], 2)),
    ("trials", lambda v: decode_rate_experiment([2], 1.0, 1.0, [2], v)),
    ("threads", lambda v: decode_rate_experiment([2], 1.0, 1.0, [2], 2, threads=v)),
]
GAMMA_ENTRIES = [
    ("gamma", lambda v: info_density_report(1.0, EXP, 5, 2, target=0.1, gamma=v)),
    ("gamma", lambda v: info_density_report(1.0, EXP, 5, 2, gamma=v)),
    ("gamma", lambda v: empirical_liminf(1.0, EXP, [5], 2, target=0.1, gamma=v)),
    # with gamma omitted it is 5% of the target
    ("target", lambda v: info_density_report(1.0, EXP, 5, 2, target=v)),
    ("target", lambda v: empirical_liminf(1.0, EXP, [5], 2, target=v)),
]
TARGET_ENTRIES = [
    ("target", lambda v: info_density_report(1.0, EXP, 5, 2, target=v, gamma=0.01)),
    ("target", lambda v: empirical_liminf(1.0, EXP, [5], 2, target=v, gamma=0.01)),
]

NONFINITE = st.sampled_from([math.nan, math.inf, -math.inf])
# zero, negatives, non-finite values, and positive floats whose reciprocal
# overflows (those below 2**-1024)
BAD_RATES = st.one_of(NONFINITE, st.floats(max_value=0.0),
                      st.floats(min_value=0.0, max_value=5.5e-309))
# integers below 1, and every float, 2.5 and 2.0 included: a float count
# would be truncated or cast
BAD_COUNTS = st.one_of(st.integers(max_value=0), st.floats(),
                       st.sampled_from([2.5, 2.0]))
BAD_GAMMAS = st.one_of(NONFINITE, st.floats(max_value=0.0))
RULES = settings(max_examples=300, deadline=None, derandomize=True, database=None)


def _refused(entry, value):
    name, call = entry
    with pytest.raises(ValueError) as err:
        call(value)
    assert name in str(err.value), (name, value, str(err.value))


@RULES
@given(st.sampled_from(RATE_ENTRIES), BAD_RATES)
def test_every_rate_entry_refuses_what_the_rate_rule_refuses(entry, value):
    _refused(entry, value)


@RULES
@given(st.sampled_from(COUNT_ENTRIES), BAD_COUNTS)
def test_every_count_entry_refuses_what_the_count_rule_refuses(entry, value):
    _refused(entry, value)


@RULES
@given(st.sampled_from(GAMMA_ENTRIES), BAD_GAMMAS)
def test_every_gamma_entry_refuses_a_gamma_not_positive_and_finite(entry, value):
    _refused(entry, value)


@RULES
@given(st.sampled_from(TARGET_ENTRIES), NONFINITE)
def test_every_target_entry_refuses_a_non_finite_target(entry, value):
    _refused(entry, value)


def test_c_upper_refuses_a_budget_not_nonnegative_and_finite():
    # a budget of 0 is an input that is always 0; nan made the bound nan
    assert c_upper(0.0, EXP) == 0.0
    for budget in (math.nan, math.inf, -math.inf, -1.0):
        with pytest.raises(ValueError, match="budget"):
            c_upper(budget, EXP)


def test_sweep_refuses_a_service_mean_other_than_one_over_mu():
    # the rate column is the exponential(mu) rate, which lies below the
    # universal column only at the same mean
    with pytest.raises(ValueError, match="^service"):
        sweep([0.5, 1.0], 1.0, service=Uniform(0.0, 4.0))
    with pytest.raises(ValueError, match="point mass"):
        sweep([0.5, 1.0], 1.0, service=Deterministic(1.0))
    curve = sweep([0.5, 1.0], 2.0, service=Uniform(0.0, 1.0), include_cas=False)
    assert curve.service_kind == "Uniform"


def test_quadrature_error_carries_achieved_estimate():
    err = QuadratureError("did not converge", achieved=3e-7)
    assert err.achieved == 3e-7
    assert "converge" in str(err)
