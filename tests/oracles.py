"""Quadrature oracles the library's closed forms and exact densities are
checked against.

`hypoexp_entropy_rewritten` reaches the entropy of Exp(lam) + Exp(mu)
through a shape integral `g_rho` instead of the library's closed form, so
the tests can cross-check `timingq.hypoexp_entropy` against an independent
route.  `gl_sum_log_pdf` evaluates the density of D = W + S by a
Gauss-Legendre convolution, the oracle for the exact per-law densities of
`NumericalConvolution`, over the interval that `support` gives for each
shipped law.  `two_rate_sf` and `two_rate_quantile` give the survival
function and quantiles of the two-rate sum law, and `quantile_bound` an
upper bound for a quantile of D under any service, for the integration
limits of the entropy oracles.  `mp_erlang_sum_log_pdf` and
`mp_erlang_sum_entropy` evaluate the Erlang-service density of D through
mpmath's 1F1 at 40 digits, and its entropy by mpmath quadrature.
`gl_erlang_sum_entropy` is that entropy by the library's earlier rule:
32- and 64-node Gauss-Legendre panels on D in its own time unit.
`mp_log_kummer` reaches log 1F1(1; k+1; x) at any shape through its
integral, where mpmath's 1F1 and incomplete gamma function take too long
or give up.  `scan_maximize_rate` is the rate optimizer as it was before
`maximize_rate` became one golden-section search: a 0.01-step grid scan
that assumes no unimodality, then golden section around the best grid
point.  `dt_bound` estimates the dependence-testing bound on the error of
random timing codes, the yardstick for `ml_decode`.  None of them serves
the library itself.
"""

import math

import mpmath
import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy import integrate, optimize
from scipy.special import logsumexp, ndtr

from timingq import Deterministic, QuadratureError, Uniform, rate_R
from timingq.bounds import _golden_section_max
from timingq.distributions import (_as_float_array, _maybe_scalar, _neg_f_log_f,
                                   _two_rates)

# Order of the fixed Gauss-Legendre rule of `gl_sum_log_pdf`.
GL_ORDER = 256


def g_rho(rho: float, abs_tol: float = 1e-8) -> float:
    """Shape integral of the two-rate sum law's entropy, a function of
    rho = lam/mu alone.

    Written over t in (0, inf) with q(t) = 1 - exp(-t), the integral has a
    different stable form on each side of rho = 1:

        rho < 1:  -∫ exp(-t rho/(1-rho)) q(t) (t + log q(t)) dt
        rho > 1:  -∫ exp(-t/(rho-1)) q(t) log q(t) dt

    The branch split is pinned by requiring `hypoexp_entropy_rewritten` to
    agree with the closed-form `hypoexp_entropy` (see the tests);
    rho = 1 is excluded and handled by the equal-rates path upstream.
    """
    if rho <= 0:
        raise ValueError(f"rho must be positive, got {rho}")
    if rho == 1.0:
        raise ValueError("rho = 1 is handled by the equal-rates entropy path")

    if rho < 1.0:
        decay = rho / (1.0 - rho)

        def integrand(t):
            q = -math.expm1(-t)
            return -math.exp(-decay * t) * q * (t + math.log(q))
    else:
        decay = 1.0 / (rho - 1.0)

        def integrand(t):
            q = -math.expm1(-t)
            return -math.exp(-decay * t) * q * math.log(q)

    value, err = integrate.quad(integrand, 0.0, np.inf,
                                epsabs=abs_tol * 1e-2, epsrel=1e-12, limit=400)
    if err > abs_tol:
        raise QuadratureError("shape integral did not converge", err)
    return value


def hypoexp_entropy_rewritten(lam: float, mu: float) -> float:
    """Entropy of the two-rate sum law via the shape integral, in nats.

    A quadrature route independent of the closed-form `hypoexp_entropy`,
    used as a cross-check:

        h = -log mu + 1 + 1/rho - log(rho/|1-rho|) + rho/(1-rho)^2 * g(rho)
    """
    if lam <= 0 or mu <= 0:
        raise ValueError("rates must be positive")
    rho = lam / mu
    if rho == 1.0:
        raise ValueError("rho = 1 is handled by the equal-rates entropy path")
    return (-math.log(mu) + 1.0 + 1.0 / rho - math.log(rho / abs(1.0 - rho))
            + rho / (1.0 - rho) ** 2 * g_rho(rho))


def support(law) -> tuple[float, float]:
    """The interval [lo, hi] outside which a shipped duration law has no
    mass: the exponential and Erlang laws live on [0, inf)."""
    if isinstance(law, Uniform):
        return law.lo, law.hi
    if isinstance(law, Deterministic):
        return law.value, law.value
    return 0.0, math.inf


def gl_sum_log_pdf(lam: float, service, d):
    """Log-density of D = W + S, W ~ Exp(lam), for a float array d.

    f_D(d) = integral of lam e^(-lam w) f_S(d - w) over the window where
    both factors live, evaluated with fixed-order Gauss-Legendre quadrature
    in log space.  The window drops the service mass beyond its
    1 - 1e-14 quantile and the idle mass beyond 700/lam, so this is an
    oracle only where the dropped mass is small relative to f_D(d).
    """
    s_lo, s_hi = support(service)
    lo = np.maximum(0.0, d - s_hi) if math.isfinite(s_hi) else np.zeros_like(d)
    hi = np.minimum(d - s_lo, d)
    # tighten the window where either factor is negligible, else the
    # fixed-order rule can straddle a huge span and miss the narrow
    # service peak (relative truncation error ~1e-14, below rule error)
    span = s_hi if math.isfinite(s_hi) else float(service.ppf(1.0 - 1e-14))
    tight_lo = np.maximum(lo, d - span)
    tight_hi = np.minimum(hi, 700.0 / lam)
    keep = tight_hi > tight_lo
    lo = np.where(keep, tight_lo, lo)
    hi = np.where(keep, tight_hi, hi)
    out = np.full(d.shape, -np.inf)
    good = hi > lo
    if not good.any():
        return out
    nodes, weights = leggauss(GL_ORDER)
    mid = 0.5 * (lo[good] + hi[good])
    half = 0.5 * (hi[good] - lo[good])
    w = mid[:, None] + half[:, None] * nodes[None, :]
    log_terms = (math.log(lam) - lam * w
                 + service.log_pdf(d[good][:, None] - w))
    out[good] = logsumexp(log_terms, b=weights[None, :] * half[:, None], axis=1)
    return out


def two_rate_sf(lam: float, mu: float, d):
    """Survival function P[D > d] of Exponential(lam) + Exponential(mu),
    with the library's Erlang-2 branch for merged rates."""
    d, scalar = _as_float_array(d)
    a, b = _two_rates(lam, mu)
    if a == b:
        out = np.exp(-a * d) * (1.0 + a * d)
    else:
        out = (b * np.exp(-a * d) - a * np.exp(-b * d)) / (b - a)
    return _maybe_scalar(np.where(d <= 0, 1.0, out), scalar)


def two_rate_quantile(lam: float, mu: float, q: float) -> float:
    """The q-quantile of Exponential(lam) + Exponential(mu), by bracketing
    and Brent's method on `two_rate_sf`."""
    if not 0 < q < 1:
        raise ValueError("quantile level must be in (0, 1)")
    hi = 1.0
    while two_rate_sf(lam, mu, hi) > 1.0 - q:
        hi *= 2.0
    return optimize.brentq(lambda d: two_rate_sf(lam, mu, d) - (1.0 - q), 0.0, hi,
                           xtol=1e-12, rtol=8.9e-16)


def quantile_bound(lam: float, service, q: float) -> float:
    """An upper bound for the q-quantile of D = W + S, W ~ Exp(lam): the
    union bound on the quantiles of W and S at 1 - (1 - q)/2."""
    split = 1.0 - 0.5 * (1.0 - q)
    return -math.log1p(-split) / lam + float(service.ppf(split))


def _mp_erlang_sum_log_pdf(lam, k: int, beta):
    # f_D(d) = lam beta^k d^k e^(-beta d) / k! * 1F1(1; k+1; (beta - lam) d)
    lam, beta = mpmath.mpf(lam), mpmath.mpf(beta)
    front = mpmath.log(lam) + k * mpmath.log(beta) - mpmath.loggamma(k + 1)
    return lambda d: (front + k * mpmath.log(d) - beta * d
                      + mpmath.log(mpmath.hyp1f1(1, k + 1, (beta - lam) * d)))


def mp_erlang_sum_log_pdf(lam: float, k: int, beta: float, d) -> np.ndarray:
    """log f_D at the points d > 0 for Erlang(k, beta) service, at 40 digits."""
    with mpmath.workdps(40):
        log_pdf = _mp_erlang_sum_log_pdf(lam, k, beta)
        return np.array([float(log_pdf(mpmath.mpf(float(x)))) for x in np.ravel(d)])


def mp_erlang_sum_entropy(lam: float, k: int, beta: float) -> float:
    """h(W + S) for Erlang(k, beta) service by mpmath quadrature at 20 digits,
    split at the service's quantiles and over 60 idle means past them."""
    with mpmath.workdps(20):
        log_pdf = _mp_erlang_sum_log_pdf(lam, k, beta)

        def neg_f_log_f(d):
            lf = log_pdf(d)
            return -mpmath.exp(lf) * lf

        mean, sd = mpmath.mpf(k) / beta, mpmath.sqrt(k) / beta
        edges = [max(mean + z * sd, 0) for z in (-8, -4, -2, 0, 2, 4, 8)]
        edges += [edges[-1] + t / mpmath.mpf(lam) for t in (1, 4, 15, 60)]
        return float(mpmath.quad(neg_f_log_f, [0] + edges))


def gl_erlang_sum_entropy(law, lam: float) -> float:
    """h(W + S) for Erlang service `law` by composite Gauss-Legendre panels
    on [0, Q], Q the union bound on the 1 - 5e-13 quantiles of W and S:
    48 panels graded geometrically from Q * 1e-8 and the service quantiles
    at normal scores -7..7.  The 64-node sum is the value; QuadratureError
    if it differs from the 32-node sum, plus the truncated-tail envelope,
    by more than 1e-8, or if the 64-node panels integrate the density to a
    mass more than 1e-8 from 1."""
    split = 1.0 - 0.5e-12
    upper = -math.log1p(-split) / lam + float(law.ppf(split))
    bulk = law.ppf(ndtr(np.linspace(-7.0, 7.0, 16)))
    edges = np.unique(np.concatenate(
        [[0.0], np.geomspace(upper * 1e-8, upper, 48), bulk[bulk < upper]]))

    def panel_sums(order):
        nodes, weights = leggauss(order)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * np.diff(edges)
        x = (mid[:, None] + half[:, None] * nodes[None, :]).ravel()
        lp = law.departure_log_pdf(lam, x).reshape(len(half), order)
        return (float(np.sum(_neg_f_log_f(lp) @ weights * half)),
                float(np.sum(np.exp(lp) @ weights * half)))

    (coarse, _), (fine, mass) = panel_sums(32), panel_sums(64)
    tail_lp = float(law.departure_log_pdf(lam, np.asarray(upper)))
    tail = 1e-12 * (abs(tail_lp) + 2.0) if math.isfinite(tail_lp) else 0.0
    err = abs(fine - coarse) + tail
    if not err <= 1e-8:
        raise QuadratureError("panel entropy did not converge", err)
    if not abs(mass - 1.0) <= 1e-8:
        raise QuadratureError("panel density does not integrate to 1", abs(mass - 1.0))
    return fine


def mp_log_kummer(k: int, x: float):
    """log 1F1(1; k+1; x) at 40 digits, an mpmath number, for any shape k and
    real x, from 1F1(1; k+1; x) = k int_0^1 e^(x s) (1 - s)^(k-1) ds by
    mpmath quadrature split around the integrand's peak."""
    with mpmath.workdps(40):
        k, x = mpmath.mpf(k), mpmath.mpf(x)
        if k == 1:
            return mpmath.log(mpmath.expm1(x) / x) if x else mpmath.mpf(0)

        def g(s):
            return x * s + (k - 1) * mpmath.log1p(-s)

        # the peak of g on [0, 1) and its width there
        peak = 1 - (k - 1) / x if x > k - 1 else mpmath.mpf(0)
        width = (1 - peak) / mpmath.sqrt(k - 1)
        if peak == 0 and x < k - 1:
            width = min(width, 1 / (k - 1 - x))
        points = sorted({mpmath.mpf(0), mpmath.mpf(1)} | {
            peak + c * width for c in (-64, -16, -4, -1, 0, 1, 4, 16, 64, 256)
            if 0 < peak + c * width < 1})
        top = g(peak)
        return (mpmath.log(k) + top
                + mpmath.log(mpmath.quad(lambda s: mpmath.exp(g(s) - top), points)))


def scan_maximize_rate(mu: float, bracket: tuple[float, float], tol: float):
    """(rho*, value) of the normalized rate by a 0.01-step scan of `bracket`
    and golden section between the neighbours of its best point;
    ValueError if the best grid point is an end of the grid."""
    lo, hi = bracket

    def f(rho: float) -> float:
        return rate_R(rho * mu, mu) / mu

    grid = np.arange(lo, hi + 0.005, 0.01)
    grid = grid[(grid >= lo) & (grid <= hi)]
    values = [f(r) for r in grid]
    peak = int(np.argmax(values))
    if peak in (0, len(grid) - 1):
        raise ValueError(f"no interior maximum inside bracket {bracket}")
    rho_star, value = _golden_section_max(f, grid[peak - 1], grid[peak + 1], tol)
    if values[peak] > value:
        rho_star, value = float(grid[peak]), float(values[peak])
    return float(rho_star), float(value)


def dt_bound(lam: float, service, M: int, n: int, samples: int, seed: int):
    """Monte Carlo estimate of the dependence-testing (DT) bound of
    Polyanskiy, Poor & Verdu (IEEE Trans. IT 2010, Theorem 17) on the error
    of M random codewords with Poisson(lam) arrivals, averaged over
    codebooks, read at n departures:

        E[exp(-(i - log((M - 1)/2))^+)],  i = sum_j log f_S(S_j) - log f_D(W_j + S_j)

    over n renewal cycles of idle W_j ~ Exp(lam) and service S_j, from the
    law's own `log_pdf` and `departure_log_pdf`.  Returns the estimate and
    its standard error."""
    rng = np.random.default_rng(seed)
    idles = rng.exponential(1.0 / lam, size=(samples, n))
    services = np.asarray(service.sample(rng, size=(samples, n)), dtype=float)
    i = np.sum(service.log_pdf(services)
               - service.departure_log_pdf(lam, idles + services), axis=1)
    terms = np.exp(-np.maximum(i - math.log((M - 1) / 2), 0.0))
    return float(np.mean(terms)), float(np.std(terms, ddof=1) / math.sqrt(samples))
