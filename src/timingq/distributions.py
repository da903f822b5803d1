"""Probability models for service, inter-arrival, and inter-departure durations.

Duration laws expose sampling, exact log-densities, means, quantiles and
closed-form entropies; Poisson arrivals are Exponential(rate) gaps.  Each
service law (exponential, point mass, uniform, Erlang) also owns the law
of D = W + S, an exponential idle period of rate lam plus one service:
`departure_log_pdf(lam, d)` is its exact log-density, taking a float array
d and returning an array of its shape, and `departure_entropy(lam)` its
entropy; both hold lam to the rate rule.  That entropy is exact for
exponential service (the two-rate sum law, `hypoexp_entropy`), uniform
service and a point mass.  For Erlang service it comes from the
closed-form bracket max(h(W), h(S)) <= h(D) <= 1 + log(1/lam + E[S]) where
that is narrow, and elsewhere from 16- and 32-node Gauss-Legendre panels on
D in units of its mean cycle, certified against both the rule difference
and the bracket at every scale the rate rule admits: the one place in this
module that can raise QuadratureError.  `NumericalConvolution` holds lam
to the rate rule and hands D to the service law, refusing a law without
`departure_log_pdf`.

All entropies and log-densities are in nats.  Durations are abstract time
units; every distribution here lives on the nonnegative half-line.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss
from scipy.special import erfcx, gammainc, gammaincinv, hyp1f1, ndtr, psi

__all__ = [
    "QuadratureError",
    "Exponential",
    "Deterministic",
    "Erlang",
    "Uniform",
    "NumericalConvolution",
    "hypoexp_entropy",
]

# Absolute-error target of the convolution entropy quadrature.
ENTROPY_ABS_TOL = 1e-8

# Below this relative rate separation the hypoexponential density is a 0/0
# form and we switch to its Erlang-2 limit.
_EQUAL_RATE_REL_TOL = 1e-9

# Survival-probability level defining the upper integration limit of the
# convolution entropy quadrature: [0, Q] with P[D > Q] <= _TAIL_MASS.
_TAIL_MASS = 1e-12


class QuadratureError(RuntimeError):
    """Numerical integration failed to certify the requested tolerance.

    Attributes
    ----------
    achieved : float
        The error estimate that was actually obtained.
    """

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved error estimate {achieved:.3e})")
        self.achieved = achieved


def _as_float_array(x):
    arr = np.asarray(x, dtype=float)
    return arr, arr.ndim == 0


def _maybe_scalar(out, scalar):
    if not scalar:
        return out
    return float(np.asarray(out).item())


def _require_rate(value, name: str) -> float:
    """The rate rule: `value` is positive and finite, with a finite
    reciprocal, so that it can stand for a rate and 1/value for a mean.
    Returns it as a float; raises ValueError naming `name` otherwise."""
    try:
        x = float(value)
        if 0 < x < math.inf and 1.0 / x < math.inf:
            return x
    except OverflowError:  # an integer past the float range
        pass
    raise ValueError(f"{name} must be positive and finite with a finite reciprocal "
                     f"(a value that overflows a float is not), got {value}")


def _require_count(value, name: str) -> int:
    """The count rule: `value` is an integer (of any integer type, never a
    float it would truncate) of at least 1.  Returns it as an int; raises
    ValueError naming `name` otherwise."""
    if not isinstance(value, numbers.Integral) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def _require_finite_mean(law) -> None:
    # an infinite mean service time never ends: the simulator would wait
    # forever for an infinite departure epoch, and 1/mean is a zero rate;
    # a mean whose reciprocal overflows is an infinite rate
    try:  # law.mean() overflows on a parameter too large for a float
        _require_rate(law.mean(), "mean")
    except (OverflowError, ValueError):
        raise ValueError(f"the mean of {law!r} or its reciprocal overflows") from None


@lru_cache(maxsize=1)
def _panel_rule():
    """What the departure-entropy panels share at every load: the nodes of
    the 16- and 32-node Gauss-Legendre rules side by side, a (48, 2) weight
    matrix whose columns apply each rule to its own nodes, 48 geometric
    steps from 1e-8 to 1 for the edges graded toward 0, and the quantile
    levels at normal scores -7..7 followed by the tail split 1 - _TAIL_MASS/2."""
    (coarse, coarse_w), (fine, fine_w) = leggauss(16), leggauss(32)
    weights = np.zeros((48, 2))
    weights[:16, 0], weights[16:, 1] = coarse_w, fine_w
    levels = np.append(ndtr(np.linspace(-7.0, 7.0, 16)), 1.0 - 0.5 * _TAIL_MASS)
    return np.concatenate((coarse, fine)), weights, np.geomspace(1e-8, 1.0, 48), levels


def _neg_f_log_f(lp):
    """-f log f from log-density values lp, with the convention 0 log 0 = 0;
    a nan log-density stays nan, so a sum over it cannot certify."""
    out = np.zeros_like(lp)
    mass = lp != -np.inf
    out[mass] = -np.exp(lp[mass]) * lp[mass]
    return out


# Stirling's series for log k! - (k log k - k + log(2 pi k)/2), in 1/k^2
_STIRLING = (1 / 12, -1 / 360, 1 / 1260, -1 / 1680, 1 / 1188, -691 / 360360,
             1 / 156, -3617 / 122400)


def _stirling_remainder(k: int) -> float:
    """log k! - (k log k - k + log(2 pi k)/2) for an integer k >= 1; its
    series is short of 1e-17 from k = 10 on."""
    if k < 10:
        return (math.lgamma(k + 1) - k * math.log(k) + k
                - 0.5 * math.log(2.0 * math.pi * k))
    series = 0.0
    for c in reversed(_STIRLING):
        series = series / (k * k) + c
    return series / k


# Loader's series for the Poisson deviance, 1/(2j + 1) for j = 15, ..., 1
_ODD = tuple(1.0 / (2 * j + 1) for j in range(15, 0, -1))


def _poisson_deviance(k: int, rate: float, x):
    """k (t - log1p t) = m - k - k log(m/k) at m = rate * x, t = m/k - 1, for
    k >= 1 and an array x >= 0; an m that overflows gives inf.

    The direct form errs by about k * 2e-16 where its terms, of size k,
    cancel near m = k.  Past k = 8 it gives way there, where |v| < 1/4 with
    v = t/(2 + t), to Loader's series k (t v - 2 sum_j v^(2j+1)/(2j+1));
    elsewhere the cancellation costs a factor of 5 at most.
    """
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        m = rate * x
        log_ratio = np.log(m / k)
        tiny = m <= 1e-290  # m/k loses digits as a subnormal, or is 0
        log_ratio[tiny] = math.log(rate) + np.log(x[tiny]) - math.log(k)
        out = (m - k) - k * log_ratio
        out[m == math.inf] = math.inf
        if k > 8:
            t = (m - k) / k
            v = t / (2.0 + t)
            near = np.abs(v) < 0.25
            vn = v[near]
            v2 = vn * vn
            odd = np.full_like(vn, _ODD[0])
            for c in _ODD[1:]:  # the dropped term is below 1e-17 of the first
                odd *= v2
                odd += c
            out[near] = k * (t[near] * vn - 2.0 * vn * v2 * odd)
    return out


def _log_poisson(k: int, rate: float, x):
    """log(m^k e^(-m) / k!) at m = rate * x, for an integer k >= 0 and an
    array x >= 0, as -k (t - log1p t) - log(2 pi k)/2 - (Stirling's
    remainder).  The plain k log m - m - log k!, a sum of terms of size
    k log k, cancels to a few nats near m = k and keeps no digit there at
    k = 2**53."""
    if k == 0:
        with np.errstate(over="ignore"):
            return -rate * x
    return -(_poisson_deviance(k, rate, x)
             + (0.5 * math.log(2.0 * math.pi * k) + _stirling_remainder(k)))


# ---------------------------------------------------------------------------
# service-time distributions
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Exponential:
    """Exponential duration with the given rate (mean 1/rate)."""

    rate: float

    def __post_init__(self):
        _require_rate(self.rate, "rate")
        _require_finite_mean(self)

    def mean(self) -> float:
        return 1.0 / self.rate

    def sample(self, rng: np.random.Generator, size=None):
        return rng.exponential(1.0 / self.rate, size=size)

    def log_pdf(self, x):
        x, scalar = _as_float_array(x)
        with np.errstate(over="ignore"):  # a rate * x past the float range: -inf
            out = np.where(x >= 0, math.log(self.rate) - self.rate * x, -np.inf)
        return _maybe_scalar(out, scalar)

    def entropy(self) -> float:
        # differential entropy log e + log(1/rate), exactly
        return 1.0 - math.log(self.rate)

    def ppf(self, q):
        q, scalar = _as_float_array(q)
        with np.errstate(over="ignore"):  # a quantile past the float range: inf
            return _maybe_scalar(-np.log1p(-q) / self.rate, scalar)

    def departure_log_pdf(self, lam, d):
        a, b = _two_rates(_require_rate(lam, "lam"), self.rate)
        out = np.full(d.shape, -np.inf)
        pos = d > 0
        dp = d[pos]
        if a == b:
            out[pos] = 2.0 * math.log(a) + np.log(dp) - a * dp
        else:
            # log f = log(ab) - log(b-a) - a d + log(1 - exp(-(b-a) d)),
            # stable for both tiny and large (b-a) d; a (b-a) d past the
            # float range leaves the last factor at 1
            with np.errstate(over="ignore"):
                out[pos] = (math.log(a) + math.log(b) - math.log(b - a)
                            - a * dp + np.log(-np.expm1(-(b - a) * dp)))
        return out

    def departure_entropy(self, lam) -> float:
        return hypoexp_entropy(lam, self.rate)


@dataclass(frozen=True)
class Deterministic:
    """Point mass: the duration is always `value`."""

    value: float

    def __post_init__(self):
        _require_rate(self.value, "value")  # the value is the mean

    def mean(self) -> float:
        return self.value

    def sample(self, rng: np.random.Generator, size=None):
        if size is None:
            return self.value
        return np.full(size, self.value)

    def log_pdf(self, x):
        # Generalized density of a point mass: +inf on the atom, -inf off it.
        x, scalar = _as_float_array(x)
        out = np.where(x == self.value, np.inf, -np.inf)
        return _maybe_scalar(out, scalar)

    def entropy(self) -> float:
        raise ValueError("a point mass has no differential entropy")

    def ppf(self, q):
        q, scalar = _as_float_array(q)
        return _maybe_scalar(np.full_like(q, self.value), scalar)

    def departure_log_pdf(self, lam, d):
        # a shifted exponential
        lam = _require_rate(lam, "lam")
        x = d - self.value
        return np.where(x > 0, math.log(lam) - lam * x, -np.inf)

    def departure_entropy(self, lam) -> float:
        # a point mass only shifts the idle time
        return 1.0 - math.log(_require_rate(lam, "lam"))


@dataclass(frozen=True)
class Erlang:
    """Erlang duration: sum of `shape` iid exponentials of the given rate.

    The shape is an integer from 1 to 2**53, past which float(shape), and
    with it every density and entropy here, is inexact.
    """

    shape: int
    rate: float

    def __post_init__(self):
        _require_count(self.shape, "shape")
        _require_rate(self.rate, "rate")
        _require_finite_mean(self)
        if self.shape > 2**53:
            raise ValueError(f"shape must be at most 2**53, the largest at which "
                             f"float(shape) is exact, got {self.shape}")

    def mean(self) -> float:
        return self.shape / self.rate

    def sample(self, rng: np.random.Generator, size=None):
        return rng.gamma(float(self.shape), 1.0 / self.rate, size=size)

    def log_pdf(self, x):
        x, scalar = _as_float_array(x)
        # f(x) = beta (beta x)^(k-1) e^(-beta x) / (k-1)!
        out = np.full(x.shape, -np.inf)
        ok = x >= 0
        out[ok] = math.log(self.rate) + _log_poisson(self.shape - 1, self.rate, x[ok])
        return _maybe_scalar(out, scalar)

    def entropy(self) -> float:
        # gamma entropy k + log Gamma(k) + (1 - k) psi(k) - log(rate), whose
        # terms of size k log k cancel; from k = 50 on, its asymptotic series
        # (dropped term below 1e-14) keeps the digits the closed form loses
        k = self.shape
        if k < 50:
            return float(k - math.log(self.rate) + math.lgamma(k) + (1 - k) * psi(k))
        r = 1.0 / k
        tail = r * (1 / 3 + r * (1 / 12 + r * (1 / 90 - r * (1 / 120 + r * (
            1 / 210 - r / 252)))))
        return 0.5 * math.log(2.0 * math.pi * math.e * k) - math.log(self.rate) - tail

    def ppf(self, q):
        q, scalar = _as_float_array(q)
        return _maybe_scalar(gammaincinv(self.shape, q) / self.rate, scalar)

    def departure_log_pdf(self, lam, d):
        # By Kummer's transformation, with x = (beta - lam) d,
        #   f_D(d) = lam (beta d)^k e^(-beta d) / k! * 1F1(1; k+1; x),
        # the first factor being `_log_poisson`'s.  The branches differ in how
        # they reach log 1F1(1; k+1; x):
        # * past x = k, 1F1(1; k+1; x) = k! x^(-k) e^x P(k, x), P the regularized
        #   lower incomplete gamma function, which lies in (1/2, 1] there; the
        #   two Poisson factors cancel in closed form, to
        #     f_D(d) = lam (beta / (beta - lam))^k e^(-lam d) P(k, x),
        #   in which an x that overflows is harmless;
        # * for 0 < x <= k from shape _TEMME_SHAPE on, `_log_kummer_temme`;
        # * below x = -(1.25 k + 40) scipy's 1F1 loses digits as k grows and can
        #   read nan past x = -1e12; there, with y = -x, the exact
        #     1F1(1; k+1; -y) = (k/y) sum_{n<k} (k-1)!/(k-1-n)! (-1/y)^n
        #                       + (-1)^k k! y^(-k) e^(-y)
        #   has terms falling by a factor 0.8 or more and a last term below
        #   e^(-40) of the first, so its first 200 terms give the sum;
        # * elsewhere scipy's hyp1f1.
        lam = _require_rate(lam, "lam")
        k, beta = self.shape, self.rate
        out = np.full(d.shape, -np.inf)
        pos = d > 0
        dp = d[pos]
        with np.errstate(over="ignore"):
            x = (beta - lam) * dp
        high, low = x > k, x < -(1.25 * k + 40.0)
        mid = ~(high | low)
        log_1f1 = np.zeros_like(dp)
        if k >= _TEMME_SHAPE:
            temme = mid & (x > 0)
            log_1f1[temme] = _log_kummer_temme(k, x[temme])
            mid &= ~temme
        log_1f1[mid] = np.log(hyp1f1(1, k + 1, x[mid]))
        if lam > beta:
            dl, y = dp[low], -x[low]
            series = np.ones_like(y)
            for n in range(min(k, 200) - 1, 0, -1):
                series = 1.0 - (k - n) / y * series
            # log(k/y) in three logs, since y may overflow
            log_1f1[low] = (math.log(k) - math.log(lam - beta) - np.log(dl)
                            + np.log(series))
        log_f = _log_poisson(k, beta, dp) + log_1f1
        if beta > lam:
            log_f[high] = (-k * math.log1p(-lam / beta) - lam * dp[high]
                           + np.log(gammainc(k, x[high])))
        out[pos] = math.log(lam) + log_f
        return out

    def departure_entropy(self, lam) -> float:
        """Entropy of D = W + S, certified to ENTROPY_ABS_TOL at every scale.

        With c = 1/lam + E[S] the mean cycle, h(D) lies in the closed-form
        bracket max(h(W), h(S)) <= h(D) <= 1 + log c, the upper end being
        the exponential law of mean c.  Where the bracket is narrower than
        ENTROPY_ABS_TOL, its midpoint is the answer.  Elsewhere composite
        Gauss-Legendre panels integrate the law of D/c, whose rates
        lam c = 1 + lam E[S] and beta c = beta/lam + k do not depend on the
        time unit, and h(D) = h(D/c) + log c.  The 16- and 32-node rules
        share one density call with the tail point; the error estimate is
        their difference on every panel plus the truncated-tail envelope,
        and the 32-node sum is the value.  QuadratureError if the estimate
        exceeds ENTROPY_ABS_TOL, if the 32-node panels integrate the density
        to a mass more than ENTROPY_ABS_TOL from 1, or if the value leaves
        the bracket by more than ENTROPY_ABS_TOL.
        """
        lam = _require_rate(lam, "lam")
        idle, mean = 1.0 / lam, self.mean()
        # log c as the log of the larger term, since c itself may overflow
        log_cycle = math.log(max(idle, mean)) + math.log1p(min(idle, mean) / max(idle, mean))
        lower, upper = max(1.0 - math.log(lam), self.entropy()), 1.0 + log_cycle
        if upper - lower <= ENTROPY_ABS_TOL:
            return 0.5 * (lower + upper)
        # the bracket is at most log1p(lam E[S]) wide, so here beta/lam is
        # below k/ENTROPY_ABS_TOL; a lam c past the float range only shortens
        # an idle time far below the first panel
        scaled = Erlang(self.shape, self.rate * idle + self.shape)
        lam_c = min(1.0 + lam * mean, np.finfo(float).max)
        nodes, weights, grading, levels = _panel_rule()
        quantiles = scaled.ppf(levels)
        # [0, top] with P[D/c > top] <= _TAIL_MASS, by the union bound on
        # the quantiles of W/c and S/c
        top = float(-math.log1p(-levels[-1]) / lam_c + quantiles[-1])
        # graded toward 0, where the Erlang sum density vanishes like d^k,
        # plus the service quantiles at normal scores -7..7, since the
        # density rises across the service law's bulk, ~sqrt(k)/rate wide
        bulk = quantiles[:-1]
        edges = np.unique(np.concatenate([[0.0], top * grading, bulk[bulk < top]]))
        half = 0.5 * np.diff(edges)
        mid = edges[:-1] + half
        lp = scaled.departure_log_pdf(lam_c, np.append(
            (mid[:, None] + half[:, None] * nodes).ravel(), top))
        tail_lp, lp = float(lp[-1]), lp[:-1].reshape(len(half), len(nodes))
        # the integrals of -f log f by both rules, and of f by the finer one
        coarse, fine = half @ (_neg_f_log_f(lp) @ weights)
        mass = float(half @ (np.exp(lp) @ weights[:, 1]))
        tail = _TAIL_MASS * (abs(tail_lp) + 2.0) if math.isfinite(tail_lp) else 0.0
        err = abs(fine - coarse) + tail
        if not err <= ENTROPY_ABS_TOL:
            raise QuadratureError("convolution entropy did not converge", err)
        # a density wrong on much of its support can still converge
        if not abs(mass - 1.0) <= ENTROPY_ABS_TOL:
            raise QuadratureError("convolution density does not integrate to 1",
                                  abs(mass - 1.0))
        h = float(fine) + log_cycle
        outside = max(lower - h, h - upper)
        if not outside <= ENTROPY_ABS_TOL:
            raise QuadratureError("convolution entropy left its closed-form bracket",
                                  outside)
        return min(max(h, lower), upper)


@dataclass(frozen=True)
class Uniform:
    """Uniform duration on [lo, hi]."""

    lo: float
    hi: float

    def __post_init__(self):
        if self.lo < 0:
            raise ValueError(f"lo must be nonnegative, got {self.lo}")
        if not self.lo < self.hi < math.inf:
            raise ValueError(
                f"hi must exceed lo and be finite, got [{self.lo}, {self.hi}]")
        _require_finite_mean(self)

    def mean(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def sample(self, rng: np.random.Generator, size=None):
        return rng.uniform(self.lo, self.hi, size=size)

    def log_pdf(self, x):
        x, scalar = _as_float_array(x)
        inside = (x >= self.lo) & (x <= self.hi)
        out = np.where(inside, -math.log(self.hi - self.lo), -np.inf)
        return _maybe_scalar(out, scalar)

    def entropy(self) -> float:
        return math.log(self.hi - self.lo)

    def ppf(self, q):
        q, scalar = _as_float_array(q)
        return _maybe_scalar(self.lo + q * (self.hi - self.lo), scalar)

    def departure_log_pdf(self, lam, d):
        # f_D(d) = [e^(-lam (d - m)) - e^(-lam (d - lo))] / (hi - lo) with
        # m = min(d, hi), for d > lo
        lam = _require_rate(lam, "lam")
        lo, hi = self.lo, self.hi
        out = np.full(d.shape, -np.inf)
        pos = d > lo
        dp = d[pos]
        m = np.minimum(dp, hi)
        with np.errstate(over="ignore"):  # an x past the float range: 1 - e^(-x) = 1
            x = lam * (m - lo)
            # where x underflows, log(1 - e^(-x)) = log lam + log(m - lo)
            under = x < np.finfo(float).tiny
            log_mass = np.log(-np.expm1(-np.where(under, 1.0, x)))
            log_mass[under] = math.log(lam) + np.log(m[under] - lo)
            out[pos] = log_mass - lam * (dp - m) - math.log(hi - lo)
        return out

    def departure_entropy(self, lam) -> float:
        # With L = hi - lo, x = lam L and p = 1 - e^(-x), -f log f integrates to
        # h = Li2(p)/x - log(p/x) - log lam, which tends to 1 - log lam + x/4.
        # Euler's reflection Li2(p) + Li2(1 - p) = pi^2/6 - log p log(1 - p) turns
        # it into h = log L + (pi^2/6 - Li2(e^(-x)))/x, finite once e^(-x) underflows.
        lam = _require_rate(lam, "lam")
        width = self.hi - self.lo
        x = lam * width
        if x == 0.0:  # the service is negligible next to the idle time
            return 1.0 - math.log(lam)
        p = -math.expm1(-x)
        if p <= 0.5:
            return _dilog(p) / x - math.log(p / x) - math.log(lam)
        return math.log(width) + (math.pi ** 2 / 6.0 - _dilog(math.exp(-x))) / x


# ---------------------------------------------------------------------------
# inter-departure models: D = W + S with W ~ Exp(lam)
# ---------------------------------------------------------------------------


def _two_rates(lam: float, mu: float) -> tuple[float, float]:
    a, b = min(lam, mu), max(lam, mu)
    if (b - a) / b < _EQUAL_RATE_REL_TOL:
        r = 0.5 * (a + b)
        return r, r
    return a, b


def hypoexp_entropy(lam: float, mu: float) -> float:
    """Differential entropy of Exponential(lam) + Exponential(mu), in nats.

    Exact: with rates a < b and z = b/(b - a),

        h = 1 + gamma - log a + (psi(z) - log z),

    gamma being Euler's constant.  The bracket tends to 0 as the rates
    merge, so grouping it keeps near-equal rates free of cancellation.
    Below 1e-9 relative separation the density's Erlang-2 branch applies
    and so does its entropy, 1 + gamma - log r.
    """
    a, b = _two_rates(_require_rate(lam, "lam"), _require_rate(mu, "mu"))
    if a == b:
        return 1.0 + np.euler_gamma - math.log(a)
    z = b / (b - a)
    return float(1.0 + np.euler_gamma - math.log(a) + (psi(z) - math.log(z)))


# From this shape on, `_log_kummer_temme` is within 1e-14 relative of
# 1F1(1; k+1; x) for 0 < x <= k, and scipy's hyp1f1 no better: it loses digits
# as k grows and reads nan just below x = k from k ~ 2**35 on.
_TEMME_SHAPE = 2**20


def _log_kummer_temme(k: int, x):
    """log 1F1(1; k+1; x) for an array 0 < x <= k, by Temme's uniform
    expansion of the regularized incomplete gamma function (DLMF 8.12),

        P(k, x) = erfc(-y)/2 - e^(-y^2) (c0 + c1/k + ...) / sqrt(2 pi k),

    with t = x/k - 1, y = -sqrt(k (t - log1p t)) and eta = y sqrt(2/k).
    Since 1F1(1; k+1; x) = k! x^(-k) e^x P(k, x), and k! x^(-k) e^x is
    e^(y^2) sqrt(2 pi k) times e to Stirling's remainder,

        log 1F1(1; k+1; x) = log(sqrt(pi k/2) erfcx(-y) - c0 - c1/k)
                             + (Stirling's remainder),

    with no factor that under- or overflows.  Near eta = 0, where
    c0 = 1/t - 1/eta and c1 = 1/eta^3 - 1/t^3 - 1/t^2 - 1/(12 t) cancel,
    their Taylor series serve.
    """
    t = (x - k) / k
    y = -np.sqrt(_poisson_deviance(k, 1.0, x))
    eta = y * math.sqrt(2.0 / k)
    near = np.abs(eta) < 1e-3
    with np.errstate(divide="ignore", invalid="ignore"):
        c0 = np.where(near, -1 / 3 + eta * (1 / 12 + eta * (-2 / 135 + eta / 864)),
                      1 / t - 1 / eta)
        c1 = np.where(near, -1 / 540 - eta / 288,
                      1 / eta ** 3 - 1 / t ** 3 - 1 / t ** 2 - 1 / (12 * t))
    return (np.log(math.sqrt(0.5 * math.pi * k) * erfcx(-y) - c0 - c1 / k)
            + _stirling_remainder(k))


def _dilog(z: float) -> float:
    # Li2(z) = sum_{k>=1} z^k / k^2; 63 terms reach 1e-20 at z = 1/2
    return math.fsum(z ** k / (k * k) for k in range(1, 64))


class NumericalConvolution:
    """D = W + S for W ~ Exp(lam) independent of service S.

    The service law owns the density and entropy of D, as its
    `departure_log_pdf` and `departure_entropy`; a law without a
    `departure_log_pdf` raises ValueError.  This class holds lam to the
    rate rule and gives the density scalar in, scalar out.
    """

    def __init__(self, lam: float, service):
        self.lam = _require_rate(lam, "lam")
        if not hasattr(service, "departure_log_pdf"):
            raise ValueError(
                f"no exact W + S density for service {type(service).__name__}")
        self.service = service

    def log_pdf(self, d):
        d, scalar = _as_float_array(d)
        return _maybe_scalar(self.service.departure_log_pdf(self.lam, d), scalar)

    def entropy(self) -> float:
        return self.service.departure_entropy(self.lam)
