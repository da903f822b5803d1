"""Capacity bounds for the bufferless timing queue.

Three related quantities, all in nats per unit time unless noted:

* `rate_R`: the achievable rate of the exponential-service queue driven at
  arrival rate lam, equal to the inter-departure entropy gain over the
  service entropy divided by the mean renewal cycle.
* `universal_bound` / `universal_bound_at`: a converse that holds for any
  service law with a density, obtained by relaxing the maximal mutual
  information over mean-constrained nonnegative inputs (`c_upper`) with the
  max-entropy inequality.  The `_at` form is parametrized by arrival rate;
  its supremum over arrival rates is the closed two-case form.
* `cas_bound`: a tighter converse specific to Poisson arrivals, where the
  idle time is exactly exponential: mutual information between idle time
  and inter-departure time per mean cycle.

`sweep` tabulates the normalized curves on a rho = lam/mu grid and
`maximize_rate` locates the peak of the normalized rate, which lands at
0.3340 nats per mean service time for the exponential-service queue.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from . import _output
from .distributions import (
    Deterministic,
    Exponential,
    NumericalConvolution,
    hypoexp_entropy,
)

__all__ = [
    "rate_R",
    "universal_bound",
    "universal_bound_at",
    "c_upper",
    "cas_bound",
    "sweep",
    "maximize_rate",
    "per_service_time",
    "BoundCurve",
    "OptimumReport",
]

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def per_service_time(rate_per_unit_time: float, service) -> float:
    """Convert nats per unit time to nats per mean service time."""
    return rate_per_unit_time * service.mean()


def rate_R(lam: float, mu: float) -> float:
    """Achievable rate of the exponential-service queue, nats per unit time.

    Numerator: entropy of the inter-departure time (idle + service, the
    two-rate sum law) minus the exponential service entropy 1 - log mu.
    Denominator: the mean renewal cycle 1/lam + 1/mu.
    """
    if lam <= 0 or mu <= 0:
        raise ValueError("rates must be positive")
    # h(D) >= h(S) since D = W + S with W independent; at rho >= 1e16 the
    # closed-form difference rounds to about -1e-16
    gain = hypoexp_entropy(lam, mu) - 1.0 + math.log(mu)
    return max(gain, 0.0) / (1.0 / lam + 1.0 / mu)


def c_upper(a: float, service) -> float:
    """Upper bound, in nats, on the maximal mutual information I(X; X+S)
    over nonnegative inputs X with mean at most a.

    Equals 1 + log(a + E[S]) - h(S): the output X+S has mean a + E[S], and
    among positive variables of that mean the exponential maximizes
    entropy.  Monotone increasing and concave in a.
    """
    if a < 0:
        raise ValueError(f"input mean budget must be nonnegative, got {a}")
    return 1.0 + math.log(a + service.mean()) - service.entropy()


def universal_bound_at(lam: float, service) -> float:
    """Converse rate at arrival rate lam, nats per unit time, any service.

    The sender's idle times have mean at most the mean arrival gap 1/lam,
    so the rate is at most c_upper(1/lam)/(1/lam + E[S]).
    """
    if lam <= 0:
        raise ValueError(f"arrival rate must be positive, got {lam}")
    cycle = 1.0 / lam + service.mean()
    return c_upper(1.0 / lam, service) / cycle


def universal_bound(service) -> float:
    """Service-only converse: sup over arrival rates of `universal_bound_at`,
    in closed form.  Nats per unit time.

    With m = E[S] and h = h(S), the supremum over the input-mean budget a
    of [1 + log(a + m) - h]/(a + m) sits at a = e^h - m.  When h < log m
    that point is infeasible (a < 0) and the bound decreases in a, so a = 0
    is optimal: value (1 + log m - h)/m.  Otherwise the interior optimum
    gives exp(-h).
    """
    mean = service.mean()
    h = service.entropy()
    if h < math.log(mean):
        return (1.0 + math.log(mean) - h) / mean
    return math.exp(-h)


def cas_bound(lam: float, service) -> float:
    """Poisson-arrival converse, nats per unit time.

    Mutual information between the (exponential, rate lam) idle time and
    the inter-departure time, divided by the mean cycle:
    [h(W+S) - h(S)] / (1/lam + E[S]), with h(W+S) from
    `NumericalConvolution.entropy`: the closed form for exponential service,
    where the bound equals `rate_R`, a dilogarithm form for uniform service,
    and a certified quadrature for Erlang service.

    A point-mass service makes the channel from idle time to departure
    time noiseless, so the bound is +inf (and vacuous).
    """
    if lam <= 0:
        raise ValueError(f"arrival rate must be positive, got {lam}")
    if isinstance(service, Deterministic):
        return math.inf
    # a mutual information: a quadrature within its tolerance below 0 reads 0
    gain = max(NumericalConvolution(lam, service).entropy() - service.entropy(), 0.0)
    return gain / (1.0 / lam + service.mean())


# ---------------------------------------------------------------------------
# curve tabulation and the rate optimum
# ---------------------------------------------------------------------------


@dataclass
class BoundCurve:
    """Normalized bound curves tabulated on a rho grid.

    All columns are in nats per mean service time.  rate_R_norm is the
    exponential-service achievable rate; universal_norm and cas_norm are
    the two converses evaluated for `service_kind`.
    """

    rho_grid: np.ndarray
    mu: float
    service_kind: str
    rate_R_norm: np.ndarray
    universal_norm: np.ndarray
    cas_norm: np.ndarray

    def validate(self) -> None:
        cols = (self.rate_R_norm, self.universal_norm, self.cas_norm)
        if any(len(c) != len(self.rho_grid) for c in cols):
            raise ValueError("column lengths disagree with the grid")
        for c in cols:
            if np.any(np.asarray(c) < 0):
                raise ValueError("bounds must be nonnegative")
        if np.any(self.rate_R_norm > self.universal_norm):
            raise ValueError("achievable rate exceeded the universal bound")

    def to_csv(self, config: dict | None = None) -> str:
        columns = (self.rho_grid, self.rate_R_norm, self.universal_norm, self.cas_norm)
        return _output.csv_text(["rho", "rate_R_norm", "universal_norm", "cas_norm"],
                                map(_output.cells, columns), config)


def sweep(rho_grid, mu: float, service=None, include_cas: bool = True) -> BoundCurve:
    """Tabulate normalized rate and converse curves over rho = lam/mu.

    `service` defaults to exponential with rate mu.  The cas column is the
    slowest (for Erlang service, an entropy quadrature per grid point) and
    can be skipped, in which case it is filled with NaN.
    """
    rho = np.asarray(rho_grid, dtype=float)
    if rho.ndim != 1 or rho.size == 0 or np.any(rho <= 0):
        raise ValueError("rho grid must be one-dimensional and positive")
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if service is None:
        service = Exponential(mu)
    mean = service.mean()

    rate = np.array([rate_R(r * mu, mu) / mu for r in rho])
    universal = np.array([universal_bound_at(r * mu, service) * mean for r in rho])
    if include_cas:
        cas = np.array([cas_bound(r * mu, service) * mean for r in rho])
    else:
        cas = np.full(rho.shape, np.nan)

    curve = BoundCurve(rho_grid=rho, mu=mu,
                       service_kind=type(service).__name__,
                       rate_R_norm=rate, universal_norm=universal, cas_norm=cas)
    curve.validate()
    return curve


@dataclass
class OptimumReport:
    """Result of maximizing the normalized rate over rho."""

    rho_star: float
    value: float
    bracket: tuple[float, float]
    tolerance: float

    def as_dict(self) -> dict:
        return asdict(self)


def _check_load_range(lo: float, hi: float, mu: float) -> None:
    # the arrival rate rho * mu must be an exponential rate at both ends of
    # a rho range, and so, the valid rates being an interval, throughout it
    for rho in (lo, hi):
        try:
            Exponential(rho * mu)
        except ValueError as exc:
            raise ValueError(
                f"the arrival rate rho * mu at rho = {rho!r}: {exc}") from None


def _golden_section_max(f, lo: float, hi: float, tol: float):
    """Standard golden-section search for a maximum on [lo, hi].

    Stops at width `tol`, or earlier once rounding keeps the bracket from
    shrinking, so a `tol` below the float spacing near the peak cannot
    loop forever.
    """
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    width = math.inf
    while tol < b - a < width:
        width = b - a
        if f1 < f2:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
        else:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def maximize_rate(mu: float, bracket: tuple[float, float] = (0.01, 2.0),
                  tol: float = 1e-6) -> OptimumReport:
    """Locate the rho maximizing the normalized rate within `bracket`.

    rho -> rate_R(rho mu, mu)/mu is strictly unimodal: it rises strictly
    below its peak near 0.456 and falls strictly above it.  So one
    golden-section search over the whole bracket refines to `tol` in rho,
    and the peak is interior only if the value found beats both ends.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not 0 < lo < hi:
        raise ValueError(f"bracket must satisfy 0 < lo < hi, got {bracket}")
    if mu <= 0:
        raise ValueError(f"mu must be positive, got {mu}")
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    _check_load_range(lo, hi, mu)

    def f(rho: float) -> float:
        return rate_R(rho * mu, mu) / mu

    rho_star, value = _golden_section_max(f, lo, hi, tol)
    if not value > max(f(lo), f(hi)):
        raise ValueError(f"no interior maximum inside bracket {bracket}")
    return OptimumReport(rho_star=float(rho_star), value=float(value),
                         bracket=(lo, hi), tolerance=tol)
