"""Quadrature oracles for the two-rate sum entropy.

`hypoexp_entropy_rewritten` reaches the entropy of Exp(lam) + Exp(mu)
through a shape integral `g_rho` instead of the library's closed form, so
the tests can cross-check `timingq.hypoexp_entropy` against an independent
route.  Neither function serves the library itself.
"""

import math

import numpy as np
from scipy import integrate

from timingq import QuadratureError


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
