"""Monte Carlo information-density estimation for the timing queue.

Under Poisson arrivals the queue regenerates at every departure: the idle
time before each admission is exponential with the arrival rate and
independent of the service that follows.  One trial therefore draws n idle
and service pairs directly, forms the inter-departure times, and evaluates

    (sum of service log-densities - sum of inter-departure log-densities)

normalized by the expected epoch of departure n.  The trial mean estimates
the achievable rate; the tail fraction below a target rate estimates the
outage probability that the liminf criterion drives to zero.

`decode_rate_experiment` is the operational counterpart: random codebooks,
the queue simulator, and the ML decoder, tabulating empirical error rates
against the operating rate log(M) / T_n.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import _output
from .bounds import rate_R
from .coding import Codebook, DecodeFailure, encode, ml_decode
from .distributions import (Exponential, NumericalConvolution, _require_count,
                            _require_rate)
from .queue_sim import SimConfig, expected_decode_time, simulate

__all__ = [
    "TrialFailure",
    "InfoDensityReport",
    "info_density_trial",
    "info_density_report",
    "empirical_liminf",
    "liminf_csv",
    "decode_rate_experiment",
]

DEFAULT_TRIAL_SEED = 20_177

# points per density evaluation in `info_density_trial`
_DENSITY_BLOCK = 2**16


class TrialFailure(RuntimeError):
    """A sampled point landed where a density vanishes (measure zero)."""


def info_density_trial(lam: float, service, n: int, rng: np.random.Generator) -> float:
    """One normalized information-density sample from n renewal cycles.

    Draws the n idle times (exponential, rate lam) and then the n service
    times, in that order, from `rng`.  Returns +inf for a point-mass
    service, whose log-density is +inf on its atom: the timing channel is
    then noiseless and the information density diverges.  Raises
    TrialFailure if any sampled point has zero density under its own law.
    """
    decode_time = expected_decode_time(lam, service, n)  # checks lam and n
    dep = NumericalConvolution(lam, service)
    idles = rng.exponential(1.0 / lam, size=n)
    services = np.asarray(service.sample(rng, size=n), dtype=float)

    # elementwise densities in fixed blocks: their temporaries stay one
    # block long whatever the law, and each output value is unchanged
    log_fs, log_fd = np.empty(n), np.empty(n)
    for block in range(0, n, _DENSITY_BLOCK):
        part = slice(block, block + _DENSITY_BLOCK)
        log_fs[part] = service.log_pdf(services[part])
        log_fd[part] = dep.log_pdf(idles[part] + services[part])
    if np.any(np.isneginf(log_fs)) or not np.all(np.isfinite(log_fd)):
        raise TrialFailure("zero density at a sampled point")

    density = float(np.sum(log_fs) - np.sum(log_fd))
    return density / decode_time


@dataclass
class InfoDensityReport:
    """Monte Carlo summary of the normalized information density.

    densities holds the per-trial values in trial order (failures
    excluded); mean and stderr summarize them, and tail_fraction is the
    share of trials at or below target - gamma.  All three are nan when
    every trial failed.
    """

    lam: float
    mu: float
    service_kind: str
    n: int
    trials: int
    target: float
    gamma: float
    densities: np.ndarray = field(repr=False)
    mean: float = 0.0
    stderr: float = 0.0
    tail_fraction: float = 0.0
    failed_trials: int = 0

    def __post_init__(self):
        kept = self.densities
        if not kept.size:
            self.mean = self.stderr = self.tail_fraction = math.nan
        elif np.all(np.isposinf(kept)):
            # noiseless (point-mass) service: the density diverges
            self.mean = math.inf
        else:
            self.mean = math.fsum(kept.tolist()) / kept.size
            if kept.size > 1:
                # scaled by a power of two (exactly) so the squares cannot overflow
                scale = 2.0 ** -math.frexp(float(np.max(np.abs(kept))))[1]
                self.stderr = (float(np.std(kept * scale, ddof=1)) / scale
                               / math.sqrt(kept.size))
            self.tail_fraction = float(np.mean(kept <= self.target - self.gamma))

    def as_dict(self) -> dict:
        return {
            "lam": self.lam,
            "mu": self.mu,
            "service": self.service_kind,
            "n": self.n,
            "trials": self.trials,
            "target": self.target,
            "gamma": self.gamma,
            "mean": self.mean,
            "stderr": self.stderr,
            "tail_fraction": self.tail_fraction,
            "failed_trials": self.failed_trials,
        }


def _run_trials(fn, trials: int, threads: int):
    """Run fn(trial_index) for every index, in index order in the result.

    Failures come back as None.  Scheduling cannot change the outcome: each
    trial owns a stream derived from its index alone.
    """
    def guarded(t):
        try:
            return fn(t)
        except TrialFailure:
            return None

    if _require_count(threads, "threads") == 1:
        return [guarded(t) for t in range(trials)]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(guarded, range(trials)))


def info_density_report(lam: float, service, n: int, trials: int,
                        seed: int = DEFAULT_TRIAL_SEED, target: float | None = None,
                        gamma: float | None = None, threads: int = 1) -> InfoDensityReport:
    """Run `trials` independent information-density trials and summarize.

    target defaults to the exponential-service achievable rate at the same
    arrival rate and mean service; gamma defaults to 5% of the target.
    Trial t draws from a stream keyed by (seed, n, t), so schedules and
    thread counts never change any sample.
    """
    n, trials = _require_count(n, "n"), _require_count(trials, "trials")
    target, gamma = _target_and_gamma(lam, service, target, gamma)

    def one(t: int) -> float:
        rng = np.random.default_rng(
            np.random.SeedSequence(entropy=seed, spawn_key=(n, t)))
        return info_density_trial(lam, service, n, rng)

    raw = _run_trials(one, trials, threads)
    kept = np.array([x for x in raw if x is not None], dtype=float)
    return InfoDensityReport(
        lam=lam, mu=1.0 / service.mean(), service_kind=type(service).__name__, n=n,
        trials=trials, target=target, gamma=gamma,
        densities=kept, failed_trials=sum(x is None for x in raw))


def _target_and_gamma(lam, service, target, gamma) -> tuple[float, float]:
    """The target rate and the slack gamma below it, defaulted and checked:
    a target must be finite and gamma positive and finite.  A default gamma
    that is not is refused in the name of what it came from: the target, or
    the load lam E[S] when the target is its default too (the rate reads 0
    past a load of ~1e16, through lam or the service mean).
    """
    source = f"target = {target} gives"
    if target is None:
        target = rate_R(lam, 1.0 / service.mean())
        source = (f"load lam E[S] = {lam * service.mean()} gives the default "
                  f"target {target}, and")
    if not math.isfinite(target):
        raise ValueError(f"target must be finite, got {target}")
    if gamma is None:
        gamma = 0.05 * target
        if not gamma > 0:
            raise ValueError(f"{source} a default gamma, 5% of the target, "
                             f"of {gamma}; gamma must be positive")
    if not 0 < gamma < math.inf:
        raise ValueError(f"gamma must be positive and finite, got {gamma}")
    return float(target), float(gamma)


def empirical_liminf(lam: float, service, n_schedule, trials: int,
                     target: float | None = None, gamma: float | None = None,
                     seed: int = DEFAULT_TRIAL_SEED,
                     threads: int = 1) -> list[InfoDensityReport]:
    """Tail-fraction table over an increasing n schedule.

    For an achievable target the fraction of trials below target - gamma
    must decay toward zero as n grows; for an unachievable target it tends
    to one.  target and gamma default as in `info_density_report`.
    """
    ns = [_require_count(n, "n_schedule entry") for n in n_schedule]
    if any(b <= a for a, b in zip(ns, ns[1:])):
        raise ValueError(f"n_schedule must be strictly increasing, got {ns}")
    target, gamma = _target_and_gamma(lam, service, target, gamma)
    return [info_density_report(lam, service, n, trials, seed=seed,
                                target=target, gamma=gamma, threads=threads)
            for n in ns]


def liminf_csv(reports, config: dict | None = None) -> str:
    header = ["n", "mean", "stderr", "tail_fraction"]
    n, *floats = ([getattr(r, name) for r in reports] for name in header)
    return _output.csv_text(header, [map(repr, n), *map(_output.cells, floats)], config)


def _broadcast_schedules(M_schedule, n_schedule):
    Ms = [_require_count(m, "M_schedule entry") for m in np.atleast_1d(M_schedule)]
    ns = [_require_count(n, "n_schedule entry") for n in np.atleast_1d(n_schedule)]
    if len(Ms) == 1:
        Ms = Ms * len(ns)
    if len(ns) == 1:
        ns = ns * len(Ms)
    if len(Ms) != len(ns):
        raise ValueError("M_schedule and n_schedule must broadcast "
                         f"(lengths {len(Ms)} and {len(ns)})")
    return list(zip(Ms, ns))


def decode_rate_experiment(M_schedule, lam: float, mu: float, n_schedule,
                           trials: int, seed: int = DEFAULT_TRIAL_SEED,
                           threads: int = 1) -> list[dict]:
    """Empirical decode error rates over (M, n) cells.

    Schedules pair up elementwise, with a length-1 schedule broadcast
    against the other.  Every trial draws a fresh random codebook with
    exponential(lam) gaps, picks a uniform message, runs the queue with
    exponential(mu) service, and ML-decodes the departure gaps; a decode
    failure counts as an error.  Rows report the error rate and the
    operating rate log(M) / T_n.
    """
    _require_rate(lam, "lam")
    trials = _require_count(trials, "trials")
    service = Exponential(_require_rate(mu, "mu"))
    rows = []
    for cell, (M, n) in enumerate(_broadcast_schedules(M_schedule, n_schedule)):

        def one(t: int, M=M, n=n, cell=cell) -> bool:
            rng = np.random.default_rng(
                np.random.SeedSequence(entropy=seed, spawn_key=(cell, t)))
            message = int(rng.integers(1, M + 1))
            book = Codebook(M, int(rng.integers(0, 2**63)), Exponential(lam))
            trace = simulate(SimConfig(
                arrival=encode(book, message), service=service, n=n,
                seed=int(rng.integers(0, 2**63))))
            try:
                result = ml_decode(book, trace.inter_departures, service)
            except DecodeFailure:
                return True
            return result.chosen != message

        outcomes = _run_trials(one, trials, threads)
        errors = int(sum(bool(x) for x in outcomes))
        t_n = expected_decode_time(lam, service, n)
        rows.append({
            "M": M,
            "n": n,
            "trials": trials,
            "errors": errors,
            "error_rate": errors / trials,
            "operating_rate": math.log(M) / t_n,
        })
    return rows
