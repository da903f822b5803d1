"""Acceptance gate: the nine headline checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` for the per-criterion verdicts,
add `-s` to see the printed detail lines. Every check is deterministic
(frozen seeds), so a pass here is reproducible bit for bit.

A9's statistical clause is expected to fail, and that failure is honest: at
M=16 and block lengths 50/200 the operating rate sits at a few percent of
the achievable rate, so both empirical error counts are zero and no strict
ordering between them can reach 95% confidence at any bearable trial count.
The parameters are asserted exactly as stated rather than weakened; the
block-length effect itself is demonstrated at observable scales in
tests/test_achievability.py.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import fisher_exact

from oracles import hypoexp_entropy_rewritten
from timingq import (
    Codebook,
    Deterministic,
    Erlang,
    Exponential,
    NumericalConvolution,
    SimConfig,
    Uniform,
    decode_rate_experiment,
    empirical_liminf,
    encode,
    hypoexp_entropy,
    idle_path,
    info_density_report,
    maximize_rate,
    per_service_time,
    rate_R,
    simulate,
    sweep,
    universal_bound,
)


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"{criterion} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="session")
def optimum():
    start = time.perf_counter()
    report = maximize_rate(1.0)
    elapsed = time.perf_counter() - start
    return report, elapsed


def test_A1_peak_rate(optimum):
    report, elapsed = optimum
    ok = abs(report.value - 0.3340) < 5e-4 and elapsed < 10.0
    _report("A1", ok,
            f"max normalized rate {report.value:.6f} at rho={report.rho_star:.6f} "
            f"(want 0.3340 +/- 0.0005) in {elapsed:.2f}s")


def test_A2_universal_peak():
    svc = Exponential(1.0)
    value = per_service_time(universal_bound(svc), svc)
    err = abs(value - math.exp(-1.0))
    _report("A2", err < 1e-12,
            f"normalized distribution-free peak {value:.15f} vs 1/e, |err|={err:.2e}")


def test_A3_rate_gap_under_ten_percent(optimum):
    report, _ = optimum
    ratio = report.value / math.exp(-1.0)
    _report("A3", ratio >= 0.90,
            f"rate/universal ratio {ratio:.4f} (want >= 0.90)")


def test_A4_dominance_on_grid():
    start = time.perf_counter()
    grid = np.linspace(10.0 / 200, 10.0, 200)
    curve = sweep(grid, mu=1.0, include_cas=False)
    elapsed = time.perf_counter() - start
    gaps = curve.universal_norm - curve.rate_R_norm
    ok = bool(np.all(gaps > 0.0)) and elapsed < 30.0
    _report("A4", ok,
            f"rate < universal at all 200 grid points on (0, 10], "
            f"min gap {gaps.min():.3e}, in {elapsed:.2f}s")


def test_A5_info_density_converges(optimum):
    lam = optimum[0].rho_star
    target = rate_R(lam, 1.0)
    reports = empirical_liminf(lam, Exponential(1.0), [10**3, 10**4, 10**5],
                               trials=100, target=target, gamma=0.05 * target,
                               seed=9001, threads=4)
    rel_err = abs(reports[-1].mean - target) / target
    tails = [r.tail_fraction for r in reports]
    ok = (rel_err < 0.01 and tails[-1] < 0.01
          and all(a >= b for a, b in zip(tails, tails[1:]))
          and tails[0] > tails[-1])
    _report("A5", ok,
            f"mean at n=1e5 within {rel_err:.2e} of rate (want <1e-2), "
            f"tail fractions {tails} decreasing")


def test_A6_normalized_curve_depends_on_rho_alone():
    start = time.perf_counter()
    grid = np.linspace(0.05, 8.0, 50)
    worst = max(abs(rate_R(rho * 1.0, 1.0) / 1.0 - rate_R(rho * 3.0, 3.0) / 3.0)
                for rho in grid)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and elapsed < 30.0
    _report("A6", ok,
            f"mu=1 vs mu=3 normalized curves agree to {worst:.2e} "
            f"over 50 shared rho points in {elapsed:.2f}s")


def test_A7_general_service_at_least_exponential_rate(optimum):
    lam = optimum[0].rho_star
    floor = rate_R(lam, 1.0)
    services = [Deterministic(1.0), Erlang(2, 2.0), Uniform(0.0, 2.0)]
    margins = []
    for svc in services:
        rep = info_density_report(lam, svc, n=20_000, trials=32,
                                  seed=606, threads=4)
        if rep.mean == math.inf:
            margins.append(math.inf)
        else:
            margins.append((rep.mean - floor) / rep.stderr)
    ok = all(m >= -3.0 for m in margins)
    _report("A7", ok,
            "info-density mean vs rate floor, margins in stderr units: "
            + ", ".join(f"{svc.__class__.__name__}={m:.1f}"
                        for svc, m in zip(services, margins)))


def test_A8_entropy_quadrature_vs_oracles():
    rng = np.random.default_rng(12345)
    n = 10**6
    zs = []
    for rho in (0.1, 0.5, 1.0, 2.0, 5.0):
        d = Exponential(rho).sample(rng, n) + Exponential(1.0).sample(rng, n)
        logf = NumericalConvolution(rho, Exponential(1.0)).log_pdf(d)
        z = (hypoexp_entropy(rho, 1.0) - (-logf.mean())) / (logf.std(ddof=1) / math.sqrt(n))
        zs.append(abs(z))
    rewritten = max(abs(hypoexp_entropy_rewritten(rho, 1.0) - hypoexp_entropy(rho, 1.0))
                    for rho in (0.5, 2.0))
    ok = max(zs) < 3.0 and rewritten < 1e-6
    _report("A8", ok,
            f"Monte Carlo |z| = {[f'{z:.2f}' for z in zs]} (want all < 3), "
            f"rewritten-form gap {rewritten:.2e} (want < 1e-6)")


def test_A9_decode_error_falls_with_block_length(optimum):
    lam, mu, M, trials = optimum[0].rho_star, 1.0, 16, 600

    # clause 1: decoder-side idle reconstruction is exact on every trial
    recon_ok = True
    rng = np.random.default_rng(4321)
    for n in (50, 200):
        for _ in range(trials):
            book = Codebook(M, int(rng.integers(0, 2**63)), Exponential(lam))
            u = int(rng.integers(1, M + 1))
            trace = simulate(SimConfig(arrival=encode(book, u),
                                       service=Exponential(mu), n=n,
                                       seed=int(rng.integers(0, 2**63))))
            if not np.array_equal(idle_path(book, u, trace.inter_departures),
                                  trace.idle_times):
                recon_ok = False

    # clause 2: error rate strictly falls from n=50 to n=200, at 95% confidence
    rows = decode_rate_experiment([M], lam, mu, [50, 200], trials=trials,
                                  seed=4321, threads=4)
    e50, e200 = rows[0]["errors"], rows[1]["errors"]
    table = [[e50, trials - e50], [e200, trials - e200]]
    p = fisher_exact(table, alternative="greater")[1]
    significant = e200 < e50 and p < 0.05

    _report("A9", recon_ok and significant,
            f"idle reconstruction exact on {2 * trials} trials: {recon_ok}; "
            f"errors {e50}/{trials} at n=50 vs {e200}/{trials} at n=200, "
            f"one-sided p={p:.3f} (want <0.05). Both counts are zero because "
            f"log(M)/T_n is only ~5% and ~1.3% of the achievable rate at "
            f"these block lengths, so no ordering can be significant.")
