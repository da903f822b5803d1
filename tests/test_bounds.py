import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import RATE_STAR, RHO_STAR, UNIVERSAL_STAR
from oracles import g_rho, hypoexp_entropy_rewritten, scan_maximize_rate
from timingq import (
    Deterministic,
    Erlang,
    Exponential,
    Uniform,
    c_upper,
    cas_bound,
    hypoexp_entropy,
    maximize_rate,
    per_service_time,
    rate_R,
    sweep,
    universal_bound,
    universal_bound_at,
)


# ------------------------------------------------------------------ rate

def test_rate_vanishes_in_idle_limit():
    assert rate_R(1e-6, 1.0) < 1e-4
    assert rate_R(1e-4, 1.0) < 2e-3


def test_rate_vanishes_in_saturation_limit():
    vals = [rate_R(lam, 1.0) for lam in (10.0, 100.0, 1000.0)]
    assert vals[0] > vals[1] > vals[2]
    assert vals[2] < 0.01


def test_rate_peak_value_pinned():
    assert rate_R(RHO_STAR, 1.0) == pytest.approx(RATE_STAR, abs=1e-9)


def test_rate_scale_invariance():
    for c in (0.5, 3.0, 10.0):
        for rho in (0.2, RHO_STAR, 1.0, 4.0):
            a = rate_R(c * rho, c * 1.0) / (c * 1.0)
            b = rate_R(rho, 1.0)
            assert a == pytest.approx(b, abs=1e-6)


def test_rate_numerator_symmetry():
    # the numerator h(D) - 1 is symmetric in the two rates even though the
    # full rate is not; cancel the per-rate log terms and compare
    lam, mu = 0.7, 2.1
    denom = 1.0 / lam + 1.0 / mu
    left = rate_R(lam, mu) * denom - math.log(mu)
    right = rate_R(mu, lam) * denom - math.log(lam)
    assert left == pytest.approx(right, abs=1e-10)


def test_rate_nonnegative_at_extreme_load():
    # the closed-form entropy gain rounds below zero from rho ~ 1e16 on
    for rho in (1e12, 1e16, 1e100, 1e300):
        assert rate_R(rho, 1.0) >= 0.0


def test_rate_rejects_bad_rates():
    with pytest.raises(ValueError):
        rate_R(0.0, 1.0)
    with pytest.raises(ValueError):
        rate_R(1.0, -2.0)


# ------------------------------------------------------- distribution-free

def test_universal_bound_exponential_is_inverse_e():
    svc = Exponential(1.0)
    got = per_service_time(universal_bound(svc), svc)
    assert abs(got - UNIVERSAL_STAR) < 1e-12
    # scale-free: any rate gives the same normalized value
    svc3 = Exponential(3.0)
    assert per_service_time(universal_bound(svc3), svc3) == pytest.approx(
        UNIVERSAL_STAR, abs=1e-12)


def test_universal_bound_wide_uniform():
    # entropy log(2) >= log(1) puts Uniform(0,2) in the low-entropy-free case
    svc = Uniform(0.0, 2.0)
    assert per_service_time(universal_bound(svc), svc) == pytest.approx(0.5, abs=1e-12)


def test_universal_bound_narrow_uniform():
    # width 0.5 around mean 1: entropy log(0.5) < log(1) selects the other case
    svc = Uniform(0.75, 1.25)
    assert universal_bound(svc) == pytest.approx(1.0 + math.log(2.0), abs=1e-12)


def test_universal_bound_rejects_point_mass():
    with pytest.raises(ValueError):
        universal_bound(Deterministic(1.0))


def test_universal_bound_is_envelope_of_arrival_parametrized_curve():
    svc = Exponential(1.0)
    cap = universal_bound(svc)
    grid = np.geomspace(0.01, 50.0, 300)
    vals = [universal_bound_at(lam, svc) for lam in grid]
    assert max(vals) <= cap + 1e-12
    # for exponential service the optimizing arrival rate is 1/(e-1),
    # where the parametrized curve touches the envelope exactly
    touch = universal_bound_at(1.0 / (math.e - 1.0), svc)
    assert touch == pytest.approx(cap, abs=1e-12)


def test_c_upper_closed_points():
    svc = Exponential(1.0)
    assert c_upper(0.0, svc) == pytest.approx(0.0, abs=1e-12)
    assert c_upper(math.e - 1.0, svc) == pytest.approx(1.0, abs=1e-12)


def test_c_upper_monotone_and_concave():
    rng = np.random.default_rng(660)
    services = [Exponential(1.0), Erlang(2, 2.0), Uniform(0.2, 1.8)]
    for svc in services:
        assert c_upper(2.0, svc) > c_upper(1.0, svc)
        for _ in range(20):
            a1, a2 = sorted(rng.uniform(0.0, 8.0, size=2))
            mid = 0.5 * (c_upper(a1, svc) + c_upper(a2, svc))
            assert c_upper(0.5 * (a1 + a2), svc) >= mid - 1e-12


# --------------------------------------------------------- queue-specific

def test_cas_bound_exponential_service_coincides_with_rate():
    # two genuinely different code paths: closed-form two-rate entropy vs
    # the panel quadrature, which Erlang(1, mu), the same law as
    # Exponential(mu), still takes; they must land on the same number
    for lam in (0.2, RHO_STAR, 1.7):
        assert abs(cas_bound(lam, Erlang(1, 1.0)) - rate_R(lam, 1.0)) < 1e-9


def test_cas_bound_point_mass_service_dominates():
    assert cas_bound(0.456, Deterministic(1.0)) == math.inf
    assert math.inf >= rate_R(0.456, 1.0)


def test_cas_bound_erlang_service_above_rate():
    lam = 0.456
    assert cas_bound(lam, Erlang(2, 2.0)) >= rate_R(lam, 1.0)


def test_cas_bound_small_arrival_rate_to_zero():
    vals = [cas_bound(lam, Exponential(1.0)) for lam in (1e-3, 1e-2, 1e-1)]
    assert vals[0] < vals[1] < vals[2]
    assert vals[0] < 0.01


# --------------------------------------------------- reparametrized entropy

def test_g_rho_domain():
    with pytest.raises(ValueError):
        g_rho(1.0)
    with pytest.raises(ValueError):
        g_rho(0.0)
    with pytest.raises(ValueError):
        g_rho(-0.5)


def test_rewritten_entropy_matches_quadrature():
    for rho in (0.1, 0.5, 2.0, 5.0):
        a = hypoexp_entropy_rewritten(rho, 1.0)
        b = hypoexp_entropy(rho, 1.0)
        assert a == pytest.approx(b, abs=1e-6)


def test_rewritten_entropy_scales():
    # the rewritten form must track the direct quadrature off mu = 1 as well
    a = hypoexp_entropy_rewritten(1.2, 3.0)
    b = hypoexp_entropy(1.2, 3.0)
    assert a == pytest.approx(b, abs=1e-6)


def test_bounds_nearly_coincide_at_small_rho():
    """At small arrival rates the two upper bounds pinch together.

    The measured maximum relative gap over rho in (0, 0.2] is 0.0311;
    the threshold below was fixed from that measurement.
    """
    svc = Exponential(1.0)
    gaps = []
    for rho in np.linspace(0.005, 0.2, 40):
        u = universal_bound_at(rho, svc)
        r = rate_R(rho, 1.0)
        gaps.append((u - r) / u)
    assert max(gaps) < 0.04
    assert min(gaps) > 0.0


# ------------------------------------------------------------- curve/sweep

def test_sweep_curve_invariants_and_csv():
    grid = np.linspace(0.1, 3.0, 8)
    curve = sweep(grid, mu=1.0)
    curve.validate()
    assert np.all(curve.rate_R_norm <= curve.universal_norm)
    assert np.all(curve.rate_R_norm >= 0.0)
    assert np.allclose(curve.cas_norm, curve.rate_R_norm, rtol=0, atol=1e-9)
    text = curve.to_csv()
    lines = text.strip().split("\n")
    assert lines[0] == "rho,rate_R_norm,universal_norm,cas_norm"
    assert len(lines) == 1 + grid.size


def test_sweep_without_convolution_column():
    curve = sweep(np.linspace(0.2, 2.0, 5), mu=2.0, include_cas=False)
    assert np.all(np.isnan(curve.cas_norm))
    curve.validate()


def test_sweep_rejects_bad_grid():
    with pytest.raises(ValueError):
        sweep(np.array([0.0, 1.0]), mu=1.0)
    with pytest.raises(ValueError):
        sweep(np.array([]), mu=1.0)


# ---------------------------------------------------------------- optimum

def test_maximize_rate_matches_grid_scan():
    report = maximize_rate(1.0)
    assert report.value == pytest.approx(RATE_STAR, abs=1e-9)
    assert report.rho_star == pytest.approx(RHO_STAR, abs=1e-5)
    assert report.bracket == (0.01, 2.0)
    assert report.tolerance == 1e-6


def test_maximize_rate_respects_bracket():
    report = maximize_rate(1.0, bracket=(0.3, 0.7), tol=1e-5)
    assert 0.3 <= report.rho_star <= 0.7
    assert report.value == pytest.approx(RATE_STAR, abs=1e-8)


def test_maximize_rate_needs_interior_peak():
    for bracket in ((5.0, 9.0), (0.01, 0.4), (0.46, 2.0)):
        with pytest.raises(ValueError, match="no interior maximum"):
            maximize_rate(1.0, bracket=bracket)
    with pytest.raises(ValueError):
        maximize_rate(1.0, bracket=(0.7, 0.3))


def test_maximize_rate_work_grows_with_log_width(monkeypatch):
    # a 0.01-step scan made 223 rate_R calls at the default bracket, and
    # its work and memory grew with the bracket's width
    calls = []

    def counting(lam, mu):
        calls.append(lam)
        return rate_R(lam, mu)

    monkeypatch.setattr("timingq.bounds.rate_R", counting)
    maximize_rate(1.0)
    assert len(calls) < 40
    calls.clear()
    maximize_rate(1.0, bracket=(0.3, 1e300))
    assert len(calls) < 1500


@pytest.mark.parametrize("mu", [1.0, 3.7, 1e-290, 1e290])
def test_normalized_rate_is_strictly_unimodal(mu):
    # what lets one golden-section search serve any bracket: over
    # rho in [1e-9, 1e9] the normalized rate rises strictly to its peak and
    # falls strictly after it (past rho ~ 4.7e11 rounding adds wiggles)
    rho = np.geomspace(1e-9, 1e9, 100_001)
    values = np.array([rate_R(r * mu, mu) / mu for r in rho])
    peak = int(np.argmax(values))
    assert abs(rho[peak] - RHO_STAR) < 1e-3
    assert np.all(np.diff(values[: peak + 1]) > 0)
    assert np.all(np.diff(values[peak:]) < 0)


# Brackets the scan oracle judges rightly: it misses a peak within two grid
# steps of an end, and needs two steps to scan at all
SCAN_MARGIN = 0.02


# at the default tol: a coarser one leaves the value short of the scan's by
# more than 1e-12, and within ~1e-8 of its peak the rate is flat to
# rounding, so no tol pins rho* more finely than that
@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(lo=st.floats(1e-3, 20.0), hi=st.floats(1e-3, 20.0))
@example(lo=0.01, hi=2.0)
@example(lo=0.3, hi=0.6)
@example(lo=0.001, hi=20.0)
@example(lo=0.5, hi=20.0)
def test_maximize_rate_agrees_with_the_scan_oracle(lo, hi):
    tol = 1e-6
    assume(hi - lo > 2 * SCAN_MARGIN)
    assume(min(abs(RHO_STAR - lo), abs(RHO_STAR - hi)) > SCAN_MARGIN)
    try:
        expected = scan_maximize_rate(1.0, (lo, hi), tol)
    except ValueError:
        expected = None
    if expected is None:
        with pytest.raises(ValueError, match="no interior maximum"):
            maximize_rate(1.0, bracket=(lo, hi), tol=tol)
        return
    report = maximize_rate(1.0, bracket=(lo, hi), tol=tol)
    assert abs(report.rho_star - expected[0]) <= tol
    assert report.value >= expected[1] - 1e-12


def test_maximize_rate_rejects_bad_tolerance():
    for tol in (0.0, -1e-6, math.nan, math.inf):
        with pytest.raises(ValueError, match="tol"):
            maximize_rate(1.0, bracket=(0.4, 0.5), tol=tol)


def test_optimum_report_dict():
    report = maximize_rate(1.0, bracket=(0.4, 0.5), tol=1e-4)
    data = report.as_dict()
    assert set(data) == {"rho_star", "value", "bracket", "tolerance"}
    assert data["bracket"] == (0.4, 0.5)
