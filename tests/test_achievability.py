import math

import numpy as np
import pytest
from scipy.stats import binom, fisher_exact

from conftest import RHO_STAR
from oracles import dt_bound
from timingq import (
    Deterministic,
    Erlang,
    Exponential,
    InfoDensityReport,
    decode_rate_experiment,
    empirical_liminf,
    expected_decode_time,
    info_density_report,
    info_density_trial,
    rate_R,
)
from timingq.achievability import liminf_csv

LAM = RHO_STAR
RATE = rate_R(LAM, 1.0)


def significantly_greater(errors_a, errors_b, trials):
    """One-sided Fisher exact test that error count a exceeds b."""
    table = [[errors_a, trials - errors_a], [errors_b, trials - errors_b]]
    return fisher_exact(table, alternative="greater")[1] < 0.05


# ------------------------------------------------------- information density

def test_single_trial_tracks_rate_at_large_n():
    rng = np.random.default_rng(404)
    val = info_density_trial(LAM, Exponential(1.0), 10**5, rng)
    assert abs(val - RATE) / RATE < 0.02


def test_report_mean_and_spread():
    rep = info_density_report(LAM, Exponential(1.0), n=10_000, trials=50,
                              seed=31, threads=4)
    assert rep.failed_trials == 0
    assert abs(rep.mean - RATE) < max(3 * rep.stderr, 1e-3)
    assert 0.0 <= rep.tail_fraction <= 1.0


def test_unnormalized_mean_matches_entropy_gap():
    # before dividing by the expected decode time, the mean over trials is
    # n times the gap between departure and service entropies (in nats)
    n, trials = 2000, 60
    rep = info_density_report(LAM, Exponential(1.0), n=n, trials=trials,
                              seed=31, threads=4)
    tn = expected_decode_time(LAM, Exponential(1.0), n)
    unnorm = rep.densities * tn
    expect = n * (rate_R(LAM, 1.0) * (1.0 / LAM + 1.0))
    z = (unnorm.mean() - expect) / (unnorm.std(ddof=1) / math.sqrt(trials))
    assert abs(z) < 3.0


def test_spread_shrinks_like_root_n():
    reps = empirical_liminf(LAM, Exponential(1.0), [10**3, 10**4, 10**5],
                            trials=100, target=RATE, gamma=0.05 * RATE,
                            seed=9001, threads=4)
    sds = [r.stderr * math.sqrt(r.trials) for r in reps]
    # each decade of n should shrink the per-trial sd by about sqrt(10)
    assert 2.0 < sds[0] / sds[1] < 5.0
    assert 2.0 < sds[1] / sds[2] < 5.0


def test_tail_fractions_decay():
    reps = empirical_liminf(LAM, Exponential(1.0), [300, 3000, 30000],
                            trials=80, target=RATE, gamma=0.05 * RATE,
                            seed=2024, threads=4)
    tails = [r.tail_fraction for r in reps]
    assert tails[0] > tails[-1]
    assert all(a >= b for a, b in zip(tails, tails[1:]))
    assert tails[-1] < 0.01


def test_overambitious_target_fails():
    reps = empirical_liminf(LAM, Exponential(1.0), [2000, 8000], trials=40,
                            target=1.5 * RATE, gamma=0.05 * RATE,
                            seed=88, threads=4)
    assert reps[-1].tail_fraction == 1.0


def test_huge_slack_makes_tail_trivially_zero():
    reps = empirical_liminf(LAM, Exponential(1.0), [500], trials=30,
                            target=RATE, gamma=2.0 * RATE, seed=3)
    assert reps[0].tail_fraction == 0.0


def test_point_mass_service_density_diverges():
    # a noiseless channel: the log service density is +inf on every draw
    rep = info_density_report(LAM, Deterministic(1.0), n=200, trials=10,
                              seed=606)
    assert rep.mean == math.inf
    assert rep.stderr == 0.0
    assert rep.tail_fraction == 0.0


def _report(densities):
    return InfoDensityReport(lam=LAM, mu=1.0, service_kind="Exponential", n=10,
                             trials=3, target=RATE, gamma=0.05 * RATE,
                             densities=np.asarray(densities, dtype=float))


def test_report_summaries_of_few_or_no_survivors():
    none = _report([])
    assert all(math.isnan(v) for v in (none.mean, none.stderr, none.tail_fraction))
    one = _report([0.5])
    assert (one.mean, one.stderr, one.tail_fraction) == (0.5, 0.0, 0.0)


@pytest.mark.parametrize("summary", ["mean", "stderr", "tail_fraction"])
def test_report_computes_its_summaries_itself(summary):
    # the summaries come from the densities alone, so none is an argument
    with pytest.raises(TypeError, match=summary):
        InfoDensityReport(lam=LAM, mu=1.0, service_kind="Exponential", n=10,
                          trials=3, target=RATE, gamma=0.05 * RATE,
                          densities=np.array([0.5]), **{summary: 0.5})


def test_report_stderr_is_scale_exact():
    # the stderr is taken on values scaled by a power of two: bit for bit
    # the unscaled result where that is finite, and finite where it is not
    rng = np.random.default_rng(8)
    for values in (rng.normal(0.3, 0.05, 40), rng.normal(-2.0, 7.0, 5), [1.0, 3.0]):
        ref = float(np.std(values, ddof=1)) / math.sqrt(len(values))
        assert _report(values).stderr == ref
    huge = _report([8e249, 9e249, 7.5e249]).stderr
    assert huge == pytest.approx(_report([8.0, 9.0, 7.5]).stderr * 1e249, rel=1e-12)


def test_general_service_beats_exponential_rate():
    # quick single-service version of the full ordering experiment
    rep = info_density_report(LAM, Erlang(2, 2.0), n=5000, trials=12,
                              seed=61, threads=4)
    assert rep.failed_trials == 0
    assert rep.mean >= RATE - 3 * rep.stderr


def test_report_thread_count_does_not_change_numbers():
    one = info_density_report(LAM, Exponential(1.0), n=800, trials=16,
                              seed=5, threads=1)
    four = info_density_report(LAM, Exponential(1.0), n=800, trials=16,
                               seed=5, threads=4)
    assert np.array_equal(one.densities, four.densities)


def test_liminf_validation():
    with pytest.raises(ValueError):
        empirical_liminf(LAM, Exponential(1.0), [100, 100], trials=5,
                         target=RATE, gamma=0.01)
    with pytest.raises(ValueError):
        empirical_liminf(LAM, Exponential(1.0), [100, 50], trials=5,
                         target=RATE, gamma=0.01)
    with pytest.raises(ValueError):
        empirical_liminf(LAM, Exponential(1.0), [100], trials=5,
                         target=RATE, gamma=0.0)


def test_liminf_csv_shape():
    reps = empirical_liminf(LAM, Exponential(1.0), [200, 400], trials=8,
                            target=RATE, gamma=0.05 * RATE, seed=14)
    text = liminf_csv(reps, config={"seed": 14})
    lines = text.strip().split("\n")
    assert lines[0].startswith("#")
    assert lines[1] == "n,mean,stderr,tail_fraction"
    assert len(lines) == 4


# --------------------------------------------------------- decode experiments

def test_single_message_never_errs():
    rows = decode_rate_experiment([1], LAM, 1.0, [5], trials=40, seed=2)
    assert rows[0]["errors"] == 0
    assert rows[0]["error_rate"] == 0.0


def test_errors_fall_with_block_length():
    rows = decode_rate_experiment([16], LAM, 1.0, [2, 5, 10], trials=800,
                                  seed=1234, threads=4)
    errs = [r["errors"] for r in rows]
    assert errs == [332, 56, 2]
    assert significantly_greater(errs[0], errs[2], 800)
    assert significantly_greater(errs[0], errs[1], 800)


def test_errors_fall_at_constant_operating_rate():
    # message counts chosen so log(M)/T_n sits at half the rate peak
    Ms, ns = [29, 245, 2069], [6, 10, 14]
    rows = decode_rate_experiment(Ms, LAM, 1.0, ns, trials=500, seed=777,
                                  threads=4)
    rates = [r["operating_rate"] for r in rows]
    for rate in rates:
        assert rate == pytest.approx(0.5 * RATE, rel=0.02)
    errs = [r["errors"] for r in rows]
    assert errs[0] > errs[1] > errs[2]
    assert significantly_greater(errs[0], errs[2], 500)


def test_errors_grow_with_message_count():
    rows = decode_rate_experiment([4, 64, 1024], LAM, 1.0, [8], trials=700,
                                  seed=555, threads=4)
    errs = [r["errors"] for r in rows]
    assert errs[0] < errs[1] < errs[2]
    assert significantly_greater(errs[1], errs[0], 700)
    assert significantly_greater(errs[2], errs[1], 700)


@pytest.mark.parametrize("M, ns, trials", [(16, [2, 5, 10], 500), (256, [5, 10], 200)])
def test_decode_errors_stay_under_the_dependence_testing_bound(M, ns, trials):
    # each trial draws a fresh codebook of independent Poisson codewords, and
    # the ML decoder does at least as well as the DT threshold decoder on
    # every codebook, so its error averaged over codebooks is at most the DT
    # bound: the count may pass trials * bound only by a one-sided binomial
    # margin (at 1e-6), with the bound raised by 4 Monte Carlo stderrs.  The
    # cells are those with visible errors at lam = 0.456, mu = 1
    rows = decode_rate_experiment([M], LAM, 1.0, ns, trials=trials)
    for row, n in zip(rows, ns):
        dt, se = dt_bound(LAM, Exponential(1.0), M, n, samples=20000, seed=1)
        limit = binom.isf(1e-6, trials, min(1.0, dt + 4.0 * se))
        assert row["errors"] <= limit, (M, n, row["errors"], dt, limit)


def test_decode_rows_report_shape():
    rows = decode_rate_experiment([4], LAM, 1.0, [3], trials=10, seed=9)
    row = rows[0]
    assert set(row) == {"M", "n", "trials", "errors", "error_rate",
                        "operating_rate"}
    assert row["error_rate"] == row["errors"] / row["trials"]
    assert row["operating_rate"] == pytest.approx(
        math.log(4) / expected_decode_time(LAM, Exponential(1.0), 3))


def test_decode_thread_count_does_not_change_numbers():
    a = decode_rate_experiment([8], LAM, 1.0, [4], trials=60, seed=41, threads=1)
    b = decode_rate_experiment([8], LAM, 1.0, [4], trials=60, seed=41, threads=3)
    assert a == b


def test_schedule_broadcasting():
    rows = decode_rate_experiment([16], LAM, 1.0, [2, 4], trials=5, seed=1)
    assert [(r["M"], r["n"]) for r in rows] == [(16, 2), (16, 4)]
    rows = decode_rate_experiment([4, 8], LAM, 1.0, [3], trials=5, seed=1)
    assert [(r["M"], r["n"]) for r in rows] == [(4, 3), (8, 3)]
    with pytest.raises(ValueError):
        decode_rate_experiment([4, 8, 16], LAM, 1.0, [3, 5], trials=5, seed=1)
