"""One channel, three views: the queue simulator, the regenerative sampler
of `info_density_trial` and each service law's own departure law describe
the same inter-departure process.

Under Poisson(lam) arrivals the idle time before each admission is
Exp(lam) whatever the service, and each inter-departure after the zeroth
is D = W + S.  So `simulate`'s idle times must pass a KS test against
Exp(lam), its inter-departures must score the law's `departure_entropy`
under its `departure_log_pdf`, and the information-density mean must match
`cas_bound`.  Each statistic is bounded at 4.5 standard errors (or a KS
p-value of 1e-5), so that a false failure is rare; the seeds are fixed.
"""

import math

import numpy as np
import pytest
from scipy import stats

from timingq import (Erlang, Exponential, SimConfig, Uniform, cas_bound,
                     info_density_report, simulate)

SEEDS = (101, 102, 103)
N = 50_000  # departures per simulated trace
Z_MAX = 4.5


@pytest.mark.parametrize("lam", [0.3, 1.0, 3.0])
@pytest.mark.parametrize("law", [Exponential(1.0), Uniform(0.0, 2.0),
                                 Erlang(2, 2.0), Erlang(10, 10.0)], ids=repr)
def test_simulator_sampler_and_departure_law_agree(law, lam):
    traces = [simulate(SimConfig(arrival=Exponential(lam), service=law, n=N, seed=s))
              for s in SEEDS]

    idles = np.concatenate([t.idle_times for t in traces])
    assert stats.kstest(idles, "expon", args=(0.0, 1.0 / lam)).pvalue > 1e-5

    # the zeroth departure is a service alone, with no idle time before it
    d = np.concatenate([t.inter_departures[1:] for t in traces])
    score = -law.departure_log_pdf(lam, d)
    z = (score.mean() - law.departure_entropy(lam)) / (
        score.std(ddof=1) / math.sqrt(score.size))
    assert abs(z) <= Z_MAX, z

    report = info_density_report(lam, law, n=20_000, trials=16)
    assert report.failed_trials == 0
    assert abs(report.mean - cas_bound(lam, law)) <= Z_MAX * report.stderr, (
        report.mean, report.stderr)
