import math

import numpy as np
import pytest
from scipy import stats

from timingq import (
    ArrivalsExhausted,
    Exponential,
    SimConfig,
    admitted_indices,
    expected_decode_time,
    simulate,
    trace_csv,
)

HAND_GAPS = [0.0, 1.0, 1.0, 1.0]
HAND_SERVICES = [2.5, 1.0]


def test_hand_trace_four_arrivals():
    trace = simulate(SimConfig(arrival=HAND_GAPS, service=HAND_SERVICES, n=1))
    assert np.array_equal(trace.admitted_indices, [0, 3])
    assert np.array_equal(trace.idle_times, [0.5])
    assert np.array_equal(trace.inter_departures, [2.5, 1.5])
    assert np.array_equal(trace.departure_epochs, [2.5, 4.0])
    assert np.array_equal(trace.arrival_epochs[:4], [0.0, 1.0, 2.0, 3.0])


def test_hand_trace_sparse_arrivals():
    # single later arrival at epoch 10: admitted immediately, idle 7.5
    trace = simulate(SimConfig(arrival=[0.0, 10.0], service=[2.5, 1.0], n=1))
    assert np.array_equal(trace.admitted_indices, [0, 1])
    assert np.array_equal(trace.idle_times, [7.5])
    assert np.array_equal(trace.inter_departures, [2.5, 8.5])


def test_exhausted_arrival_sequence_raises():
    with pytest.raises(ArrivalsExhausted):
        simulate(SimConfig(arrival=[0.0, 1.0], service=[2.5, 1.0], n=1))


def test_admitted_indices_hand_cases():
    got = admitted_indices([0.0, 1.0, 2.0, 3.0], [2.5, 4.0])
    assert np.array_equal(got, [0, 3])
    # a single arrival: nothing beyond the first departure can be resolved
    assert np.array_equal(admitted_indices([0.0], [2.5]), [0])


def test_arrival_on_departure_epoch_is_dropped():
    # strict inequality: the arrival at exactly 2.5 must not be admitted
    got = admitted_indices([0.0, 2.5, 3.0], [2.5])
    assert np.array_equal(got, [0, 2])


def test_admitted_prefix_stops_at_unresolved_tail():
    # second departure at 4.0 has no later arrival available, so only k_0, k_1
    got = admitted_indices([0.0, 1.0, 3.0], [2.5, 4.0, 9.0])
    assert np.array_equal(got, [0, 2])


def test_idle_recompute_from_epochs_is_exact():
    cfg = SimConfig(arrival=Exponential(0.8), service=Exponential(1.2),
                    n=500, seed=7)
    trace = simulate(cfg)
    k = trace.admitted_indices
    recomputed = trace.arrival_epochs[k[1:]] - trace.departure_epochs[:-1]
    assert np.array_equal(recomputed, trace.idle_times)


def test_validate_catches_corruption():
    trace = simulate(SimConfig(arrival=Exponential(1.0),
                               service=Exponential(1.0), n=50, seed=3))
    trace.validate()
    trace.idle_times[10] += 1e-9
    with pytest.raises(ValueError):
        trace.validate()


def test_validate_catches_bad_admission():
    trace = simulate(SimConfig(arrival=Exponential(1.0),
                               service=Exponential(1.0), n=50, seed=4))
    trace.admitted_indices[5] += 1
    with pytest.raises(ValueError):
        trace.validate()


def test_same_seed_same_trace():
    cfg = lambda s: SimConfig(arrival=Exponential(0.5),
                              service=Exponential(1.0), n=200, seed=s)
    a, b = simulate(cfg(11)), simulate(cfg(11))
    assert np.array_equal(a.inter_departures, b.inter_departures)
    assert np.array_equal(a.arrival_epochs, b.arrival_epochs)
    c = simulate(cfg(12))
    assert not np.array_equal(a.inter_departures, c.inter_departures)


def test_idle_times_are_exponential_and_independent_of_service():
    """Renewal structure under memoryless arrivals.

    With Poisson(lam) arrivals the idle stretch after each departure is
    again exponential(lam) and carries no information about the service
    draw that follows it. Checked with a KS statistic against the 1%
    critical value and a plain sample correlation.
    """
    lam, mu, n = 0.7, 1.3, 10**5
    trace = simulate(SimConfig(arrival=Exponential(lam),
                               service=Exponential(mu), n=n, seed=42))
    w = trace.idle_times
    ks = stats.kstest(w, "expon", args=(0.0, 1.0 / lam)).statistic
    assert ks < 1.63 / math.sqrt(n)  # 1% critical value, large-sample form
    corr = np.corrcoef(w, trace.service_times[1:])[0, 1]
    assert abs(corr) < 0.01


def test_mean_total_decode_time_matches_formula():
    lam, mu, n, trials = 0.9, 1.1, 400, 200
    service = Exponential(mu)
    finals = np.array([
        simulate(SimConfig(arrival=Exponential(lam), service=service,
                           n=n, seed=10_000 + t)).departure_epochs[-1]
        for t in range(trials)
    ])
    expect = expected_decode_time(lam, service, n)
    z = (finals.mean() - expect) / (finals.std(ddof=1) / math.sqrt(trials))
    assert abs(z) < 3.0


def test_expected_decode_time_formula():
    got = expected_decode_time(2.0, Exponential(4.0), 10)
    assert got == pytest.approx(0.25 + 10 * (0.5 + 0.25), abs=1e-15)


def test_trace_csv_golden():
    trace = simulate(SimConfig(arrival=HAND_GAPS, service=HAND_SERVICES, n=1))
    expected = (
        "i,k_i,S_i,W_{i-1},D_i,departure_epoch\n"
        "0,0,2.5,,2.5,2.5\n"
        "1,3,1.0,0.5,1.5,4.0\n"
    )
    assert trace_csv(trace) == expected
    with_header = trace_csv(trace, config={"n": 1, "seed": 0})
    assert with_header == '# {"n": 1, "seed": 0}\n' + expected


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(arrival=Exponential(1.0), service=Exponential(1.0), n=0)
    with pytest.raises(ValueError):
        # explicit arrival gaps must start at 0 (first packet defines time 0)
        simulate(SimConfig(arrival=[1.0, 1.0], service=[2.5, 1.0], n=1))
    with pytest.raises(ValueError):
        # service sequence shorter than n+1
        simulate(SimConfig(arrival=HAND_GAPS, service=[2.5], n=1))
    with pytest.raises(ValueError):
        simulate(SimConfig(arrival=HAND_GAPS, service=[2.5, -1.0], n=1))
