"""Property tests for the one replay of the admission rule.

The simulator, the decoder-side idle reconstruction and the ML decoder all
ask the same question of an arrival sequence: which arrival is the first
strictly after each departure?  These tests hold the answers to exact
equality:

* `simulate` against the earlier simulator loop, kept here as the oracle:
  an epoch buffer rebuilt by one cumulative sum over the whole gap prefix
  on every 1024-gap extension and searched with `np.searchsorted`;
* `ml_decode` scores against a brute-force score per hypothesis built from
  `idle_path`;
* `ml_decode` peak memory against a bound linear in the block length.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from timingq import (
    ArrivalsExhausted,
    Codebook,
    DecodeFailure,
    Erlang,
    Exponential,
    SimConfig,
    Uniform,
    encode,
    idle_path,
    ml_decode,
    simulate,
)
from timingq.queue_sim import _service_draws

PROPERTY = settings(max_examples=80, deadline=None, derandomize=True,
                    database=None)

FIELDS = ("arrival_epochs", "admitted_indices", "service_times",
          "idle_times", "inter_departures", "departure_epochs")

# Small dyadic durations: sums are exact, so arrivals land exactly on
# departure epochs often enough to exercise the strict inequality.
DYADIC = (0.25, 0.5, 1.0, 1.5, 2.5)


# ------------------------------------------------------------------ oracle

class _PrefixEpochBuffer:
    """The earlier epoch buffer: 1024 gaps per extension, epochs rebuilt by
    one cumulative sum over the whole prefix, searchsorted per departure."""

    def __init__(self, arrival, rng):
        self._law = None
        self._iter = None
        self._rng = rng
        self._exhausted = False
        if callable(getattr(arrival, "sample", None)):
            self._law = arrival
        else:
            self._iter = iter(arrival)
            first = next(self._iter, None)
            if first is None or float(first) != 0.0:
                raise ValueError("explicit arrival gaps must start with 0")
        self._gaps = np.empty(0)
        self.epochs = np.zeros(1)

    def _extend(self):
        if self._law is not None:
            new = self._law.sample(self._rng, size=1024)
        else:
            if self._exhausted:
                return False
            new = np.array(list(itertools.islice(self._iter, 1024)), dtype=float)
            if new.size < 1024:
                self._exhausted = True
            if new.size == 0:
                return False
        if np.any(new <= 0):
            raise ValueError("arrival gaps after the first must be positive")
        self._gaps = np.concatenate([self._gaps, new])
        self.epochs = np.concatenate(([0.0], np.cumsum(self._gaps)))
        return True

    def first_after(self, t):
        while self.epochs[-1] <= t:
            if not self._extend():
                raise ArrivalsExhausted("arrival sequence ended")
        return int(np.searchsorted(self.epochs, t, side="right"))


def _oracle_simulate(config):
    arrival_child, service_child = np.random.SeedSequence(config.seed).spawn(2)
    buf = _PrefixEpochBuffer(config.arrival, np.random.default_rng(arrival_child))
    services = _service_draws(config.service, config.n + 1,
                              np.random.default_rng(service_child))
    admitted = [0]
    idles = np.empty(config.n)
    gaps = np.empty(config.n + 1)
    gaps[0] = services[0]
    t = float(services[0])
    for i in range(1, config.n + 1):
        m = buf.first_after(t)
        idles[i - 1] = buf.epochs[m] - t
        gaps[i] = idles[i - 1] + services[i]
        t += gaps[i]
        admitted.append(m)
    return (buf.epochs[: admitted[-1] + 1], np.asarray(admitted, dtype=np.intp),
            services, idles, gaps, np.cumsum(gaps))


# --------------------------------------------------------------- simulator

def _law(kind, rate):
    if kind == "exp":
        return Exponential(rate)
    if kind == "erlang":
        return Erlang(2, 2.0 * rate)
    return Uniform(0.1 / rate, 1.9 / rate)


# Gap counts after the leading 0 that end exactly where a pull ends: the
# doubling pulls (64, 128, ... up to 1024) and the earlier 1024-gap chunks.
BOUNDARIES = (63, 64, 65, 192, 448, 960, 1024, 1984, 2048, 3008)


@st.composite
def explicit_arrivals(draw):
    count = draw(st.sampled_from(BOUNDARIES) | st.integers(1, 300))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dyadic = draw(st.sampled_from([True, True, False]))
    if dyadic:
        gaps = rng.choice(DYADIC, size=count)
    else:
        gaps = rng.exponential(1.0, size=count) + 1e-3
    seq = [0.0] + gaps.tolist()
    wrap = draw(st.sampled_from(["list", "array", "iterator", "generator",
                                 "codebook"]))
    return seq, wrap, dyadic


def _source(seq, wrap):
    if wrap == "list":
        return list(seq)
    if wrap == "array":
        return np.array(seq)
    if wrap == "iterator":
        return iter(seq)
    if wrap == "generator":
        return (g for g in seq)
    return encode(Codebook.from_sequences([seq]), 1)


@st.composite
def sim_cases(draw):
    seed = draw(st.integers(0, 2**63 - 1))
    arrival_kind = draw(st.sampled_from(["explicit", "explicit", "poisson",
                                         "renewal", "bare", "hashed"]))
    rate = draw(st.floats(0.1, 3.0))
    dyadic = False
    n = draw(st.integers(1, 400))
    if arrival_kind == "explicit":
        seq, wrap, dyadic = draw(explicit_arrivals())
        # a departure takes about two arrivals: long runs exhaust them
        n = draw(st.integers(1, len(seq)) | st.integers(len(seq) // 2, len(seq)))
        arrival = lambda: _source(seq, wrap)
    elif arrival_kind == "poisson":
        arrival = lambda: Exponential(rate)
    elif arrival_kind in ("renewal", "bare"):
        law = _law(draw(st.sampled_from(["exp", "erlang", "uniform"])), rate)
        arrival = lambda: law
    else:
        book = Codebook(3, draw(st.integers(0, 2**63 - 1)), Exponential(rate))
        u = draw(st.integers(1, 3))
        arrival = lambda: encode(book, u)
    if dyadic or draw(st.booleans()):
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        service = rng.choice(DYADIC, size=n + 1)
    else:
        service = _law(draw(st.sampled_from(["exp", "erlang", "uniform"])),
                       draw(st.floats(0.2, 5.0)))
    return lambda: SimConfig(arrival=arrival(), service=service, n=n, seed=seed)


@PROPERTY
@given(sim_cases())
def test_simulate_matches_prefix_sum_oracle(make_config):
    try:
        expected = _oracle_simulate(make_config())
    except ArrivalsExhausted:
        with pytest.raises(ArrivalsExhausted):
            simulate(make_config())
        return
    trace = simulate(make_config())
    trace.validate()
    for name, want in zip(FIELDS, expected):
        got = getattr(trace, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name


def test_simulate_drops_arrival_on_departure_epoch():
    # the arrival at epoch 2.5 lands on the first departure and is dropped
    make = lambda: SimConfig(arrival=[0.0, 1.0, 1.5, 1.0], service=[2.5, 1.0], n=1)
    trace = simulate(make())
    assert np.array_equal(trace.admitted_indices, [0, 3])
    assert np.array_equal(trace.idle_times, [1.0])
    for name, want in zip(FIELDS, _oracle_simulate(make())):
        assert np.array_equal(getattr(trace, name), want), name


@pytest.mark.parametrize("count", BOUNDARIES)
def test_sequence_ending_at_pull_boundary(count):
    # the last gap is the last one of a pull: the next pull comes back
    # empty, and the run either fits or reports exhaustion like the oracle
    seq = [0.0] + [1.0] * count
    for n in (count // 2 - 1, count // 2, count // 2 + 1):
        if n < 1:
            continue
        make = lambda: SimConfig(arrival=iter(seq), service=[1.5] * (n + 1), n=n)
        try:
            expected = _oracle_simulate(make())
        except ArrivalsExhausted:
            with pytest.raises(ArrivalsExhausted):
                simulate(make())
            continue
        trace = simulate(make())
        for name, want in zip(FIELDS, expected):
            assert np.array_equal(getattr(trace, name), want), name


# ----------------------------------------------------------------- decoder

def _brute_scores(book, d, service):
    scores = np.full(book.M, -np.inf)
    for u in range(1, book.M + 1):
        implied = d[1:] - idle_path(book, u, d)
        if np.all(implied > 0):
            scores[u - 1] = np.sum(service.log_pdf(implied))
    return scores


def _assert_scores_match(book, d, service):
    expected = _brute_scores(book, d, service)
    try:
        result = ml_decode(book, d, service)
    except DecodeFailure:
        assert np.all(expected == -np.inf)
        return
    assert np.array_equal(result.scores, expected)
    best = int(np.argmax(expected))
    assert result.chosen == best + 1
    assert result.ties_broken == (int(np.sum(expected == expected[best])) > 1)


@PROPERTY
@given(M=st.integers(1, 24), seed=st.integers(0, 2**63 - 1),
       lam=st.floats(0.2, 2.0), n=st.integers(1, 80),
       sim_seed=st.integers(0, 2**63 - 1),
       kind=st.sampled_from(["exp", "erlang", "uniform"]),
       data=st.data())
def test_ml_decode_scores_equal_brute_force_on_hashed_codebooks(
        M, seed, lam, n, sim_seed, kind, data):
    book = Codebook(M, seed, Exponential(lam))
    u = data.draw(st.integers(1, M))
    service = _law(kind, 1.0)
    trace = simulate(SimConfig(arrival=encode(book, u), service=service,
                               n=n, seed=sim_seed))
    _assert_scores_match(book, trace.inter_departures, service)


@PROPERTY
@given(words=st.lists(st.lists(st.sampled_from(DYADIC), max_size=12),
                      min_size=1, max_size=6),
       d=st.lists(st.sampled_from((0.0,) + DYADIC + (3.0,)),
                  min_size=2, max_size=10),
       kind=st.sampled_from(["exp", "uniform"]))
@example(words=[[1.0, 1.0, 1.0], [2.0]], d=[2.5, 1.5], kind="exp")
@example(words=[[100.0], [0.5]], d=[1.0, 0.5], kind="uniform")
def test_ml_decode_scores_equal_brute_force_on_ragged_codebooks(words, d, kind):
    book = Codebook.from_sequences([[0.0] + w for w in words])
    service = Exponential(1.0) if kind == "exp" else Uniform(0.25, 2.0)
    _assert_scores_match(book, np.array(d), service)


@pytest.mark.parametrize("d", [[1.0, -0.5, 2.0], [1.0, 2.0, -1.0],
                               [1.0, math.nan, 2.0]])
def test_nonpositive_or_nan_gap_eliminates_every_hypothesis(d):
    book = Codebook(4, 3, Exponential(1.0))
    with pytest.raises(DecodeFailure):
        ml_decode(book, d, Exponential(1.0))


@pytest.mark.parametrize("n, limit_mib", [(2000, 8), (20000, 64)])
def test_ml_decode_memory_is_linear_in_block_length(n, limit_mib):
    service = Exponential(1.0)
    book = Codebook(16, 2024, Exponential(0.456))
    trace = simulate(SimConfig(arrival=encode(book, 5), service=service,
                               n=n, seed=11))
    fresh = Codebook(16, 2024, Exponential(0.456))  # epoch matrix not cached
    tracemalloc.start()
    try:
        result = ml_decode(fresh, trace.inter_departures, service)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result.chosen == 5
    assert peak < limit_mib * 2**20
