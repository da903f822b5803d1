import itertools
import math

import numpy as np
import pytest

from timingq import (
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
from timingq.coding import _idle_times
from timingq.queue_sim import _extend_epochs


def take(stream, count):
    return list(itertools.islice(stream, count))


# ---------------------------------------------------------------- codebook

def test_single_message_stream_matches_codeword():
    book = Codebook(M=1, seed=900, inter_arrival=Exponential(1.0))
    got = np.array(take(encode(book, 1), 9))
    assert got[0] == 0.0
    assert np.array_equal(got[1:], book.gaps(1, 1, 9))


def test_same_seed_same_stream():
    a = take(encode(Codebook(2, 55, Exponential(0.5)), 2), 40)
    b = take(encode(Codebook(2, 55, Exponential(0.5)), 2), 40)
    assert a == b


def test_distinct_messages_differ_within_first_hundred():
    book = Codebook(M=40, seed=7, inter_arrival=Exponential(1.0))
    words = [book.gaps(u, 1, 101) for u in range(1, 41)]
    for i in range(40):
        for j in range(i + 1, 40):
            assert np.max(np.abs(words[i] - words[j])) > 0.0


def test_codeword_shape_invariants():
    book = Codebook(M=5, seed=1, inter_arrival=Exponential(2.0))
    for u in (1, 3, 5):
        ep = book.epoch_matrix(50.0)[u - 1]
        assert ep[0] == 0.0
        assert np.all(np.diff(ep) > 0.0)
        assert ep[-1] > 50.0


def test_epoch_prefix_stable_under_lazy_extension():
    book = Codebook(M=2, seed=31, inter_arrival=Exponential(1.0))
    short = book.epoch_matrix(5.0)[0].copy()
    long = book.epoch_matrix(500.0)[0]
    assert np.array_equal(long[: short.size], short)


LAWS = [Exponential(1.0), Erlang(2, 2.0), Uniform(0.5, 1.5)]


@pytest.mark.parametrize("law", LAWS)
def test_epoch_matrix_rows_accumulate_the_encoded_gaps(law):
    # the decoder's matrix against the sender's stream, built independently:
    # each row must be the accumulate of what `encode` yields, bit for bit,
    # on both sides of the 65 / 129 / 257 column extensions
    book = Codebook(M=3, seed=17, inter_arrival=law)
    for beyond, width in ((10.0, 65), (100.0, 129), (200.0, 257), (400.0, 513)):
        mat = book.epoch_matrix(beyond)
        assert mat.shape == (3, width)
        assert np.all(mat[:, -1] > beyond)
        for u in (1, 2, 3):
            sent = np.array(take(encode(book, u), width))
            assert np.array_equal(mat[u - 1], _extend_epochs(0.0, sent))


@pytest.mark.parametrize("law", LAWS)
def test_stepwise_extension_matches_one_call(law):
    stepwise = Codebook(M=4, seed=3, inter_arrival=law)
    for beyond in (5.0, 70.0, 300.0):
        stepwise.epoch_matrix(beyond)
    once = Codebook(M=4, seed=3, inter_arrival=law).epoch_matrix(300.0)
    assert np.array_equal(stepwise.epoch_matrix(300.0), once)


def test_explicit_epoch_matrix_is_padded_cumsum():
    words = [[0.0, 1.0, 0.5, 2.0], [0.0, 3.0], [0.0]]
    book = Codebook.from_sequences(words)
    mat = book.epoch_matrix(1e9)
    assert mat.shape == (3, 4)
    for u, word in enumerate(words, 1):
        row = np.full(4, np.inf)
        row[: len(word)] = np.cumsum(word)
        assert np.array_equal(mat[u - 1], row)


def test_explicit_codebook_validation():
    with pytest.raises(ValueError):
        Codebook.from_sequences([[1.0, 1.0]])  # must start at 0
    with pytest.raises(ValueError):
        Codebook.from_sequences([[0.0, 1.0, -0.5]])
    with pytest.raises(ValueError):
        Codebook.from_sequences([[0.0, 1.0, float("nan")]])
    with pytest.raises(ValueError):
        Codebook(M=0, seed=1, inter_arrival=Exponential(1.0))
    # a hashed codebook inverts its law's CDF: a bare rate is not a law
    for bad in (1.0, None, [0.0, 1.0]):
        with pytest.raises(TypeError, match="inter_arrival"):
            Codebook(M=2, seed=1, inter_arrival=bad)


def test_message_out_of_range():
    book = Codebook(M=3, seed=1, inter_arrival=Exponential(1.0))
    with pytest.raises(ValueError):
        take(encode(book, 0), 1)
    with pytest.raises(ValueError):
        take(encode(book, 4), 1)


# ------------------------------------------------------- idle reconstruction

def test_idle_path_hand_trace():
    book = Codebook.from_sequences([[0.0, 1.0, 1.0, 1.0]])
    assert idle_path(book, 1, [2.5, 1.0]).tolist() == [0.5]


def test_idle_path_small_departure():
    # departure before the first codeword arrival: w_0 = A_1 - d_0
    book = Codebook.from_sequences([[0.0, 4.0, 1.0]])
    assert idle_path(book, 1, [2.5, 1.0]).tolist() == [1.5]


def test_idle_path_reads_the_padding_of_a_short_row_as_its_end():
    # row 2 is [0, 2, inf, inf]: past its last arrival, every idle is inf,
    # as over the stripped row [0, 2]; row 1 runs out only after 3
    book = Codebook.from_sequences([[0.0, 1.0, 1.0, 1.0], [0.0, 2.0]])
    d = [2.5, 1.0, 1.0]
    assert np.isinf(book.epoch_matrix(3.5)[1, 2])
    assert idle_path(book, 1, d).tolist() == [0.5, math.inf]
    assert idle_path(book, 2, d).tolist() == [math.inf, math.inf]
    t = np.cumsum(d)[:-1]
    assert np.array_equal(idle_path(book, 2, d), _idle_times(np.array([0.0, 2.0]), t))
    # a departure before the short row ends still finds its arrival
    assert idle_path(book, 2, [1.5, 1.0]).tolist() == [0.5]


def test_idle_path_checks_its_inputs():
    book = Codebook.from_sequences([[0.0, 1.0]])
    for u in (0, 2):
        with pytest.raises(ValueError, match="message index"):
            idle_path(book, u, [1.0, 1.0])
    with pytest.raises(ValueError, match="nonnegative"):
        idle_path(book, 1, [1.0, -1.0])
    # no departure past the zeroth: no idle time to replay
    assert idle_path(book, 1, [2.5]).size == 0


def test_true_message_idles_reproduced_exactly():
    """Decoder-side idle reconstruction is bitwise, not approximate.

    The decoder rebuilds w_{i-1} from the hypothesized codeword and the
    observed departures alone. For the transmitted message that
    reconstruction retraces the simulator's own arithmetic, so the floats
    must come out identical, far beyond any tolerance.
    """
    for seed in (1, 2, 3, 4, 5):
        rng = np.random.default_rng(seed)
        book = Codebook(M=8, seed=int(rng.integers(0, 2**63)),
                        inter_arrival=Exponential(0.456))
        u = int(rng.integers(1, 9))
        trace = simulate(SimConfig(arrival=encode(book, u),
                                   service=Exponential(1.0),
                                   n=200, seed=int(rng.integers(0, 2**63))))
        d = trace.inter_departures
        path = idle_path(book, u, d)
        assert np.array_equal(path, trace.idle_times)
        # a prefix of the departures replays the same idles, however far
        # the epoch matrix has been extended by then
        for i in (1, 57, 130, 200):
            assert np.array_equal(idle_path(book, u, d[:i + 1]),
                                  trace.idle_times[:i])


# ---------------------------------------------------------------- decoding

def test_single_hypothesis_always_chosen():
    book = Codebook(M=1, seed=44, inter_arrival=Exponential(1.0))
    trace = simulate(SimConfig(arrival=encode(book, 1),
                               service=Exponential(1.0), n=20, seed=9))
    result = ml_decode(book, trace.inter_departures, Exponential(1.0))
    assert result.chosen == 1
    assert not result.ties_broken


def test_noiseless_separation_recovers_message():
    # near-deterministic service and two well-separated codewords: the wrong
    # hypothesis implies a service time far outside the narrow support
    service = Uniform(0.99, 1.01)
    book = Codebook.from_sequences([[0.0, 5.0], [0.0, 9.0]])
    # transmit u=1: departures 1.0 then idle 4.0 + service 1.0
    r1 = ml_decode(book, [1.0, 5.0], service)
    assert r1.chosen == 1
    # transmit u=2: idle 8.0 after the first departure
    r2 = ml_decode(book, [1.0, 9.0], service)
    assert r2.chosen == 2
    assert r1.scores[1] == -math.inf
    assert r2.scores[0] == -math.inf


def test_true_score_is_service_log_density_sum():
    rng = np.random.default_rng(210)
    service = Exponential(1.0)
    book = Codebook(M=4, seed=77, inter_arrival=Exponential(0.5))
    u = 3
    trace = simulate(SimConfig(arrival=encode(book, u), service=service,
                               n=60, seed=8128))
    result = ml_decode(book, trace.inter_departures, service)
    expected = float(np.sum(service.log_pdf(trace.service_times[1:])))
    assert result.scores[u - 1] == pytest.approx(expected, abs=1e-10)


def test_tie_breaking_smallest_index():
    word = [0.0, 1.0, 1.0, 1.0]
    book = Codebook.from_sequences([word, word])
    result = ml_decode(book, [2.5, 1.5], Exponential(1.0))
    assert result.chosen == 1
    assert result.ties_broken
    assert result.scores[0] == result.scores[1]


def test_all_hypotheses_eliminated_raises():
    book = Codebook.from_sequences([[0.0, 100.0], [0.0, 0.5]])
    # d_1 = 0.5 implies a negative service under u=1 (idle 99) and the u=2
    # codeword is exhausted before any epoch can exceed d_0
    with pytest.raises(DecodeFailure):
        ml_decode(book, [1.0, 0.5], Uniform(0.4, 0.6))


def test_ragged_explicit_codebook_decodes():
    book = Codebook.from_sequences([[0.0, 1.0, 1.0, 1.0], [0.0, 2.0]])
    result = ml_decode(book, [2.5, 1.5], Exponential(1.0))
    assert result.chosen in (1, 2)
    assert len(result.scores) == 2


def test_roundtrip_over_random_codebooks():
    # short blocks, tiny noise: every trial must decode to the sent message
    service = Uniform(0.95, 1.05)
    errors = 0
    for t in range(20):
        rng = np.random.default_rng(3000 + t)
        book = Codebook(M=6, seed=int(rng.integers(0, 2**63)),
                        inter_arrival=Exponential(0.4))
        u = int(rng.integers(1, 7))
        trace = simulate(SimConfig(arrival=encode(book, u), service=service,
                                   n=12, seed=int(rng.integers(0, 2**63))))
        if ml_decode(book, trace.inter_departures, service).chosen != u:
            errors += 1
    assert errors == 0
