"""Timing codebooks, the encoder, and the maximum-likelihood decoder.

A codeword is an infinite sequence of packet inter-arrival gaps; message u
is transmitted by releasing packets at the codeword's epochs and the
receiver sees only departure times.  Decoding replays the queue's admission
rule against every hypothesized codeword: under hypothesis u the idle time
before departure i is a deterministic function of the observed departures,
so the residual d_i - w_{i-1} is the service time that hypothesis implies,
and the decoder scores it under the service density.

Codeword gaps are generated by hashing (seed, message, position) to a
uniform variate and inverting the inter-arrival CDF.  The accessor is a
pure function, which is what makes lazily extended "infinite" codewords
and replayable decoding possible without storing anything.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distributions import _require_count
from .queue_sim import _extend_epochs, _first_after

__all__ = ["Codebook", "DecodeResult", "DecodeFailure",
           "encode", "idle_path", "ml_decode"]


class DecodeFailure(RuntimeError):
    """Every hypothesis was eliminated: no codeword is consistent with the
    observed departures under the service model's support."""


# --- hashing: SplitMix64 finalizer over numpy uint64, wraps mod 2^64 ---

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix64(z):
    # wraparound mod 2^64 is the point; silence numpy's scalar overflow note
    with np.errstate(over="ignore"):
        z = (np.asarray(z, dtype=np.uint64) + _GAMMA)
        z = (z ^ (z >> np.uint64(30))) * _M1
        z = (z ^ (z >> np.uint64(27))) * _M2
        return z ^ (z >> np.uint64(31))


def _hash_uniform(base, j):
    """Uniform variates in the open interval (0, 1) from counter positions j."""
    with np.errstate(over="ignore"):
        bits = _mix64(base + np.asarray(j, dtype=np.uint64))
    return ((bits >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


class Codebook:
    """M deterministic codewords of inter-arrival gaps, indexed u = 1..M.

    Every codeword starts with gap 0 (its first packet marks the time
    origin) and continues with strictly positive gaps.  Gaps come either
    from the hash-and-invert generator through `inter_arrival.ppf` (the
    default, giving infinite codewords; `inter_arrival` must be a duration
    law) or from explicit finite sequences via `from_sequences`.
    The arrival epochs of all codewords live in one (M, J) matrix, the one
    `epoch_matrix` returns: explicit codewords fill it in full at
    construction, hashed ones extend it on demand.
    `sequences`, validated by `from_sequences`, holds explicit codewords.
    """

    def __init__(self, M: int, seed: int, inter_arrival, sequences=None):
        self.M = _require_count(M, "M")
        self.seed = int(seed) & (2**64 - 1)
        if sequences is None and not hasattr(inter_arrival, "ppf"):
            raise TypeError(f"inter_arrival: need a law with ppf, got {inter_arrival!r}")
        self.inter_arrival = inter_arrival
        self._explicit = sequences
        if sequences is None:
            self._matrix = np.zeros((self.M, 1))
        else:
            self._matrix = np.full((self.M, max(s.size for s in sequences)), np.inf)
            for row, s in zip(self._matrix, sequences):
                row[: s.size] = np.cumsum(s)

    @classmethod
    def from_sequences(cls, sequences) -> "Codebook":
        """Build a codebook from explicit gap sequences (each starting 0)."""
        seqs = [np.asarray(s, dtype=float) for s in sequences]
        for s in seqs:
            if s.size == 0 or s[0] != 0.0:
                raise ValueError("each codeword must start with gap 0")
            if not np.all(s[1:] > 0):
                raise ValueError("codeword gaps after the first must be positive")
        return cls(len(seqs), 0, None, sequences=seqs)

    def _check_u(self, u: int) -> None:
        if not 1 <= u <= self.M:
            raise ValueError(f"message index {u} outside 1..{self.M}")

    def _base(self, u) -> np.uint64:
        return _mix64(np.uint64(self.seed) ^ _mix64(np.uint64(u)))

    def gaps(self, u: int, j_start: int, j_stop: int) -> np.ndarray:
        """Codeword gaps at positions j_start..j_stop-1 (positions >= 1)."""
        self._check_u(u)
        if self._explicit is not None:
            seq = self._explicit[u - 1]
            return seq[j_start:j_stop]
        j = np.arange(j_start, j_stop, dtype=np.uint64)
        return self.inter_arrival.ppf(_hash_uniform(self._base(u), j))

    def epoch_matrix(self, beyond: float) -> np.ndarray:
        """Epochs of all M codewords as one (M, J) array covering `beyond`.

        Hashed codewords are extended until every row passes `beyond`, each
        time by max(64, J - 1) columns accumulated from the last one
        (`_extend_epochs`), so the floats equal one cumulative sum over the
        whole gap prefix however the extension was chunked; that is what
        lets the decoder reproduce simulator-side idle times bit for bit.
        Explicit codewords shorter than J are padded with +inf, which the
        decoder reads as "no further arrivals": any hypothesis forced past
        the end of its codeword is eliminated rather than erroring out.
        Each extension, its width and its columns, depends only on the
        codebook and the width before it, so threads sharing a codebook can
        at worst repeat one.
        """
        mat = self._matrix
        while self._explicit is None and np.min(mat[:, -1]) <= beyond:
            width = mat.shape[1]
            j = np.arange(width, width + max(64, width - 1), dtype=np.uint64)
            bases = self._base(np.arange(1, self.M + 1, dtype=np.uint64))
            gaps = self.inter_arrival.ppf(_hash_uniform(bases[:, None], j))
            mat = self._matrix = np.hstack((mat, _extend_epochs(mat[:, -1], gaps)))
        return mat


def encode(codebook: Codebook, u: int):
    """Yield the arrival gaps of codeword u: 0 first, then gap 1, 2, ...

    Infinite for hashed codebooks; explicit codebooks yield their stored
    gaps and stop.
    """
    codebook._check_u(u)
    yield 0.0
    j = 1
    while (chunk := codebook.gaps(u, j, j + 256)).size:
        yield from chunk.tolist()
        j += 256


def idle_path(codebook: Codebook, u: int, inter_departures) -> np.ndarray:
    """Hypothesis-u idle times before departures 1..n, as one vector.

    Entry i-1 is the idle time between departure i-1 and the admission of
    the packet that leaves as departure i, replayed from the codeword and
    the observed gaps d_0..d_{i-1} only; inf where the codeword ends first.
    It replays row u of the `epoch_matrix` that `ml_decode` scores, whose
    +inf padding after a short explicit codeword reads as its end.
    """
    d = np.asarray(inter_departures, dtype=float)
    if not np.all(d >= 0):
        raise ValueError("departure gaps must be nonnegative")
    codebook._check_u(u)
    t = np.cumsum(d)[:-1]
    beyond = float(t[-1]) if t.size else 0.0
    return _idle_times(codebook.epoch_matrix(beyond)[u - 1], t)


def _idle_times(epochs, departures) -> np.ndarray:
    """Wait from each sorted departure epoch to the first epoch strictly
    after it, in each row of `epochs`; inf where the row ends first."""
    idx = _first_after(epochs, departures)
    last = epochs.shape[-1] - 1
    w = np.take_along_axis(epochs, np.minimum(idx, last), axis=-1) - departures
    w[idx > last] = np.inf
    return w


@dataclass
class DecodeResult:
    """Outcome of one maximum-likelihood decode.

    chosen: the 1-based message attaining the best score (smallest index
        on exact ties, with ties_broken set).
    scores: per-message log-likelihood of the observed departure gaps.
    """

    chosen: int
    scores: np.ndarray
    ties_broken: bool


def ml_decode(codebook: Codebook, inter_departures, service) -> DecodeResult:
    """Score every message against the observed departure gaps and pick the
    maximizer.

    For each hypothesis u the admission replay turns the gaps into implied
    service times d_i - w_{i-1}; the score is the sum of service
    log-densities over departures 1..n.  A nonpositive implied service time
    eliminates the hypothesis (score -inf).  If every hypothesis is
    eliminated a DecodeFailure is raised.
    """
    d = np.asarray(inter_departures, dtype=float)
    if d.ndim != 1 or d.size < 2:
        raise ValueError("need inter-departure gaps d_0..d_n with n >= 1")
    n = d.size - 1

    scores = np.full(codebook.M, -np.inf)
    # a gap d_i <= 0 past d_0 leaves no hypothesis a positive service time;
    # otherwise the departure epochs are sorted, as the replay needs
    if np.all(d[1:] > 0):
        t = np.cumsum(d)[:n]
        implied = d[1:] - _idle_times(codebook.epoch_matrix(float(t[-1])), t)
        alive = (implied > 0).all(axis=1)
        if alive.any():
            lp = service.log_pdf(implied[alive])
            scores[alive] = np.sum(lp, axis=1)
    if not np.any(scores > -np.inf):
        raise DecodeFailure(
            "all hypotheses eliminated: no codeword admits positive service times")

    best = int(np.argmax(scores))
    ties = int(np.sum(scores == scores[best])) > 1
    return DecodeResult(chosen=best + 1, scores=scores, ties_broken=ties)
