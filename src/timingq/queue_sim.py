"""Event simulation of the bufferless single-server queue.

The server takes one packet at a time and has no waiting room: any arrival
during an ongoing service is silently dropped.  Writing T for the epoch of
the previous departure, the next admitted packet is the earliest arrival
strictly after T; the gap between T and that arrival is the server's idle
time, and the next inter-departure gap is idle time plus the new service
duration.  The first packet arrives at time 0 and is always admitted.

The admission rule lives in one replay, `_first_after`, shared by
`admitted_indices`, trace validation and the decoder, which replays it
against hypothesized arrival sequences.  Simulation is linear in n.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import _output
from .distributions import _require_count, _require_rate

__all__ = [
    "ArrivalsExhausted",
    "SimConfig",
    "QueueTrace",
    "simulate",
    "admitted_indices",
    "expected_decode_time",
    "trace_csv",
]

_CHUNK = 1024      # gaps per draw from a sampled law; fixes its RNG stream
_FIRST_PULL = 64   # gaps in the first pull from an iterator; doubles to _CHUNK


class ArrivalsExhausted(RuntimeError):
    """A finite explicit arrival sequence ended before enough departures."""


def _extend_epochs(last, gaps) -> np.ndarray:
    """Epochs last + g_1, last + g_1 + g_2, ... along the last axis, from a
    scalar `last` or one per row of `gaps`: add.accumulate sums left to
    right, so extending from the last epoch gives the floats of one
    cumulative sum over every gap, however the gaps were chunked.  That is
    what lets the decoder reproduce simulator-side idle times bit for bit."""
    last = np.asarray(last, dtype=float)[..., None]
    with np.errstate(over="ignore"):  # epochs past the float range read inf
        return np.add.accumulate(np.concatenate((last, gaps), axis=-1), axis=-1)[..., 1:]


def _first_after(epochs, departures) -> np.ndarray:
    """The admission replay: in each row of `epochs` (one, or one per
    hypothesis), the index of the first epoch strictly after each of the
    nondecreasing `departures` (the row length if none is).  Epoch e is at
    or before departure i iff searchsorted(departures, e, 'left') <= i, so
    running counts of those positions give every index in O(rows*(J + n))."""
    rows = np.atleast_2d(epochs)
    r, n = rows.shape[0], len(departures)
    pos = np.searchsorted(departures, rows, side="left")
    pos += (n + 1) * np.arange(r)[:, None]
    counts = np.bincount(pos.ravel(), minlength=r * (n + 1)).reshape(r, n + 1)
    return np.cumsum(counts[:, :n], axis=1).reshape(np.shape(epochs)[:-1] + (n,))


def admitted_indices(arrival_epochs, departure_epochs) -> np.ndarray:
    """Admitted packet indices for as many departures as the arrivals resolve.

    Index 0 is always admitted (service starts at the first arrival).  After
    the i-th departure the next admitted packet is the first arrival whose
    epoch strictly exceeds that departure epoch; an arrival landing exactly
    on a departure epoch is dropped.  Departures whose successor lies beyond
    the last known arrival are left unresolved, so the result holds the
    longest prefix computable from the given arrivals.
    """
    epochs = np.asarray(arrival_epochs, dtype=float)
    deps = np.asarray(departure_epochs, dtype=float)
    if epochs.ndim != 1 or deps.ndim != 1 or epochs.size == 0:
        raise ValueError("expected one-dimensional, nonempty epoch sequences")
    if np.any(np.diff(epochs) < 0) or np.any(np.diff(deps) < 0):
        raise ValueError("epoch sequences must be nondecreasing")
    nxt = _first_after(epochs, deps)
    resolved = int(np.searchsorted(nxt, epochs.size, side="left"))
    return np.concatenate(([0], nxt[:resolved])).astype(np.intp)


@dataclass
class SimConfig:
    """Inputs for one simulated trace.

    arrival: a duration law for iid gaps (anything with `sample`), or an
        explicit gap sequence / iterator whose first element is 0 (the
        time-origin packet).
    service: a duration model, or an explicit sequence of at least n+1
        positive service times.
    n: number of departures to observe beyond the zeroth.
    seed: 64-bit integer; model-driven draws are reproducible given it.
    """

    arrival: object
    service: object
    n: int
    seed: int = 0

    def __post_init__(self):
        self.n = _require_count(self.n, "n")


@dataclass
class QueueTrace:
    """One realization: arrivals, admissions, services, idles, departures.

    Inter-times and cumulative epochs are stored redundantly so that every
    defining relation can be checked in place by `validate`.
    """

    arrival_epochs: np.ndarray
    admitted_indices: np.ndarray
    service_times: np.ndarray
    idle_times: np.ndarray
    inter_departures: np.ndarray
    departure_epochs: np.ndarray

    def validate(self) -> None:
        k = self.admitted_indices
        s = self.service_times
        w = self.idle_times
        d = self.inter_departures
        t = self.departure_epochs
        if not (len(k) == len(s) == len(d) == len(t) == len(w) + 1):
            raise ValueError("trace field lengths are inconsistent")
        if k[0] != 0:
            raise ValueError("packet 0 must be admitted")
        if np.any(np.diff(k) <= 0):
            raise ValueError("admitted indices must be strictly increasing")
        if not np.all(w > 0):
            raise ValueError("idle times must be strictly positive")
        if d[0] != s[0] or not np.array_equal(d[1:], w + s[1:]):
            raise ValueError("inter-departures must equal idle + service")
        if not np.array_equal(t, np.cumsum(d)):
            raise ValueError("departure epochs must be the running sum of gaps")
        # no arrival strictly between two admissions may postdate the
        # departure that the later admission answers to
        replay = admitted_indices(self.arrival_epochs, t[:-1])
        if len(replay) < len(k) or not np.array_equal(replay[: len(k)], k):
            raise ValueError("admitted indices disagree with the admission rule")
        if np.any(self.arrival_epochs < 0):
            raise ValueError("arrival epochs must be nonnegative")


def _gap_chunks(arrival, rng):
    """Arrival gaps after the time-origin packet, in chunks: _CHUNK draws at
    a time from a law, or pulls from an explicit gap source that double from
    _FIRST_PULL to _CHUNK until it runs out."""
    if callable(getattr(arrival, "sample", None)):
        return (arrival.sample(rng, size=_CHUNK) for _ in itertools.count())
    source = iter(arrival)
    first = next(source, None)
    if first is None or float(first) != 0.0:
        raise ValueError(
            "explicit arrival gaps must start with 0, the time-origin packet")
    return _pulls(source)


def _pulls(source):
    size = _FIRST_PULL
    while chunk := list(itertools.islice(source, size)):
        yield np.array(chunk, dtype=float)
        if len(chunk) < size:
            return
        size = min(2 * size, _CHUNK)


def _service_draws(service, count, rng):
    if hasattr(service, "sample"):
        return np.asarray(service.sample(rng, size=count), dtype=float)
    s = np.asarray(service, dtype=float)
    if s.size < count:
        raise ValueError(f"need {count} explicit service times, got {s.size}")
    if not np.all(s[:count] > 0):
        raise ValueError("service times must be positive")
    return s[:count]


def _overflowed(i: int, n: int) -> OverflowError:
    return OverflowError(f"departure epoch {i} of {n} overflows a float")


def simulate(config: SimConfig) -> QueueTrace:
    """Run the queue for n departures past the zeroth and return the trace.

    Model-driven arrivals and services draw from independent child streams
    of the seed, so lazy arrival extension never disturbs service draws.
    Raises ArrivalsExhausted when a finite explicit arrival sequence cannot
    supply the next admission, and OverflowError when a departure epoch
    passes the float range.
    """
    arrival_child, service_child = np.random.SeedSequence(config.seed).spawn(2)
    chunks = _gap_chunks(config.arrival, np.random.default_rng(arrival_child))
    services = _service_draws(config.service, config.n + 1,
                              np.random.default_rng(service_child))

    admitted = np.zeros(config.n + 1, dtype=np.intp)
    idles = np.empty(config.n)
    gaps = np.empty(config.n + 1)
    # epochs grow by accumulating from the last one; departures only grow,
    # so each admission is bisected forward from the previous one
    epochs = [0.0]
    m = 0
    t = gaps[0] = float(services[0])
    for i, s in enumerate(map(float, services[1:]), 1):
        while epochs[-1] <= t:
            if t == math.inf:
                raise _overflowed(i - 1, config.n)
            new = next(chunks, None)
            if new is None:
                raise ArrivalsExhausted(
                    f"arrival sequence ended at epoch {epochs[-1]!r}, "
                    f"none remain after departure epoch {t!r}")
            if not np.all(new > 0):
                raise ValueError("arrival gaps after the first must be positive")
            epochs.extend(_extend_epochs(epochs[-1], new).tolist())
        m = admitted[i] = bisect.bisect_right(epochs, t, m)
        w = idles[i - 1] = epochs[m] - t
        g = gaps[i] = w + s
        t += g
    if t == math.inf:
        raise _overflowed(config.n, config.n)

    del epochs[m + 1:]
    trace = QueueTrace(
        arrival_epochs=np.array(epochs),
        admitted_indices=admitted,
        service_times=services.copy(),
        idle_times=idles,
        inter_departures=gaps,
        departure_epochs=np.cumsum(gaps),
    )
    del epochs  # free the list before validation allocates its own arrays
    trace.validate()
    return trace


def expected_decode_time(lam: float, service, n: int) -> float:
    """Expected epoch of departure n: one mean service for the zeroth packet
    plus n cycles of mean idle (1/lam, by memorylessness of the arrivals)
    and mean service.  ValueError, naming the horizon, if it overflows."""
    mean = service.mean()
    cycle = 1.0 / _require_rate(lam, "lam") + mean
    try:
        horizon = mean + _require_count(n, "n") * cycle
    except OverflowError:  # an integer n past the float range
        horizon = math.inf
    if horizon == math.inf:
        raise ValueError(f"horizon E[S] + n (1/lam + E[S]) overflows a float at "
                         f"n = {n}, lam = {lam!r}, E[S] = {mean!r}")
    return horizon


def trace_csv(trace: QueueTrace, config: dict | None = None) -> str:
    """Render a trace as CSV, one row per departure.

    Columns are (i, k_i, S_i, W_{i-1}, D_i, departure_epoch); the idle cell
    is empty on row 0, which has no preceding departure.
    """
    return _output.csv_text(
        ["i", "k_i", "S_i", "W_{i-1}", "D_i", "departure_epoch"],
        [map(repr, range(len(trace.inter_departures))),
         map(repr, trace.admitted_indices.tolist()),
         _output.cells(trace.service_times),
         itertools.chain([""], _output.cells(trace.idle_times)),
         _output.cells(trace.inter_departures),
         _output.cells(trace.departure_epochs)],
        config)
