"""Capacity analysis toolkit for the bufferless single-server timing queue.

Information rides on packet timing: a sender schedules arrivals, the
bufferless server drops whatever shows up mid-service, and the receiver
observes departure times only.  This package simulates that channel,
decodes timing codewords by maximum likelihood, evaluates the converse
capacity bounds, and verifies achievable rates by Monte Carlo
information-density estimation.
"""

from .achievability import (
    InfoDensityReport,
    TrialFailure,
    decode_rate_experiment,
    empirical_liminf,
    info_density_report,
    info_density_trial,
)
from .bounds import (
    BoundCurve,
    OptimumReport,
    c_upper,
    cas_bound,
    maximize_rate,
    per_service_time,
    rate_R,
    sweep,
    universal_bound,
    universal_bound_at,
)
from .coding import (
    Codebook,
    DecodeFailure,
    DecodeResult,
    encode,
    idle_path,
    ml_decode,
    reconstruct_idle,
)
from .distributions import (
    Deterministic,
    Erlang,
    Exponential,
    NumericalConvolution,
    QuadratureError,
    Uniform,
    hypoexp_entropy,
)
from .queue_sim import (
    ArrivalsExhausted,
    QueueTrace,
    SimConfig,
    admitted_indices,
    expected_decode_time,
    simulate,
    trace_csv,
)

__version__ = "0.1.0"

__all__ = [
    "ArrivalsExhausted",
    "BoundCurve",
    "Codebook",
    "DecodeFailure",
    "DecodeResult",
    "Deterministic",
    "Erlang",
    "Exponential",
    "InfoDensityReport",
    "NumericalConvolution",
    "OptimumReport",
    "QuadratureError",
    "QueueTrace",
    "SimConfig",
    "TrialFailure",
    "Uniform",
    "admitted_indices",
    "c_upper",
    "cas_bound",
    "decode_rate_experiment",
    "empirical_liminf",
    "encode",
    "expected_decode_time",
    "hypoexp_entropy",
    "idle_path",
    "info_density_report",
    "info_density_trial",
    "maximize_rate",
    "ml_decode",
    "per_service_time",
    "rate_R",
    "reconstruct_idle",
    "simulate",
    "sweep",
    "trace_csv",
    "universal_bound",
    "universal_bound_at",
]
