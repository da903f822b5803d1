"""Command-line front end.

Subcommands: bounds, optimum, simulate, infodensity, decode.  Every run
embeds its full configuration (seed included) in the output, and the same
configuration always produces byte-identical output.  Exit codes: 0 on
success, 1 on validation failure (the message names the offending field),
2 on numerical non-convergence.

Rate and count flags are checked by their argparse types as they are
parsed, so a bad value exits 1 even where the command ignores the flag.
Every other rule is the library's: the command makes the library call and
names the flag behind the parameter the library refused.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import sys

import numpy as np

from . import _output, achievability, bounds, queue_sim
from .distributions import (
    Deterministic,
    Erlang,
    Exponential,
    QuadratureError,
    Uniform,
    _require_count,
)

# numpy, scipy.special, argparse and timingq leave ~40k container objects
# behind at import, and they live until exit.  Interpreter finalization runs
# several full collections that would walk all of them again, ~0.1 s per
# run; frozen objects sit in the permanent generation, which no collection
# visits.  The freeze happens once, only in processes that load this entry
# module: `import timingq` leaves a library importer's collector alone.
gc.freeze()

DEFAULT_SEED = 1729

# A run past physical memory is killed or swaps rather than raising, so each
# command first estimates its peak from its flags, as items times bytes per
# item (tracemalloc peaks, rounded up), and exits 1 over this many bytes.
MEMORY_BUDGET = 2**31


class ValidationError(ValueError):
    """Bad input; the message names the offending field."""


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this tool reserves 2 for
    # numerical non-convergence, so parse errors become validation errors
    def error(self, message):
        raise ValidationError(message)


def parse_service(text: str):
    """Parse 'kind:params' into a service model.

    exponential:RATE | deterministic:VALUE | erlang:SHAPE:RATE | uniform:LO:HI
    """
    parts = text.split(":")
    kind, params = parts[0].lower(), parts[1:]
    try:
        if kind in ("exponential", "exp") and len(params) == 1:
            return Exponential(float(params[0]))
        if kind in ("deterministic", "det") and len(params) == 1:
            return Deterministic(float(params[0]))
        if kind == "erlang" and len(params) == 2:
            return Erlang(int(params[0]), float(params[1]))
        if kind == "uniform" and len(params) == 2:
            return Uniform(float(params[0]), float(params[1]))
    except ValueError as exc:
        raise ValidationError(f"--service: {exc}") from exc
    raise ValidationError(
        f"--service: expected kind:params "
        f"(exponential:RATE, deterministic:VALUE, erlang:SHAPE:RATE, "
        f"uniform:LO:HI), got {text!r}")


def parse_grid(text: str, log: bool = False) -> np.ndarray:
    """Parse 'lo:hi:count' into a grid, linear or log-spaced."""
    parts = text.split(":")
    if len(parts) != 3:
        raise ValidationError(f"--rho: expected lo:hi:count, got {text!r}")
    try:
        lo, hi, count = float(parts[0]), float(parts[1]), int(parts[2])
    except ValueError as exc:
        raise ValidationError(f"--rho: {exc}") from exc
    if not (0 < lo < hi < math.inf) or count < 2:
        raise ValidationError(
            f"--rho: need 0 < lo < hi < inf and count >= 2, got {text!r}")
    _require_budget("--rho", count, 256)
    return np.geomspace(lo, hi, count) if log else np.linspace(lo, hi, count)


def parse_int_list(text: str, field: str) -> list[int]:
    try:
        return [_require_count(int(x), "each entry") for x in text.split(",")]
    except ValueError as exc:
        raise ValidationError(f"{field}: {exc}") from exc


def rate(text: str) -> float:
    # an argparse type: --lam and --mu are the rates of exponential laws,
    # which check them
    try:
        return Exponential(float(text)).rate
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def count(text: str) -> int:
    # an argparse type, so named for its "invalid count value: '1.5'" message
    return _require_count(int(text), "count")


def _refused(exc: ValueError, flags: dict, other: str) -> ValidationError:
    # a library check starts its message with the parameter it refuses;
    # `flags` names the flag behind each, and `other` takes the rest
    param = str(exc).split(" ", 1)[0]
    return ValidationError(f"{flags.get(param, other)}: {exc}")


def _require_budget(flags: str, items: int, bytes_per_item: float) -> None:
    nbytes = min(items, 2**64) * bytes_per_item  # inf or nan on overflow
    if not nbytes <= MEMORY_BUDGET:
        raise ValidationError(f"{flags}: the run would need about {nbytes:.3g} "
                              f"bytes, over the {MEMORY_BUDGET}-byte memory budget")


def build_parser() -> _Parser:
    parser = _Parser(prog="timingq",
                     description="Bufferless timing-queue capacity toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--out", default=None,
                       help="output file (stdout if omitted; relative paths "
                            f"resolve under ${_output.OUTDIR_ENV} when set)")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)

    p = sub.add_parser("bounds", help="tabulate normalized bound curves")
    p.add_argument("--mu", type=rate, required=True)
    p.add_argument("--rho", default="0.05:10:200",
                   help="grid as lo:hi:count (default 0.05:10:200)")
    p.add_argument("--log", action="store_true", help="log-spaced grid")
    p.add_argument("--service", default=None,
                   help="service as kind:params (default exponential:MU)")
    p.add_argument("--no-cas", action="store_true",
                   help="skip the Poisson-input achievable-rate column")
    add_common(p)

    p = sub.add_parser("optimum", help="maximize the normalized rate over rho")
    p.add_argument("--mu", type=rate, required=True)
    p.add_argument("--bracket", default="0.01:2",
                   help="search interval lo:hi in rho (default 0.01:2)")
    p.add_argument("--tol", type=float, default=1e-6)
    add_common(p)

    p = sub.add_parser("simulate", help="run one queue trace, emit CSV")
    p.add_argument("--lam", type=rate, default=None,
                   help="Poisson arrival rate")
    p.add_argument("--service", default=None,
                   help="service as kind:params")
    p.add_argument("--mu", type=rate, default=None,
                   help="shorthand for --service exponential:MU")
    p.add_argument("--n", type=count, default=None, help="departures past the zeroth")
    p.add_argument("--fixture", default=None,
                   help="JSON file with explicit arrival_gaps/service_times/n")
    add_common(p)

    p = sub.add_parser("infodensity",
                       help="Monte Carlo information-density reports")
    p.add_argument("--lam", type=rate, required=True)
    p.add_argument("--service", default=None,
                   help="service as kind:params (default exponential:MU)")
    p.add_argument("--mu", type=rate, default=None)
    p.add_argument("--n", required=True,
                   help="comma-separated schedule, e.g. 1000,10000")
    p.add_argument("--trials", type=count, default=100)
    p.add_argument("--target", type=float, default=None,
                   help="rate to test (default: achievable rate at lam, mu)")
    p.add_argument("--gamma", type=float, default=None,
                   help="slack below target (default 5%% of target)")
    p.add_argument("--threads", type=count, default=1)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    add_common(p)

    p = sub.add_parser("decode", help="decode-error-rate experiments")
    p.add_argument("--M", required=True, help="comma-separated message counts")
    p.add_argument("--n", required=True, help="comma-separated codeword lengths")
    p.add_argument("--lam", type=rate, required=True)
    p.add_argument("--mu", type=rate, required=True)
    p.add_argument("--trials", type=count, default=200)
    p.add_argument("--threads", type=count, default=1)
    add_common(p)

    return parser


def _service_from_args(args):
    if args.service is not None and args.mu is not None:
        raise ValidationError("--service/--mu: give one, not both")
    if args.service is not None:
        return parse_service(args.service)
    if args.mu is None:
        raise ValidationError("--service: required (or give --mu)")
    return Exponential(args.mu)


def _config_dict(args) -> dict:
    # threads is excluded: it is an execution knob that, by the per-trial
    # seeding scheme, cannot change any result; embedding it would make
    # otherwise byte-identical outputs differ
    return {k: v for k, v in vars(args).items() if k not in ("out", "threads")}


def _cmd_bounds(args) -> str:
    grid = parse_grid(args.rho, args.log)
    service = parse_service(args.service) if args.service else None
    try:
        curve = bounds.sweep(grid, args.mu, service=service,
                             include_cas=not args.no_cas)
    except ValueError as exc:  # a load that is not a rate, or the service's mean or law
        raise _refused(exc, {"rho_grid": "--rho"}, "--service") from None
    return curve.to_csv(_config_dict(args))


def _cmd_optimum(args) -> str:
    parts = args.bracket.split(":")
    if len(parts) != 2:
        raise ValidationError(f"--bracket: expected lo:hi, got {args.bracket!r}")
    try:  # a malformed number, or a bracket or tol that maximize_rate refuses
        bracket = (float(parts[0]), float(parts[1]))
        report = bounds.maximize_rate(args.mu, bracket=bracket, tol=args.tol)
    except ValueError as exc:
        raise _refused(exc, {"tol": "--tol"}, "--bracket") from None
    payload = {"config": _config_dict(args), **report.as_dict()}
    return _output.json_text(payload)


def _cmd_simulate(args) -> str:
    if args.fixture is not None:
        # simulate checks the fixture's gaps and services as it consumes
        # them, so its input errors are fixture errors too
        try:
            with open(args.fixture) as fh:
                fixture = json.load(fh)
            service = fixture["service_times"]
            trace = queue_sim.simulate(queue_sim.SimConfig(
                arrival=fixture["arrival_gaps"], service=service,
                n=fixture.get("n", len(service) - 1), seed=args.seed))
        except (OSError, KeyError, ValueError, TypeError, OverflowError,
                queue_sim.ArrivalsExhausted) as exc:
            raise ValidationError(f"--fixture: {exc}") from exc
    else:
        if args.lam is None or args.n is None:
            raise ValidationError("--lam, --n: required without --fixture")
        service = _service_from_args(args)
        # per departure: its CSV row, and the arrivals it admits or drops
        flags = "--n, --lam, --service/--mu"
        _require_budget(flags, args.n, 512 + 48 * (args.lam * service.mean() + 1.0))
        try:
            trace = queue_sim.simulate(queue_sim.SimConfig(
                arrival=Exponential(args.lam), service=service,
                n=args.n, seed=args.seed))
        except OverflowError as exc:
            raise ValidationError(f"{flags}: {exc}") from None
    return queue_sim.trace_csv(trace, _config_dict(args))


def _cmd_infodensity(args) -> str:
    service = _service_from_args(args)
    schedule = parse_int_list(args.n, "--n")
    # one result per trial, and the arrays of each trial in flight; the
    # library refuses a schedule that does not increase before any work
    _require_budget("--n, --trials, --threads", args.trials
                    + schedule[-1] * min(args.threads, args.trials), 96)
    try:
        reports = achievability.empirical_liminf(
            args.lam, service, schedule, args.trials, target=args.target,
            gamma=args.gamma, seed=args.seed, threads=args.threads)
    except ValueError as exc:
        raise _refused(exc, {"n_schedule": "--n", "target": "--target",
                             "gamma": "--gamma", "lam": "--lam",
                             "load": "--lam, --service/--mu",
                             "horizon": "--n, --lam, --service/--mu"},
                       "--service/--mu") from None
    if args.format == "json":
        payload = {"config": _config_dict(args),
                   "rows": [r.as_dict() for r in reports]}
        return _output.json_text(payload)
    return achievability.liminf_csv(reports, _config_dict(args))


def _cmd_decode(args) -> str:
    Ms, ns = parse_int_list(args.M, "--M"), parse_int_list(args.n, "--n")
    try:
        cells = achievability._broadcast_schedules(Ms, ns)
    except ValueError as exc:
        raise ValidationError(f"--M, --n: {exc}") from exc
    # each cell's (M, J) epoch matrix, J ~ n (lam/mu + 1) + 64, and one bool per trial
    for M, n in cells:
        _require_budget("--M, --n, --lam, --mu", M,
                        48 * (min(n, 2**64) * (args.lam / args.mu + 1.0) + 64))
    _require_budget("--trials", args.trials, 16)
    try:  # a horizon, or a departure epoch, past the float range
        rows = achievability.decode_rate_experiment(
            Ms, args.lam, args.mu, ns, args.trials,
            seed=args.seed, threads=args.threads)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"--n, --lam, --mu: {exc}") from None
    payload = {"config": _config_dict(args), "rows": rows}
    return _output.json_text(payload)


_COMMANDS = {
    "bounds": _cmd_bounds,
    "optimum": _cmd_optimum,
    "simulate": _cmd_simulate,
    "infodensity": _cmd_infodensity,
    "decode": _cmd_decode,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        text = _COMMANDS[args.command](args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except QuadratureError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _output.emit(text, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
