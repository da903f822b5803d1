"""Output checks for the timingq CLI invocations the benchmark runs.

Every output is checked with seed-free invariants.  Outputs that do not
depend on the seed (bounds, optimum) are also compared with the stored
references at any seed; at the reference seed the seed-dependent outputs
are compared too: infodensity means to 1e-9 relative, simulate and decode
byte for byte.  The measured deviations go into the result file; the
verdict feeds `failed_frac`.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np

# certified 1e-8 entropy tolerance with headroom
BOUNDS_ABS_TOL = 1e-7
# the rate peak is flat, so its location is loosely determined
RHO_STAR_ABS_TOL = 1e-3
INFODENSITY_REL_TOL = 1e-9


class OutputError(ValueError):
    """The output breaks an invariant or disagrees with a reference."""


def key(argv) -> str:
    """Reference key of a command: its arguments without the seed."""
    return " ".join(argv)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _ints(text):
    return [int(x) for x in text.split(",")]


def _require(cond, message):
    if not cond:
        raise OutputError(message)


def _split_csv(text: str, seed: int):
    lines = text.splitlines()
    _require(len(lines) >= 2 and lines[0].startswith("# "),
             "CSV lacks its config header")
    config = json.loads(lines[0][2:])
    _require(config.get("seed") == seed,
             f"config seed {config.get('seed')} != {seed}")
    return lines[1].split(","), [line.split(",") for line in lines[2:]]


def _json(text: str, seed: int):
    payload = json.loads(text)
    _require(payload["config"].get("seed") == seed,
             f"config seed {payload['config'].get('seed')} != {seed}")
    return payload


def _bounds(argv, text, seed, ref, dev):
    header, cells = _split_csv(text, seed)
    _require(header == ["rho", "rate_R_norm", "universal_norm", "cas_norm"],
             f"unexpected bounds header {header}")
    rows = np.array(cells, dtype=float)
    lo, hi, count = _flag(argv, "--rho").split(":")
    _require(rows.shape == (int(count), 4), f"expected {count} rows")
    _require(np.array_equal(rows[:, 0],
                            np.linspace(float(lo), float(hi), int(count))),
             "rho column is not the requested grid")
    rho, rate, universal, cas = rows.T
    dev["max_abs_dev"] = float(np.max(np.abs(rows - np.array(ref["rows"]))))
    _require(np.all(rows[:, 1:] >= 0), "negative bound")
    _require(np.all(rate <= universal), "rate exceeds the universal bound")
    if _flag(argv, "--service") is None:
        # exponential service: the universal column is log(c)/c with
        # c = 1 + 1/rho, whose supremum is 1/e; cas equals rate_R
        c = 1.0 + 1.0 / rho
        _require(np.allclose(universal, np.log(c) / c, rtol=0, atol=1e-12),
                 "exponential universal column is not log(c)/c")
        _require(universal.max() <= 1.0 / math.e + 1e-15,
                 "exponential universal column exceeds 1/e")
        _require(np.allclose(cas, rate, rtol=0, atol=BOUNDS_ABS_TOL),
                 "exponential cas column differs from rate_R")
    _require(dev["max_abs_dev"] <= BOUNDS_ABS_TOL,
             f"bounds deviate from the reference by {dev['max_abs_dev']:.3g}")
    return {"points": len(rows)}


def _optimum(argv, text, seed, ref, dev):
    payload = _json(text, seed)
    value, rho_star = payload["value"], payload["rho_star"]
    dev["value_abs_dev"] = abs(value - ref["value"])
    dev["rho_star_abs_dev"] = abs(rho_star - ref["rho_star"])
    _require(round(value, 4) == 0.3340, f"optimum {value} is not 0.3340")
    _require(abs(rho_star - 0.456) < RHO_STAR_ABS_TOL,
             f"rho_star {rho_star} is not near 0.456")
    _require(dev["value_abs_dev"] <= BOUNDS_ABS_TOL,
             f"optimum deviates from the reference by {dev['value_abs_dev']:.3g}")
    _require(dev["rho_star_abs_dev"] <= RHO_STAR_ABS_TOL,
             f"rho_star deviates from the reference by "
             f"{dev['rho_star_abs_dev']:.3g}")
    return {}


def _infodensity(argv, text, seed, ref, dev):
    header, cells = _split_csv(text, seed)
    _require(header == ["n", "mean", "stderr", "tail_fraction"],
             f"unexpected infodensity header {header}")
    schedule = _ints(_flag(argv, "--n"))
    rows = np.array(cells, dtype=float)
    _require(rows.shape == (len(schedule), 4), "one row per block length")
    n, mean, stderr, tail = rows.T
    if ref is not None:
        dev["mean_max_rel_dev"] = float(
            np.max(np.abs(mean - ref["mean"]) / np.abs(ref["mean"])))
    _require(np.array_equal(n, schedule), "n column is not the schedule")
    _require(np.all(np.isfinite(mean) & (mean > 0)), "mean not finite positive")
    _require(np.all(np.isfinite(stderr) & (stderr >= 0)), "bad stderr")
    _require(np.all((tail >= 0) & (tail <= 1)), "tail fraction outside [0, 1]")
    if ref is not None:
        _require(dev["mean_max_rel_dev"] <= INFODENSITY_REL_TOL,
                 f"means deviate from the reference by "
                 f"{dev['mean_max_rel_dev']:.3g} relative")
    return {"trials": int(_flag(argv, "--trials", 100)) * len(schedule)}


def _decode(argv, text, seed, ref, dev):
    _same_bytes(text, ref, dev)
    rows = _json(text, seed)["rows"]
    Ms, ns = _ints(_flag(argv, "--M")), _ints(_flag(argv, "--n"))
    if len(Ms) == 1:
        Ms = Ms * len(ns)
    if len(ns) == 1:
        ns = ns * len(Ms)
    lam, mu = float(_flag(argv, "--lam")), float(_flag(argv, "--mu"))
    trials = int(_flag(argv, "--trials", 200))
    _require(len(rows) == len(Ms), "one row per (M, n) cell")
    for row, M, n in zip(rows, Ms, ns):
        _require((row["M"], row["n"], row["trials"]) == (M, n, trials),
                 f"row {row} does not match cell M={M} n={n}")
        _require(0 <= row["errors"] <= trials, f"error count {row['errors']}")
        _require(row["error_rate"] == row["errors"] / trials,
                 "error_rate is not errors / trials")
        t_n = 1.0 / mu + n * (1.0 / lam + 1.0 / mu)
        _require(math.isclose(row["operating_rate"], math.log(M) / t_n,
                              rel_tol=1e-12), "operating_rate is not log(M)/T_n")
    _require(dev.get("byte_identical", True),
             "output bytes differ from the reference")
    return {"trials": trials * len(rows)}


def _simulate(argv, text, seed, ref, dev):
    _same_bytes(text, ref, dev)
    header, cells = _split_csv(text, seed)
    _require(header == ["i", "k_i", "S_i", "W_{i-1}", "D_i", "departure_epoch"],
             f"unexpected simulate header {header}")
    n = int(_flag(argv, "--n"))
    _require(len(cells) == n + 1, f"expected {n + 1} rows")
    _require(cells[0][3] == "", "row 0 has an idle time")
    cells[0][3] = "nan"
    i, k, s, w, d, epoch = np.array(cells, dtype=float).T
    _require(np.array_equal(i, np.arange(n + 1)), "row indices")
    _require(k[0] == 0 and np.all(np.diff(k) > 0), "admitted indices")
    _require(np.all(s > 0) and np.all(w[1:] > 0), "nonpositive service or idle")
    _require(d[0] == s[0] and np.array_equal(d[1:], w[1:] + s[1:]),
             "D_i != W_{i-1} + S_i")
    _require(np.array_equal(epoch, np.cumsum(d)),
             "departure epochs are not the running sum of D")
    _require(dev.get("byte_identical", True),
             "output bytes differ from the reference")
    return {"departures": n + 1}


def _same_bytes(text, ref, dev):
    if ref is not None:
        dev["byte_identical"] = sha256(text.encode()) == ref["sha256"]


_CHECKS = {"bounds": _bounds, "optimum": _optimum, "simulate": _simulate,
           "infodensity": _infodensity, "decode": _decode}
# outputs that do not depend on the seed are compared at every seed
_SEED_FREE = {"bounds", "optimum"}


def check(argv, stdout: bytes, seed: int, refs: dict):
    """Check one invocation's output.

    Returns (problem or None, work counts, deviations from the references).
    Work counts are the units the throughput metrics divide: bound-table
    points, trials, departures.
    """
    ref = None
    if argv[0] in _SEED_FREE or seed == refs["seed"]:
        ref = refs["outputs"].get(key(argv))
        if ref is None:
            return f"no stored reference for {key(argv)!r}", {}, {}
    dev = {}
    try:
        work = _CHECKS[argv[0]](argv, stdout.decode(), seed, ref, dev)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"{type(exc).__name__}: {exc}", {}, dev
    return None, work, dev


def reference(argv, stdout: bytes) -> dict:
    """The stored reference for one output at the reference seed."""
    text = stdout.decode()
    if argv[0] == "bounds":
        lines = text.splitlines()[2:]
        return {"rows": [[float(x) for x in line.split(",")] for line in lines]}
    if argv[0] == "optimum":
        payload = json.loads(text)
        return {"rho_star": payload["rho_star"], "value": payload["value"]}
    if argv[0] == "infodensity":
        lines = text.splitlines()[2:]
        return {"mean": [float(line.split(",")[1]) for line in lines]}
    return {"sha256": sha256(stdout)}
