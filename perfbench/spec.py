"""What the benchmark runs and what each layer metric is expected to move.

Every workload is a list of timingq CLI invocations, each run in a fresh
interpreter.  The benchmark appends `--seed <seed>` to every invocation;
invocations that run trials also carry `--threads 1`, so that a run uses
one core and the traced run can nest spans on a single stack.

Sizes (grid points, trials) are chosen so that one pass of a workload
takes seven to ten seconds on a 2-core x86 machine, which lets a 50-second
run repeat each workload five or more times and report medians.
"""

from __future__ import annotations

# The CLI's own default seed: at this seed the outputs are compared with
# the stored references byte for byte (simulate, decode) or to the stored
# numbers (infodensity).
REFERENCE_SEED = 1729

WORKLOADS = {
    "analytic": {
        "why": ("bound tables, rate optimum and Monte Carlo information "
                "density: quadrature entropies and NumericalConvolution.log_pdf, "
                "no simulation or decoding"),
        "commands": [
            # curves: bound tables and the peak of the normalized rate
            ["bounds", "--mu", "1", "--rho", "0.05:10:6"],
            ["bounds", "--mu", "1", "--service", "erlang:2:2",
             "--rho", "0.05:10:6"],
            ["optimum", "--mu", "1", "--bracket", "0.3:0.6"],
            # montecarlo: log_pdf on large batches, one rate_R each
            ["infodensity", "--lam", "0.456", "--n", "1000,10000",
             "--service", "erlang:2:2", "--trials", "3", "--threads", "1"],
            ["infodensity", "--lam", "0.456", "--n", "1000,10000",
             "--service", "uniform:0:2", "--trials", "3", "--threads", "1"],
        ],
    },
    "queue": {
        "why": ("short and long decode trials and a 1e5-departure trace: "
                "encode/simulate/ml_decode overhead, ml_decode peak memory and "
                "CSV rendering, no quadrature"),
        "commands": [
            # many short trials: per-trial overhead and the import dominate
            ["decode", "--M", "16,256,16,256", "--n", "2,2,10,10",
             "--lam", "0.456", "--mu", "1", "--trials", "150",
             "--threads", "1"],
            # long blocks: the dense compare in ml_decode sets peak memory
            ["decode", "--M", "16", "--n", "2000", "--lam", "0.456",
             "--mu", "1", "--trials", "2", "--threads", "1"],
            ["simulate", "--lam", "0.456", "--mu", "1", "--n", "100000"],
        ],
    },
}

# End-to-end figures printed and stored in the result file but not gated:
# the raw times, and throughputs that exist only on some workloads.
# Units, direction of goodness and definition.
REPORT_METRICS = {
    "raw_wall_s": ("s", "lower", "wall_s before scaling to the reference"),
    "raw_setup_s": ("s", "lower", "setup_s before scaling to the reference"),
    "raw_compute_s": ("s", "lower",
                      "compute_s before scaling to the reference"),
    "reference_s": ("s", "lower",
                    "median wall time of the reference task in this run"),
    "points_per_s": ("1/s", "higher",
                     "bound-table rows emitted / raw_compute_s"),
    "trials_per_s": ("1/s", "higher",
                     "info-density or decode trials / post-import time of "
                     "the invocations that run trials"),
    "departures_per_s": ("1/s", "higher",
                         "departures rendered by simulate / its post-import "
                         "time"),
    "failed_frac": ("ratio", "lower",
                    "invocations that exited non-zero, timed out or failed "
                    "the output check / invocations attempted"),
}

# Layer metric -> the (end-to-end metric, workload) pairs it should move.
# A later change that claims a gain on a layer cites the pair it predicts;
# the other workload predicts no change.
_CURVES = [("wall_s", "analytic"), ("compute_s", "analytic"),
           ("points_per_s", "analytic")]
_MC = [("trials_per_s", "analytic"), ("compute_s", "analytic")]
_SHORT = [("trials_per_s", "queue"), ("compute_s", "queue")]
_LONG = [("departures_per_s", "queue"), ("compute_s", "queue")]
_SETUP = [("setup_s", w) for w in WORKLOADS]

LAYER_MAP = {
    "distributions.hypoexp_entropy.calls": _CURVES,
    "distributions.hypoexp_entropy.self_s": _CURVES,
    "distributions.NumericalConvolution.log_pdf.calls": _MC + _CURVES,
    "distributions.NumericalConvolution.log_pdf.points": _MC + _CURVES,
    "distributions.NumericalConvolution.log_pdf.self_s": _MC + _CURVES,
    "distributions.NumericalConvolution.log_pdf.points_per_s": _MC + _CURVES,
    "distributions.NumericalConvolution.entropy.calls": _CURVES,
    "distributions.NumericalConvolution.entropy.self_s": _CURVES,
    "distributions.Erlang.entropy.calls": _CURVES,
    "distributions.Erlang.entropy.self_s": _CURVES,
    "bounds.rate_R.calls": _CURVES,
    "bounds.rate_R.self_s": _CURVES,
    "bounds.cas_bound.calls": _CURVES,
    "bounds.cas_bound.self_s": _CURVES,
    "bounds.universal_bound_at.calls": _CURVES,
    "bounds.universal_bound_at.self_s": _CURVES,
    "bounds.sweep.calls": _CURVES,
    "bounds.sweep.self_s": _CURVES,
    "bounds.maximize_rate.calls": _CURVES,
    "bounds.maximize_rate.self_s": _CURVES,
    "queue_sim.simulate.calls": _SHORT + _LONG,
    "queue_sim.simulate.self_s": _SHORT + _LONG,
    "queue_sim.simulate.peak_mb": [("peak_rss_mb", "queue")],
    "queue_sim.trace_csv.self_s": _LONG,
    "coding.ml_decode.calls": _SHORT,
    "coding.ml_decode.self_s": _SHORT,
    "coding.ml_decode.peak_mb": [("peak_rss_mb", "queue")],
    "coding.Codebook.epoch_matrix.calls": _SHORT,
    "coding.Codebook.epoch_matrix.self_s": _SHORT,
    "coding.Codebook.gaps.calls": _SHORT,
    "coding.Codebook.gaps.self_s": _SHORT,
    "coding.encode.gaps_pulled": _SHORT,
    "coding.encode.useful_ratio": _SHORT,
    "achievability.info_density_trial.calls": _MC,
    "achievability.info_density_trial.self_s": _MC,
    "achievability.decode_rate_experiment.calls": _SHORT,
    "achievability.decode_rate_experiment.self_s": _SHORT,
    "cli.import_s": _SETUP,
    "cli.main.self_s": _SETUP,
    "output.csv_text.self_s": _SETUP + _LONG,
    "output.json_text.self_s": _SETUP,
    "trace.overhead_s": [],
    "trace.self_share": [],
}

# The layer metrics that must be non-zero on each workload's traced run;
# the self-test checks them.
EXPECTED_NONZERO = {
    "analytic": ["distributions.hypoexp_entropy.calls",
                 "distributions.NumericalConvolution.log_pdf.points",
                 "distributions.NumericalConvolution.entropy.calls",
                 "distributions.Erlang.entropy.calls",
                 "bounds.rate_R.calls", "bounds.cas_bound.calls",
                 "bounds.universal_bound_at.calls", "bounds.sweep.calls",
                 "bounds.maximize_rate.calls",
                 "achievability.info_density_trial.calls",
                 "output.csv_text.self_s", "output.json_text.self_s"],
    "queue": ["queue_sim.simulate.calls", "queue_sim.simulate.peak_mb",
              "queue_sim.trace_csv.self_s", "coding.ml_decode.calls",
              "coding.ml_decode.peak_mb", "coding.Codebook.epoch_matrix.calls",
              "coding.Codebook.gaps.calls", "coding.encode.gaps_pulled",
              "coding.encode.useful_ratio",
              "achievability.decode_rate_experiment.calls",
              "output.csv_text.self_s", "output.json_text.self_s"],
}
