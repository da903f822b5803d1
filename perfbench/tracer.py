"""Traced launcher: one timingq CLI invocation run in-process through
`timingq.cli.main`, with the package's public functions wrapped in spans.

    python3 perfbench/tracer.py spans|memory SPANS_JSON <timingq arguments...>

The wrappers are installed from outside the package, in every namespace
that holds a name (`from .x import f` copies it), so the package itself is
unchanged.  Spans are kept in memory and written to SPANS_JSON when the
invocation ends:

    {"import_s": float,
     "spans": [[name, start_ns, end_ns, parent_index or -1], ...],
     "counts": {name: int}, "peak_bytes": {name: int}}

In `memory` mode `simulate` and `ml_decode` also run under tracemalloc,
which records their peak allocation but slows them several-fold, so the
span times of that mode are not used.

Spans nest on one stack, so the CLI must run single-threaded
(`--threads 1`).  Like launch.py, the first stderr line marks the moment
`timingq.cli` finished importing.
"""

import functools
import json
import sys
import time
import tracemalloc


class Tracer:
    """In-memory span recorder with per-name counters and memory peaks."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = {}
        self.peak_bytes = {}

    def count(self, key, n):
        self.counts[key] = self.counts.get(key, 0) + int(n)

    def wrap(self, name, fn, peak=False, on_call=None, on_return=None):
        """Wrap fn in a span called name.

        peak: record the tracemalloc peak above the allocation level at
        entry (tracemalloc runs only inside such calls, which never nest).
        on_call(args, kwargs) / on_return(args, result) update counters.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_call is not None:
                on_call(args, kwargs)
            if peak:
                tracemalloc.start()
                base = tracemalloc.get_traced_memory()[0]
            span = [name, 0, 0, self.stack[-1] if self.stack else -1]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            span[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter_ns()
                self.stack.pop()
                if peak:
                    used = tracemalloc.get_traced_memory()[1] - base
                    tracemalloc.stop()
                    self.peak_bytes[name] = max(self.peak_bytes.get(name, 0), used)
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def dump(self, path, import_s):
        with open(path, "w") as fh:
            json.dump({"import_s": import_s, "spans": self.spans,
                       "counts": self.counts, "peak_bytes": self.peak_bytes}, fh)


class CountedGaps:
    """Iterator over an `encode` generator that counts the gaps pulled."""

    def __init__(self, gen):
        self._gen = gen
        self.pulled = 0

    def __iter__(self):
        return self

    def __next__(self):
        gap = next(self._gen)
        self.pulled += 1
        return gap


def install(tracer, memory):
    """Replace the public functions of every layer with traced wrappers;
    with memory set, `simulate` and `ml_decode` also record peaks."""
    import numpy as np

    from timingq import (_output, achievability, bounds, coding,
                         distributions, queue_sim)

    def patch(name, owners, attr, **hooks):
        original = getattr(owners[0], attr)
        for owner in owners[1:]:
            if getattr(owner, attr) is not original:
                raise RuntimeError(f"{owner.__name__}.{attr} is not {name}")
        wrapped = tracer.wrap(name, original, **hooks)
        for owner in owners:
            setattr(owner, attr, wrapped)

    def count_points(args, kwargs):
        d = args[1] if len(args) > 1 else kwargs["d"]
        tracer.count("distributions.NumericalConvolution.log_pdf.points",
                     np.size(d))

    def count_useful(args, trace):
        arrival = args[0].arrival
        if isinstance(arrival, CountedGaps):
            tracer.count("coding.encode.gaps_pulled", arrival.pulled)
            tracer.count("coding.encode.arrivals_used",
                         len(trace.arrival_epochs))

    conv, book = distributions.NumericalConvolution, coding.Codebook
    patch("distributions.hypoexp_entropy", [distributions, bounds],
          "hypoexp_entropy")
    patch("distributions.NumericalConvolution.log_pdf", [conv], "log_pdf",
          on_call=count_points)
    patch("distributions.NumericalConvolution.entropy", [conv], "entropy")
    patch("distributions.Erlang.entropy", [distributions.Erlang], "entropy")
    patch("bounds.rate_R", [bounds, achievability], "rate_R")
    for attr in ("cas_bound", "universal_bound_at", "sweep", "maximize_rate"):
        patch(f"bounds.{attr}", [bounds], attr)
    patch("queue_sim.simulate", [queue_sim, achievability], "simulate",
          peak=memory, on_return=count_useful)
    patch("queue_sim.trace_csv", [queue_sim], "trace_csv")
    patch("coding.ml_decode", [coding, achievability], "ml_decode",
          peak=memory)
    patch("coding.Codebook.epoch_matrix", [book], "epoch_matrix")
    patch("coding.Codebook.gaps", [book], "gaps")
    patch("achievability.info_density_trial", [achievability],
          "info_density_trial")
    patch("achievability.decode_rate_experiment", [achievability],
          "decode_rate_experiment")
    patch("output.csv_text", [_output], "csv_text")
    patch("output.json_text", [_output], "json_text")

    encode = coding.encode
    if achievability.encode is not encode:
        raise RuntimeError("achievability.encode is not coding.encode")

    def counted_encode(codebook, u):
        return CountedGaps(encode(codebook, u))

    coding.encode = achievability.encode = counted_encode


def main(argv):
    mode, spans_path, cli_args = argv[0], argv[1], argv[2:]
    start = time.perf_counter_ns()
    import timingq.cli
    import_s = (time.perf_counter_ns() - start) / 1e9
    sys.stderr.write(f"perfbench-import-ns {time.monotonic_ns()}\n")
    sys.stderr.flush()

    tracer = Tracer()
    install(tracer, memory=mode == "memory")
    try:
        return tracer.wrap("cli.main", timingq.cli.main)(cli_args)
    finally:
        tracer.dump(spans_path, import_s)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
