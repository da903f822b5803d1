"""timingq benchmark: run one workload's CLI invocations the way users do
and print its end-to-end metrics (--trace 0) or per-layer metrics (--trace 1).

    python3 perfbench/run.py --workload analytic --seed 1 --seconds 50 --trace 0

Every invocation is a fresh interpreter spawned from this process, with
the workload seed passed as `--seed`.  A pass runs the workload's
invocations once, in order; passes repeat until --seconds have elapsed and
each timing is the median over passes.  Every output is checked
(checks.py); an invocation that exits non-zero, times out or fails its
check counts as failed.

A shared machine's speed can drift by a quarter within minutes, so
before every untraced pass the benchmark also times a reference task that
the program cannot change: starting python3 and importing the numpy and
scipy modules timingq uses.  The gated times (wall_s, setup_s, compute_s)
are the raw medians scaled by REFERENCE_S / median reference time, i.e.
seconds on a machine where the reference takes REFERENCE_S; the raw
medians and the reference time are reported next to them.

--trace 1 first runs untraced passes for a quarter of the time, then
traced passes (tracer.py) for a third, then one pass with tracemalloc on
for the peak_mb figures.  It reports per-layer metrics from the traced
passes plus the tracing overhead: traced minus untraced post-import time
(raw seconds, like every per-layer time).

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics.  The full record (provenance, every invocation, the
output deviations from the stored references) is written to
perfbench/out/<workload>-seed<seed>-trace<0|1>.json.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import checks
import spec

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
STAMP = "perfbench-import-ns "
INVOCATION_TIMEOUT_S = 60
MIN_PASSES = 3
REFERENCE = ["-c", "import numpy, scipy.integrate, scipy.optimize, "
                   "scipy.special, scipy.stats"]
REFERENCE_S = 1.0


@dataclass
class Invocation:
    argv: list
    spawn_ns: int
    import_ns: int
    exit_ns: int
    returncode: int
    timed_out: bool
    maxrss_kib: int
    stdout: bytes
    stderr: str
    spans: dict | None = None
    problem: str | None = None
    work: dict = field(default_factory=dict)

    @property
    def setup_s(self) -> float:
        return (self.import_ns - self.spawn_ns) / 1e9

    @property
    def work_s(self) -> float:
        return (self.exit_ns - self.import_ns) / 1e9


def _env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    # one core per run: no BLAS thread pools
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env.pop("TIMINGQ_OUTDIR", None)
    return env


ENV = _env()


def invoke(argv, seed: int, trace: str | None = None) -> Invocation:
    """Spawn one CLI invocation and wait for it, with its rusage.

    trace: None for the plain launcher, else the tracer mode
    ("spans" or "memory").
    """
    cli = [*argv, "--seed", str(seed)]
    spans_path = OUT / "spans.json"
    spans_path.unlink(missing_ok=True)
    if trace:
        cmd = [sys.executable, str(HERE / "tracer.py"), trace, str(spans_path),
               *cli]
    else:
        cmd = [sys.executable, str(HERE / "launch.py"), *cli]
    fired = threading.Event()
    with open(OUT / "stdout", "wb") as out, open(OUT / "stderr", "wb") as err:
        spawn_ns = time.monotonic_ns()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=ENV, cwd=ROOT)

        def kill():
            fired.set()
            proc.kill()

        killer = threading.Timer(INVOCATION_TIMEOUT_S, kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            exit_ns = time.monotonic_ns()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
            killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    lines = (OUT / "stderr").read_bytes().decode(errors="replace").splitlines()
    import_ns = exit_ns
    if lines and lines[0].startswith(STAMP):
        import_ns = int(lines.pop(0)[len(STAMP):])
    inv = Invocation(argv=argv, spawn_ns=spawn_ns, import_ns=import_ns,
                     exit_ns=exit_ns, returncode=proc.returncode,
                     timed_out=fired.is_set(), maxrss_kib=usage.ru_maxrss,
                     stdout=(OUT / "stdout").read_bytes(),
                     stderr="\n".join(lines))
    if spans_path.exists():
        inv.spans = json.loads(spans_path.read_text())
    return inv


class Checker:
    """Checks outputs, once per distinct output of each command."""

    def __init__(self, seed: int, refs: dict):
        self.seed = seed
        self.refs = refs
        self.first = {}
        self.verdicts = {}

    def __call__(self, inv: Invocation) -> None:
        if inv.timed_out:
            inv.problem = f"timed out after {INVOCATION_TIMEOUT_S} s"
        elif inv.returncode != 0:
            inv.problem = f"exit code {inv.returncode}: {inv.stderr[-500:]}"
        elif inv.import_ns == inv.exit_ns:
            inv.problem = "no import stamp on stderr"
        if inv.problem:
            return
        key = checks.key(inv.argv)
        digest = checks.sha256(inv.stdout)
        first = self.first.setdefault(key, digest)
        if digest != first:
            # the CLI promises identical bytes for identical config and seed,
            # traced or not
            inv.problem = "output bytes differ from the first pass"
            return
        if digest not in self.verdicts:
            self.verdicts[digest] = checks.check(inv.argv, inv.stdout,
                                                 self.seed, self.refs)
        inv.problem, inv.work, _ = self.verdicts[digest]

    def deviations(self) -> dict:
        return {key: self.verdicts[digest][2]
                for key, digest in self.first.items() if digest in self.verdicts}


def reference_s() -> float:
    """Wall time of one reference task (see the module docstring)."""
    start = time.monotonic_ns()
    subprocess.run([sys.executable, *REFERENCE], env=ENV, cwd=ROOT, check=True,
                   timeout=INVOCATION_TIMEOUT_S)
    return (time.monotonic_ns() - start) / 1e9


def run_passes(commands, seed, trace, seconds, min_passes, check, refs=None):
    """Repeat passes for `seconds` (at least min_passes); with refs given,
    time the reference task before each pass and append it to refs."""
    start = time.monotonic()
    passes = []
    while len(passes) < min_passes or time.monotonic() - start < seconds:
        if refs is not None:
            refs.append(reference_s())
        invs = [invoke(argv, seed, trace) for argv in commands]
        for inv in invs:
            check(inv)
        passes.append(invs)
    return passes


def _wall_s(invs) -> float:
    return (invs[-1].exit_ns - invs[0].spawn_ns) / 1e9


def _setup_s(invs) -> float:
    return sum(inv.setup_s for inv in invs)


def end_to_end(passes, refs) -> tuple[dict, dict]:
    """Medians over passes of the end-to-end metrics: the gated ones and
    the reported ones (raw times, and throughputs that exist only on some
    workloads)."""
    walls = [_wall_s(p) for p in passes]
    setups = [_setup_s(p) for p in passes]
    computes = [w - s for w, s in zip(walls, setups)]
    raw = {"wall_s": statistics.median(walls),
           "setup_s": statistics.median(setups),
           "compute_s": statistics.median(computes)}
    reference = statistics.median(refs)
    gated = {name: value * REFERENCE_S / reference
             for name, value in raw.items()}
    gated["peak_rss_mb"] = max(inv.maxrss_kib for p in passes
                               for inv in p) / 1024
    report = {f"raw_{name}": value for name, value in raw.items()}
    report["reference_s"] = reference
    points = [sum(inv.work.get("points", 0) for inv in p) for p in passes]
    if any(points):
        report["points_per_s"] = statistics.median(
            [n / c for n, c in zip(points, computes)])
    for unit, metric in (("trials", "trials_per_s"),
                         ("departures", "departures_per_s")):
        rates = []
        for p in passes:
            doing = [inv for inv in p if inv.work.get(unit)]
            if doing:
                rates.append(sum(inv.work[unit] for inv in doing)
                             / sum(inv.work_s for inv in doing))
        if rates:
            report[metric] = statistics.median(rates)
    return gated, report


def self_times(spans) -> list:
    """(name, self seconds) per span: duration minus child coverage."""
    children = [[] for _ in spans]
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = []
    for (name, start, end, _), kids in zip(spans, children):
        covered, reach = 0, start
        for c_start, c_end in sorted(kids):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((name, (end - start - covered) / 1e9))
    return out


def layer_metrics(invs, names) -> dict:
    """Per-layer metrics of one traced pass (peak_mb is 0 unless the pass
    ran in memory mode)."""
    calls, self_s, counts, peaks = {}, {}, {}, {}
    import_s = self_sum = 0.0
    for inv in invs:
        if inv.spans is None:
            continue
        import_s += inv.spans["import_s"]
        for name, seconds in self_times(inv.spans["spans"]):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + seconds
            self_sum += seconds
        for name, n in inv.spans["counts"].items():
            counts[name] = counts.get(name, 0) + n
        for name, n in inv.spans["peak_bytes"].items():
            peaks[name] = max(peaks.get(name, 0), n)
    work = sum(inv.work_s for inv in invs)
    out = {}
    for metric in names:
        layer, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls.get(layer, 0)
        elif stat == "self_s":
            out[metric] = self_s.get(layer, 0.0)
        elif stat == "peak_mb":
            out[metric] = peaks.get(layer, 0) / 2**20
        elif stat == "points":
            out[metric] = counts.get(metric, 0)
    log_pdf = "distributions.NumericalConvolution.log_pdf"
    points = counts.get(f"{log_pdf}.points", 0)
    out[f"{log_pdf}.points_per_s"] = (points / self_s[log_pdf]
                                      if points else 0.0)
    pulled = counts.get("coding.encode.gaps_pulled", 0)
    out["coding.encode.gaps_pulled"] = pulled
    out["coding.encode.useful_ratio"] = (
        counts.get("coding.encode.arrivals_used", 0) / pulled if pulled else 0.0)
    out["cli.import_s"] = import_s
    # the root spans' self times partition their durations, so this is the
    # share of the post-import time the spans account for
    out["trace.self_share"] = self_sum / work
    return out


def provenance(seed: int) -> dict:
    commit = None
    try:
        # the checkout need not be a repository: do not look above it
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        result = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                                capture_output=True, text=True, timeout=30)
        if result.returncode == 0:
            commit = result.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    versions = {}
    for package in ("numpy", "scipy"):
        try:
            versions[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            versions[package] = None
    return {"commit": commit, "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), **versions, "seed": seed}


def _record(inv: Invocation, mode: str) -> dict:
    return {"argv": inv.argv, "mode": mode, "setup_s": inv.setup_s,
            "work_s": inv.work_s, "returncode": inv.returncode,
            "maxrss_kib": inv.maxrss_kib,
            "stdout_sha256": checks.sha256(inv.stdout), "problem": inv.problem}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "timingq" / "cli.py").is_file():
        sys.exit(f"perfbench: no timingq source under {ROOT / 'src'}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((HERE / "refs.json").read_text())
    OUT.mkdir(exist_ok=True)
    # compile bytecode and warm the file cache before anything is timed
    subprocess.run([sys.executable, "-c", "import timingq.cli"], env=ENV,
                   cwd=ROOT, check=True, timeout=INVOCATION_TIMEOUT_S)

    commands = spec.WORKLOADS[args.workload]["commands"]
    check = Checker(args.seed, refs)
    refs = []
    if args.trace:
        # the memory pass takes about as long as two traced passes
        plain = run_passes(commands, args.seed, None, args.seconds / 4, 1, check,
                           refs)
        traced = run_passes(commands, args.seed, "spans", args.seconds / 3, 1,
                            check)
        memory = run_passes(commands, args.seed, "memory", 0, 1, check)
    else:
        plain = run_passes(commands, args.seed, None, args.seconds,
                           MIN_PASSES, check, refs)
        traced = memory = []

    gated, report = end_to_end(plain, refs)
    modes = {"plain": plain, "spans": traced, "memory": memory}
    invocations = [inv for passes in modes.values() for p in passes for inv in p]
    failed = sum(inv.problem is not None for inv in invocations)
    report["failed_frac"] = failed / len(invocations)
    e2e_units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layer_units = {m["name"]: m["unit"] for m in declared["per_layer"]}
    if args.trace:
        per_pass = [layer_metrics(p, layer_units) for p in traced]
        layers = {name: statistics.median([m[name] for m in per_pass])
                  for name in per_pass[0]}
        for name, value in layer_metrics(memory[0], layer_units).items():
            if name.endswith(".peak_mb"):
                layers[name] = value
        traced_compute = statistics.median(
            [_wall_s(p) - _setup_s(p) for p in traced])
        layers["trace.overhead_s"] = traced_compute - report["raw_compute_s"]
        shown, units = layers, layer_units
    else:
        layers = None
        shown, units = gated, e2e_units
    if set(shown) != set(units):
        raise RuntimeError(f"metrics {sorted(set(shown) ^ set(units))} are "
                           "not both declared and measured")

    record = {
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "provenance": provenance(args.seed),
        "commands": commands,
        "passes": {mode: len(passes) for mode, passes in modes.items()},
        "end_to_end": gated, "report": report, "per_layer": layers,
        "deviations": check.deviations(),
        "invocations": [_record(inv, mode) for mode, passes in modes.items()
                        for p in passes for inv in p],
    }
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n")

    for name, value in gated.items():
        print(f"{name} = {value:.6g} {e2e_units[name]}")
    for name, value in report.items():
        print(f"{name} = {value:.6g} {spec.REPORT_METRICS[name][0]}")
    for name, value in (layers or {}).items():
        print(f"{name} = {value:.6g} {layer_units[name]}")
    for inv in invocations:
        if inv.problem:
            print(f"FAILED {checks.key(inv.argv)}: {inv.problem}")
    print(f"record: {out_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": failed == 0, "attempted": len(invocations), "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
