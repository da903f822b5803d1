"""The program keeps the contract that `perfbench/` relies on.

The benchmark's tracer wraps the package's layers by name, and its output
checks compare every workload command with stored references.  A rename
or an output change in the package breaks the benchmark; these tests
catch that here rather than when the benchmark runs.  They read
`perfbench/` and write nothing there: every invocation is a fresh
interpreter whose outputs go to pipes or to pytest's temporary directory.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def _load(name):
    # no bytecode cache written into perfbench/
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


bench_spec, checks = _load("spec"), _load("checks")
REFS = json.loads((PERFBENCH / "refs.json").read_text())


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("TIMINGQ_OUTDIR", None)
    return env


def _launch(script, *args):
    return subprocess.run([sys.executable, str(PERFBENCH / script), *args],
                          capture_output=True, cwd=ROOT, env=_env(), timeout=120)


def test_tracer_finds_every_layer_it_patches(tmp_path):
    spans_path = tmp_path / "spans.json"
    names, counts = set(), {}
    for argv in (["bounds", "--mu", "1", "--service", "erlang:2:2",
                  "--rho", "0.05:10:3", "--seed", "1"],
                 ["decode", "--M", "16", "--n", "2", "--lam", "0.456", "--mu", "1",
                  "--trials", "3", "--threads", "1", "--seed", "1"]):
        proc = _launch("tracer.py", "spans", str(spans_path), *argv)
        assert proc.returncode == 0, proc.stderr.decode()
        record = json.loads(spans_path.read_text())
        names |= {span[0] for span in record["spans"]}
        for key, value in record["counts"].items():
            counts[key] = counts.get(key, 0) + value
    assert {"distributions.NumericalConvolution.entropy",
            "distributions.Erlang.entropy", "bounds.cas_bound",
            "queue_sim.simulate", "coding.ml_decode"} <= names
    assert counts.get("coding.encode.gaps_pulled", 0) > 0


COMMANDS = [argv for workload in bench_spec.WORKLOADS.values()
            for argv in workload["commands"]]


@pytest.mark.parametrize("argv", COMMANDS, ids=checks.key)
def test_workload_output_passes_its_check(argv):
    seed = bench_spec.REFERENCE_SEED
    proc = _launch("launch.py", *argv, "--seed", str(seed))
    assert proc.returncode == 0, proc.stderr.decode()
    problem, _, _ = checks.check(argv, proc.stdout, seed, REFS)
    assert problem is None, problem
