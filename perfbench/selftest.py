"""Self-test of the benchmark.

    python3 perfbench/selftest.py

Checks that BENCHMARK.json and spec.py agree, that the output check
accepts genuine outputs and rejects corrupted ones (a perturbed bound, a
changed decode count, a broken simulate row), and that a short traced run
of every workload reports every per-layer metric, with the layers each
workload exercises non-zero.  Takes about a minute; exits non-zero on the
first failure.
"""

import json
import subprocess
import sys

import checks
import run
import spec

OTHER_SEED = 7


def expect(cond, message):
    if not cond:
        sys.exit(f"FAIL: {message}")
    print(f"ok: {message}")


def output(argv, seed):
    inv = run.invoke(argv, seed)
    expect(inv.returncode == 0, f"{checks.key(argv)} --seed {seed} exits 0")
    return inv.stdout


def verdict(argv, stdout, seed, refs):
    return checks.check(argv, stdout, seed, refs)[0]


def test_declarations(declared):
    expect([w["name"] for w in declared["workloads"]] == list(spec.WORKLOADS),
           "BENCHMARK.json workloads match spec.WORKLOADS")
    expect([m["name"] for m in declared["per_layer"]] == list(spec.LAYER_MAP),
           "BENCHMARK.json per-layer metrics match spec.LAYER_MAP")
    expect({m["name"] for m in declared["end_to_end"]}
           == {"wall_s", "setup_s", "compute_s", "peak_rss_mb"},
           "BENCHMARK.json end-to-end metrics are the gated ones run.py reports")


def test_corruption(refs):
    seed = spec.REFERENCE_SEED
    bounds = spec.WORKLOADS["analytic"]["commands"][0]
    text = output(bounds, seed)
    expect(verdict(bounds, text, seed, refs) is None, "genuine bounds accepted")
    lines = text.decode().splitlines()
    cells = lines[3].split(",")
    cells[1] = repr(float(cells[1]) + 1e-6)
    lines[3] = ",".join(cells)
    bad = ("\n".join(lines) + "\n").encode()
    expect(verdict(bounds, bad, seed, refs) is not None,
           "bounds with one float moved by 1e-6 rejected")

    decode = spec.WORKLOADS["queue"]["commands"][0]
    small = ["decode", "--M", "16", "--n", "2", "--lam", "0.456", "--mu", "1",
             "--trials", "20", "--threads", "1"]
    for argv, seed in ((decode, spec.REFERENCE_SEED), (small, OTHER_SEED)):
        text = output(argv, seed)
        expect(verdict(argv, text, seed, refs) is None,
               f"genuine decode output accepted at seed {seed}")
        payload = json.loads(text)
        payload["rows"][0]["errors"] += 1
        bad = (json.dumps(payload, sort_keys=True, indent=2) + "\n").encode()
        expect(verdict(argv, bad, seed, refs) is not None,
               f"decode with one changed error count rejected at seed {seed}")

    simulate = ["simulate", "--lam", "0.456", "--mu", "1", "--n", "50"]
    text = output(simulate, OTHER_SEED)
    expect(verdict(simulate, text, OTHER_SEED, refs) is None,
           "genuine simulate output accepted")
    lines = text.decode().splitlines()
    cells = lines[10].split(",")
    cells[4] = repr(float(cells[4]) * (1 + 1e-12))
    lines[10] = ",".join(cells)
    bad = ("\n".join(lines) + "\n").encode()
    expect(verdict(simulate, bad, OTHER_SEED, refs) is not None,
           "simulate with one D_i off by 1e-12 relative rejected")


def test_traced_runs(declared):
    names = {m["name"] for m in declared["per_layer"]}
    for workload in spec.WORKLOADS:
        result = subprocess.run(
            [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
             "--seed", str(OTHER_SEED), "--seconds", "1", "--trace", "1"],
            capture_output=True, text=True, timeout=170, check=True)
        last = json.loads(result.stdout.strip().splitlines()[-1])
        expect(last["correct"] and last["failed"] == 0,
               f"traced {workload} run is correct")
        expect(set(last["metrics"]) == names,
               f"traced {workload} run reports every per-layer metric")
        zero = [n for n in spec.EXPECTED_NONZERO[workload]
                if not last["metrics"][n]["value"] > 0]
        expect(not zero, f"traced {workload} run exercises its layers"
               + (f" (zero: {zero})" if zero else ""))


def main():
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    refs = json.loads((run.HERE / "refs.json").read_text())
    run.OUT.mkdir(exist_ok=True)
    test_declarations(declared)
    test_corruption(refs)
    test_traced_runs(declared)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
