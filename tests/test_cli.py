import ast
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import textwrap
import tracemalloc
import warnings
from datetime import timedelta
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import timingq
import timingq.cli as cli
from conftest import RATE_STAR, RHO_STAR
from timingq.cli import (
    DEFAULT_SEED,
    ValidationError,
    main,
    parse_grid,
    parse_int_list,
    parse_service,
)
from timingq import Erlang, Exponential, Uniform, achievability


HAND_ROWS = "0,0,2.5,,2.5,2.5\n1,3,1.0,0.5,1.5,4.0\n"
HAND_TRACE = os.path.join(os.path.dirname(__file__), "fixtures", "hand_trace.json")


@pytest.fixture()
def fixture_file(tmp_path):
    path = tmp_path / "hand_trace.json"
    path.write_text(json.dumps({
        "arrival_gaps": [0, 1, 1, 1],
        "service_times": [2.5, 1.0],
        "n": 1,
    }))
    return path


# ---------------------------------------------------------------- parsing

def test_parse_service_kinds():
    assert parse_service("exponential:2") == Exponential(2.0)
    assert parse_service("exp:2") == Exponential(2.0)
    assert parse_service("erlang:2:4") == Erlang(2, 4.0)
    assert parse_service("uniform:0:2") == Uniform(0.0, 2.0)
    assert parse_service("det:1.5").value == 1.5


def test_parse_service_rejects_garbage():
    for text in ("gamma:1", "exp", "exp:0", "uniform:2:1", "erlang:1.5:2",
                 "exp:inf", "det:inf", "uniform:0:inf", "erlang:2:inf",
                 # finite parameters whose mean overflows
                 "exp:1e-320", "erlang:2:1e-320", "uniform:1e308:1.7e308",
                 f"erlang:{10**400}:1",
                 # a mean that underflows, or whose reciprocal overflows
                 "uniform:0:5e-324", "det:5e-324", "exp:1.7976931348623157e308"):
        with pytest.raises(ValidationError):
            parse_service(text)


def test_parse_grid():
    grid = parse_grid("1:5:5")
    assert np.allclose(grid, [1, 2, 3, 4, 5])
    logs = parse_grid("0.01:1:3", log=True)
    assert np.allclose(logs, [0.01, 0.1, 1.0])
    with pytest.raises(ValidationError):
        parse_grid("5:1:3")
    with pytest.raises(ValidationError):
        parse_grid("1:5")
    with pytest.raises(ValidationError):
        parse_grid("0:5:3", log=True)
    for text in ("0.05:inf:3", "0.05:nan:3", "-inf:1:3"):
        with pytest.raises(ValidationError):
            parse_grid(text)


def test_parse_int_list():
    assert parse_int_list("100", "--n") == [100]
    assert parse_int_list("10,20,30", "--n") == [10, 20, 30]
    with pytest.raises(ValidationError):
        parse_int_list("10,zero", "--n")
    with pytest.raises(ValidationError):
        parse_int_list("0,5", "--M")


# ------------------------------------------------------------- subcommands

def test_simulate_fixture_reproduces_hand_trace(fixture_file, tmp_path):
    out = tmp_path / "trace.csv"
    rc = main(["simulate", "--fixture", str(fixture_file), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    lines = text.split("\n")
    assert lines[0].startswith("# {")
    assert lines[1] == "i,k_i,S_i,W_{i-1},D_i,departure_epoch"
    assert "\n".join(lines[2:]) == HAND_ROWS


def test_simulate_seeded_run(tmp_path):
    out = tmp_path / "trace.csv"
    rc = main(["simulate", "--lam", "0.5", "--mu", "1.0", "--n", "50",
               "--seed", "4", "--out", str(out)])
    assert rc == 0
    body = out.read_text()
    assert body.count("\n") == 53  # comment + column row + 51 departure rows
    assert '"seed": 4' in body.split("\n")[0]


def test_bounds_csv_peak_near_known_value(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["bounds", "--mu", "1", "--rho", "0.2:1:81", "--no-cas",
               "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[2:]]
    rate = np.array([float(r[1]) for r in rows])
    universal = np.array([float(r[2]) for r in rows])
    assert abs(rate.max() - RATE_STAR) < 5e-4
    assert np.all(rate <= universal)


def test_bounds_includes_convolution_column(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["bounds", "--mu", "1", "--rho", "0.3:0.6:4", "--out", str(out)])
    assert rc == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[2:]]
    for r in rows:
        assert abs(float(r[3]) - float(r[1])) < 1e-9


def _fresh_interpreter(args, timeout=300) -> bytes:
    """Run python with `args` and src/ on the path; return its stdout."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(timingq.__file__)))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, timeout=timeout)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_analytic_run_loads_no_heavy_scipy_modules(tmp_path):
    # the shipped laws need only scipy.special; importing scipy.integrate,
    # optimize or stats would add about a second of start-up to every run
    script = textwrap.dedent(f"""
        import json, sys
        heavy = ("scipy.integrate", "scipy.optimize", "scipy.stats")
        import timingq.cli
        loaded = {{"import": [m for m in heavy if m in sys.modules]}}
        rc = timingq.cli.main(["bounds", "--mu", "1", "--service", "erlang:2:2",
                               "--rho", "0.05:10:3", "--out", {str(tmp_path / "b.csv")!r}])
        loaded["main"] = [m for m in heavy if m in sys.modules]
        print(json.dumps({{"rc": rc, "loaded": loaded}}))
    """)
    result = json.loads(_fresh_interpreter(["-c", script]))
    assert result == {"rc": 0, "loaded": {"import": [], "main": []}}


def test_src_imports_no_cross_check_scipy():
    # scipy.optimize, scipy.integrate, scipy.stats and logsumexp serve only
    # the oracles in tests/; the library must not import them, lazily or not
    forbidden = ("scipy.optimize", "scipy.integrate", "scipy.stats")
    package = os.path.dirname(os.path.abspath(timingq.__file__))
    for name in sorted(os.listdir(package)):
        if not name.endswith(".py"):
            continue
        with open(os.path.join(package, name)) as fh:
            tree = ast.parse(fh.read(), filename=name)
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                imported = [module] + [f"{module}.{alias.name}"
                                       for alias in node.names]
            else:
                continue
            for dotted in imported:
                assert not dotted.startswith(forbidden), (name, dotted)
                assert dotted.split(".")[-1] != "logsumexp", (name, dotted)


def test_only_the_cli_module_freezes_the_import_heap():
    # the CLI freezes what its imports left so that interpreter teardown
    # does not walk it again; a library importer keeps its collector state
    script = textwrap.dedent("""
        import gc, json
        import timingq
        library = gc.get_freeze_count()
        import timingq.cli
        print(json.dumps([library, gc.get_freeze_count(), len(gc.get_objects())]))
    """)
    library, frozen, tracked = json.loads(_fresh_interpreter(["-c", script]))
    assert library == 0
    assert frozen > 10_000
    assert tracked < 1_000


def test_cli_stdout_survives_teardown(tmp_path):
    # a large output piped out of a frozen-heap process arrives whole
    argv = ["-m", "timingq.cli", "simulate", "--lam", "0.456", "--mu", "1",
            "--n", "100000"]
    piped = _fresh_interpreter(argv)
    out = tmp_path / "trace.csv"
    assert _fresh_interpreter([*argv, "--out", str(out)]) == b""
    assert piped == out.read_bytes()


def test_package_exports_match_module_exports():
    # the package re-exports each module's own __all__; a name listed by two
    # modules would be shadowed by the later star import
    modules = [importlib.import_module(f"timingq.{name}") for name in
               ("achievability", "bounds", "coding", "distributions", "queue_sim")]
    assert len(set(timingq.__all__)) == len(timingq.__all__)
    assert set(timingq.__all__) == {name for m in modules for name in m.__all__}
    for module in modules:
        for name in module.__all__:
            assert getattr(timingq, name) is getattr(module, name), (
                name, module.__name__)


def test_optimum_json(tmp_path):
    out = tmp_path / "opt.json"
    rc = main(["optimum", "--mu", "1", "--bracket", "0.3:0.7",
               "--tol", "1e-5", "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert abs(data["value"] - RATE_STAR) < 1e-8
    assert data["config"]["seed"] == DEFAULT_SEED
    assert data["config"]["command"] == "optimum"


def test_infodensity_csv(tmp_path):
    out = tmp_path / "density.csv"
    rc = main(["infodensity", "--lam", "0.456", "--mu", "1", "--n", "200,400",
               "--trials", "12", "--seed", "7", "--out", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[1] == "n,mean,stderr,tail_fraction"
    assert len(lines) == 4


def test_infodensity_json_format(tmp_path):
    out = tmp_path / "density.json"
    rc = main(["infodensity", "--lam", "0.456", "--mu", "1", "--n", "300",
               "--trials", "8", "--seed", "7", "--format", "json",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert data["rows"][0]["n"] == 300
    assert 0.0 <= data["rows"][0]["tail_fraction"] <= 1.0


def test_infodensity_with_every_trial_failed_reports_nan(tmp_path, monkeypatch):
    def zero_density(*args):
        raise achievability.TrialFailure("zero density at a sampled point")

    monkeypatch.setattr(achievability, "info_density_trial", zero_density)
    argv = ["infodensity", "--lam", "0.5", "--mu", "1", "--n", "10", "--trials", "3"]
    out = tmp_path / "x.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert out.read_text().endswith("\nn,mean,stderr,tail_fraction\n10,nan,nan,nan\n")
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["failed_trials"] == 3
    assert all(math.isnan(row[k]) for k in ("mean", "stderr", "tail_fraction"))


def test_infodensity_with_negligible_service_is_finite(tmp_path):
    # (beta - lam) d passes 1e300, where the density is lam e^(-lam d): no
    # trial may fail and no overflow warning may show
    out = tmp_path / "x.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["infodensity", "--lam", "1e-300", "--service", "erlang:2:1e300",
                     "--n", "10", "--trials", "3", "--format", "json",
                     "--out", str(out)]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["failed_trials"] == 0
    assert all(math.isfinite(row[k]) for k in ("mean", "stderr", "tail_fraction"))


def test_infodensity_at_the_largest_erlang_shape_is_quick(tmp_path):
    # scipy's 1F1 takes time growing with the shape, minutes near 2**53; at
    # the largest shape accepted a short run takes seconds
    _fresh_interpreter(
        ["-m", "timingq.cli", "infodensity", "--lam", "1",
         "--service", "erlang:1048575:1048575",
         "--n", "5", "--trials", "2", "--out", str(tmp_path / "x.csv")],
        timeout=30)


def test_bounds_at_the_largest_erlang_shape(tmp_path):
    # at rho = 0.2 the universal bound is above the 1.3801 of the blunter
    # erlang:1000000:1000000; the closed-form Erlang entropy, which read 0.0
    # at 2**53, errs by 8.9e-11 at this shape
    out = tmp_path / "x.csv"
    assert main(["bounds", "--mu", "1", "--service", "erlang:1048575:1048575",
                 "--rho", "0.2:2:3", "--no-cas", "--out", str(out)]) == 0
    row = out.read_text().splitlines()[2].split(",")
    assert row[0] == "0.2"
    assert abs(float(row[2]) - 1.3840487638) <= 1e-9


def test_infodensity_at_the_largest_erlang_shape_is_near_zero(tmp_path):
    # S ~ Erlang(2**20 - 1, 1) dwarfs W ~ Exp(1): the density per unit time
    # has mean cas_bound = 4.5e-13 and a spread near 2e-10 per trial, from
    # the service's relative width of 1e-3
    out = tmp_path / "x.json"
    assert main(["infodensity", "--lam", "1", "--service", "erlang:1048575:1",
                 "--n", "20", "--trials", "2", "--target", "0.1", "--format", "json",
                 "--out", str(out)]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["failed_trials"] == 0
    assert abs(row["mean"]) <= 1e-9


@pytest.mark.parametrize("argv", [
    ["bounds", "--mu", "1", "--rho", "0.5:1:2"],
    ["simulate", "--lam", "0.5", "--n", "5"],
    ["infodensity", "--lam", "0.5", "--n", "20", "--trials", "2"]],
    ids=lambda argv: argv[0])
def test_erlang_shapes_stop_below_2_to_the_20(argv):
    # the largest shape accepted, and the first refused with one line
    rc, out, err = _run(argv + ["--service", "erlang:1048575:1048575"])
    assert rc == 0 and err == "" and out
    rc, _, err = _run(argv + ["--service", "erlang:1048576:1048576"])
    assert rc == 1 and err.startswith("error: --service: shape must be below 2**20")


def test_infodensity_stderr_stays_finite_at_huge_densities(tmp_path):
    # densities near 1e249 have squares past the float range
    out = tmp_path / "x.json"
    assert main(["infodensity", "--lam", "1e250", "--service", "uniform:0:1e-250",
                 "--n", "10", "--trials", "3", "--format", "json",
                 "--out", str(out)]) == 0
    row = json.loads(out.read_text())["rows"][0]
    assert row["failed_trials"] == 0
    assert 0.0 < row["stderr"] < math.inf and math.isfinite(row["mean"])


def test_decode_json(tmp_path):
    out = tmp_path / "decode.json"
    rc = main(["decode", "--M", "4", "--lam", "0.456", "--mu", "1",
               "--n", "2,4", "--trials", "30", "--seed", "11",
               "--out", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert [row["n"] for row in data["rows"]] == [2, 4]
    for row in data["rows"]:
        assert row["error_rate"] == row["errors"] / 30


# ------------------------------------------------------------ determinism

def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["decode", "--M", "8", "--lam", "0.5", "--mu", "1", "--n", "3",
            "--trials", "25", "--seed", "3"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_thread_knob_leaves_output_bytes_alone(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["infodensity", "--lam", "0.456", "--mu", "1", "--n", "200",
            "--trials", "16", "--seed", "5"]
    assert main(base + ["--threads", "1", "--out", str(a)]) == 0
    assert main(base + ["--threads", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_output_directory_env(tmp_path, monkeypatch):
    monkeypatch.setenv("TIMINGQ_OUTDIR", str(tmp_path))
    rc = main(["optimum", "--mu", "1", "--bracket", "0.4:0.5",
               "--tol", "1e-4", "--out", "opt.json"])
    assert rc == 0
    assert (tmp_path / "opt.json").exists()


# SHA-256 of the output of small runs with exponential and uniform service,
# pinned so that a change to the CSV/JSON rendering or to these laws shows
GOLDEN = {
    ("simulate", "--lam", "0.456", "--mu", "1", "--n", "200"):
        "bbe992522fc471a6d8840a5f92a6a53db795ebd4c03e9fef533bbd53b3352b40",
    ("bounds", "--mu", "1", "--rho", "0.05:10:6"):
        "cf8b1048ed519da8ca61f60c77ee7070eec758c6f4b3ada1157e429e7b45bb58",
    ("bounds", "--mu", "1", "--rho", "0.05:10:6", "--no-cas"):
        "29dc6b22dca2859c05da55a8e16b37e04c4d863c0ca8582624cd02d9eaa3e881",
    ("infodensity", "--lam", "0.456", "--mu", "1", "--n", "100,1000",
     "--trials", "3"):
        "e9d78d533cd9643ee394c66d12c4e39112e9530c37dcc6729e68fec3657699be",
    ("infodensity", "--lam", "0.456", "--mu", "1", "--n", "100,1000",
     "--trials", "3", "--format", "json"):
        "bfb6bc224bc01a313078d5f2523076dbc4f88d5f28cfbcce8e07a09d2387e4ba",
    ("infodensity", "--lam", "0.456", "--service", "uniform:0:2",
     "--n", "100,1000", "--trials", "3"):
        "6b4b0f5f84a46a8a2ee4ca18226b8658c58685a70886e527d2cd95b3032a9db9",
    ("infodensity", "--lam", "0.456", "--service", "uniform:0:2",
     "--n", "100,1000", "--trials", "3", "--format", "json"):
        "aa7d2f7c82d5d70309edd29cac8ccd7b0e38aeddcd237e850d0682274ddcd1f6",
    ("optimum", "--mu", "1"):
        "3f49eff6d9ed70546cd1b663149070b0be279217d5441e6b3ac7eb346ff37225",
    ("decode", "--M", "4,16", "--n", "2,5", "--lam", "0.5", "--mu", "1",
     "--trials", "20"):
        "c14e1853144bdd32101bb1f386c697402fbb3bb624aaa9c56fd59e0e39cd8adf",
}


@pytest.mark.parametrize("argv", sorted(GOLDEN))
def test_output_bytes_match_pinned_digests(argv, tmp_path):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN[argv]


# -------------------------------------------------------------- exit codes

def test_validation_failures_exit_one(tmp_path, capsys):
    assert main(["bounds", "--mu", "-1", "--out", str(tmp_path / "x.csv")]) == 1
    assert "--mu" in capsys.readouterr().err
    assert main(["bounds", "--mu", "1", "--rho", "nope",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "--rho" in capsys.readouterr().err
    assert main(["bounds", "--mu", "1", "--rho", "0.05:inf:3",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "--rho" in capsys.readouterr().err
    assert main(["bounds", "--mu", "1", "--service", "det:1",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "--service" in capsys.readouterr().err
    # rho * mu overflows to an infinite arrival rate at the top of the grid
    assert main(["bounds", "--mu", "1e200", "--rho", "1:1e200:2",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "--rho" in capsys.readouterr().err
    assert main(["optimum", "--mu", "1e308",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert "--bracket" in capsys.readouterr().err
    # the rate falls across the whole bracket
    assert main(["optimum", "--mu", "1", "--bracket", "5:9",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert "--bracket" in capsys.readouterr().err
    # 1/mu overflows, so every mean service time is infinite
    assert main(["infodensity", "--lam", "1", "--mu", "1e-320", "--n", "10",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert "--mu" in capsys.readouterr().err
    # the same through --service: the law's mean overflows
    for service in ("exp:1e-320", "erlang:2:1e-320", "uniform:1e308:1.7e308"):
        assert main(["infodensity", "--lam", "1", "--service", service,
                     "--n", "10", "--out", str(tmp_path / "x.csv")]) == 1
        assert "--service" in capsys.readouterr().err
    # Erlang shapes of 2**20 and up, among them shapes numpy cannot cast
    for argv in (["infodensity", "--lam", "1", "--service",
                  "erlang:100000000000000000000:1e20", "--n", "20", "--trials", "2"],
                 ["bounds", "--mu", "1e-20", "--service",
                  "erlang:100000000000000000000:1", "--rho", "0.2:2:3"],
                 ["simulate", "--lam", "1", "--service",
                  "erlang:100000000000000000000:1e20", "--n", "20"],
                 ["infodensity", "--lam", "1", "--service",
                  "erlang:9007199254740993:9007199254740993", "--n", "5",
                  "--trials", "2"]):
        assert main(argv + ["--out", str(tmp_path / "x.out")]) == 1
        assert "--service" in capsys.readouterr().err
    assert main(["decode", "--M", "4", "--lam", "inf", "--mu", "1", "--n", "2",
                 "--out", str(tmp_path / "x.json")]) == 1
    assert "--lam" in capsys.readouterr().err
    for flag, value in (("--target", "inf"), ("--gamma", "nan")):
        assert main(["infodensity", "--lam", "0.5", "--mu", "1", "--n", "20",
                     "--trials", "2", flag, value,
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert flag in capsys.readouterr().err
    assert main(["simulate", "--out", str(tmp_path / "x.csv")]) == 1
    capsys.readouterr()
    # every rate given is checked, even one the fixture makes unused
    for flag, value in (("--lam", "0"), ("--mu", "nan")):
        assert main(["simulate", "--fixture", HAND_TRACE, flag, value,
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"error: argument {flag}: ")
    # 1/mu is finite but its reciprocal is not: an infinite service rate
    assert main(["infodensity", "--lam", "1", "--mu", "1.7976931348623157e308",
                 "--n", "20", "--out", str(tmp_path / "x.csv")]) == 1
    assert "--mu" in capsys.readouterr().err
    assert main(["decode", "--M", "0", "--lam", "1", "--mu", "1", "--n", "2",
                 "--out", str(tmp_path / "x.json")]) == 1
    capsys.readouterr()
    # schedules of lengths 3 and 2 do not broadcast
    assert main(["decode", "--M", "2,3,4", "--n", "2,5", "--lam", "1", "--mu", "1",
                 "--trials", "1", "--out", str(tmp_path / "x.json")]) == 1
    err = capsys.readouterr().err
    assert "--M, --n" in err and len(err.strip().splitlines()) == 1
    # finite sizes and rate ratios whose runs would not fit the memory
    # budget exit before allocating anything, naming a flag
    for argv, flag in (
            (["simulate", "--lam", "1", "--service", "det:1e9", "--n", "2"],
             "--service"),
            (["simulate", "--lam", "1", "--mu", "1", "--n", "2000000000"], "--n"),
            (["decode", "--M", "16", "--n", "2", "--lam", "1e5", "--mu", "1e-3",
              "--trials", "1"], "--mu"),
            (["decode", "--M", "16", "--n", "2", "--lam", "1", "--mu", "1e-300",
              "--trials", "1"], "--mu"),
            (["decode", "--M", "100000000", "--n", "2", "--lam", "1", "--mu", "1"],
             "--M"),
            (["bounds", "--mu", "1", "--no-cas", "--rho", "0.05:10:2000000000"],
             "--rho"),
            (["infodensity", "--lam", "1", "--mu", "1", "--n", "2000000000",
              "--trials", "1"], "--n"),
            (["infodensity", "--lam", "1", "--mu", "1", "--n", "10",
              "--trials", "2000000000"], "--trials"),
            (["decode", "--M", "4", "--n", "2", "--lam", "1", "--mu", "1",
              "--trials", "2000000000"], "--trials")):
        assert main(argv + ["--out", str(tmp_path / "x.out")]) == 1
        assert flag in capsys.readouterr().err
    assert not (tmp_path / "x.out").exists()


def test_bounds_at_extreme_load_exits_zero(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["bounds", "--mu", "1", "--rho", "0.05:1e300:3", "--no-cas",
                 "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[2:]]
    assert all(float(r[1]) >= 0.0 for r in rows)
    # with uniform service, lam (hi - lo) overflows at the top of the grid
    assert main(["bounds", "--mu", "1", "--rho", "1:1e308:3", "--service",
                 "uniform:0:2", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[2:]]
    assert all(float(r[1]) >= 0.0 and float(r[3]) >= 0.0 for r in rows)
    # with Erlang service, scipy's 1F1 in the departure density reads 0 or
    # nan at these loads; the entropy must neither certify that nor go below h(S)
    for grid in ("1:1e200:3", "1:1e308:3"):
        assert main(["bounds", "--mu", "1", "--rho", grid, "--service",
                     "erlang:2:2", "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().strip().split("\n")[2:]]
        assert all(0.0 <= float(r[3]) <= float(rows[0][3]) for r in rows)


def test_bounds_uniform_service_with_positive_lo_exits_zero(tmp_path):
    # the cas entropy must converge on the whole default grid when the
    # service support starts away from 0
    out = tmp_path / "x.csv"
    assert main(["bounds", "--mu", "1", "--service", "uniform:0.5:1.5",
                 "--out", str(out)]) == 0
    assert out.read_text().count("\n") == 202  # config + header + 200 rows


def test_decode_budget_takes_the_largest_cell(tmp_path):
    # pairing the largest M with the largest n would ask for 2.8e10 bytes;
    # the cells (20000, 2) and (2, 20000) each fit
    out = tmp_path / "x.json"
    assert main(["decode", "--M", "20000,2", "--n", "2,20000", "--lam", "0.456",
                 "--mu", "1", "--trials", "1", "--out", str(out)]) == 0
    assert [(r["M"], r["n"]) for r in json.loads(out.read_text())["rows"]] == [
        (20000, 2), (2, 20000)]


@pytest.mark.parametrize("argv", [
    ["bounds", "--mu", "1", "--rho", "0.05:10:16000"],
    ["bounds", "--mu", "1", "--service", "uniform:0:2", "--rho", "0.05:10:8200"],
    # a small table, within the fixed allowance
    ["bounds", "--mu", "1", "--service", "erlang:2:2", "--rho", "0.05:10:300"],
    ["optimum", "--mu", "1"],
    ["simulate", "--lam", "0.456", "--mu", "1", "--n", "8000"],
    ["simulate", "--lam", "2", "--service", "uniform:0:2", "--n", "4000"],
    ["infodensity", "--lam", "0.456", "--service", "erlang:2:2", "--n", "30000",
     "--trials", "2"],
    # the Erlang departure density's temporaries grow with the shape and load
    ["infodensity", "--lam", "0.5", "--service", "erlang:1000:1000", "--n", "200000",
     "--trials", "2"],
    ["infodensity", "--lam", "3", "--service", "erlang:1000:1000", "--n", "200000",
     "--trials", "2"],
    # Loader's series from shape 9 on: one block's temporaries outgrew the
    # arrays' bytes per point
    ["infodensity", "--lam", "5", "--service", "erlang:9:9", "--n", "65536",
     "--trials", "2"],
    ["infodensity", "--lam", "0.456", "--service", "erlang:50:50", "--n", "30000",
     "--trials", "2"],
    ["infodensity", "--lam", "2", "--service", "erlang:20:20", "--n", "100000",
     "--trials", "2"],
    ["decode", "--M", "256", "--n", "200", "--lam", "0.456", "--mu", "1",
     "--trials", "3"],
    ["decode", "--M", "16,256", "--n", "4000,200", "--lam", "0.456", "--mu", "1",
     "--trials", "2"],
], ids=lambda argv: " ".join(argv))
def test_memory_estimate_bounds_the_traced_peak(argv, tmp_path):
    _assert_peak_within_estimate(argv + ["--out", str(tmp_path / "x.out")])


def _assert_peak_within_estimate(argv):
    # each command asks _require_budget to allow its estimated peak before
    # any work; the traced peak of the run stays within what it asked plus
    # a fixed 1 MiB for caches and small tables
    asked = []
    allow = cli._require_budget

    def record(flags, items, bytes_per_item):
        asked.append(min(items, 2**64) * bytes_per_item)
        allow(flags, items, bytes_per_item)

    with mock.patch.object(cli, "_require_budget", record):
        tracemalloc.start()
        try:
            rc = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert rc == 0
    assert peak <= sum(asked) + 2**20


# every law, Erlang shapes across the whole range, loads on both sides of
# the service rate, and n within a factor of two of one density block
MEMORY_LAWS = st.one_of(
    st.sampled_from(["exp:1", "uniform:0:2", "uniform:0.999:1.001"]),
    st.builds("erlang:{0}:{1}".format,
              st.one_of(st.integers(9, 64), st.integers(1, 2**20 - 1)),
              st.sampled_from(["0.5", "2", "1000"])))


@settings(max_examples=24, deadline=None, derandomize=True, database=None)
@given(service=MEMORY_LAWS, lam=st.sampled_from(["0.05", "0.5", "5", "50"]),
       n=st.integers(achievability._DENSITY_BLOCK // 2, 2 * achievability._DENSITY_BLOCK),
       threads=st.sampled_from(["1", "2"]))
def test_infodensity_peak_stays_within_its_estimate_near_one_block(service, lam, n,
                                                                   threads):
    _assert_peak_within_estimate(
        ["infodensity", "--service", service, "--lam", lam, "--n", str(n),
         "--trials", "2", "--threads", threads, "--target", "0.1",
         "--out", os.devnull])


def test_bounds_rejects_service_mean_other_than_one_over_mu(tmp_path, capsys):
    # the rate column is the exponential(mu) rate: it is an achievable rate
    # below the converse only for a service law with mean 1/mu
    assert main(["bounds", "--mu", "1", "--service", "uniform:0:1e-6",
                 "--rho", "0.3:0.6:3", "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "--service" in err and "Traceback" not in err
    assert len(err.strip().splitlines()) == 1
    assert main(["bounds", "--mu", "1", "--service", "erlang:2:2",
                 "--rho", "0.3:0.6:3", "--no-cas",
                 "--out", str(tmp_path / "y.csv")]) == 0


@pytest.mark.parametrize("tol", ["0", "-1e-6", "nan", "inf"])
def test_optimum_rejects_non_positive_or_non_finite_tol(tol, tmp_path, capsys):
    rc = main(["optimum", "--mu", "1", "--bracket", "0.4:0.5", "--tol", tol,
               "--out", str(tmp_path / "x.json")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "--tol" in err and len(err.strip().splitlines()) == 1
    assert not (tmp_path / "x.json").exists()


def test_optimum_tol_below_float_spacing_terminates(tmp_path):
    # the bracket cannot shrink below the float spacing near the peak, so a
    # tiny tol must stop there rather than loop forever
    out = tmp_path / "opt.json"
    rc = main(["optimum", "--mu", "1", "--bracket", "0.4:0.5",
               "--tol", "1e-300", "--out", str(out)])
    assert rc == 0
    assert abs(json.loads(out.read_text())["value"] - RATE_STAR) < 1e-8


@pytest.mark.parametrize("bracket", ["0.3:1e9", "0.3:1e6", "0.3:1e300",
                                     "1e-10:1", "0.45:0.46"])
def test_optimum_finds_the_peak_in_wide_and_narrow_brackets(bracket, tmp_path):
    # a 0.01-step scan of the bracket ran out of memory on 0.3:1e9, ran for
    # minutes on 0.3:1e6 and found no interior peak in 0.45:0.46
    out = tmp_path / "opt.json"
    assert main(["optimum", "--mu", "1", "--bracket", bracket, "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert abs(data["value"] - RATE_STAR) < 1e-9
    assert abs(data["rho_star"] - RHO_STAR) < 1e-6


@pytest.mark.parametrize("argv, flag", [
    (["bounds", "--mu", "1e-300", "--rho", "1e-10:1:3"], "--rho"),
    (["optimum", "--mu", "1e-300", "--bracket", "1e-10:1"], "--bracket")])
def test_subnormal_arrival_rate_exits_one_naming_the_flag(argv, flag):
    # rho * mu = 1e-310 is below the normal floats, so 1/lam overflows
    rc, _, err = _run(argv, budget=cli.MEMORY_BUDGET)
    assert rc == 1 and err.startswith(f"error: {flag}: ")


def test_infodensity_blames_target_for_its_default_gamma():
    rc, _, err = _run(["infodensity", "--lam", "1", "--mu", "1", "--n", "10",
                       "--trials", "3", "--target", "-1"], budget=cli.MEMORY_BUDGET)
    assert rc == 1 and err.startswith("error: --target: ")
    rc, _, err = _run(["infodensity", "--lam", "1", "--mu", "1", "--n", "10",
                       "--trials", "3", "--target", "-1", "--gamma", "0"],
                      budget=cli.MEMORY_BUDGET)
    assert rc == 1 and err.startswith("error: --gamma: ")


def test_infodensity_blames_lam_for_a_default_target_of_zero():
    # the default target, the achievable rate at lam, reads 0 past rho ~ 1e16,
    # so its default gamma is 0; --target was not given and is not named
    rc, _, err = _run(["infodensity", "--lam", "1e20", "--mu", "1", "--n", "10",
                       "--trials", "2"], budget=cli.MEMORY_BUDGET)
    assert rc == 1 and err.startswith("error: --lam, --service/--mu: ")
    assert "default target 0.0" in err and "--target" not in err


def test_infodensity_blames_the_load_for_a_default_target_of_zero():
    # here the load lam E[S] is ~1.8e308 through the mean service time, not
    # through lam, so the refusal names the load and the flags behind it
    rc, _, err = _run(["infodensity", "--lam", "1", "--service", "erlang:2:1.12e-308",
                       "--n", "10", "--trials", "2"], budget=cli.MEMORY_BUDGET)
    assert rc == 1 and err.startswith("error: --lam, --service/--mu: load lam E[S] = ")
    assert "default target 0.0" in err and "--target" not in err


def test_bounds_cas_column_certifies_at_large_erlang_shape(tmp_path):
    # the quadrature's panel around the service law's bulk was ~0.5 wide,
    # against a bulk ~3e-3 wide at this shape
    out = tmp_path / "x.csv"
    assert main(["bounds", "--mu", "1", "--service", "erlang:100000:100000",
                 "--rho", "0.5:1:2", "--out", str(out)]) == 0
    rows = [line.split(",") for line in out.read_text().strip().split("\n")[2:]]
    assert len(rows) == 2 and all(float(r[3]) > 0.0 for r in rows)


# ------------------------------------------------ at the ends of the float range

def _csv_rows(text):
    return [[float(v) for v in line.split(",")] for line in text.strip().split("\n")[2:]]


@pytest.mark.parametrize("mu, service, grid", [
    ("1", "erlang:2:2", "2e-307:3e-307:2"),
    ("1", "erlang:2:2", "1e-308:1e-307:2"),
    ("1e-306", "erlang:2:2e-306", "0.05:10:2")])
def test_erlang_bounds_certify_at_the_float_floor(mu, service, grid):
    # the panels ran in the time unit of the flags: their edges overflowed
    # (exit 2 after warnings), or an entropy 3.5e-6 below h(W) certified
    rc, out, err = _run(["bounds", "--mu", mu, "--service", service, "--rho", grid],
                        budget=cli.MEMORY_BUDGET)
    assert rc == 0 and err == ""
    law = parse_service(service)
    for rho, *_ in _csv_rows(out):
        lam = rho * float(mu)
        h = law.departure_entropy(lam)
        lower = max(1.0 - math.log(lam), law.entropy())
        upper = 1.0 + math.log(1.0 / lam + law.mean())
        assert lower - 1e-12 * abs(lower) <= h <= upper + 1e-12 * abs(upper)


def test_erlang_bounds_do_not_depend_on_the_time_unit():
    # the default grid at mu = 1e-306, the service scaled alike, gives the
    # normalized columns of mu = 1
    tables = [np.array(_csv_rows(_run(
        ["bounds", "--mu", repr(mu), "--service", f"erlang:2:{2.0 * mu!r}"],
        budget=cli.MEMORY_BUDGET)[1])) for mu in (1.0, 1e-306)]
    assert tables[0].shape == (200, 4)
    assert np.max(np.abs(tables[0] - tables[1])) <= 1e-12


def _bounded_cli(argv, timeout=60, address_space=2**30):
    """Run the CLI in a fresh interpreter under a timeout and an
    address-space cap, so that a run growing without bound ends in a
    MemoryError; returns (exit code, stderr)."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(timingq.__file__)))
    env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1"}

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    proc = subprocess.run([sys.executable, "-m", "timingq.cli", *argv], env=env,
                          capture_output=True, timeout=timeout, preexec_fn=cap)
    return proc.returncode, proc.stderr.decode()


@pytest.mark.parametrize("argv, refusal", [
    (["simulate", "--lam", "5e-308", "--mu", "1e-306", "--n", "20"],
     "--n, --lam, --service/--mu: departure epoch "),
    (["simulate", "--lam", "5e-308", "--mu", "1e-306", "--n", "5"],
     "--n, --lam, --service/--mu: departure epoch "),
    (["decode", "--M", "4", "--n", "20", "--lam", "5e-308", "--mu", "1e-306",
      "--trials", "3"], "--n, --lam, --mu: horizon "),
    (["decode", "--M", "4", "--n", "8", "--lam", "5e-308", "--mu", "1e-306",
      "--trials", "20"], "--n, --lam, --mu: departure epoch ")],
    ids=["simulate", "simulate-last-departure", "decode-horizon", "decode-epoch"])
def test_a_departure_epoch_past_the_float_range_exits_one(argv, refusal):
    # once an epoch overflowed, the simulator appended inf arrivals forever
    rc, err = _bounded_cli(argv)
    assert rc == 1 and err.startswith(f"error: {refusal}") and err.count("\n") == 1


def test_arrival_epochs_past_the_float_range_print_no_warning():
    # the arrival epochs overflow after the one needed admission
    rc, out, err = _run(["simulate", "--lam", "1e-306", "--mu", "1", "--n", "1"],
                        budget=cli.MEMORY_BUDGET)
    assert rc == 0 and err == "" and len(out.splitlines()) == 4


def test_infodensity_refuses_a_horizon_past_the_float_range():
    # T_n = 1e306 + 20 (2e307 + 1e306) overflows, and every density was
    # divided by it: a mean of 0.0 and a tail fraction of 1.0
    rc, _, err = _run(["infodensity", "--lam", "5e-308", "--mu", "1e-306", "--n", "20",
                       "--trials", "2"], budget=cli.MEMORY_BUDGET)
    assert rc == 1 and err.startswith("error: --n, --lam, --service/--mu: horizon ")


@pytest.mark.parametrize("fixture", [
    {"arrival_gaps": [0, 1], "service_times": [2.5, 1.0], "n": 1},
    {"arrival_gaps": [1, 1, 1], "service_times": [2.5, 1.0], "n": 1},
    {"arrival_gaps": [0, 1, -1, 1], "service_times": [2.5, 1.0], "n": 1},
    {"arrival_gaps": 5, "service_times": [2.5, 1.0], "n": 1},
    {"arrival_gaps": [0, 1, 1, 1], "service_times": [2.5, 1.0], "n": 0},
    {"arrival_gaps": [0, 1, 1, 1], "service_times": [2.5, 1.0], "n": 5},
    {"arrival_gaps": [0, math.nan, 1, 1], "service_times": [2.5, 1.0], "n": 1},
    {"arrival_gaps": [0, 1, 1, 1], "service_times": [2.5, math.nan], "n": 1},
    {"arrival_gaps": [0, 1, 1, 1], "service_times": [2.5, 1.0], "n": math.inf},
], ids=["exhausted", "first-gap", "negative-gap", "scalar-gaps", "n-zero",
        "n-too-large", "nan-gap", "nan-service", "n-inf"])
def test_simulate_bad_fixture_exits_one(fixture, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(fixture))
    out = tmp_path / "x.csv"
    assert main(["simulate", "--fixture", str(path), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: --fixture") and err.count("\n") == 1
    assert not out.exists()


def test_unknown_subcommand_exits_one(capsys):
    assert main(["frobnicate"]) == 1
    capsys.readouterr()


def test_nonconvergence_exits_two(tmp_path, capsys, monkeypatch):
    # a failed quadrature certification must surface as the dedicated exit
    # code rather than a stack trace; inject one at the entropy call site
    from timingq import QuadratureError, bounds as bounds_mod

    def never_converges(*args, **kwargs):
        raise QuadratureError("entropy tail failed to certify", achieved=1e-5)

    monkeypatch.setattr(bounds_mod, "hypoexp_entropy", never_converges)
    rc = main(["optimum", "--mu", "1", "--bracket", "0.4:0.5",
               "--tol", "1e-4", "--out", str(tmp_path / "x.json")])
    assert rc == 2
    assert "certify" in capsys.readouterr().err
    assert not (tmp_path / "x.json").exists()


# ------------------------------------------------ property: the CLI contract

# the deadline fails an example that takes far longer than any valid run
FUZZ = settings(max_examples=100, deadline=timedelta(seconds=10),
                derandomize=True, database=None)

BAD_NUMBERS = ["0", "-1", "nan", "inf", "-inf", "1e400", "abc", ""]

# Sizes from each of these up exit 1 under the real memory budget, whatever
# the other flags: simulate --n, infodensity --n/--trials, decode --M/--n/--trials
OVER_BUDGET = {("simulate", "n"): 2**22, ("infodensity", "n"): 2**25,
               ("infodensity", "trials"): 2**25, ("decode", "M"): 2**20,
               ("decode", "n"): 2**26, ("decode", "trials"): 2**28}

# the budget the fuzz runs under: an accepted run stays small whatever rates
# are drawn, and a run over it still exits 1 before any work
FUZZ_BUDGET = 2**24


def _argv(command, *slots, replace=False):
    """(argv, flag, clean) for `command`: one fragment is drawn from each
    slot (a strategy for [flag, value], [flag] or []), then at most one
    fragment is dropped or has its value replaced by a malformed or
    non-finite number; with `replace`, always one value is replaced.  Each
    fragment is passed as one `--flag=value` word, so a value may start
    with "-".  For a replaced value, `flag` is its flag and `clean` the
    argv before the replacement; else both are None.
    """
    spoil = st.tuples(st.integers(0, len(slots) - 1),
                      st.sampled_from(BAD_NUMBERS if replace else [None] + BAD_NUMBERS))
    if not replace:
        spoil = st.one_of(st.none(), spoil)

    def words(fragments):
        return [command] + ["=".join(fragment) for fragment in fragments if fragment]

    def build(args):
        fragments, spoiled = list(args[0]), args[1]
        flag = clean = None
        if spoiled is not None:
            i, bad = spoiled
            if bad is not None and fragments[i]:
                flag, clean = fragments[i][0], words(fragments)
            fragments[i] = [] if bad is None else fragments[i][:1] + [bad]
        return words(fragments), flag, clean

    return st.tuples(st.tuples(*slots), spoil).map(build)


def _option(name, *values):
    return st.sampled_from([[f"--{name}", value] for value in values])


def _maybe(slot):
    return st.one_of(st.just([]), slot)


def _float(name, *typical):
    # any float: subnormals, +-1e308, +-inf, nan and negatives
    values = st.one_of(st.sampled_from(typical), st.floats()) if typical else st.floats()
    return values.map(lambda v: [f"--{name}", repr(v)])


def _bad_size(command, name):
    # a size that must exit 1: below 1, or over the memory budget
    over = OVER_BUDGET.get((command, name))
    below = st.integers(-2**63, 0)
    return below if over is None else st.one_of(below, st.integers(over, 2**63))


def _size(command, name, *valid):
    values = st.one_of(st.sampled_from(valid), _bad_size(command, name))
    return values.map(lambda v: [f"--{name}", str(v)])


# Erlang shapes of 1000, 2**20 - 1 (the largest accepted), 2**20 (the first
# refused), 2**53 and 1e20, past what numpy can cast
LARGE_ERLANG = ("erlang:1000:1000", "erlang:1048575:1048575", "erlang:1048576:1048576",
                "erlang:9007199254740992:1", "erlang:100000000000000000000:1e20")
# uniform:0.999:1.001 has mean 1 and lam (hi - lo) near 1e-3, the small end
# of the uniform sum entropy's closed form
# erlang:2:2e306 and uniform:0:2e-306 have a mean of 1e-306, which with an
# arrival rate of 5e-308 puts the epochs near the top of the float range
SERVICES = ("erlang:2:2", *LARGE_ERLANG, "uniform:0:2", "uniform:0.999:1.001",
            "erlang:2:2e306", "uniform:0:2e-306", "det:1", "exp:inf",
            "uniform:0:inf", "gamma:1")
# rates for --lam and --mu: the usual ones, and both ends of the float range
LAMS = (0.5, 2.0, 5e-308)
MUS = (1.0, 2.0, 1e-306, 1e306)
LAWS = st.one_of(_float("mu", *MUS), _option("service", *SERVICES))
# the --mu of bounds, shared with the services drawn to have mean 1/mu
BOUNDS_MU = st.shared(st.one_of(st.sampled_from((1.0, 1e-306, 1e300)), st.floats()),
                      key="bounds --mu")


def _services_of_mean(mu):
    # Erlang and uniform laws of mean 1/mu, malformed where mu is not a rate
    mean = math.inf if mu == 0.0 else 1.0 / mu
    return _option("service", f"erlang:2:{2.0 * mu!r}", f"erlang:1000:{1000.0 * mu!r}",
                   f"uniform:0:{2.0 * mean!r}", f"uniform:{0.999 * mean!r}:{1.001 * mean!r}")


# the slots of each command's argv
SLOTS = {
    "bounds": (BOUNDS_MU.map(lambda mu: ["--mu", repr(mu)]),
               _option("rho", "0.2:2:3", "0.5:1:2", "2:0.2:3", "0.2:inf:3",
                       "1e-10:1:3", "2e-307:3e-307:2", "1e-308:1e-307:2",
                       "5e-324:1e-300:3"),
               _maybe(st.one_of(
                   _option("service", "erlang:2:2", "uniform:0:2",
                           "uniform:0.999:1.001", "det:1", "exp:2",
                           "uniform:0:inf"),
                   BOUNDS_MU.flatmap(_services_of_mean))),
               _maybe(st.just(["--log"])), _maybe(st.just(["--no-cas"]))),
    "optimum": (_float("mu", 1.0, 2.0),
                _option("bracket", "0.3:0.6", "0.1:2", "0.6:0.3", "0.3:1e9",
                        "0.3:1e300", "1e-10:1", "0.45:0.46"),
                _maybe(_float("tol", 1e-3, 1e-300))),
    "simulate": (_float("lam", *LAMS),
                 _size("simulate", "n", 1, 5), LAWS,
                 _maybe(_option("fixture", "no/such/fixture.json"))),
    "infodensity": (_float("lam", *LAMS),
                    st.one_of(_option("n", "20", "20,40", "40,20"),
                              _size("infodensity", "n", 20)), LAWS,
                    _maybe(_size("infodensity", "trials", 2)),
                    _maybe(_size("infodensity", "threads", 2)),
                    _maybe(_float("target", 0.1)),
                    _maybe(_float("gamma", 0.01)),
                    _maybe(_option("format", "csv", "json", "xml"))),
    # schedules of lengths 1 to 4, which broadcast only at equal lengths or
    # against a single value
    "decode": (st.one_of(_option("M", "4", "2,3", "3,2,4", "2,4,3,2"),
                         _size("decode", "M", 4)),
               st.one_of(_option("n", "2", "2,5", "5,2,3", "3,2,5,2"),
                         _size("decode", "n", 2)),
               _float("lam", *LAMS), _float("mu", *MUS),
               _maybe(_size("decode", "trials", 3)),
               _maybe(_size("decode", "threads", 2))),
}
BOUNDS, OPTIMUM, SIMULATE, INFODENSITY, DECODE = (
    _argv(command, *slots) for command, slots in SLOTS.items())

JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.text(max_size=3),
    st.sampled_from([0, 1, 2, 5, -1, 10**30, 1.5, math.nan, math.inf]),
    st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.5, -1.0, math.nan, math.inf]),
             max_size=6),
    st.lists(st.lists(st.just(1.0), max_size=2), max_size=3))
FIXTURE_TEXTS = st.one_of(
    st.fixed_dictionaries({}, optional={"arrival_gaps": JSON_VALUES,
                                        "service_times": JSON_VALUES,
                                        "n": JSON_VALUES}).map(json.dumps),
    st.sampled_from(["", "{", "[]", "null", '"x"', "[0, 1]"]))


def _run(argv, budget=FUZZ_BUDGET):
    """Run the CLI in process under `budget`; hold it to exit 0, 1 or 2
    without a RuntimeWarning and, on failure, to one "error:" line on stderr
    and nothing on stdout.  Returns the exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.object(cli, "MEMORY_BUDGET", budget), \
            warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rc = main(argv)
    assert rc in (0, 1, 2)
    if rc:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ")
        assert err.getvalue().count("\n") == 1
    return rc, out.getvalue(), err.getvalue()


@FUZZ
@given(st.one_of(BOUNDS, OPTIMUM, SIMULATE, INFODENSITY, DECODE))
def test_cli_exits_cleanly_on_any_argv(case):
    _check_blame(case)


def _check_blame(case):
    # a run refused only for a replaced value names that value's flag, alone
    # or in a budget message's list of flags
    argv, flag, clean = case
    rc, _, err = _run(argv)
    if rc == 1 and flag is not None and _run(clean)[0] == 0:
        assert flag in re.findall(r"--[\w-]+", err), (flag, err)


@settings(FUZZ, max_examples=300)
@given(st.sampled_from(sorted(SLOTS)).flatmap(
    lambda command: _argv(command, *SLOTS[command], replace=True)))
def test_cli_names_the_flag_of_a_replaced_value(case):
    _check_blame(case)


@FUZZ
@given(st.one_of(
    _argv("infodensity", _float("lam", 0.5, 1.0, 2.0), _option("n", "20"),
          _option("service", *LARGE_ERLANG), _option("trials", "2"),
          _option("target", "0.1")),
    _argv("simulate", _float("lam", 0.5, 1.0, 2.0), _option("n", "5"),
          _option("service", *LARGE_ERLANG))))
def test_cli_exits_cleanly_at_large_erlang_shapes(case):
    # the spoiling above rarely leaves a run that reaches these laws
    _run(case[0])


# a --mu at either end of the float range, shared with the services of mean 1/mu
SCALES = st.shared(st.sampled_from((1.0, 1e-306, 1e-300, 1e300, 1e306)), key="scale")
TINY = ("5e-308", "1e-306")


@FUZZ
@given(st.one_of(
    _argv("bounds", SCALES.map(lambda mu: ["--mu", repr(mu)]),
          _option("rho", "2e-307:3e-307:2", "1e-308:1e-307:2", "0.05:10:3", "1:1e308:3"),
          SCALES.flatmap(_services_of_mean)),
    _argv("simulate", _option("lam", *TINY), _option("n", "1", "5", "20"),
          st.one_of(_option("mu", "1e-306", "1e306"),
                    _option("service", "erlang:2:2e306", "uniform:0:2e-306",
                            "erlang:2:2e-306"))),
    _argv("infodensity", _option("lam", *TINY), _option("n", "2", "20"),
          st.one_of(_option("mu", "1e-306", "1e306"),
                    _option("service", "erlang:2:2e306", "uniform:0:2e-306",
                            "erlang:2:2e-306")),
          _option("trials", "2"), _maybe(_option("target", "1e-300"))),
    _argv("decode", _option("M", "4"), _option("n", "2", "8", "20"),
          _option("lam", *TINY), _option("mu", "1e-306", "1e306"),
          _option("trials", "3"))))
def test_cli_exits_cleanly_at_the_ends_of_the_float_range(case):
    # the slots above reach these rates and loads too, but seldom together
    _check_blame(case)


# valid flags around the size under test
SIZE_BASES = {
    ("simulate", "n"): ["--lam", "0.5", "--mu", "1"],
    ("infodensity", "n"): ["--lam", "0.5", "--mu", "1", "--trials", "2"],
    ("infodensity", "trials"): ["--lam", "0.5", "--mu", "1", "--n", "20"],
    ("infodensity", "threads"): ["--lam", "0.5", "--mu", "1", "--n", "20"],
    ("decode", "M"): ["--n", "2", "--lam", "0.5", "--mu", "1"],
    ("decode", "n"): ["--M", "4", "--lam", "0.5", "--mu", "1"],
    ("decode", "trials"): ["--M", "4", "--n", "2", "--lam", "0.5", "--mu", "1"],
    ("decode", "threads"): ["--M", "4", "--n", "2", "--lam", "0.5", "--mu", "1"],
}


@FUZZ
@given(st.sampled_from(sorted(SIZE_BASES)).flatmap(
    lambda key: st.tuples(st.just(key), _bad_size(*key))))
def test_cli_rejects_every_bad_size(case):
    # under the real budget: a bad size exits 1 before any work
    (command, name), value = case
    argv = [command, *SIZE_BASES[command, name], f"--{name}={value}"]
    rc, _, err = _run(argv, budget=cli.MEMORY_BUDGET)
    assert rc == 1 and f"--{name}" in err


@pytest.fixture(scope="module")
def fuzz_fixture(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "fixture.json"


@FUZZ
@given(text=FIXTURE_TEXTS)
def test_simulate_exits_cleanly_on_any_fixture(fuzz_fixture, text):
    fuzz_fixture.write_text(text)
    _run(["simulate", "--fixture", str(fuzz_fixture)])


@FUZZ
@given(st.one_of(INFODENSITY, DECODE))
def test_threads_leave_stdout_alone(case):
    # stdout and the exit code; a budget message may name the thread count
    argv = case[0]
    assert _run(argv + ["--threads", "1"])[:2] == _run(argv + ["--threads", "2"])[:2]
