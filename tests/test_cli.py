"""End-to-end runs of the command-line driver, in process."""

import ast
import csv
import dataclasses
import inspect
import json
import logging
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rscgc
from rscgc import cli, multigrid
from rscgc.cli import main
from rscgc.frontal import FrontalLU
from rscgc.multigrid import CyclePlan

from conftest import double_cycle


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- tune-shift

def test_tune_shift_csv_row(tmp_path):
    out = tmp_path / "shift.csv"
    rc = main(["tune-shift", "--dim", "2", "--G", "12",
               "--alpha-range", "1.0:1.01", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert len(rows) == 1
    row = rows[0]
    assert row["G"] == "12" and row["dim"] == "2" and row["intergrid"] == "cubic"
    assert row["alpha_star"] == "1.0045"
    assert float(row["max_eg"]) == pytest.approx(3.340e-3, abs=5e-6)
    # the exact max_eg 3.3397e-3 puts G/(2 e_g) at 1796.6; rounding the
    # published 4-digit error instead would give 1796
    assert (int(row["ncrit_lo"]), int(row["ncrit_hi"])) == (898, 1797)


def test_tune_shift_requires_G(capsys):
    assert main(["tune-shift", "--dim", "2"]) == 2
    assert "G" in capsys.readouterr().err


def test_tune_shift_write_table_merges(tmp_path):
    table = tmp_path / "table.json"
    table.write_text(json.dumps({"9:9:fake": {"alpha_star": 1.5}}))
    rc = main(["tune-shift", "--dim", "2", "--G", "12",
               "--alpha-range", "1.0:1.01", "--write-table", str(table),
               "--out", str(tmp_path / "rows.csv")])
    assert rc == 0
    merged = read_json(table)
    assert set(merged) == {"9:9:fake", "2:12:cubic"}
    assert merged["2:12:cubic"]["alpha_star"] == 1.0045


@pytest.mark.parametrize("text", ["{not json", "[1, 2]"])
def test_tune_shift_rejects_a_malformed_table_before_tuning(tmp_path, monkeypatch,
                                                            capsys, text):
    def no_tuning(config):
        raise AssertionError("tuned before checking the table")

    monkeypatch.setattr("rscgc.cli.optimize_shift", no_tuning)
    table = tmp_path / "bad.json"
    table.write_text(text)
    rc = main(["tune-shift", "--dim", "2", "--G", "12",
               "--write-table", str(table)])
    assert rc == 2
    assert "bad.json" in capsys.readouterr().err
    assert table.read_text() == text


# ---------------------------------------------------------------- solve

def test_solve_payload_and_table_lookup(tmp_path):
    out = tmp_path / "run.json"
    rc = main(["solve", "--dim", "2", "--G", "12", "--cells", "64",
               "--solver", "fgmres:20", "--out", str(out)])
    assert rc == 0
    payload = read_json(out)
    assert payload["method"] == "rs-cgc"
    assert payload["alpha"] == 1.0045          # packaged table entry
    assert payload["beta"] == 0.0
    assert payload["grid"] == [64, 64]
    assert payload["padded_shape"] == [105, 105]
    assert payload["dofs"] == 103 * 103        # the nodes inside the Dirichlet layer
    assert payload["cycle"] == "W(1,1)"
    assert payload["converged"] is True and payload["diverged"] is False
    history = payload["residual_history"]
    assert history[0] == 1.0 and history[-1] < 1e-6
    assert payload["iterations"] + 1 == len(history)
    # set-up and solve timed apart; per-level sizes, LU fill, coarsest residual
    assert 0 < payload["setup_seconds"] and 0 < payload["solve_seconds"]
    assert "wall_time" not in payload
    assert [level["dofs"] for level in payload["levels"]] == [103 ** 2, 51 ** 2, 25 ** 2]
    assert all(level["nnz"] >= level["dofs"] for level in payload["levels"])
    assert payload["coarse_lu_nnz"] >= payload["levels"][2]["nnz"]
    assert 0 < payload["max_coarse_residual"] <= 1e-10


@pytest.mark.parametrize("pivoting", [False, True])
def test_coarse_lu_nnz_counts_the_stored_factors(pivoting, tmp_path, monkeypatch):
    """The frontal LU reports its fill from the front sizes, the pivoted
    SuperLU fallback from its factors; either way it is L.nnz + U.nnz, and
    coarse_factorization names the one that ran."""
    import rscgc.cli as cli
    import rscgc.multigrid as mg
    built = []
    build = cli.build_hierarchy
    monkeypatch.setattr(cli, "build_hierarchy",
                        lambda *args: built.append(build(*args)) or built[-1])
    if pivoting:
        factorize = mg._factorize
        monkeypatch.setattr(mg, "_factorize", lambda operator, plan, pivoting=False:
                            factorize(operator, plan, pivoting=True))
    out = tmp_path / "run.json"
    assert main(["solve", "--dim", "2", "--G", "10", "--cells", "32",
                 "--model", "wedge", "--kappa2", "0.25,1", "--out", str(out)]) == 0
    lu = built[0].coarse_solver
    assert isinstance(lu, FrontalLU) is not pivoting
    payload = read_json(out)
    assert payload["coarse_lu_nnz"] == lu.L.nnz + lu.U.nnz
    assert payload["coarse_factorization"] == ("superlu" if pivoting else "frontal")


def test_solve_setup_time_includes_the_outer_assembly(tmp_path, monkeypatch):
    """With beta > 0 the unshifted outer operator is assembled after the
    hierarchy; that assembly counts as set-up, not as solve."""
    import rscgc.cli as cli
    delay = 0.2
    original = cli.assemble_operator

    def slow_assembly(*args, **kwargs):
        time.sleep(delay)
        return original(*args, **kwargs)

    solver_seconds = []
    run_solver = cli._run_solver

    def timed_solver(*args):
        start = time.perf_counter()
        result = run_solver(*args)
        solver_seconds.append(time.perf_counter() - start)
        return result

    monkeypatch.setattr(cli, "assemble_operator", slow_assembly)
    monkeypatch.setattr(cli, "_run_solver", timed_solver)
    out = tmp_path / "run.json"
    rc = main(["solve", "--dim", "2", "--G", "10", "--cells", "32",
               "--method", "cslp:0.5", "--out", str(out)])
    assert rc == 0
    payload = read_json(out)
    assert payload["setup_seconds"] >= delay
    assert payload["solve_seconds"] < solver_seconds[0] + delay


def test_solve_reports_nonconvergence_with_exit_one(tmp_path):
    out = tmp_path / "short.json"
    rc = main(["solve", "--dim", "2", "--G", "10", "--cells", "32",
               "--solver", "stationary", "--maxit", "2", "--out", str(out)])
    assert rc == 1
    payload = read_json(out)
    assert payload["converged"] is False and payload["iterations"] == 2


def test_solve_explicit_alpha_wins(tmp_path):
    out = tmp_path / "run.json"
    rc = main(["solve", "--dim", "2", "--G", "12", "--cells", "32",
               "--alpha", "1.005", "--out", str(out)])
    assert rc == 0
    assert read_json(out)["alpha"] == 1.005


def test_solve_rejects_bad_arguments(capsys, monkeypatch):
    base = ["solve", "--dim", "2", "--G", "12", "--cells", "32"]
    assert main(base + ["--alpha", "abc"]) == 2
    assert main(base + ["--method", "ilu"]) == 2
    assert main(base + ["--solver", "bicg"]) == 2
    with monkeypatch.context() as patch:    # rejected before any set-up
        patch.setattr(cli, "build_hierarchy", None)
        assert main(base + ["--method", "cslp:0.3", "--solver", "stationary"]) == 2
    assert main(["solve", "--dim", "2", "--G", "12", "--cells", "16,16,16"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv,named", [
    (["solve", "--G", "nan", "--cells", "32"], "'nan'"),
    (["sweep", "--G", "12", "--grids", "a,b"], "'a,b'"),
    (["sweep", "--G", "12", "--grids", "32", "--methods", "cslp:abc"], "'abc'"),
    (["tune-shift", "--dim", "2", "--G", "12", "--alpha-range", "3:3.01"], "too large"),
    (["dispersion", "--dim", "2", "--G", "12", "--alpha", "nan"], "got nan"),
    (["dispersion", "--dim", "2", "--G", "12", "--alpha", "inf"], "got inf"),
    (["tune-shift", "--dim", "2", "--G", "12", "--alpha-range", "3:3.01"],
     "at G = 12, alpha in [3, 3.01]"),
    (["solve", "--G", "12", "--cells", "32", "--tol", "-1"], "got -1.0"),
    (["solve", "--G", "12", "--cells", "32", "--tol", "0"], "got 0.0"),
    (["solve", "--G", "12", "--cells", "32", "--tol", "nan"], "got nan"),
    (["solve", "--G", "12", "--cells", "32", "--maxit", "-3"], "got -3"),
    (["sweep", "--G", "12", "--grids", "32", "--tol", "nan"], "got nan"),
    (["sweep", "--G", "12", "--grids", "32", "--maxit", "-3"], "got -3"),
    (["dispersion", "--dim", "2", "--G", "12", "--alpha-scan", "1:1.01",
      "--cells", "32", "--scan-maxit", "-3"], "got -3"),
    (["dispersion", "--dim", "2", "--G", "12", "--angle-resolution", "0"], "got 0.0"),
    (["dispersion", "--dim", "2", "--G", "12", "--angle-resolution", "-0.01"], "got -0.01"),
    (["dispersion", "--dim", "2", "--G", "12", "--angle-resolution", "nan"], "got nan"),
    (["sweep", "--G", "12", "--grids", "16", "--repeats", "-3"], "got -3"),
    (["sweep", "--G", "12", "--grids", "16", "--repeats", "0"], "got 0"),
    (["sweep", "--G", "12", "--grids", "16", "--workers", "-2"], "got -2"),
    (["solve", "--G", "12", "--cells", "32", "--dampings", "0.8,0.8,0.8"],
     "got (0.8, 0.8, 0.8)"),
    # a dict stands for a config file with that content
    (["solve", "--G", "12", "--cells", "32", "--config", {"h": "abc"}],
     "unknown config keys: ['h']"),
    (["solve", "--G", "12", "--cells", "32", "--config", {"kappa2": 5}],
     "kappa2 must be a lo,hi pair, got 5"),
    (["solve", "--G", "12", "--cells", "32", "--config", {"dampings": 0.8}],
     "dampings must be a list of two numbers, got 0.8"),
    (["solve", "--G", "12", "--cells", "32", "--config", {"beta": "abc"}],
     "unknown config keys: ['beta']"),
    (["solve", "--G", "12", "--cells", "32", "--config", {"gamma_max": "x"}],
     "gamma_max must be a number, got 'x'"),
    (["dispersion", "--G", "12", "--config", {"angle_resolution": "x"}],
     "angle_resolution must be a number, got 'x'"),
    (["dispersion", "--G", "12", "--config", {"alpha_range": 5}],
     "alpha_range must be a lo:hi pair, got 5"),
    (["dispersion", "--G", "12", "--config", {"alpha_range": ["a", 1]}],
     "alpha_range must be a number, got 'a' in ['a', 1]"),
    (["sweep", "--G", "12", "--grids", "16", "--config", {"methods": 5}],
     "methods must be a string, got 5"),
    (["solve", "--G", "12", "--cells", "32", "--config", {"free_surface_top": "no"}],
     "free_surface_top must be true or false, got 'no'"),
    (["solve", "--cells", "32", "--config", {"G": True}],
     "G must be a finite positive number, got True"),
    (["solve", "--G", "12", "--cells", "32", "--config", {"intergrid": "foo"}],
     "intergrid must be one of cubic, level-dependent, bilinear, got 'foo'"),
    (["dispersion", "--G", "12", "--alpha-scan", "1:1.01", "--cells", "32",
      "--config", {"scan_maxit": "x"}], "scan_maxit must be an integer, got 'x'"),
    (["dispersion", "--G", "12", "--alpha-scan", "1.02:1.01", "--cells", "32"],
     "(alpha_scan [1.02, 1.01])"),
    # model files: m.bin holds a 17 x 17 grid; a dict after --model-meta is
    # the metadata file
    (["solve", "--G", "12", "--model-file", "m.bin"], "model_file needs model_meta"),
    (["solve", "--G", "12", "--model-file", "m.bin", "--model-meta",
      {"dim": 2, "shape": [17, 17], "kind": "slowness"}], "model metadata is missing ['h']"),
    (["solve", "--G", "12", "--model-file", "m.bin", "--model-meta",
      {"dim": "x", "shape": [17, 17], "h": 0.0625, "kind": "slowness"}],
     "metadata dim must be an integer, got 'x'"),
    (["solve", "--G", "12", "--model-file", "m.bin", "--model-meta",
      {"dim": 2, "shape": [17, 17], "h": "nan", "kind": "slowness"}],
     "metadata h must be a number, got 'nan'"),
    (["solve", "--G", "12", "--model-file", "absent.bin", "--model-meta",
      {"dim": 2, "shape": [17, 17], "h": 0.0625, "kind": "slowness"}], "absent.bin"),
    (["tune-shift", "--dim", "3", "--G", "20000"],
     "G = 20000 is too large: the fine radius snaps to 0 on the 0.001 ray grid"),
    (["dispersion", "--G", "12", "--alpha-scan", "1:1.01", "--cells", "32",
      "--scan-maxit", "0"], "scan_maxit must be at least 1, got 0"),
    # an alpha whose square overflows, and analysis arrays past the size limit
    (["solve", "--G", "12", "--cells", "16", "--alpha", "1e160"], "got 1e+160"),
    (["sweep", "--G", "12", "--grids", "16,24", "--workers", "2", "--alpha", "1e160"],
     "got 1e+160"),
    (["dispersion", "--G", "12", "--alpha", "1e160"], "got 1e+160"),
    (["dispersion", "--G", "12", "--alpha-scan", "1e160:1e161:1e160", "--cells", "32"],
     "got 1e+161"),
    (["dispersion", "--G", "12", "--alpha-scan", "1:1.01:0", "--cells", "32"],
     "alpha_resolution must be finite and positive, got 0.0"),
    (["tune-shift", "--G", "12", "--alpha-range", "1e-300:1e300"],
     "alpha_range (1e-300, 1e+300)"),
    (["dispersion", "--G", "12", "--angle-resolution", "1e-300"],
     "angle_resolution = 1e-300"),
    # a complex shift or a sponge whose mass coefficient overflows
    (["solve", "--dim", "2", "--G", "12", "--cells", "32", "--pad", "4",
      "--method", "cslp:1e308"], "overflows for alpha = 1.0, beta = 1e+308 and gamma_max = 1.0"),
    (["solve", "--dim", "2", "--G", "12", "--cells", "32", "--pad", "4",
      "--gamma-max", "1e308"], "overflows for alpha = 1.0, beta = 0.0 and gamma_max = 1e+308"),
])
@pytest.mark.filterwarnings("error")
def test_unparsable_values_exit_two(argv, named, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    np.ones(17 * 17, dtype="<f4").tofile("m.bin")
    for i, arg in enumerate(argv):
        if isinstance(arg, dict):
            (tmp_path / f"{i}.json").write_text(json.dumps(arg))
    assert main([str(tmp_path / f"{i}.json") if isinstance(arg, dict) else arg
                 for i, arg in enumerate(argv)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command,cfg", [
    (["solve", "--G", "12", "--cells", "32"], {"intergrid": "foo"}),
    (["dispersion", "--G", "12"], {"alpha_range": 5}),
])
def test_bad_config_values_are_rejected_before_tuning(command, cfg, tmp_path, monkeypatch,
                                                      capsys, caplog):
    def no_tuning(config):
        raise AssertionError("tuned before checking the config")

    monkeypatch.setattr("rscgc.cli.optimize_shift", no_tuning)
    monkeypatch.setenv("HELM_SHIFT_TABLE", str(tmp_path / "absent.json"))
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    with caplog.at_level(logging.WARNING, logger="rscgc.cli"):
        assert main(command + ["--config", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {next(iter(cfg))} must be")
    assert not [r for r in caplog.records if "tuning now" in r.getMessage()]


@pytest.mark.parametrize("argv,flag", [
    (["solve", "--G", "12", "--cells", "256"], "--out"),
    (["solve", "--G", "12", "--cells", "256"], "--emit-config"),
    (["sweep", "--G", "12", "--grids", "256"], "--out"),
    (["dispersion", "--G", "12", "--alpha", "1.0"], "--out"),
    (["tune-shift", "--G", "12"], "--write-table"),
])
@pytest.mark.filterwarnings("error")
def test_an_output_path_in_a_missing_directory_exits_two_before_any_work(
        argv, flag, tmp_path, monkeypatch, capsys):
    def no_work(*args):
        raise AssertionError("set up or tuned before checking the output path")

    for name in ("build_hierarchy", "optimize_shift", "export_dispersion_curve"):
        monkeypatch.setattr(f"rscgc.cli.{name}", no_work)
    path = tmp_path / "absent" / "x.json"
    assert main(argv + [flag, str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: {flag} {path}: directory {path.parent} does not exist\n")
    assert not path.parent.exists()


def test_solve_from_a_model_file(tmp_path):
    """A 16-cell slowness grid described by its metadata file."""
    grid, meta, out = tmp_path / "m.bin", tmp_path / "m.json", tmp_path / "run.json"
    np.full(17 * 17, 0.5, dtype="<f4").tofile(grid)
    meta.write_text(json.dumps({"dim": 2, "shape": [17, 17], "h": 0.0625,
                                "kind": "slowness"}))
    assert main(["solve", "--G", "12", "--pad", "8", "--model-file", str(grid),
                 "--model-meta", str(meta), "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["grid"] == [16, 16] and payload["padded_shape"] == [33, 33]
    assert payload["converged"] is True


@pytest.mark.parametrize("key,value", [("repeats", 2.5), ("repeats", True),
                                       ("workers", 1.5), ("workers", False),
                                       ("grids", [32.7]), ("grids", [True]),
                                       ("cells", 32.9), ("cells", True)])
def test_sweep_rejects_fractional_or_boolean_counts(key, value, tmp_path, capsys):
    """Counts from a config file are integers, never truncated or read as
    bools; a sweep sets its own cells, so those go through solve."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grids": [16], key: value}))
    command = "solve" if key == "cells" else "sweep"
    assert main([command, "--G", "12", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    named = value[0] if isinstance(value, list) else value
    assert err.startswith("error: ") and f"{key} must be an integer, got {named!r}" in err


@pytest.mark.parametrize("dim", [1, 4, 2.0, True])
def test_config_dim_must_be_two_or_three(dim, tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dim": dim}))
    assert main(["solve", "--G", "12", "--cells", "32", "--config", str(cfg)]) == 2
    assert capsys.readouterr().err == f"error: dim must be the integer 2 or 3, got {dim!r}\n"


def test_solve_reports_the_cycle_precision(tmp_path, monkeypatch):
    """cycle_precision is "single"; a single cycle that overflows reports the
    fallback, and the solve then runs exactly as one with the double cycle
    throughout."""
    out = tmp_path / "run.json"
    base = ["solve", "--dim", "2", "--G", "12", "--cells", "32", "--out", str(out)]
    assert main(base) == 0
    single = read_json(out)
    assert single["cycle_precision"] == "single"
    with monkeypatch.context() as patch:
        patch.setattr(cli, "cycle", double_cycle)
        assert main(base) == 0
    double = read_json(out)
    assert double["iterations"] == single["iterations"]

    original = multigrid.coarse_solve
    monkeypatch.setattr(multigrid, "coarse_solve", lambda h, rhs: (
        1e40 if rhs.dtype == np.complex64 else 1.0) * original(h, rhs))
    assert main(base) == 0
    fallback = read_json(out)
    assert fallback["cycle_precision"] == "single→double fallback"
    assert fallback["residual_history"] == double["residual_history"]


def test_a_non_finite_coarsest_rhs_exits_one(monkeypatch, capsys):
    def non_finite(hierarchy, rhs):
        raise FloatingPointError("coarsest-level right-hand side is not finite")

    monkeypatch.setattr(multigrid, "coarse_solve", non_finite)
    assert main(["solve", "--dim", "2", "--G", "12", "--cells", "32"]) == 1
    assert capsys.readouterr().err == (
        "error: coarsest-level right-hand side is not finite\n")


def test_shift_table_override(tmp_path, monkeypatch):
    table = tmp_path / "custom.json"
    table.write_text(json.dumps({"2:12:cubic": {"alpha_star": 1.03}}))
    monkeypatch.setenv("HELM_SHIFT_TABLE", str(table))
    out = tmp_path / "run.json"
    rc = main(["solve", "--dim", "2", "--G", "12", "--cells", "32",
               "--out", str(out)])
    assert rc == 0
    assert read_json(out)["alpha"] == 1.03


@pytest.mark.parametrize("entry", [5, {"alpha_star": "x"}, {"max_eg": 0.1}])
def test_a_malformed_shift_table_entry_exits_two(entry, tmp_path, monkeypatch, capsys):
    table = tmp_path / "custom.json"
    table.write_text(json.dumps({"2:12:cubic": entry}))
    monkeypatch.setenv("HELM_SHIFT_TABLE", str(table))
    assert main(["solve", "--dim", "2", "--G", "12", "--cells", "32"]) == 2
    assert capsys.readouterr().err.startswith(
        "error: alpha_star of shift table entry 2:12:cubic must be a number, got ")


def test_missing_table_entry_triggers_tuning(tmp_path, monkeypatch, caplog):
    monkeypatch.setenv("HELM_SHIFT_TABLE", str(tmp_path / "absent.json"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha_range": [1.0, 1.01]}))
    out = tmp_path / "run.json"
    with caplog.at_level(logging.WARNING, logger="rscgc.cli"):
        rc = main(["solve", "--dim", "2", "--G", "12", "--cells", "32",
                   "--config", str(cfg), "--out", str(out)])
    assert rc == 0
    notice, = [r for r in caplog.records if "tuning now" in r.getMessage()]
    assert notice.name == "rscgc.cli" and notice.levelno == logging.WARNING
    assert "2:12:cubic" in notice.getMessage()
    assert read_json(out)["alpha"] == 1.0045


def test_shift_table_keys_print_G_as_digits_or_repr(tmp_path, monkeypatch, caplog):
    """An integral G prints as digits while repr would too, and as its repr
    past that, so G = 1e308 is keyed "1e+308", not 309 digits."""
    keys = [cli._table_key(2, g, "cubic") for g in (10.0, 11.0, 12.0, 10.5, 1e16)]
    assert keys == ["2:10:cubic", "2:11:cubic", "2:12:cubic", "2:10.5:cubic",
                    "2:1e+16:cubic"]
    monkeypatch.setenv("HELM_SHIFT_TABLE", str(tmp_path / "absent.json"))
    with caplog.at_level(logging.WARNING, logger="rscgc.cli"):
        assert main(["solve", "--G", "1e308", "--cells", "16"]) == 2
    notice, = [r for r in caplog.records if "tuning now" in r.getMessage()]
    assert notice.getMessage() == "shift table has no entry 2:1e+308:cubic; tuning now"


def test_tuning_notice_reaches_stderr_without_logging_setup(tmp_path):
    """A plain `rscgc solve` configures no logging; the notice still shows."""
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha_range": [1.0, 1.01]}))
    src = os.path.dirname(os.path.dirname(rscgc.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path,
               HELM_SHIFT_TABLE=str(tmp_path / "absent.json"))
    run = subprocess.run(
        [sys.executable, "-m", "rscgc.cli", "solve", "--dim", "2", "--G", "12",
         "--cells", "16", "--config", str(cfg), "--out", str(tmp_path / "run.json")],
        env=env, capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    assert run.stderr == "shift table has no entry 2:12:cubic; tuning now\n"


def test_config_file_values_read_as_flag_text(tmp_path):
    """A JSON string in a config file is read as the flag text would be, and a
    list as the comma list: both give the same config."""
    from_flags, from_file = tmp_path / "flags.json", tmp_path / "file.json"
    cfg, out = tmp_path / "cfg.json", tmp_path / "rows.csv"
    cfg.write_text(json.dumps({"G": [10, 12], "alpha_range": "1.0:1.01", "dim": "2",
                               "out": str(out)}))
    assert main(["tune-shift", "--G", "10,12", "--alpha-range", "1.0:1.01",
                 "--emit-config", str(from_flags), "--out", str(out)]) == 0
    rows = read_csv(out)
    assert main(["tune-shift", "--config", str(cfg), "--emit-config", str(from_file)]) == 0
    assert from_flags.read_text() == from_file.read_text()
    assert read_csv(out) == rows and [row["G"] for row in rows] == ["10", "12"]


@pytest.mark.parametrize("argv", [
    ["tune-shift", "--G", "12", "--alpha-range", "1.0:1.01", "--intergrid",
     "level-dependent"],
    ["dispersion", "--dim", "2", "--G", "12", "--alpha", "1.0045",
     "--angle-resolution", "0.1", "--dampings", "0.8,0.8"],
    ["solve", "--G", "12", "--cells", "16,16", "--model", "wedge", "--kappa2", "0.25,1",
     "--solver", "fgmres:20", "--tol", "1e-7", "--free-surface-top", "--pad", "8"],
    ["sweep", "--G", "10", "--grids", "16,", "--methods", "rs-cgc,cslp:0.3",
     "--maxit", "50", "--repeats", "1"],
], ids=lambda argv: argv[0])
def test_emit_config_round_trip_is_exact(argv, tmp_path):
    first, second = tmp_path / "first.json", tmp_path / "second.json"
    out = ["--out", str(tmp_path / "out")]
    assert main(argv + out + ["--emit-config", str(first)]) == 0
    assert main([argv[0], "--config", str(first), "--emit-config", str(second)] + out) == 0
    assert first.read_bytes() == second.read_bytes()


def test_every_field_has_one_parser_and_every_flag_is_a_field():
    """Adding a config field without a parser, or a flag that is not a field,
    fails here."""
    names = [f.name for f in dataclasses.fields(cli.ExperimentConfig)]
    assert len(names) == 29
    table, = [node.value for node in ast.walk(ast.parse(inspect.getsource(cli)))
              if isinstance(node, ast.Assign)
              and getattr(node.targets[0], "id", None) == "_PARSERS"]
    assert sorted(key.value for key in table.keys) == sorted(names)
    assert sorted(cli._PARSERS) == sorted(names)
    commands = cli._build_parser()._subparsers._group_actions[0].choices
    assert sorted(commands) == ["dispersion", "solve", "sweep", "tune-shift"]
    other = {"help", "config", "emit_config", "command", "write_table"}
    for command, parser in commands.items():
        dests = [action.dest for action in parser._actions]
        assert len(dests) == len(set(dests)), command
        assert set(dests) - other <= set(names), command
    assert len(commands["tune-shift"]._actions) == 8 + 1     # and --help
    assert len(commands["dispersion"]._actions) == 18 + 1
    assert len(commands["sweep"]._actions) == 25 + 1


_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda items: st.lists(items, max_size=4) | st.dictionaries(st.text(), items, max_size=3),
    max_leaves=8)


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(cli.ExperimentConfig)])
@settings(max_examples=60, deadline=None)
@given(value=_JSON | st.sampled_from(["2", "12", "1,2", "1:2", "1:2:0.1", "-1", "nan",
                                      "inf", "true", "auto", "cubic", "fgmres:3"]))
def test_any_json_value_parses_or_is_a_config_error(name, value):
    """Whatever parses re-parses from its own JSON to the same JSON."""
    try:
        config = cli.ExperimentConfig(**{name: value})
    except cli.ConfigError:
        return
    text = json.dumps(dataclasses.asdict(config), sort_keys=True)
    again = cli.ExperimentConfig(**json.loads(text))
    assert json.dumps(dataclasses.asdict(again), sort_keys=True) == text


@pytest.mark.parametrize("argv,named", [
    *[([command, "--G", "12", "--grids" if command == "sweep" else "--cells", "16", flag, value],
       f"unrecognized arguments: {flag} {value}")
      for command in ("solve", "sweep", "dispersion")
      for flag, value in (("--scheme", "second-order"), ("--h", "0.5"))],
    *[([command, "--G", "12", "--grids" if command == "sweep" else "--cells", "16",
        "--beta", "0.03"], "unrecognized arguments: --beta 0.03")
      for command in ("solve", "sweep")],
    (["tune-shift", "--G", "12", "--format", "json"], "unrecognized arguments: --format json"),
    # a dict stands for a config file with that content, as emitted before
    # these settings were removed
    *[(["solve", "--G", "12", "--cells", "16", "--config", {key: value}],
       f"unknown config keys: ['{key}']")
      for key, value in (("scheme", "fourth-order"), ("h", None), ("beta", 0.0))],
    (["solve", "--G", "12", "--cells", "16", "--solver", "fgmres(20)"],
     "solver must be fgmres, fgmres:M, or stationary, got 'fgmres(20)'"),
    (["solve", "--G", "12", "--cells", "16", "--config", {"solver": "FGMRES:20"}],
     "solver must be fgmres, fgmres:M, or stationary, got 'FGMRES:20'"),
    # the tuning resolutions, now fixed
    *[([command, "--G", "12", flag, value], f"unrecognized arguments: {flag} {value}")
      for command in ("tune-shift", "dispersion")
      for flag, value in (("--phi-resolution", "1e-300"), ("--alpha-resolution", "1e-12"),
                          ("--ray-resolution", "1e-300"), ("--ray-resolution", "10"))],
    *[([command, "--G", "12", "--config", {key: value}], f"unknown config keys: ['{key}']")
      for command in ("tune-shift", "dispersion")
      for key, value in (("phi_resolution", "x"), ("alpha_resolution", 5e-4),
                         ("ray_resolution", 3))],
    # sweep sets the cells from --grids
    (["sweep", "--G", "12", "--grids", "32", "--cells", "7"], "unrecognized arguments: --cells 7"),
])
def test_removed_settings_exit_two(argv, named, tmp_path, capsys):
    """The scheme, h and beta settings, tune-shift's --format, the fgmres(M)
    spelling, the phi, alpha and ray resolutions of the tuning and sweep's
    --cells are gone: argparse or the config check rejects each."""
    cfg = tmp_path / "cfg.json"
    for arg in argv:
        if isinstance(arg, dict):
            cfg.write_text(json.dumps(arg))
    try:
        rc = main([str(cfg) if isinstance(arg, dict) else arg for arg in argv])
    except SystemExit as exc:
        rc = exc.code
    assert rc == 2
    err = capsys.readouterr().err
    assert named in err and "Traceback" not in err


def test_unknown_config_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"nonsense": 1}))
    rc = main(["solve", "--dim", "2", "--G", "12", "--cells", "32",
               "--config", str(cfg)])
    assert rc == 2
    assert "nonsense" in capsys.readouterr().err


# ---------------------------------------------------------------- sweep

def test_sweep_table_shape_and_method_contrast(tmp_path):
    out = tmp_path / "sweep.csv"
    rc = main(["sweep", "--dim", "2", "--G", "10", "--grids", "32",
               "--methods", "rs-cgc,cslp:0.3:bilinear", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert [list(r) for r in rows] == [["grid", "dofs", "method", "alpha",
                                        "beta", "cycle", "iters", "converged",
                                        "setup_seconds", "seconds"]] * 2
    ours, cslp = rows
    assert ours["method"] == "rs-cgc" and cslp["method"] == "cslp:0.3:bilinear"
    assert ours["grid"] == "32x32" and int(ours["dofs"]) == 71 * 71
    assert ours["alpha"] == "1.014" and ours["beta"] == "0"
    assert cslp["alpha"] == "1" and cslp["beta"] == "0.3"
    assert ours["converged"] == "True" and cslp["converged"] == "True"
    assert int(ours["iters"]) < int(cslp["iters"])
    assert float(ours["seconds"]) > 0
    assert float(ours["setup_seconds"]) > 0


def test_sweep_divergence_reports_the_iteration_budget(tmp_path):
    out = tmp_path / "div.csv"
    rc = main(["sweep", "--dim", "2", "--G", "10", "--grids", "32",
               "--methods", "re-disc", "--solver", "stationary",
               "--maxit", "40", "--out", str(out)])
    assert rc == 0
    row = read_csv(out)[0]
    assert row["converged"] == "False"
    assert row["iters"] == "40"
    assert row["alpha"] == "0.87725"


def test_sweep_config_round_trip(tmp_path):
    first = tmp_path / "a.csv"
    cfg = tmp_path / "cfg.json"
    rc = main(["sweep", "--dim", "2", "--G", "10", "--grids", "32",
               "--methods", "rs-cgc", "--emit-config", str(cfg),
               "--out", str(first)])
    assert rc == 0
    second = tmp_path / "b.csv"
    rc = main(["sweep", "--config", str(cfg), "--out", str(second)])
    assert rc == 0

    strip = lambda rows: [{k: v for k, v in r.items()
                           if k not in ("setup_seconds", "seconds")}
                          for r in rows]
    assert strip(read_csv(first)) == strip(read_csv(second))


def test_sweep_argument_validation(capsys):
    assert main(["sweep", "--dim", "2", "--G", "10", "--grids", "",
                 "--methods", "rs-cgc"]) == 2
    assert main(["sweep", "--dim", "2", "--G", "10", "--grids", "32",
                 "--methods", "rs-cgc,bogus"]) == 2
    capsys.readouterr()


def test_sweep_tunes_a_missing_table_entry_once(tmp_path, monkeypatch, caplog):
    """The method is resolved once for all cells, its shift tuned once."""
    monkeypatch.setenv("HELM_SHIFT_TABLE", str(tmp_path / "absent.json"))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"alpha_range": [1.0, 1.01]}))
    out = tmp_path / "sweep.csv"
    with caplog.at_level(logging.WARNING, logger="rscgc.cli"):
        assert main(["sweep", "--dim", "2", "--G", "12", "--grids", "16,24",
                     "--config", str(cfg), "--out", str(out)]) == 0
    assert len([r for r in caplog.records if "tuning now" in r.getMessage()]) == 1
    assert [row["alpha"] for row in read_csv(out)] == ["1.0045"] * 2


def test_sweep_tunes_a_shift_shared_by_two_methods_once(tmp_path, monkeypatch, caplog):
    """rs-cgc and rs-cgc+cslp both use the tuned shift; it is tuned once,
    and the rows are those of a sweep given that shift."""
    tunings = []

    def optimize_shift(analysis):
        tunings.append(analysis)
        return 1.0123, 0.0, None

    monkeypatch.setattr(cli, "optimize_shift", optimize_shift)
    monkeypatch.setenv("HELM_SHIFT_TABLE", str(tmp_path / "absent.json"))
    sweep = ["sweep", "--dim", "2", "--G", "12", "--grids", "16",
             "--methods", "rs-cgc,rs-cgc+cslp"]
    tuned, given = tmp_path / "tuned.csv", tmp_path / "given.csv"
    with caplog.at_level(logging.WARNING, logger="rscgc.cli"):
        assert main(sweep + ["--out", str(tuned)]) == 0
    assert len(tunings) == 1
    assert len([r for r in caplog.records if "tuning now" in r.getMessage()]) == 1
    assert main(sweep + ["--alpha", "1.0123", "--out", str(given)]) == 0
    strip = lambda rows: [{k: v for k, v in r.items()
                           if k not in ("setup_seconds", "seconds")} for r in rows]
    assert strip(read_csv(tuned)) == strip(read_csv(given))
    assert [row["alpha"] for row in read_csv(tuned)] == ["1.0123"] * 2


@pytest.mark.parametrize("flags,named", [
    (["--alpha", "-1"], "alpha must be finite and positive, got -1.0"),
    (["--methods", "cslp:0.1:foo"],
     "intergrid must be one of ('cubic', 'level-dependent', 'bilinear'), got 'foo'"),
    (["--dampings", "0.8,0"], "dampings must be finite and positive, got (0.8, 0.0)"),
    (["--methods", "rs-cgc+cslp:0.03:bilinear"],
     "unknown method 'rs-cgc+cslp:0.03:bilinear'"),
    (["--methods", "cslp:0.1:cubic:junk"], "unknown method 'cslp:0.1:cubic:junk'"),
], ids=["alpha", "intergrid", "dampings", "combined-extra-field", "cslp-extra-field"])
def test_sweep_rejects_bad_method_values_before_any_problem_is_built(flags, named,
                                                                     monkeypatch, capsys):
    built = []
    original = cli._build_problem
    monkeypatch.setattr(cli, "_build_problem",
                        lambda config: built.append(1) or original(config))
    assert main(["sweep", "--dim", "2", "--G", "12", "--grids", "16,24"] + flags) == 2
    assert not built
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err


@pytest.mark.parametrize("argv,shape,counted", [
    (["solve", "--dim", "3", "--G", "10.5", "--cells", "30", "--pad", "8"],
     (47, 47, 47), "optimize_shift"),
    (["dispersion", "--dim", "3", "--G", "10", "--intergrid", "level-dependent",
      "--alpha-scan", "1.0:1.03", "--cells", "30", "--pad", "8"], (47, 47, 47),
     "optimize_shift"),
    (["sweep", "--dim", "2", "--G", "12", "--grids", "256,30", "--methods", "rs-cgc"],
     (71, 71), "_sweep_cell"),
    # the packaged table holds G = 12 but not 10.5 or 12.5, which are tuned
    (["sweep", "--dim", "2", "--G", "12.5", "--grids", "32,30"], (71, 71), "optimize_shift"),
], ids=["solve-tuning", "alpha-scan", "sweep-cell", "sweep-tuning"])
def test_a_grid_that_cannot_be_coarsened_twice_fails_before_any_tuning_or_solve(
        argv, shape, counted, tmp_path, monkeypatch, capsys):
    """The message is build_hierarchy's, and neither a tuning nor a sweep
    cell runs first."""
    calls = []
    original = getattr(cli, counted)
    monkeypatch.setattr(cli, counted, lambda *args: calls.append(1) or original(*args))
    assert main(argv + ["--out", str(tmp_path / "out")]) == 2
    assert not calls
    err = capsys.readouterr().err
    assert err.startswith(f"error: grid extents {shape} cannot be coarsened twice: each "
                          f"axis needs (nodes - 1) divisible by 4")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("grids,pool", [("16", None), ("16,24", 2)])
def test_sweep_starts_no_more_workers_than_cells(grids, pool, tmp_path, monkeypatch):
    """A pool forks all its workers at once, so 64 workers on one cell run it
    in-process and on two cells start a pool of two."""
    pools = []

    class SerialPool:
        def __init__(self, max_workers):
            pools.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(cli, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(cli, "_sweep_cell", lambda config, kind, plan: {
        "grid": str(config.cells[0]), "method": config.method})
    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--dim", "2", "--G", "12", "--grids", grids, "--workers", "64",
                 "--out", str(out)]) == 0
    assert pools == ([] if pool is None else [pool])
    assert [row["grid"] for row in read_csv(out)] == grids.split(",")


def test_every_cycle_plan_field_is_set_by_the_cli(tmp_path, monkeypatch):
    """No CyclePlan field is settable only by a library caller: one solve
    passes every field."""
    passed = []

    def recording(**kwargs):
        passed.append(set(kwargs))
        return CyclePlan(**kwargs)

    monkeypatch.setattr(cli, "CyclePlan", recording)
    assert main(["solve", "--dim", "2", "--G", "12", "--cells", "16",
                 "--out", str(tmp_path / "run.json")]) == 0
    assert passed == [{f.name for f in dataclasses.fields(CyclePlan)}]


# ---------------------------------------------------------------- dispersion

def test_dispersion_curve_export(tmp_path):
    out = tmp_path / "curve.csv"
    rc = main(["dispersion", "--dim", "2", "--G", "12", "--alpha", "1.0045",
               "--angle-resolution", "0.1", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert list(rows[0]) == ["phi", "r_coarse", "r_fine_stretched"]
    assert len(rows) == 65                      # 16 per quadrant plus closure
    assert float(rows[0]["phi"]) == 0.0
    assert float(rows[-1]["phi"]) == pytest.approx(2 * math.pi)
    assert rows[-1]["r_coarse"] == rows[0]["r_coarse"]
    gaps = [abs(float(r["r_coarse"]) - float(r["r_fine_stretched"])) for r in rows]
    assert max(gaps) < 0.01


def test_dispersion_alpha_scan(tmp_path):
    out = tmp_path / "scan.csv"
    rc = main(["dispersion", "--dim", "2", "--G", "11", "--cells", "32",
               "--alpha-scan", "1.008:1.016:0.004", "--scan-maxit", "6",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert [r["alpha"] for r in rows] == ["1.008", "1.012", "1.016"]
    for row in rows:
        assert list(row) == ["alpha", "e_g_max", "conv_factor"]
        assert float(row["e_g_max"]) > 0
        assert 0 < float(row["conv_factor"]) < 1.5


def test_dispersion_scan_validation(capsys):
    base = ["dispersion", "--dim", "2", "--G", "11", "--cells", "32"]
    assert main(base + ["--alpha-scan", "1.02:1.01"]) == 2
    assert main(base + ["--alpha-scan", "abc"]) == 2
    assert main(base + ["--alpha-scan", "1.0:1.02:nan"]) == 2
    capsys.readouterr()
