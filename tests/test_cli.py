"""End-to-end runs of the command-line driver, in process."""

import csv
import functools
import json
import logging
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import rscgc
from rscgc import cli, multigrid
from rscgc.cli import main
from rscgc.frontal import FrontalLU
from rscgc.multigrid import CyclePlan


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


def test_tune_shift_json_format(tmp_path):
    out = tmp_path / "shift.json"
    rc = main(["tune-shift", "--dim", "2", "--G", "12",
               "--alpha-range", "1.0:1.01", "--format", "json",
               "--out", str(out)])
    assert rc == 0
    rows = read_json(out)
    assert isinstance(rows, list) and rows[0]["alpha_star"] == "1.0045"


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
    assert payload["dofs"] == 105 * 105
    assert payload["cycle"] == "W(1,1)"
    assert payload["converged"] is True and payload["diverged"] is False
    history = payload["residual_history"]
    assert history[0] == 1.0 and history[-1] < 1e-6
    assert payload["iterations"] + 1 == len(history)
    # set-up and solve timed apart; per-level sizes, LU fill, coarsest residual
    assert 0 < payload["setup_seconds"] and 0 < payload["solve_seconds"]
    assert payload["wall_time"] <= payload["solve_seconds"]
    assert [level["dofs"] for level in payload["levels"]] == [105 ** 2, 53 ** 2, 27 ** 2]
    assert all(level["nnz"] >= level["dofs"] for level in payload["levels"])
    assert payload["coarse_lu_nnz"] >= payload["levels"][2]["nnz"]
    assert 0 < payload["max_coarse_residual"] <= 1e-10


@pytest.mark.parametrize("pivoting", [False, True])
def test_coarse_lu_nnz_counts_the_stored_factors(pivoting, tmp_path, monkeypatch):
    """The frontal LU reports its fill from the front sizes, the pivoted
    SuperLU fallback from its factors; either way it is L.nnz + U.nnz."""
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
    assert read_json(out)["coarse_lu_nnz"] == lu.L.nnz + lu.U.nnz


def test_solve_setup_time_includes_the_outer_assembly(tmp_path, monkeypatch):
    """With beta > 0 the unshifted outer operator is assembled after the
    hierarchy; that assembly counts as set-up, not as solve."""
    import rscgc.cli as cli
    delay = 0.2
    original = cli.assemble_operator

    def slow_assembly(*args, **kwargs):
        time.sleep(delay)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "assemble_operator", slow_assembly)
    out = tmp_path / "run.json"
    rc = main(["solve", "--dim", "2", "--G", "10", "--cells", "32",
               "--method", "cslp:0.5", "--out", str(out)])
    assert rc == 0
    payload = read_json(out)
    assert payload["setup_seconds"] >= delay
    assert payload["solve_seconds"] < payload["wall_time"] + delay


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


def test_solve_rejects_bad_arguments(capsys):
    base = ["solve", "--dim", "2", "--G", "12", "--cells", "32"]
    assert main(base + ["--alpha", "abc"]) == 2
    assert main(base + ["--method", "ilu"]) == 2
    assert main(base + ["--solver", "bicg"]) == 2
    assert main(base + ["--method", "cslp:0.3", "--solver", "stationary"]) == 2
    assert main(["solve", "--dim", "2", "--G", "12", "--cells", "16,16,16"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("argv,named", [
    (["solve", "--G", "nan", "--cells", "32"], "'nan'"),
    (["sweep", "--G", "12", "--grids", "a,b"], "'a,b'"),
    (["sweep", "--G", "12", "--grids", "32", "--method", "cslp:abc"], "'abc'"),
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
     "h must be a number, got 'abc'"),
    (["solve", "--G", "12", "--cells", "32", "--config", {"kappa2": 5}],
     "kappa2 must be a lo,hi pair, got 5"),
    (["solve", "--G", "12", "--cells", "32", "--config", {"dampings": 0.8}],
     "dampings must be a list of two numbers, got 0.8"),
])
def test_unparsable_values_exit_two(argv, named, tmp_path, capsys):
    config = tmp_path / "cfg.json"
    for arg in argv:
        if isinstance(arg, dict):
            config.write_text(json.dumps(arg))
    assert main([str(config) if isinstance(arg, dict) else arg for arg in argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and named in err
    assert "Traceback" not in err


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
    """cycle_precision is "single" by default, and "double" for a plan built
    with precision="double"; a single cycle that overflows reports the
    fallback, and the solve then runs exactly as the double plan's."""
    out = tmp_path / "run.json"
    base = ["solve", "--dim", "2", "--G", "12", "--cells", "32", "--out", str(out)]
    assert main(base) == 0
    single = read_json(out)
    assert single["cycle_precision"] == "single"
    with monkeypatch.context() as patch:
        patch.setattr(cli, "CyclePlan", functools.partial(CyclePlan, precision="double"))
        assert main(base) == 0
    double = read_json(out)
    assert double["cycle_precision"] == "double"
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
    assert ours["grid"] == "32x32" and int(ours["dofs"]) == 73 * 73
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
