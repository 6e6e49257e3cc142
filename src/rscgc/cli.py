"""Command-line driver: shift tuning, dispersion export, solves, and sweeps.

Configuration comes from subcommand flags, optionally merged over a JSON
config file (flags win). --emit-config writes the merged configuration back
out so a run can be reproduced exactly; outputs are deterministic given a
config, wall-time columns aside. solve writes a JSON report, the others CSV.
Every hierarchy is built on dispersion.TUNED_SCHEME, the scheme the shift is
tuned for; a complex shift comes only from a method spec. The tuning samples
at the fixed resolutions of the dispersion module, so only --alpha-range
changes a tune.

Tuned shifts are cached in a JSON table keyed "dim:G:intergrid" so solve and
sweep runs do not re-optimize; the packaged table covers G in {10, 11, 12}
for both dimensions and both intergrid schemes. HELM_SHIFT_TABLE points the
lookup at a different file; alpha values missing from the table are tuned on
the fly.
"""

import argparse
import csv
import functools
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .discretization import (MODEL_KINDS, HelmholtzProblem, _integer, assemble_operator,
                             load_model, make_model, omega_for_ppw, point_source)
from .dispersion import (TUNED_SCHEME, AnalysisConfig, NoCrossingError,
                         export_dispersion_curve, ncrit_bounds, optimize_shift)
from .frontal import FrontalLU
from .krylov import checked_maxit, fgmres, stationary_solve
from .multigrid import (CYCLE_CHOICES, CyclePlan, REDISC_WAVENUMBER_SCALE, _check_coarsenable,
                        build_hierarchy, build_rediscretized_hierarchy, cycle)
from .stencils import INTERGRID

__all__ = ["ExperimentConfig", "main"]

DEFAULT_DAMPINGS = {2: (0.89, 0.89), 3: (0.6, 0.4)}

# Diagnostics; without a configured handler, Python's last-resort handler
# prints warnings to stderr.
logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid or incomplete configuration; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    """Flat parameter set shared by the subcommands; JSON round-trippable.

    Every field is parsed once, by its entry in _PARSERS, from flag text or
    config-file JSON alike (a JSON string is read as flag text), into the
    canonical JSON form noted beside it. None is allowed where it is the
    default.
    """

    dim: int = 2
    G: list = None                      # of floats; one value except in tune-shift
    intergrid: str = "cubic"
    alpha_range: list = (0.98, 1.06)    # [lo, hi]
    angle_resolution: float = 0.01
    cells: list = None                  # of ints, one per axis or one for all
    model: str = "homogeneous"
    kappa2: list = (1.0, 1.0)           # [lo, hi]
    model_file: str = None
    model_meta: str = None
    cycle: str = "W"
    nu1: int = 1
    nu2: int = 1
    alpha: object = "auto"              # "auto" or a float
    dampings: list = None               # [w1, w2]
    pad: int = 20
    gamma_max: float = 1.0
    free_surface_top: bool = False
    solver: str = "fgmres"              # "fgmres", "fgmres:M" or "stationary"
    tol: float = 1e-6
    maxit: int = None
    method: str = "rs-cgc"
    methods: list = None                # of strings
    grids: list = None                  # of ints
    repeats: int = 1
    workers: int = 1
    alpha_scan: list = None             # [lo, hi, step]
    scan_maxit: int = 12
    out: str = None

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None or f.default is not None:
                setattr(self, f.name, _PARSERS[f.name](value, f.name))

    @classmethod
    def from_args(cls, args):
        values = {}
        if args.config:
            try:
                with open(args.config, encoding="utf-8") as fh:
                    loaded = json.load(fh)
            except (OSError, ValueError) as exc:
                raise ConfigError(f"cannot read config file {args.config}: {exc}") from exc
            if not isinstance(loaded, dict):
                raise ConfigError(f"config file {args.config} must hold a JSON object")
            unknown = set(loaded) - {f.name for f in fields(cls)}
            if unknown:
                raise ConfigError(f"unknown config keys: {sorted(unknown)}")
            values.update(loaded)
        for f in fields(cls):
            flag = getattr(args, f.name, None)
            if flag is not None:
                values[f.name] = flag
        return cls(**values)

    def emit(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


# ---------------------------------------------------------------------------
# the parse table: value converters, the parsers built from them, and one
# parser per ExperimentConfig field. A converter raises ValueError (or
# OverflowError, for an integer too large for a float) on a bad value.

def _number(raw):
    if isinstance(raw, bool) or not isinstance(raw, (str, int, float)):
        raise ValueError(raw)
    return float(raw)


def _positive(raw):
    value = _number(raw)
    if not 0 < value < math.inf:
        raise ValueError(raw)
    return value


def _count(raw):
    return int(raw) if isinstance(raw, str) else _integer(raw, "count")


def _text(raw):
    if not isinstance(raw, str):
        raise ValueError(raw)
    return raw


def _solver(raw):
    text = _text(raw)
    if text in ("fgmres", "stationary"):
        return text
    kind, _, restart = text.partition(":")
    if kind != "fgmres":
        raise ValueError(raw)
    return f"fgmres:{int(restart)}"


def _choice(options, what=None):
    """One of options, matched by its text (JSON text for a number or a bool)
    or by its JSON type and value."""
    def convert(raw):
        for option in options:
            text = option if isinstance(option, str) else json.dumps(option)
            if raw == text if isinstance(raw, str) else (
                    type(raw) is type(option) and raw == option):
                return option
        raise ValueError(raw)
    return _one(convert, what or "one of " + ", ".join(options))


def _one(convert, what, least=None):
    """A single value, at least `least` when that is given."""
    def parse(raw, name):
        try:
            value = convert(raw)
        except (ValueError, OverflowError):
            raise ConfigError(f"{name} must be {what}, got {raw!r}") from None
        if least is not None and value < least:
            raise ConfigError(f"{name} must be at least {least}, got {value}")
        return value
    return parse


def _list(convert, what, least=None, sep=",", sizes=None, whole="a non-empty list"):
    """A list of `what` items: flag text split at sep, a JSON list, or one JSON
    value standing for a list of one. It has one of `sizes` items, or any
    number but none."""
    item = _one(convert, what, least)

    def parse(raw, name):
        listed = isinstance(raw, (str, list, tuple))
        items = ([v for v in (raw.split(sep) if isinstance(raw, str) else raw) if v != ""]
                 if listed else [raw])
        try:
            values = [item(v, name) for v in items]
        except ConfigError as exc:
            if items == [raw]:
                raise
            raise ConfigError(f"{exc} in {raw!r}") from None
        if not values or sizes and len(values) not in sizes:
            shown = tuple(values) if listed and values else raw
            raise ConfigError(f"{name} must be {whole}, got {shown!r}")
        return values
    return parse


_NUMBER = _one(_number, "a number")
_COUNT = _one(_count, "an integer")
_TEXT = _one(_text, "a string")

_PARSERS = {
    "dim": _choice((2, 3), "the integer 2 or 3"),
    "G": _list(_positive, "a finite positive number"),
    "intergrid": _choice(tuple(INTERGRID)),
    "alpha_range": _list(_number, "a number", sep=":", sizes=(2,), whole="a lo:hi pair"),
    "angle_resolution": _NUMBER,
    "cells": _list(_count, "an integer", least=1),
    "model": _choice(MODEL_KINDS),
    "kappa2": _list(_number, "a number", sizes=(2,), whole="a lo,hi pair"),
    "model_file": _TEXT,
    "model_meta": _TEXT,
    "cycle": _choice(CYCLE_CHOICES),
    "nu1": _COUNT,
    "nu2": _COUNT,
    "alpha": _one(lambda raw: "auto" if raw == "auto" else _number(raw),
                  "'auto' or a number"),
    "dampings": _list(_number, "a number", sizes=(2,), whole="a list of two numbers"),
    "pad": _COUNT,
    "gamma_max": _NUMBER,
    "free_surface_top": _choice((False, True), "true or false"),
    "solver": _one(_solver, "fgmres, fgmres:M, or stationary"),
    "tol": _NUMBER,
    "maxit": _COUNT,
    "method": _TEXT,
    "methods": _list(_text, "a string"),
    "grids": _list(_count, "an integer", least=1),
    "repeats": _one(_count, "an integer", least=1),
    "workers": _one(_count, "an integer", least=1),
    "alpha_scan": _list(_number, "a number", sep=":", sizes=(2, 3),
                        whole="lo:hi or lo:hi:step"),
    "scan_maxit": _one(_count, "an integer", least=1),
    "out": _TEXT,
}


def _require_G(config):
    """The one G of a solve, sweep or dispersion run."""
    if config.G is None:
        raise ConfigError("G (points per wavelength) is required; pass --G")
    if len(config.G) != 1:
        raise ConfigError(f"G must be a single value here, got {config.G}")
    return config.G[0]


def _format_G(g):
    """g as digits where repr would print an integral g as digits, else repr."""
    return str(int(g)) if g == int(g) and abs(g) < 1e16 else repr(g)


def _table_key(dim, g, intergrid):
    """The shift table's key "dim:G:intergrid" of a tuned shift."""
    return f"{dim}:{_format_G(g)}:{intergrid}"


def _cells_tuple(config):
    if config.cells is None:
        raise ConfigError("grid size is required; pass --cells")
    cells = config.cells * config.dim if len(config.cells) == 1 else config.cells
    if len(cells) != config.dim:
        raise ConfigError(f"cells {cells} does not match dim {config.dim}")
    return tuple(cells)


def _build_model(config):
    if config.model_file is not None:
        if config.model_meta is None:
            raise ConfigError("model_file needs model_meta, the JSON metadata of "
                              "the grid; pass --model-meta")
        try:
            model = load_model(config.model_file, config.model_meta)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"cannot load model {config.model_file} with metadata "
                              f"{config.model_meta}: {exc}") from exc
        if model.dim != config.dim:
            raise ConfigError(
                f"model file is {model.dim}D but config dim is {config.dim}")
        return model
    cells = _cells_tuple(config)
    try:
        return make_model(config.model, config.kappa2, cells, 1.0 / cells[0])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_problem(config):
    model = _build_model(config)
    omega = omega_for_ppw(model, _require_G(config))
    try:
        problem = HelmholtzProblem(model, omega, pad=config.pad, gamma_max=config.gamma_max,
                                   free_surface_top=config.free_surface_top)
        _check_coarsenable(problem.padded_shape)    # as build_hierarchy, before any tuning
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    return problem


# ---------------------------------------------------------------------------
# shift table

def _table_path():
    return (os.environ.get("HELM_SHIFT_TABLE")
            or os.path.join(os.path.dirname(__file__), "data", "shift_table.json"))


def _load_table(path):
    """The shift table at path: {} when it cannot be opened, else a JSON object."""
    try:
        with open(path, encoding="utf-8") as fh:
            table = json.load(fh)
    except OSError:
        return {}
    except ValueError as exc:
        raise ConfigError(f"shift table {path} is not valid JSON: {exc}") from exc
    if not isinstance(table, dict):
        raise ConfigError(f"shift table {path} must hold a JSON object, "
                          f"got {type(table).__name__}")
    return table


def _analysis_config(config, g, **scan):
    """The analysis of config at g; a shift scan passes its own alpha_range
    and alpha_resolution."""
    values = dict(alpha_range=tuple(config.alpha_range)) | scan
    try:
        return AnalysisConfig(dim=config.dim, G=g, intergrid=config.intergrid, **values)
    except ValueError as exc:
        scanned = f" (alpha_scan {config.alpha_scan!r})" if scan else ""
        raise ConfigError(f"{exc}{scanned}") from exc


def _resolve_alpha(config, g, before_tuning=lambda: None):
    """config.alpha, with "auto" served from the table or tuned on the fly,
    just after before_tuning()."""
    if config.alpha != "auto":
        return config.alpha
    key = _table_key(config.dim, g, config.intergrid)
    entry = _load_table(_table_path()).get(key)
    if entry is not None:
        return _NUMBER(entry.get("alpha_star") if isinstance(entry, dict) else None,
                       f"alpha_star of shift table entry {key}")
    before_tuning()
    logger.warning("shift table has no entry %s; tuning now", key)
    alpha_star, _, _ = optimize_shift(_analysis_config(config, g))
    return alpha_star


# ---------------------------------------------------------------------------
# methods

# The most ":"-separated fields of each method spec.
_METHOD_FIELDS = {"rs-cgc": 1, "cslp": 3, "rs-cgc+cslp": 2, "re-disc": 1}

def _method_beta(parts, default, spec):
    if len(parts) < 2:
        return default
    try:
        return float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"cannot parse beta {parts[1]!r} in method {spec!r}") from exc


def _cycle_plan(config, alpha, beta, intergrid):
    """The CyclePlan of config with the given shifts and intergrid scheme."""
    try:
        return CyclePlan(cycle=config.cycle, nu1=config.nu1, nu2=config.nu2,
                         intergrid=intergrid, alpha=alpha, beta=beta,
                         dampings=config.dampings or DEFAULT_DAMPINGS[config.dim])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_method(spec, config, alpha):
    """Return (kind, CyclePlan) for a method string, checked before any
    problem is built. alpha() returns the resolved real shift; only the
    methods that use it call it.

    Grammar: rs-cgc | cslp:BETA[:INTERGRID] | rs-cgc+cslp[:BETA] | re-disc.
    """
    parts = spec.strip().split(":")
    name = parts[0]
    if len(parts) > _METHOD_FIELDS.get(name, 0):
        raise ConfigError(f"unknown method {spec!r}; expected rs-cgc, "
                          f"cslp:BETA[:INTERGRID], rs-cgc+cslp[:BETA], or re-disc")
    if name == "re-disc":
        return "re-disc", _cycle_plan(config, REDISC_WAVENUMBER_SCALE, 0.0, "bilinear")
    if name == "rs-cgc":
        shifts = alpha(), 0.0, config.intergrid
    elif name == "cslp":
        intergrid = parts[2] if len(parts) > 2 else config.intergrid
        shifts = 1.0, _method_beta(parts, 0.1, spec), intergrid
    else:
        beta = _method_beta(parts, 0.03, spec)      # checked before any tuning
        shifts = alpha(), beta, config.intergrid
    return "galerkin", _cycle_plan(config, *shifts)


def _restart(config):
    """The FGMRES restart length of config.solver; None for full FGMRES or the
    stationary solver."""
    _, _, restart = config.solver.partition(":")
    return int(restart) if restart else None


def _maxit(config):
    """The iteration cap of the config's solver; krylov.checked_maxit checks
    tol, maxit and restart."""
    try:
        return checked_maxit(config.tol, config.maxit, _restart(config))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _outer_operator(problem, hierarchy):
    """The unshifted matrix the outer solver iterates on: the hierarchy's fine
    level when beta = 0, else a separate assembly."""
    if hierarchy.plan.beta == 0:
        return hierarchy.levels[0].operator.matrix
    return assemble_operator(problem, TUNED_SCHEME, alpha=1.0, beta=0.0).matrix


def _set_up(problem, config, kind, plan):
    """The set-up of every solve: returns the hierarchy of (kind, plan), the
    outer operator of config and the seconds both took. The stationary
    solver iterates on the fine level, so it takes no complex shift."""
    if config.solver == "stationary" and plan.beta > 0:
        raise ConfigError("the stationary solver iterates on the operator it "
                          "is built from; beta must be 0")
    start = time.perf_counter()
    try:
        if kind == "re-disc":
            hierarchy = build_rediscretized_hierarchy(problem, plan)
        else:
            hierarchy = build_hierarchy(problem, TUNED_SCHEME, plan)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    outer = _outer_operator(problem, hierarchy)
    return hierarchy, outer, time.perf_counter() - start


def _run_solver(problem, config, hierarchy, outer):
    b = point_source(problem).ravel()
    apply_A, apply_M = (lambda v: outer @ v), (lambda r: cycle(hierarchy, r))
    if config.solver == "stationary":
        return stationary_solve(apply_A, apply_M, b, tol=config.tol, maxit=_maxit(config))
    return fgmres(apply_A, apply_M, b, restart=_restart(config), tol=config.tol,
                  maxit=_maxit(config))


# ---------------------------------------------------------------------------
# output helpers

def _write_rows(rows, columns, out):
    with open(out, "w", encoding="utf-8", newline="") if out else nullcontext(sys.stdout) as fh:
        writer = csv.DictWriter(fh, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def _write_json(payload, out):
    with open(out, "w", encoding="utf-8") if out else nullcontext(sys.stdout) as fh:
        fh.write(json.dumps(payload, indent=2) + "\n")


# ---------------------------------------------------------------------------
# subcommands

def cmd_tune_shift(config, write_table=None):
    if config.G is None:
        raise ConfigError("G is required; pass --G (comma list allowed)")
    table = _load_table(write_table) if write_table else {}
    rows = []
    for g in config.G:
        acfg = _analysis_config(config, g)
        alpha_star, max_eg, _ = optimize_shift(acfg)
        lo, hi = ncrit_bounds(g, max_eg)
        row = {"G": _format_G(g), "dim": config.dim, "intergrid": config.intergrid,
               "alpha_star": f"{alpha_star:.4f}", "max_eg": f"{max_eg:.6e}",
               "ncrit_lo": lo, "ncrit_hi": hi}
        rows.append(row)
        table[_table_key(config.dim, g, config.intergrid)] = {
            "alpha_star": float(row["alpha_star"]), "max_eg": float(row["max_eg"]),
            "ncrit_lo": lo, "ncrit_hi": hi}
    if write_table:
        with open(write_table, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=2, sort_keys=True)
            fh.write("\n")
    columns = ["G", "dim", "intergrid", "alpha_star", "max_eg", "ncrit_lo", "ncrit_hi"]
    _write_rows(rows, columns, config.out)
    return 0


def _lu_fill(lu):
    """Stored entries of the coarsest L and U: counted from the front sizes
    of a FrontalLU, read off the sparse factors of the SuperLU fallback."""
    return lu.fill if isinstance(lu, FrontalLU) else int(lu.L.nnz + lu.U.nnz)


def cmd_solve(config):
    _maxit(config)      # check the solver limits before spending set-up time
    problem = _build_problem(config)    # cheap checks before a possible tuning
    g = _require_G(config)
    kind, plan = _parse_method(config.method, config, lambda: _resolve_alpha(config, g))
    hierarchy, outer, setup_seconds = _set_up(problem, config, kind, plan)
    start = time.perf_counter()
    x, report = _run_solver(problem, config, hierarchy, outer)
    solve_seconds = time.perf_counter() - start
    lu = hierarchy.coarse_solver
    payload = {
        "method": config.method,
        "solver": config.solver,
        "grid": list(problem.model.cells),
        "padded_shape": list(problem.padded_shape),
        "dofs": int(np.prod(problem.padded_shape)),
        "G": float(g),
        "alpha": plan.alpha,
        "beta": plan.beta,
        "intergrid": plan.intergrid,
        "cycle": f"{config.cycle}({config.nu1},{config.nu2})",
        "iterations": report.iterations,
        "converged": report.converged,
        "diverged": report.diverged,
        "residual_history": report.residual_history,
        "setup_seconds": setup_seconds,
        "solve_seconds": solve_seconds,
        "levels": [{"dofs": level.operator.dofs, "nnz": int(level.operator.matrix.nnz)}
                   for level in hierarchy.levels],
        "coarse_lu_nnz": _lu_fill(lu),
        "coarse_factorization": "frontal" if isinstance(lu, FrontalLU) else "superlu",
        "max_coarse_residual": hierarchy.max_coarse_residual,
        "cycle_precision": hierarchy.cycle_precision,
    }
    _write_json(payload, config.out)
    return 0 if report.converged else 1


def _sweep_cell(config, kind, plan):
    """One (grid, method) sweep cell, with the method cmd_sweep resolved to
    (kind, plan); module-level so workers can import it."""
    problem = _build_problem(config)
    hierarchy, outer, setup_seconds = _set_up(problem, config, kind, plan)
    seconds = []
    for _ in range(config.repeats + 1):     # first run is the warm-up
        start = time.perf_counter()
        _, report = _run_solver(problem, config, hierarchy, outer)
        seconds.append(time.perf_counter() - start)
    iters = _maxit(config) if report.diverged else report.iterations
    return {
        "grid": "x".join(str(c) for c in problem.model.cells),
        "dofs": int(np.prod(problem.padded_shape)),
        "method": config.method,
        "alpha": f"{plan.alpha:.6g}",
        "beta": f"{plan.beta:.6g}",
        "cycle": f"{config.cycle}({config.nu1},{config.nu2})",
        "iters": iters,
        "converged": report.converged,
        "setup_seconds": f"{setup_seconds:.4f}",
        "seconds": f"{np.mean(seconds[1:]):.4f}",
    }


def cmd_sweep(config):
    if config.grids is None:
        raise ConfigError("grid list is required; pass --grids N1,N2,...")
    methods = config.methods or [config.method]
    g = _require_G(config)
    _maxit(config)
    # each method is checked once for all cells, before any problem is
    # built; the problem of every grid is built before the shift is tuned,
    # if need be once for all methods, or any cell runs
    check_grids = functools.cache(
        lambda: all(_build_problem(replace(config, cells=grid)) for grid in config.grids))
    alpha = functools.cache(lambda: _resolve_alpha(config, g, check_grids))
    resolved = {m: _parse_method(m, config, alpha) for m in methods}
    check_grids()
    jobs = [(replace(config, cells=grid, method=m), *resolved[m])
            for grid in config.grids for m in methods]
    # a pool forks all its workers at the first submit: no more than the cells
    workers = min(config.workers, len(jobs))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_cell, *zip(*jobs)))
    else:
        rows = [_sweep_cell(*job) for job in jobs]
    columns = ["grid", "dofs", "method", "alpha", "beta", "cycle",
               "iters", "converged", "setup_seconds", "seconds"]
    _write_rows(rows, columns, config.out)
    return 0


def _convergence_factor(history):
    """Residual-reduction ratio over the last up-to-5 stationary steps."""
    if len(history) < 2:
        return float("nan")
    span = min(5, len(history) - 1)
    return (history[-1] / history[-1 - span]) ** (1.0 / span)


def cmd_dispersion(config):
    g = _require_G(config)
    if config.alpha_scan is not None:
        lo, hi, step = (config.alpha_scan + [0.005])[:3]
        acfg = _analysis_config(config, g, alpha_range=(lo, hi), alpha_resolution=step)
        problem = _build_problem(config)
        _, _, scan = optimize_shift(acfg)
        eg_max = np.abs(scan.errors).max(axis=1)
        # the measured factor comes from scan_maxit steps that never converge
        stationary = replace(config, solver="stationary", tol=1e-30, maxit=config.scan_maxit)
        rows = []
        for alpha, eg in zip(scan.alphas, eg_max):
            plan = _cycle_plan(config, float(alpha), 0.0, config.intergrid)
            hierarchy, outer, _ = _set_up(problem, stationary, "galerkin", plan)
            _, report = _run_solver(problem, stationary, hierarchy, outer)
            rows.append({"alpha": f"{alpha:.6g}", "e_g_max": f"{eg:.6e}",
                         "conv_factor": f"{_convergence_factor(report.residual_history):.4f}"})
        _write_rows(rows, ["alpha", "e_g_max", "conv_factor"], config.out)
        return 0
    acfg = _analysis_config(config, g)
    alpha = _resolve_alpha(config, g)
    try:
        curve = export_dispersion_curve(acfg, alpha,
                                        angle_resolution=config.angle_resolution)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    rows = [{c: f"{v:.9g}" for c, v in zip(curve.columns, row)}
            for row in curve.rows]
    _write_rows(rows, list(curve.columns), config.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

# The ExperimentConfig fields each subcommand takes as flags (--name-with-dashes),
# with their help.
_COMMON = {"out": "output path (default stdout)", "dim": "2 or 3",
           "G": "points per wavelength on the fine grid (tune-shift: a comma list)",
           "intergrid": "one of " + ", ".join(INTERGRID)}
_ANALYSIS = {"alpha_range": "shift search interval lo:hi"}
_CELLS = {"cells": "interior cells per axis, before padding"}
_GRID = {"model": "one of " + ", ".join(MODEL_KINDS),
         "kappa2": "squared-slowness range lo,hi", "pad": None, "gamma_max": None,
         "cycle": "V or W", "dampings": "per-level Jacobi dampings w1,w2"}
_ALPHA = {"alpha": "real shift, or 'auto' for the tuned table"}
_SOLVE = _GRID | _ALPHA | {
    "model_file": "binary slowness/velocity grid; needs --model-meta",
    "model_meta": "JSON metadata for --model-file", "free_surface_top": None,
    "nu1": None, "nu2": None,
    "solver": "fgmres, fgmres:M, or stationary", "tol": None, "maxit": None}
_COMMANDS = {
    "tune-shift": ("optimize the real shift", _COMMON | _ANALYSIS,
                   lambda cfg, args: cmd_tune_shift(cfg, args.write_table)),
    "dispersion": ("export dispersion curves", _COMMON | _ANALYSIS | _CELLS | _GRID | _ALPHA | {
        "angle_resolution": None, "scan_maxit": None,
        "alpha_scan": "lo:hi[:step]; pairs e_g with measured convergence factors "
                      "on --cells"}, lambda cfg, args: cmd_dispersion(cfg)),
    "solve": ("solve one problem", _COMMON | _CELLS | _SOLVE | {
        "method": "rs-cgc, cslp:BETA[:INTERGRID], rs-cgc+cslp[:BETA], or re-disc"},
        lambda cfg, args: cmd_solve(cfg)),
    "sweep": ("iterate grids x methods into a CSV", _COMMON | _SOLVE | {
        "grids": "comma list of interior cell counts",
        "methods": "comma list of method specs",
        "repeats": "timed repeats per cell after one warm-up",
        "workers": "parallel sweep processes"}, lambda cfg, args: cmd_sweep(cfg)),
}


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rscgc",
        description="Helmholtz multigrid with a real-shifted coarsest level")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (text, flags, _) in _COMMANDS.items():
        # no prefixes of flags: --h would otherwise read as --help
        cmd = sub.add_parser(command, help=text, allow_abbrev=False)
        cmd.add_argument("--config", help="JSON config file; flags override it")
        cmd.add_argument("--emit-config", dest="emit_config",
                         help="write the merged config to this path")
        for name, help in flags.items():
            flag = "--" + name.replace("_", "-")
            if name == "free_surface_top":
                cmd.add_argument(flag, dest=name, action="store_const", const=True)
            else:
                cmd.add_argument(flag, dest=name, help=help)
    tune = sub.choices["tune-shift"]
    tune.add_argument("--write-table", dest="write_table",
                      help="merge the tuned rows into this JSON table")
    return parser


def _check_output_dirs(config, args):
    """Reject, before any work, an output path whose directory does not exist."""
    for flag, path in (("--out", config.out), ("--emit-config", args.emit_config),
                       ("--write-table", getattr(args, "write_table", None))):
        if path and not os.path.isdir(os.path.dirname(path) or "."):
            raise ConfigError(f"{flag} {path}: directory {os.path.dirname(path)} does not exist")


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig.from_args(args)
        _check_output_dirs(config, args)
        if args.emit_config:
            config.emit(args.emit_config)
        return _COMMANDS[args.command][2](config, args)
    except (ConfigError, NoCrossingError) as exc:
        # NoCrossingError: the stencil cannot resolve the given alpha or G
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError, FloatingPointError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
