"""Command-line driver: shift tuning, dispersion export, solves, and sweeps.

Configuration comes from subcommand flags, optionally merged over a JSON
config file (flags win). --emit-config writes the merged configuration back
out so a run can be reproduced exactly; outputs are deterministic given a
config, wall-time columns aside.

Tuned shifts are cached in a JSON table keyed "dim:G:intergrid" so solve and
sweep runs do not re-optimize; the packaged table covers G in {10, 11, 12}
for both dimensions and both intergrid schemes. HELM_SHIFT_TABLE points the
lookup at a different file; alpha values missing from the table are tuned on
the fly.
"""

import argparse
import csv
import json
import logging
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, fields, replace

import numpy as np

from .discretization import (HelmholtzProblem, assemble_operator, load_model,
                             make_model, omega_for_ppw, point_source)
from .dispersion import (AnalysisConfig, NoCrossingError, export_dispersion_curve,
                         ncrit_bounds, optimize_shift)
from .krylov import default_maxit, fgmres, stationary_solve
from .multigrid import (CyclePlan, INTERGRID_CHOICES, REDISC_WAVENUMBER_SCALE,
                        build_hierarchy, build_rediscretized_hierarchy, cycle)

__all__ = ["ExperimentConfig", "main"]

DEFAULT_DAMPINGS = {2: (0.89, 0.89), 3: (0.6, 0.4)}

# Diagnostics; without a configured handler, Python's last-resort handler
# prints warnings to stderr.
logger = logging.getLogger(__name__)


class ConfigError(ValueError):
    """Invalid or incomplete configuration; maps to exit code 2."""


@dataclass
class ExperimentConfig:
    """Flat parameter set shared by the subcommands; JSON round-trippable."""

    dim: int = 2
    G: object = None
    intergrid: str = "cubic"
    phi_resolution: float = 0.1
    alpha_resolution: float = 5e-4
    ray_resolution: float = 1e-3
    alpha_range: object = (0.98, 1.06)
    angle_resolution: float = 0.01
    cells: object = None
    h: object = None
    model: str = "homogeneous"
    kappa2: object = (1.0, 1.0)
    model_file: object = None
    model_meta: object = None
    scheme: str = "fourth-order"
    cycle: str = "W"
    nu1: int = 1
    nu2: int = 1
    alpha: object = "auto"
    beta: float = 0.0
    dampings: object = None
    pad: int = 20
    gamma_max: float = 1.0
    free_surface_top: bool = False
    solver: str = "fgmres"
    tol: float = 1e-6
    maxit: object = None
    method: str = "rs-cgc"
    methods: object = None
    grids: object = None
    repeats: int = 1
    workers: int = 1
    alpha_scan: object = None
    scan_maxit: int = 12
    out: object = None

    @classmethod
    def from_args(cls, args):
        values = {}
        path = getattr(args, "config", None)
        if path:
            try:
                with open(path, encoding="utf-8") as fh:
                    loaded = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config file {path}: {exc}") from exc
            known = {f.name for f in fields(cls)}
            unknown = set(loaded) - known
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


def _parse_float_list(text, what):
    try:
        return [float(v) for v in str(text).split(",") if v != ""]
    except ValueError as exc:
        raise ConfigError(f"cannot parse {what}: {text!r}") from exc


def _positive_G(value):
    try:
        g = float(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"G must be a number, got {value!r}") from exc
    if not (math.isfinite(g) and g > 0):
        raise ConfigError(f"G must be finite and positive, got {value!r}")
    return g


def _require_G(config):
    if config.G is None:
        raise ConfigError("G (points per wavelength) is required; pass --G")
    return _positive_G(config.G)


def _format_G(g):
    g = float(g)
    return str(int(g)) if g == int(g) else repr(g)


def _cells_tuple(config):
    if config.cells is None:
        raise ConfigError("grid size is required; pass --cells")
    raw = config.cells
    if isinstance(raw, (int, float)):
        parts = [int(raw)]
    elif isinstance(raw, (list, tuple)):
        parts = [int(v) for v in raw]
    else:
        try:
            parts = [int(v) for v in str(raw).split(",") if v != ""]
        except ValueError as exc:
            raise ConfigError(f"cannot parse cells: {raw!r}") from exc
    if not parts or any(v <= 0 for v in parts):
        raise ConfigError(f"cells must be positive integers, got {raw!r}")
    if len(parts) == 1:
        parts = parts * config.dim
    if len(parts) != config.dim:
        raise ConfigError(f"cells {parts} does not match dim {config.dim}")
    return tuple(parts)


def _build_model(config, cells):
    if config.model_file:
        model = load_model(config.model_file, config.model_meta)
        if model.dim != config.dim:
            raise ConfigError(
                f"model file is {model.dim}D but config dim is {config.dim}")
        return model
    rng = config.kappa2
    if isinstance(rng, str):
        rng = _parse_float_list(rng, "kappa2 range")
    if len(rng) != 2:
        raise ConfigError(f"kappa2 must be a lo,hi pair, got {rng!r}")
    h = float(config.h) if config.h is not None else 1.0 / cells[0]
    try:
        return make_model(config.model, tuple(rng), cells, h)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _build_problem(config):
    cells = _cells_tuple(config) if not config.model_file else None
    model = _build_model(config, cells)
    g = _require_G(config)
    omega = omega_for_ppw(model, g)
    try:
        return HelmholtzProblem(model, omega, pad=config.pad,
                                gamma_max=config.gamma_max,
                                free_surface_top=config.free_surface_top)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _dampings(config):
    if config.dampings is None:
        return DEFAULT_DAMPINGS[config.dim]
    raw = config.dampings
    if isinstance(raw, str):
        raw = _parse_float_list(raw, "dampings")
    return tuple(float(v) for v in raw)


# ---------------------------------------------------------------------------
# shift table

def _table_path():
    env = os.environ.get("HELM_SHIFT_TABLE")
    if env:
        return env
    return os.path.join(os.path.dirname(__file__), "data", "shift_table.json")


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


def _analysis_config(config, g):
    rng = config.alpha_range
    if isinstance(rng, str):
        parts = rng.split(":")
        if len(parts) != 2:
            raise ConfigError(f"alpha range must be lo:hi, got {rng!r}")
        rng = _parse_float_list(",".join(parts), "alpha range")
    rng = tuple(float(v) for v in rng)
    try:
        return AnalysisConfig(dim=config.dim, G=g, intergrid=config.intergrid,
                              phi_resolution=config.phi_resolution,
                              alpha_resolution=config.alpha_resolution,
                              ray_resolution=config.ray_resolution,
                              alpha_range=rng)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_alpha(config, g):
    """config.alpha, with "auto" served from the table or tuned on the fly."""
    if config.alpha != "auto":
        try:
            value = float(config.alpha)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"alpha must be 'auto' or a number, got "
                              f"{config.alpha!r}") from exc
        if not (math.isfinite(value) and value > 0):
            raise ConfigError(f"alpha must be finite and positive, got {value}")
        return value
    key = f"{config.dim}:{_format_G(g)}:{config.intergrid}"
    entry = _load_table(_table_path()).get(key)
    if entry is not None:
        return float(entry["alpha_star"])
    logger.warning("shift table has no entry %s; tuning now", key)
    alpha_star, _, _ = optimize_shift(_analysis_config(config, g))
    return alpha_star


# ---------------------------------------------------------------------------
# methods

def _method_beta(parts, default, spec):
    if len(parts) < 2:
        return default
    try:
        return float(parts[1])
    except ValueError as exc:
        raise ConfigError(f"cannot parse beta {parts[1]!r} in method {spec!r}") from exc


def _parse_method(spec, config, g):
    """Return (kind, alpha, beta, intergrid) for a method string.

    Grammar: rs-cgc | cslp:BETA[:INTERGRID] | rs-cgc+cslp[:BETA] | re-disc.
    """
    parts = str(spec).strip().split(":")
    name = parts[0]
    if name == "rs-cgc" and len(parts) == 1:
        return "galerkin", _resolve_alpha(config, g), config.beta, config.intergrid
    if name == "cslp":
        beta = _method_beta(parts, 0.1, spec)
        intergrid = parts[2] if len(parts) > 2 else config.intergrid
        return "galerkin", 1.0, beta, intergrid
    if name == "rs-cgc+cslp":
        beta = _method_beta(parts, 0.03, spec)
        return "galerkin", _resolve_alpha(config, g), beta, config.intergrid
    if name == "re-disc" and len(parts) == 1:
        return "re-disc", REDISC_WAVENUMBER_SCALE, 0.0, "bilinear"
    raise ConfigError(f"unknown method {spec!r}; expected rs-cgc, "
                      f"cslp:BETA[:INTERGRID], rs-cgc+cslp[:BETA], or re-disc")


def _build_method_hierarchy(problem, config, kind, alpha, beta, intergrid):
    try:
        plan = CyclePlan(cycle=config.cycle, nu1=config.nu1, nu2=config.nu2,
                         intergrid=intergrid, alpha=alpha, beta=beta,
                         dampings=_dampings(config))
        if kind == "re-disc":
            return build_rediscretized_hierarchy(problem, plan)
        return build_hierarchy(problem, config.scheme, plan)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _parse_solver(spec):
    text = str(spec).strip().lower().replace("(", ":").rstrip(")")
    if text == "stationary":
        return "stationary", None
    if text == "fgmres":
        return "fgmres", None
    if text.startswith("fgmres:"):
        try:
            restart = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise ConfigError(f"bad solver spec {spec!r}") from exc
        if restart < 1:
            raise ConfigError(f"restart must be at least 1, got {restart}")
        return "fgmres", restart
    raise ConfigError(f"unknown solver {spec!r}; expected fgmres, "
                      f"fgmres:M, or stationary")


def _maxit(config):
    if config.maxit is not None:
        return int(config.maxit)
    return default_maxit(_parse_solver(config.solver)[1])


def _outer_operator(config, problem, hierarchy):
    """The matrix FGMRES iterates on, or None for the stationary solver.

    Krylov always targets the unshifted operator. With beta = 0 that is
    exactly the hierarchy's fine level; only a complex-shifted hierarchy
    needs a separate assembly.
    """
    if _parse_solver(config.solver)[0] == "stationary":
        if hierarchy.plan.beta > 0:
            raise ConfigError("the stationary solver iterates on the operator it "
                              "is built from; beta must be 0")
        return None
    if hierarchy.plan.beta == 0:
        return hierarchy.levels[0].operator.matrix
    return assemble_operator(problem, config.scheme, alpha=1.0, beta=0.0).matrix


def _run_solver(problem, config, hierarchy, outer):
    solver, restart = _parse_solver(config.solver)
    b = point_source(problem).ravel()
    if solver == "stationary":
        return stationary_solve(hierarchy, b, tol=config.tol, maxit=_maxit(config))
    return fgmres(lambda v: outer @ v,
                  lambda r: cycle(hierarchy, r),
                  b, restart=restart, tol=config.tol, maxit=_maxit(config))


# ---------------------------------------------------------------------------
# output helpers

def _write_rows(rows, columns, out):
    if out:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=columns)
            writer.writeheader()
            writer.writerows(rows)
    else:
        writer = csv.DictWriter(sys.stdout, fieldnames=columns)
        writer.writeheader()
        writer.writerows(rows)


def _write_json(payload, out):
    text = json.dumps(payload, indent=2)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


# ---------------------------------------------------------------------------
# subcommands

def cmd_tune_shift(config, write_table=None, fmt="csv"):
    if config.G is None:
        raise ConfigError("G is required; pass --G (comma list allowed)")
    gs = [_positive_G(g) for g in _parse_float_list(config.G, "G list")]
    if not gs:
        raise ConfigError("G list is empty")
    table = _load_table(write_table) if write_table else {}
    rows = []
    for g in gs:
        acfg = _analysis_config(config, g)
        alpha_star, max_eg, _ = optimize_shift(acfg)
        lo, hi = ncrit_bounds(g, max_eg)
        rows.append({"G": _format_G(g), "dim": config.dim,
                     "intergrid": config.intergrid,
                     "alpha_star": f"{alpha_star:.4f}",
                     "max_eg": f"{max_eg:.6e}",
                     "ncrit_lo": lo, "ncrit_hi": hi})
    if write_table:
        for row in rows:
            key = f"{row['dim']}:{row['G']}:{row['intergrid']}"
            table[key] = {"alpha_star": float(row["alpha_star"]),
                          "max_eg": float(row["max_eg"]),
                          "ncrit_lo": row["ncrit_lo"],
                          "ncrit_hi": row["ncrit_hi"]}
        with open(write_table, "w", encoding="utf-8") as fh:
            json.dump(table, fh, indent=2, sort_keys=True)
            fh.write("\n")
    columns = ["G", "dim", "intergrid", "alpha_star", "max_eg", "ncrit_lo", "ncrit_hi"]
    if fmt == "json":
        _write_json(rows, config.out)
    else:
        _write_rows(rows, columns, config.out)
    return 0


def cmd_solve(config):
    problem = _build_problem(config)
    g = _require_G(config)
    kind, alpha, beta, intergrid = _parse_method(config.method, config, g)
    start = time.perf_counter()
    hierarchy = _build_method_hierarchy(problem, config, kind, alpha, beta, intergrid)
    outer = _outer_operator(config, problem, hierarchy)
    built = time.perf_counter()
    x, report = _run_solver(problem, config, hierarchy, outer)
    solved = time.perf_counter()
    lu = hierarchy.coarse_solver
    payload = {
        "method": config.method,
        "solver": config.solver,
        "grid": list(problem.model.cells),
        "padded_shape": list(problem.padded_shape),
        "dofs": int(np.prod(problem.padded_shape)),
        "G": float(g),
        "alpha": alpha,
        "beta": beta,
        "intergrid": intergrid,
        "cycle": f"{config.cycle}({config.nu1},{config.nu2})",
        "iterations": report.iterations,
        "converged": report.converged,
        "diverged": report.diverged,
        "wall_time": report.wall_time,
        "residual_history": report.residual_history,
        "setup_seconds": built - start,
        "solve_seconds": solved - built,
        "levels": [{"dofs": level.operator.dofs, "nnz": int(level.operator.matrix.nnz)}
                   for level in hierarchy.levels],
        "coarse_lu_nnz": int(lu.L.nnz + lu.U.nnz),
        "max_coarse_residual": hierarchy.max_coarse_residual,
    }
    _write_json(payload, config.out)
    return 0 if report.converged else 1


def _sweep_cell(payload):
    """One (grid, method) sweep cell; module-level so workers can import it."""
    config = ExperimentConfig(**payload["config"])
    config.cells = payload["grid"]
    config.method = payload["method"]
    g = _require_G(config)
    problem = _build_problem(config)
    kind, alpha, beta, intergrid = _parse_method(config.method, config, g)
    hierarchy = _build_method_hierarchy(problem, config, kind, alpha, beta, intergrid)
    outer = _outer_operator(config, problem, hierarchy)
    reports = []
    for _ in range(payload["repeats"] + 1):     # first run is the warm-up
        x, report = _run_solver(problem, config, hierarchy, outer)
        reports.append(report)
    measured = reports[1:]
    report = measured[-1]
    iters = _maxit(config) if report.diverged else report.iterations
    return {
        "grid": "x".join(str(c) for c in problem.model.cells),
        "dofs": int(np.prod(problem.padded_shape)),
        "method": config.method,
        "alpha": f"{alpha:.6g}",
        "beta": f"{beta:.6g}",
        "cycle": f"{config.cycle}({config.nu1},{config.nu2})",
        "iters": iters,
        "converged": report.converged,
        "seconds": f"{np.mean([r.wall_time for r in measured]):.4f}",
    }


def cmd_sweep(config):
    if not config.grids:
        raise ConfigError("grid list is empty; pass --grids N1,N2,...")
    grids = config.grids
    if isinstance(grids, str):
        grids = grids.split(",")
    try:
        grids = [int(v) for v in grids if v != ""]
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"cannot parse grids: {config.grids!r}") from exc
    if not grids:
        raise ConfigError("grid list is empty; pass --grids N1,N2,...")
    methods = config.methods if config.methods is not None else [config.method]
    if isinstance(methods, str):
        methods = [m for m in methods.split(",") if m != ""]
    if not methods:
        raise ConfigError("method list is empty")
    g = _require_G(config)
    for m in methods:
        _parse_method(m, config, g)     # validate before spending solve time
    base = asdict(config)
    base["cells"] = None
    jobs = [{"config": base, "grid": grid, "method": method,
             "repeats": max(1, int(config.repeats))}
            for grid in grids for method in methods]
    if config.workers > 1:
        with ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = list(pool.map(_sweep_cell, jobs))
    else:
        rows = [_sweep_cell(job) for job in jobs]
    columns = ["grid", "dofs", "method", "alpha", "beta", "cycle",
               "iters", "converged", "seconds"]
    _write_rows(rows, columns, config.out)
    return 0


def _parse_alpha_scan(text):
    parts = str(text).split(":")
    if len(parts) not in (2, 3):
        raise ConfigError(f"alpha scan must be lo:hi or lo:hi:step, got {text!r}")
    try:
        lo, hi = float(parts[0]), float(parts[1])
        step = float(parts[2]) if len(parts) == 3 else 0.005
    except ValueError as exc:
        raise ConfigError(f"cannot parse alpha scan {text!r}") from exc
    if not (0 < lo < hi < math.inf and 0 < step < math.inf):
        raise ConfigError(f"alpha scan needs 0 < lo < hi and a positive step, "
                          f"all finite, got {text!r}")
    return lo, hi, step


def _convergence_factor(history):
    """Residual-reduction ratio over the last up-to-5 stationary steps."""
    if len(history) < 2:
        return float("nan")
    span = min(5, len(history) - 1)
    return (history[-1] / history[-1 - span]) ** (1.0 / span)


def cmd_dispersion(config):
    g = _require_G(config)
    acfg = _analysis_config(config, g)
    if config.alpha_scan is not None:
        lo, hi, step = _parse_alpha_scan(config.alpha_scan)
        _, _, scan = optimize_shift(replace(acfg, alpha_range=(lo, hi),
                                            alpha_resolution=step))
        alphas = scan.alphas
        eg_max = np.abs(scan.errors).max(axis=1)
        problem = _build_problem(config)
        rows = []
        for alpha, eg in zip(alphas, eg_max):
            hier = _build_method_hierarchy(problem, config, "galerkin",
                                           float(alpha), 0.0, config.intergrid)
            b = point_source(problem).ravel()
            _, report = stationary_solve(hier, b, tol=1e-30,
                                         maxit=config.scan_maxit)
            rows.append({"alpha": f"{alpha:.6g}", "e_g_max": f"{eg:.6e}",
                         "conv_factor": f"{_convergence_factor(report.residual_history):.4f}"})
        _write_rows(rows, ["alpha", "e_g_max", "conv_factor"], config.out)
        return 0
    alpha = _resolve_alpha(config, g)
    curve = export_dispersion_curve(acfg, alpha,
                                    angle_resolution=config.angle_resolution)
    rows = [{c: f"{v:.9g}" for c, v in zip(curve.columns, row)}
            for row in curve.rows]
    _write_rows(rows, list(curve.columns), config.out)
    return 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(sub):
    sub.add_argument("--config", help="JSON config file; flags override it")
    sub.add_argument("--emit-config", dest="emit_config",
                     help="write the merged config to this path")
    sub.add_argument("--out", help="output path (default stdout)")
    sub.add_argument("--dim", type=int, choices=(2, 3))
    sub.add_argument("--G", help="points per wavelength on the fine grid")
    sub.add_argument("--intergrid", choices=INTERGRID_CHOICES)


def _add_analysis(sub):
    sub.add_argument("--phi-resolution", dest="phi_resolution", type=float)
    sub.add_argument("--alpha-resolution", dest="alpha_resolution", type=float)
    sub.add_argument("--ray-resolution", dest="ray_resolution", type=float)
    sub.add_argument("--alpha-range", dest="alpha_range",
                     help="shift search interval lo:hi")


def _add_problem(sub):
    sub.add_argument("--cells", help="interior cells per axis, before padding")
    sub.add_argument("--h", type=float, help="mesh width (default 1/cells)")
    sub.add_argument("--model", choices=("homogeneous", "linear", "wedge"))
    sub.add_argument("--kappa2", help="squared-slowness range lo,hi")
    sub.add_argument("--model-file", dest="model_file",
                     help="binary slowness/velocity grid")
    sub.add_argument("--model-meta", dest="model_meta",
                     help="JSON metadata for --model-file")
    sub.add_argument("--pad", type=int)
    sub.add_argument("--gamma-max", dest="gamma_max", type=float)
    sub.add_argument("--free-surface-top", dest="free_surface_top",
                     action="store_const", const=True)
    sub.add_argument("--scheme")
    sub.add_argument("--cycle", choices=("V", "W"))
    sub.add_argument("--nu1", type=int)
    sub.add_argument("--nu2", type=int)
    sub.add_argument("--alpha", help="real shift, or 'auto' for the tuned table")
    sub.add_argument("--beta", type=float, help="relative complex shift")
    sub.add_argument("--dampings", help="per-level Jacobi dampings w1,w2")
    sub.add_argument("--solver", help="fgmres, fgmres:M, or stationary")
    sub.add_argument("--tol", type=float)
    sub.add_argument("--maxit", type=int)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="rscgc",
        description="Helmholtz multigrid with a real-shifted coarsest level")
    sub = parser.add_subparsers(dest="command", required=True)

    tune = sub.add_parser("tune-shift", help="optimize the real shift")
    _add_common(tune)
    _add_analysis(tune)
    tune.add_argument("--format", choices=("csv", "json"), default="csv")
    tune.add_argument("--write-table", dest="write_table",
                      help="merge the tuned rows into this JSON table")

    disp = sub.add_parser("dispersion", help="export dispersion curves")
    _add_common(disp)
    _add_analysis(disp)
    disp.add_argument("--alpha", help="real shift, or 'auto' for the tuned table")
    disp.add_argument("--angle-resolution", dest="angle_resolution", type=float)
    disp.add_argument("--alpha-scan", dest="alpha_scan",
                      help="lo:hi[:step]; pairs e_g with measured convergence "
                           "factors on --cells")
    disp.add_argument("--scan-maxit", dest="scan_maxit", type=int)
    disp.add_argument("--cells")
    disp.add_argument("--h", type=float)
    disp.add_argument("--model", choices=("homogeneous", "linear", "wedge"))
    disp.add_argument("--kappa2")
    disp.add_argument("--pad", type=int)
    disp.add_argument("--gamma-max", dest="gamma_max", type=float)
    disp.add_argument("--cycle", choices=("V", "W"))
    disp.add_argument("--dampings")
    disp.add_argument("--scheme")

    solve = sub.add_parser("solve", help="solve one problem")
    _add_common(solve)
    _add_problem(solve)
    solve.add_argument("--method",
                       help="rs-cgc, cslp:BETA[:INTERGRID], rs-cgc+cslp[:BETA], "
                            "or re-disc")

    sweep = sub.add_parser("sweep", help="iterate grids x methods into a CSV")
    _add_common(sweep)
    _add_problem(sweep)
    sweep.add_argument("--grids", help="comma list of interior cell counts")
    sweep.add_argument("--methods", help="comma list of method specs")
    sweep.add_argument("--repeats", type=int,
                       help="timed repeats per cell after one warm-up")
    sweep.add_argument("--workers", type=int,
                       help="parallel sweep processes")
    return parser


_HANDLERS = {
    "tune-shift": lambda cfg, args: cmd_tune_shift(cfg, args.write_table, args.format),
    "dispersion": lambda cfg, args: cmd_dispersion(cfg),
    "solve": lambda cfg, args: cmd_solve(cfg),
    "sweep": lambda cfg, args: cmd_sweep(cfg),
}


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        config = ExperimentConfig.from_args(args)
        if getattr(args, "emit_config", None):
            config.emit(args.emit_config)
        return _HANDLERS[args.command](config, args)
    except (ConfigError, NoCrossingError) as exc:
        # NoCrossingError: the stencil cannot resolve the given alpha or G
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (RuntimeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
