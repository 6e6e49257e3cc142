"""Workloads, the timed operation of each, the correctness gate and the run loop.

See run.py for the metrics, their units and what each workload is for.
"""

import gc
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass

import numpy as np

import rscgc
from rscgc import (AnalysisConfig, CyclePlan, HelmholtzProblem, assemble_operator,
                   build_hierarchy, cycle, fgmres, make_model, omega_for_ppw,
                   optimize_shift, point_source)

from layers import LayerTrace

RESIDUAL_TOL = 1e-6

# The 3D level-dependent rows of the tuned-shift acceptance table, with its
# tolerances: G -> (alpha*, max e_g).
TUNED_3D = {10.0: (1.0245, 2.0668e-2),
            11.0: (1.0165, 1.3369e-2),
            12.0: (1.0120, 0.9542e-2)}
ALPHA_TOL = 5.0001e-4
EG_RTOL = 0.05

# Tuning set-up is sampled this many times per operation; its median is that
# operation's set-up time.
TUNE_SETUP_SAMPLES = 25

END_TO_END = ("setup_s", "solve_s", "total_s", "iterations", "peak_rss_mb")
PER_LAYER = (
    "discretization.assemble_s", "discretization.assemble_calls",
    "discretization.fine_nnz",
    "multigrid.transfer_build_s", "multigrid.galerkin_s", "multigrid.galerkin_calls",
    "multigrid.factorize_s", "multigrid.lu_fill_nnz", "multigrid.setup_other_s",
    "multigrid.cycle_s", "multigrid.cycle_calls",
    "multigrid.smooth_fine_s", "multigrid.smooth_fine_calls",
    "multigrid.smooth_mid_s", "multigrid.smooth_mid_calls",
    "multigrid.coarse_solve_s", "multigrid.coarse_solve_calls",
    "multigrid.cycle_other_s",
    "multigrid.level1_dofs", "multigrid.level2_dofs", "multigrid.level3_dofs",
    "multigrid.level1_nnz", "multigrid.level2_nnz", "multigrid.level3_nnz",
    "krylov.apply_A_s", "krylov.apply_A_calls", "krylov.overhead_s",
    *(f"dispersion.{m}.G{int(G)}" for m in ("optimize_shift_s", "alpha_star", "max_eg")
      for G in TUNED_3D),
    "trace.overhead_s",
)


def reset_caches():
    """Empty every function cache in the library, as a fresh process has them."""
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("rscgc"):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()


@dataclass
class Outcome:
    """What one operation produced, timed and checked."""

    setup_samples: list
    setup_s: float
    solve_s: float
    iterations: int
    failures: list
    layers: dict = None     # per-layer metrics; set on traced operations only


@dataclass(frozen=True)
class SolveWorkload:
    """Hierarchy build plus full FGMRES to RESIDUAL_TOL on a point source.

    The seed sets the complex phase of the source, so the work is the same
    for every seed while the solution differs.
    """

    name: str
    dim: int
    cells: int
    pad: int
    G: float
    intergrid: str
    alpha: float
    dampings: tuple
    kind: str = "homogeneous"
    kappa2: tuple = (1.0, 1.0)

    layers = ("discretization.", "multigrid.", "krylov.")

    def prepare(self, rng):
        model = make_model(self.kind, self.kappa2, (self.cells,) * self.dim,
                           1.0 / self.cells)
        problem = HelmholtzProblem(model, omega_for_ppw(model, self.G), pad=self.pad)
        phase = np.exp(2j * math.pi * rng.random())
        return {
            "problem": problem,
            "plan": CyclePlan(cycle="W", nu1=1, nu2=1, intergrid=self.intergrid,
                              alpha=self.alpha, dampings=self.dampings),
            "b": phase * point_source(problem).ravel(),
            "check": assemble_operator(problem, "fourth-order").matrix,
        }

    def solve(self, inputs, trace=None):
        """Return (x, SolveReport, hierarchy, setup seconds, solve seconds)."""
        start = time.perf_counter()
        hierarchy = build_hierarchy(inputs["problem"], "fourth-order", inputs["plan"])
        built = time.perf_counter()
        A = hierarchy.levels[0].operator.matrix
        apply_A = lambda v: A @ v
        apply_M = lambda r: cycle(hierarchy, r)
        if trace is not None:
            trace.fine_level = hierarchy.levels[0]
            apply_A = trace.timed("krylov.apply_A", apply_A)
            apply_M = trace.timed("multigrid.cycle", apply_M)
        x, report = fgmres(apply_A, apply_M, inputs["b"], tol=RESIDUAL_TOL)
        done = time.perf_counter()
        return x, report, hierarchy, built - start, done - built

    def operate(self, inputs, trace=None):
        if trace is None:
            x, report, hierarchy, setup, solve = self.solve(inputs)
            layers = None
        else:
            with trace.patched():
                x, report, hierarchy, setup, solve = self.solve(inputs, trace)
            trace.record("build_hierarchy", setup)
            trace.record("fgmres", solve)
            layers = trace.metrics()
            for i, level in enumerate(hierarchy.levels, 1):
                layers[f"multigrid.level{i}_dofs"] = level.operator.matrix.shape[0]
                layers[f"multigrid.level{i}_nnz"] = level.operator.matrix.nnz
        failures = check_solution(inputs["check"], inputs["b"], x, report)
        return Outcome([setup], setup, solve, report.iterations, failures, layers)


def check_solution(A, b, x, report):
    """Failure messages for a solve; empty when it converged to RESIDUAL_TOL."""
    residual = float(np.linalg.norm(b - A @ x) / np.linalg.norm(b))
    failures = []
    if not report.converged:
        failures.append("fgmres reports no convergence")
    if not residual < RESIDUAL_TOL:
        failures.append(f"relative residual {residual:.3e} is not below {RESIDUAL_TOL}")
    return failures


def check_tuned(G, alpha, max_eg):
    """Failure messages for one tuned shift against TUNED_3D."""
    alpha_ref, eg_ref = TUNED_3D[G]
    failures = []
    if not abs(alpha - alpha_ref) <= ALPHA_TOL:
        failures.append(f"G={G:g}: alpha* {alpha} is not within {ALPHA_TOL} of {alpha_ref}")
    if not abs(max_eg - eg_ref) <= EG_RTOL * eg_ref:
        failures.append(f"G={G:g}: max e_g {max_eg} is not within "
                        f"{EG_RTOL:.0%} of {eg_ref}")
    return failures


@dataclass(frozen=True)
class TuneWorkload:
    """optimize_shift for 3D level-dependent transfers, one call per G.

    Set-up is the composite stencil construction that every tuning process
    pays once (the library caches it per process), sampled from an empty
    cache. The solve is the three searches. The seed sets the order of the G
    values.
    """

    name: str
    Gs: tuple = tuple(TUNED_3D)
    intergrid: str = "level-dependent"

    layers = ("dispersion.",)

    def prepare(self, rng):
        return {"configs": [AnalysisConfig(3, float(G), self.intergrid)
                            for G in rng.permutation(self.Gs)]}

    def operate(self, inputs, trace=None):
        configs = inputs["configs"]
        samples = []
        for _ in range(TUNE_SETUP_SAMPLES):
            reset_caches()
            start = time.perf_counter()
            rscgc.dispersion.coarsest_stencil(configs[0], 1.0)
            samples.append(time.perf_counter() - start)
        layers = {}
        failures = []
        scanned = solve = 0
        for config in configs:
            start = time.perf_counter()
            alpha, max_eg, scan = optimize_shift(config)
            seconds = time.perf_counter() - start
            solve += seconds
            tag = f"G{int(config.G)}"
            layers[f"dispersion.optimize_shift_s.{tag}"] = seconds
            layers[f"dispersion.alpha_star.{tag}"] = alpha
            layers[f"dispersion.max_eg.{tag}"] = max_eg
            scanned += scan.errors.size
            failures += check_tuned(config.G, alpha, max_eg)
        return Outcome(samples, statistics.median(samples), solve, scanned, failures,
                       layers if trace is not None else None)


WORKLOADS = {w.name: w for w in (
    SolveWorkload("helm2d-wedge-512", dim=2, cells=512, pad=20, G=12.0,
                  intergrid="cubic", alpha=1.0045, dampings=(0.89, 0.89),
                  kind="wedge", kappa2=(0.25, 1.0)),
    SolveWorkload("helm3d-48-ld", dim=3, cells=48, pad=8, G=10.0,
                  intergrid="level-dependent", alpha=1.0245, dampings=(0.6, 0.4)),
    TuneWorkload("tune3d-ld"),
)}


def run(workload, seed, seconds, trace=False):
    """Closed loop of operations for `seconds`; returns the result object.

    Each operation starts from empty library caches. It starts only while the
    previous operation's duration still fits before the deadline; at least
    one runs, two under tracing, which alternates untraced and traced
    operations starting untraced.
    """
    inputs = workload.prepare(np.random.default_rng(seed))
    deadline = time.perf_counter() + seconds
    outcomes = []
    attempted = failed = 0
    last = 0.0
    while attempted < (2 if trace else 1) or time.perf_counter() + last <= deadline:
        tracer = LayerTrace() if trace and attempted % 2 == 1 else None
        attempted += 1
        reset_caches()
        gc.collect()
        start = time.perf_counter()
        try:
            outcome = workload.operate(inputs, tracer)
        except Exception:
            traceback.print_exc()
            failed += 1
            continue
        finally:
            last = time.perf_counter() - start
        if outcome.failures:
            failed += 1
            print(f"{workload.name}: operation {attempted} failed the check: "
                  + "; ".join(outcome.failures), file=sys.stderr)
        outcomes.append(outcome)

    plain = [o for o in outcomes if o.layers is None]
    traced = [o for o in outcomes if o.layers is not None]
    if not plain or (trace and not traced):
        raise RuntimeError(f"{workload.name}: no operation completed")
    if trace:
        metrics = layer_metrics(workload, traced, plain)
    else:
        metrics = end_to_end_metrics(plain)
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def _total(outcome):
    return outcome.setup_s + outcome.solve_s


def end_to_end_metrics(outcomes):
    values = {
        "setup_s": statistics.median(s for o in outcomes for s in o.setup_samples),
        "solve_s": statistics.median(o.solve_s for o in outcomes),
        "total_s": statistics.median(_total(o) for o in outcomes),
        "iterations": statistics.median(o.iterations for o in outcomes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    units = {"iterations": "count", "peak_rss_mb": "MB"}
    return {name: {"value": values[name], "unit": units.get(name, "s")}
            for name in END_TO_END}


def _unit(name):
    if name.endswith("_s") or "_s." in name:
        return "s"
    if ".alpha_star." in name or ".max_eg." in name:
        return "1"
    return "count"


def layer_metrics(workload, traced, plain):
    """Medians over the traced operations of every PER_LAYER metric.

    A layer the workload does not reach reads 0; a metric whose library name
    has gone is left out. The tracing overhead compares with the untraced
    operations after the first, which runs cold, when there are any.
    """
    values = {}
    for name in traced[0].layers:
        values[name] = statistics.median(o.layers[name] for o in traced)
    for name in PER_LAYER:
        if not name.startswith(workload.layers):
            values[name] = 0
    values["trace.overhead_s"] = (statistics.median(_total(o) for o in traced)
                                  - statistics.median(_total(o) for o in plain[1:] or plain))
    return {name: {"value": values[name], "unit": _unit(name)}
            for name in PER_LAYER if name in values}
