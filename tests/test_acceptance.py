"""Headline behavior gate: tuned-shift tables, convergence counts, identities.

One test per claim, ordered roughly from analysis results to solver behavior;
each prints a single pass/fail line under pytest -v. Grid sizes are desk
scale: the largest run is 512^2 interior cells.
"""

import math
import time

import numpy as np
import pytest

from rscgc import cli
from rscgc.discretization import (
    assemble_operator,
    laplacian_and_mass_stencils,
    point_source,
)
from rscgc.dispersion import (
    RAY_RESOLUTION,
    AnalysisConfig,
    coarsest_stencil,
    ncrit_bounds,
    optimize_shift,
    _first_crossings,
    _fold,
)
from rscgc.krylov import fgmres, stationary_solve
from rscgc.multigrid import CyclePlan, build_hierarchy, cycle, transfer_matrices

import galerkin_oracle
from conftest import SECOND_ORDER_ALONG_X, build_problem, combine, double_cycle
from periodic_oracle import periodic_composite, symbol

TUNED_2D = {
    "cubic": {10.0: (1.0140, 1.1924e-2),
              11.0: (1.0075, 6.130e-3),
              12.0: (1.0045, 3.340e-3)},
    "level-dependent": {10.0: (1.0290, 1.7117e-2),
                        11.0: (1.0190, 1.1821e-2),
                        12.0: (1.0135, 8.111e-3)},
}
TUNED_3D = {10.0: (1.0245, 2.0668e-2),
            11.0: (1.0165, 1.3369e-2),
            12.0: (1.0120, 0.9542e-2)}
NCRIT_CUBIC = {10.0: (209, 419), 11.0: (449, 897), 12.0: (898, 1796)}

ALPHA_G12 = 1.0045
ALPHA_G10 = 1.0140


def run_fgmres(problem, hierarchy, restart=None, maxit=None):
    """Solve the unshifted system preconditioned by one cycle per iteration."""
    outer = assemble_operator(problem, "fourth-order").matrix
    b = point_source(problem).ravel()
    t0 = time.perf_counter()
    x, report = fgmres(lambda v: outer @ v, lambda r: cycle(hierarchy, r),
                       b, restart=restart, tol=1e-6, maxit=maxit)
    seconds = time.perf_counter() - t0
    true_rel = float(np.linalg.norm(b - outer @ x) / np.linalg.norm(b))
    return {"report": report, "true_rel": true_rel, "seconds": seconds}


def run_stationary(hierarchy, b, **kwargs):
    """The stationary iteration of one cycle on the hierarchy's fine level."""
    A = hierarchy.levels[0].operator.matrix
    return stationary_solve(lambda v: A @ v, lambda r: cycle(hierarchy, r), b, **kwargs)


def coarsest_identity_residual(problem, alpha):
    """Relative entrywise defect of the doubly coarsened shift split."""
    plain = build_hierarchy(problem, "fourth-order", CyclePlan())
    shifted = build_hierarchy(problem, "fourth-order", CyclePlan(alpha=alpha))
    (R12, P12), (R23, P23) = map(galerkin_oracle.kron_transfers, plain.transfers)
    M = galerkin_oracle.mass_matrix(problem, "fourth-order").matrix
    M3 = R23 @ (R12 @ M @ P12) @ P23
    delta = (shifted.levels[2].operator.matrix
             - plain.levels[2].operator.matrix
             - (1 - alpha ** 2) * M3).tocoo()
    scale = np.abs(plain.levels[2].operator.matrix.data).max()
    return (np.abs(delta.data).max() if delta.nnz else 0.0) / scale


# ---------------------------------------------------------------- fixtures

@pytest.fixture(scope="module")
def scans_2d():
    results = {}
    for intergrid in ("cubic", "level-dependent"):
        for G in (10.0, 11.0, 12.0):
            t0 = time.perf_counter()
            alpha, max_eg, _ = optimize_shift(AnalysisConfig(2, G, intergrid))
            results[(intergrid, G)] = (alpha, max_eg, time.perf_counter() - t0)
    return results


@pytest.fixture(scope="module")
def scans_3d():
    return {(intergrid, G): optimize_shift(AnalysisConfig(3, G, intergrid))[:2]
            for intergrid in ("cubic", "level-dependent") for G in (10.0, 11.0, 12.0)}


@pytest.fixture(scope="module")
def homogeneous_runs():
    """G=12 point-source solves on three grid doublings, both outer modes."""
    runs = []
    plan = CyclePlan(alpha=ALPHA_G12)
    for cells in (128, 256, 512):
        problem = build_problem(2, cells, 12)
        hierarchy = build_hierarchy(problem, "fourth-order", plan)
        runs.append({
            "cells": cells,
            "restarted": run_fgmres(problem, hierarchy, restart=20, maxit=200),
            "plain": run_fgmres(problem, hierarchy),
        })
    return runs


@pytest.fixture(scope="module")
def heterogeneous_runs():
    """Wedge and depth-gradient media, two contrasts, two grids, G=12."""
    plan = CyclePlan(alpha=ALPHA_G12)
    runs = []
    for kind in ("wedge", "linear"):
        for kappa2 in ((0.1, 1.0), (0.25, 1.0)):
            for cells in (128, 256):
                problem = build_problem(2, cells, 12, kind=kind, kappa2=kappa2)
                hierarchy = build_hierarchy(problem, "fourth-order", plan)
                b = point_source(problem).ravel()
                _, stat = run_stationary(hierarchy, b, tol=1e-6)
                runs.append({
                    "label": f"{kind}{kappa2}@{cells}",
                    "fgmres": run_fgmres(problem, hierarchy),
                    "stationary": stat,
                })
    return runs


# ---------------------------------------------------------------- analysis

def test_tuned_shift_table_2d(scans_2d):
    for (intergrid, G), (alpha, max_eg, seconds) in scans_2d.items():
        alpha_ref, eg_ref = TUNED_2D[intergrid][G]
        assert abs(alpha - alpha_ref) <= 5.0001e-4, (intergrid, G, alpha)
        assert abs(max_eg - eg_ref) <= 0.02 * eg_ref, (intergrid, G, max_eg)
        assert seconds <= 300.0, (intergrid, G, seconds)


def test_tuned_shift_table_3d(scans_3d):
    for G, (alpha_ref, eg_ref) in TUNED_3D.items():
        alpha, max_eg = scans_3d[("level-dependent", G)]
        assert abs(alpha - alpha_ref) <= 5.0001e-4, (G, alpha)
        assert abs(max_eg - eg_ref) <= 0.05 * eg_ref, (G, max_eg)


def test_packaged_shift_table_is_what_tune_shift_writes(scans_2d, scans_3d, tmp_path,
                                                        monkeypatch):
    """Every entry of the packaged table is the tune-shift row of its key
    under the fixed sampling and the default alpha range, so solve --alpha
    auto serves exactly what a tune gives. The tunes are the fixtures'."""
    tuned = {(2, G, intergrid): result[:2] for (intergrid, G), result in scans_2d.items()}
    tuned |= {(3, G, intergrid): result for (intergrid, G), result in scans_3d.items()}

    def optimize_shift(config):
        assert config == AnalysisConfig(config.dim, config.G, config.intergrid)
        return (*tuned[(config.dim, config.G, config.intergrid)], None)

    monkeypatch.setattr(cli, "optimize_shift", optimize_shift)
    monkeypatch.delenv("HELM_SHIFT_TABLE", raising=False)    # the packaged table
    written = tmp_path / "table.json"
    for dim in (2, 3):
        for intergrid in ("cubic", "level-dependent"):
            assert cli.main(["tune-shift", "--dim", str(dim), "--G", "10,11,12",
                             "--intergrid", intergrid, "--write-table", str(written),
                             "--out", str(tmp_path / "rows.csv")]) == 0
    assert cli._load_table(written) == cli._load_table(cli._table_path())


def test_critical_grid_size_bounds(scans_2d):
    for G, (lo_ref, hi_ref) in NCRIT_CUBIC.items():
        _, max_eg, _ = scans_2d[("cubic", G)]
        lo, hi = ncrit_bounds(G, max_eg)
        assert abs(lo - lo_ref) <= 1, (G, lo)
        assert abs(hi - hi_ref) <= 1, (G, hi)


# ---------------------------------------------------------------- solves

def test_homogeneous_grid_scaling(homogeneous_runs):
    counts = []
    total = 0.0
    for run in homogeneous_runs:
        report = run["restarted"]["report"]
        assert report.converged, run["cells"]
        assert report.iterations <= 10, (run["cells"], report.iterations)
        counts.append(report.iterations)
        total += run["restarted"]["seconds"]
    assert max(counts) - min(counts) <= 4, counts
    assert total <= 120.0, total


def test_heterogeneous_models_converge_fast(heterogeneous_runs):
    for run in heterogeneous_runs:
        outer = run["fgmres"]["report"]
        assert outer.converged and outer.iterations <= 8, (
            run["label"], outer.iterations)
        stat = run["stationary"]
        assert stat.converged and not stat.diverged, run["label"]
        assert stat.iterations <= 11, (run["label"], stat.iterations)


# ---------------------------------------------------------------- identities

def test_coarsest_level_shift_identity():
    problem = build_problem(2, 32, 10, pad=0)
    assert coarsest_identity_residual(problem, ALPHA_G10) <= 1e-12


def test_galerkin_dual_route_and_bandwidth():
    """The coarsest stencil the shift is tuned on, read off the hierarchy's
    1D Galerkin products, is the periodic double triple product of the fine
    Helmholtz stencil, 7 nodes wide with cubic transfers and 5 with
    level-dependent ones."""
    kh = 2 * math.pi / 12
    for dim in (2, 3):
        lap, mass = laplacian_and_mass_stencils(dim, "fourth-order")
        fine = combine((1.0, lap), (-(kh ** 2), mass))
        for intergrid, width in (("cubic", 7), ("level-dependent", 5)):
            coarse = coarsest_stencil(AnalysisConfig(dim, 12.0, intergrid), 1.0)
            oracle = periodic_composite(fine, intergrid)
            assert coarse.shape == oracle.shape == (width,) * dim
            scale = np.abs(coarse).max()
            diff = np.abs(coarse - oracle).max()
            assert diff <= 1e-12 * scale, (dim, width)
            edge = coarse[(width - 1,) + (width // 2,) * (dim - 1)]
            assert abs(edge) > 0, (dim, width)


def test_symbol_and_radius_identities():
    kh = 2 * math.pi / 12
    for dim in (2, 3):
        lap, mass = laplacian_and_mass_stencils(dim, "fourth-order")
        stencil = combine((1.0, lap), (-(kh ** 2), mass))
        value = symbol(stencil, np.zeros(dim))
        assert abs(value - (-(kh ** 2))) <= 1e-14

    # 4 sin^2(r/2) = kh^2: the snapped radius of the second-order pair
    kh = 2 * math.pi / 10
    radius = _first_crossings(_fold(*SECOND_ORDER_ALONG_X), [kh ** 2], 0.0)[0]
    assert radius == RAY_RESOLUTION * round(2 * math.asin(kh / 2) / RAY_RESOLUTION)


# ---------------------------------------------------------------- method contrast

def test_preconditioner_ordering_at_low_resolution():
    # The absorbing layer is the one free knob in this comparison: with the
    # 20-node pad the ramp must reach gamma_max = 2.0 for the damped
    # orderings to hold with margin (measured 11 <= 12 <= 20 < 50; at
    # gamma_max = 1.0 the combined variant trails the plain one by a single
    # iteration).
    problem = build_problem(2, 256, 10, gamma_max=2.0)
    variants = {
        "combined": CyclePlan(alpha=ALPHA_G10, beta=0.03),
        "real-shift": CyclePlan(alpha=ALPHA_G10),
        "complex-shift": CyclePlan(beta=0.1),
        "complex-shift-low-order": CyclePlan(beta=0.3, intergrid="bilinear"),
    }
    counts = {}
    for name, plan in variants.items():
        hierarchy = build_hierarchy(problem, "fourth-order", plan)
        run = run_fgmres(problem, hierarchy, restart=20, maxit=200)
        assert run["report"].converged, name
        counts[name] = run["report"].iterations
    assert counts["combined"] <= counts["real-shift"], counts
    assert counts["real-shift"] <= counts["complex-shift"], counts
    assert counts["complex-shift"] < counts["complex-shift-low-order"], counts


# ---------------------------------------------------------------- solver properties

def test_residual_histories_monotone_and_verified(homogeneous_runs,
                                                  heterogeneous_runs):
    tracked = [run["plain"] for run in homogeneous_runs]
    tracked += [run["fgmres"] for run in heterogeneous_runs]
    for run in tracked:
        history = np.array(run["report"].residual_history)
        assert np.all(np.diff(history) <= 1e-12)
        assert abs(history[-1] - run["true_rel"]) <= 1e-12


def test_linearity_transfers_divergence_and_3d():
    # cycle output is linear in the right-hand side: to float32 rounding
    # (unit roundoff 6e-8, with a margin) for the single-precision cycle, to
    # double rounding for the double one of the same hierarchy
    problem = build_problem(2, 128, 12, kind="wedge", kappa2=(0.25, 1.0))
    hierarchy = build_hierarchy(problem, "fourth-order", CyclePlan(alpha=ALPHA_G12))
    rng = np.random.default_rng(41)
    n = hierarchy.levels[0].operator.dofs
    b1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    for apply, bound in ((cycle, 1e-5), (double_cycle, 1e-12)):
        combined = apply(hierarchy, b1 - 3j * b2)
        parts = apply(hierarchy, b1) - 3j * apply(hierarchy, b2)
        assert np.linalg.norm(combined - parts) <= bound * np.linalg.norm(combined)

    # transfers reproduce constants on every unknown, up to the Dirichlet layer
    for pair, fine_shape in ((hierarchy.transfers[0], (167, 167)),
                             (hierarchy.transfers[1], (83, 83))):
        coarse_shape = tuple((s - 1) // 2 for s in fine_shape)
        R, P = galerkin_oracle.kron_transfers(pair)
        assert np.allclose(R @ np.ones(np.prod(fine_shape)), 1.0, atol=1e-13)
        assert np.allclose(P @ np.ones(np.prod(coarse_shape)), 1.0, atol=1e-13)

    # a shift far from the tuned value must trip the divergence flag
    big = build_problem(2, 512, 12)
    wrong = build_hierarchy(big, "fourth-order", CyclePlan(alpha=0.5))
    b = point_source(big).ravel()
    _, report = run_stationary(wrong, b, tol=1e-6, maxit=30)
    assert report.diverged and not report.converged

    # the 3D pipeline: shift split on the coarsest level, and a converging
    # solve with the 3D damping pair
    cube = build_problem(3, 24, 10, pad=0)
    assert coarsest_identity_residual(cube, 1.0245) <= 1e-12
    deep = build_problem(3, 24, 10, pad=8)
    plan = CyclePlan(alpha=1.0245, intergrid="level-dependent",
                     dampings=(0.6, 0.4))
    hier3 = build_hierarchy(deep, "fourth-order", plan)
    run = run_fgmres(deep, hier3)
    assert run["report"].converged and run["report"].iterations <= 15
