"""Time to solution for the rscgc Helmholtz solver and its shift tuning.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark drives the library in ``src/`` through its public calls. Each
run is a closed loop with one client in one process: one operation at a
time, for about ``--seconds`` seconds. An operation starts only while the
previous one's duration still fits before the deadline, and at least one
runs. Library caches are emptied before each operation, as a fresh process
has them. OpenBLAS and OpenMP run one thread. The solution of every
operation is checked outside its timed region. The last line printed is one
JSON object: ``correct``, ``attempted``, ``failed`` (the operations that
raised or failed their check) and ``metrics``. The line before it is the run
record: core count, BLAS threads, Python/numpy/scipy versions and the git
commit of the checkout, when it is a git repository.

Workloads
---------
helm2d-wedge-512
    2D wedge medium, kappa^2 in [0.25, 1], 512^2 cells, pad 20, G=12, cubic
    transfers, alpha=1.0045, W(1,1), dampings (0.89, 0.89), full FGMRES to a
    relative residual of 1e-6, point source. The coarsest level is 139^2, so
    its factorization is most of set-up and coarsest solves are about half
    of each cycle; the medium is heterogeneous, so a constant-coefficient
    shortcut shows.
helm3d-48-ld
    3D homogeneous medium, 48^3 cells, pad 8 (65^3 dofs), G=10,
    level-dependent transfers, alpha=1.0245, dampings (0.6, 0.4), same
    solver settings. The wide 3D stencils make the Galerkin products and the
    two fine assemblies most of set-up; transfers, residual matvecs and 13
    Krylov iterations dominate the solve: the reverse of the 2D weights.
tune3d-ld
    ``optimize_shift(AnalysisConfig(3, G, "level-dependent"))`` for G = 10,
    11, 12 at the default resolutions. It reaches only the dispersion and
    stencil code, so a solver change should leave it unchanged and a
    dispersion change should leave the other two unchanged.

On the solve workloads alpha is fixed, so shift tuning never runs there. The
seed sets the complex phase of the point source (solve workloads) or the
order of the G values (tuning); the work is the same for every seed.

Correctness gate: after each solve, ||b - A x|| / ||b|| is recomputed with an
operator the benchmark assembles itself, and the solve must report
convergence with that residual below 1e-6. Each tuned shift must lie within
5.0001e-4 of the acceptance table TUNED_3D, with max e_g within 5%.

End-to-end metrics (``--trace 0``), all lower-is-better
------------------------------------------------------
setup_s       s      solve workloads: ``build_hierarchy`` wall time.
                     tune3d-ld: building the coarsest composite stencil
                     from an empty cache, the set-up each tuning process
                     pays once. Median of every sample in the run.
solve_s       s      solve workloads: ``fgmres`` wall time, with ``cycle`` as
                     preconditioner. tune3d-ld: the three ``optimize_shift``
                     calls after set-up. Median over operations.
total_s       s      setup + solve of one operation, median over operations:
                     the time to a solution at 1e-6, or on tune3d-ld the
                     time of the three tuning calls from an empty cache.
iterations    count  solve workloads: FGMRES iterations, an exact count, so a
                     speed-up that costs iterations shows. tune3d-ld: the
                     (alpha, direction) errors the three scans evaluate.
peak_rss_mb   MB     peak resident memory of the run's process.

The failure rate is ``failed / attempted`` of the result line.

Per-layer metrics (``--trace 1``), all nominally lower-is-better
-----------------------------------------------------------------
A separate traced run alternates untraced and traced operations and reports
medians over the traced ones (layers.py says how spans are taken). A layer a
workload does not reach reads 0 there; that is the prediction of no change.
Each layer metric and the end-to-end metric it should move:

factorization and coarse solve (multigrid)
    multigrid.factorize_s, multigrid.lu_fill_nnz -> setup_s, peak_rss_mb
        on helm2d-wedge-512
    multigrid.coarse_solve_s, multigrid.coarse_solve_calls -> solve_s on
        helm2d-wedge-512
Galerkin products and assembly
    multigrid.galerkin_s, multigrid.galerkin_calls,
    discretization.assemble_s, discretization.assemble_calls,
    multigrid.transfer_build_s, multigrid.setup_other_s (the rest of
    build_hierarchy) -> setup_s on helm3d-48-ld
cycle work
    multigrid.cycle_s, multigrid.cycle_calls, multigrid.smooth_fine_s,
    multigrid.smooth_fine_calls, multigrid.smooth_mid_s,
    multigrid.smooth_mid_calls, multigrid.cycle_other_s (transfers and
    residual matvecs, the rest of cycle) -> solve_s on helm3d-48-ld
Krylov overhead
    krylov.apply_A_s, krylov.apply_A_calls, krylov.overhead_s (fgmres minus
    apply_A minus the cycle: Gram-Schmidt, Givens, back-substitution)
    -> solve_s on helm3d-48-ld
level sizes (fixed counts that explain peak_rss_mb)
    multigrid.level{1,2,3}_dofs, multigrid.level{1,2,3}_nnz,
    discretization.fine_nnz
dispersion (stencils is reached only through it and is measured there)
    dispersion.optimize_shift_s.G10, .G11, .G12 -> total_s on tune3d-ld;
        prediction: no change on the solve workloads
    dispersion.alpha_star.G*, dispersion.max_eg.G* (unit 1) record the
        tuned table, so any drift shows; their direction is nominal
trace.overhead_s
    median traced total minus median untraced total within the run; at
    the noise floor, since the wrappers add microseconds per call.

Baseline
--------
The commit this benchmark was added on, on a 2-core x86-64 virtual machine
with one BLAS thread and ``--seconds 40``; medians of ten seeds, with the
spread (quartile distance over median) of setup_s / solve_s / total_s:

    workload          setup_s  solve_s  total_s  iterations  peak_rss_mb  spread
    helm2d-wedge-512  6.34     1.59     7.99     7           758          6/5/5%
    helm3d-48-ld      5.44     2.98     8.39     13          971          22/14/19%
    tune3d-ld         0.0096   11.47    11.48    38640       118          5/14/14%

A second set of ten seeds, twenty minutes later, gave medians 0-11% higher
and spreads of 6/9/7%, 14/13/14% and 51/36/36%. The spread comes from CPU
throughput that drifts over minutes on this machine (same page-fault
counts, user time per tuning operation from 11.4 to 15.8 s within 90 s); it
is widest on the memory-bound 3D set-up and tuning. One traced run per
workload split the time thus:
2D set-up 4.7 s factorization, 0.7 s assembly, 0.7 s Galerkin products;
2D cycles 1.26 s, of which coarsest solves 0.55 s. 3D set-up 2.0 s Galerkin
products, 1.5 s assembly, 1.4 s factorization; 3D cycles 2.5 s, of which
transfers and residual matvecs 1.25 s; Krylov overhead 0.48 s.

Self-tests, on small grids: ``PYTHONPATH=src python -m pytest perfbench``.
"""

import argparse
import json
import os
import platform
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def git_commit(root):
    """The checked-out commit read from .git, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # before numpy loads its BLAS
    for name in THREAD_VARIABLES:
        os.environ[name] = "1"
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import numpy
        import scipy
        import rscgc
    except ImportError as exc:
        print(f"cannot import the library from {ROOT / 'src'}: {exc}", file=sys.stderr)
        return 2
    if Path(rscgc.__file__).resolve().parent.parent != ROOT / "src":
        print(f"rscgc was imported from {rscgc.__file__}, not from this checkout",
              file=sys.stderr)
        return 2
    import bench

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    record = {
        "workload": workload.name, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": git_commit(ROOT),
    }
    print(json.dumps({"run_record": record}), flush=True)
    result = bench.run(workload, args.seed, args.seconds, trace=bool(args.trace))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
