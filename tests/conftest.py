"""Shared problem builders and checks for the test suite."""

import numpy as np

from rscgc import multigrid
from rscgc.discretization import HelmholtzProblem, make_model, omega_for_ppw


def build_problem(dim, cells, G, kind="homogeneous", kappa2=(1.0, 1.0),
                  pad=20, **kwargs):
    """Cube problem with `cells` interior cells per axis and h = 1/cells."""
    model = make_model(kind, kappa2, (cells,) * dim, 1.0 / cells)
    return HelmholtzProblem(model, omega_for_ppw(model, G), pad=pad, **kwargs)


def double_cycle(hierarchy, b):
    """The cycle of a hierarchy run in double precision throughout, the path
    multigrid.cycle falls back to: the reference for the single-precision
    cycle, and itself linear to double rounding."""
    return multigrid._cycle(hierarchy, np.asarray(b, dtype=complex).ravel())


def structurally_symmetric(matrix):
    """Whether every nonzero entry (i, j) of a sparse matrix has a nonzero (j, i)."""
    pattern = (matrix != 0).astype(np.int8)
    return (pattern != pattern.T).nnz == 0
