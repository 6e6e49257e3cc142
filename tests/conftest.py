"""Shared problem builders and checks for the test suite."""

import numpy as np

from rscgc import multigrid
from rscgc.discretization import HelmholtzProblem, make_model, omega_for_ppw

# The second-order 1D pair, Laplacian [-1, 2, -1] and mass [0, 1, 0], for
# checks against closed forms; the library's schemes are 2D and 3D. Like
# every library pair, its two stencils share their extents.
SECOND_ORDER_1D = np.array([-1.0, 2.0, -1.0]), np.array([0.0, 1.0, 0.0])
# The same pair shaped (3, 1): along phi = 0 its 2D symbols are the 1D ones.
SECOND_ORDER_ALONG_X = tuple(s[:, None] for s in SECOND_ORDER_1D)


def combine(*terms):
    """The stencil sum of (scalar, stencil) terms, each zero-padded to the
    largest extents along every axis."""
    extents = tuple(map(max, zip(*(stencil.shape for _, stencil in terms))))
    total = 0
    for scalar, stencil in terms:
        pads = [((want - have) // 2,) * 2 for have, want in zip(stencil.shape, extents)]
        total = total + scalar * np.pad(stencil, pads)
    return total


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
