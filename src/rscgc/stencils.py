"""Constant-coefficient stencils.

A constant stencil is a real, centered float64 ndarray with an odd extent
along every axis: entry ``[i1, ..., id]`` is the coefficient at offset
``(i1 - e1//2, ..., id - ed//2)`` from the center node, so applying it
reads ``(A u)_x = sum_o s[o] u[x + o]``. Every such array a cache or a
module table hands out is read-only. This module holds the constant tables
the layers read: the restriction weight families and the intergrid schemes
built from them. Matrices, boundaries, grid spacing and Galerkin coarsening
live in the hierarchy (multigrid.py).
"""

import numpy as np

__all__ = ["INTERGRID", "RESTRICTION_WEIGHTS", "offsets"]

# The (restriction, prolongation) weight families of the two coarsenings,
# fine to mid and mid to coarsest, of each intergrid scheme. The hierarchy,
# the dispersion analysis and the CLI all read this one table.
INTERGRID = {
    "cubic": (("cubic", "cubic"), ("cubic", "cubic")),
    "level-dependent": (("cubic", "cubic"), ("linear", "cubic")),
    "bilinear": (("linear", "linear"), ("linear", "linear")),
}

# The 1D restriction weights of each family, summing to one: full
# weighting (1/4)[1 2 1] and the cubic (1/16)[1 4 6 4 1]. The transfers
# along every axis are built from these.
RESTRICTION_WEIGHTS = {
    "linear": np.array([1.0, 2.0, 1.0]) / 4.0,
    "cubic": np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0,
}
for _weights in RESTRICTION_WEIGHTS.values():
    _weights.setflags(write=False)


def offsets(extents):
    """Integer offsets of a centered stencil of the given odd extents, shape
    (n_entries, dim), in the C order of its ``ravel()``."""
    axes = [np.arange(-(e // 2), e // 2 + 1) for e in extents]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=1)
