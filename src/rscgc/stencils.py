"""Constant-coefficient stencils.

Dimensionless, centered stencils on uniform grids: the restriction weight
families and the intergrid schemes built from them. Matrices, boundaries,
grid spacing and Galerkin coarsening live in the hierarchy (multigrid.py).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np

__all__ = ["INTERGRID", "Stencil", "restriction_stencil"]

# The (restriction, prolongation) weight families of the two coarsenings,
# fine to mid and mid to coarsest, of each intergrid scheme. The hierarchy,
# the dispersion analysis and the CLI all read this one table.
INTERGRID = {
    "cubic": (("cubic", "cubic"), ("cubic", "cubic")),
    "level-dependent": (("cubic", "cubic"), ("linear", "cubic")),
    "bilinear": (("linear", "linear"), ("linear", "linear")),
}


@dataclass(frozen=True)
class Stencil:
    """Centered stencil with odd extent along every axis.

    ``coeffs[i1, ..., id]`` is the coefficient at offset
    ``(i1 - e1//2, ..., id - ed//2)`` from the center node, so applying the
    stencil reads ``(A u)_x = sum_o coeffs[o] * u[x + o]``.
    """

    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim not in (1, 2, 3):
            raise ValueError(f"stencil must be 1D, 2D or 3D, got {c.ndim} axes")
        if any(e % 2 == 0 for e in c.shape):
            raise ValueError(f"stencil extents must all be odd, got {c.shape}")
        if not np.all(np.isfinite(c)):
            raise ValueError("stencil coefficients must be finite")
        object.__setattr__(self, "coeffs", c)

    @property
    def dim(self) -> int:
        return self.coeffs.ndim

    @property
    def extents(self) -> tuple:
        return self.coeffs.shape

    @property
    def halves(self) -> tuple:
        return tuple(e // 2 for e in self.coeffs.shape)

    def offsets(self) -> np.ndarray:
        """Integer offsets, shape (n_entries, dim), in C order matching
        ``coeffs.ravel()``."""
        axes = [np.arange(-h, h + 1) for h in self.halves]
        grids = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grids], axis=1)


def restriction_stencil(dim: int, order: str) -> Stencil:
    """Standard full-coarsening restriction stencils.

    order 'linear': tensor product of (1/4)[1 2 1] (full weighting);
    order 'cubic' : tensor product of (1/16)[1 4 6 4 1].
    Entries sum to one in either case; dim is 1, 2 or 3.
    """
    if order == "cubic":
        base = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    elif order == "linear":
        base = np.array([1.0, 2.0, 1.0]) / 4.0
    else:
        raise ValueError(f"unknown transfer order {order!r}")
    return Stencil(reduce(np.multiply.outer, [base] * dim, 1.0))
