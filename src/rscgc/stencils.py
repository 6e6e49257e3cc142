"""Constant-coefficient stencil algebra.

Dimensionless, centered stencils on uniform grids: restriction/prolongation
families, the intergrid schemes built from them, and Galerkin composition
(coarse stencil of R * A * P with stride-2 grids). Everything here is pure
stencil arithmetic; matrices, boundaries and grid spacing live elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.signal import convolve

__all__ = ["INTERGRID", "Stencil", "galerkin_stencil", "restriction_stencil",
           "transpose_scale"]

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

    def padded_to(self, extents) -> "Stencil":
        """Zero-pad to larger odd extents, keeping the center aligned."""
        extents = tuple(extents)
        if len(extents) != self.dim:
            raise ValueError("extent rank does not match stencil dimension")
        pads = []
        for have, want in zip(self.coeffs.shape, extents):
            if want < have or want % 2 == 0:
                raise ValueError(f"cannot pad extent {have} to {want}")
            pads.append(((want - have) // 2,) * 2)
        return Stencil(np.pad(self.coeffs, pads))

    def __add__(self, other):
        if not isinstance(other, Stencil):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("stencil dimensions do not match")
        ext = tuple(max(a, b) for a, b in zip(self.extents, other.extents))
        return Stencil(self.padded_to(ext).coeffs + other.padded_to(ext).coeffs)

    def __mul__(self, scalar):
        return Stencil(self.coeffs * complex(scalar))

    __rmul__ = __mul__


def transpose_scale(restriction: Stencil) -> Stencil:
    """Prolongation stencil belonging to a restriction stencil.

    With restriction rows (R u)_I = sum_o s_o u_{2I+o}, the matrix transpose
    applied to a coarse vector interpolates with the same offsets, and the
    2^dim factor restores unit weight sums on each parity class, i.e. the
    usual interpolation normalization (constants map to constants).
    """
    return Stencil(restriction.coeffs * (2.0**restriction.dim))


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


def galerkin_stencil(fine: Stencil, restriction: Stencil,
                     prolongation: Stencil) -> Stencil:
    """Coarse-grid stencil of restriction * fine * prolongation.

    Index bookkeeping (1D shown, axes are independent): with
    (R u)_I = sum_o s_o u_{2I+o}, (A u)_i = sum_j a_j u_{i+j} and
    (P e)_i = sum_K p_{i-2K} e_K, the coarse entry at offset k is

        c_k = sum_m (s * a)_m p_{m-2k}  =  ((s * a) * reverse(p))_{2k},

    i.e. convolve restriction with the fine stencil, convolve with the
    reversed prolongation, and keep even offsets. Linear in ``fine``.
    """
    if not (fine.dim == restriction.dim == prolongation.dim):
        raise ValueError("fine, restriction and prolongation dimensions differ")
    rev = prolongation.coeffs[(slice(None, None, -1),) * prolongation.dim]
    full = convolve(restriction.coeffs, fine.coeffs, mode="full", method="direct")
    full = convolve(full, rev, mode="full", method="direct")
    slices = []
    for extent in full.shape:
        center = (extent - 1) // 2
        slices.append(slice(center % 2, None, 2))
    return Stencil(full[tuple(slices)])
