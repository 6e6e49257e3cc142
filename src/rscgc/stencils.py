"""Constant-coefficient stencil algebra.

Dimensionless, centered stencils on uniform grids: Fourier symbols, tensor
products, restriction/prolongation families, and Galerkin composition
(coarse stencil of R * A * P with stride-2 grids). Everything here is pure
stencil arithmetic; matrices, boundaries and grid spacing live elsewhere.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce

import numpy as np
from scipy.signal import convolve


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

    def center(self) -> complex:
        return complex(self.coeffs[tuple(self.halves)])

    def is_symmetric(self, tol: float = 0.0) -> bool:
        rev = self.coeffs[(slice(None, None, -1),) * self.dim]
        return bool(np.allclose(rev, self.coeffs, rtol=0.0, atol=tol))

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

    def _binary(self, other, op):
        if not isinstance(other, Stencil):
            return NotImplemented
        if other.dim != self.dim:
            raise ValueError("stencil dimensions do not match")
        ext = tuple(max(a, b) for a, b in zip(self.extents, other.extents))
        return Stencil(op(self.padded_to(ext).coeffs, other.padded_to(ext).coeffs))

    def __add__(self, other):
        return self._binary(other, np.add)

    def __sub__(self, other):
        return self._binary(other, np.subtract)

    def __mul__(self, scalar):
        return Stencil(self.coeffs * complex(scalar))

    __rmul__ = __mul__

    def __neg__(self):
        return Stencil(-self.coeffs)


def symbol(stencil: Stencil, theta):
    """Fourier symbol sum_o c_o * exp(i o . theta).

    ``theta`` is one frequency vector of length ``dim`` or a batch of shape
    ``(m, dim)``; returns a complex scalar or a complex array of length m.
    The value is what the stencil does to the plane wave exp(i theta . x).
    """
    th = np.asarray(theta, dtype=float)
    single = th.ndim == 1
    th = np.atleast_2d(th)
    if th.shape[-1] != stencil.dim:
        raise ValueError(
            f"theta has {th.shape[-1]} components, stencil is {stencil.dim}D"
        )
    phase = th @ stencil.offsets().T
    values = np.exp(1j * phase) @ stencil.coeffs.ravel()
    return values[0] if single else values


def tensor_product(*factors: Stencil) -> Stencil:
    """Outer product of 1D stencils, one per axis."""
    if not factors:
        raise ValueError("need at least one factor")
    if any(f.dim != 1 for f in factors):
        raise ValueError("tensor_product takes 1D factors only")
    if len(factors) > 3:
        raise ValueError("at most three axes supported")
    return Stencil(reduce(np.multiply.outer, [f.coeffs for f in factors]))


def transpose_scale(restriction: Stencil, dim: int | None = None) -> Stencil:
    """Prolongation stencil belonging to a restriction stencil.

    With restriction rows (R u)_I = sum_o s_o u_{2I+o}, the matrix transpose
    applied to a coarse vector interpolates with the same offsets, and the
    2^dim factor restores unit weight sums on each parity class, i.e. the
    usual interpolation normalization (constants map to constants).
    """
    if dim is None:
        dim = restriction.dim
    if dim != restriction.dim:
        raise ValueError("dim does not match the restriction stencil")
    return Stencil(restriction.coeffs * (2.0**dim))


def restriction_stencil(dim: int, order: str) -> Stencil:
    """Standard full-coarsening restriction stencils.

    order 'linear': tensor product of (1/4)[1 2 1] (full weighting);
    order 'cubic' : tensor product of (1/16)[1 4 6 4 1].
    Entries sum to one in either case.
    """
    if order == "cubic":
        base = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    elif order == "linear":
        base = np.array([1.0, 2.0, 1.0]) / 4.0
    else:
        raise ValueError(f"unknown transfer order {order!r}")
    return tensor_product(*([Stencil(base)] * dim))


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
