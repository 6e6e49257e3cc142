"""Periodic-grid oracle for Galerkin coarsening of constant stencils, and
Fourier symbols.

The solver never goes through this module. It reads the coarse stencil of
R * A * P off an explicit sparse triple product on a torus, where boundaries
cannot interfere, so the hierarchy's 1D Galerkin products, and the
dispersion composites read off them, can be checked against it. symbol
evaluates a stencil on plane waves, the eigenvectors of its operator on a
torus. A stencil here is a centered array with an odd extent along every
axis, as in the library, real or complex.
"""

from functools import reduce

import numpy as np
import scipy.sparse as sp

from rscgc.stencils import INTERGRID, RESTRICTION_WEIGHTS, offsets


def restriction_weights(dim, order):
    """The full-coarsening restriction stencil of a weight family in dim
    axes: the tensor product of its 1D weights, summing to one."""
    return reduce(np.multiply.outer, [RESTRICTION_WEIGHTS[order]] * dim, 1.0)


def symbol(stencil, theta):
    """Fourier symbol sum_o c_o * exp(i o . theta).

    ``theta`` is one frequency vector of length ``dim`` or a batch of shape
    ``(m, dim)``; returns a complex scalar or a complex array of length m.
    The value is what the stencil does to the plane wave exp(i theta . x).
    """
    th = np.asarray(theta, dtype=float)
    single = th.ndim == 1
    th = np.atleast_2d(th)
    if th.shape[-1] != stencil.ndim:
        raise ValueError(
            f"theta has {th.shape[-1]} components, stencil is {stencil.ndim}D"
        )
    phase = th @ offsets(stencil.shape).T
    values = np.exp(1j * phase) @ stencil.ravel()
    return values[0] if single else values


def _flat_index(multi, shape):
    """Row-major flat index for wrapped multi-indices (arrays allowed)."""
    flat = 0
    for idx, n in zip(multi, shape):
        flat = flat * n + np.mod(idx, n)
    return flat


def periodic_operator_matrix(stencil, points: int):
    """Circulant operator of ``stencil`` on a periodic grid, ``points`` nodes
    per axis, lexicographic ordering."""
    shape = (points,) * stencil.ndim
    n = points**stencil.ndim
    base = np.indices(shape).reshape(stencil.ndim, -1)
    rows, cols, vals = [], [], []
    for off, c in zip(offsets(stencil.shape), stencil.ravel()):
        if c == 0:
            continue
        rows.append(np.arange(n))
        cols.append(_flat_index(base + off[:, None], shape))
        vals.append(np.full(n, c))
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n), dtype=complex).tocsr()


def periodic_restriction_matrix(stencil, points: int):
    """Stride-2 restriction on a periodic grid with ``points`` (even) nodes
    per axis; rows are coarse nodes, (R u)_I = sum_o s_o u_{2I+o}."""
    if points % 2:
        raise ValueError("periodic restriction needs an even point count")
    dim = stencil.ndim
    fine_shape = (points,) * dim
    coarse = points // 2
    nc = coarse**dim
    base = 2 * np.indices((coarse,) * dim).reshape(dim, -1)
    rows, cols, vals = [], [], []
    for off, c in zip(offsets(stencil.shape), stencil.ravel()):
        if c == 0:
            continue
        rows.append(np.arange(nc))
        cols.append(_flat_index(base + off[:, None], fine_shape))
        vals.append(np.full(nc, c))
    return sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(nc, points**dim), dtype=complex).tocsr()


def periodic_rap_stencil(fine, restriction, prolongation, points: int):
    """Read the Galerkin coarse stencil off an explicit triple product
    R * A * P assembled on a periodic grid.

    restriction and prolongation are weight stencils that sum to one, as
    restriction_weights gives them; P is 2^dim times the transpose of the
    prolongation weights' restriction matrix, so it maps constants to
    constants. Raises if the coarse grid is too small to hold the composite
    stencil without wraparound, naming the minimum admissible point count.
    """
    # extent of the composite stencil: even offsets of the full convolution
    widths = []
    for r, a, p in zip(restriction.shape, fine.shape, prolongation.shape):
        half = (r + a + p - 3) // 2    # full convolution half-width
        widths.append(2 * (half // 2) + 1)
    coarse_points = points // 2
    need = 2 * max(widths)
    if points % 2 or coarse_points < max(widths):
        raise ValueError(
            f"periodic oracle grid of {points} points per axis is too small "
            f"for a coarse stencil of extent {max(widths)}; "
            f"need an even point count >= {need}"
        )
    R = periodic_restriction_matrix(restriction, points)
    A = periodic_operator_matrix(fine, points)
    # (P e)_{2I+o} += 2^dim p_o e_I is the scaled transpose of a
    # restriction-style matrix built from the prolongation weights
    P = 2.0 ** fine.ndim * periodic_restriction_matrix(prolongation, points).T
    C = (R @ A @ P).tocsr()

    dim = fine.ndim
    shape = (coarse_points,) * dim
    center = (coarse_points // 2,) * dim
    center_row = _flat_index(np.array(center).reshape(dim, 1), shape).item()
    row = np.asarray(C[center_row].todense()).ravel()
    half = max(widths) // 2
    out = np.zeros((max(widths),) * dim, dtype=complex)
    grid = np.indices(out.shape).reshape(dim, -1) - half
    src = _flat_index(np.array(center).reshape(dim, 1) + grid, shape)
    out.ravel()[:] = row[src]
    # anything the stencil window missed means wraparound slipped through
    leftover = row.copy()
    leftover[src] = 0
    if np.any(leftover != 0):
        raise ValueError(
            f"wraparound on the periodic oracle grid ({points} points); "
            f"need an even point count >= {need}"
        )
    return out


def periodic_composite(fine, intergrid: str):
    """Two periodic_rap_stencil steps through the coarsenings of an
    INTERGRID scheme, on 32 and then 16 nodes per axis."""
    for (restriction, prolongation), points in zip(INTERGRID[intergrid], (32, 16)):
        fine = periodic_rap_stencil(fine, restriction_weights(fine.ndim, restriction),
                                    restriction_weights(fine.ndim, prolongation), points)
    return fine
