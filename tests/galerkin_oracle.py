"""Sparse-matrix oracle for the assembly and the Galerkin coarsening.

The solver never goes through this module. It assembles the fine and mass
operators from COO triplets, one block per stencil offset, on the whole
node grid, with identity rows on its outermost layer, the Dirichlet
boundary. It forms the transfers as Kronecker products of their 1D bands in
one CSR matrix each, extends them by zero to that layer, and coarsens with
explicit sparse triple products R * A * P. The library's unknowns are the
nodes inside the layer, so each of its operators is checked against the
oracle's interior block (interior_block), once the oracle's couplings
between the interior and the layer are found to be zero. The stencil-array
assembly, the axis-by-axis coarsening and the axis-by-axis transfers of
:mod:`rscgc.discretization` and :mod:`rscgc.multigrid` are checked against
it. mass_matrix is the mass operator by the library's own
stencil route, for the identities that need it as a matrix,
assembled_stencil the GridStencil of an assembled operator, for the route
that coarsens it whole, and galerkin_band the 1D Galerkin band by sparse
shift products.
"""

import math
from functools import reduce

import numpy as np
import scipy.sparse as sp

from rscgc.discretization import (GridStencil, SparseOperator, _interior_stencil,
                                  _padded_kappa2, _scheme_coefficients,
                                  attenuation_profile, laplacian_and_mass_stencils,
                                  mass_term)
from rscgc.multigrid import _axis_factors
from rscgc.stencils import RESTRICTION_WEIGHTS, offsets


def _boundary_mask(shape):
    """The outermost layer of a node grid, the Dirichlet boundary."""
    mask = np.ones(shape, dtype=bool)
    mask[tuple(slice(1, s - 1) for s in shape)] = False
    return mask


def halved(shape):
    """The node grid of the coarsening of a node grid."""
    return tuple((n - 1) // 2 + 1 for n in shape)


def interior_block(matrix, shape):
    """The block of a matrix over the node grid shape at the nodes inside its
    outermost layer, the library's unknowns, once no entry is found to
    couple them with the layer in either direction."""
    inside = ~_boundary_mask(shape).ravel()
    matrix = sp.csr_matrix(matrix)
    assert matrix[inside][:, ~inside].count_nonzero() == 0
    assert matrix[~inside][:, inside].count_nonzero() == 0
    return sp.csr_matrix(matrix[inside][:, inside])


def embedding(shape):
    """The map from the library's unknowns to the node grid shape: E u is u
    inside the outermost layer and zero on it."""
    inside = np.flatnonzero(~_boundary_mask(shape).ravel())
    return sp.csr_matrix((np.ones(len(inside)), (inside, np.arange(len(inside)))),
                         shape=(math.prod(shape), len(inside)))


def _stencil_entries(shape, boundary, stencil, weight_of_offset):
    """COO triplets for stencil rows at interior nodes.

    weight_of_offset(offset, column_slices) returns the entry values for one
    offset; couplings into boundary nodes are dropped so the outermost layer
    stays fully decoupled.
    """
    idx = np.arange(int(np.prod(shape))).reshape(shape)
    interior = tuple(slice(1, s - 1) for s in shape)
    rows_grid = idx[interior]
    rows, cols, vals = [], [], []
    for off, coeff in zip(offsets(stencil.shape), stencil.ravel()):
        if coeff == 0:
            continue
        colslc = tuple(slice(1 + o, s - 1 + o) for o, s in zip(off, shape))
        keep = ~boundary[colslc]
        values = weight_of_offset(coeff, colslc)
        if np.ndim(values) == 0:
            values = np.broadcast_to(values, rows_grid.shape)
        rows.append(rows_grid[keep])
        cols.append(idx[colslc][keep])
        vals.append(np.ascontiguousarray(values[keep]))
    return rows, cols, vals


def _csr(rows, cols, vals, shape):
    """Square CSR matrix over the grid from lists of COO triplet blocks."""
    n = int(np.prod(shape))
    matrix = sp.coo_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n)).tocsr()
    matrix.sum_duplicates()
    return matrix


def operator_matrix(problem, scheme, alpha=1.0, beta=0.0):
    """(1/h^2) L - (alpha^2 + i(gamma + beta)) k^2 M with identity boundary rows."""
    lap, mass = laplacian_and_mass_stencils(problem.model.dim, scheme)
    shape = problem.padded_shape
    h = problem.model.h
    boundary = _boundary_mask(shape)
    k2 = problem.omega ** 2 * _padded_kappa2(problem)
    coef = (alpha ** 2 + 1j * (attenuation_profile(problem) + beta)) * k2

    rows, cols, vals = _stencil_entries(
        shape, boundary, lap, lambda c, slc: complex(c) / h ** 2)
    mrows, mcols, mvals = _stencil_entries(
        shape, boundary, mass, lambda c, slc: -c * coef[slc])
    rows += mrows
    cols += mcols
    vals += mvals

    bidx = np.arange(int(np.prod(shape))).reshape(shape)[boundary]
    rows.append(bidx)
    cols.append(bidx)
    vals.append(np.ones(bidx.size, dtype=complex))
    return _csr(rows, cols, vals, shape)


def mass_operator_matrix(problem, scheme):
    """The real k^2-weighted mass operator with zero boundary rows."""
    _, mass = laplacian_and_mass_stencils(problem.model.dim, scheme)
    shape = problem.padded_shape
    boundary = _boundary_mask(shape)
    k2 = problem.omega ** 2 * _padded_kappa2(problem)
    rows, cols, vals = _stencil_entries(
        shape, boundary, mass, lambda c, slc: c * k2[slc])
    return _csr(rows, cols, vals, shape)


def mass_matrix(problem, scheme):
    """The real k^2-weighted mass operator k^2 M on the library's unknowns as
    a SparseOperator, the CSR of the real part of mass_term at beta = 0."""
    term = mass_term(problem, scheme)
    matrix = GridStencil(term.offsets, term.coeffs.real).tocsr()
    return SparseOperator(matrix, term.grid_shape, term.reach)


def assembled_stencil(problem, scheme, alpha=1.0, beta=0.0):
    """The GridStencil of assemble_operator at (alpha, beta), built in two
    passes: the Laplacian planes (1/h^2) L, then the mass planes
    (alpha^2 + i(gamma + beta)) k^2 M, sampled at the column's node,
    subtracted from them offset by offset."""
    offsets, lap, weights = _scheme_coefficients(problem.model.dim, scheme)
    shape = problem.padded_shape
    h = problem.model.h
    k2 = problem.omega ** 2 * _padded_kappa2(problem)
    coef = (alpha ** 2 + 1j * (attenuation_profile(problem) + beta)) * k2
    stencil = _interior_stencil(shape, offsets, complex,
                                lambda e, slc: complex(lap[e]) / h ** 2)
    mass = _interior_stencil(shape, offsets, complex,
                             lambda e, slc: weights[e] * coef[slc])
    for e in np.flatnonzero(weights):
        stencil.coeffs[e] -= mass.coeffs[e]
    return stencil


def kron_transfers(pair):
    """The restriction and prolongation of a TransferPair as CSR matrices:
    the Kronecker products of its 1D bands."""
    kron = lambda bands: reduce(lambda a, b: sp.kron(a, b, format="csr"), bands)
    return kron(pair.restriction), kron(pair.prolongation)


def node_transfers(pair, fine_shape):
    """The restriction and prolongation of a TransferPair between the node
    grid fine_shape and its coarsening, extended by zero to their outermost
    layers."""
    fine, coarse = embedding(fine_shape), embedding(halved(fine_shape))
    R, P = kron_transfers(pair)
    return coarse @ R @ fine.T, fine @ P @ coarse.T


def coarsen_matrix(matrix, pair, fine_shape):
    """Sparse triple product over the node grid fine_shape, with the coarse
    Dirichlet diagonal restored."""
    coarse_shape = halved(fine_shape)
    R, P = node_transfers(pair, fine_shape)
    coarse = (R @ matrix) @ P
    coarse = sp.csr_matrix(coarse)
    bnd = _boundary_mask(coarse_shape).ravel()
    coarse = coarse + sp.diags(bnd.astype(coarse.dtype))
    coarse = sp.csr_matrix(coarse)
    coarse.eliminate_zeros()
    coarse.sort_indices()
    return coarse


def hierarchy_levels(problem, scheme, plan, transfers):
    """The three level matrices by the sparse route over the node grids,
    each as (matrix, node grid shape): the fine operator at (1, beta), its
    coarsening, and the coarsening of the mid level plus
    (1 - alpha^2) R12 (k^2 M) P12."""
    t12, t23 = transfers
    fine_shape = problem.padded_shape
    mid_shape = halved(fine_shape)
    fine = operator_matrix(problem, scheme, alpha=1.0, beta=plan.beta)
    mid = coarsen_matrix(fine, t12, fine_shape)
    shifted = mid
    if plan.alpha != 1.0:
        mass = mass_operator_matrix(problem, scheme)
        R, P = node_transfers(t12, fine_shape)
        mid_mass = sp.csr_matrix((R @ mass) @ P)
        mid_mass.sort_indices()
        shifted = mid + (1.0 - plan.alpha ** 2) * mid_mass
    return ((fine, fine_shape), (mid, mid_shape),
            (coarsen_matrix(shifted, t23, mid_shape), halved(mid_shape)))


def galerkin_band(n, restriction_order, prolongation_order, axis_offsets):
    """multigrid._galerkin_band by shift products: the block of coarse offset
    q and fine offset o is R times the elementwise product with
    shift_q P^T shift_-o, for every q up to the composed reach."""
    R, P = _axis_factors(n, restriction_order, prolongation_order)
    nc = R.shape[0]
    reach = max(map(abs, axis_offsets)) + sum(
        len(RESTRICTION_WEIGHTS[order]) // 2
        for order in (restriction_order, prolongation_order))
    shifted = P.T.tocsr()
    blocks = {q: [R.multiply(sp.eye(nc, k=q) @ shifted @ sp.eye(n, k=-o))
                  for o in axis_offsets]
              for q in range(-(reach // 2), reach // 2 + 1)}
    blocks = {q: row for q, row in blocks.items() if any(b.nnz for b in row)}
    return sp.bmat(list(blocks.values()), format="csr"), tuple(blocks)
