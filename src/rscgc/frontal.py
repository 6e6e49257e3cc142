"""Multifrontal LU of a grid operator in geometric nested-dissection order.

The grid is bisected along its longest axis by a separator `reach` planes
thick, which cuts every coupling of a stencil that reaches `reach` nodes
along each axis, down to boxes of at most _LEAF nodes. Each box is
eliminated before the separator that bounds it (George 1973), and each
elimination step works on a dense frontal matrix (Duff & Reid 1983):
zgetrf on the pivot block, ztrsm for the two border blocks and zgemm for
the Schur update that the parent front assembles. A separator is numbered
with its cut axis fastest, so an update lands in its parent's front as runs
of consecutive positions, added one slice pair at a time. A coupling that
reaches further than `reach` would cross a separator; the symbolic pass
finds it and raises a RuntimeError. Pivoting stays inside each pivot block:
an exactly singular one is a RuntimeError, and one that is merely
ill-conditioned is left to the caller's residual check.
"""

from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
from scipy.linalg import blas, lapack

__all__ = ["FrontalLU", "nested_dissection"]

# Largest box left undivided, in grid nodes. On the coarsest levels of the
# benchmark, 139^2 and 17^3 nodes, leaves of 64 and of 100 nodes factor
# equally fast, and 64 keeps 15% less fill in 2D (7.9 M instead of 9.3 M).
_LEAF = 64


class Node(NamedTuple):
    """Pivots at positions start..stop-1 of the elimination order, and the
    postorder indices of the nodes whose updates its front assembles."""

    start: int
    stop: int
    children: tuple


def _put(bounds, axis, value):
    return bounds[:axis] + (value,) + bounds[axis + 1:]


def _box(shape, lo, hi, fastest):
    """Flat indices of the box lo..hi-1 of a C-ordered grid, with the axis
    `fastest` varying fastest."""
    grid = np.meshgrid(*map(np.arange, lo, hi), indexing="ij")
    return np.moveaxis(np.ravel_multi_index(grid, shape), fastest, -1).ravel()


def nested_dissection(shape, reach, leaf):
    """Elimination order of a grid, and its tree of Nodes in postorder.

    A box of more than `leaf` nodes is cut across its longest axis by a
    separator `reach` planes thick, numbered with the cut axis fastest and
    eliminated after both halves; no stencil of that reach couples the
    halves. A box too thin to cut is a leaf whatever its size.
    """
    shape = tuple(int(n) for n in shape)
    pieces, tree = [], []

    def dissect(lo, hi, placed):
        extent = [b - a for a, b in zip(lo, hi)]
        axis = int(np.argmax(extent))
        children, fastest = (), len(shape) - 1
        if np.prod(extent) > leaf and extent[axis] >= reach + 2:
            cut = lo[axis] + (extent[axis] - reach) // 2
            left = dissect(lo, _put(hi, axis, cut), placed)
            right = dissect(_put(lo, axis, cut + reach), hi, tree[left].stop)
            children, fastest, placed = (left, right), axis, tree[right].stop
            lo, hi = _put(lo, axis, cut), _put(hi, axis, cut + reach)
        pieces.append(_box(shape, lo, hi, fastest))
        tree.append(Node(placed, placed + len(pieces[-1]), children))
        return len(tree) - 1

    dissect((0,) * len(shape), shape, 0)
    return np.concatenate(pieces), tree


def _extend_add(front, update, targets):
    """front[targets][:, targets] += update, one slice pair per pair of runs
    of consecutive target positions."""
    starts = np.r_[0, np.flatnonzero(np.diff(targets) != 1) + 1]
    runs = list(zip(starts.tolist(), np.r_[starts[1:], len(targets)].tolist(),
                    targets[starts].tolist()))
    for a, z, t in runs:
        for a2, z2, t2 in runs:
            front[t:t + z - a, t2:t2 + z2 - a2] += update[a:z, a2:z2]


class FrontalLU:
    """LU factors of a sparse matrix whose unknowns are the nodes of a
    C-ordered grid of the given shape, and whose rows couple only nodes at
    most `reach` apart along every axis.

    The grid is dissected by nested_dissection, and a coupling that reaches
    further is a RuntimeError. solve(b) returns A^-1 b for a vector b. L
    (CSC, unit diagonal) and U (CSR) are built on demand: L U is A with its
    columns in the elimination order `order` and its rows in that order
    after each front's row pivoting (_row_positions). fill counts their
    stored entries without building them.
    """

    def __init__(self, matrix, shape, reach):
        matrix = sp.csr_matrix(matrix)
        self.shape = matrix.shape
        self.order, self.tree = nested_dissection(shape, reach, _LEAF)
        rows = matrix[self.order][:, self.order]
        cols = rows.tocsc()
        # symbolic pass: a front's border holds every later position that its
        # pivots couple to or that a child's border holds. Updates wait on a
        # stack until their parent assembles them; slots are their offsets.
        # A child's border below its parent's first pivot lies in a sibling.
        self.borders, slots, tops = [], [], []
        for s, e, children in self.tree:
            if any(len(self.borders[c]) and self.borders[c][0] < s for c in children):
                raise RuntimeError(f"the matrix couples unknowns more than reach "
                                   f"{reach} apart, across a separator")
            touched = np.concatenate([rows.indices[rows.indptr[s]:rows.indptr[e]],
                                      cols.indices[cols.indptr[s]:cols.indptr[e]]]
                                     + [self.borders[c] for c in children])
            self.borders.append(np.unique(touched[touched >= e]))
            del tops[len(tops) - len(children):]
            slots.append(tops[-1] if tops else 0)
            tops.append(slots[-1] + len(self.borders[-1]) ** 2)
        self._factor(rows, cols, slots)

    def _factor(self, rows, cols, slots):
        """Numeric pass. The blocks LU, U_IB and L_BI of every front share one
        buffer; the fronts and the update stack reuse one more each."""
        sizes = [(e - s, len(border)) for (s, e, _), border in zip(self.tree, self.borders)]
        offsets = np.cumsum([0] + [p * (p + 2 * b) for p, b in sizes]).tolist()
        buffer = np.empty(offsets[-1], dtype=complex)
        work = np.empty(max((p + b) ** 2 for p, b in sizes), dtype=complex)
        stack = np.empty(max(slot + b * b for slot, (_, b) in zip(slots, sizes)),
                         dtype=complex)

        def block(data, start, dims):
            return data[start:start + dims[0] * dims[1]].reshape(dims, order="F")

        local = np.empty(rows.shape[0], dtype=np.intp)
        self.pivots = np.empty(rows.shape[0], dtype=np.int32)
        self.blocks = []
        for (s, e, children), border, (p, b), at, slot in zip(
                self.tree, self.borders, sizes, offsets, slots):
            local[np.r_[s:e, border]] = np.arange(p + b)
            front = block(work, 0, (p + b, p + b))
            front.fill(0)
            # the pivot rows from column s on, then the pivot columns at the
            # border rows, read transposed from the CSC copy
            for index, first, flip in ((rows, s, 1), (cols, e, -1)):
                lo, hi = index.indptr[s], index.indptr[e]
                own = np.repeat(np.arange(p), np.diff(index.indptr[s:e + 1]))
                far = index.indices[lo:hi]
                keep = far >= first
                front[(own[keep], local[far[keep]])[::flip]] = index.data[lo:hi][keep]
            for child in children:
                size = len(self.borders[child])
                if size:
                    _extend_add(front, block(stack, slots[child], (size, size)),
                                local[self.borders[child]])

            lu, u12, l21 = (block(buffer, at, (p, p)), block(buffer, at + p * p, (p, b)),
                            block(buffer, at + p * (p + b), (b, p)))
            lu[...] = front[:p, :p]
            _, piv, info = lapack.zgetrf(lu, overwrite_a=1)
            if info > 0:
                raise RuntimeError(f"a pivot block of {p} unknowns is exactly singular")
            self.pivots[s:e] = piv
            self.blocks.append((lu, u12, l21))
            if b:
                u12[...] = front[:p, p:]
                lapack.zlaswp(u12, piv, overwrite_a=1)
                blas.ztrsm(1.0, lu, u12, lower=1, diag=1, overwrite_b=1)
                l21[...] = front[p:, :p]
                blas.ztrsm(1.0, lu, l21, side=1, overwrite_b=1)
                update = block(stack, slot, (b, b))
                update[...] = front[p:, p:]
                blas.zgemm(-1.0, l21, u12, 1.0, update, overwrite_c=1)

    def solve(self, rhs):
        """A^-1 rhs for a vector rhs."""
        y = np.asarray(rhs, dtype=complex)[self.order]
        steps = list(zip(self.tree, self.borders, self.blocks))
        for (s, e, _), border, (lu, _, l21) in steps:
            z = lapack.zlaswp(y[s:e, None], self.pivots[s:e])[:, 0]
            y[s:e] = blas.ztrsv(lu, z, lower=1, diag=1, overwrite_x=1)
            if len(border):
                y[border] -= l21 @ y[s:e]
        for (s, e, _), border, (lu, u12, _) in reversed(steps):
            z = y[s:e] - u12 @ y[border] if len(border) else y[s:e]
            y[s:e] = blas.ztrsv(lu, z, overwrite_x=1)
        x = np.empty_like(y)
        x[self.order] = y
        return x

    def _row_positions(self):
        """For each row of L U, the elimination position of its matrix row."""
        positions = list(range(self.shape[0]))
        for s, e, _ in self.tree:
            for i, j in enumerate(self.pivots[s:e].tolist(), s):
                positions[i], positions[s + j] = positions[s + j], positions[i]
        return np.array(positions)

    @property
    def fill(self):
        """L.nnz + U.nnz. A front of p pivots and b border nodes stores
        p^2 + p entries in its two triangles, L's unit diagonal included,
        and p b in each of its border blocks."""
        sizes = (u12.shape for _, u12, _ in self.blocks)
        return sum(p * (p + 1 + 2 * b) for p, b in sizes)

    @property
    def L(self):
        return self._triangle(lower=True)

    @property
    def U(self):
        return self._triangle(lower=False)

    def _triangle(self, lower):
        """L as CSC or U as CSR, one block of columns or rows per front."""
        row_of = np.argsort(self._row_positions()) if lower else np.arange(self.shape[0])
        data, index, counts = [], [], []
        for (s, e, _), border, (lu, u12, l21) in zip(self.tree, self.borders, self.blocks):
            p = e - s
            if lower:       # row c of the block is column s + c of L
                head = np.triu(lu.T)
                np.fill_diagonal(head, 1.0)
                block = np.hstack([head, l21.T])
            else:
                block = np.hstack([np.triu(lu), u12])
            keep = np.ones(block.shape, dtype=bool)
            keep[:, :p] = np.triu(keep[:, :p])
            where = np.r_[s:e, row_of[border]].astype(np.int32)
            data.append(block[keep])
            index.append(np.broadcast_to(where, block.shape)[keep])
            counts.append(keep.sum(axis=1))
        indptr = np.r_[0, np.cumsum(np.concatenate(counts))].astype(np.int32)
        kind = sp.csc_matrix if lower else sp.csr_matrix
        return kind((np.concatenate(data), np.concatenate(index), indptr), shape=self.shape)
