"""The multifrontal LU and its nested-dissection order, against SuperLU."""

import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import rscgc.multigrid as mg
from rscgc import frontal
from rscgc.discretization import assemble_operator
from rscgc.frontal import FrontalLU, nested_dissection
from rscgc.multigrid import CyclePlan, build_hierarchy, build_rediscretized_hierarchy
from rscgc.stencils import INTERGRID

from conftest import build_problem


def box_pattern(shape, reach):
    """(rows, cols) of every pair of grid nodes within `reach` of each other
    along every axis."""
    coords = np.indices(shape).reshape(len(shape), -1)
    rows, cols = [], []
    for step in itertools.product(range(-reach, reach + 1), repeat=len(shape)):
        target = coords + np.array(step)[:, None]
        inside = ((target >= 0) & (target < np.array(shape)[:, None])).all(axis=0)
        rows.append(np.flatnonzero(inside))
        cols.append(np.ravel_multi_index(target[:, inside], shape))
    return np.concatenate(rows), np.concatenate(cols)


def stencil_operator(shape, reach, seed):
    """Complex operator of reach `reach` on a grid, with random
    heterogeneous coefficients and a dominant diagonal."""
    rng = np.random.default_rng(seed)
    n = math.prod(shape)
    rows, cols = box_pattern(shape, reach)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    vals = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    weight = np.abs(A).sum(axis=1).A1 + 1
    return A + sp.diags(weight * np.exp(2j * np.pi * rng.random(n)))


def perm_r(lu):
    """The rows of A in the order of the rows of L U: the elimination order
    after each front's row pivoting."""
    return lu.order[lu._row_positions()]


def check_factors(A, shape, reach):
    """L U reproduces the permuted matrix, fill counts their entries, solve
    agrees with splu, and the fronts pivot every unknown."""
    A = sp.csr_matrix(A)
    lu = FrontalLU(A, shape, reach)
    scale = abs(A).max()
    gap = abs(lu.L @ lu.U - A[perm_r(lu)][:, lu.order]).max()
    assert gap <= 1e-12 * scale
    assert lu.fill == lu.L.nnz + lu.U.nnz
    assert lu.tree[-1].stop == A.shape[0]
    assert sorted(lu.order.tolist()) == list(range(A.shape[0]))
    b = np.random.default_rng(7).standard_normal((A.shape[0], 2)) @ [1, 1j]
    x = lu.solve(b)
    assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
    reference = spla.splu(sp.csc_matrix(A)).solve(b)
    assert np.linalg.norm(x - reference) <= 1e-9 * np.linalg.norm(reference)
    return lu


@settings(max_examples=30, deadline=None)
@given(dim=st.sampled_from([2, 3]), reach=st.integers(1, 3),
       sides=st.lists(st.integers(3, 13), min_size=3, max_size=3),
       leaf=st.sampled_from([4, 30, frontal._LEAF]), seed=st.integers(0, 2**32 - 1))
def test_frontal_lu_matches_the_permuted_matrix_and_splu(dim, reach, sides, leaf, seed):
    shape = tuple(s * (3 if dim == 2 else 1) for s in sides[:dim])
    with mock.patch.object(frontal, "_LEAF", leaf):
        lu = check_factors(stencil_operator(shape, reach, seed), shape, reach)
    assert sorted(perm_r(lu).tolist()) == list(range(math.prod(shape)))


@pytest.mark.parametrize("reach", [1, 2])
def test_a_coupling_past_the_recorded_reach_falls_back_to_superlu(reach):
    """The 2D coarsest level couples unknowns 3 apart. Recorded with a
    smaller reach, its separators leave couplings across them, which the
    symbolic pass finds and names; _factorize then turns to SuperLU, whose
    solve meets the 1e-10 check."""
    problem = build_problem(2, 64, 12, kind="wedge", kappa2=(0.25, 1.0), pad=20)
    coarsest = build_hierarchy(problem, "fourth-order",
                               CyclePlan(alpha=1.0045)).levels[-1].operator
    assert coarsest.reach == 3
    operator = dataclasses.replace(coarsest, reach=reach)
    with pytest.raises(RuntimeError, match=f"more than reach {reach} apart"):
        FrontalLU(operator.matrix, operator.grid_shape, operator.reach)
    lu = mg._factorize(operator, CyclePlan())
    assert not isinstance(lu, FrontalLU)
    b = np.random.default_rng(11).standard_normal(operator.dofs) + 0j
    assert np.linalg.norm(b - operator.matrix @ lu.solve(b)) <= 1e-10 * np.linalg.norm(b)


def test_a_zero_row_is_a_singular_pivot(monkeypatch):
    """FrontalLU raises, so _factorize turns to SuperLU, which fails on the
    singular matrix too and names the plan."""
    operator = assemble_operator(build_problem(3, 8, 10, pad=0), "fourth-order")
    A = sp.lil_matrix(operator.matrix)
    A[0] = 0
    operator = dataclasses.replace(operator, matrix=A.tocsr())
    with pytest.raises(RuntimeError, match="exactly singular"):
        FrontalLU(operator.matrix, operator.grid_shape, operator.reach)
    calls = []
    splu = spla.splu
    monkeypatch.setattr(mg.spla, "splu", lambda matrix: calls.append(1) or splu(matrix))
    with pytest.raises(RuntimeError, match="coarsest-level factorization failed"):
        mg._factorize(operator, CyclePlan())
    assert calls == [1]


@pytest.mark.parametrize("dim,intergrid", [(2, choice) for choice in INTERGRID]
                         + [(3, "level-dependent")])
def test_frontal_lu_on_real_coarsest_levels(dim, intergrid):
    problem = build_problem(dim, 64 if dim == 2 else 32, 10, pad=0)
    hier = build_hierarchy(problem, "fourth-order",
                           CyclePlan(alpha=1.014, intergrid=intergrid))
    coarsest = hier.levels[-1].operator
    assert isinstance(hier.coarse_solver, FrontalLU)
    lu = check_factors(coarsest.matrix, coarsest.grid_shape, coarsest.reach)
    assert len(lu.tree) > 1


def test_frontal_lu_on_the_rediscretized_coarsest_level():
    problem = build_problem(2, 56, 10, pad=4)
    coarsest = build_rediscretized_hierarchy(problem, CyclePlan()).levels[-1].operator
    check_factors(coarsest.matrix, coarsest.grid_shape, coarsest.reach)


def subtree_starts(tree):
    starts = []
    for start, _, children in tree:
        starts.append(starts[children[0]] if children else start)
    return starts


@settings(max_examples=40, deadline=None)
@given(dim=st.sampled_from([2, 3]), reach=st.integers(1, 3),
       sides=st.lists(st.integers(1, 16), min_size=3, max_size=3),
       leaf=st.integers(1, 120))
def test_nested_dissection_separates_siblings(dim, reach, sides, leaf):
    shape = tuple(sides[:dim])
    n = math.prod(shape)
    order, tree = nested_dissection(shape, reach, leaf)
    assert sorted(order.tolist()) == list(range(n))
    # the nodes tile the order in postorder, every child before its parent
    assert [node.start for node in tree] == [0] + [node.stop for node in tree[:-1]]
    assert tree[-1].stop == n
    assert all(c < i for i, node in enumerate(tree) for c in node.children)
    position = np.empty(n, dtype=int)
    position[order] = np.arange(n)
    rows, cols = (position[v] for v in box_pattern(shape, reach))
    starts = subtree_starts(tree)
    for node in tree:
        if node.children:
            left, right = node.children
            in_left = (rows >= starts[left]) & (rows < tree[left].stop)
            in_right = (cols >= starts[right]) & (cols < tree[right].stop)
            assert not np.any(in_left & in_right)
