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
from rscgc.discretization import SparseOperator, assemble_operator
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


def stencil_operator(shape, reach, seed, decoupled=None):
    """Complex operator of reach `reach` with random heterogeneous
    coefficients and a dominant diagonal on interior rows, and identity rows
    on the boundary.

    decoupled=None keeps the interior rows' couplings to boundary nodes, so
    the pattern is not symmetric. "shell" drops them, so the whole boundary
    is decoupled, as the Dirichlet nodes of the library's operators are;
    "free-top" also makes the rows of the first face along axis 0 interior
    ones, so that face of the shell is coupled both ways.
    """
    rng = np.random.default_rng(seed)
    n = math.prod(shape)
    rows, cols = box_pattern(shape, reach)
    coords = np.indices(shape).reshape(len(shape), -1)
    first = np.zeros((len(shape), 1), dtype=int)
    first[0] -= decoupled == "free-top"
    interior = ((coords > first) & (coords < np.array(shape)[:, None] - 1)).all(axis=0)
    keep = interior[rows] & (rows != cols)
    if decoupled:
        keep &= interior[cols]
    rows, cols = rows[keep], cols[keep]
    vals = rng.standard_normal(len(rows)) + 1j * rng.standard_normal(len(rows))
    A = sp.csr_matrix((vals, (rows, cols)), shape=(n, n))
    weight = np.abs(A).sum(axis=1).A1 + 1
    phase = np.exp(2j * np.pi * rng.random(n))
    return A + sp.diags(np.where(interior, weight * phase, 1.0))


def perm_r(lu):
    """The rows of A in the order of the rows of L U: the elimination order
    after each front's row pivoting."""
    return lu.order[lu._row_positions()]


def check_factors(A, shape, reach):
    """L U reproduces the permuted matrix, fill counts their entries, solve
    agrees with splu, and the fronts pivot exactly the interior box."""
    A = sp.csr_matrix(A)
    lu = FrontalLU(A, shape, reach)
    scale = abs(A).max()
    gap = abs(lu.L @ lu.U - A[perm_r(lu)][:, lu.order]).max()
    assert gap <= 1e-12 * scale
    assert lu.fill == lu.L.nnz + lu.U.nnz
    interior = np.zeros(shape, dtype=bool)
    interior[(slice(1, -1),) * len(shape)] = True
    assert sorted(lu.order[:lu.tree[-1].stop].tolist()) == np.flatnonzero(interior).tolist()
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
        lu = check_factors(stencil_operator(shape, reach, seed, "shell"), shape, reach)
    assert sorted(perm_r(lu).tolist()) == list(range(math.prod(shape)))


@pytest.mark.parametrize("decoupled", [None, "free-top"])
@pytest.mark.parametrize("shape", [(27, 21), (9, 11, 10)])
def test_coarse_solve_refactors_an_operator_whose_shell_is_coupled(shape, decoupled,
                                                                   monkeypatch):
    """The interior box leaves the couplings to the shell out of the fronts,
    so its solve misses the 1e-10 check; coarse_solve refactors once with
    SuperLU, which then meets it."""
    A = stencil_operator(shape, 2, 5, decoupled).tocsr()
    operator = SparseOperator(A, shape, 2)
    hier = mg.MultigridHierarchy((mg._make_level(operator, None),), (),
                                 FrontalLU(A, shape, 2), CyclePlan())
    b = np.random.default_rng(11).standard_normal(A.shape[0]) + 0j
    assert np.linalg.norm(b - A @ hier.coarse_solver.solve(b)) > 1e-3 * np.linalg.norm(b)
    calls = []
    factorize = mg._factorize
    monkeypatch.setattr(mg, "_factorize", lambda operator, plan, pivoting=False:
                        calls.append(pivoting) or factorize(operator, plan, pivoting))
    for _ in range(2):
        x = mg.coarse_solve(hier, b)
        assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)
    assert calls == [True]
    assert not isinstance(hier.coarse_solver, FrontalLU)


def test_a_zero_diagonal_outside_the_box_is_a_singular_pivot(monkeypatch):
    """FrontalLU raises, so _factorize turns to SuperLU, which fails on the
    singular matrix too and names the plan."""
    operator = assemble_operator(build_problem(3, 8, 10, pad=0), "fourth-order")
    A = sp.lil_matrix(operator.matrix)
    A[0, 0] = 0
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
