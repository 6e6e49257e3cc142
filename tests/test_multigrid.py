"""Hierarchy construction, transfers, smoothing, and the cycle operator."""

import dataclasses
import math
from functools import lru_cache, reduce

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings, strategies as st

import galerkin_oracle
import rscgc.discretization as disc
import rscgc.multigrid as mg
from rscgc.discretization import (HelmholtzProblem, SparseOperator, _interior_stencil,
                                  assemble_operator, laplacian_and_mass_stencils,
                                  make_model, omega_for_ppw, point_source)
from rscgc.frontal import FrontalLU
from rscgc.krylov import fgmres
from rscgc.multigrid import (
    CyclePlan,
    build_hierarchy,
    build_rediscretized_hierarchy,
    coarse_solve,
    cycle,
    jacobi_smooth,
    transfer_matrices,
)
from rscgc.stencils import INTERGRID, RESTRICTION_WEIGHTS, offsets

from conftest import build_problem, double_cycle
from galerkin_oracle import mass_matrix


# Bound on the relative difference between a single-precision cycle and the
# double one, and on its departure from linearity: float32's unit roundoff
# 2^-24 = 6e-8 times a margin of about 170 for the roundings a cycle chains.
# Measured on 2D 32^2 to 128^2 and 3D 8^3 to 24^3: 3.6e-8 and 5.1e-8.
SINGLE_RTOL = 1e-5


# ---------------------------------------------------------------- transfers

@pytest.mark.parametrize("order", ["cubic", "linear"])
def test_transfers_preserve_constants(order):
    shape = (15, 15)
    R, P = galerkin_oracle.kron_transfers(transfer_matrices(shape, order, order))
    assert R.shape == (7 * 7, 15 * 15) == P.T.shape
    assert np.allclose(R @ np.ones(15 * 15), 1.0, atol=1e-14)
    assert np.allclose(P @ np.ones(7 * 7), 1.0, atol=1e-14)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3]),
       orders=st.sampled_from([("cubic", "cubic"), ("linear", "linear"),
                               ("linear", "cubic")]))
def test_transfers_preserve_constants_on_any_coarsenable_shape(data, dim, orders):
    """R maps ones to ones on every coarse unknown, and P on every fine one,
    those next to the Dirichlet layer included."""
    quarters = st.integers(1, 12 if dim == 2 else 5)
    shape = tuple(4 * data.draw(quarters) - 1 for _ in range(dim))
    R, P = galerkin_oracle.kron_transfers(transfer_matrices(shape, *orders))
    assert R.shape == P.T.shape == (math.prod(mg._halved(shape)), math.prod(shape))
    for matrix in (R, P):
        image = matrix @ np.ones(matrix.shape[1])
        assert np.allclose(image, 1.0, rtol=0.0, atol=1e-14)


def test_prolongation_is_scaled_restriction_transpose_deep_inside():
    """Away from boundary renormalization, P = 2^d R^T."""
    shape = (31, 31)
    R, P = galerkin_oracle.kron_transfers(transfer_matrices(shape, "cubic", "cubic"))
    fine_keep = np.zeros(shape, dtype=bool)
    fine_keep[3:-3, 3:-3] = True
    coarse_keep = np.zeros((15, 15), dtype=bool)
    coarse_keep[1:-1, 1:-1] = True
    P = P[fine_keep.ravel()][:, coarse_keep.ravel()].toarray()
    R = R[coarse_keep.ravel()][:, fine_keep.ravel()].toarray()
    assert np.allclose(P, 4.0 * R.T, atol=1e-14)


def _loop_axis_transfers(n, order):
    """Reference for one axis of n unknowns, entry by entry: the stencil
    weights around fine unknown 2J + 1 for coarse unknown J, each row divided
    by its sum."""
    weights = RESTRICTION_WEIGHTS[order]
    half = len(weights) // 2
    nc = (n - 1) // 2
    R, P = np.zeros((nc, n)), np.zeros((n, nc))
    for J in range(nc):
        for c in range(max(0, 2 * J + 1 - half), min(n - 1, 2 * J + 1 + half) + 1):
            R[J, c] = weights[c - 2 * J - 1 + half]
            P[c, J] = 2.0 * weights[c - 2 * J - 1 + half]
    for matrix in (R, P):
        for row in matrix:
            row /= row.sum()
    return R, P


@pytest.mark.parametrize("orders", [("cubic", "cubic"), ("linear", "linear"),
                                    ("linear", "cubic")])
def test_transfers_match_the_entrywise_reference(orders):
    for shape in ((15,), (19,), (137,), (15, 19)):
        restriction, prolongation = galerkin_oracle.kron_transfers(
            transfer_matrices(shape, *orders))
        R = reduce(np.kron, [_loop_axis_transfers(n, orders[0])[0] for n in shape])
        P = reduce(np.kron, [_loop_axis_transfers(n, orders[1])[1] for n in shape])
        assert np.array_equal(restriction.toarray(), R)
        assert np.array_equal(prolongation.toarray(), P)


@settings(max_examples=20, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3]),
       intergrid=st.sampled_from(tuple(INTERGRID)), seed=st.integers(0, 2**32 - 1))
def test_axis_transfers_match_the_kronecker_oracle(data, dim, intergrid, seed):
    """restrict and prolong, one axis at a time, equal the Kronecker CSR
    products on complex vectors, for both transfer pairs of every intergrid
    choice on any twice-coarsenable shape."""
    quarters = st.integers(2, 12 if dim == 2 else 5)
    shape = tuple(4 * data.draw(quarters) - 1 for _ in range(dim))
    rng = np.random.default_rng(seed)
    for fine_shape, orders in zip((shape, mg._halved(shape)), INTERGRID[intergrid]):
        pair = transfer_matrices(fine_shape, *orders)
        for apply, matrix in zip((pair.restrict, pair.prolong),
                                 galerkin_oracle.kron_transfers(pair)):
            n = matrix.shape[1]
            v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            expected = matrix @ v
            got = apply(v)
            assert got.shape == expected.shape
            assert np.abs(got - expected).max() <= 1e-14 * np.abs(expected).max()


class _KroneckerTransfers:
    """Stands in for a TransferPair, applying the oracle's CSR matrices."""

    def __init__(self, pair):
        self.R, self.P = galerkin_oracle.kron_transfers(pair)

    def restrict(self, v):
        return mg._transfer(self.R, v)

    def prolong(self, v):
        return mg._transfer(self.P, v)


def _kronecker_route(dim, cells, intergrid):
    """A hierarchy, the same hierarchy with the oracle's Kronecker transfers,
    and a random right-hand side."""
    problem = build_problem(dim, cells, 10, pad=4)
    plan = CyclePlan(intergrid=intergrid, alpha=1.014, beta=0.03)
    hier = build_hierarchy(problem, "fourth-order", plan)
    oracle = dataclasses.replace(
        hier, transfers=tuple(map(_KroneckerTransfers, hier.transfers)))
    rng = np.random.default_rng(53)
    n = hier.levels[0].operator.dofs
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return hier, oracle, b


@pytest.mark.parametrize("intergrid", tuple(INTERGRID))
@pytest.mark.parametrize("dim,cells", [(2, 32), (3, 8)])
def test_cycle_matches_the_kronecker_route(dim, cells, intergrid):
    hier, oracle, b = _kronecker_route(dim, cells, intergrid)
    expected = double_cycle(oracle, b)
    assert (np.linalg.norm(double_cycle(hier, b) - expected)
            <= 1e-14 * np.linalg.norm(expected))


@pytest.mark.parametrize("intergrid", tuple(INTERGRID))
@pytest.mark.parametrize("dim,cells", [(2, 32), (3, 8)])
def test_single_cycle_matches_the_kronecker_route(dim, cells, intergrid):
    hier, oracle, b = _kronecker_route(dim, cells, intergrid)
    expected = double_cycle(oracle, b)
    got = cycle(hier, b)
    assert got.dtype == complex and not hier.precision_fallback
    assert np.linalg.norm(got - expected) <= SINGLE_RTOL * np.linalg.norm(expected)


def test_transfer_order_labels():
    problem = build_problem(2, 16, 10, pad=0)
    lev = build_hierarchy(problem, "fourth-order",
                          CyclePlan(intergrid="level-dependent"))
    assert [t.orders for t in lev.transfers] == [("cubic", "cubic"), ("linear", "cubic")]
    bil = build_hierarchy(problem, "fourth-order", CyclePlan(intergrid="bilinear"))
    assert [t.orders for t in bil.transfers] == [("linear", "linear")] * 2


# ---------------------------------------------------------------- hierarchy

def test_coarsest_level_carries_the_real_shift():
    """The alpha hierarchy differs from the plain one by (1-alpha^2) times the
    doubly coarsened mass operator, and only on the coarsest level."""
    problem = build_problem(2, 32, 10, pad=0)
    alpha = 1.014
    plain = build_hierarchy(problem, "fourth-order", CyclePlan())
    shifted = build_hierarchy(problem, "fourth-order", CyclePlan(alpha=alpha))

    for lv in range(2):
        d = (shifted.levels[lv].operator.matrix
             - plain.levels[lv].operator.matrix)
        assert d.nnz == 0 or np.abs(d.data).max() == 0.0

    (R12, P12), (R23, P23) = map(galerkin_oracle.kron_transfers, plain.transfers)
    M = mass_matrix(problem, "fourth-order").matrix
    M3 = R23 @ (R12 @ M @ P12) @ P23
    delta = (shifted.levels[2].operator.matrix
             - plain.levels[2].operator.matrix
             - (1 - alpha ** 2) * M3).tocoo()
    scale = np.abs(plain.levels[2].operator.matrix.data).max()
    residual = np.abs(delta.data).max() if delta.nnz else 0.0
    assert residual <= 1e-12 * scale


# Small problems for the shift-by-linearity checks: a 2D wedge inside a
# sponge, and a 3D cube at 17^3 nodes.
LINEARITY_PROBLEMS = {
    "2d-wedge-sponge": lambda: build_problem(2, 24, 10, kind="wedge",
                                             kappa2=(0.25, 1.0), pad=4),
    "3d": lambda: build_problem(3, 8, 10, pad=4),
}


def _reassembled_levels(problem, alpha, beta, transfers):
    """The fine operator assembled at (alpha, beta), and its single and
    double Galerkin coarsenings: the route that needs one assembly per alpha.
    The fine GridStencil is the oracle's, checked bit for bit against the
    assembly's matrix."""
    t12, t23 = transfers
    fine = galerkin_oracle.assembled_stencil(problem, "fourth-order", alpha, beta)
    matrix = assemble_operator(problem, "fourth-order", alpha=alpha, beta=beta).matrix
    assert _same_bits(fine.tocsr(), matrix)
    mid = mg._coarsen(fine, t12)
    return matrix, mid.tocsr(), mg._coarsen(mid, t23).tocsr()


def _same_bits(a, b):
    return (np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data))


@settings(max_examples=8, deadline=None)
@given(alpha=st.floats(0.9, 1.1), beta=st.sampled_from([0.0, 0.03]),
       intergrid=st.sampled_from(["cubic", "level-dependent"]),
       name=st.sampled_from(sorted(LINEARITY_PROBLEMS)))
def test_coarsest_level_equals_the_reassembled_route(alpha, beta, intergrid, name):
    problem = LINEARITY_PROBLEMS[name]()
    hier = build_hierarchy(problem, "fourth-order",
                           CyclePlan(intergrid=intergrid, alpha=alpha, beta=beta))
    *_, expected = _reassembled_levels(problem, alpha, beta, hier.transfers)
    got = hier.levels[2].operator.matrix
    assert np.array_equal(got.indptr, expected.indptr)
    assert np.array_equal(got.indices, expected.indices)
    scale = np.abs(expected.data).max()
    assert np.abs(got.data - expected.data).max() <= 1e-12 * scale


@pytest.mark.parametrize("alpha", [1.0, 1.014])
def test_one_assembly_and_two_coarsenings(alpha, monkeypatch):
    """The fine operator is assembled once and is bit for bit that of the
    reassembled route; two stencil coarsenings follow, of the mass term and
    of level 2, at every alpha. Levels 2 and 3 have the reassembled route's
    sparsity pattern and lie within 1e-12 of its largest entry: they are
    summed in another order, so they cannot keep its bits."""
    problem = LINEARITY_PROBLEMS["2d-wedge-sponge"]()
    calls, coarsened = [], []
    monkeypatch.setattr(mg, "assemble_operator",
                        lambda *a, **k: calls.append(k) or assemble_operator(*a, **k))
    coarsen = mg._coarsen
    monkeypatch.setattr(mg, "_coarsen", lambda *a: coarsened.append(a) or coarsen(*a))
    hier = build_hierarchy(problem, "fourth-order", CyclePlan(alpha=alpha, beta=0.03))
    assert calls == [{"alpha": 1.0, "beta": 0.03}]
    assert len(coarsened) == 2

    fine, mid, _ = _reassembled_levels(problem, 1.0, 0.03, hier.transfers)
    *_, coarse = _reassembled_levels(problem, alpha, 0.03, hier.transfers)
    levels = [lv.operator.matrix for lv in hier.levels]
    assert _same_bits(levels[0], fine)
    for got, expected in zip(levels[1:], (mid, coarse)):
        assert np.array_equal(got.indptr, expected.indptr)
        assert np.array_equal(got.indices, expected.indices)
        assert np.abs(got.data - expected.data).max() <= 1e-12 * np.abs(expected.data).max()


def test_the_mass_term_is_built_once_per_hierarchy(monkeypatch):
    """build_hierarchy builds the mass term once, to coarsen it; the
    assembly fills its planes without it."""
    calls = []
    mass_term = disc.mass_term
    counted = lambda *a, **k: calls.append(a) or mass_term(*a, **k)
    monkeypatch.setattr(disc, "mass_term", counted)
    monkeypatch.setattr(mg, "mass_term", counted)
    problem = LINEARITY_PROBLEMS["2d-wedge-sponge"]()
    assemble_operator(problem, "fourth-order", alpha=1.014, beta=0.03)
    assert calls == []
    build_hierarchy(problem, "fourth-order", CyclePlan(alpha=1.014, beta=0.03))
    assert len(calls) == 1


@pytest.mark.parametrize("orders", sorted({o for pair in INTERGRID.values() for o in pair}))
@pytest.mark.parametrize("axis_offsets", [(0,), (-1, 0, 1), (-2, -1, 0, 1, 2)])
def test_galerkin_band_matches_the_shift_product_oracle(orders, axis_offsets):
    """Each band entry is one product R[J, i] P[i + o, J + q], so the band
    built from the nonzeros of R and P is exactly the sum of shift products."""
    for n in (17, 21, 33):
        band, qs = mg._galerkin_band(n, *orders, axis_offsets)
        expected, expected_qs = galerkin_oracle.galerkin_band(n, *orders, axis_offsets)
        assert qs == expected_qs
        assert np.array_equal(band.toarray(), expected.toarray())


@settings(max_examples=16, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3]),
       intergrid=st.sampled_from(tuple(INTERGRID)))
def test_laplacian_from_1d_products_matches_its_coarsened_stencil(data, dim, intergrid):
    """The constant Laplacian part coarsened once and twice by per-axis 1D
    Galerkin products has the offsets of _coarsen applied to its fine
    GridStencil and lies within 1e-14 of its largest entry, on any
    coarsenable box and for every intergrid scheme."""
    quarters = st.integers(4, 12 if dim == 2 else 6)
    shape = tuple(4 * data.draw(quarters) + 1 for _ in range(dim))
    weights, _ = laplacian_and_mass_stencils(dim, "fourth-order")
    live = weights.ravel() != 0
    expected = _interior_stencil(shape, offsets(weights.shape)[live], float,
                                 lambda e, colslc: weights.ravel()[live][e])
    shifts = mg._unit_shifts(weights.shape, expected.grid_shape)
    for pair in mg._transfer_pairs(expected.grid_shape, intergrid):
        expected = mg._coarsen(expected, pair)
        shifts = mg._coarsen_shifts(shifts, pair.orders)
        coarse_offsets, planes = zip(*mg._laplacian_planes(weights, shifts))
        assert np.array_equal(np.array(coarse_offsets), expected.offsets)
        scale = np.abs(expected.coeffs).max()
        assert np.abs(np.array(planes) - expected.coeffs).max() <= 1e-14 * scale


def test_each_level_matrix_is_checked_for_finiteness_once(monkeypatch):
    """The fine matrix is checked when it is assembled and the mid and
    coarsest ones when they are built; none is scanned twice, and an
    operator carries its matrix, grid shape and reach, no stencil. Every
    level records its reach, which no operator may leave out."""
    checked = []
    post_init = SparseOperator.__post_init__
    monkeypatch.setattr(SparseOperator, "__post_init__",
                        lambda self: checked.append(self.matrix) or post_init(self))
    hier = build_hierarchy(build_problem(2, 16, 10, pad=0), "fourth-order",
                           CyclePlan(alpha=1.014))
    assert len(checked) == 3
    assert all(a is b.operator.matrix for a, b in zip(checked, hier.levels))
    assert [f.name for f in dataclasses.fields(SparseOperator)] == [
        "matrix", "grid_shape", "reach"]
    assert all(level.operator.reach >= 1 for level in hier.levels)
    with pytest.raises(TypeError):
        SparseOperator(checked[0], hier.levels[0].operator.grid_shape)


@settings(max_examples=12, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3]),
       intergrid=st.sampled_from(tuple(INTERGRID)),
       alpha=st.floats(0.9, 1.1), beta=st.sampled_from([0.0, 0.03]))
def test_stencil_levels_match_the_sparse_oracle(data, dim, intergrid, alpha, beta):
    """A wedge medium inside a sponge on a 2D or 3D box of any coarsenable
    shape: the fine and mass operators are bit for bit those of the COO
    assembly, and each coarse level lies within 1e-12 of its largest entry
    of the sparse triple-product route, for cubic, linear/cubic and linear
    transfers."""
    quarters = st.integers(2, 9 if dim == 2 else 3)
    cells = tuple(4 * data.draw(quarters) for _ in range(dim))
    model = make_model("wedge", (0.25, 1.0), cells, 1.0 / max(cells))
    problem = HelmholtzProblem(model, omega_for_ppw(model, 10.0), pad=4)
    plan = CyclePlan(intergrid=intergrid, alpha=alpha, beta=beta)

    shape = problem.padded_shape
    interior = galerkin_oracle.interior_block
    fine = assemble_operator(problem, "fourth-order", beta=beta).matrix
    assert _same_bits(fine, interior(galerkin_oracle.operator_matrix(
        problem, "fourth-order", beta=beta), shape))
    assert _same_bits(mass_matrix(problem, "fourth-order").matrix, interior(
        galerkin_oracle.mass_operator_matrix(problem, "fourth-order"), shape))

    hier = build_hierarchy(problem, "fourth-order", plan)
    expected = [interior(*level) for level in galerkin_oracle.hierarchy_levels(
        problem, "fourth-order", plan, hier.transfers)]
    assert _same_bits(hier.levels[0].operator.matrix, expected[0])
    for level, oracle in zip(hier.levels[1:], expected[1:]):
        got = level.operator.matrix
        assert got.shape == oracle.shape
        scale = np.abs(oracle.data).max()
        assert abs(got - oracle).max() <= 1e-12 * scale


@pytest.mark.parametrize("intergrid,reach", [("cubic", 3), ("level-dependent", 2),
                                              ("re-disc", 1)])
def test_coarsest_stencil_reach(intergrid, reach):
    """The coarsest operator records the reach of its couplings, by which
    the multifrontal LU factors it: the Galerkin levels' and the 9-point
    re-discretized one's."""
    problem = build_problem(2, 32, 10, pad=0)
    if intergrid == "re-disc":
        hier = build_rediscretized_hierarchy(problem, CyclePlan())
    else:
        hier = build_hierarchy(problem, "fourth-order", CyclePlan(intergrid=intergrid))
    operator = hier.levels[2].operator
    shape = operator.grid_shape
    assert shape == (7, 7)
    center = np.ravel_multi_index((3, 3), shape)
    cols = operator.matrix[center].indices
    offsets = np.abs(np.array(np.unravel_index(cols, shape)).T - (3, 3))
    assert offsets.max() == reach == operator.reach
    assert isinstance(hier.coarse_solver, FrontalLU)


def test_levels_halve_and_spacing_doubles():
    """Level i has spacing 2^i h: in the diffusive limit, applied to x^2
    sampled at that spacing, it gives -d^2/dx^2 x^2 = -2 at the center."""
    model = make_model("homogeneous", (1.0, 1.0), (32, 32), 1.0 / 32)
    hier = build_hierarchy(HelmholtzProblem(model, 1e-3, pad=4), "fourth-order",
                           CyclePlan())
    shapes = [lv.operator.grid_shape for lv in hier.levels]
    assert shapes == [(39, 39), (19, 19), (9, 9)]
    for i, (level, shape) in enumerate(zip(hier.levels, shapes)):
        x = 2 ** i * model.h * np.arange(shape[0])
        u = np.broadcast_to(x[:, None] ** 2, shape).ravel()
        center = (level.operator.matrix @ u).reshape(shape)[shape[0] // 2, shape[1] // 2]
        assert center.real == pytest.approx(-2.0, rel=1e-6)


def test_uncoarsenable_grids_rejected():
    with pytest.raises(ValueError, match="coarsened twice"):
        build_hierarchy(build_problem(2, 18, 10, pad=0), "fourth-order", CyclePlan())
    with pytest.raises(ValueError, match="coarsened twice"):
        build_hierarchy(build_problem(2, 12, 6, pad=0), "fourth-order", CyclePlan())
    for shape, bad in (((2, 2), r"\[2, 2\]"), ((18, 17), r"\[18\]")):
        with pytest.raises(ValueError, match=rf"cannot be halved.*got {bad}"):
            transfer_matrices(shape, "cubic", "cubic")


@pytest.mark.parametrize("bad", [
    {"cycle": "F"},
    {"intergrid": "quadratic"},
    {"nu1": -1},
    {"alpha": 0.0},
    {"beta": -0.01},
    {"dampings": (0.89,)},
    {"dampings": (0.0, 0.89)},
    {"dampings": (0.89, 0.89, 0.89)},
])
def test_cycle_plan_validation(bad):
    with pytest.raises(ValueError):
        CyclePlan(**bad)


@pytest.mark.parametrize("field,value", [
    ("alpha", math.nan),
    ("alpha", math.inf),
    ("beta", math.nan),
    ("dampings", (0.89, math.nan)),
    ("alpha", 1e160),       # its square overflows
])
def test_cycle_plan_rejects_non_finite_values(field, value):
    with pytest.raises(ValueError, match=rf"{field} must be finite.*(nan|inf)"):
        CyclePlan(**{field: value})


# ---------------------------------------------------------------- smoothing

def test_jacobi_matches_dense_update():
    problem = build_problem(2, 16, 10, pad=0)
    hier = build_hierarchy(problem, "fourth-order", CyclePlan())
    level = hier.levels[0]
    rng = np.random.default_rng(7)
    n = level.operator.dofs
    x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    A = level.operator.matrix.toarray()
    expected = x + 0.89 * (b - A @ x) / np.diag(A)
    got = jacobi_smooth(level, x, b, 1)
    assert np.allclose(got, expected, atol=1e-13 * np.abs(expected).max())

    # two sweeps compose, and the input vector is never touched
    x_before = x.copy()
    two = jacobi_smooth(level, x, b, 2)
    assert np.allclose(two, jacobi_smooth(level, got, b, 1), atol=1e-12)
    assert np.array_equal(x, x_before)


def test_jacobi_rejects_bad_sweeps():
    level = build_hierarchy(build_problem(2, 16, 10, pad=0), "fourth-order",
                            CyclePlan()).levels[0]
    b = np.ones(level.operator.dofs, dtype=complex)
    for sweeps, named in ((-1, "nonnegative, got -1"), (2.5, "an integer, got 2.5")):
        for x in (None, b):
            with pytest.raises(ValueError, match=f"sweeps must be {named}"):
                jacobi_smooth(level, x, b, sweeps)


def test_jacobi_fixed_point_is_the_solution():
    problem = build_problem(2, 16, 10, pad=0)
    hier = build_hierarchy(problem, "fourth-order", CyclePlan())
    level = hier.levels[0]
    rng = np.random.default_rng(11)
    b = rng.standard_normal(level.operator.dofs) * 1j
    exact = np.linalg.solve(level.operator.matrix.toarray(), b)
    smoothed = jacobi_smooth(level, exact, b, 3)
    assert np.linalg.norm(smoothed - exact) <= 1e-10 * np.linalg.norm(exact)


def test_jacobi_damping_override():
    problem = build_problem(2, 16, 10, pad=0)
    level = build_hierarchy(problem, "fourth-order", CyclePlan()).levels[0]
    rng = np.random.default_rng(3)
    x = rng.standard_normal(level.operator.dofs).astype(complex)
    b = np.zeros_like(x)
    got = jacobi_smooth(dataclasses.replace(level, damping=0.5), x, b, 1)
    expected = x + 0.5 * level.inverse_diagonal * (b - level.operator.matrix @ x)
    assert np.allclose(got, expected)


# ---------------------------------------------------------------- coarse solve

def test_coarse_solve_zero_and_accuracy():
    problem = build_problem(2, 16, 10, pad=0)
    hier = build_hierarchy(problem, "fourth-order", CyclePlan(alpha=1.014))
    n = hier.levels[2].operator.dofs
    assert not coarse_solve(hier, np.zeros(n)).any()

    rng = np.random.default_rng(5)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    x = coarse_solve(hier, rhs)
    res = np.linalg.norm(rhs - hier.levels[2].operator.matrix @ x)
    assert res <= 1e-10 * np.linalg.norm(rhs)


def test_coarse_solve_keeps_the_largest_residual():
    problem = build_problem(2, 16, 10, pad=0)
    hier = build_hierarchy(problem, "fourth-order", CyclePlan(alpha=1.014))
    assert hier.max_coarse_residual == 0.0
    A3 = hier.levels[2].operator.matrix
    rng = np.random.default_rng(47)
    residuals = []
    for _ in range(3):
        rhs = rng.standard_normal(A3.shape[0]) + 1j * rng.standard_normal(A3.shape[0])
        x = coarse_solve(hier, rhs)
        residuals.append(np.linalg.norm(rhs - A3 @ x) / np.linalg.norm(rhs))
    assert hier.max_coarse_residual == pytest.approx(max(residuals), rel=1e-6)
    assert 0 < hier.max_coarse_residual <= 1e-10


def _stale_coarse_solver(hier):
    """The hierarchy with its coarsest LU taken from a diagonally perturbed
    operator, so every solve misses the 1e-10 residual check."""
    A3 = hier.levels[2].operator.matrix
    shift = 0.01 * np.abs(A3.diagonal()).max()
    stale = spla.splu(sp.csc_matrix(A3 + shift * sp.eye(A3.shape[0])))
    return dataclasses.replace(hier, coarse_solver=stale)


def test_coarse_solve_refactors_with_pivoting_when_the_guard_trips(monkeypatch):
    problem = build_problem(2, 16, 10, pad=0)
    hier = _stale_coarse_solver(
        build_hierarchy(problem, "fourth-order", CyclePlan(alpha=1.014)))
    stale = hier.coarse_solver
    calls = []
    original = mg._factorize

    def factorize(matrix, plan, pivoting=False):
        calls.append(pivoting)
        return original(matrix, plan, pivoting=pivoting)

    monkeypatch.setattr(mg, "_factorize", factorize)
    A3 = hier.levels[2].operator.matrix
    rng = np.random.default_rng(31)
    for _ in range(2):
        rhs = rng.standard_normal(A3.shape[0]) + 1j * rng.standard_normal(A3.shape[0])
        x = coarse_solve(hier, rhs)
        assert np.linalg.norm(rhs - A3 @ x) <= 1e-10 * np.linalg.norm(rhs)
    # one pivoted refactorization, kept for the second solve
    assert calls == [True]
    assert hier.coarse_solver is not stale


def test_coarse_solve_raises_when_the_pivoted_solve_also_fails(monkeypatch):
    problem = build_problem(2, 16, 10, pad=0)
    hier = _stale_coarse_solver(
        build_hierarchy(problem, "fourth-order", CyclePlan(alpha=1.014)))
    monkeypatch.setattr(mg, "_factorize",
                        lambda m, plan, pivoting=False: hier.coarse_solver)
    rhs = np.ones(hier.levels[2].operator.dofs, dtype=complex)
    with pytest.raises(RuntimeError, match="exceeds 1e-10"):
        coarse_solve(hier, rhs)


def _singular_first_block(operator):
    """operator with one row of its first pivot block zeroed inside that
    block. The row keeps its couplings to the separator, so the matrix stays
    invertible while the block is exactly singular."""
    A = operator.matrix.toarray()
    lu = FrontalLU(operator.matrix, operator.grid_shape, operator.reach)
    block = lu.order[lu.tree[0].start:lu.tree[0].stop]
    outside = np.setdiff1d(np.arange(len(A)), block)
    row = next(r for r in block if np.any(A[r, outside]))
    A[row, block] = 0.0
    return dataclasses.replace(operator, matrix=sp.csr_matrix(A))


def test_factorize_falls_back_when_a_pivot_block_is_singular(monkeypatch):
    original = spla.splu
    calls = []

    def splu(matrix, **kwargs):
        calls.append(kwargs)
        return original(matrix, **kwargs)

    monkeypatch.setattr(mg.spla, "splu", splu)
    problem = build_problem(2, 64, 10, pad=0)
    hier = build_hierarchy(problem, "fourth-order", CyclePlan(alpha=1.014))
    assert calls == [] and isinstance(hier.coarse_solver, FrontalLU)

    operator = _singular_first_block(hier.levels[2].operator)
    with pytest.raises(RuntimeError, match="exactly singular"):
        FrontalLU(operator.matrix, operator.grid_shape, operator.reach)
    coarsest = dataclasses.replace(hier.levels[2], operator=operator)
    hier = dataclasses.replace(hier, levels=hier.levels[:2] + (coarsest,),
                               coarse_solver=mg._factorize(operator, hier.plan))
    assert len(calls) == 1 and calls[0] == {}     # plain COLAMD, full pivoting

    A3 = operator.matrix
    rhs = np.random.default_rng(37).standard_normal(A3.shape[0]) + 0j
    x = coarse_solve(hier, rhs)
    assert np.linalg.norm(rhs - A3 @ x) <= 1e-10 * np.linalg.norm(rhs)
    assert len(calls) == 1


# ---------------------------------------------------------------- the cycle

def test_w_cycle_visits_the_coarse_solver_twice(monkeypatch):
    problem = build_problem(2, 16, 10, pad=0)
    calls = []
    original = mg.coarse_solve
    monkeypatch.setattr(mg, "coarse_solve",
                        lambda h, r: calls.append(1) or original(h, r))
    b = point_source(problem).ravel()

    for shape, expected in (("W", 2), ("V", 1)):
        calls.clear()
        hier = build_hierarchy(problem, "fourth-order", CyclePlan(cycle=shape))
        cycle(hier, b)
        assert len(calls) == expected


@pytest.mark.parametrize("shape", ["V", "W"])
@pytest.mark.parametrize("nu1", [0, 1, 2])
def test_zero_first_guess_skips_only_zero_work(shape, nu1):
    """x=None, the cycle's start on both smoothed levels, begins smoothing
    with w D^-1 b; the result is that of an explicit zero start, in either
    precision."""
    problem = build_problem(2, 32, 10, pad=4)
    hier = build_hierarchy(problem, "fourth-order",
                           CyclePlan(cycle=shape, nu1=nu1, alpha=1.014))
    rng = np.random.default_rng(41)
    for level in hier.levels[:2]:
        n = level.operator.dofs
        for dtype in (np.complex128, np.complex64):
            rhs = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(dtype)
            shortcut = jacobi_smooth(level, None, rhs, nu1)
            assert shortcut.dtype == dtype
            assert np.array_equal(shortcut,
                                  jacobi_smooth(level, np.zeros_like(rhs), rhs, nu1))


def test_real_view_transfer_equals_the_complex_product():
    pair = transfer_matrices((33, 33), "cubic", "cubic")
    rng = np.random.default_rng(43)
    for matrix in galerkin_oracle.kron_transfers(pair):
        n = matrix.shape[1]
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.array_equal(mg._transfer(matrix, v), matrix.astype(complex) @ v)


def test_cycle_of_zero_is_zero():
    problem = build_problem(2, 16, 10, pad=0)
    hier = build_hierarchy(problem, "fourth-order", CyclePlan())
    out = cycle(hier, np.zeros(hier.levels[0].operator.dofs))
    assert not out.any()


def test_cycle_is_linear_in_the_right_hand_side():
    problem = build_problem(2, 64, 12, pad=0)
    hier = build_hierarchy(problem, "fourth-order", CyclePlan(alpha=1.0045))
    rng = np.random.default_rng(17)
    n = hier.levels[0].operator.dofs
    b1 = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    b2 = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    combined = double_cycle(hier, b1 + 2j * b2)
    separate = double_cycle(hier, b1) + 2j * double_cycle(hier, b2)
    scale = np.linalg.norm(combined)
    assert np.linalg.norm(combined - separate) <= 1e-12 * scale


@lru_cache(maxsize=None)
def _small_hierarchy(shape, beta, alpha, dim=2):
    problem = build_problem(dim, 32 if dim == 2 else 8, 10, pad=4)
    return build_hierarchy(problem, "fourth-order",
                           CyclePlan(cycle=shape, beta=beta, alpha=alpha))


@settings(max_examples=16, deadline=None)
@given(shape=st.sampled_from(["V", "W"]), beta=st.sampled_from([0.0, 0.03]),
       alpha=st.sampled_from([1.0, 1.014]), seed=st.integers(0, 2**32 - 1),
       scale=st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                allow_infinity=False))
def test_cycle_is_linear_for_every_cycle_shape_and_shift(shape, beta, alpha, seed,
                                                         scale):
    hier = _small_hierarchy(shape, beta, alpha)
    rng = np.random.default_rng(seed)
    n = hier.levels[0].operator.dofs
    b1, b2 = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    x1, x2 = double_cycle(hier, b1), double_cycle(hier, b2)
    combined = double_cycle(hier, b1 + scale * b2)
    size = np.linalg.norm(x1) + abs(scale) * np.linalg.norm(x2)
    assert np.linalg.norm(combined - (x1 + scale * x2)) <= 1e-12 * size


@settings(max_examples=24, deadline=None)
@given(dim=st.sampled_from([2, 3]), shape=st.sampled_from(["V", "W"]),
       beta=st.sampled_from([0.0, 0.03]), alpha=st.sampled_from([1.0, 1.014]),
       seed=st.integers(0, 2**32 - 1),
       scale=st.complex_numbers(max_magnitude=1e3, allow_nan=False,
                                allow_infinity=False))
def test_single_cycle_agrees_with_double_and_is_linear(dim, shape, beta, alpha, seed,
                                                       scale):
    """The single-precision cycle equals the double one of the same
    hierarchy, and is linear, each to float32 rounding."""
    hier = _small_hierarchy(shape, beta, alpha, dim)
    rng = np.random.default_rng(seed)
    n = hier.levels[0].operator.dofs
    b1, b2 = rng.standard_normal((2, n)) + 1j * rng.standard_normal((2, n))
    x1, x2 = cycle(hier, b1), cycle(hier, b2)
    assert x1.dtype == complex
    expected = double_cycle(hier, b1)
    assert np.linalg.norm(x1 - expected) <= SINGLE_RTOL * np.linalg.norm(expected)

    combined = cycle(hier, b1 + scale * b2)
    size = np.linalg.norm(x1) + abs(scale) * np.linalg.norm(x2)
    assert np.linalg.norm(combined - (x1 + scale * x2)) <= SINGLE_RTOL * size
    assert not hier.precision_fallback


def test_cycle_contracts_in_the_diffusive_limit():
    """At negligible wavenumber the problem is a Laplacian, where one W(1,1)
    cycle must shrink any error e substantially: to e - B(A e), for the
    cycle B."""
    from rscgc.discretization import HelmholtzProblem, make_model

    model = make_model("homogeneous", (1.0, 1.0), (32, 32), 1.0 / 32)
    problem = HelmholtzProblem(model, 1e-3, pad=0)
    hier = build_hierarchy(problem, "fourth-order", CyclePlan())
    rng = np.random.default_rng(29)
    v = rng.standard_normal(hier.levels[0].operator.dofs).astype(complex)
    error_after = v - cycle(hier, hier.levels[0].operator.matrix @ v)
    assert np.linalg.norm(error_after) < 0.3 * np.linalg.norm(v)


@pytest.mark.parametrize("build", ["galerkin", "re-disc"])
def test_single_levels_share_the_double_pattern(build):
    """The fine and mid levels carry complex64 values and inverse diagonals
    over the index arrays of the double CSR, which stays the operator; the
    coarsest level carries none."""
    problem = build_problem(2, 32, 10, pad=4)
    plan = CyclePlan(intergrid="bilinear")
    if build == "galerkin":
        hier = build_hierarchy(problem, "fourth-order", plan)
    else:
        hier = build_rediscretized_hierarchy(problem, plan)
    for level in hier.levels[:2]:
        double = level.operator.matrix
        single, invd = level.single
        assert double.dtype == complex
        assert single.dtype == invd.dtype == np.complex64
        assert np.shares_memory(single.indices, double.indices)
        assert np.shares_memory(single.indptr, double.indptr)
        assert np.array_equal(single.data, double.data.astype(np.complex64))
        assert np.array_equal(invd, level.inverse_diagonal.astype(np.complex64))
    assert hier.levels[2].single is None
    for pair in hier.transfers:
        for singles, doubles in zip(pair.single, (pair.restriction, pair.prolongation)):
            assert all(band.dtype == np.float32 for band in singles)
            assert all(np.array_equal(s.toarray(), d.toarray().astype(np.float32))
                       for s, d in zip(singles, doubles))
    assert hier.cycle_precision == "single"


@pytest.mark.parametrize("magnitude", [1e-40, 1e40])
def test_single_cycle_holds_any_magnitude(magnitude):
    """Right-hand sides below or above complex64's range cycle in single
    precision without a fallback, and agree with the double cycle to float32
    rounding."""
    hier = _small_hierarchy("W", 0.0, 1.014)
    rng = np.random.default_rng(61)
    n = hier.levels[0].operator.dofs
    b = magnitude * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    expected = double_cycle(hier, b)
    got = cycle(hier, b)
    assert np.linalg.norm(got - expected) <= SINGLE_RTOL * np.linalg.norm(expected)
    assert not hier.precision_fallback


def test_single_cycle_falls_back_to_double_for_good(monkeypatch):
    """A coarsest solution beyond float32's range overflows the single cycle;
    that call returns the double cycle's output, and every later call
    cycles in double."""
    problem = build_problem(2, 32, 10, pad=4)
    single = build_hierarchy(problem, "fourth-order", CyclePlan(alpha=1.014))
    original = mg.coarse_solve
    largest = float(np.finfo(np.float32).max)
    huge = 1e10 * largest
    dtypes = []

    def overflowing(hierarchy, rhs):
        dtypes.append(rhs.dtype)
        return huge * original(hierarchy, rhs)

    monkeypatch.setattr(mg, "coarse_solve", overflowing)
    rng = np.random.default_rng(59)
    n = single.levels[0].operator.dofs
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    # a non-finite input is no overflow: it goes to the double cycle, whose
    # coarsest solve refuses it, and leaves the hierarchy in single
    for bad_b in (np.where(np.arange(n) == n // 2, np.nan, b),
                  np.full(n, np.inf, dtype=complex)):
        with np.errstate(invalid="ignore"), pytest.raises(FloatingPointError,
                                                          match="not finite"):
            cycle(single, bad_b)
    assert dtypes == [np.complex128] * 2
    assert not single.precision_fallback
    assert single.cycle_precision == "single"
    dtypes.clear()

    expected = double_cycle(single, b)
    assert np.isfinite(expected).all() and np.abs(expected).max() > largest
    got = cycle(single, b)
    assert np.array_equal(got, expected)
    assert single.precision_fallback
    assert single.cycle_precision == "single→double fallback"

    dtypes.clear()
    assert np.array_equal(cycle(single, 2 * b), double_cycle(single, 2 * b))
    assert dtypes == [np.complex128] * 4


def test_coarse_solve_rejects_a_non_finite_rhs_without_refactoring():
    problem = build_problem(2, 16, 10, pad=0)
    hier = build_hierarchy(problem, "fourth-order", CyclePlan())
    solver = hier.coarse_solver
    rhs = np.ones(hier.levels[-1].operator.dofs, dtype=complex)
    rhs[3] = np.inf
    with pytest.raises(FloatingPointError, match="not finite"):
        coarse_solve(hier, rhs)
    assert hier.coarse_solver is solver and hier.max_coarse_residual == 0.0


def test_cycle_and_coarse_solve_reject_a_vector_of_the_wrong_length():
    """A vector over the padded node grid, the Dirichlet layer included, is
    a ValueError that names its length and the level's unknowns."""
    problem = build_problem(2, 16, 10, pad=4)
    hier = build_hierarchy(problem, "fourth-order", CyclePlan())
    fine, coarsest = problem.padded_shape[0], (problem.padded_shape[0] - 1) // 4 + 1
    for apply, level, nodes in ((cycle, hier.levels[0], fine),
                                (coarse_solve, hier.levels[-1], coarsest)):
        unknowns = level.operator.dofs
        assert unknowns == (nodes - 2) ** 2
        for size in (nodes ** 2, unknowns - 1):
            with pytest.raises(ValueError, match=rf"shape \({size},\) does not match "
                                                 rf"the {unknowns} unknowns"):
                apply(hier, np.ones(size, dtype=complex))
    with pytest.raises(ValueError, match=r"shape \(5, 5\) does not match the 25"):
        coarse_solve(hier, np.ones((5, 5), dtype=complex))


# ---------------------------------------------------------------- baseline

def test_rediscretized_baseline_shape_and_transfers():
    problem = build_problem(2, 32, 10, pad=4)
    hier = build_rediscretized_hierarchy(problem, CyclePlan(intergrid="bilinear"))
    assert [lv.operator.grid_shape for lv in hier.levels] == [(39, 39), (19, 19), (9, 9)]
    assert [t.orders for t in hier.transfers] == [("linear", "linear")] * 2
    # level 3 is a compact 9-point discretization, not a wide Galerkin composite
    A3 = hier.levels[2].operator.matrix
    center = np.ravel_multi_index((4, 4), (9, 9))
    cols = A3[center].indices
    offsets = np.abs(np.array(np.unravel_index(cols, (9, 9))).T - (4, 4))
    assert offsets.max() == 1


def test_rediscretized_baseline_guards():
    with pytest.raises(ValueError, match="2D only"):
        build_rediscretized_hierarchy(
            build_problem(3, 24, 10, pad=8), CyclePlan(intergrid="bilinear"))
    with pytest.raises(ValueError, match="pad width 1 must be even"):
        build_rediscretized_hierarchy(
            build_problem(2, 30, 10, pad=1), CyclePlan(intergrid="bilinear"))


@pytest.mark.parametrize("source,free_surface_top", [((16, 10), False), (None, True)])
def test_rediscretized_baseline_takes_any_source(source, free_surface_top):
    """The coarser problems never use the source, so a source index that
    halves to an odd one, such as the default below a free surface (16, 1),
    builds the levels that a source divisible by 4 does."""
    plan = CyclePlan(intergrid="bilinear")
    levels = [build_rediscretized_hierarchy(
        build_problem(2, 32, 12, pad=4, source=s, free_surface_top=free_surface_top),
        plan).levels for s in (source, (16, 8))]
    for built, reference in zip(*levels):
        assert (built.operator.matrix != reference.operator.matrix).nnz == 0


def test_rediscretized_baseline_preconditions_at_moderate_frequency():
    problem = build_problem(2, 128, 16)
    hier = build_rediscretized_hierarchy(problem, CyclePlan(intergrid="bilinear"))
    A = assemble_operator(problem, "fourth-order")
    b = point_source(problem).ravel()
    x, report = fgmres(lambda v: A.matrix @ v, lambda v: cycle(hier, v), b, tol=1e-6)
    assert report.converged and report.iterations <= 12
