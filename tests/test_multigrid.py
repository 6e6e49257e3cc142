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
import rscgc.multigrid as mg
from rscgc.discretization import (HelmholtzProblem, assemble_operator, make_model,
                                  mass_matrix, omega_for_ppw, point_source)
from rscgc.krylov import fgmres
from rscgc.multigrid import (
    INTERGRID_CHOICES,
    CyclePlan,
    build_hierarchy,
    build_rediscretized_hierarchy,
    coarse_solve,
    cycle,
    jacobi_smooth,
    transfer_matrices,
)
from rscgc.stencils import restriction_stencil

from conftest import build_problem


def interior_mask(shape):
    mask = np.ones(shape, dtype=bool)
    for ax in range(len(shape)):
        sl = [slice(None)] * len(shape)
        sl[ax] = 0
        mask[tuple(sl)] = False
        sl[ax] = shape[ax] - 1
        mask[tuple(sl)] = False
    return mask.ravel()


# ---------------------------------------------------------------- transfers

@pytest.mark.parametrize("order", ["cubic", "linear"])
def test_transfers_preserve_constants(order):
    shape = (17, 17)
    pair = transfer_matrices(shape, order, order)
    coarse_shape = (9, 9)

    restricted = pair.restriction @ np.ones(17 * 17)
    keep = interior_mask(coarse_shape)
    assert np.allclose(restricted[keep], 1.0, atol=1e-14)
    assert np.allclose(restricted[~keep], 0.0)

    prolonged = pair.prolongation @ np.ones(9 * 9)
    keep = interior_mask(shape)
    assert np.allclose(prolonged[keep], 1.0, atol=1e-14)
    assert np.allclose(prolonged[~keep], 0.0)


@settings(max_examples=30, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3]),
       orders=st.sampled_from([("cubic", "cubic"), ("linear", "linear"),
                               ("linear", "cubic")]))
def test_transfers_preserve_constants_on_any_coarsenable_shape(data, dim, orders):
    """R maps ones to ones on the interior coarse nodes, P on the interior
    fine nodes, and both give zero on the Dirichlet boundary."""
    quarters = st.integers(1, 12 if dim == 2 else 5)
    shape = tuple(4 * data.draw(quarters) + 1 for _ in range(dim))
    coarse_shape = tuple((n - 1) // 2 + 1 for n in shape)
    pair = transfer_matrices(shape, *orders)
    for matrix, out_shape in ((pair.restriction, coarse_shape),
                              (pair.prolongation, shape)):
        image = matrix @ np.ones(matrix.shape[1])
        keep = interior_mask(out_shape)
        assert np.allclose(image[keep], 1.0, rtol=0.0, atol=1e-14)
        assert not image[~keep].any()


def test_prolongation_is_scaled_restriction_transpose_deep_inside():
    """Away from boundary renormalization, P = 2^d R^T."""
    shape = (33, 33)
    pair = transfer_matrices(shape, "cubic", "cubic")
    fine_keep = np.zeros(shape, dtype=bool)
    fine_keep[4:-4, 4:-4] = True
    coarse_keep = np.zeros((17, 17), dtype=bool)
    coarse_keep[2:-2, 2:-2] = True
    P = pair.prolongation[fine_keep.ravel()][:, coarse_keep.ravel()].toarray()
    R = pair.restriction[coarse_keep.ravel()][:, fine_keep.ravel()].toarray()
    assert np.allclose(P, 4.0 * R.T, atol=1e-14)


def _loop_axis_transfers(n, order):
    """Reference for one axis of the transfers, entry by entry: the stencil
    weights on interior nodes, each nonempty row divided by its sum."""
    weights = restriction_stencil(1, order).coeffs.real.ravel()
    half = len(weights) // 2
    nc = (n - 1) // 2 + 1
    R, P = np.zeros((nc, n)), np.zeros((n, nc))
    for J in range(1, nc - 1):
        for c in range(max(1, 2 * J - half), min(n - 2, 2 * J + half) + 1):
            R[J, c] = weights[c - 2 * J + half]
            P[c, J] = 2.0 * weights[c - 2 * J + half]
    for matrix in (R, P):
        for row in matrix:
            if row.any():
                row /= row.sum()
    return R, P


@pytest.mark.parametrize("orders", [("cubic", "cubic"), ("linear", "linear"),
                                    ("linear", "cubic")])
def test_transfers_match_the_entrywise_reference(orders):
    for shape in ((17,), (21,), (139,), (17, 21)):
        pair = transfer_matrices(shape, *orders)
        R = reduce(np.kron, [_loop_axis_transfers(n, orders[0])[0] for n in shape])
        P = reduce(np.kron, [_loop_axis_transfers(n, orders[1])[1] for n in shape])
        assert np.array_equal(pair.restriction.toarray(), R)
        assert np.array_equal(pair.prolongation.toarray(), P)


def test_transfer_order_labels():
    problem = build_problem(2, 16, 10, pad=0)
    lev = build_hierarchy(problem, "fourth-order",
                          CyclePlan(intergrid="level-dependent"))
    assert lev.transfers[0].order == "cubic"
    assert lev.transfers[1].order == "linear/cubic"
    bil = build_hierarchy(problem, "fourth-order", CyclePlan(intergrid="bilinear"))
    assert all(t.order == "linear" for t in bil.transfers)


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

    t12, t23 = plain.transfers
    M = mass_matrix(problem, "fourth-order").matrix
    M3 = t23.restriction @ (t12.restriction @ M @ t12.prolongation) @ t23.prolongation
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
    double Galerkin coarsenings: the route that needs one assembly per alpha."""
    t12, t23 = transfers
    fine = assemble_operator(problem, "fourth-order", alpha=alpha, beta=beta)
    mid = mg._coarsen(fine.stencil, t12)
    return fine.matrix, mid.tocsr(), mg._coarsen(mid, t23).tocsr()


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
def test_one_assembly_and_bitwise_levels(alpha, monkeypatch):
    """Levels 1 and 2, and level 3 at alpha = 1, are bit for bit those of the
    reassembled route, the fine operator is assembled once, and the mass
    operator only when the shift is nonzero."""
    problem = LINEARITY_PROBLEMS["2d-wedge-sponge"]()
    calls, mass_calls = [], []
    monkeypatch.setattr(mg, "assemble_operator",
                        lambda *a, **k: calls.append(k) or assemble_operator(*a, **k))
    monkeypatch.setattr(mg, "mass_matrix",
                        lambda *a: mass_calls.append(a) or mass_matrix(*a))
    hier = build_hierarchy(problem, "fourth-order", CyclePlan(alpha=alpha, beta=0.03))
    assert calls == [{"alpha": 1.0, "beta": 0.03}]
    assert len(mass_calls) == (alpha != 1.0)

    fine, mid, coarse = _reassembled_levels(problem, 1.0, 0.03, hier.transfers)
    levels = [lv.operator.matrix for lv in hier.levels]
    assert _same_bits(levels[0], fine) and _same_bits(levels[1], mid)
    if alpha == 1.0:
        assert _same_bits(levels[2], coarse)


@settings(max_examples=12, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3]),
       intergrid=st.sampled_from(INTERGRID_CHOICES),
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

    fine = assemble_operator(problem, "fourth-order", beta=beta).matrix
    assert _same_bits(fine, galerkin_oracle.operator_matrix(problem, "fourth-order",
                                                            beta=beta))
    assert _same_bits(mass_matrix(problem, "fourth-order").matrix,
                      galerkin_oracle.mass_operator_matrix(problem, "fourth-order"))

    hier = build_hierarchy(problem, "fourth-order", plan)
    expected = galerkin_oracle.hierarchy_levels(problem, "fourth-order", plan,
                                                hier.transfers)
    assert _same_bits(hier.levels[0].operator.matrix, expected[0])
    for level, oracle in zip(hier.levels[1:], expected[1:]):
        got = level.operator.matrix
        assert got.shape == oracle.shape
        scale = np.abs(oracle.data).max()
        assert abs(got - oracle).max() <= 1e-12 * scale


@pytest.mark.parametrize("intergrid,reach", [("cubic", 3), ("level-dependent", 2)])
def test_coarsest_stencil_reach(intergrid, reach):
    problem = build_problem(2, 32, 10, pad=0)
    hier = build_hierarchy(problem, "fourth-order", CyclePlan(intergrid=intergrid))
    shape = hier.levels[2].operator.grid_shape
    assert shape == (9, 9)
    A3 = hier.levels[2].operator.matrix
    center = np.ravel_multi_index((4, 4), shape)
    cols = A3[center].indices
    offsets = np.abs(np.array(np.unravel_index(cols, shape)).T - (4, 4))
    assert offsets.max() == reach


def test_levels_halve_and_spacing_doubles():
    problem = build_problem(2, 32, 10, pad=4)
    hier = build_hierarchy(problem, "fourth-order", CyclePlan())
    shapes = [lv.operator.grid_shape for lv in hier.levels]
    assert shapes == [(41, 41), (21, 21), (11, 11)]
    hs = [lv.operator.h for lv in hier.levels]
    assert hs[1] == pytest.approx(2 * hs[0]) and hs[2] == pytest.approx(4 * hs[0])


def test_uncoarsenable_grids_rejected():
    with pytest.raises(ValueError, match="coarsened twice"):
        build_hierarchy(build_problem(2, 18, 10, pad=0), "fourth-order", CyclePlan())
    with pytest.raises(ValueError, match="coarsened twice"):
        build_hierarchy(build_problem(2, 12, 6, pad=0), "fourth-order", CyclePlan())


@pytest.mark.parametrize("bad", [
    {"cycle": "F"},
    {"intergrid": "quadratic"},
    {"nu1": -1},
    {"alpha": 0.0},
    {"beta": -0.01},
    {"dampings": (0.89,)},
    {"dampings": (0.0, 0.89)},
])
def test_cycle_plan_validation(bad):
    with pytest.raises(ValueError):
        CyclePlan(**bad)


@pytest.mark.parametrize("field,value", [
    ("alpha", math.nan),
    ("alpha", math.inf),
    ("beta", math.nan),
    ("dampings", (0.89, math.nan)),
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
    got = jacobi_smooth(level, x, b, 1, damping=0.5)
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


def test_factorize_falls_back_when_symmetric_mode_raises(monkeypatch):
    original = spla.splu
    calls = []

    def splu(matrix, **kwargs):
        calls.append(kwargs)
        if kwargs.get("options", {}).get("SymmetricMode"):
            raise RuntimeError("Factor is exactly singular")
        return original(matrix, **kwargs)

    monkeypatch.setattr(mg.spla, "splu", splu)
    problem = build_problem(2, 16, 10, pad=0)
    hier = build_hierarchy(problem, "fourth-order", CyclePlan(alpha=1.014))
    assert len(calls) == 2 and calls[1] == {}     # plain COLAMD, full pivoting

    A3 = hier.levels[2].operator.matrix
    rhs = np.random.default_rng(37).standard_normal(A3.shape[0]) + 0j
    x = coarse_solve(hier, rhs)
    assert np.linalg.norm(rhs - A3 @ x) <= 1e-10 * np.linalg.norm(rhs)
    assert len(calls) == 2


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
    """x0=None starts smoothing from w D^-1 b; the result is that of an
    explicit zero start."""
    problem = build_problem(2, 32, 10, pad=4)
    hier = build_hierarchy(problem, "fourth-order",
                           CyclePlan(cycle=shape, nu1=nu1, alpha=1.014))
    rng = np.random.default_rng(41)
    n = hier.levels[0].operator.dofs
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    shortcut = cycle(hier, b)
    explicit = cycle(hier, b, x0=np.zeros_like(b))
    assert np.linalg.norm(shortcut - explicit) <= 1e-14 * np.linalg.norm(explicit)

    for level in hier.levels[:2]:
        rhs = rng.standard_normal(level.operator.dofs) + 0j
        assert np.array_equal(jacobi_smooth(level, None, rhs, nu1),
                              jacobi_smooth(level, np.zeros_like(rhs), rhs, nu1))


def test_real_view_transfer_equals_the_complex_product():
    pair = transfer_matrices((33, 33), "cubic", "cubic")
    rng = np.random.default_rng(43)
    for matrix in (pair.restriction, pair.prolongation):
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

    combined = cycle(hier, b1 + 2j * b2)
    separate = cycle(hier, b1) + 2j * cycle(hier, b2)
    scale = np.linalg.norm(combined)
    assert np.linalg.norm(combined - separate) <= 1e-12 * scale


@lru_cache(maxsize=None)
def _small_hierarchy(shape, beta, alpha):
    problem = build_problem(2, 32, 10, pad=4)
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
    x1, x2 = cycle(hier, b1), cycle(hier, b2)
    combined = cycle(hier, b1 + scale * b2)
    size = np.linalg.norm(x1) + abs(scale) * np.linalg.norm(x2)
    assert np.linalg.norm(combined - (x1 + scale * x2)) <= 1e-12 * size


def test_cycle_decomposes_into_rhs_and_error_parts():
    """cycle(b, x0) = cycle(b, 0) + cycle(0, x0): affine in the start vector."""
    problem = build_problem(2, 32, 10, pad=0)
    hier = build_hierarchy(problem, "fourth-order", CyclePlan())
    rng = np.random.default_rng(23)
    n = hier.levels[0].operator.dofs
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    v = rng.standard_normal(n) + 1j * rng.standard_normal(n)

    full = cycle(hier, b, x0=v)
    split = cycle(hier, b) + cycle(hier, np.zeros(n), x0=v)
    assert np.linalg.norm(full - split) <= 1e-12 * np.linalg.norm(full)


def test_cycle_contracts_in_the_diffusive_limit():
    """At negligible wavenumber the problem is a Laplacian, where one W(1,1)
    cycle must shrink any error substantially."""
    from rscgc.discretization import HelmholtzProblem, make_model

    model = make_model("homogeneous", (1.0, 1.0), (32, 32), 1.0 / 32)
    problem = HelmholtzProblem(model, 1e-3, pad=0)
    hier = build_hierarchy(problem, "fourth-order", CyclePlan())
    rng = np.random.default_rng(29)
    v = rng.standard_normal(hier.levels[0].operator.dofs).astype(complex)
    error_after = cycle(hier, np.zeros_like(v), x0=v)
    assert np.linalg.norm(error_after) < 0.3 * np.linalg.norm(v)


# ---------------------------------------------------------------- baseline

def test_rediscretized_baseline_shape_and_transfers():
    problem = build_problem(2, 32, 10, pad=4)
    hier = build_rediscretized_hierarchy(problem, CyclePlan(intergrid="bilinear"))
    assert [lv.operator.grid_shape for lv in hier.levels] == [(41, 41), (21, 21), (11, 11)]
    assert all(t.order == "linear" for t in hier.transfers)
    # level 3 is a compact 9-point discretization, not a wide Galerkin composite
    A3 = hier.levels[2].operator.matrix
    center = np.ravel_multi_index((5, 5), (11, 11))
    cols = A3[center].indices
    offsets = np.abs(np.array(np.unravel_index(cols, (11, 11))).T - (5, 5))
    assert offsets.max() == 1


def test_rediscretized_baseline_guards():
    with pytest.raises(ValueError, match="2D only"):
        build_rediscretized_hierarchy(
            build_problem(3, 24, 10, pad=8), CyclePlan(intergrid="bilinear"))
    # pad=0 leaves the default source at an odd depth index
    with pytest.raises(ValueError, match="must be even"):
        build_rediscretized_hierarchy(
            build_problem(2, 32, 10, pad=0), CyclePlan(intergrid="bilinear"))


def test_rediscretized_baseline_preconditions_at_moderate_frequency():
    problem = build_problem(2, 128, 16)
    hier = build_rediscretized_hierarchy(problem, CyclePlan(intergrid="bilinear"))
    A = assemble_operator(problem, "fourth-order")
    b = point_source(problem).ravel()
    x, report = fgmres(lambda v: A.matrix @ v, lambda v: cycle(hier, v), b, tol=1e-6)
    assert report.converged and report.iterations <= 12
