"""Assembly, media, sponge profile, and source placement."""

import json
import math
import re
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from rscgc.discretization import (
    REDISC_SCHEME,
    GridStencil,
    HelmholtzProblem,
    SlownessModel,
    SparseOperator,
    _interior_stencil,
    assemble_operator,
    attenuation_profile,
    laplacian_and_mass_stencils,
    load_model,
    make_model,
    mass_term,
    omega_for_ppw,
    point_source,
)
from rscgc.dispersion import AnalysisConfig
from rscgc.multigrid import CyclePlan

from conftest import build_problem, structurally_symmetric
from galerkin_oracle import mass_matrix


# ---------------------------------------------------------------- stencil pairs

def test_fourth_order_2d_values():
    """Bit for bit the literal pair: the Laplacian in sixths, the mass in
    twelfths."""
    lap, mass = laplacian_and_mass_stencils(2, "fourth-order")
    assert np.array_equal(lap, np.array([
        [-1.0, -4.0, -1.0],
        [-4.0, 20.0, -4.0],
        [-1.0, -4.0, -1.0],
    ]) / 6.0)
    assert np.array_equal(mass, np.array([
        [0.0, 1.0, 0.0],
        [1.0, 8.0, 1.0],
        [0.0, 1.0, 0.0],
    ]) / 12.0)


def test_fourth_order_3d_values():
    """Bit for bit the per-count weights, -2/6 included, which rounds to the
    double of -1/3."""
    lap, mass = laplacian_and_mass_stencils(3, "fourth-order")
    assert lap.shape == mass.shape == (3, 3, 3)
    # classify by how many offsets leave the center
    expected = {0: (4.0, 6.0 / 12.0), 1: (-1.0 / 3.0, 1.0 / 12.0), 2: (-1.0 / 6.0, 0.0),
                3: (0.0, 0.0)}
    for off in np.ndindex(3, 3, 3):
        nz = sum(1 for o in off if o != 1)
        assert (lap[off], mass[off]) == expected[nz]


@pytest.mark.parametrize("dim,scheme", [
    (2, "fourth-order"),
    (3, "fourth-order"),
    (2, REDISC_SCHEME),
])
def test_pair_invariants(dim, scheme):
    """Every scheme annihilates constants in L and averages to one in M, and
    its two stencils are real arrays that share their extents."""
    lap, mass = laplacian_and_mass_stencils(dim, scheme)
    assert lap.dtype == mass.dtype == np.float64
    assert abs(lap.sum()) < 1e-12
    assert mass.sum() == pytest.approx(1.0, abs=1e-12)
    assert all(np.array_equal(s, np.flip(s)) for s in (lap, mass))
    assert lap.shape == mass.shape


def test_jss_parameter_placement():
    """The re-discretized coarsest pair places the weights of its name."""
    a, b, c = 0.6054, 1.0532, 0.0002
    assert REDISC_SCHEME == f"jss({a},{b},{c})"
    lap, mass = laplacian_and_mass_stencils(2, REDISC_SCHEME)
    assert lap[1, 1] == pytest.approx(2 * a + 2)
    assert lap[0, 1] == pytest.approx(-a)
    assert mass[1, 1] == pytest.approx(b)
    assert mass[0, 1] == pytest.approx(c / 4)
    assert mass[0, 0] == pytest.approx((1 - b - c) / 4)


def test_jss_rejected_outside_2d():
    with pytest.raises(ValueError, match="2D only"):
        laplacian_and_mass_stencils(3, REDISC_SCHEME)


def test_unknown_scheme_rejected():
    # no second-order scheme, and no jss weights but the fixed pair's
    for scheme in ("sixth-order", "second-order", "jss(0.6,1.0,0.0)", "Fourth-Order"):
        with pytest.raises(ValueError, match="unknown scheme"):
            laplacian_and_mass_stencils(2, scheme)


# ---------------------------------------------------------------- assembly

def test_interior_row_matches_stencil():
    """Constant medium, no padding: each interior row is the stencil itself."""
    problem = build_problem(2, 8, 10, pad=0)
    lap, mass = laplacian_and_mass_stencils(2, "fourth-order")
    A = assemble_operator(problem, "fourth-order")
    h = problem.model.h
    expected = lap / h ** 2 - problem.omega ** 2 * mass

    shape = A.grid_shape
    row = A.matrix[np.ravel_multi_index((3, 3), shape)].toarray().reshape(shape)
    window = row[2:5, 2:5]
    assert np.allclose(window, expected, rtol=0, atol=1e-10)
    row[2:5, 2:5] = 0
    assert not row.any()


def test_unknowns_are_the_nodes_inside_the_dirichlet_layer():
    """The operator's grid is the padded node grid less its outermost layer,
    and a corner unknown couples only to the unknowns its stencil reaches,
    as the nodes inside: the stencil's entries there, none wrapped around."""
    problem = build_problem(2, 8, 10, pad=0)
    A = assemble_operator(problem, "fourth-order")
    assert problem.padded_shape == (9, 9) and A.grid_shape == (7, 7)
    lap, mass = laplacian_and_mass_stencils(2, "fourth-order")
    expected = lap / problem.model.h ** 2 - problem.omega ** 2 * mass
    for corner, window in (((0, 0), np.s_[1:, 1:]), ((6, 6), np.s_[:2, :2])):
        row = A.matrix[np.ravel_multi_index(corner, A.grid_shape)]
        assert row.nnz == 4
        near = row.toarray().reshape(A.grid_shape)[tuple(slice(max(0, c - 1), c + 2)
                                                         for c in corner)]
        assert np.allclose(near, expected[window], rtol=0, atol=1e-10)


def test_assembled_pattern_structurally_symmetric():
    problem = build_problem(2, 32, 10, kind="wedge", kappa2=(0.25, 1.0), pad=6)
    A = assemble_operator(problem, "fourth-order", alpha=1.01, beta=0.05)
    assert structurally_symmetric(A.matrix)


def test_grid_stencil_csr_drops_zeros_and_writes_no_boundary_rows():
    """A 5-point stencil over the 4 x 5 unknowns of a 6 x 7 node grid: every
    row holds the offsets whose column stays in the grid, none wraps to the
    next line, and an exact zero is dropped."""
    offsets = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    stencil = _interior_stencil((6, 7), offsets, float, lambda e, colslc: e + 1.0)
    assert stencil.grid_shape == (4, 5)
    stencil.coeffs[0, 2, 2] = 0.0
    matrix = stencil.tocsr()
    dense = matrix.toarray()
    row = np.ravel_multi_index((1, 2), (4, 5))
    assert dense[row, row - 5] == 1.0 and dense[row, row + 1] == 4.0
    # 20 diagonal entries, 2 x 15 along the first axis, 2 x 16 along the
    # second, less the one exact zero
    assert matrix.nnz == 20 + 30 + 32 - 1
    assert np.array_equal(np.diag(dense), np.full(20, 3.0))
    assert dense[np.ravel_multi_index((1, 4), (4, 5)), np.ravel_multi_index((2, 0), (4, 5))] == 0
    assert matrix.has_sorted_indices


def test_grid_stencil_needs_sorted_offsets_that_fit():
    with pytest.raises(ValueError, match="lexicographic"):
        GridStencil([(0, 1), (0, -1)], np.zeros((2, 4, 4)))
    with pytest.raises(ValueError, match="do not fit"):
        GridStencil([(0, 0)], np.zeros((2, 4, 4)))


def test_structural_symmetry_detects_one_sided_coupling():
    m = np.eye(4)
    m[0, 1] = 3.0
    import scipy.sparse as sp
    assert not structurally_symmetric(sp.csr_matrix(m))


def test_shift_identity_on_heterogeneous_medium():
    """assemble(alpha, beta) - assemble(1, 0) is ((1-alpha^2) - i beta) k^2 M.

    The sponge profile enters both operators identically, so it must cancel
    entrywise no matter how rough the medium is.
    """
    problem = build_problem(2, 16, 10, kind="wedge", kappa2=(0.1, 1.0), pad=6)
    alpha, beta = 1.014, 0.05
    A_shift = assemble_operator(problem, "fourth-order", alpha=alpha, beta=beta)
    A_plain = assemble_operator(problem, "fourth-order")
    M = mass_matrix(problem, "fourth-order")
    delta = (A_shift.matrix - A_plain.matrix
             - ((1 - alpha ** 2) - 1j * beta) * M.matrix).tocoo()
    scale = np.abs(M.matrix.data).max()
    residual = np.abs(delta.data).max() if delta.nnz else 0.0
    assert residual <= 1e-13 * scale


def test_complex_shift_enters_the_diagonal():
    problem = build_problem(2, 8, 10, pad=0)
    beta = 0.3
    A = assemble_operator(problem, "fourth-order", beta=beta)
    diag = A.matrix.diagonal()
    # mass center weight is 8/12 for this scheme
    expected = -beta * problem.omega ** 2 * (8.0 / 12.0)
    assert np.allclose(diag.imag, expected, rtol=1e-12)


def test_sponge_makes_imaginary_diagonal_negative():
    problem = build_problem(2, 16, 10, pad=6)
    A = assemble_operator(problem, "fourth-order")
    diag = A.matrix.diagonal().reshape(A.grid_shape)
    gamma = attenuation_profile(problem)
    damped = gamma[1:-1, 1:-1] > 0
    assert np.all(diag.imag[damped] < 0)
    assert np.allclose(diag.imag[~damped], 0.0)


def test_mass_term_samples_the_neighbor_node():
    """Heterogeneous k^2 is read at the column's node, not the row's."""
    cells, h = 8, 1.0 / 8.0
    z = np.arange(cells + 1)
    kappa2 = np.broadcast_to(1.0 + 0.05 * z, (cells + 1, cells + 1)).copy()
    model = SlownessModel(2, (cells, cells), h, kappa2)
    problem = HelmholtzProblem(model, 1.0, pad=0)
    A = assemble_operator(problem, "fourth-order")

    # the nodes (4, 4) and (4, 5), inside the Dirichlet layer
    r = np.ravel_multi_index((3, 3), A.grid_shape)
    c = np.ravel_multi_index((3, 4), A.grid_shape)
    lap, mass = laplacian_and_mass_stencils(2, "fourth-order")
    with_neighbor = lap[1, 2] / h ** 2 - kappa2[4, 5] * mass[1, 2]
    with_center = lap[1, 2] / h ** 2 - kappa2[4, 4] * mass[1, 2]
    assert abs(A.matrix[r, c] - with_neighbor) < 1e-12
    assert abs(A.matrix[r, c] - with_center) > 1e-4


def test_mass_matrix_is_real_over_the_unknowns():
    problem = build_problem(2, 8, 10, pad=4)
    M = mass_matrix(problem, "fourth-order")
    assert M.matrix.dtype == np.float64
    assert M.grid_shape == (15, 15)
    assert np.all(np.diff(M.matrix.indptr) > 0)


def test_invalid_shift_arguments():
    """assemble_operator rejects a bad alpha; it and mass_term, which takes
    no alpha, reject the same betas and name an overflowing mass coefficient
    before any arithmetic warns."""
    problem = build_problem(2, 8, 10, pad=0)
    with pytest.raises(ValueError, match="alpha"):
        assemble_operator(problem, "fourth-order", alpha=0.0)
    for value in (math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"alpha must be finite.*{value}"):
            assemble_operator(problem, "fourth-order", alpha=value)
    with pytest.raises(ValueError,
                       match=r"alpha must be finite when squared; got 1e\+160"):
        assemble_operator(problem, "fourth-order", alpha=1e160)
    for build in (assemble_operator, mass_term):
        with pytest.raises(ValueError, match="beta"):
            build(problem, "fourth-order", beta=-0.1)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"beta must be finite.*{value}"):
                build(problem, "fourth-order", beta=value)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"overflows for alpha = 1.0, beta = 1e\+308"):
                build(problem, "fourth-order", beta=1e308)


# ---------------------------------------------------------------- sponge profile

def test_attenuation_zero_without_padding():
    problem = build_problem(2, 8, 10, pad=0)
    assert not attenuation_profile(problem).any()


def test_attenuation_quadratic_ramp():
    problem = build_problem(2, 16, 10, pad=5, gamma_max=1.0)
    gamma = attenuation_profile(problem)
    mid = gamma.shape[0] // 2
    line = gamma[mid, :]
    pad = problem.pad
    # outermost node carries the full strength, innermost pad node 1/pad^2 of it
    assert line[0] == pytest.approx(1.0)
    assert line[pad - 1] == pytest.approx(1.0 / pad ** 2)
    assert np.allclose(line[:pad], ((pad - np.arange(pad)) / pad) ** 2)
    assert not line[pad:-pad].any()
    assert np.allclose(line[-pad:], line[:pad][::-1])


def test_attenuation_clamped_in_corners():
    problem = build_problem(2, 16, 10, pad=5, gamma_max=0.7)
    gamma = attenuation_profile(problem)
    assert gamma.max() <= 0.7 + 1e-15
    assert gamma[0, 0] == pytest.approx(0.7)


def test_attenuation_free_surface_leaves_top_bare():
    problem = build_problem(2, 16, 10, pad=5, free_surface_top=True)
    gamma = attenuation_profile(problem)
    mid = gamma.shape[0] // 2
    assert gamma[mid, 0] == 0.0
    assert gamma[mid, -1] == pytest.approx(1.0)


# ---------------------------------------------------------------- media

def test_homogeneous_model_uses_upper_endpoint():
    model = make_model("homogeneous", (0.1, 0.9), (4, 4), 0.25)
    assert np.all(model.kappa2 == 0.9)


def test_linear_model_interpolates_slowness_not_its_square():
    model = make_model("linear", (0.25, 1.0), (4, 4), 0.25)
    assert np.allclose(model.kappa2[:, 0], 0.25)
    assert np.allclose(model.kappa2[:, -1], 1.0)
    mid_kappa = 0.5 * (np.sqrt(0.25) + np.sqrt(1.0))
    assert np.allclose(model.kappa2[:, 2], mid_kappa ** 2)


def test_wedge_model_three_layers_pinching():
    lo, hi = 0.1, 1.0
    model = make_model("wedge", (lo, hi), (16, 16), 1.0 / 16)
    values = np.unique(model.kappa2)
    assert np.allclose(values, [lo, 0.5 * (lo + hi), hi])
    # interfaces meet at the far side of the first axis: middle layer vanishes
    assert np.allclose(np.unique(model.kappa2[-1]), [lo, hi])


def test_wedge_needs_two_dimensions():
    # as every model does
    for kind in ("wedge", "homogeneous"):
        with pytest.raises(ValueError, match="dim must be 2 or 3, got 1"):
            make_model(kind, (0.1, 1.0), (8,), 0.125)


def test_model_argument_validation():
    with pytest.raises(ValueError, match="unknown model kind"):
        make_model("gradient", (0.1, 1.0), (8, 8), 0.125)
    with pytest.raises(ValueError, match="0 < lo <= hi"):
        make_model("homogeneous", (1.0, 0.5), (8, 8), 0.125)
    with pytest.raises(ValueError, match="shape"):
        SlownessModel(2, (4, 4), 0.25, np.ones((4, 4)))
    with pytest.raises(ValueError, match="positive"):
        SlownessModel(2, (4, 4), 0.25, np.zeros((5, 5)))


_SMALL_MODEL = make_model("homogeneous", (1.0, 1.0), (8, 8), 0.125)


@pytest.mark.parametrize("build,value", [
    (lambda v: CyclePlan(nu1=v), 1.5),
    (lambda v: CyclePlan(nu1=v), True),
    (lambda v: CyclePlan(nu2=v), math.nan),
    (lambda v: SlownessModel(2, (4, 4), v, np.ones((5, 5))), math.nan),
    (lambda v: SlownessModel(2, (4, 4), v, np.ones((5, 5))), math.inf),
    (lambda v: SlownessModel(2, v, 0.25, np.ones((5, 5))), (4.5, 4)),
    (lambda v: HelmholtzProblem(_SMALL_MODEL, 10.0, pad=v), 1.5),
    (lambda v: HelmholtzProblem(_SMALL_MODEL, 10.0, pad=v), math.nan),
    (lambda v: HelmholtzProblem(_SMALL_MODEL, 10.0, pad=v), True),
    (lambda v: HelmholtzProblem(_SMALL_MODEL, 10.0, source=v), (1.5, 2)),
    (lambda v: make_model("homogeneous", (1.0, 1.0), v, 1 / 32), (32.7, 32)),
    (lambda v: make_model("homogeneous", (1.0, 1.0), (v, 32), 1 / 32), True),
    (lambda v: make_model("homogeneous", (1.0, 1.0), (v, 32), 1 / 32), "32"),
    (lambda v: make_model("wedge", (1.0, 1.0), (v, 32), 1 / 32), -3),
    (lambda v: omega_for_ppw(_SMALL_MODEL, v), math.nan),
    (lambda v: omega_for_ppw(_SMALL_MODEL, v), math.inf),
], ids=["nu1-fraction", "nu1-bool", "nu2-nan", "h-nan", "h-inf", "cells-fraction",
        "pad-fraction", "pad-nan", "pad-bool", "source-fraction", "model-cells-fraction",
        "model-cells-bool", "model-cells-str", "model-cells-negative", "ppw-nan",
        "ppw-inf"])
def test_constructors_reject_bad_values_by_name(build, value):
    """Each bad value is a ValueError that names it, not a TypeError much
    later, a silent truncation, a numpy error or a frequency of nan or 0."""
    with pytest.raises(ValueError, match=re.escape(str(value))):
        build(value)


@pytest.mark.parametrize("build,value,named", [
    (lambda v: HelmholtzProblem(_SMALL_MODEL, v), True, "omega must be a number, got True"),
    (lambda v: HelmholtzProblem(_SMALL_MODEL, v), "10", "omega must be a number, got '10'"),
    (lambda v: HelmholtzProblem(_SMALL_MODEL, 10.0, gamma_max=v), None,
     "gamma_max must be a number, got None"),
    (lambda v: HelmholtzProblem(_SMALL_MODEL, 10.0, free_surface_top=v), "no",
     "free_surface_top must be a bool, got 'no'"),
    (lambda v: HelmholtzProblem(_SMALL_MODEL, 10.0, free_surface_top=v), 1,
     "free_surface_top must be a bool, got 1"),
    (lambda v: make_model("homogeneous", (1.0, 1.0), (8, 8), v), True,
     "spacing h must be a number, got True"),
    (lambda v: CyclePlan(alpha=v), "1", "alpha must be a number, got '1'"),
    (lambda v: CyclePlan(alpha=v), None, "alpha must be a number, got None"),
    (lambda v: CyclePlan(beta=v), 0.1j, "beta must be a number, got 0.1j"),
    (lambda v: CyclePlan(dampings=v), ("a", 1),
     "damping in ('a', 1) must be a number, got 'a'"),
    (lambda v: CyclePlan(dampings=v), 3, "dampings must be two values, for levels 1 and 2, "
                                         "got 3"),
], ids=["omega-bool", "omega-str", "gamma-none", "free-surface-str", "free-surface-int",
        "h-bool", "alpha-str", "alpha-none", "beta-complex", "dampings-str", "dampings-scalar"])
def test_constructors_reject_mistyped_numbers_and_flags_by_name(build, value, named):
    """A number of the wrong type, or a flag that is no bool, is a ValueError
    that names the field and the value, not a TypeError or a truthy string
    taken for True."""
    with pytest.raises(ValueError, match=f"^{re.escape(named)}$"):
        build(value)


@pytest.mark.parametrize("reach", [0, -1, 2.5, True, "1"])
def test_sparse_operator_rejects_a_bad_reach(reach):
    """reach must be an integer of at least 1: the coarsest factorization
    dissects by it."""
    with pytest.raises(ValueError, match=re.escape("reach must be ") + ".*"
                       + re.escape(str(reach))):
        SparseOperator(sp.identity(9, format="csr"), (3, 3), reach)


def test_load_model_velocity_conversion(tmp_path):
    grid = tmp_path / "toy.bin"
    np.array([2, 2, 4, 4], dtype="<f4").tofile(grid)
    meta = {"dim": 2, "shape": [2, 2], "h": 0.5, "kind": "velocity"}
    model = load_model(grid, meta)
    assert model.cells == (1, 1)
    assert np.allclose(model.kappa2, [[0.25, 0.25], [0.0625, 0.0625]])

    sidecar = tmp_path / "toy.json"
    sidecar.write_text(json.dumps(meta))
    again = load_model(grid, sidecar)
    assert np.array_equal(again.kappa2, model.kappa2)


def test_load_model_size_mismatch_reports_bytes(tmp_path):
    grid = tmp_path / "short.bin"
    np.array([1.0, 1.0, 1.0], dtype="<f4").tofile(grid)
    meta = {"dim": 2, "shape": [2, 2], "h": 0.5, "kind": "slowness-squared"}
    with pytest.raises(ValueError) as err:
        load_model(grid, meta)
    assert "16 bytes" in str(err.value) and "12 bytes" in str(err.value)


def test_load_model_kind_validation(tmp_path):
    grid = tmp_path / "v.bin"
    np.array([1.0, -1.0], dtype="<f4").tofile(grid)
    meta = {"dim": 1, "shape": [2], "h": 0.5, "kind": "velocity"}
    with pytest.raises(ValueError, match="strictly positive"):
        load_model(grid, meta)
    meta["kind"] = "density"
    with pytest.raises(ValueError, match="unknown value kind"):
        load_model(grid, meta)


def test_points_per_wavelength_round_trip():
    model = make_model("homogeneous", (1.0, 1.0), (64, 64), 1.0 / 64)
    problem = HelmholtzProblem(model, omega_for_ppw(model, 12), pad=0)
    assert problem.points_per_wavelength == pytest.approx(12.0)


@pytest.mark.parametrize("field,value", [
    ("omega", math.nan),
    ("omega", math.inf),
    ("gamma_max", math.nan),
])
def test_problem_rejects_non_finite_values(field, value):
    model = make_model("homogeneous", (1.0, 1.0), (8, 8), 0.125)
    kwargs = {"omega": 1.0, "pad": 0, field: value}
    with pytest.raises(ValueError, match=rf"{field} must be finite.*(nan|inf)"):
        HelmholtzProblem(model, **kwargs)


_HOMOGENEOUS_8 = lambda: make_model("homogeneous", (1.0, 1.0), (8, 8), 0.125)


@pytest.mark.parametrize("build,message", [
    (lambda: AnalysisConfig(2.0, 12.0), "analysis dim must be an integer, got 2.0"),
    (lambda: AnalysisConfig(True, 12.0), "analysis dim must be an integer, got True"),
    (lambda: AnalysisConfig(2, "12"), "G must be a number, got '12'"),
    (lambda: AnalysisConfig(2, True), "G must be a number, got True"),
    (lambda: SlownessModel(2.0, (8, 8), 0.125, np.ones((9, 9))),
     "dim must be an integer, got 2.0"),
    (lambda: omega_for_ppw(_HOMOGENEOUS_8(), "12"),
     "points per wavelength G must be a number, got '12'"),
    (lambda: omega_for_ppw(_HOMOGENEOUS_8(), None),
     "points per wavelength G must be a number, got None"),
], ids=["analysis-dim-float", "analysis-dim-bool", "analysis-G-str", "analysis-G-bool",
        "model-dim-float", "ppw-G-str", "ppw-G-none"])
def test_a_mistyped_dim_or_G_is_rejected_by_name(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_nyquist_rejection():
    model = make_model("homogeneous", (1.0, 1.0), (8, 8), 0.125)
    with pytest.raises(ValueError, match="Nyquist"):
        HelmholtzProblem(model, omega_for_ppw(model, 1.5), pad=0)


# ---------------------------------------------------------------- sources

def test_point_source_strength_and_placement():
    problem = build_problem(2, 8, 10, pad=3)
    rhs = point_source(problem)
    assert rhs.shape == assemble_operator(problem, "fourth-order").grid_shape == (13, 13)
    # the unknowns start one node inside the padded grid
    index = tuple(s + p - 1 for s, p in zip(problem.source, problem.pad_lo))
    assert index == (6, 2)
    assert rhs[index] == pytest.approx(1.0 / problem.model.h ** 2)
    assert np.count_nonzero(rhs) == 1
    assert problem.source == (4, 0)


def test_default_source_drops_when_top_is_dirichlet():
    free = build_problem(2, 8, 10, pad=6, free_surface_top=True)
    assert free.source == (4, 1)
    bare = build_problem(2, 8, 10, pad=0)
    assert bare.source == (4, 1)


def test_source_on_boundary_row_rejected():
    with pytest.raises(ValueError, match="boundary row"):
        build_problem(2, 8, 10, pad=0, source=(4, 0))
    with pytest.raises(ValueError, match="outside the interior"):
        build_problem(2, 8, 10, pad=3, source=(4, 20))
