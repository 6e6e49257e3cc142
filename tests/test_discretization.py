"""Assembly, media, sponge profile, and source placement."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from rscgc.discretization import (
    REDISC_SCHEME,
    GridStencil,
    HelmholtzProblem,
    SlownessModel,
    assemble_operator,
    attenuation_profile,
    laplacian_and_mass_stencils,
    load_model,
    make_model,
    mass_term,
    omega_for_ppw,
    point_source,
)
from rscgc.multigrid import CyclePlan

from conftest import build_problem, structurally_symmetric
from galerkin_oracle import mass_matrix


# ---------------------------------------------------------------- stencil pairs

def test_fourth_order_2d_values():
    """Bit for bit the literal pair: the Laplacian in sixths, the mass in
    twelfths."""
    lap, mass = laplacian_and_mass_stencils(2, "fourth-order")
    assert np.array_equal(lap.coeffs, np.array([
        [-1.0, -4.0, -1.0],
        [-4.0, 20.0, -4.0],
        [-1.0, -4.0, -1.0],
    ]) / 6.0)
    assert np.array_equal(mass.coeffs, np.array([
        [0.0, 1.0, 0.0],
        [1.0, 8.0, 1.0],
        [0.0, 1.0, 0.0],
    ]) / 12.0)


def test_fourth_order_3d_values():
    """Bit for bit the per-count weights, -2/6 included, which rounds to the
    double of -1/3."""
    lap, mass = laplacian_and_mass_stencils(3, "fourth-order")
    assert lap.extents == mass.extents == (3, 3, 3)
    # classify by how many offsets leave the center
    expected = {0: (4.0, 6.0 / 12.0), 1: (-1.0 / 3.0, 1.0 / 12.0), 2: (-1.0 / 6.0, 0.0),
                3: (0.0, 0.0)}
    for off in np.ndindex(3, 3, 3):
        nz = sum(1 for o in off if o != 1)
        assert (lap.coeffs[off], mass.coeffs[off]) == expected[nz]


@pytest.mark.parametrize("dim,scheme", [
    (2, "fourth-order"),
    (3, "fourth-order"),
    (2, REDISC_SCHEME),
])
def test_pair_invariants(dim, scheme):
    """Every scheme annihilates constants in L and averages to one in M, and
    its two stencils share their extents."""
    lap, mass = laplacian_and_mass_stencils(dim, scheme)
    assert abs(lap.coeffs.sum()) < 1e-12
    assert mass.coeffs.sum().real == pytest.approx(1.0, abs=1e-12)
    assert all(np.array_equal(s.coeffs, np.flip(s.coeffs)) for s in (lap, mass))
    assert lap.extents == mass.extents


def test_jss_parameter_placement():
    """The re-discretized coarsest pair places the weights of its name."""
    a, b, c = 0.6054, 1.0532, 0.0002
    assert REDISC_SCHEME == f"jss({a},{b},{c})"
    lap, mass = laplacian_and_mass_stencils(2, REDISC_SCHEME)
    assert lap.coeffs[1, 1].real == pytest.approx(2 * a + 2)
    assert lap.coeffs[0, 1].real == pytest.approx(-a)
    assert mass.coeffs[1, 1].real == pytest.approx(b)
    assert mass.coeffs[0, 1].real == pytest.approx(c / 4)
    assert mass.coeffs[0, 0].real == pytest.approx((1 - b - c) / 4)


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
    expected = lap.coeffs / h ** 2 - problem.omega ** 2 * mass.coeffs

    shape = problem.padded_shape
    row = A.matrix[np.ravel_multi_index((4, 4), shape)].toarray().reshape(shape)
    window = row[3:6, 3:6]
    assert np.allclose(window, expected, rtol=0, atol=1e-10)
    row[3:6, 3:6] = 0
    assert not row.any()


def test_boundary_rows_are_decoupled_identity():
    problem = build_problem(2, 8, 10, pad=0)
    A = assemble_operator(problem, "fourth-order").matrix
    first = A[0].toarray().ravel()
    assert first[0] == 1.0 and np.count_nonzero(first) == 1
    # and nothing couples back into that boundary unknown
    col = A[:, 0].toarray().ravel()
    assert np.count_nonzero(col) == 1


def test_assembled_pattern_structurally_symmetric():
    problem = build_problem(2, 32, 10, kind="wedge", kappa2=(0.25, 1.0), pad=6)
    A = assemble_operator(problem, "fourth-order", alpha=1.01, beta=0.05)
    assert structurally_symmetric(A.matrix)


def test_grid_stencil_csr_writes_boundary_rows_and_drops_zeros():
    offsets = [(-1, 0), (0, -1), (0, 0), (0, 1), (1, 0)]
    coeffs = np.zeros((5, 4, 5))
    coeffs[:, 1:-1, 1:-1] = np.arange(1.0, 6.0)[:, None, None]
    coeffs[0, 2, 2] = 0.0
    matrix = GridStencil(offsets, coeffs).tocsr()
    dense = matrix.toarray()
    row = np.ravel_multi_index((1, 2), (4, 5))
    assert dense[row, row - 5] == 1.0 and dense[row, row + 1] == 4.0
    assert matrix.nnz == 6 * 5 - 1 + 14          # one exact zero dropped
    assert np.array_equal(np.diag(dense)[[0, 4, 5, 19]], [1.0, 1.0, 1.0, 1.0])
    assert matrix.has_sorted_indices
    boundary = [0, 1, 2, 3, 4, 5, 9, 10, 14, 15, 16, 17, 18, 19]
    assert np.array_equal(dense[boundary], np.eye(20)[boundary])


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
    diag = A.matrix.diagonal().reshape(problem.padded_shape)
    interior = diag[1:-1, 1:-1]
    # mass center weight is 8/12 for this scheme
    expected = -beta * problem.omega ** 2 * (8.0 / 12.0)
    assert np.allclose(interior.imag, expected, rtol=1e-12)


def test_sponge_makes_imaginary_diagonal_negative():
    problem = build_problem(2, 16, 10, pad=6)
    A = assemble_operator(problem, "fourth-order")
    diag = A.matrix.diagonal().reshape(problem.padded_shape)
    gamma = attenuation_profile(problem)
    inner = (slice(1, -1),) * 2
    damped = gamma[inner] > 0
    assert np.all(diag[inner].imag[damped] < 0)
    assert np.allclose(diag[inner].imag[~damped], 0.0)


def test_mass_term_samples_the_neighbor_node():
    """Heterogeneous k^2 is read at the column's node, not the row's."""
    cells, h = 8, 1.0 / 8.0
    z = np.arange(cells + 1)
    kappa2 = np.broadcast_to(1.0 + 0.05 * z, (cells + 1, cells + 1)).copy()
    model = SlownessModel(2, (cells, cells), h, kappa2)
    problem = HelmholtzProblem(model, 1.0, pad=0)
    A = assemble_operator(problem, "fourth-order")

    shape = problem.padded_shape
    r = np.ravel_multi_index((4, 4), shape)
    c = np.ravel_multi_index((4, 5), shape)
    lap, mass = laplacian_and_mass_stencils(2, "fourth-order")
    with_neighbor = lap.coeffs[1, 2] / h ** 2 - kappa2[4, 5] * mass.coeffs[1, 2]
    with_center = lap.coeffs[1, 2] / h ** 2 - kappa2[4, 4] * mass.coeffs[1, 2]
    assert abs(A.matrix[r, c] - with_neighbor) < 1e-12
    assert abs(A.matrix[r, c] - with_center) > 1e-4


def test_mass_matrix_is_real_with_zero_boundary_rows():
    problem = build_problem(2, 8, 10, pad=4)
    M = mass_matrix(problem, "fourth-order")
    assert np.allclose(M.matrix.data.imag, 0.0)
    assert M.matrix.dtype == np.float64
    n0 = problem.padded_shape[1]
    assert M.matrix[0].nnz == 0 and M.matrix[n0 + 1].nnz > 0


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


def test_nyquist_rejection():
    model = make_model("homogeneous", (1.0, 1.0), (8, 8), 0.125)
    with pytest.raises(ValueError, match="Nyquist"):
        HelmholtzProblem(model, omega_for_ppw(model, 1.5), pad=0)


# ---------------------------------------------------------------- sources

def test_point_source_strength_and_placement():
    problem = build_problem(2, 8, 10, pad=3)
    rhs = point_source(problem)
    index = tuple(s + p for s, p in zip(problem.source, problem.pad_lo))
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
