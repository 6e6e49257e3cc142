"""Stencils: symbols, transfer stencils, and the hierarchy's Galerkin
coarsening of a constant stencil.

The Galerkin checks run two independent routes: the hierarchy's 1D Galerkin
products read at an interior node, and an explicit sparse triple product on
a periodic grid.
"""

import math

import numpy as np
import pytest

from rscgc.discretization import laplacian_and_mass_stencils
from rscgc.multigrid import _coarsen_shifts, _laplacian_planes, _unit_shifts
from rscgc.stencils import Stencil, restriction_stencil

from conftest import SECOND_ORDER_1D, combine
from periodic_oracle import periodic_rap_stencil, symbol


def helmholtz_stencil(dim, kh, scheme="fourth-order"):
    lap, mass = (SECOND_ORDER_1D if scheme == "second-order"
                 else laplacian_and_mass_stencils(dim, scheme))
    return combine((1.0, lap), (-(kh ** 2), mass))


def coarsened(fine, orders, nodes=17):
    """The hierarchy's Galerkin coarsening of a constant stencil by one pair
    of (restriction, prolongation) orders, on `nodes` per axis, read at the
    centre of the coarse grid, which no boundary row of the transfers reaches."""
    shape = (nodes,) * fine.dim
    shifts = _coarsen_shifts(_unit_shifts(fine, shape), orders)
    centre = ((nodes - 1) // 4,) * fine.dim
    return Stencil(np.reshape([plane[centre] for _, plane in
                               _laplacian_planes(fine.coeffs, shifts)],
                              tuple(len(offsets) for offsets, _ in shifts)))


# ---------------------------------------------------------------------------
# symbol

@pytest.mark.parametrize("dim", [2, 3])
def test_symbol_constant_mode_reproduces_minus_k_squared(dim):
    """At theta = 0 the discrete operator acts on constants like -k^2 (h=1)."""
    k = 0.83
    st = helmholtz_stencil(dim, k)
    value = symbol(st, np.zeros(dim))
    assert value == pytest.approx(-k ** 2, abs=1e-14)


def test_symbol_checkerboard_mode_2d():
    lap, _ = laplacian_and_mass_stencils(2, "fourth-order")
    value = symbol(lap, (math.pi, math.pi))
    assert value.real == pytest.approx(16.0 / 3.0, abs=1e-13)
    assert abs(value.imag) < 1e-13


def test_symbol_batched_matches_scalar_calls():
    st = helmholtz_stencil(2, 0.5)
    thetas = np.array([[0.1, 0.2], [1.0, -0.3], [math.pi, 0.0]])
    batch = symbol(st, thetas)
    singles = np.array([symbol(st, t) for t in thetas])
    assert np.allclose(batch, singles, rtol=0, atol=1e-14)


def test_symbol_linear_in_the_stencil():
    rng = np.random.default_rng(7)
    s1 = Stencil(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    s2 = Stencil(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    a, b = 1.7 - 0.4j, -0.9 + 2.2j
    thetas = rng.uniform(-math.pi, math.pi, size=(12, 2))
    left = symbol(combine((a, s1), (b, s2)), thetas)
    right = a * symbol(s1, thetas) + b * symbol(s2, thetas)
    assert np.max(np.abs(left - right)) < 1e-12 * np.max(np.abs(right))


@pytest.mark.parametrize("dim", [2, 3])
def test_symbol_of_symmetric_real_stencil_is_real(dim):
    st = helmholtz_stencil(dim, 2 * math.pi / 10)
    rng = np.random.default_rng(3)
    values = symbol(st, rng.uniform(-math.pi, math.pi, size=(40, dim)))
    scale = max(np.max(np.abs(values.real)), 1.0)
    assert np.max(np.abs(values.imag)) < 1e-12 * scale


def test_symbol_rejects_dimension_mismatch():
    lap, _ = laplacian_and_mass_stencils(2, "fourth-order")
    with pytest.raises(ValueError, match="components"):
        symbol(lap, (0.1, 0.2, 0.3))


# ---------------------------------------------------------------------------
# tensor products and transfer stencils

def test_tensor_product_builds_the_2d_cubic_restriction():
    base = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    prod = restriction_stencil(2, "cubic")
    assert prod.extents == (5, 5)
    assert np.array_equal(prod.coeffs, np.outer(base, base))
    assert prod.coeffs.sum() == pytest.approx(1.0, abs=1e-15)


def test_tensor_product_identity_case():
    """One axis: the product of a single factor is the factor itself."""
    prod = restriction_stencil(1, "linear")
    assert prod.extents == (3,)
    assert np.array_equal(prod.coeffs, [0.25, 0.5, 0.25])


def test_full_weighting_2d_values():
    fw = restriction_stencil(2, "linear")
    assert fw.coeffs[1, 1].real == pytest.approx(0.25)
    assert fw.coeffs[0, 1].real == pytest.approx(0.125)
    assert fw.coeffs[0, 0].real == pytest.approx(0.0625)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", ["linear", "cubic"])
def test_restriction_weights_sum_to_one(dim, order):
    st = restriction_stencil(dim, order)
    assert st.coeffs.sum().real == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(st.coeffs, np.flip(st.coeffs))


def test_restriction_rejects_unknown_order():
    for order in ("quintic", "high", "low", "bilinear"):
        with pytest.raises(ValueError, match="transfer order"):
            restriction_stencil(2, order)


# ---------------------------------------------------------------------------
# Galerkin coarsening of a constant stencil

def test_galerkin_1d_laplacian_halves():
    """Coarsening [-1, 2, -1] with the linear pair gives the 2h Laplacian.

    The dimensionless result is (1/4)[-1, 2, -1]: dividing by the fine h^2,
    as operator assembly does, turns that into (1/(2h)^2)[-1, 2, -1].
    """
    fine = Stencil(np.array([-1.0, 2.0, -1.0]))
    coarse = coarsened(fine, ("linear", "linear"))
    assert np.allclose(coarse.coeffs.real, [-0.25, 0.5, -0.25], atol=1e-15)
    rest = restriction_stencil(1, "linear")
    oracle = periodic_rap_stencil(fine, rest, rest, 32)
    assert np.allclose(coarse.coeffs, oracle.coeffs, atol=1e-14)


def test_galerkin_of_zero_is_zero():
    coarse = coarsened(Stencil(np.zeros((3, 3))), ("cubic", "cubic"))
    assert np.all(coarse.coeffs == 0)


def test_galerkin_linear_in_the_fine_stencil():
    """Linearity is what lets the analysis coarsen L and M apart and the
    hierarchy add the real shift after coarsening."""
    rng = np.random.default_rng(11)
    f1 = Stencil(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    f2 = Stencil(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)))
    orders = ("cubic", "cubic")
    a, b = 0.3 + 1.1j, -2.0 + 0.7j
    left = coarsened(combine((a, f1), (b, f2)), orders)
    right = combine((a, coarsened(f1, orders)), (b, coarsened(f2, orders)))
    scale = np.max(np.abs(right.coeffs))
    assert np.max(np.abs(left.coeffs - right.coeffs)) < 1e-12 * scale


@pytest.mark.parametrize("dim,points,scheme", [
    (1, 32, "second-order"),
    (2, 32, "fourth-order"),
    (3, 16, "fourth-order"),
])
def test_galerkin_matches_periodic_triple_product(dim, points, scheme):
    fine = helmholtz_stencil(dim, 2 * math.pi / 10, scheme)
    rest = restriction_stencil(dim, "cubic")
    composed = coarsened(fine, ("cubic", "cubic"))
    oracle = periodic_rap_stencil(fine, rest, rest, points)
    assert composed.extents == oracle.extents
    scale = np.max(np.abs(oracle.coeffs))
    assert np.max(np.abs(composed.coeffs - oracle.coeffs)) <= 1e-12 * scale


def test_periodic_oracle_rejects_wraparound_grids():
    fine = helmholtz_stencil(2, 0.5)
    rest = restriction_stencil(2, "cubic")
    with pytest.raises(ValueError, match="even point count"):
        periodic_rap_stencil(fine, rest, rest, 8)


# ---------------------------------------------------------------------------
# Stencil construction guards

def test_stencil_rejects_even_extents():
    with pytest.raises(ValueError, match="odd"):
        Stencil(np.zeros((4, 3)))


def test_stencil_rejects_nonfinite_entries():
    bad = np.zeros(3)
    bad[1] = np.nan
    with pytest.raises(ValueError, match="finite"):
        Stencil(bad)


def test_stencil_rejects_four_axes():
    with pytest.raises(ValueError, match="1D, 2D or 3D"):
        Stencil(np.zeros((3, 3, 3, 3)))
    for dim in (0, 4):
        with pytest.raises(ValueError, match="1D, 2D or 3D"):
            restriction_stencil(dim, "cubic")
