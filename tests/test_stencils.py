"""Stencils: the offsets of a constant stencil, symbols, the transfer weights,
and the hierarchy's Galerkin coarsening of a constant stencil.

The Galerkin checks run two independent routes: the hierarchy's 1D Galerkin
products read at an interior node, and an explicit sparse triple product on
a periodic grid.
"""

import math

import numpy as np
import pytest

from rscgc.discretization import laplacian_and_mass_stencils
from rscgc.dispersion import _composite_pair, _fine_pair
from rscgc.multigrid import (_coarsen_shifts, _laplacian_planes, _unit_shifts,
                             transfer_matrices)
from rscgc.stencils import RESTRICTION_WEIGHTS, offsets

from conftest import SECOND_ORDER_1D, combine
from periodic_oracle import periodic_rap_stencil, restriction_weights, symbol


def helmholtz_stencil(dim, kh, scheme="fourth-order"):
    lap, mass = (SECOND_ORDER_1D if scheme == "second-order"
                 else laplacian_and_mass_stencils(dim, scheme))
    return combine((1.0, lap), (-(kh ** 2), mass))


def coarsened(fine, orders, nodes=17):
    """The hierarchy's Galerkin coarsening of a constant stencil by one pair
    of (restriction, prolongation) orders, on `nodes` per axis, read at the
    centre of the coarse grid, which no boundary row of the transfers reaches.
    The unknowns are the nodes inside the outermost layer."""
    shape = (nodes - 2,) * fine.ndim
    shifts = _coarsen_shifts(_unit_shifts(fine.shape, shape), orders)
    centre = ((nodes - 1) // 4 - 1,) * fine.ndim
    return np.reshape([plane[centre] for _, plane in _laplacian_planes(fine, shifts)],
                      tuple(len(axis_offsets) for axis_offsets, _ in shifts))


# ---------------------------------------------------------------------------
# offsets and read-only tables

@pytest.mark.parametrize("extents", [(5,), (3, 1), (3, 5), (1, 3, 5), (3, 3, 3)])
def test_offsets_follow_the_c_order_of_ravel(extents):
    """Entry k of a stencil's ravel() is its entry at offsets(extents)[k]
    from the centre."""
    stencil = np.arange(math.prod(extents)).reshape(extents)
    centre = np.array([e // 2 for e in extents])
    table = offsets(extents)
    assert table.shape == (stencil.size, stencil.ndim)
    assert [stencil[tuple(o + centre)] for o in table] == stencil.ravel().tolist()


def test_cached_and_tabled_stencils_are_read_only():
    """No caller can alter the fine pair, the composites or the weights
    that the next caller reads."""
    arrays = [*_fine_pair(2), *_composite_pair(3, "level-dependent"),
              *RESTRICTION_WEIGHTS.values()]
    for array in arrays:
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 1.0


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
    s1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    s2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
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
# restriction weights and their tensor products

def test_tensor_product_builds_the_2d_cubic_restriction():
    base = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    assert np.array_equal(RESTRICTION_WEIGHTS["cubic"], base)
    prod = restriction_weights(2, "cubic")
    assert prod.shape == (5, 5)
    assert np.array_equal(prod, np.outer(base, base))
    assert prod.sum() == pytest.approx(1.0, abs=1e-15)


def test_tensor_product_identity_case():
    """One axis: the product of a single factor is the factor itself."""
    assert np.array_equal(RESTRICTION_WEIGHTS["linear"], [0.25, 0.5, 0.25])
    assert np.array_equal(restriction_weights(1, "linear"), RESTRICTION_WEIGHTS["linear"])


def test_full_weighting_2d_values():
    fw = restriction_weights(2, "linear")
    assert fw[1, 1] == pytest.approx(0.25)
    assert fw[0, 1] == pytest.approx(0.125)
    assert fw[0, 0] == pytest.approx(0.0625)


@pytest.mark.parametrize("dim", [1, 2, 3])
@pytest.mark.parametrize("order", ["linear", "cubic"])
def test_restriction_weights_sum_to_one(dim, order):
    """Each 1D family, and so each of its tensor products, sums to one and
    is symmetric about its centre."""
    weights = RESTRICTION_WEIGHTS[order]
    assert weights.dtype == np.float64 and len(weights) % 2 == 1
    assert math.fsum(weights) == 1.0
    assert np.array_equal(weights, weights[::-1])
    st = restriction_weights(dim, order)
    assert st.sum() == pytest.approx(1.0, abs=1e-14)
    assert np.array_equal(st, np.flip(st))


def test_restriction_rejects_unknown_order():
    """The transfers know the weight families only; "bilinear" names an
    intergrid scheme, not an order."""
    for order in ("quintic", "bilinear"):
        for orders in ((order, "cubic"), ("cubic", order)):
            with pytest.raises(ValueError, match=f"unknown transfer order '{order}'"):
                transfer_matrices((9, 9), *orders)


# ---------------------------------------------------------------------------
# Galerkin coarsening of a constant stencil

def test_galerkin_1d_laplacian_halves():
    """Coarsening [-1, 2, -1] with the linear pair gives the 2h Laplacian.

    The dimensionless result is (1/4)[-1, 2, -1]: dividing by the fine h^2,
    as operator assembly does, turns that into (1/(2h)^2)[-1, 2, -1].
    """
    fine = np.array([-1.0, 2.0, -1.0])
    coarse = coarsened(fine, ("linear", "linear"))
    assert np.allclose(coarse, [-0.25, 0.5, -0.25], atol=1e-15)
    rest = RESTRICTION_WEIGHTS["linear"]
    oracle = periodic_rap_stencil(fine, rest, rest, 32)
    assert np.allclose(coarse, oracle, atol=1e-14)


def test_galerkin_of_zero_is_zero():
    coarse = coarsened(np.zeros((3, 3)), ("cubic", "cubic"))
    assert np.all(coarse == 0)


def test_galerkin_linear_in_the_fine_stencil():
    """Linearity is what lets the analysis coarsen L and M apart and the
    hierarchy add the real shift after coarsening."""
    rng = np.random.default_rng(11)
    f1 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    f2 = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    orders = ("cubic", "cubic")
    a, b = 0.3 + 1.1j, -2.0 + 0.7j
    left = coarsened(combine((a, f1), (b, f2)), orders)
    right = combine((a, coarsened(f1, orders)), (b, coarsened(f2, orders)))
    scale = np.max(np.abs(right))
    assert np.max(np.abs(left - right)) < 1e-12 * scale


@pytest.mark.parametrize("dim,points,scheme", [
    (1, 32, "second-order"),
    (2, 32, "fourth-order"),
    (3, 16, "fourth-order"),
])
def test_galerkin_matches_periodic_triple_product(dim, points, scheme):
    fine = helmholtz_stencil(dim, 2 * math.pi / 10, scheme)
    rest = restriction_weights(dim, "cubic")
    composed = coarsened(fine, ("cubic", "cubic"))
    oracle = periodic_rap_stencil(fine, rest, rest, points)
    assert composed.shape == oracle.shape
    scale = np.max(np.abs(oracle))
    assert np.max(np.abs(composed - oracle)) <= 1e-12 * scale


def test_periodic_oracle_rejects_wraparound_grids():
    fine = helmholtz_stencil(2, 0.5)
    rest = restriction_weights(2, "cubic")
    with pytest.raises(ValueError, match="even point count"):
        periodic_rap_stencil(fine, rest, rest, 8)
