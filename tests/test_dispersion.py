"""Dispersion relations, grid-to-grid error, and the shift search."""

import dataclasses
import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rscgc import dispersion
from rscgc.discretization import omega_for_ppw
from rscgc.dispersion import (
    TUNED_INTERGRIDS,
    POLAR_LO,
    RAY_RESOLUTION,
    _unit,
    AnalysisConfig,
    NoCrossingError,
    coarsest_stencil,
    direction_grid,
    export_dispersion_curve,
    ncrit_bounds,
    optimize_shift,
    _COMPOSITE_NODES,
    _RAY_BLOCK,
    _RAY_DIRECTIONS,
    _closed_range,
    _composite_pair,
    _fine_pair,
    _first_crossings,
    _fold,
    _folded_pair,
    _ray_grid,
    _snapped_radii,
)
from rscgc.stencils import Stencil

import dispersion_oracle
from conftest import SECOND_ORDER_ALONG_X
from periodic_oracle import periodic_composite


def snapped(r):
    """r rounded to the ray grid, as the kernel's grid holds it."""
    return RAY_RESOLUTION * round(float(r) / RAY_RESOLUTION)


# ---------------------------------------------------------------- radii

@pytest.mark.parametrize("kh", [0.1, 0.5, 2 * math.pi / 10])
def test_second_order_1d_radius_closed_form(kh):
    """4 sin^2(r/2) = (kh)^2 pins the crossing at 2 arcsin(kh/2)."""
    r = _first_crossings(_fold(*SECOND_ORDER_ALONG_X), [kh ** 2], 0.0)[0]
    assert r == snapped(2.0 * math.asin(kh / 2))


def test_radius_crossing_out_of_range():
    with pytest.raises(NoCrossingError, match="too small"):
        _first_crossings(_fold(*SECOND_ORDER_ALONG_X), [0.0], 0.0)
    with pytest.raises(NoCrossingError, match="too large"):
        _first_crossings(_fold(*SECOND_ORDER_ALONG_X), [10.0 ** 2], 0.0)


def test_fourth_order_radius_is_anisotropic():
    """At G = 5 the fine radius along an axis is 8 ray steps longer than
    along the diagonal, both within 1% of kh."""
    kh = 2 * math.pi / 5
    r_axis, r_diag = (_first_crossings(_folded_pair(2), [kh ** 2], phi)[0]
                      for phi in (0.0, math.pi / 4))
    assert abs(r_axis / kh - 1) < 1e-2
    assert abs(r_diag / kh - 1) < 1e-2
    assert r_axis - r_diag >= 5 * RAY_RESOLUTION


# ---------------------------------------------------------------- e_g

def test_grid_to_grid_error_spot_values():
    for intergrid, alpha, worst in (("cubic", 1.0045, 3.340e-3),
                                    ("level-dependent", 1.0135, 8.111e-3)):
        config = AnalysisConfig(2, 12.0, intergrid, alpha_range=(alpha, alpha + 1e-3))
        scan = optimize_shift(config)[2]
        assert scan.alphas[0] == alpha
        assert np.abs(scan.errors[0]).max() == pytest.approx(worst, abs=5e-6)


def test_grid_to_grid_error_has_the_stencil_symmetry():
    config = AnalysisConfig(2, 11.0)
    alphas = [0.99, 1.0075, 1.03]
    for phi in (0.1, 0.3):
        r3, r1 = _snapped_radii(config, alphas, phi)
        r3_mirror, r1_mirror = _snapped_radii(config, alphas, math.pi / 2 - phi)
        assert r1 == r1_mirror and np.array_equal(r3, r3_mirror)


def test_grid_to_grid_error_argument_check():
    with pytest.raises(ValueError, match="alpha"):
        export_dispersion_curve(AnalysisConfig(2, 12.0), -1.0)
    # rejected by name before the search, which would raise NoCrossingError
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"alpha must be finite.*{alpha}"):
            export_dispersion_curve(AnalysisConfig(2, 12.0), alpha)


# ---------------------------------------------------------------- the search

def test_optimize_shift_on_a_narrow_bracket():
    config = AnalysisConfig(2, 12.0, "cubic", alpha_range=(1.0, 1.01))
    alpha_star, max_eg, scan = optimize_shift(config)
    assert alpha_star == pytest.approx(1.0045, abs=1e-12)
    assert max_eg == pytest.approx(3.340e-3, abs=5e-6)

    # the scan table is self-consistent with the reported optimum
    assert scan.errors.shape == (len(scan.alphas), len(scan.directions))
    objective = np.abs(scan.errors).max(axis=1)
    best = int(np.argmin(objective))
    assert scan.alphas[best] == alpha_star
    assert objective[best] == max_eg

    # dish-shaped around the optimum, small steps between neighboring alphas
    left = objective[max(0, best - 5):best + 1]
    right = objective[best:best + 6]
    assert np.all(np.diff(left) <= 0) and np.all(np.diff(right) >= 0)
    assert np.abs(np.diff(objective)).max() < 2e-3


@settings(max_examples=10, deadline=None)
@given(dim=st.sampled_from([2, 3]),
       G=st.floats(8.0, 100.0, exclude_min=True),
       alpha=st.floats(0.98, 1.06),
       azimuth=st.floats(0.0, math.pi / 4),
       polar=st.floats(POLAR_LO, math.pi / 2))
def test_one_halving_decides_the_snapped_radius(dim, G, alpha, azimuth, polar):
    """The snapped radius is the bracket end nearer the crossing; the sign at
    the bracket midpoint picks the end that the oracle's bracket, refined by
    40 halvings, rounds to."""
    kh = 2 * math.pi / G
    phi = azimuth if dim == 2 else (azimuth, polar)
    cases = [(_fine_pair(dim), kh ** 2)]
    cases += [(_composite_pair(dim, ig), (alpha * kh) ** 2) for ig in TUNED_INTERGRIDS]
    for (lap, mass), m in cases:
        try:
            refined = dispersion_oracle._first_crossings(lap, mass, [m], phi, 40)[0]
        except NoCrossingError:
            # no crossing at all: the kernel must say so too
            with pytest.raises(NoCrossingError):
                _first_crossings(_fold(lap, mass), [m], phi)
            continue
        assert _first_crossings(_fold(lap, mass), [m], phi)[0] == snapped(refined)


def _snapped_against_the_oracle(lap, mass, masses, phi):
    """The kernel's snapped radii, in ray steps, equal to the full-table
    oracle's; where the oracle finds no crossing, the kernel raises the same
    error."""
    res = RAY_RESOLUTION
    try:
        oracle = dispersion_oracle._first_crossings(lap, mass, masses, phi, 1)
    except NoCrossingError as missing:
        with pytest.raises(NoCrossingError) as info:
            _first_crossings(_fold(lap, mass), masses, phi)
        assert str(info.value) == str(missing)
        return None
    steps = np.round(oracle / res)
    assert np.array_equal(_first_crossings(_fold(lap, mass), masses, phi), res * steps)
    return steps.astype(int)


@settings(max_examples=25, deadline=None)
@given(dim=st.sampled_from([2, 3]),
       Gs=st.lists(st.floats(8.0, 100.0, exclude_min=True), min_size=1, max_size=6),
       repeats=st.lists(st.integers(0, 5), max_size=4),
       order=st.randoms(use_true_random=False),
       alpha=st.floats(0.98, 1.06),
       azimuth=st.floats(0.0, math.pi / 4),
       polar=st.floats(POLAR_LO, math.pi / 2),
       pair=st.sampled_from(("fine",) + TUNED_INTERGRIDS))
def test_folded_blocked_kernel_matches_the_full_table_oracle(dim, Gs, repeats, order,
                                                             alpha, azimuth, polar, pair):
    """Every snapped radius of a batch equals the full-table search's, with
    G spread over (8, 100] so one batch crosses in several blocks, and the
    masses shuffled and some repeated, so the smallest pending mass that
    gates each block is not the first."""
    phi = azimuth if dim == 2 else (azimuth, polar)
    lap, mass = _fine_pair(dim) if pair == "fine" else _composite_pair(dim, pair)
    Gs = Gs + [Gs[i % len(Gs)] for i in repeats]
    order.shuffle(Gs)
    masses = (alpha * 2 * math.pi / np.array(Gs)) ** 2
    _snapped_against_the_oracle(lap, mass, masses, phi)


@pytest.mark.parametrize("dim", [2, 3])
def test_one_batch_crosses_in_several_blocks(dim):
    Gs = np.array([8.5, 10.0, 12.0, 20.0, 40.0, 100.0])
    phi = 0.3 if dim == 2 else (0.3, 1.2)
    for intergrid in TUNED_INTERGRIDS:
        lap, mass = _composite_pair(dim, intergrid)
        snapped = _snapped_against_the_oracle(lap, mass, (2 * math.pi / Gs) ** 2, phi)
        assert len(set(snapped // _RAY_BLOCK)) >= 4


# Each axis, both ways, and the cube (square) diagonal, as phi.
_AXES_AND_DIAGONAL = {
    2: [0.0, math.pi / 2, math.pi, 3 * math.pi / 2, math.pi / 4],
    3: [(0.0, math.pi / 2), (math.pi, math.pi / 2), (math.pi / 2, math.pi / 2),
        (3 * math.pi / 2, math.pi / 2), (0.0, 0.0), (0.0, math.pi),
        (math.pi / 4, math.acos(1 / math.sqrt(3)))],
}


@settings(max_examples=30, deadline=None)
@given(data=st.data(), dim=st.sampled_from([2, 3]),
       pair=st.sampled_from(("fine",) + TUNED_INTERGRIDS))
def test_every_library_mass_symbol_is_nonnegative_on_the_ray_grid(data, dim, pair):
    """The invariant the kernel's bisection rests on, checked with the
    oracle's tabulation over the whole ray grid in any direction: the fine
    mass symbol and each composite's, a sum of nonnegative alias terms."""
    angle = st.floats(0.0, 2 * math.pi)
    drawn = angle if dim == 2 else st.tuples(angle, st.floats(0.0, math.pi))
    phi = data.draw(drawn | st.sampled_from(_AXES_AND_DIAGONAL[dim]))
    mass = (_fine_pair(dim) if pair == "fine" else _composite_pair(dim, pair))[1]
    assert dispersion_oracle.ray_symbol(mass, phi, _ray_grid(dim)).min() >= 0


def test_a_negative_mass_symbol_raises():
    """A (3, 1) pair that along phi = 0 has symbol(L) = -1 - cos r and
    symbol(M) = cos r. The mass symbol turns negative at r = pi/2, in block 3,
    where m = 3 crosses (r = 1.82) before the smallest mass, m = 1 (r = 2.09,
    block 4): the masses that cross are no prefix of the ascending ones, so
    the kernel names the direction and the block instead of bisecting."""
    lap = Stencil(np.array([[-0.5], [-1.0], [-0.5]]))
    mass = Stencil(np.array([[0.5], [0.0], [0.5]]))
    with pytest.raises(RuntimeError,
                       match=r"^the mass symbol is negative along phi = 0 in block 3, "
                             r"r in \[1.536, 2.047\]; the bisection needs s >= 0$"):
        _first_crossings(_fold(lap, mass), [3.0, 1.0, 3.0, 2.0], 0.0)


def test_one_mass_without_a_crossing_fails_the_batch():
    folded = _fold(*_composite_pair(2, "cubic"))
    kh = 2 * math.pi / 12
    with pytest.raises(NoCrossingError, match="too large"):
        _first_crossings(folded, [kh ** 2, (3 * kh) ** 2], 0.0)
    with pytest.raises(NoCrossingError, match="too small"):
        _first_crossings(folded, [kh ** 2, -1.0], 0.0)


def _cached_blocks(folded):
    return [block for blocks in folded.rays.values() for block in blocks]


@pytest.mark.parametrize("dim,phi", [(2, 0.3), (3, (0.3, 1.2))])
@pytest.mark.parametrize("intergrid", TUNED_INTERGRIDS)
def test_a_warm_ray_cache_gives_the_cold_and_the_oracle_radii(dim, phi, intergrid):
    """On one fold and one direction, the G = 12 shifts, searched after the
    G = 10 ones, cross within the blocks the first search tabulated. The
    second search reads only those blocks, and each search returns what a
    cold fold and the full-table oracle give."""
    lap, mass = _composite_pair(dim, intergrid)
    folded = _fold(lap, mass)
    alphas = 0.98 + 5e-4 * np.arange(161)
    tabulated = None
    for G in (10.0, 12.0):
        masses = (alphas * 2 * math.pi / G) ** 2
        warm = _first_crossings(folded, masses, phi)
        assert np.array_equal(warm, _first_crossings(_fold(lap, mass), masses, phi))
        oracle = dispersion_oracle._first_crossings(lap, mass, masses, phi, 1)
        assert np.array_equal(warm, RAY_RESOLUTION * np.round(oracle / RAY_RESOLUTION))
        if tabulated is None:
            tabulated = _cached_blocks(folded)
    assert list(map(id, _cached_blocks(folded))) == list(map(id, tabulated))


def test_nearby_directions_keep_their_own_blocks():
    """Directions 1e-3 rad apart, searched in turn on one fold, each get the
    radii of a cold fold: no direction reads the blocks of another."""
    lap, mass = _composite_pair(2, "cubic")
    folded = _fold(lap, mass)
    masses = ((0.98 + 5e-4 * np.arange(161)) * 2 * math.pi / 10) ** 2
    for phi in 0.3 + 1e-3 * np.arange(20):
        assert np.array_equal(_first_crossings(folded, masses, phi),
                              _first_crossings(_fold(lap, mass), masses, phi))
    assert len(folded.rays) == 20


def test_clearing_the_library_caches_empties_the_ray_cache():
    """As perfbench's reset_caches does before each operation."""
    _snapped_radii(AnalysisConfig(2, 12.0), [1.0], 0.3)
    assert _folded_pair(2).rays and _folded_pair(2, "cubic").rays
    for module in list(sys.modules.values()):
        if getattr(module, "__name__", "").startswith("rscgc"):
            for value in list(vars(module).values()):
                if callable(getattr(value, "cache_clear", None)):
                    value.cache_clear()
    assert not _folded_pair(2).rays and not _folded_pair(2, "cubic").rays


def test_the_ray_cache_is_bounded_and_read_only():
    """The 787 sector angles of a dense export leave each fold the
    _RAY_DIRECTIONS directions it searched last, and no block can be written."""
    export_dispersion_curve(AnalysisConfig(2, 12.0), 1.0045, 1e-3)
    for folded in (_folded_pair(2), _folded_pair(2, "cubic")):
        assert len(folded.rays) == _RAY_DIRECTIONS
        assert next(reversed(folded.rays)) == tuple(_unit(2, math.pi / 4))
        for block in _cached_blocks(folded):
            assert not block.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                block[0, 0] = 0.0


def test_no_crossing_messages_name_the_input():
    with pytest.raises(NoCrossingError, match=r"too large.* at G = 12, alpha = 3$"):
        export_dispersion_curve(AnalysisConfig(2, 12.0), 3.0)
    config = AnalysisConfig(2, 12.0, alpha_range=(3.0, 3.01))
    with pytest.raises(NoCrossingError, match=r"at G = 12, alpha in \[3, 3.01\]$"):
        optimize_shift(config)
    # past G = 2 pi / (RAY_RESOLUTION / 2), about 1.26e4, kh is under half a ray step
    with pytest.raises(NoCrossingError,
                       match=r"^G = 20000 is too large: the fine radius snaps to 0 on the "
                             r"0.001 ray grid$"):
        export_dispersion_curve(AnalysisConfig(3, 2e4), 1.0)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call,named", [
    (lambda: _snapped_radii(AnalysisConfig(2, 12.0), [1.0], math.nan), "phi .*got nan"),
    (lambda: AnalysisConfig(2, math.inf), "G .*got inf"),
    (lambda: AnalysisConfig(2, math.nan), "G .*got nan"),
    (lambda: ncrit_bounds(math.inf, 0.01), "G .*got inf"),
    (lambda: ncrit_bounds(math.nan, 0.01), "G .*got nan"),
    (lambda: ncrit_bounds(12.0, math.nan), "error .*got nan"),
    (lambda: _snapped_radii(AnalysisConfig(3, 10.0, "level-dependent"), [1.0], 0.3),
     "2 angles in 3D, got 1: 0.3"),
    (lambda: _snapped_radii(AnalysisConfig(2, 10.0), [1.0], (0.1, 0.2)),
     "1 angle in 2D, got 2"),
    (lambda: export_dispersion_curve(AnalysisConfig(2, 12.0), 1.0, angle_resolution=1e-300),
     "angle_resolution = 1e-300 gives 7.85e\\+299 angles"),
    (lambda: export_dispersion_curve(AnalysisConfig(3, 12.0), 1.0, angle_resolution=1e-5),
     "angle_resolution = 1e-05 gives 7.5e\\+09 angles"),
    # an alpha whose square overflows, rejected with no overflow warning first
    (lambda: export_dispersion_curve(AnalysisConfig(2, 12.0), 1e160),
     "squared; got 1e\\+160"),
    (lambda: export_dispersion_curve(AnalysisConfig(3, 12.0), 1e160), "squared; got 1e\\+160"),
    (lambda: AnalysisConfig(2, 12.0, alpha_range=(1e160, 1e161), alpha_resolution=1e160),
     "squared; got 1e\\+161"),
])
def test_bad_dispersion_inputs_are_rejected_by_name(call, named):
    with pytest.raises(ValueError, match=named) as info:
        call()
    assert not isinstance(info.value, NoCrossingError)


@pytest.fixture(scope="module")
def scan_2d():
    config = AnalysisConfig(2, 11.0, "level-dependent", alpha_range=(1.0, 1.03))
    return config, optimize_shift(config)[2]


@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_grid_to_grid_error_reproduces_the_scan_table(scan_2d, data):
    config, scan = scan_2d
    i = data.draw(st.integers(0, len(scan.alphas) - 1))
    j = data.draw(st.integers(0, len(scan.directions) - 1))
    r3, r1 = _snapped_radii(config, [scan.alphas[i]], scan.directions[j])
    assert r3[0] / (4.0 * r1) - 1.0 == scan.errors[i, j]


@pytest.fixture(scope="module")
def scan_3d_warm():
    """A 3D level-dependent G = 11 scan that reads only the ray blocks a
    G = 10 scan before it tabulated."""
    optimize_shift(AnalysisConfig(3, 10.0, "level-dependent"))
    folded = _folded_pair(3, "level-dependent")
    tabulated = _cached_blocks(folded)
    config = AnalysisConfig(3, 11.0, "level-dependent")
    scan = optimize_shift(config)[2]
    assert list(map(id, _cached_blocks(folded))) == list(map(id, tabulated))
    return config, scan


def test_scan_table_equals_the_one_built_from_the_oracle(scan_2d, scan_3d_warm):
    """Entry for entry, the 2D table, and the 3D table at every ninth
    direction, are the ones the full-table oracle gives with the same
    snapping and the same error formula."""
    res = RAY_RESOLUTION
    for (config, scan), every in ((scan_2d, 1), (scan_3d_warm, 9)):
        kh = config.kh
        fine = _fine_pair(config.dim)
        composite = _composite_pair(config.dim, config.intergrid)
        for j in range(0, len(scan.directions), every):
            phi = scan.directions[j]
            r1 = dispersion_oracle._first_crossings(*fine, [kh ** 2], phi, 1)
            r3 = dispersion_oracle._first_crossings(*composite, (scan.alphas * kh) ** 2,
                                                    phi, 1)
            errors = res * np.round(r3 / res) / (4.0 * (res * np.round(r1[0] / res))) - 1.0
            assert np.array_equal(errors, scan.errors[:, j])


@pytest.mark.parametrize("lo,hi,step,count", [
    (0.98, 1.06, 5e-4, 161),    # (hi - lo) / step rounds to 160.00000000000014
    (1.0, 1.004, 0.005, 1),     # 0.8 of a step: rounding up would scan 1.005
    (0.98, 1.005, 0.005, 6),    # 4.999999999999982 steps: hi is on the grid
    (1.0, 1.01, 0.003, 4),
    (0.99, 1.01, 0.005, 5),
])
def test_the_alpha_grid_stops_at_hi(lo, hi, step, count):
    config = AnalysisConfig(2, 12.0, alpha_range=(lo, hi), alpha_resolution=step)
    alphas = optimize_shift(config)[2].alphas
    assert len(alphas) == count and alphas[0] == lo
    assert alphas.max() <= hi < alphas[-1] + step


def test_ties_break_toward_the_smaller_alpha():
    """The snapped radii often plateau; the reported optimum is the first."""
    config = AnalysisConfig(2, 12.0, "cubic", alpha_range=(1.0, 1.01))
    alpha_star, max_eg, scan = optimize_shift(config)
    objective = np.abs(scan.errors).max(axis=1)
    ties = np.nonzero(objective == max_eg)[0]
    assert scan.alphas[ties[0]] == alpha_star


# ---------------------------------------------------------------- derived bounds

def test_ncrit_bounds_rounding():
    assert ncrit_bounds(4.0, 0.5) == (2, 4)
    assert ncrit_bounds(12.0, 3.340e-3) == (898, 1796)
    assert ncrit_bounds(10.0, 1.1924e-2) == (210, 419)


def test_ncrit_bounds_validation():
    with pytest.raises(ValueError, match="dispersion error"):
        ncrit_bounds(10.0, 0.0)
    with pytest.raises(ValueError, match="G"):
        ncrit_bounds(-1.0, 0.1)


def mp_symbol(stencil, phi):
    """r -> sum(c cos(r u.o)) over the stored coefficients c and the stored
    unit vector u, in the working precision of mpmath."""
    u = [mpmath.mpf(float(x)) for x in _unit(stencil.dim, phi)]
    terms = [(mpmath.mpf(float(c)), mpmath.fsum(x * int(o) for x, o in zip(u, off)))
             for c, off in zip(stencil.coeffs.ravel().real, stencil.offsets()) if c]
    return lambda r: mpmath.fsum(c * mpmath.cos(r * p) for c, p in terms)


def mpmath_radius(lap, mass, m, phi, near):
    """The crossing of symbol(lap) - m symbol(mass) nearest `near`, in 40 digits."""
    with mpmath.workdps(40):
        sym_lap, sym_mass = mp_symbol(lap, phi), mp_symbol(mass, phi)
        return mpmath.findroot(lambda r: sym_lap(r) - mpmath.mpf(m) * sym_mass(r),
                               mpmath.mpf(near))


@pytest.mark.parametrize("G", [10.0, 100.0, 1e3, 1e4])
@pytest.mark.parametrize("dim,phi", [(2, 0.0), (2, math.pi / 8), (2, math.pi / 4),
                                     (3, (0.3, 1.2))])
def test_radius_matches_the_mpmath_root(dim, phi, G):
    """Tabulated as sum(c) - 2 sum(c sin^2), the symbols put the fine radius
    on the ray sample that the 40-digit root snaps to, up to G = 1e4."""
    kh = 2 * math.pi / G
    r = _first_crossings(_folded_pair(dim), [kh ** 2], phi)[0]
    assert r == snapped(mpmath_radius(*_fine_pair(dim), kh ** 2, phi, kh))


@pytest.mark.parametrize("side", [-1, 1])
@pytest.mark.parametrize("pair", ("fine",) + TUNED_INTERGRIDS)
@pytest.mark.parametrize("dim,phi", [(2, 0.0), (2, math.pi / 8), (3, (0.3, 1.2))])
def test_a_root_next_to_a_bracket_midpoint_snaps_to_its_side(dim, phi, pair, side):
    """A mass whose 40-digit root lies 1e-6 ray steps below (side -1) or above
    (side 1) the midpoint of a bracket snaps to its lower or its upper end:
    the sign of the symbol at the midpoint decides. The bracket is the one
    below the radius at G = 10, and at G = 1e4 the first one, whose lower end
    is r = 0."""
    lap, mass = _fine_pair(dim) if pair == "fine" else _composite_pair(dim, pair)
    folded, res = _fold(lap, mass), RAY_RESOLUTION
    for G in (10.0, 1e4):
        kh = 2 * math.pi / G
        k = round(_first_crossings(folded, [kh ** 2], phi)[0] / res) - 1
        with mpmath.workdps(40):
            target = (k + 0.5 + side * mpmath.mpf("1e-6")) * res
            m = float(mp_symbol(lap, phi)(target) / mp_symbol(mass, phi)(target))
        root = mpmath_radius(lap, mass, m, phi, target)
        assert 0.99e-6 < side * (root / res - k - 0.5) < 1.01e-6
        assert _first_crossings(folded, [m], phi)[0] == res * (k + (side > 0))


# ---------------------------------------------------------------- configuration

@pytest.mark.parametrize("bad", [
    {"dim": 4},
    {"G": 8.0},
    {"intergrid": "quadratic"},
    {"alpha_range": (1.06, 0.98)},
    {"G": math.nan},
    {"G": math.inf},
    {"alpha_resolution": math.nan},
    {"alpha_range": (0.98, math.inf)},
    {"intergrid": "bilinear"},
    {"alpha_range": (0.98,)},
    {"alpha_range": (0.98, 1.0, 1.06)},
    {"alpha_range": 1.0},
    {"alpha_range": ("a", "b")},
    # arrays past the size limit
    {"alpha_resolution": 1e-12},
    {"alpha_range": (1e-300, 1e300)},
    {"alpha_resolution": 0.0},
    {"alpha_resolution": -5e-4},
    {"alpha_resolution": math.inf},
    {"alpha_range": (0.0, 1.06)},
    {"alpha_range": (math.nan, 1.06)},
    {"dim": 1},
])
def test_analysis_config_validation(bad):
    kwargs = {"dim": 2, "G": 12.0}
    kwargs.update(bad)
    with pytest.raises(ValueError) as info:
        AnalysisConfig(**kwargs)
    value, = bad.values()
    assert str(value) in str(info.value)


def test_direction_grid_shapes():
    assert direction_grid(AnalysisConfig(2, 12.0)).shape == (8,)
    assert direction_grid(AnalysisConfig(3, 12.0)).shape == (80, 2)
    # the directions and the ray grid are fixed, not settings of an analysis
    assert [f.name for f in dataclasses.fields(AnalysisConfig)] == [
        "dim", "G", "intergrid", "alpha_resolution", "alpha_range"]
    for dim, samples in ((2, 4443), (3, 5441)):
        grid = _ray_grid(dim)
        assert len(grid) == samples + 1 and grid[1] == RAY_RESOLUTION


# ---------------------------------------------------------------- cross-module

# Offsets per axis of each composite: two cubic coarsenings reach 3 nodes,
# a linear second restriction 2.
COMPOSITE_EXTENTS = {"cubic": 7, "level-dependent": 5}


def _largest_miss(composite, oracle):
    """The largest coefficient difference relative to the oracle's largest
    coefficient, with the extents required equal."""
    assert composite.extents == oracle.extents
    return np.abs(composite.coeffs - oracle.coeffs).max() / np.abs(oracle.coeffs).max()


@pytest.mark.parametrize("intergrid", TUNED_INTERGRIDS)
@pytest.mark.parametrize("dim", [2, 3])
def test_composite_pair_matches_the_periodic_triple_product(dim, intergrid):
    """The Laplacian and the mass composite read off the hierarchy's 1D
    products are each two steps of the periodic triple product R A P, within
    1e-13 of the largest coefficient, with 7 (cubic) or 5 (level-dependent)
    offsets per axis, the same for both, and a nonzero outer layer."""
    extent = COMPOSITE_EXTENTS[intergrid]
    lap, mass = _composite_pair(dim, intergrid)
    assert lap.extents == mass.extents
    for fine, composite in zip(_fine_pair(dim), (lap, mass)):
        assert _largest_miss(composite, periodic_composite(fine, intergrid)) <= 1e-13
        assert composite.extents == (extent,) * dim
        assert np.abs(composite.coeffs[0]).max() > 0


@pytest.mark.parametrize("dim", [2, 3])
def test_fewer_composite_nodes_let_the_boundary_reach_the_cubic_composites(dim,
                                                                           monkeypatch):
    """On the next coarsenable grid below _COMPOSITE_NODES, the renormalized
    boundary rows of the cubic transfers reach the centre of the coarsest
    grid and the cubic composites miss the periodic triple product by more
    than 1e-6, while the level-dependent ones still match: the constant
    cannot be lowered without breaking the analysis."""
    monkeypatch.setattr(dispersion, "_COMPOSITE_NODES", _COMPOSITE_NODES - 8)
    for intergrid in TUNED_INTERGRIDS:
        misses = [_largest_miss(composite, periodic_composite(fine, intergrid))
                  for fine, composite in zip(_fine_pair(dim),
                                             _composite_pair.__wrapped__(dim, intergrid))]
        if intergrid == "cubic":
            assert min(misses) > 1e-6
        else:
            assert max(misses) <= 1e-13


def test_composite_stencil_matches_the_assembled_hierarchy():
    """The analysis-route coarsest stencil must be the solver's level-3 row.

    Same fine scheme, same transfers, same shift: an interior row of the
    assembled coarsest operator, times the fine h^2, has to reproduce the
    composite stencil entry for entry.
    """
    from rscgc.discretization import HelmholtzProblem, make_model
    from rscgc.multigrid import CyclePlan, build_hierarchy

    alpha = 1.014
    cells = 32
    model = make_model("homogeneous", (1.0, 1.0), (cells, cells), 1.0 / cells)
    problem = HelmholtzProblem(model, omega_for_ppw(model, 10.0), pad=0)
    hier = build_hierarchy(problem, "fourth-order", CyclePlan(alpha=alpha))

    config = AnalysisConfig(2, 10.0, "cubic")
    reference = coarsest_stencil(config, alpha).coeffs

    A3 = hier.levels[2].operator.matrix
    shape = hier.levels[2].operator.grid_shape
    row = A3[np.ravel_multi_index((4, 4), shape)].toarray().reshape(shape)
    window = row[1:8, 1:8] * problem.model.h ** 2
    scale = np.abs(reference).max()
    assert np.abs(window - reference).max() <= 1e-12 * scale


# ---------------------------------------------------------------- export

def test_export_curve_unfolds_the_full_circle():
    config = AnalysisConfig(2, 12.0, "cubic")
    curve = export_dispersion_curve(config, 1.0045, angle_resolution=0.1)
    assert curve.columns == ("phi", "r_coarse", "r_fine_stretched")
    angles = curve.rows[:, 0]
    assert angles[0] == 0.0 and angles[-1] == pytest.approx(2 * math.pi)
    assert np.all(np.diff(angles) > 0)
    assert np.allclose(curve.rows[-1, 1:], curve.rows[0, 1:])
    assert np.all(curve.rows[:, 1:] > 0)

    gap_star = np.abs(curve.rows[:, 1] - curve.rows[:, 2]).max()
    unshifted = export_dispersion_curve(config, 1.0, angle_resolution=0.1)
    gap_one = np.abs(unshifted.rows[:, 1] - unshifted.rows[:, 2]).max()
    assert gap_star < gap_one
    # the tuned gap is the tabulated worst error times the stretched radius
    r_stretch = curve.rows[:, 2].max()
    assert gap_star <= (3.340e-3 + 1e-4) * r_stretch


def test_export_curve_3d_box():
    config = AnalysisConfig(3, 12.0, "cubic")
    curve = export_dispersion_curve(config, 1.0045, angle_resolution=0.2)
    assert curve.columns == ("azimuth", "polar", "r_coarse", "r_fine_stretched")
    assert curve.rows.shape[1] == 4
    assert np.all(curve.rows[:, 2:] > 0)
    assert curve.rows[:, 0].max() == pytest.approx(math.pi / 4)
    assert curve.rows[:, 1].max() == pytest.approx(math.pi / 2)
    with pytest.raises(ValueError, match="alpha"):
        export_dispersion_curve(config, 0.0)


def test_each_sector_end_appears_once():
    """np.arange can end on a sector end (pi/4 at a resolution of pi/4/61) or
    past it (pi/2 + 7e-16 for the polar range at a 27th of its span); each
    range still holds its end once, as its last sample."""
    curve = export_dispersion_curve(AnalysisConfig(2, 12.0, "cubic"), 1.0045,
                                    angle_resolution=math.pi / 4 / 61)
    angles = curve.rows[:, 0]
    assert len(angles) == 8 * 61 + 1 and np.all(np.diff(angles) > 0)
    for lo, hi, count in ((0.0, math.pi / 4, 61), (POLAR_LO, math.pi / 2, 27)):
        step = (hi - lo) / count
        samples = _closed_range(lo, hi, step)
        assert len(samples) == count + 1 and samples[-1] == hi
        assert np.allclose(np.diff(samples), step, rtol=1e-9)
