"""Dispersion relations, grid-to-grid error, and the shift search."""

import dataclasses
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from rscgc.discretization import laplacian_and_mass_stencils, omega_for_ppw
from rscgc.dispersion import (
    TUNED_INTERGRIDS,
    POLAR_LO,
    RAY_RESOLUTION,
    _unit,
    AnalysisConfig,
    NoCrossingError,
    classical_dispersion_error,
    coarsest_stencil,
    direction_grid,
    discrete_radius,
    export_dispersion_curve,
    grid_to_grid_error,
    ncrit_bounds,
    optimize_shift,
    _RAY_BLOCK,
    _composite_pair,
    _fine_pair,
    _first_crossings,
    _fold,
    _ray_grid,
)
from rscgc.stencils import Stencil

import dispersion_oracle


def helmholtz_stencil(dim, kh, scheme="fourth-order"):
    lap, mass = laplacian_and_mass_stencils(dim, scheme)
    return lap + mass * (-(kh ** 2))


# ---------------------------------------------------------------- radii

@pytest.mark.parametrize("kh", [0.1, 0.5, 2 * math.pi / 10])
def test_second_order_1d_radius_closed_form(kh):
    """4 sin^2(r/2) = (kh)^2 pins the crossing at 2 arcsin(kh/2)."""
    stencil = helmholtz_stencil(1, kh, "second-order")
    r = discrete_radius(stencil, 0.0)
    assert abs(r - 2.0 * math.asin(kh / 2)) <= 1e-8


def test_radius_crossing_out_of_range():
    with pytest.raises(NoCrossingError, match="too small"):
        discrete_radius(helmholtz_stencil(1, 0.0, "second-order"), 0.0)
    with pytest.raises(NoCrossingError, match="too large"):
        discrete_radius(helmholtz_stencil(1, 10.0, "second-order"), 0.0)


def test_fourth_order_radius_is_anisotropic():
    kh = 2 * math.pi / 12
    stencil = helmholtz_stencil(2, kh)
    r_axis = discrete_radius(stencil, 0.0)
    r_diag = discrete_radius(stencil, math.pi / 4)
    assert abs(r_axis / kh - 1) < 2e-4
    assert abs(r_diag / kh - 1) < 2e-4
    assert abs(r_axis - r_diag) > 5e-5


# ---------------------------------------------------------------- e_g

def test_grid_to_grid_error_spot_values():
    cubic = AnalysisConfig(2, 12.0, "cubic")
    worst = max(abs(grid_to_grid_error(cubic, 1.0045, phi))
                for phi in direction_grid(cubic))
    assert worst == pytest.approx(3.340e-3, abs=5e-6)

    mixed = AnalysisConfig(2, 12.0, "level-dependent")
    worst = max(abs(grid_to_grid_error(mixed, 1.0135, phi))
                for phi in direction_grid(mixed))
    assert worst == pytest.approx(8.111e-3, abs=5e-6)


def test_grid_to_grid_error_has_the_stencil_symmetry():
    config = AnalysisConfig(2, 11.0)
    for phi in (0.1, 0.3):
        a = grid_to_grid_error(config, 1.0075, phi)
        b = grid_to_grid_error(config, 1.0075, math.pi / 2 - phi)
        assert abs(a - b) <= 1e-10


def test_grid_to_grid_error_argument_check():
    with pytest.raises(ValueError, match="alpha"):
        grid_to_grid_error(AnalysisConfig(2, 12.0), -1.0, 0.0)
    # rejected by name before the search, which would raise NoCrossingError
    for alpha in (math.nan, math.inf):
        with pytest.raises(ValueError, match=rf"alpha must be finite.*{alpha}"):
            grid_to_grid_error(AnalysisConfig(2, 12.0), alpha, 0.0)
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
    """The snapped radius is the bracket end nearer the crossing; the midpoint
    test of the first halving picks it, so 39 more halvings change nothing."""
    kh = 2 * math.pi / G
    phi = azimuth if dim == 2 else (azimuth, polar)
    res = RAY_RESOLUTION
    cases = [(_fine_pair(dim), kh ** 2)]
    cases += [(_composite_pair(dim, ig), (alpha * kh) ** 2) for ig in TUNED_INTERGRIDS]
    for (lap, mass), m in cases:
        try:
            forty = _first_crossings(_fold(lap, mass), [m], phi, 40)[0]
        except NoCrossingError:
            # no crossing at all: the one-halving search must say so too
            with pytest.raises(NoCrossingError):
                _first_crossings(_fold(lap, mass), [m], phi, 1)
            continue
        one = _first_crossings(_fold(lap, mass), [m], phi, 1)[0]
        assert round(one / res) == round(forty / res)


def _snapped_against_the_oracle(lap, mass, masses, phi):
    """The kernel's snapped radii, equal to the full-table oracle's; where the
    oracle finds no crossing, the kernel raises the same error."""
    res = RAY_RESOLUTION
    try:
        oracle = dispersion_oracle._first_crossings(lap, mass, masses, phi, 1)
    except NoCrossingError as missing:
        with pytest.raises(NoCrossingError) as info:
            _first_crossings(_fold(lap, mass), masses, phi, 1)
        assert str(info.value) == str(missing)
        return None
    kernel = _first_crossings(_fold(lap, mass), masses, phi, 1)
    assert np.array_equal(np.round(kernel / res), np.round(oracle / res))
    return np.round(oracle / res).astype(int)


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


def test_a_negative_mass_symbol_compares_every_mass():
    """1D pair with symbol(L) = -1 - cos r and symbol(M) = cos r: mass m
    crosses at arccos(-1 / (1 + m)). The mass symbol turns negative at
    r = pi/2, in block 3, where m = 3 crosses (r = 1.82) but the smallest
    mass, m = 1, does not (r = 2.09, block 4); a skip decided by the
    smallest mass alone would push m = 3 into block 4."""
    lap = Stencil(np.array([-0.5, -1.0, -0.5]))
    mass = Stencil(np.array([0.5, 0.0, 0.5]))
    masses = [3.0, 1.0, 3.0, 2.0]
    snapped = _snapped_against_the_oracle(lap, mass, masses, 0.0)
    crossings = np.arccos(-1.0 / (1.0 + np.array(masses)))
    assert np.array_equal(snapped, np.round(crossings / 1e-3))
    assert list(snapped // _RAY_BLOCK) == [3, 4, 3, 3]


def test_one_mass_without_a_crossing_fails_the_batch():
    folded = _fold(*_composite_pair(2, "cubic"))
    kh = 2 * math.pi / 12
    with pytest.raises(NoCrossingError, match="too large"):
        _first_crossings(folded, [kh ** 2, (3 * kh) ** 2], 0.0, 1)
    with pytest.raises(NoCrossingError, match="too small"):
        _first_crossings(folded, [kh ** 2, -1.0], 0.0, 1)


def test_no_crossing_messages_name_the_input():
    with pytest.raises(NoCrossingError, match=r"too large.* at G = 12, alpha = 3$"):
        grid_to_grid_error(AnalysisConfig(2, 12.0), 3.0, 0.0)
    config = AnalysisConfig(2, 12.0, alpha_range=(3.0, 3.01))
    with pytest.raises(NoCrossingError, match=r"at G = 12, alpha in \[3, 3.01\]$"):
        optimize_shift(config)
    with pytest.raises(NoCrossingError, match=r"too large.* along phi = 0.25$"):
        discrete_radius(helmholtz_stencil(1, 10.0, "second-order"), 0.25)
    # past G = 2 pi / (RAY_RESOLUTION / 2), about 1.26e4, kh is under half a ray step
    with pytest.raises(NoCrossingError,
                       match=r"^G = 20000 is too large: the fine radius snaps to 0 on the "
                             r"0.001 ray grid$"):
        grid_to_grid_error(AnalysisConfig(3, 2e4), 1.0, (0.0, 1.2))


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call,named", [
    (lambda s: discrete_radius(s, math.nan), "phi .*got nan"),
    (lambda s: classical_dispersion_error(s, math.inf, 0.0), "G .*got inf"),
    (lambda s: classical_dispersion_error(s, math.nan, 0.0), "G .*got nan"),
    (lambda s: ncrit_bounds(math.inf, 0.01), "G .*got inf"),
    (lambda s: ncrit_bounds(math.nan, 0.01), "G .*got nan"),
    (lambda s: ncrit_bounds(12.0, math.nan), "error .*got nan"),
    (lambda s: grid_to_grid_error(AnalysisConfig(3, 10.0, "level-dependent"), 1.0, 0.3),
     "2 angles in 3D, got 1: 0.3"),
    (lambda s: grid_to_grid_error(AnalysisConfig(2, 10.0), 1.0, (0.1, 0.2)),
     "1 angle in 2D, got 2"),
    (lambda s: export_dispersion_curve(AnalysisConfig(2, 12.0), 1.0, angle_resolution=1e-300),
     "angle_resolution = 1e-300 gives 7.85e\\+299 angles"),
    (lambda s: export_dispersion_curve(AnalysisConfig(3, 12.0), 1.0, angle_resolution=1e-5),
     "angle_resolution = 1e-05 gives 7.5e\\+09 angles"),
    # an alpha whose square overflows, rejected with no overflow warning first
    (lambda s: grid_to_grid_error(AnalysisConfig(2, 12.0), 1e160, 0.0),
     "squared; got 1e\\+160"),
    (lambda s: export_dispersion_curve(AnalysisConfig(3, 12.0), 1e160), "squared; got 1e\\+160"),
    (lambda s: AnalysisConfig(2, 12.0, alpha_range=(1e160, 1e161), alpha_resolution=1e160),
     "squared; got 1e\\+161"),
])
def test_bad_dispersion_inputs_are_rejected_by_name(call, named):
    with pytest.raises(ValueError, match=named) as info:
        call(helmholtz_stencil(2, 0.5))
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
    assert grid_to_grid_error(config, scan.alphas[i], scan.directions[j]) == scan.errors[i, j]


def test_scan_table_equals_the_one_built_from_the_oracle(scan_2d):
    """Entry for entry, the 2D table is the one the full-table oracle gives
    with the same snapping and the same error formula."""
    config, scan = scan_2d
    res, kh = RAY_RESOLUTION, config.kh
    fine, composite = _fine_pair(2), _composite_pair(2, config.intergrid)
    for j, phi in enumerate(scan.directions):
        r1 = dispersion_oracle._first_crossings(*fine, [kh ** 2], phi, 1)
        r3 = dispersion_oracle._first_crossings(*composite, (scan.alphas * kh) ** 2, phi, 1)
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


def test_classical_error_closed_form_1d():
    G = 10.0
    kh = 2 * math.pi / G
    err = classical_dispersion_error(helmholtz_stencil(1, kh, "second-order"), G, 0.0)
    assert abs(err - (kh / (2 * math.asin(kh / 2)) - 1)) <= 1e-8


def test_classical_error_fourth_order_decay():
    for G, bound in ((20.0, 1e-3), (1e4, 1e-6)):
        kh = 2 * math.pi / G
        err = classical_dispersion_error(helmholtz_stencil(2, kh), G, 0.0)
        assert abs(err) < bound
    with pytest.raises(ValueError, match="exceed 2"):
        classical_dispersion_error(helmholtz_stencil(2, math.pi), 2.0, 0.0)


def mpmath_radius(stencil, phi, near):
    """The crossing nearest `near` of the real symbol sum(c cos(r u.o)) of the
    stored coefficients c along the stored unit vector u, in 40 digits."""
    u = _unit(stencil.dim, phi)
    terms = [(mpmath.mpf(float(c)), sum(mpmath.mpf(float(x)) * int(o) for x, o in zip(u, off)))
             for c, off in zip(stencil.coeffs.ravel().real, stencil.offsets()) if c]
    with mpmath.workdps(40):
        return mpmath.findroot(lambda r: mpmath.fsum(c * mpmath.cos(r * p) for c, p in terms),
                               mpmath.mpf(near))


@pytest.mark.parametrize("G", [10.0, 100.0, 1e3, 1e4])
@pytest.mark.parametrize("dim,phi", [(2, 0.0), (2, math.pi / 8), (2, math.pi / 4),
                                     (3, (0.3, 1.2))])
def test_radius_matches_the_mpmath_root(dim, phi, G):
    """Tabulated as sum(c) - 2 sum(c sin^2), the symbol of a stencil carrying
    its mass term keeps the radius to 1e-12 relative of the 40-digit root."""
    kh = 2 * math.pi / G
    stencil = helmholtz_stencil(dim, kh)
    r = discrete_radius(stencil, phi)
    exact = mpmath_radius(stencil, phi, r)
    assert abs(r - exact) <= 1e-12 * exact
    err = classical_dispersion_error(stencil, G, phi)
    assert abs(err - float(kh / exact - 1)) <= 1e-12


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
