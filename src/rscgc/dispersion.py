"""Grid-to-grid dispersion analysis for tuning the coarsest-level real shift.

A stencil's dispersion relation is the zero set of its Fourier symbol; along a
ray theta = r * unit(phi) the relation appears as the first sign switch of the
real symbol. The grid-to-grid error compares the coarsest-level radius with
the fine-grid radius stretched by the coarsening factor 4,

    e_g(alpha, phi) = r3(alpha, phi) / (4 r1(phi)) - 1,

where r3 comes from the double-Galerkin composite of the real-shifted fine
operator. Both radii are snapped to the nearest sample of the 1e-3 ray grid
before forming the ratio; the tabulated optima are reproduced under this
convention and not under smooth radii, so it is part of the protocol rather
than an implementation detail.
"""

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .discretization import laplacian_and_mass_stencils
from .stencils import INTERGRID, galerkin_stencil, restriction_stencil, transpose_scale

__all__ = [
    "AnalysisConfig",
    "DispersionScan",
    "DispersionCurve",
    "NoCrossingError",
    "direction_grid",
    "discrete_radius",
    "grid_to_grid_error",
    "optimize_shift",
    "ncrit_bounds",
    "classical_dispersion_error",
    "export_dispersion_curve",
]

# The intergrid schemes the shift is tuned for. Bilinear transfers serve only
# the re-discretized baseline, whose coarsest level is no Galerkin composite.
TUNED_INTERGRIDS = tuple(name for name in INTERGRID if name != "bilinear")

# The fine scheme the shift is tuned for, and so the one every tuned
# hierarchy is built with.
TUNED_SCHEME = "fourth-order"

# Polar sector floor: pi/2 - arccos(1/sqrt(3)), the cube-diagonal colatitude.
POLAR_LO = math.pi / 2 - math.acos(1.0 / math.sqrt(3.0))

# The most values an analysis array may hold, 800 MB of float64: the ray grid,
# the alpha x direction error table, the search's alpha x ray-block
# comparison and the angles of a dispersion curve.
MAX_VALUES = 10 ** 8


class NoCrossingError(ValueError):
    """The symbol has no dispersion-relation crossing along the sampled ray."""


@dataclass(frozen=True)
class AnalysisConfig:
    """Sampling resolutions for one (dim, G, intergrid) analysis."""

    dim: int
    G: float
    intergrid: str = "cubic"
    phi_resolution: float = 0.1
    alpha_resolution: float = 5e-4
    ray_resolution: float = 1e-3
    alpha_range: tuple = (0.98, 1.06)

    def __post_init__(self):
        if self.dim not in (2, 3):
            raise ValueError(f"analysis dim must be 2 or 3, got {self.dim}")
        if not 8 < self.G < math.inf:
            raise ValueError(
                f"G must be finite and exceed 8 so two coarsenings keep G/4 > 2, "
                f"got {self.G}")
        for name in ("phi_resolution", "alpha_resolution", "ray_resolution"):
            value = getattr(self, name)
            if not 0 < value < math.inf:
                raise ValueError(f"{name} must be finite and positive, got {value}")
        _ray_samples(self.dim, self.ray_resolution)
        try:
            lo, hi = self.alpha_range
        except (TypeError, ValueError):
            lo = hi = None
        if not all(isinstance(v, numbers.Real) for v in (lo, hi)):
            raise ValueError(
                f"alpha_range must be a pair of numbers (lo, hi), got {self.alpha_range}")
        if not 0 < lo < hi < math.inf:
            raise ValueError(
                f"alpha_range must satisfy 0 < lo < hi < inf, got {self.alpha_range}")
        if self.intergrid not in TUNED_INTERGRIDS:
            raise ValueError(
                f"intergrid must be one of {TUNED_INTERGRIDS}, got {self.intergrid!r}")
        shifts = (hi - lo) / self.alpha_resolution + 1.0
        directions = _direction_count(self.dim, self.phi_resolution)
        values = shifts * max(directions, _RAY_BLOCK)
        if not values <= MAX_VALUES:
            raise ValueError(
                f"alpha_range {self.alpha_range}, alpha_resolution {self.alpha_resolution} "
                f"and phi_resolution {self.phi_resolution} give {shifts:.3g} shifts x "
                f"{directions:.3g} directions; the error table or a {_RAY_BLOCK}-sample "
                f"search block would hold {values:.3g} values, more than the limit of "
                f"{MAX_VALUES:.0e}")

    @property
    def kh(self):
        return 2.0 * math.pi / self.G


@dataclass(frozen=True)
class DispersionScan:
    """Exhaustive (alpha, phi) error table with the located optimum."""

    directions: np.ndarray
    alphas: np.ndarray
    errors: np.ndarray
    alpha_star: float
    max_eg_star: float


@dataclass(frozen=True)
class DispersionCurve:
    columns: tuple
    rows: np.ndarray


def _arange_length(span, step):
    """len(np.arange(0.0, span, step)) as a float, inf where that overflows."""
    count = span / step
    return float(math.ceil(count)) if count < math.inf else count


def _direction_count(dim, res):
    """Number of directions in direction_grid at phi_resolution res."""
    azimuths = _arange_length(math.pi / 4, res)
    return azimuths if dim == 2 else azimuths * _arange_length(math.pi / 2 - POLAR_LO, res)


def direction_grid(config):
    """Propagation directions covering the symmetry sector.

    2D: azimuth angles in [0, pi/4). 3D: (azimuth, polar) pairs with azimuth
    in [0, pi/4) and polar in [pi/2 - arccos(1/sqrt(3)), pi/2). The remaining
    directions repeat these errors by symmetry.
    """
    res = config.phi_resolution
    azimuth = np.arange(0.0, math.pi / 4, res)
    if config.dim == 2:
        return azimuth
    polar = np.arange(POLAR_LO, math.pi / 2, res)
    az, pol = np.meshgrid(azimuth, polar, indexing="ij")
    return np.column_stack([az.ravel(), pol.ravel()])


def _unit(dim, phi):
    angles = 2 if dim == 3 else 1
    if np.size(phi) != angles:
        raise ValueError(
            f"direction phi must hold {angles} angle{'s' * (angles > 1)} in {dim}D, "
            f"got {np.size(phi)}: {phi}")
    if not np.all(np.isfinite(phi)):
        raise ValueError(f"direction phi must be finite, got {phi}")
    if dim == 1:
        return np.array([1.0])
    if dim == 2:
        angle = float(np.asarray(phi).reshape(()))
        return np.array([math.cos(angle), math.sin(angle)])
    azimuth, polar = (float(v) for v in np.asarray(phi).ravel())
    return np.array([
        math.sin(polar) * math.cos(azimuth),
        math.sin(polar) * math.sin(azimuth),
        math.cos(polar),
    ])


def _ray_samples(dim, res):
    """Number of ray-grid samples after r = 0, out to about pi*sqrt(dim)."""
    if not 0 < res < math.inf:
        raise ValueError(f"ray_resolution must be finite and positive, got {res}")
    rmax = math.pi * math.sqrt(dim)
    if not rmax / res <= MAX_VALUES:
        raise ValueError(
            f"ray_resolution = {res} gives {rmax / res:.3g} ray samples in {dim}D, more "
            f"than the limit of {MAX_VALUES:.0e}")
    count = int(math.floor(rmax / res + 0.5))
    if not count:
        raise ValueError(
            f"ray_resolution must leave a ray sample in (0, {rmax:.4g}] in {dim}D, "
            f"got {res}")
    return count


def _ray_grid(dim, res):
    return res * np.arange(0.0, _ray_samples(dim, res) + 1.0)


# Ray samples tabulated at a time; the search stops after the block in which
# the last mass crosses.
_RAY_BLOCK = 512


def _fold(lap, mass):
    """The (lap, mass) pair folded for _first_crossings: (dim, sums, pairs, offsets).

    Padded to common extents, offset n-1-i of a stencil is the negative of
    offset i in C order, so the fold keeps the first n//2 offsets (as floats)
    and, per stencil, the pair sums -2 (c_i + c_{n-1-i}) and the fsum of all
    stored coefficients.
    """
    extents = tuple(max(a, b) for a, b in zip(lap.extents, mass.extents))
    lap, mass = lap.padded_to(extents), mass.padded_to(extents)
    coeffs = np.column_stack([lap.coeffs.ravel().real, mass.coeffs.ravel().real])
    sums = np.array([math.fsum(column) for column in coeffs.T])
    half = len(coeffs) // 2
    pairs = -2.0 * (coeffs[:half] + coeffs[:half:-1])
    return lap.dim, sums, pairs, lap.offsets()[:half].astype(float)


def _first_crossings(folded, masses, phi, res, steps):
    """First sign switch of symbol(lap) - m * symbol(mass) along phi, per mass m.

    `folded` is _fold(lap, mass). The real symbols are tabulated on the ray
    grid r = 0, res, ..., about pi*sqrt(dim), in blocks of _RAY_BLOCK
    samples, until every mass has crossed; the first nonnegative sample
    brackets each crossing, and `steps` halvings refine the bracket. Returns
    the final bracket midpoints.

    A symbol sum(c cos(theta.o)) is tabulated as sum(c) - 2 sum(c sin^2(theta.o/2)),
    with no cancellation of O(1) terms near a crossing; sum(c) is the fsum of
    the stored coefficients. Both symbols share one sin^2 table over the
    folded half of the offsets, written into one buffer per call.

    A block is compared against every pending mass only where the smallest
    pending mass crosses in it, or where the mass symbol is negative at some
    sample. The skip is exact: for s >= 0, fl(m * s) does not decrease as m
    grows and fl(a - x) does not increase as x grows, so a sample where any
    pending mass gives a nonnegative value is one where the smallest does.
    """
    dim, sums, pairs, offsets = folded
    half_proj = 0.5 * (offsets @ _unit(dim, phi))
    masses = np.asarray(masses, dtype=float)
    grid = _ray_grid(dim, res)
    buffer = np.empty((max(min(len(grid), _RAY_BLOCK), len(masses)), len(half_proj)))

    def symbols(r):
        table = np.multiply.outer(r, half_proj, out=buffer[:len(r)])
        np.square(np.sin(table, out=table), out=table)
        table = table @ pairs + sums
        return table[:, 0], table[:, 1]

    first = np.zeros(len(masses), dtype=int)
    pending = np.arange(len(masses))
    for start in range(0, len(grid), _RAY_BLOCK):
        sym_lap, sym_mass = symbols(grid[start:start + _RAY_BLOCK])
        if (np.all(sym_mass >= 0)
                and not np.any(sym_lap - masses[pending].min() * sym_mass >= 0)):
            continue
        nonneg = sym_lap[None, :] - masses[pending, None] * sym_mass[None, :] >= 0
        if start == 0 and np.any(nonneg[:, 0]):
            raise NoCrossingError(
                "no dispersion-relation crossing: the symbol is nonnegative at r = 0 "
                "(wavenumber too small for this stencil?)")
        crossed = nonneg.any(axis=1)
        first[pending[crossed]] = start + nonneg[crossed].argmax(axis=1)
        pending = pending[~crossed]
        if not len(pending):
            break
    else:
        raise NoCrossingError(
            f"no dispersion-relation crossing for r in (0, {grid[-1]:g}] "
            f"(wavenumber too large for this stencil?)")
    lo, hi = grid[first - 1], grid[first]
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        sym_lap, sym_mass = symbols(mid)
        above = sym_lap - masses * sym_mass >= 0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
    return 0.5 * (lo + hi)


def discrete_radius(stencil, phi, ray_resolution=1e-3):
    """Distance from the origin to the first sign switch of the real symbol.

    Samples along theta = r * unit(phi) at the given resolution, from r = 0
    up to the first nonnegative sample (at most pi*sqrt(dim)), then refines
    the bracketed switch by bisection to below 1e-9. The stencil carries its
    own mass term.
    """
    try:
        radius = _first_crossings(_fold(stencil, stencil), [0.0], phi, ray_resolution, 40)
    except NoCrossingError as exc:
        raise NoCrossingError(f"{exc} along phi = {phi}") from None
    return float(radius[0])


@lru_cache(maxsize=None)
def _fine_pair(dim):
    return laplacian_and_mass_stencils(dim, TUNED_SCHEME)


@lru_cache(maxsize=None)
def _composite_pair(dim, intergrid):
    """Double-Galerkin composites of the fine (L, M) pair, through
    the two coarsenings of the intergrid scheme in INTERGRID.

    Splitting the composite into Laplacian and mass parts keeps the real
    shift a scalar multiplier, so one composition serves every alpha.
    """
    lap, mass = _fine_pair(dim)
    for restriction, prolongation in INTERGRID[intergrid]:
        R = restriction_stencil(dim, restriction)
        P = transpose_scale(restriction_stencil(dim, prolongation))
        lap, mass = galerkin_stencil(lap, R, P), galerkin_stencil(mass, R, P)
    return lap, mass


@lru_cache(maxsize=None)
def _folded_pair(dim, intergrid=None):
    """_fold of the fine pair (intergrid None) or of an intergrid's composite."""
    return _fold(*(_fine_pair(dim) if intergrid is None else _composite_pair(dim, intergrid)))


def coarsest_stencil(config, alpha):
    """Effective coarsest-level stencil of the alpha-shifted fine operator."""
    lap3, mass3 = _composite_pair(config.dim, config.intergrid)
    return lap3 + mass3 * (-((alpha * config.kh) ** 2))


def _snapped_radii(config, alphas, phi):
    """Ray-grid-snapped radii at one direction: (r3 for each alpha, r1).

    A snapped radius is the bracket end nearer the crossing, so one halving,
    a single symbol evaluation at the bracket midpoint, decides it.
    """
    res = config.ray_resolution
    kh = config.kh
    alphas = np.asarray(alphas, dtype=float)
    try:
        r1 = _first_crossings(_folded_pair(config.dim), [kh ** 2], phi, res, 1)
        r3 = _first_crossings(_folded_pair(config.dim, config.intergrid),
                              (alphas * kh) ** 2, phi, res, 1)
    except NoCrossingError as exc:
        shift = (f"alpha = {alphas[0]:g}" if len(alphas) == 1
                 else f"alpha in [{alphas.min():g}, {alphas.max():g}]")
        raise NoCrossingError(f"{exc} at G = {config.G:g}, {shift}") from None
    r1 = res * np.round(r1[0] / res)
    if not r1:
        raise NoCrossingError(
            f"ray_resolution = {res:g} is too coarse: the fine radius snaps to 0 "
            f"at G = {config.G:g}")
    return res * np.round(r3 / res), r1


def grid_to_grid_error(config, alpha, phi):
    """e_g(alpha, phi) = r3 / (4 r1) - 1 with ray-grid-snapped radii."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    r3, r1 = _snapped_radii(config, [alpha], phi)
    return float(r3[0] / (4.0 * r1) - 1.0)


def optimize_shift(config):
    """Exhaustive min-max search for the real shift.

    Minimizes max over the direction grid of |e_g(alpha, phi)| over the alpha
    grid; ties break toward the smaller alpha. Returns (alpha_star,
    max_eg_star, DispersionScan).
    """
    lo, hi = config.alpha_range
    count = int(round((hi - lo) / config.alpha_resolution)) + 1
    alphas = lo + config.alpha_resolution * np.arange(count)
    directions = direction_grid(config)
    errors = np.empty((count, len(directions)))
    for j, phi in enumerate(directions):
        r3, r1 = _snapped_radii(config, alphas, phi)
        errors[:, j] = r3 / (4.0 * r1) - 1.0
    objective = np.abs(errors).max(axis=1)
    best = int(np.argmin(objective))
    scan = DispersionScan(
        directions=directions,
        alphas=alphas,
        errors=errors,
        alpha_star=float(alphas[best]),
        max_eg_star=float(objective[best]),
    )
    return scan.alpha_star, scan.max_eg_star, scan


def ncrit_bounds(G, max_eg):
    """Grid-size range [G/(4 e), G/(2 e)] rounded half-up to integers.

    Past roughly this many points per direction the accumulated phase
    misalignment defeats the coarse-grid correction.
    """
    if not 0 < max_eg < math.inf:
        raise ValueError(f"dispersion error must be finite and positive, got {max_eg}")
    if not 0 < G < math.inf:
        raise ValueError(f"G must be finite and positive, got {G}")
    lo = math.floor(G / (4.0 * max_eg) + 0.5)
    hi = math.floor(G / (2.0 * max_eg) + 0.5)
    return int(lo), int(hi)


def classical_dispersion_error(stencil, G, phi, ray_resolution=1e-3):
    """Single-grid dispersion error r / r1(phi) - 1 at kh = 2 pi / G.

    The stencil must already carry its mass term at that kh.
    """
    if not 2 < G < math.inf:
        raise ValueError(f"G must be finite and exceed 2, got {G}")
    r = 2.0 * math.pi / G
    return r / discrete_radius(stencil, phi, ray_resolution) - 1.0


def export_dispersion_curve(config, alpha, angle_resolution=0.01):
    """Dense polar curves of the coarsest radius against the stretched fine radius.

    2D: the sector [0, pi/4] is sampled at angle_resolution and unfolded to
    the full circle via the 8-fold stencil symmetry, with a closing row at
    2 pi. 3D: the (azimuth, polar) sector box is sampled densely instead.
    Radii follow the same ray-grid snapping as grid_to_grid_error.
    """
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if not (isinstance(angle_resolution, numbers.Real) and math.isfinite(angle_resolution)
            and angle_resolution > 0):
        raise ValueError(
            f"angle_resolution must be finite and positive, got {angle_resolution!r}")
    angles = _arange_length(math.pi / 4, angle_resolution) + 1.0
    if config.dim == 3:
        angles *= _arange_length(math.pi / 2 - POLAR_LO, angle_resolution) + 1.0
    if not angles <= MAX_VALUES:
        raise ValueError(
            f"angle_resolution = {angle_resolution} gives {angles:.3g} angles, more than "
            f"the limit of {MAX_VALUES:.0e}")

    def radii(phi):
        r3, r1 = _snapped_radii(config, [alpha], phi)
        return r3[0], 4.0 * r1

    if config.dim == 2:
        base = np.arange(0.0, math.pi / 4, angle_resolution)
        base = np.append(base, math.pi / 4)
        vals = np.array([radii(t) for t in base])
        # octant -> quadrant: reflect about pi/4, dropping the duplicated seam
        quarter_angles = np.concatenate([base, math.pi / 2 - base[-2::-1]])
        quarter_vals = np.concatenate([vals, vals[-2::-1]])
        angles = [quarter_angles[:-1] + s * math.pi / 2 for s in range(4)]
        values = [quarter_vals[:-1]] * 4
        angles.append(np.array([2.0 * math.pi]))
        values.append(quarter_vals[:1])
        rows = np.column_stack([np.concatenate(angles), np.concatenate(values)])
        return DispersionCurve(("phi", "r_coarse", "r_fine_stretched"), rows)

    azimuth = np.append(np.arange(0.0, math.pi / 4, angle_resolution), math.pi / 4)
    polar = np.append(np.arange(POLAR_LO, math.pi / 2, angle_resolution), math.pi / 2)
    rows = np.empty((azimuth.size * polar.size, 4))
    i = 0
    for az in azimuth:
        for pol in polar:
            r3, r1x4 = radii((az, pol))
            rows[i] = (az, pol, r3, r1x4)
            i += 1
    return DispersionCurve(("azimuth", "polar", "r_coarse", "r_fine_stretched"), rows)
