"""Grid-to-grid dispersion analysis for tuning the coarsest-level real shift.

A stencil's dispersion relation is the zero set of its Fourier symbol; along a
ray theta = r * unit(phi) the relation appears as the first sign switch of the
real symbol. The grid-to-grid error compares the coarsest-level radius with
the fine-grid radius stretched by the coarsening factor 4,

    e_g(alpha, phi) = r3(alpha, phi) / (4 r1(phi)) - 1,

where r3 comes from the double-Galerkin composite of the real-shifted fine
operator. The composite is the one the solver builds: the hierarchy's own
1D Galerkin products (multigrid.py) coarsen the fine Laplacian and mass
stencils, and each coarse coefficient is read at an unknown that no
boundary row of the transfers reaches. Both radii are snapped to the
nearest sample of the 1e-3 ray grid before forming the ratio; the tabulated
optima are reproduced under this convention and not under smooth radii, so
it is part of the protocol rather than an implementation detail. So are the
directions, 0.1 rad apart in the symmetry sector, and the 5e-4 alpha step
of the search: these resolutions are fixed, and the shift table records no
other.

The one first-crossing search returns the snapped radius itself: the first
nonnegative sample brackets the crossing, and the sign of the symbol at the
bracket midpoint picks the nearer end. No smooth radius is computed.
"""

import itertools
import math
import numbers
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from . import multigrid
from .discretization import _check_shifts, _integer, _real, laplacian_and_mass_stencils
from .stencils import INTERGRID, offsets

__all__ = [
    "AnalysisConfig",
    "DispersionScan",
    "DispersionCurve",
    "NoCrossingError",
    "direction_grid",
    "optimize_shift",
    "ncrit_bounds",
    "export_dispersion_curve",
]

# The intergrid schemes the shift is tuned for. Bilinear transfers serve only
# the re-discretized baseline, whose coarsest level is no Galerkin composite.
TUNED_INTERGRIDS = tuple(name for name in INTERGRID if name != "bilinear")

# The fine scheme the shift is tuned for, and so the one every tuned
# hierarchy is built with.
TUNED_SCHEME = "fourth-order"

# The sampling the tabulated optima come out under: directions PHI_RESOLUTION
# apart in the symmetry sector, radii on a RAY_RESOLUTION ray grid.
PHI_RESOLUTION = 0.1
RAY_RESOLUTION = 1e-3

# Polar sector floor: pi/2 - arccos(1/sqrt(3)), the cube-diagonal colatitude.
POLAR_LO = math.pi / 2 - math.acos(1.0 / math.sqrt(3.0))

# The most values an analysis array may hold, 800 MB of float64: the search's
# alpha x ray-block comparison, which bounds the alpha x direction error
# table, and the angles of a dispersion curve.
MAX_VALUES = 10 ** 8


class NoCrossingError(ValueError):
    """The symbol has no dispersion-relation crossing along the sampled ray."""


@dataclass(frozen=True)
class AnalysisConfig:
    """One (dim, G, intergrid) analysis and the alpha grid of its search.

    The directions and the ray grid are fixed (PHI_RESOLUTION,
    RAY_RESOLUTION); alpha_range widens the search for a G outside the shift
    table, and alpha_resolution is the step of a shift scan.
    """

    dim: int
    G: float
    intergrid: str = "cubic"
    alpha_resolution: float = 5e-4
    alpha_range: tuple = (0.98, 1.06)

    def __post_init__(self):
        object.__setattr__(self, "dim", _integer(self.dim, "analysis dim"))
        object.__setattr__(self, "G", _real(self.G, "G"))
        if self.dim not in (2, 3):
            raise ValueError(f"analysis dim must be 2 or 3, got {self.dim}")
        if not 8 < self.G < math.inf:
            raise ValueError(
                f"G must be finite and exceed 8 so two coarsenings keep G/4 > 2, "
                f"got {self.G}")
        if not 0 < self.alpha_resolution < math.inf:
            raise ValueError(
                f"alpha_resolution must be finite and positive, got {self.alpha_resolution}")
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
        if not shifts * _RAY_BLOCK <= MAX_VALUES:
            raise ValueError(
                f"alpha_range {self.alpha_range} and alpha_resolution "
                f"{self.alpha_resolution} give {shifts:.3g} shifts; a {_RAY_BLOCK}-sample "
                f"search block would hold {shifts * _RAY_BLOCK:.3g} values, more than the "
                f"limit of {MAX_VALUES:.0e}")
        _check_shifts(hi, 0.0)

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


def _closed_range(lo, hi, step):
    """np.arange(lo, hi, step) closed by hi, which it holds once: a sample
    within 1e-9 of the span from hi is hi itself."""
    samples = np.arange(lo, hi, step)
    return np.append(samples[samples < hi - 1e-9 * (hi - lo)], hi)


def direction_grid(config):
    """Propagation directions covering the symmetry sector.

    2D: azimuth angles in [0, pi/4). 3D: (azimuth, polar) pairs with azimuth
    in [0, pi/4) and polar in [pi/2 - arccos(1/sqrt(3)), pi/2). The remaining
    directions repeat these errors by symmetry. PHI_RESOLUTION apart, they
    number 8 in 2D and 80 in 3D.
    """
    azimuth = np.arange(0.0, math.pi / 4, PHI_RESOLUTION)
    if config.dim == 2:
        return azimuth
    polar = np.arange(POLAR_LO, math.pi / 2, PHI_RESOLUTION)
    az, pol = np.meshgrid(azimuth, polar, indexing="ij")
    return np.column_stack([az.ravel(), pol.ravel()])


def _unit(dim, phi):
    angles = dim - 1
    if np.size(phi) != angles:
        raise ValueError(
            f"direction phi must hold {angles} angle{'s' * (angles > 1)} in {dim}D, "
            f"got {np.size(phi)}: {phi}")
    if not np.all(np.isfinite(phi)):
        raise ValueError(f"direction phi must be finite, got {phi}")
    if dim == 2:
        angle = float(np.asarray(phi).reshape(()))
        return np.array([math.cos(angle), math.sin(angle)])
    azimuth, polar = (float(v) for v in np.asarray(phi).ravel())
    return np.array([
        math.sin(polar) * math.cos(azimuth),
        math.sin(polar) * math.sin(azimuth),
        math.cos(polar),
    ])


def _ray_grid(dim):
    """The ray grid r = 0, RAY_RESOLUTION, ..., out to about pi*sqrt(dim)."""
    samples = math.floor(math.pi * math.sqrt(dim) / RAY_RESOLUTION + 0.5)
    return RAY_RESOLUTION * np.arange(0.0, samples + 1.0)


# Ray samples tabulated at a time; the search stops after the block in which
# the last mass crosses.
_RAY_BLOCK = 512

# Directions a fold keeps the blocks of: more than the 80 of the 3D grid.
_RAY_DIRECTIONS = 128


@dataclass(eq=False)
class _Fold:
    """A (lap, mass) pair folded by _fold, and the read-only (samples, 2)
    symbol blocks tabulated along the _RAY_DIRECTIONS directions searched last."""

    dim: int
    sums: np.ndarray
    pairs: np.ndarray
    offsets: np.ndarray
    rays: OrderedDict = field(default_factory=OrderedDict)

    def ray(self, unit):
        """The blocks along the direction `unit`: a list the search extends."""
        key = tuple(unit)
        blocks = self.rays[key] = self.rays.pop(key, [])    # now the most recent
        if len(self.rays) > _RAY_DIRECTIONS:
            self.rays.popitem(last=False)
        return blocks


def _fold(lap, mass):
    """The (lap, mass) pair folded for _first_crossings, with an empty ray cache.

    The two stencils share their extents, as every library pair does. Offset
    n-1-i of either is the negative of offset i in C order, so the fold keeps
    the first n//2 offsets (as floats) and, per stencil, the pair sums
    -2 (c_i + c_{n-1-i}) and the fsum of all stored coefficients.
    """
    coeffs = np.column_stack([lap.ravel(), mass.ravel()])
    sums = np.array([math.fsum(column) for column in coeffs.T])
    half = len(coeffs) // 2
    pairs = -2.0 * (coeffs[:half] + coeffs[:half:-1])
    return _Fold(lap.ndim, sums, pairs, offsets(lap.shape)[:half].astype(float))


def _first_crossings(folded, masses, phi):
    """First sign switch of symbol(lap) - m * symbol(mass) along phi, per mass
    m, snapped to the ray grid.

    `folded` is _fold(lap, mass). The real symbols are tabulated on
    _ray_grid(dim) in blocks of _RAY_BLOCK samples until every mass has
    crossed, as sum(c) - 2 sum(c sin^2(theta.o/2)) with one sin^2 table over
    the folded offsets, so no O(1) terms cancel near a crossing (sum(c) is the
    fsum of the stored coefficients). A block depends only on the fold, the
    direction and its place on the ray, so it is tabulated once and kept in
    folded.rays for later searches along that direction. The first
    nonnegative sample brackets each crossing; the snapped radius is its
    lower end where the symbol is nonnegative at the bracket midpoint, else
    the upper.

    Where the mass symbol s is nonnegative, fl(m * s) does not decrease as m
    grows and fl(a - x) does not increase as x grows, so the masses that give
    a nonnegative value at a sample are a prefix of the ascending ones. A
    block is skipped where the smallest pending mass stays negative; else
    each sample's prefix length is bisected, and mass i crosses at the first
    sample whose prefix holds it. Every library fold has s >= 0 on the whole
    ray grid; a block where s < 0 raises a RuntimeError.
    """
    unit = _unit(folded.dim, phi)
    half_proj = 0.5 * (folded.offsets @ unit)
    blocks = folded.ray(unit)
    masses = np.asarray(masses, dtype=float)
    grid = _ray_grid(folded.dim)
    buffer = np.empty((max(min(len(grid), _RAY_BLOCK), len(masses)), len(half_proj)))

    def symbols(r):
        table = np.multiply.outer(r, half_proj, out=buffer[:len(r)])
        np.square(np.sin(table, out=table), out=table)
        return table @ folded.pairs + folded.sums

    first = np.zeros(len(masses), dtype=int)
    pending = np.argsort(masses, kind="stable")
    for index, start in enumerate(range(0, len(grid), _RAY_BLOCK)):
        if index == len(blocks):
            blocks.append(symbols(grid[start:start + _RAY_BLOCK]))
            blocks[-1].setflags(write=False)
        sym_lap, sym_mass = blocks[index].T
        if not np.all(sym_mass >= 0):
            angles = ", ".join(map("{:g}".format, np.ravel(phi)))
            raise RuntimeError(
                f"the mass symbol is negative along phi = {angles} in block {index}, "
                f"r in [{grid[start]:g}, {grid[start + len(sym_mass) - 1]:g}]; "
                f"the bisection needs s >= 0")
        nonneg = sym_lap - masses[pending[0]] * sym_mass >= 0
        if start == 0 and nonneg[0]:    # some mass is nonnegative at r = 0 iff the smallest is
            raise NoCrossingError(
                "no dispersion-relation crossing: the symbol is nonnegative at r = 0 "
                "(wavenumber too small for this stencil?)")
        if not nonneg.any():
            continue
        # counts start at 0 or 1, so halving steps from the largest power of
        # two below len(pending) reach every prefix length
        counts, ascending = nonneg.astype(int), masses[pending]
        step = (1 << (len(pending) - 1).bit_length()) >> 1
        while step:
            longer = np.minimum(counts + step, len(pending))
            holds = sym_lap - ascending[longer - 1] * sym_mass >= 0
            counts = np.where(holds, longer, counts)
            step >>= 1
        crossing = counts.max()
        first[pending[:crossing]] = start + np.searchsorted(
            np.maximum.accumulate(counts), np.arange(crossing), side="right")
        pending = pending[crossing:]
        if not len(pending):
            break
    else:
        raise NoCrossingError(
            f"no dispersion-relation crossing for r in (0, {grid[-1]:g}] "
            f"(wavenumber too large for this stencil?)")
    lo, hi = grid[first - 1], grid[first]
    sym_lap, sym_mass = symbols(0.5 * (lo + hi)).T
    return np.where(sym_lap - masses * sym_mass >= 0, lo, hi)


def _read_only(*stencils):
    """The stencils, each made read-only, as a tuple."""
    for stencil in stencils:
        stencil.setflags(write=False)
    return stencils


@lru_cache(maxsize=None)
def _fine_pair(dim):
    """The fine (L, M) pair of TUNED_SCHEME, read-only."""
    return _read_only(*laplacian_and_mass_stencils(dim, TUNED_SCHEME))


# Unknowns per axis of the fine grid the composites are read off, a grid of
# 33 nodes less its Dirichlet layer: the fewest that two coarsenings can
# halve such that no transfer row renormalized at the boundary reaches the
# centre of the coarsest grid, here of 7 unknowns. On 23 unknowns the cubic
# rows reach it and the cubic composites are off by 4e-3.
_COMPOSITE_UNKNOWNS = 31


@lru_cache(maxsize=None)
def _composite_pair(dim, intergrid):
    """Double-Galerkin composites of the fine (L, M) pair through the two
    coarsenings of an INTERGRID scheme: the hierarchy's own 1D Galerkin
    products on a _COMPOSITE_UNKNOWNS grid, read at the coarsest grid's centre.
    Splitting L and M keeps the real shift a scalar multiplier, so one
    composition serves every alpha. Both composites are read-only."""
    lap, mass = _fine_pair(dim)
    shape = (_COMPOSITE_UNKNOWNS,) * dim
    shifts = multigrid._unit_shifts(lap.shape, shape)
    for orders in INTERGRID[intergrid]:
        shifts = multigrid._coarsen_shifts(shifts, orders)
    centre = (shifts[0][1].shape[-1] // 2,) * dim
    extents = tuple(len(axis_offsets) for axis_offsets, _ in shifts)

    def composite(stencil):
        planes = multigrid._laplacian_planes(stencil, shifts)
        return np.reshape([plane[centre] for _, plane in planes], extents)

    return _read_only(composite(lap), composite(mass))


@lru_cache(maxsize=None)
def _folded_pair(dim, intergrid=None):
    """_fold of the fine pair (intergrid None) or of an intergrid's composite."""
    return _fold(*(_fine_pair(dim) if intergrid is None else _composite_pair(dim, intergrid)))


def coarsest_stencil(config, alpha):
    """Effective coarsest-level stencil of the alpha-shifted fine operator,
    lap3 - (alpha kh)^2 mass3 of the composites: a new real, centered array
    with an odd extent along every axis (stencils.py)."""
    lap3, mass3 = _composite_pair(config.dim, config.intergrid)
    return lap3 - (alpha * config.kh) ** 2 * mass3


def _snapped_radii(config, alphas, phi):
    """Ray-grid-snapped radii at one direction: (r3 for each alpha, r1)."""
    kh = config.kh
    alphas = np.asarray(alphas, dtype=float)
    try:
        r1 = _first_crossings(_folded_pair(config.dim), [kh ** 2], phi)[0]
        r3 = _first_crossings(_folded_pair(config.dim, config.intergrid),
                              (alphas * kh) ** 2, phi)
    except NoCrossingError as exc:
        shift = (f"alpha = {alphas[0]:g}" if len(alphas) == 1
                 else f"alpha in [{alphas.min():g}, {alphas.max():g}]")
        raise NoCrossingError(f"{exc} at G = {config.G:g}, {shift}") from None
    if not r1:
        raise NoCrossingError(
            f"G = {config.G:g} is too large: the fine radius snaps to 0 on the "
            f"{RAY_RESOLUTION:g} ray grid")
    return r3, r1


def optimize_shift(config):
    """Exhaustive min-max search for the real shift.

    Minimizes max over the direction grid of |e_g(alpha, phi)|, with
    e_g = r3 / (4 r1) - 1 of the snapped radii, over the alpha
    grid lo, lo + alpha_resolution, ..., at most hi; ties break toward the
    smaller alpha. Returns (alpha_star, max_eg_star, DispersionScan).
    """
    lo, hi = config.alpha_range
    # the steps that fit in [lo, hi], forgiving the rounding of the quotient
    count = math.floor((hi - lo) / config.alpha_resolution + 1e-9) + 1
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


def export_dispersion_curve(config, alpha, angle_resolution=0.01):
    """Dense polar curves of the coarsest radius against the stretched fine radius.

    2D: the sector [0, pi/4] is sampled at angle_resolution and unfolded to
    the full circle via the 8-fold stencil symmetry, with a closing row at
    2 pi. 3D: the (azimuth, polar) sector box is sampled densely instead.
    Radii follow the same ray-grid snapping as the shift search.
    """
    _check_shifts(alpha, 0.0)
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

    azimuth = _closed_range(0.0, math.pi / 4, angle_resolution)
    if config.dim == 2:
        vals = np.array([radii(t) for t in azimuth])
        # octant -> quadrant: reflect about pi/4, dropping the duplicated seam
        quarter_angles = np.concatenate([azimuth, math.pi / 2 - azimuth[-2::-1]])
        quarter_vals = np.concatenate([vals, vals[-2::-1]])
        angles = [quarter_angles[:-1] + s * math.pi / 2 for s in range(4)]
        values = [quarter_vals[:-1]] * 4
        angles.append(np.array([2.0 * math.pi]))
        values.append(quarter_vals[:1])
        rows = np.column_stack([np.concatenate(angles), np.concatenate(values)])
        return DispersionCurve(("phi", "r_coarse", "r_fine_stretched"), rows)

    polar = _closed_range(POLAR_LO, math.pi / 2, angle_resolution)
    rows = np.array([(az, pol, *radii((az, pol)))
                     for az, pol in itertools.product(azimuth, polar)])
    return DispersionCurve(("azimuth", "polar", "r_coarse", "r_fine_stretched"), rows)
