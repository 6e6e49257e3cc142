"""Fine-grid Helmholtz assembly: difference schemes, media, sponge layers, sources.

An operator is filled offset by offset into one set of stencil arrays
(GridStencil) and turned into CSR directly. The multigrid hierarchy builds
the mass term on its own, once, since it coarsens only that part, the only
one that varies.

The operator convention is H = (1/h^2) L - k^2(x) M with dimensionless stencils
L, M and k(x) = omega * kappa(x). Real and complex shifts enter through the mass
coefficient: the assembled matrix is (1/h^2) L - (alpha^2 + i(gamma(x) + beta))
k^2(x) M, where gamma is the sponge-layer attenuation profile.
"""

import json
import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy.sparse as sp

from .stencils import Stencil

__all__ = [
    "SlownessModel",
    "HelmholtzProblem",
    "GridStencil",
    "SparseOperator",
    "make_model",
    "load_model",
    "omega_for_ppw",
    "laplacian_and_mass_stencils",
    "attenuation_profile",
    "assemble_operator",
    "mass_term",
    "point_source",
]

MODEL_KINDS = ("homogeneous", "linear", "wedge")
VALUE_KINDS = ("velocity", "slowness", "slowness-squared")

# The coarsest-level scheme of the re-discretized baseline, 2D only: a
# 9-point pair of the Jo, Shin and Suh (1996) form with the dispersion-fitted
# weights (a, b, c) of its name.
REDISC_SCHEME = "jss(0.6054,1.0532,0.0002)"


def _integer(value, what):
    """value as an int; a bool, a fraction or a non-number is a ValueError
    that names it."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_shifts(alpha, beta):
    """Raise a ValueError naming alpha unless it is positive with a finite
    square, or beta unless it is finite and nonnegative."""
    if not (math.isfinite(alpha) and alpha > 0):
        raise ValueError(f"alpha must be finite and positive, got {alpha}")
    if not math.isfinite(alpha * alpha):
        raise ValueError(f"alpha must be finite when squared; got {alpha}, whose square "
                         f"overflows to inf")
    if not (math.isfinite(beta) and beta >= 0):
        raise ValueError(f"beta must be finite and nonnegative, got {beta}")


@dataclass(frozen=True)
class SlownessModel:
    """Vertex-centered grid of squared slowness kappa^2(x).

    `cells` counts interior cells per axis before padding; the nodal grid has
    cells + 1 points per axis. Depth is the last array axis, top at index 0.
    """

    dim: int
    cells: tuple
    h: float
    kappa2: np.ndarray

    def __post_init__(self):
        cells = tuple(_integer(c, f"cell count in {self.cells!r}") for c in self.cells)
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "kappa2", np.asarray(self.kappa2, dtype=float))
        if self.dim not in (2, 3):
            raise ValueError(f"dim must be 2 or 3, got {self.dim}")
        if len(cells) != self.dim or any(c < 1 for c in cells):
            raise ValueError(f"need {self.dim} positive cell counts, got {cells}")
        if not (math.isfinite(self.h) and self.h > 0):
            raise ValueError(f"spacing h must be finite and positive, got {self.h}")
        expected = tuple(c + 1 for c in cells)
        if self.kappa2.shape != expected:
            raise ValueError(
                f"kappa2 shape {self.kappa2.shape} does not match the "
                f"vertex-centered grid {expected} for {cells} cells")
        if not np.all(np.isfinite(self.kappa2)) or np.any(self.kappa2 <= 0):
            raise ValueError("kappa2 must be strictly positive and finite")

    @property
    def nodes(self):
        return self.kappa2.shape

    @property
    def kappa2_max(self):
        return float(self.kappa2.max())


def make_model(kind, kappa2_range, cells, h):
    """Build one of the synthetic media.

    homogeneous: kappa^2 constant at the upper range endpoint.
    linear: slowness kappa varies linearly with depth from sqrt(lo) at the top
        to sqrt(hi) at the bottom.
    wedge: three constant-kappa^2 layers (lo, midpoint, hi top to bottom)
        separated by straight dipping interfaces that pinch together at the
        far side of the first axis.
    """
    lo, hi = float(kappa2_range[0]), float(kappa2_range[1])
    if not (0.0 < lo <= hi):
        raise ValueError(f"kappa2 range must satisfy 0 < lo <= hi, got [{lo}, {hi}]")
    cells = tuple(_integer(c, f"cell count in {cells!r}") for c in cells)
    if any(c < 1 for c in cells):
        raise ValueError(f"cell counts must be positive, got {cells}")
    dim = len(cells)
    nodes = tuple(c + 1 for c in cells)

    if kind == "homogeneous":
        k2 = np.full(nodes, hi)
    elif kind == "linear":
        t = np.linspace(0.0, 1.0, nodes[-1])
        kappa = (1.0 - t) * math.sqrt(lo) + t * math.sqrt(hi)
        k2 = np.broadcast_to(kappa ** 2, nodes).copy()
    elif kind == "wedge":
        x = np.linspace(0.0, 1.0, nodes[0])
        z = np.linspace(0.0, 1.0, nodes[-1])
        xs = x.reshape((-1,) + (1,) * (dim - 1))
        zs = z.reshape((1,) * (dim - 1) + (-1,))
        z1 = 1.0 / 3.0 + xs / 6.0
        z2 = 2.0 / 3.0 - xs / 6.0
        mid = 0.5 * (lo + hi)
        k2 = np.where(zs < z1, lo, np.where(zs < z2, mid, hi))
        k2 = np.broadcast_to(k2, nodes).copy()
    else:
        raise ValueError(f"unknown model kind {kind!r}; choose from {MODEL_KINDS}")
    return SlownessModel(dim, cells, h, k2)


def load_model(path, meta):
    """Read a raw little-endian float32 grid described by its JSON metadata.

    `meta` is either a mapping or a path to a JSON file with keys dim, shape
    (nodes per axis), h, and kind in {velocity, slowness, slowness-squared}.
    Velocities are in km/s and convert through kappa^2 = 1/v^2. The file is
    row-major with the last axis fastest. Metadata that is missing a key or
    holds a bad value is a ValueError that names it.
    """
    if not isinstance(meta, Mapping):
        meta = json.loads(Path(meta).read_text())
    if not isinstance(meta, Mapping):
        raise ValueError(f"model metadata must be a JSON object, got {meta!r}")
    missing = [key for key in ("dim", "shape", "h", "kind") if key not in meta]
    if missing:
        raise ValueError(f"model metadata is missing {missing}")
    dim = _integer(meta["dim"], "metadata dim")
    if not isinstance(meta["shape"], (list, tuple)):
        raise ValueError(f"metadata shape must be a list, got {meta['shape']!r}")
    shape = tuple(_integer(s, f"node count in metadata shape {meta['shape']!r}")
                  for s in meta["shape"])
    h, kind = meta["h"], meta["kind"]
    if isinstance(h, bool) or not isinstance(h, numbers.Real):
        raise ValueError(f"metadata h must be a number, got {h!r}")
    if len(shape) != dim:
        raise ValueError(f"metadata dim {dim} does not match shape {shape}")
    if kind not in VALUE_KINDS:
        raise ValueError(f"unknown value kind {kind!r}; choose from {VALUE_KINDS}")

    raw = np.fromfile(path, dtype="<f4")
    expected = int(np.prod(shape))
    if raw.size != expected:
        raise ValueError(
            f"model file size mismatch for {path}: metadata implies {expected} "
            f"float32 values ({4 * expected} bytes), file holds {raw.size} "
            f"({4 * raw.size} bytes)")
    values = raw.astype(float).reshape(shape)
    if kind == "velocity":
        if np.any(values <= 0):
            raise ValueError("velocity grid must be strictly positive")
        kappa2 = 1.0 / values ** 2
    elif kind == "slowness":
        kappa2 = values ** 2
    else:
        kappa2 = values
    cells = tuple(s - 1 for s in shape)
    return SlownessModel(dim, cells, float(h), kappa2)


def omega_for_ppw(model, G):
    """Angular frequency giving G points per wavelength where the medium is slowest."""
    if not (math.isfinite(G) and G > 0):
        raise ValueError(f"points per wavelength G must be finite and positive, got {G}")
    return 2.0 * math.pi / (G * model.h * math.sqrt(model.kappa2_max))


@dataclass(frozen=True)
class HelmholtzProblem:
    """A model plus frequency, sponge layer, and source placement.

    The absorbing layer adds `pad` cells on every face; with free_surface_top
    the top face of the depth axis (last axis, index 0) is left bare. The
    source index is relative to the interior grid and defaults to the center
    of the top face, one node below it when that face carries the Dirichlet
    boundary itself (free surface, or no padding at all) since a boundary row
    cannot carry a source.
    """

    model: SlownessModel
    omega: float
    pad: int = 20
    gamma_max: float = 1.0
    source: tuple = None
    free_surface_top: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.omega) and self.omega > 0):
            raise ValueError(f"omega must be finite and positive, got {self.omega}")
        if _integer(self.pad, "pad") < 0:
            raise ValueError(f"pad must be nonnegative, got {self.pad}")
        if not (math.isfinite(self.gamma_max) and self.gamma_max >= 0):
            raise ValueError(
                f"gamma_max must be finite and nonnegative, got {self.gamma_max}")
        nodes = self.model.nodes
        if self.source is None:
            depth = 0 if self.pad_lo[-1] > 0 else 1
            source = tuple(n // 2 for n in nodes[:-1]) + (depth,)
        else:
            source = tuple(_integer(s, f"source index in {self.source!r}")
                           for s in self.source)
        object.__setattr__(self, "source", source)
        if len(source) != self.model.dim or any(
                not (0 <= s < n) for s, n in zip(source, nodes)):
            raise ValueError(f"source {source} outside the interior grid {nodes}")
        padded = tuple(s + lo for s, lo in zip(source, self.pad_lo))
        if any(p == 0 or p == n - 1 for p, n in zip(padded, self.padded_shape)):
            raise ValueError(
                f"source {source} lands on the boundary row of the padded grid "
                f"(padded index {padded}); a Dirichlet row cannot carry a source")
        G = self.points_per_wavelength
        if G < 2.0:
            raise ValueError(
                f"{G:.3f} points per wavelength at the largest slowness; "
                "need at least 2 (Nyquist)")

    @property
    def points_per_wavelength(self):
        kmax = self.omega * math.sqrt(self.model.kappa2_max)
        return 2.0 * math.pi / (kmax * self.model.h)

    @property
    def pad_lo(self):
        pads = [self.pad] * self.model.dim
        if self.free_surface_top:
            pads[-1] = 0
        return tuple(pads)

    @property
    def pad_hi(self):
        return (self.pad,) * self.model.dim

    @property
    def padded_shape(self):
        return tuple(n + lo + hi for n, lo, hi in
                     zip(self.model.nodes, self.pad_lo, self.pad_hi))


@dataclass(frozen=True)
class GridStencil:
    """Variable-coefficient stencil operator on a vertex grid.

    offsets has shape (n_offsets, dim), distinct and in lexicographic order;
    coeffs has shape (n_offsets, *grid_shape), and coeffs[e][x] is the entry
    in row x and column x + offsets[e]. Only interior rows are stored:
    boundary rows are zero here and written as identity rows by tocsr.
    Helmholtz operators are complex, the mass operator is real. reach is
    the largest offset along any axis.
    """

    offsets: np.ndarray
    coeffs: np.ndarray

    def __post_init__(self):
        offsets = np.asarray(self.offsets, dtype=np.int64)
        object.__setattr__(self, "offsets", offsets)
        if offsets.ndim != 2 or offsets.shape != (len(self.coeffs), self.coeffs.ndim - 1):
            raise ValueError(f"offsets of shape {offsets.shape} do not fit coefficients "
                             f"of shape {self.coeffs.shape}")
        span = 2 * self.reach + 1
        keys = offsets @ span ** np.arange(offsets.shape[1])[::-1]
        if np.any(np.diff(keys) <= 0):
            raise ValueError("stencil offsets must be distinct and in "
                             "lexicographic order")

    @property
    def reach(self):
        return int(np.abs(self.offsets).max(initial=0))

    @property
    def grid_shape(self):
        return self.coeffs.shape[1:]

    def tocsr(self):
        """CSR matrix of the operator, with identity boundary rows.

        Rows come in grid order and the columns of a row ascend with the
        lexicographic offsets, so nothing is sorted; exact zeros are dropped.
        """
        shape = self.grid_shape
        n = math.prod(shape)
        flat = self.offsets @ [math.prod(shape[d + 1:]) for d in range(len(shape))]
        values = np.ascontiguousarray(self.coeffs.reshape(len(flat), n).T)
        values[_boundary_mask(shape).ravel(), np.flatnonzero(flat == 0)] = 1.0
        keep = values != 0
        index = np.int32 if values.size < 2 ** 31 else np.int64
        indptr = np.zeros(n + 1, dtype=index)
        np.cumsum(keep.sum(axis=1), out=indptr[1:])
        columns = (np.arange(n, dtype=index)[:, None] + flat.astype(index))[keep]
        return sp.csr_matrix((values[keep], columns, indptr), shape=(n, n))


@dataclass(frozen=True)
class SparseOperator:
    """Sparse matrix over a vertex grid, rows in lexicographic order.

    reach is the largest grid offset of any coupling, which the coarsest
    factorization dissects by; every operator records it.
    """

    matrix: sp.csr_matrix
    grid_shape: tuple
    reach: int

    def __post_init__(self):
        object.__setattr__(self, "grid_shape", tuple(self.grid_shape))
        n = int(np.prod(self.grid_shape))
        if self.matrix.shape != (n, n):
            raise ValueError(
                f"matrix shape {self.matrix.shape} does not match grid "
                f"{self.grid_shape} ({n} unknowns)")
        if not np.all(np.isfinite(self.matrix.data)):
            raise ValueError("operator entries must be finite")

    @property
    def dofs(self):
        return int(np.prod(self.grid_shape))


def laplacian_and_mass_stencils(dim, scheme):
    """Dimensionless (Laplacian-part, mass-part) stencil pair for a scheme.

    Schemes: "fourth-order" (2D and 3D) or REDISC_SCHEME (2D only). The
    pair satisfies H = (1/h^2) L - k^2 M for constant k, and its two
    stencils share their extents, 3 along every axis.
    """
    if scheme == REDISC_SCHEME:
        if dim != 2:
            raise ValueError(f"{REDISC_SCHEME} is available in 2D only")
        a, b, c = 0.6054, 1.0532, 0.0002
        lap = np.array([
            [-(1 - a) / 2, -a, -(1 - a) / 2],
            [-a, 2 * a + 2, -a],
            [-(1 - a) / 2, -a, -(1 - a) / 2],
        ])
        mass = np.array([
            [(1 - b - c) / 4, c / 4, (1 - b - c) / 4],
            [c / 4, b, c / 4],
            [(1 - b - c) / 4, c / 4, (1 - b - c) / 4],
        ])
        return Stencil(lap), Stencil(mass)

    if scheme == "fourth-order":
        # the compact weights by the number of nonzero components of an
        # offset: the Laplacian's in sixths, the mass's in twelfths
        table = {2: ((20, -4, -1), (8, 1, 0)), 3: ((24, -2, -1, 0), (6, 1, 0, 0))}
        if dim not in table:
            raise ValueError("the fourth-order scheme is defined in 2D and 3D")
        lap, mass = map(np.array, table[dim])
        nonzero = np.count_nonzero(np.indices((3,) * dim) != 1, axis=0)
        return Stencil(lap[nonzero] / 6.0), Stencil(mass[nonzero] / 12.0)

    raise ValueError(
        f"unknown scheme {scheme!r}; choose fourth-order or {REDISC_SCHEME}")


def attenuation_profile(problem):
    """Sponge attenuation gamma(x) on the padded grid.

    Zero in the interior; rises quadratically to gamma_max across each pad,
    with per-axis ramps summed and clamped at gamma_max in the corners.
    """
    shape = problem.padded_shape
    gamma = np.zeros(shape)
    if problem.pad == 0 or problem.gamma_max == 0:
        return gamma
    for ax, (lo, hi) in enumerate(zip(problem.pad_lo, problem.pad_hi)):
        t = np.zeros(shape[ax])
        if lo:
            t[:lo] = (lo - np.arange(lo)) / problem.pad
        if hi:
            t[shape[ax] - hi:] = (np.arange(hi) + 1.0) / problem.pad
        ramp = problem.gamma_max * t ** 2
        gamma += ramp.reshape([-1 if a == ax else 1 for a in range(problem.model.dim)])
    return np.minimum(gamma, problem.gamma_max)


def _padded_kappa2(problem):
    pad = list(zip(problem.pad_lo, problem.pad_hi))
    return np.pad(problem.model.kappa2, pad, mode="edge")


def _boundary_mask(shape):
    mask = np.ones(shape, dtype=bool)
    mask[tuple(slice(1, s - 1) for s in shape)] = False
    return mask


def _scheme_coefficients(dim, scheme):
    """Offsets where the scheme's Laplacian or mass stencil is nonzero, in
    lexicographic order, with the two stencils' coefficients there. The two
    share their extents, so one offset list serves both."""
    lap, mass = laplacian_and_mass_stencils(dim, scheme)
    lap_c, mass_c = lap.coeffs.ravel(), mass.coeffs.ravel()
    live = (lap_c != 0) | (mass_c != 0)
    return lap.offsets()[live], lap_c[live], mass_c[live]


def _interior_stencil(shape, offsets, dtype, value_of_offset):
    """GridStencil with the given offsets, filled on the interior rows.

    value_of_offset(e, column_slices) gives the entries of offsets[e].
    Couplings into boundary nodes are zero, so the outermost layer stays
    decoupled in both directions.
    """
    boundary = _boundary_mask(shape)
    interior = tuple(slice(1, s - 1) for s in shape)
    coeffs = np.zeros((len(offsets),) + shape, dtype=dtype)
    for e, off in enumerate(offsets):
        colslc = tuple(slice(1 + o, s - 1 + o) for o, s in zip(off, shape))
        coeffs[e][interior] = np.where(boundary[colslc], 0, value_of_offset(e, colslc))
    return GridStencil(offsets, coeffs)


def _mass_coefficient(problem, alpha, beta):
    """The mass coefficient (alpha^2 + i(gamma + beta)) k^2(x) on the padded
    grid, after _check_shifts. One that overflows is a ValueError, raised
    before any arithmetic can warn."""
    _check_shifts(alpha, beta)
    k2 = problem.omega ** 2 * _padded_kappa2(problem)
    with np.errstate(over="ignore", invalid="ignore"):
        coef = (alpha ** 2 + 1j * (attenuation_profile(problem) + beta)) * k2
    if not np.all(np.isfinite(coef)):
        raise ValueError(
            f"the mass coefficient (alpha^2 + i(gamma + beta)) k^2 overflows for "
            f"alpha = {alpha}, beta = {beta} and gamma_max = {problem.gamma_max}")
    return coef


def mass_term(problem, scheme, beta=0.0):
    """The GridStencil of the mass term W = (1 + i(gamma + beta)) k^2(x) M.

    It samples k^2 and gamma at the neighbor node of each mass-stencil
    offset, its rows are the interior rows, and couplings into boundary
    nodes are zero. build_hierarchy coarsens it on its own, since every
    heterogeneity, the sponge and the complex shift sit in it.
    """
    coef = _mass_coefficient(problem, 1.0, beta)
    offsets, _, mass = _scheme_coefficients(problem.model.dim, scheme)
    live = mass != 0
    offsets, weights = offsets[live], mass[live]
    return _interior_stencil(problem.padded_shape, offsets, complex,
                             lambda e, colslc: weights[e] * coef[colslc])


def assemble_operator(problem, scheme, alpha=1.0, beta=0.0):
    """Assemble (1/h^2) L - (alpha^2 + i(gamma + beta)) k^2(x) M on the padded grid.

    alpha is the real wavenumber shift, beta the relative complex shift (the
    shift value is beta * k^2). Each offset's plane is filled once, with
    k^2 and gamma sampled at the neighbor node as in mass_term. Outermost
    rows are identity with their couplings removed in both directions. The
    returned operator records its stencil's reach.
    """
    coef = _mass_coefficient(problem, alpha, beta)
    offsets, lap, weights = _scheme_coefficients(problem.model.dim, scheme)
    h = problem.model.h
    stencil = _interior_stencil(
        problem.padded_shape, offsets, complex,
        lambda e, colslc: complex(lap[e]) / h ** 2 - weights[e] * coef[colslc])
    return SparseOperator(stencil.tocsr(), problem.padded_shape, stencil.reach)


def point_source(problem):
    """Discrete delta of strength 1/h^dim at the source node, on the padded grid."""
    rhs = np.zeros(problem.padded_shape, dtype=complex)
    index = tuple(s + lo for s, lo in zip(problem.source, problem.pad_lo))
    rhs[index] = 1.0 / problem.model.h ** problem.model.dim
    return rhs
