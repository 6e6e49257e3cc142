"""Three-level multigrid hierarchy with a real-shifted coarsest operator.

The second level is the Galerkin coarsening of the fine operator; the third
is the Galerkin coarsening of the second with the real shift added. The fine
operator is (1/h^2) L - W. Its Laplacian part L is constant, and every
heterogeneity, the sponge and the complex shift sit in the mass term
W = (1 + i(gamma + beta)) k^2 M. So only W, and then the second level, are
coarsened as stencil arrays, one axis at a time. The coarsenings of L follow
exactly from 1D Galerkin products, one per axis and offset, because L is a
sum of Kronecker products of 1D shifts and the transfers are Kronecker
products of 1D bands. Scaling the wavenumber by plan.alpha changes the
assembled operator by (1 - alpha^2) k^2 M, the real part of W, so the shift
enters as (1 - alpha^2) times the real part of W coarsened twice: the twice
coarsened L minus the real part of the coarsened second level. The fine
operator is assembled only once, and only the coarsest level sees the real
shift. Each level is turned into CSR once, for the cycle and the coarsest
factorization. Read at one interior node, the same 1D products are the
coarsest-level composites of the dispersion analysis (dispersion.py). The
transfers are kept as one 1D band per axis, and the cycle applies them one
axis at a time too. A complex shift plan.beta, when nonzero, is applied on
every level, which turns the hierarchy into a shifted-Laplacian
preconditioner for the unshifted system.

Smoothing is damped Jacobi. The coarsest problem is solved by a cached
multifrontal LU in geometric nested-dissection order (frontal.py), which
pivots only inside each dense pivot block. Every solve is checked, and the
operator is refactored by SuperLU with COLAMD and partial pivoting if a
pivot block is exactly singular or a solve misses the check. A W cycle runs
the mid-level correction pass twice.

The cycle is a preconditioner for flexible GMRES, which keeps its basis, its
iterate and its true residual in double precision, so the cycle itself may
be inexact. The fine and mid levels smooth and form residuals with complex64
copies of their CSR values and inverse diagonals, and the transfers apply
float32 copies of their bands; the coarsest solve stays in double, with its
residual check, and its level carries no copies. The double CSR of every
level stays in place for the outer solver. The cycle's input is scaled by a
power of two to about unit norm, so complex64's range holds it; a
single-precision cycle that still returns anything non-finite is redone in
double, and the hierarchy cycles in double from then on.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretization import (REDISC_SCHEME, GridStencil, HelmholtzProblem, SlownessModel,
                             SparseOperator, _check_shifts, _integer, assemble_operator,
                             laplacian_and_mass_stencils, mass_term)
from .frontal import FrontalLU
from .stencils import INTERGRID, restriction_stencil

__all__ = [
    "CyclePlan",
    "TransferPair",
    "Level",
    "MultigridHierarchy",
    "transfer_matrices",
    "build_hierarchy",
    "build_rediscretized_hierarchy",
    "jacobi_smooth",
    "cycle",
    "coarse_solve",
]

CYCLE_CHOICES = ("V", "W")

# The re-discretized baseline rescales the wavenumber of its coarsest level,
# assembled with REDISC_SCHEME, by this factor.
REDISC_WAVENUMBER_SCALE = 0.87725


@dataclass(frozen=True)
class CyclePlan:
    """Cycle shape, intergrid scheme, shifts and per-level Jacobi dampings."""

    cycle: str = "W"
    nu1: int = 1
    nu2: int = 1
    intergrid: str = "cubic"
    alpha: float = 1.0
    beta: float = 0.0
    dampings: tuple = (0.89, 0.89)

    def __post_init__(self):
        if self.cycle not in CYCLE_CHOICES:
            raise ValueError(f"cycle must be one of {CYCLE_CHOICES}, got {self.cycle!r}")
        if self.intergrid not in INTERGRID:
            raise ValueError(
                f"intergrid must be one of {tuple(INTERGRID)}, got {self.intergrid!r}")
        for name in ("nu1", "nu2"):
            if _integer(getattr(self, name), name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        _check_shifts(self.alpha, self.beta)
        object.__setattr__(self, "dampings", tuple(float(w) for w in self.dampings))
        if len(self.dampings) != 2:
            raise ValueError(f"dampings must be two values, for levels 1 and 2, "
                             f"got {self.dampings}")
        if not all(math.isfinite(w) and w > 0 for w in self.dampings):
            raise ValueError(f"dampings must be finite and positive, got {self.dampings}")


@dataclass(frozen=True)
class TransferPair:
    """Restriction and prolongation between two consecutive levels.

    restriction and prolongation hold one real 1D CSR band per axis; the
    full transfers are their Kronecker products, applied by restrict and
    prolong one axis at a time. orders names the weight families of
    restriction and prolongation, "cubic" or "linear". single holds float32
    copies of both band tuples, which restrict and prolong apply to
    complex64 vectors.
    """

    restriction: tuple
    prolongation: tuple
    orders: tuple
    single: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "single", tuple(
            tuple(band.astype(np.float32) for band in bands)
            for bands in (self.restriction, self.prolongation)))

    def _bands(self, v):
        if v.dtype == np.complex64:
            return self.single
        return self.restriction, self.prolongation

    def restrict(self, v):
        """R v for a flat vector on the fine grid."""
        return _along_axes(self._bands(v)[0], v)

    def prolong(self, v):
        """P v for a flat vector on the coarse grid."""
        return _along_axes(self._bands(v)[1], v)


@dataclass(frozen=True)
class Level:
    """One level's operator, with the Jacobi damping and inverse diagonal.

    On a smoothed level, single holds the complex64 matrix and inverse
    diagonal that the single-precision cycle uses; the matrix shares indices
    and indptr with operator.matrix, which stays the double CSR. The
    coarsest level, which is not smoothed, has neither damping nor single.
    """

    operator: SparseOperator
    damping: float
    inverse_diagonal: np.ndarray
    single: tuple = None

    def cycle_arrays(self, dtype):
        """The matrix and inverse diagonal for vectors of dtype: the complex64
        copies for complex64 vectors, else the double ones."""
        if dtype == np.complex64:
            return self.single
        return self.operator.matrix, self.inverse_diagonal


@dataclass
class MultigridHierarchy:
    """Levels, transfers and the coarsest factorization of one plan.

    coarse_solve replaces coarse_solver with a pivoted factorization the
    first time the cached one misses its residual check, and keeps in
    max_coarse_residual the largest relative residual of the solutions it
    returned (or refused). cycle sets precision_fallback when it has redone
    a non-finite single-precision cycle in double; later cycles stay double.
    """

    levels: tuple
    transfers: tuple
    coarse_solver: object
    plan: CyclePlan
    max_coarse_residual: float = 0.0
    precision_fallback: bool = False

    @property
    def cycle_precision(self):
        """"single", or "single→double fallback" once cycle has fallen back."""
        return "single→double fallback" if self.precision_fallback else "single"


def _axis_weights(n, order):
    """Unnormalized restriction band of one axis on a vertex grid of n nodes.

    Entry (J, c) is the stencil weight of fine node c = 2J + o for coarse
    node J. Boundary rows and columns are left out: Dirichlet unknowns carry
    no correction.
    """
    weights = restriction_stencil(1, order).coeffs.real.ravel()
    half = len(weights) // 2
    nc = (n - 1) // 2 + 1
    rows = np.repeat(np.arange(1, nc - 1), len(weights))
    cols = 2 * rows + np.tile(np.arange(-half, half + 1), nc - 2)
    vals = np.tile(weights, nc - 2)
    keep = (cols >= 1) & (cols <= n - 2)
    return sp.csr_matrix((vals[keep], (rows[keep], cols[keep])), shape=(nc, n))


def _unit_rows(band):
    """band with each nonempty row divided by its sum, so constants map to
    constants also where the boundary truncates the stencil."""
    band = sp.csr_matrix(band)
    sums = np.asarray(band.sum(axis=1)).ravel()
    band.data = band.data / np.repeat(sums, np.diff(band.indptr))
    return band


def _axis_factors(n, restriction_order, prolongation_order):
    """1D restriction (nc x n) and prolongation (n x nc) of one axis: the
    row-normalized weight band, and the row-normalized transpose of the
    prolongation family's band."""
    return (_unit_rows(_axis_weights(n, restriction_order)),
            _unit_rows(_axis_weights(n, prolongation_order).T))


def transfer_matrices(fine_shape, restriction_order, prolongation_order):
    """TransferPair between a padded grid and its index-halved coarsening.

    Per axis, restriction is the row-normalized weight band and prolongation
    the row-normalized transpose of its own family's band; away from the
    boundary that is the transpose-scaling convention P = 2^d R^T. An axis
    of fewer than 3 nodes or of an even count cannot be halved, a ValueError.
    """
    bad = [n for n in fine_shape if n < 3 or n % 2 == 0]
    if bad:
        raise ValueError(f"grid extents {tuple(fine_shape)} cannot be halved: each "
                         f"axis needs an odd count of at least 3 nodes, got {bad}")
    factors = [_axis_factors(n, restriction_order, prolongation_order)
               for n in fine_shape]
    return TransferPair(tuple(r for r, _ in factors), tuple(p for _, p in factors),
                        (restriction_order, prolongation_order))


@lru_cache(maxsize=None)
def _galerkin_band(n, restriction_order, prolongation_order, axis_offsets):
    """One axis's Galerkin step R A P as a real map on stencil coefficients.

    The block it acts on holds the coefficients of axis_offsets on n fine
    nodes, rows ordered (offset o, node i); the band maps it to rows
    (coarse offset q, coarse node J), with entry R[J, i] P[i + o, J + q]
    for the axis factors R and P of the transfers. Returns the band and the
    coarse offsets q, those with a nonzero row.
    """
    R, P = _axis_factors(n, restriction_order, prolongation_order)
    R = R.tocoo()
    k, nc = len(axis_offsets), R.shape[0]
    # one term per nonzero R[J, i] and offset o that meets a row of P ...
    J, i, r = (np.repeat(v, k) for v in (R.row, R.col, R.data))
    m = np.tile(np.arange(k), R.nnz)
    row = i + np.asarray(axis_offsets)[m]
    inside = (row >= 0) & (row < n)
    J, i, r, m, row = (v[inside] for v in (J, i, r, m, row))
    # ... and one entry per nonzero P[i + o, K] of that row, at q = K - J
    count = np.diff(P.indptr)[row]
    entry = (np.repeat(P.indptr[row] - np.cumsum(count) + count, count)
             + np.arange(count.sum()))
    J, i, r, m = (np.repeat(v, count) for v in (J, i, r, m))
    qs, q = np.unique(P.indices[entry] - J, return_inverse=True)
    band = sp.csr_matrix((r * P.data[entry], (q * nc + J, m * n + i)),
                         shape=(len(qs) * nc, k * n))
    return band, tuple(qs.tolist())


def _coarsen_axis(offsets, coeffs, axis, orders):
    """The 1D Galerkin step along one axis of stencil coefficients.

    Offsets that differ only along the axis form a group. A group's planes,
    read as a block with rows (offset, node along the axis) and a column for
    every combination of the other nodes, go through the cached band of its
    axis offsets. Returns the coarse offsets, sorted, and their coefficients.
    """
    shape = coeffs.shape[1:]
    lead, n, trail = math.prod(shape[:axis]), shape[axis], math.prod(shape[axis + 1:])
    nc = (n - 1) // 2 + 1
    planes = coeffs.reshape(len(offsets), lead, n, trail)
    others = np.delete(offsets, axis, axis=1)
    steps, coarse_offsets = [], []
    for rest in np.unique(others, axis=0):
        members = np.flatnonzero((others == rest).all(axis=1))
        band, qs = _galerkin_band(n, *orders, tuple(offsets[members, axis]))
        steps.append((members, band, len(coarse_offsets) + np.arange(len(qs))))
        coarse_offsets += [np.insert(rest, axis, q) for q in qs]
    coarse_offsets = np.array(coarse_offsets)
    order = np.lexsort(coarse_offsets.T[::-1])
    position = np.argsort(order)
    coarse = np.empty((len(order), lead, nc, trail), dtype=coeffs.dtype)
    for members, band, made in steps:
        block = np.ascontiguousarray(planes[members].transpose(0, 2, 1, 3))
        out = _transfer(band, block.reshape(len(members) * n, lead * trail))
        out = out.reshape(len(made), nc, lead, trail)
        coarse[position[made]] = out.transpose(0, 2, 1, 3)
    return coarse_offsets[order], coarse.reshape((len(order),) + shape[:axis] + (nc,)
                                                 + shape[axis + 1:])


def _coarsen(stencil, pair):
    """Galerkin coarsening R A P of a GridStencil, one axis at a time.

    The transfers are Kronecker products of 1D bands, so R A P applies the
    1D step of each axis in turn. Complex data goes through a real view.
    Boundary rows stay zero: the bands neither read fine boundary nodes nor
    write coarse ones.
    """
    offsets, coeffs = stencil.offsets, stencil.coeffs
    for axis in range(coeffs.ndim - 1):
        offsets, coeffs = _coarsen_axis(offsets, coeffs, axis, pair.orders)
    return GridStencil(offsets, coeffs)


def _unit_shifts(lap, shape):
    """Per axis of the fine grid, the 1D offsets of lap's extent, and one 1D
    stencil per offset with coefficient 1 there on every node.

    On the fine grid, the coefficient of the constant Laplacian part L at
    offset o is lap[o] times one interior mask per axis, so L is the sum
    over o of lap[o] times the Kronecker product of these 1D shifts; the
    Galerkin bands leave the masks out by themselves, as they neither read
    fine boundary nodes nor write coarse ones.
    """
    return [(tuple(range(-half, half + 1)),
             np.repeat(np.eye(2 * half + 1)[:, :, None], n, axis=2))
            for half, n in zip(lap.halves, shape)]


def _coarsen_shifts(shifts, orders):
    """The Galerkin step of each axis's 1D stencils by the cached band of
    that axis, for transfers of the (restriction, prolongation) weight
    families orders: the 1D factors of the next coarser level."""
    coarse = []
    for offsets, stencils in shifts:
        k, n = len(stencils), stencils.shape[-1]
        band, offsets = _galerkin_band(n, *orders, offsets)
        out = band @ stencils.reshape(k, -1).T
        coarse.append((offsets, out.T.reshape(k, len(offsets), -1)))
    return coarse


def _laplacian_planes(weights, shifts, offset=()):
    """A constant stencil, L or M, coarsened: the sum over o of weights[o]
    times the Kronecker product of each axis's coarsened shift o, as (offset,
    plane) per coarse offset in lexicographic order. weights is contracted
    with one 1D stencil per axis in turn, so no coefficient array is
    coarsened; offset holds the coarse offsets of the axes contracted so far."""
    if not shifts:
        yield offset, weights
        return
    (offsets, stencils), rest = shifts[0], shifts[1:]
    for q, stencil in zip(offsets, stencils.transpose(1, 0, 2)):
        yield from _laplacian_planes(np.tensordot(weights, stencil, axes=(0, 0)), rest,
                                     offset + (q,))


def _rows(stencil):
    """Map from each offset of a GridStencil, a tuple, to its row."""
    return {offset: e for e, offset in enumerate(map(tuple, stencil.offsets.tolist()))}


def _halved(shape):
    return tuple((n - 1) // 2 + 1 for n in shape)


def _make_level(operator, damping):
    """A Level of a SparseOperator. A smoothed level carries the complex64
    copies of its values and inverse diagonal; the coarsest, damping None,
    none."""
    matrix = operator.matrix
    diag = matrix.diagonal()
    if np.any(diag == 0):
        raise ValueError("operator has a zero diagonal entry; Jacobi smoothing "
                         "and the coarse solve both need a full diagonal")
    inverse_diagonal = 1.0 / diag
    if damping is None:
        return Level(operator, None, inverse_diagonal)
    copies = (sp.csr_matrix((matrix.data.astype(np.complex64), matrix.indices,
                             matrix.indptr), shape=matrix.shape, copy=False),
              inverse_diagonal.astype(np.complex64))
    return Level(operator, float(damping), inverse_diagonal, copies)


def _transfer_pairs(shape, intergrid):
    """The TransferPairs fine to mid and mid to coarsest of an intergrid
    scheme, for a fine grid of the given shape."""
    orders12, orders23 = INTERGRID[intergrid]
    return (transfer_matrices(shape, *orders12),
            transfer_matrices(_halved(shape), *orders23))


def _hierarchy(operators, transfers, plan):
    """The MultigridHierarchy of the fine, mid and coarsest SparseOperators,
    with the coarsest level factorized before the complex64 copies of the
    other two are made, so the factorization reuses the memory that set-up
    freed."""
    coarsest = _make_level(operators[-1], None)
    solver = _factorize(coarsest.operator, plan)
    levels = tuple(map(_make_level, operators[:-1], plan.dampings)) + (coarsest,)
    return MultigridHierarchy(levels, transfers, solver, plan)


def _check_coarsenable(shape):
    bad = [n for n in shape if (n - 1) % 4 != 0 or n < 17]
    if bad:
        raise ValueError(
            f"grid extents {tuple(shape)} cannot be coarsened twice: each axis "
            f"needs (nodes - 1) divisible by 4 and at least 17 nodes so the "
            f"coarsest level keeps 3 interior nodes")


def _factorize(operator, plan, pivoting=False):
    """LU factors of the coarsest SparseOperator: the multifrontal LU in
    nested-dissection order at the operator's reach first, then SuperLU's
    COLAMD with partial pivoting if that raises or pivoting is asked for."""
    if not pivoting:
        try:
            return FrontalLU(operator.matrix, operator.grid_shape, operator.reach)
        except RuntimeError:
            pass
    try:
        return spla.splu(sp.csc_matrix(operator.matrix))
    except RuntimeError as exc:
        raise RuntimeError(
            f"coarsest-level factorization failed (alpha={plan.alpha}, "
            f"beta={plan.beta}): {exc}") from exc


def build_hierarchy(problem, scheme, plan):
    """Assemble the 3-level hierarchy for a problem under a CyclePlan.

    Level 1 is assembled once, with (alpha=1, beta=plan.beta): (1/h^2) L - W
    with the constant Laplacian part L and the mass term
    W = (1 + i(gamma + beta)) k^2 M of mass_term. Level 2 is its Galerkin
    coarsening L_c / h^2 - R12 W P12: W is coarsened as a stencil array, and
    L_c comes from 1D Galerkin products. Level 3 is C2 = R23 (level 2) P23
    plus (1 - plan.alpha^2) R23 R12 (k^2 M) P12 P23, the change that
    assembling at wavenumber plan.alpha k makes. k^2 M is the real part of
    W, so that term is L_cc / h^2 - Re C2, with L_cc from the 1D products
    applied a second time. So level 3 equals the double Galerkin coarsening
    of the operator assembled with (plan.alpha, plan.beta), up to rounding,
    and every plan takes the same two stencil coarsenings, of W and of
    level 2.
    """
    shape = problem.padded_shape
    _check_coarsenable(shape)

    fine = assemble_operator(problem, scheme, alpha=1.0, beta=plan.beta)
    t12, t23 = _transfer_pairs(shape, plan.intergrid)
    lap, _ = laplacian_and_mass_stencils(problem.model.dim, scheme)
    weights = lap.coeffs.real / problem.model.h ** 2    # the planes are L / h^2
    shifts = _coarsen_shifts(_unit_shifts(lap, shape), t12.orders)

    # Level 2 is made in place in the coarsened mass term's arrays, one
    # plane of L at a time: a full-size array of L would be freed under the
    # level's CSR and stay resident as a hole in the heap. Both have the
    # same offsets, so each plane is visited once: the fine offsets of W lie
    # in L's extents, and the t12 bands give each fine offset within one
    # node the same coarse offsets.
    mid = _coarsen(mass_term(problem, scheme, beta=plan.beta), t12)
    rows = _rows(mid)
    for offset, plane in _laplacian_planes(weights, shifts):
        e = rows[offset]
        np.subtract(plane, mid.coeffs[e], out=mid.coeffs[e])
    mid_operator = SparseOperator(mid.tocsr(), mid.grid_shape, mid.reach)
    coarse = _coarsen(mid, t23)
    del mid     # its coefficient arrays would otherwise outlive the factorization
    # The real shift: the coarsened k^2 M is the real part of the coarsened
    # mass term, L_cc / h^2 - Re C2. C2 has the offsets of L_cc, the
    # products of the offsets of the same t23 bands.
    gain = 1.0 - plan.alpha ** 2
    rows = _rows(coarse)
    for offset, plane in _laplacian_planes(weights, _coarsen_shifts(shifts, t23.orders)):
        e = rows[offset]
        coarse.coeffs[e].real += gain * (plane - coarse.coeffs[e].real)
    coarse = SparseOperator(coarse.tocsr(), coarse.grid_shape, coarse.reach)
    return _hierarchy((fine, mid_operator, coarse), (t12, t23), plan)


def _coarsened_problem(problem):
    model = problem.model
    if any(c % 2 for c in model.cells):
        raise ValueError(f"cell counts {model.cells} must be even to re-discretize")
    if problem.pad % 2:
        raise ValueError(f"pad width {problem.pad} must be even to re-discretize")
    take = tuple(slice(None, None, 2) for _ in range(model.dim))
    half = SlownessModel(model.dim, tuple(c // 2 for c in model.cells),
                         2 * model.h, model.kappa2[take])
    return HelmholtzProblem(half, problem.omega, pad=problem.pad // 2,
                            gamma_max=problem.gamma_max,
                            free_surface_top=problem.free_surface_top)


def build_rediscretized_hierarchy(problem, plan):
    """Baseline hierarchy that re-discretizes each level instead of coarsening.

    Levels 1 and 2 use the fourth-order scheme on the original and the
    half-resolution problem; level 3 uses the dispersion-minimized 9-point
    scheme with the wavenumber scaled by 0.87725. Transfers are bilinear
    regardless of plan.intergrid. 2D only.
    """
    if problem.model.dim != 2:
        raise ValueError("the re-discretized baseline is available in 2D only")
    shape = problem.padded_shape
    _check_coarsenable(shape)

    mid_problem = _coarsened_problem(problem)
    coarse_problem = _coarsened_problem(mid_problem)

    fine = assemble_operator(problem, "fourth-order", alpha=1.0, beta=plan.beta)
    mid = assemble_operator(mid_problem, "fourth-order", alpha=1.0, beta=plan.beta)
    coarse = assemble_operator(coarse_problem, REDISC_SCHEME,
                               alpha=REDISC_WAVENUMBER_SCALE, beta=plan.beta)

    return _hierarchy((fine, mid, coarse), _transfer_pairs(shape, "bilinear"), plan)


def jacobi_smooth(level, x, b, sweeps):
    """sweeps passes of damped Jacobi, x <- x + w D^-1 (b - A x), with the
    level's damping w.

    Every sweep reads only the previous iterate. Returns the new iterate
    without mutating x. x=None stands for the zero vector, whose first sweep
    is w D^-1 b without the product with A. A complex64 b is smoothed with
    the level's complex64 arrays, anything else in double. sweeps must be a
    nonnegative integer.
    """
    if _integer(sweeps, "sweeps") < 0:
        raise ValueError(f"sweeps must be nonnegative, got {sweeps!r}")
    w = level.damping
    b = np.asarray(b)
    A, invd = level.cycle_arrays(b.dtype)
    if x is None:
        if sweeps == 0:
            return np.zeros(len(b), dtype=invd.dtype)
        x = w * (invd * b)
        sweeps -= 1
    x = np.asarray(x, dtype=invd.dtype)
    for _ in range(sweeps):
        x = x + w * (invd * (b - A @ x))
    return x


def coarse_solve(hierarchy, rhs):
    """Direct solve on the coarsest level, verified to 1e-10 relative.

    The right-hand side is cast to double and the solution is double. A
    solve that misses the check is repeated once with a freshly pivoted
    factorization, which then serves every later solve of the hierarchy. A
    non-finite right-hand side is a FloatingPointError, with no solve.
    """
    rhs = np.asarray(rhs, dtype=complex)
    scale = np.linalg.norm(rhs)
    if scale == 0:
        return np.zeros_like(rhs)
    if not np.isfinite(scale):
        raise FloatingPointError("coarsest-level right-hand side is not finite")
    plan = hierarchy.plan
    operator = hierarchy.levels[-1].operator
    matrix = operator.matrix
    x = hierarchy.coarse_solver.solve(rhs)
    residual = np.linalg.norm(rhs - matrix @ x) / scale
    if not residual <= 1e-10:
        hierarchy.coarse_solver = _factorize(operator, plan, pivoting=True)
        x = hierarchy.coarse_solver.solve(rhs)
        residual = np.linalg.norm(rhs - matrix @ x) / scale
    hierarchy.max_coarse_residual = max(hierarchy.max_coarse_residual, float(residual))
    if not residual <= 1e-10:
        raise RuntimeError(
            f"coarsest-level solve residual {residual:.3e} exceeds 1e-10; the "
            f"operator may be near-resonant (alpha={plan.alpha}, beta={plan.beta})")
    return x


def _transfer(matrix, v):
    """Real matrix times a vector or a block of columns, real or complex.

    Complex data goes through a real view, two real columns per complex
    one: scipy would otherwise upcast the matrix to complex on every call.
    The product has the matrix's precision when v's is no higher, so a
    float32 band keeps complex64 data in single precision and a float64
    band gives complex128.
    """
    if not np.iscomplexobj(v):
        return matrix @ v
    v = np.ascontiguousarray(v)
    out = matrix @ v.view(v.real.dtype).reshape(len(v), -1)
    return out.view(np.result_type(out.dtype, np.complex64)).reshape(
        (matrix.shape[0],) + v.shape[1:])


def _along_axes(bands, v):
    """The Kronecker product of one 1D band per axis times a flat grid vector.

    Each axis in turn is moved to the front, so the band multiplies a block
    with one column per combination of the other nodes, and moved back.
    """
    v = v.reshape(tuple(band.shape[1] for band in bands))
    for axis, band in enumerate(bands):
        front = np.moveaxis(v, axis, 0)
        out = _transfer(band, front.reshape(len(front), -1))
        v = np.moveaxis(out.reshape((band.shape[0],) + front.shape[1:]), 0, axis)
    return v.ravel()


def _cycle(hierarchy, b):
    """The cycle in the precision of b, complex64 or complex128. The coarsest
    solve runs in double either way; its solution is cast to b's precision."""
    plan = hierarchy.plan
    fine, mid, _ = hierarchy.levels
    t12, t23 = hierarchy.transfers

    x = jacobi_smooth(fine, None, b, plan.nu1)
    coarse_rhs = t12.restrict(b - fine.cycle_arrays(b.dtype)[0] @ x)

    passes = 2 if plan.cycle == "W" else 1
    mid_matrix = mid.cycle_arrays(b.dtype)[0]
    e = None
    for _ in range(passes):
        e = jacobi_smooth(mid, e, coarse_rhs, plan.nu1)
        defect = coarse_rhs - mid_matrix @ e
        coarse = coarse_solve(hierarchy, t23.restrict(defect))
        e = e + t23.prolong(coarse.astype(b.dtype, copy=False))
        e = jacobi_smooth(mid, e, coarse_rhs, plan.nu2)

    x = x + t12.prolong(e)
    return jacobi_smooth(fine, x, b, plan.nu2)


def cycle(hierarchy, b):
    """One multigrid cycle on the finest level, V or W per the plan.

    The W cycle runs the mid-level correction pass twice in sequence, each
    pass wrapping the direct coarsest solve in its own pre- and
    post-smoothing. The map b -> x is linear up to single-precision
    rounding; it takes and returns complex128.

    The cycle runs in single precision on b scaled by a power of two, an
    exact scaling, to about unit norm, so that complex64's range holds it
    whatever its magnitude. One that still overflows to anything non-finite
    is redone in double, and sets the hierarchy's precision_fallback so that
    every later cycle runs in double. A b that is itself non-finite goes to
    the double cycle directly, without the flag.
    """
    b = np.asarray(b, dtype=complex).ravel()
    if not hierarchy.precision_fallback:
        size = np.linalg.norm(b)
        if not np.isfinite(size):
            # no precision mends a non-finite input: cycle it in double,
            # which raises or returns it, and keep the hierarchy in single
            return _cycle(hierarchy, b)
        scale = 2.0 ** -np.clip(np.frexp(size)[1], -1000, 1000)
        with np.errstate(over="ignore", invalid="ignore"):
            try:
                x = _cycle(hierarchy, _to_single(b, scale))
            except FloatingPointError:
                x = None
        if x is not None and np.isfinite(x).all():
            return np.multiply(x, 1.0 / scale, dtype=complex)
        hierarchy.precision_fallback = True
    return _cycle(hierarchy, b)


def _to_single(v, scale):
    """scale * v as complex64, in one pass."""
    return np.multiply(v, scale, out=np.empty(v.shape, np.complex64), casting="same_kind")
