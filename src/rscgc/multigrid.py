"""Three-level multigrid hierarchy with a real-shifted coarsest operator.

The second level is the Galerkin coarsening of the fine operator; the third
is the Galerkin coarsening of the second with the real shift added. Scaling
the wavenumber by plan.alpha changes the assembled operator by
(1 - alpha^2) k^2 M, linear in the mass operator k^2 M, so the shift enters
as (1 - alpha^2) times the Galerkin coarsening of k^2 M, and the fine
operator is assembled only once. Only the coarsest level sees the real
shift. Levels are coarsened as stencil arrays, one axis at a time, and each
is turned into CSR once, for the cycle and the coarsest factorization. A
complex shift plan.beta, when nonzero, is applied on every level, which
turns the hierarchy into a shifted-Laplacian preconditioner for the
unshifted system.

Smoothing is damped Jacobi; the coarsest problem is solved by a cached sparse
LU factorization in SuperLU's symmetric mode, checked on every solve and
refactored with partial pivoting if the check fails. A W cycle runs the
mid-level correction pass twice.
"""

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretization import (GridStencil, HelmholtzProblem, SlownessModel,
                             SparseOperator, _integer, assemble_operator, mass_matrix)
from .stencils import restriction_stencil

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
INTERGRID_CHOICES = ("cubic", "level-dependent", "bilinear")

# Coarsest-level scheme of the re-discretized baseline: a dispersion-minimized
# 9-point stencil with the wavenumber itself rescaled at assembly.
REDISC_SCHEME = "jss(0.6054,1.0532,0.0002)"
REDISC_WAVENUMBER_SCALE = 0.87725


@dataclass(frozen=True)
class CyclePlan:
    """Cycle shape, intergrid scheme, shifts, and per-level Jacobi dampings."""

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
        if self.intergrid not in INTERGRID_CHOICES:
            raise ValueError(
                f"intergrid must be one of {INTERGRID_CHOICES}, got {self.intergrid!r}")
        for name in ("nu1", "nu2"):
            if _integer(getattr(self, name), name) < 0:
                raise ValueError(f"{name} must be nonnegative, got {getattr(self, name)}")
        if not (math.isfinite(self.alpha) and self.alpha > 0):
            raise ValueError(f"alpha must be finite and positive, got {self.alpha}")
        if not (math.isfinite(self.beta) and self.beta >= 0):
            raise ValueError(f"beta must be finite and nonnegative, got {self.beta}")
        object.__setattr__(self, "dampings", tuple(float(w) for w in self.dampings))
        if len(self.dampings) < 2:
            raise ValueError("dampings must provide a value for levels 1 and 2")
        if not all(math.isfinite(w) and w > 0 for w in self.dampings):
            raise ValueError(f"dampings must be finite and positive, got {self.dampings}")


@dataclass(frozen=True)
class TransferPair:
    """Restriction and prolongation between two consecutive levels.

    orders names the weight families of restriction and prolongation,
    "cubic" or "linear"; both matrices are Kronecker products of the 1D
    bands of their family along each axis.
    """

    restriction: sp.csr_matrix
    prolongation: sp.csr_matrix
    orders: tuple

    @property
    def order(self):
        """"cubic", "linear", or "linear/cubic" for the mixed pair (lower-order
        restriction, cubic prolongation)."""
        restriction, prolongation = self.orders
        if restriction == prolongation:
            return restriction
        return f"{restriction}/{prolongation}"


@dataclass(frozen=True)
class Level:
    operator: SparseOperator
    damping: float           # Jacobi damping; unused on the coarsest level
    inverse_diagonal: np.ndarray


@dataclass
class MultigridHierarchy:
    """Levels, transfers and the coarsest factorization of one plan.

    coarse_solve replaces coarse_solver with a pivoted factorization the
    first time the cached one misses its residual check, and keeps in
    max_coarse_residual the largest relative residual of the solutions it
    returned (or refused).
    """

    levels: tuple
    transfers: tuple
    coarse_solver: object
    plan: CyclePlan
    max_coarse_residual: float = 0.0


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


def _kron(factors):
    return reduce(lambda a, b: sp.kron(a, b, format="csr"), factors)


def transfer_matrices(fine_shape, restriction_order, prolongation_order):
    """TransferPair between a padded grid and its index-halved coarsening.

    Per axis, restriction is the row-normalized weight band and prolongation
    the row-normalized transpose of its own family's band; away from the
    boundary that is the transpose-scaling convention P = 2^d R^T.
    """
    factors = [_axis_factors(n, restriction_order, prolongation_order)
               for n in fine_shape]
    return TransferPair(_kron([r for r, _ in factors]), _kron([p for _, p in factors]),
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
    nc = R.shape[0]
    reach = max(map(abs, axis_offsets)) + sum(
        restriction_stencil(1, order).halves[0]
        for order in (restriction_order, prolongation_order))
    shifted = P.T.tocsr()
    blocks = {q: [R.multiply(sp.eye(nc, k=q) @ shifted @ sp.eye(n, k=-o))
                  for o in axis_offsets]
              for q in range(-(reach // 2), reach // 2 + 1)}
    blocks = {q: row for q, row in blocks.items() if any(b.nnz for b in row)}
    return sp.bmat(list(blocks.values()), format="csr"), tuple(blocks)


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


def _add_scaled(stencil, scale, other):
    """stencil += scale * other, in place; other's offsets are among stencil's."""
    index = {tuple(o): e for e, o in enumerate(stencil.offsets.tolist())}
    for offset, plane in zip(other.offsets.tolist(), other.coeffs):
        stencil.coeffs[index[tuple(offset)]] += scale * plane


def _halved(shape):
    return tuple((n - 1) // 2 + 1 for n in shape)


def _make_level(matrix, shape, h, damping):
    diag = matrix.diagonal()
    if np.any(diag == 0):
        raise ValueError("operator has a zero diagonal entry; Jacobi smoothing "
                         "and the coarse solve both need a full diagonal")
    op = SparseOperator(matrix, shape, h)
    return Level(op, float(damping), 1.0 / diag)


def _transfer_orders(intergrid):
    if intergrid == "cubic":
        return ("cubic", "cubic"), ("cubic", "cubic")
    if intergrid == "level-dependent":
        return ("cubic", "cubic"), ("linear", "cubic")
    return ("linear", "linear"), ("linear", "linear")


def _check_coarsenable(shape):
    bad = [n for n in shape if (n - 1) % 4 != 0 or n < 17]
    if bad:
        raise ValueError(
            f"grid extents {tuple(shape)} cannot be coarsened twice: each axis "
            f"needs (nodes - 1) divisible by 4 and at least 17 nodes so the "
            f"coarsest level keeps 3 interior nodes")


# The coarsest operator is structurally symmetric, so SuperLU's symmetric
# mode (minimum degree on A^T + A, a diagonal pivot kept unless it is 100x
# smaller than the column maximum) gives less fill in much less time than
# COLAMD with partial pivoting. Weak pivoting can cost accuracy; coarse_solve
# checks every solve and falls back to the pivoted factorization.
_SYMMETRIC_LU = dict(permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.01,
                     options=dict(SymmetricMode=True))


def _factorize(matrix, plan, pivoting=False):
    """SuperLU factors of the coarsest operator: symmetric mode first, then
    COLAMD with partial pivoting if that raises or pivoting is asked for."""
    matrix = sp.csc_matrix(matrix)
    if not pivoting:
        try:
            return spla.splu(matrix, **_SYMMETRIC_LU)
        except RuntimeError:
            pass
    try:
        return spla.splu(matrix)
    except RuntimeError as exc:
        raise RuntimeError(
            f"coarsest-level factorization failed (alpha={plan.alpha}, "
            f"beta={plan.beta}): {exc}") from exc


def build_hierarchy(problem, scheme, plan):
    """Assemble the 3-level hierarchy for a problem under a CyclePlan.

    Level 1 is assembled once, with (alpha=1, beta=plan.beta); level 2 is
    its Galerkin coarsening. Level 3 is the Galerkin coarsening of level 2
    plus (1 - plan.alpha^2) R12 (k^2 M) P12: the mass operator k^2 M is what
    assembling at wavenumber alpha k changes, so this equals the double
    Galerkin coarsening of the operator assembled with (plan.alpha,
    plan.beta), up to rounding. At alpha = 1 the shift is zero and the mass
    operator is neither assembled nor coarsened.
    """
    shape = problem.padded_shape
    _check_coarsenable(shape)
    h = problem.model.h
    orders12, orders23 = _transfer_orders(plan.intergrid)

    fine = assemble_operator(problem, scheme, alpha=1.0, beta=plan.beta)

    t12 = transfer_matrices(shape, *orders12)
    mid_shape = _halved(shape)
    t23 = transfer_matrices(mid_shape, *orders23)
    coarse_shape = _halved(mid_shape)

    mid = _coarsen(fine.stencil, t12)
    fine = fine.matrix      # the fine coefficient arrays are not needed again
    mid_matrix = mid.tocsr()
    if plan.alpha != 1.0:
        # mid becomes the shifted mid level; its matrix is already built
        _add_scaled(mid, 1.0 - plan.alpha ** 2,
                    _coarsen(mass_matrix(problem, scheme).stencil, t12))
    coarse = _coarsen(mid, t23).tocsr()

    levels = (
        _make_level(fine, shape, h, plan.dampings[0]),
        _make_level(mid_matrix, mid_shape, 2 * h, plan.dampings[1]),
        _make_level(coarse, coarse_shape, 4 * h, 1.0),
    )
    return MultigridHierarchy(levels, (t12, t23), _factorize(coarse, plan), plan)


def _coarsened_problem(problem):
    model = problem.model
    if any(c % 2 for c in model.cells):
        raise ValueError(f"cell counts {model.cells} must be even to re-discretize")
    if problem.pad % 2:
        raise ValueError(f"pad width {problem.pad} must be even to re-discretize")
    if any(s % 2 for s in problem.source):
        raise ValueError(f"source index {problem.source} must be even to re-discretize")
    take = tuple(slice(None, None, 2) for _ in range(model.dim))
    half = SlownessModel(model.dim, tuple(c // 2 for c in model.cells),
                         2 * model.h, model.kappa2[take])
    return HelmholtzProblem(half, problem.omega, pad=problem.pad // 2,
                            gamma_max=problem.gamma_max,
                            source=tuple(s // 2 for s in problem.source),
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
    h = problem.model.h

    mid_problem = _coarsened_problem(problem)
    coarse_problem = _coarsened_problem(mid_problem)

    fine = assemble_operator(problem, "fourth-order", alpha=1.0, beta=plan.beta)
    mid = assemble_operator(mid_problem, "fourth-order", alpha=1.0, beta=plan.beta)
    coarse = assemble_operator(coarse_problem, REDISC_SCHEME,
                               alpha=REDISC_WAVENUMBER_SCALE, beta=plan.beta)

    mid_shape = _halved(shape)
    coarse_shape = _halved(mid_shape)
    if mid.grid_shape != mid_shape or coarse.grid_shape != coarse_shape:
        raise ValueError("re-discretized grids do not align with index halving")

    levels = (
        _make_level(fine.matrix, shape, h, plan.dampings[0]),
        _make_level(mid.matrix, mid_shape, 2 * h, plan.dampings[1]),
        _make_level(coarse.matrix, coarse_shape, 4 * h, 1.0),
    )
    transfers = (transfer_matrices(shape, "linear", "linear"),
                 transfer_matrices(mid_shape, "linear", "linear"))
    return MultigridHierarchy(levels, transfers, _factorize(coarse.matrix, plan), plan)


def jacobi_smooth(level, x, b, sweeps, damping=None):
    """sweeps passes of damped Jacobi, x <- x + w D^-1 (b - A x).

    Every sweep reads only the previous iterate. Returns the new iterate
    without mutating x. x=None stands for the zero vector, whose first sweep
    is w D^-1 b without the product with A.
    """
    w = level.damping if damping is None else damping
    A = level.operator.matrix
    invd = level.inverse_diagonal
    if x is None:
        if sweeps == 0:
            return np.zeros(len(b), dtype=complex)
        x = w * (invd * b)
        sweeps -= 1
    x = np.asarray(x, dtype=complex)
    for _ in range(sweeps):
        x = x + w * (invd * (b - A @ x))
    return x


def coarse_solve(hierarchy, rhs):
    """Direct solve on the coarsest level, verified to 1e-10 relative.

    A solve that misses the check is repeated once with a freshly pivoted
    factorization, which then serves every later solve of the hierarchy.
    """
    rhs = np.asarray(rhs, dtype=complex)
    scale = np.linalg.norm(rhs)
    if scale == 0:
        return np.zeros_like(rhs)
    plan = hierarchy.plan
    matrix = hierarchy.levels[-1].operator.matrix
    x = hierarchy.coarse_solver.solve(rhs)
    residual = np.linalg.norm(rhs - matrix @ x) / scale
    if not residual <= 1e-10:
        hierarchy.coarse_solver = _factorize(matrix, plan, pivoting=True)
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
    """
    if not np.iscomplexobj(v):
        return matrix @ v
    v = np.ascontiguousarray(v)
    out = matrix @ v.view(float).reshape(len(v), -1)
    return out.view(complex).reshape((matrix.shape[0],) + v.shape[1:])


def cycle(hierarchy, b, x0=None):
    """One multigrid cycle on the finest level, V or W per the plan.

    The W cycle runs the mid-level correction pass twice in sequence, each
    pass wrapping the direct coarsest solve in its own pre- and
    post-smoothing. The map b -> x is linear for x0 = None or zero.
    """
    plan = hierarchy.plan
    fine, mid, _ = hierarchy.levels
    t12, t23 = hierarchy.transfers
    b = np.asarray(b, dtype=complex).ravel()

    x = None if x0 is None else np.array(x0, dtype=complex).ravel()
    x = jacobi_smooth(fine, x, b, plan.nu1)
    coarse_rhs = _transfer(t12.restriction, b - fine.operator.matrix @ x)

    passes = 2 if plan.cycle == "W" else 1
    e = None
    for _ in range(passes):
        e = jacobi_smooth(mid, e, coarse_rhs, plan.nu1)
        defect = coarse_rhs - mid.operator.matrix @ e
        coarse = coarse_solve(hierarchy, _transfer(t23.restriction, defect))
        e = e + _transfer(t23.prolongation, coarse)
        e = jacobi_smooth(mid, e, coarse_rhs, plan.nu2)

    x = x + _transfer(t12.prolongation, e)
    return jacobi_smooth(fine, x, b, plan.nu2)
