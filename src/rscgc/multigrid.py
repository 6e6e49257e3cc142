"""Three-level multigrid hierarchy with a real-shifted coarsest operator.

The second level is the Galerkin coarsening of the fine operator; the third
is the Galerkin coarsening of the second with the real shift added. Scaling
the wavenumber by plan.alpha changes the assembled operator by
(1 - alpha^2) k^2 M, linear in the mass operator k^2 M, so the shift enters
as (1 - alpha^2) times the Galerkin coarsening of k^2 M, and the fine
operator is assembled only once. Only the coarsest level sees the real
shift. A complex shift plan.beta, when nonzero, is applied on every level,
which turns the hierarchy into a shifted-Laplacian preconditioner for the
unshifted system.

Smoothing is damped Jacobi; the coarsest problem is solved by a cached sparse
LU factorization in SuperLU's symmetric mode, checked on every solve and
refactored with partial pivoting if the check fails. A W cycle runs the
mid-level correction pass twice.
"""

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .discretization import (HelmholtzProblem, SlownessModel, SparseOperator,
                             _boundary_mask, assemble_operator, mass_matrix)
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
        if self.nu1 < 0 or self.nu2 < 0:
            raise ValueError(f"nu1 and nu2 must be nonnegative, got {self.nu1}, {self.nu2}")
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

    order is the weight family: "cubic", "linear", or "linear/cubic" for the
    mixed pair (lower-order restriction, cubic prolongation).
    """

    restriction: sp.csr_matrix
    prolongation: sp.csr_matrix
    order: str


@dataclass(frozen=True)
class Level:
    operator: SparseOperator
    damping: float           # Jacobi damping; unused on the coarsest level
    inverse_diagonal: np.ndarray


@dataclass
class MultigridHierarchy:
    """Levels, transfers and the coarsest factorization of one plan.

    coarse_solve replaces coarse_solver with a pivoted factorization the
    first time the cached one misses its residual check.
    """

    levels: tuple
    transfers: tuple
    coarse_solver: object
    plan: CyclePlan


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


def _kron(factors):
    return reduce(lambda a, b: sp.kron(a, b, format="csr"), factors)


def transfer_matrices(fine_shape, restriction_order, prolongation_order):
    """TransferPair between a padded grid and its index-halved coarsening.

    Per axis, restriction is the row-normalized weight band and prolongation
    the row-normalized transpose of its own family's band; away from the
    boundary that is the transpose-scaling convention P = 2^d R^T.
    """
    R = _kron([_unit_rows(_axis_weights(n, restriction_order)) for n in fine_shape])
    P = _kron([_unit_rows(_axis_weights(n, prolongation_order).T) for n in fine_shape])
    if restriction_order == prolongation_order:
        order = restriction_order
    else:
        order = f"{restriction_order}/{prolongation_order}"
    return TransferPair(R, P, order)


def _coarsen(matrix, pair, coarse_shape):
    """Sparse triple product with the coarse Dirichlet diagonal restored."""
    coarse = (pair.restriction @ matrix) @ pair.prolongation
    coarse = sp.csr_matrix(coarse)
    bnd = _boundary_mask(coarse_shape).ravel()
    coarse = coarse + sp.diags(bnd.astype(coarse.dtype))
    coarse = sp.csr_matrix(coarse)
    coarse.eliminate_zeros()
    coarse.sort_indices()
    return coarse


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

    mid = _coarsen(fine.matrix, t12, mid_shape)
    shifted = mid
    if plan.alpha != 1.0:
        # a real product with no diagonal restored: the mass operator's
        # boundary rows are zero and stay zero; sorted, so the sum keeps
        # mid's layout
        mass = mass_matrix(problem, scheme).matrix
        mid_mass = sp.csr_matrix((t12.restriction @ mass) @ t12.prolongation)
        mid_mass.sort_indices()
        shifted = mid + (1.0 - plan.alpha ** 2) * mid_mass
    coarse = _coarsen(shifted, t23, coarse_shape)

    levels = (
        _make_level(fine.matrix, shape, h, plan.dampings[0]),
        _make_level(mid, mid_shape, 2 * h, plan.dampings[1]),
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
    if not residual <= 1e-10:
        raise RuntimeError(
            f"coarsest-level solve residual {residual:.3e} exceeds 1e-10; the "
            f"operator may be near-resonant (alpha={plan.alpha}, beta={plan.beta})")
    return x


def _transfer(matrix, v):
    """Real transfer matrix times a complex vector, through a real (n, 2)
    view: scipy would otherwise upcast the matrix to complex on every call."""
    v = np.ascontiguousarray(v, dtype=complex)
    return (matrix @ v.view(float).reshape(-1, 2)).view(complex).ravel()


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
