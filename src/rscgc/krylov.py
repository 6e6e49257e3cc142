"""Flexible right-preconditioned GMRES and the stationary cycle driver.

scipy's gmres is not flexible (it assumes a fixed preconditioner and
left-preconditions in legacy mode), so the outer solver is written here.
The Krylov basis V and the preconditioned vectors Z are rows of two complex
arrays that grow a block of rows at a time. Each new vector is
orthogonalized by classical Gram-Schmidt run twice (CGS2), every pass two
BLAS-2 products; complex Givens rotations reduce the Hessenberg columns to
an upper-triangular factor; restart is optional. An iteration means one
preconditioner application; residual_history carries one relative residual
per iteration, with the final entry recomputed from scratch.
"""

import math
import numbers
import time
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .discretization import _integer
from .multigrid import cycle

__all__ = ["SolveReport", "checked_maxit", "fgmres", "stationary_solve"]

_BREAKDOWN = 1e-14
_BLOCK = 16     # basis rows added at a time: maxit rows up front can take a GB


@dataclass
class SolveReport:
    iterations: int
    residual_history: list = field(default_factory=list)
    converged: bool = False
    wall_time: float = 0.0
    diverged: bool = False


def checked_maxit(tol, maxit=None, restart=None):
    """The iteration cap of a solve, with its limits checked.

    maxit=None gives the default: 100, or 200 for restarted FGMRES. A tol
    that is not finite and positive, a maxit that is not a nonnegative
    integer, or a restart that is not a positive one is a ValueError that
    names the value.
    """
    if not (isinstance(tol, numbers.Real) and math.isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    if restart is not None and _integer(restart, "restart") < 1:
        raise ValueError(f"restart must be at least 1, got {restart!r}")
    if maxit is None:
        return 100 if restart is None else 200
    if _integer(maxit, "maxit") < 0:
        raise ValueError(f"maxit must be nonnegative, got {maxit!r}")
    return int(maxit)


def _givens(f, g):
    """Complex Givens pair (c real, s complex) zeroing g against f."""
    if f == 0:
        return 0.0, 1.0 + 0.0j
    d = np.hypot(abs(f), abs(g))
    c = abs(f) / d
    s = (f / abs(f)) * np.conj(g) / d
    return c, s


def _room(basis, rows):
    """basis, or a copy with _BLOCK more rows when it holds fewer than rows."""
    if rows <= len(basis):
        return basis
    grown = np.empty((len(basis) + _BLOCK, basis.shape[1]), dtype=complex)
    grown[:len(basis)] = basis
    return grown


def fgmres(apply_A, apply_M, b, restart=None, tol=1e-6, maxit=None):
    """Right-preconditioned flexible GMRES from a zero start.

    apply_A and apply_M are callables on flat complex vectors; apply_M may
    vary per call (flexible). restart=None keeps the full basis. Convergence
    is declared on the recomputed true residual ||b - A x|| / ||b|| < tol.
    The true residual is computed at the end of every (re)start, so apply_A
    runs once per iteration and once per start. Returns (x, SolveReport).
    """
    maxit = checked_maxit(tol, maxit, restart)

    start = time.perf_counter()
    b = np.asarray(b, dtype=complex).ravel()
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return np.zeros_like(b), SolveReport(
            iterations=0, residual_history=[0.0], converged=True,
            wall_time=time.perf_counter() - start)

    x, r, rnorm = np.zeros_like(b), b, bnorm
    history = [float(rnorm / bnorm)]
    converged = history[0] < tol
    iterations = 0
    V = np.empty((0, len(b)), dtype=complex)
    Z = np.empty((0, len(b)), dtype=complex)

    # r and rnorm hold the true residual of x at the top of every (re)start
    while not converged and iterations < maxit:
        budget = maxit - iterations if restart is None else min(restart, maxit - iterations)
        V = _room(V, 1)
        V[0] = r / rnorm
        H = np.zeros((budget, budget), dtype=complex)   # the triangular factor
        givens = []
        g = np.zeros(budget + 1, dtype=complex)
        g[0] = rnorm
        k = 0
        for j in range(budget):
            Z = _room(Z, j + 1)
            Z[j] = apply_M(V[j])
            w = apply_A(Z[j])
            iterations += 1
            norm_before = np.linalg.norm(w)
            basis = V[:j + 1]
            # conj(w^H V^T) is V^H w without a conjugated copy of the basis;
            # the first update makes a new w, since apply_A may return Z[j]
            first = np.conj(w.conj() @ basis.T)
            w = w - first @ basis
            second = np.conj(w.conj() @ basis.T)
            w -= second @ basis
            wnorm = np.linalg.norm(w)
            col = np.empty(j + 2, dtype=complex)
            col[:j + 1] = first + second
            col[j + 1] = wnorm
            breakdown = wnorm <= _BREAKDOWN * max(norm_before, 1e-300)
            if not breakdown:
                V = _room(V, j + 2)
                V[j + 1] = w / wnorm
            for i, (c, s) in enumerate(givens):
                ti = c * col[i] + s * col[i + 1]
                col[i + 1] = -np.conj(s) * col[i] + c * col[i + 1]
                col[i] = ti
            c, s = _givens(col[j], col[j + 1])
            givens.append((c, s))
            col[j] = c * col[j] + s * col[j + 1]
            col[j + 1] = 0.0
            g[j + 1] = -np.conj(s) * g[j]
            g[j] = c * g[j]
            H[:j + 1, j] = col[:j + 1]
            k = j + 1
            estimate = abs(g[j + 1]) / bnorm
            history.append(float(estimate))
            if estimate < tol or breakdown or iterations >= maxit:
                break
        y = solve_triangular(H[:k, :k], g[:k])
        x = x + y @ Z[:k]
        r = b - apply_A(x)
        rnorm = np.linalg.norm(r)
        history[-1] = float(rnorm / bnorm)
        converged = history[-1] < tol

    return x, SolveReport(iterations=iterations, residual_history=history,
                          converged=converged,
                          wall_time=time.perf_counter() - start)


def stationary_solve(hierarchy, b, tol=1e-6, maxit=None):
    """Repeated correction x <- x + cycle(b - A x) on the fine level, from a
    zero start.

    Aborts with the diverged flag when the relative residual grows past 10x
    its running minimum. Returns (x, SolveReport).
    """
    maxit = checked_maxit(tol, maxit)
    start = time.perf_counter()
    A = hierarchy.levels[0].operator.matrix
    b = np.asarray(b, dtype=complex).ravel()
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return np.zeros_like(b), SolveReport(
            iterations=0, residual_history=[0.0], converged=True,
            wall_time=time.perf_counter() - start)

    x, r = np.zeros_like(b), b
    rel = float(bnorm / bnorm)
    history = [rel]
    converged = rel < tol
    diverged = False
    best = rel
    iterations = 0
    while not converged and not diverged and iterations < maxit:
        x = x + cycle(hierarchy, r)
        r = b - A @ x
        rel = float(np.linalg.norm(r) / bnorm)
        history.append(rel)
        iterations += 1
        if rel < tol:
            converged = True
        elif rel >= 10.0 * best:
            diverged = True
        best = min(best, rel)

    return x, SolveReport(iterations=iterations, residual_history=history,
                          converged=converged, diverged=diverged,
                          wall_time=time.perf_counter() - start)
