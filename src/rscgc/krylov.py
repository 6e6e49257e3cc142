"""The outer solvers, flexible GMRES and the stationary iteration.

Both take the operator and the preconditioner as callables on flat complex
vectors, start from zero and share one prologue, which checks the limits and
b. scipy's gmres is not flexible (it assumes a fixed preconditioner and
left-preconditions in legacy mode), so FGMRES is written here. The Krylov
basis V and the preconditioned vectors Z are rows of two complex arrays that
grow a block of rows at a time, and the triangular factor and the rotated
residual hold one column and one entry per iteration run, so a large maxit
reserves nothing. Each new vector is orthogonalized by
classical Gram-Schmidt run twice (CGS2), every pass two BLAS-2 products;
complex Givens rotations reduce the Hessenberg columns to an upper-triangular
factor; restart is optional. An iteration means one preconditioner
application; residual_history carries one relative residual per iteration,
with the final entry recomputed from scratch. A SolveReport holds no
timing: a caller that wants one times the solve call itself.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import solve_triangular

from .discretization import _integer

__all__ = ["SolveReport", "checked_maxit", "fgmres", "stationary_solve"]

_BREAKDOWN = 1e-14
_BLOCK = 16     # basis rows added at a time: maxit rows up front can take a GB


@dataclass
class SolveReport:
    iterations: int
    residual_history: list = field(default_factory=list)
    converged: bool = False
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


def _outer_solve(iterate, b, tol, maxit, restart=None):
    """(x, SolveReport) of iterate(b, bnorm, maxit), which returns x and the
    report's fields. checked_maxit checks the limits first, and a non-finite
    entry of b is a ValueError that names it. A zero b gives x = 0 with no
    iteration."""
    maxit = checked_maxit(tol, maxit, restart)
    b = np.asarray(b, dtype=complex).ravel()
    bad = np.flatnonzero(~np.isfinite(b))
    if len(bad):
        raise ValueError(f"b must be finite, got {b[bad[0]]} at index {bad[0]} "
                         f"({len(bad)} non-finite entries)")
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        x, fields = np.zeros_like(b), dict(iterations=0, residual_history=[0.0],
                                           converged=True)
    else:
        x, fields = iterate(b, bnorm, maxit)
    return x, SolveReport(**fields)


def fgmres(apply_A, apply_M, b, restart=None, tol=1e-6, maxit=None):
    """Right-preconditioned flexible GMRES from a zero start.

    apply_A and apply_M are callables on flat complex vectors; apply_M may
    vary per call (flexible). restart=None keeps the full basis. Convergence
    is declared on the recomputed true residual ||b - A x|| / ||b|| < tol.
    The true residual is computed at the end of every (re)start, so apply_A
    runs once per iteration and once per start. Returns (x, SolveReport).
    """
    def iterate(b, bnorm, maxit):
        x, r, rnorm = np.zeros_like(b), b, bnorm
        history = [float(rnorm / bnorm)]
        converged = history[0] < tol
        iterations = 0
        V = np.empty((0, len(b)), dtype=complex)
        Z = np.empty((0, len(b)), dtype=complex)

        # r and rnorm hold the true residual of x at the top of every (re)start
        while not converged and iterations < maxit:
            budget = min(restart or maxit, maxit - iterations)
            V = _room(V, 1)
            V[0] = r / rnorm
            # the triangular factor by columns and the rotated residual, one
            # entry per iteration run, however large the budget
            columns, givens, g = [], [], [np.complex128(rnorm)]
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
                g.append(-np.conj(s) * g[j])
                g[j] = c * g[j]
                columns.append(col[:j + 1])
                estimate = abs(g[j + 1]) / bnorm
                history.append(float(estimate))
                if estimate < tol or breakdown or iterations >= maxit:
                    break
            k = len(columns)
            H = np.zeros((k, k), dtype=complex)
            for j, column in enumerate(columns):
                H[:j + 1, j] = column
            y = solve_triangular(H, np.array(g[:k]))
            x = x + y @ Z[:k]
            r = b - apply_A(x)
            rnorm = np.linalg.norm(r)
            history[-1] = float(rnorm / bnorm)
            converged = history[-1] < tol
        return x, dict(iterations=iterations, residual_history=history,
                       converged=converged)

    return _outer_solve(iterate, b, tol, maxit, restart)


def stationary_solve(apply_A, apply_M, b, tol=1e-6, maxit=None):
    """The stationary iteration x <- x + apply_M(b - apply_A(x)) from a zero
    start; apply_A and apply_M are callables on flat complex vectors.

    Aborts with the diverged flag when the relative residual grows past 10x
    its running minimum. Returns (x, SolveReport).
    """
    def iterate(b, bnorm, maxit):
        x, r = np.zeros_like(b), b
        history = [float(bnorm / bnorm)]
        converged, diverged = history[0] < tol, False
        while not (converged or diverged) and len(history) <= maxit:
            x = x + apply_M(r)
            r = b - apply_A(x)
            history.append(float(np.linalg.norm(r) / bnorm))
            converged = history[-1] < tol
            diverged = not converged and history[-1] >= 10.0 * min(history[:-1])
        return x, dict(iterations=len(history) - 1, residual_history=history,
                       converged=converged, diverged=diverged)

    return _outer_solve(iterate, b, tol, maxit)
