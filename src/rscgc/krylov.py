"""Flexible right-preconditioned GMRES and the stationary cycle driver.

scipy's gmres is not flexible (it assumes a fixed preconditioner and
left-preconditions in legacy mode), so the outer solver is written here:
modified Gram-Schmidt with a single reorthogonalization pass, complex Givens
rotations on the Hessenberg columns, optional restart. An iteration means one
preconditioner application; residual_history carries one relative residual
per iteration, with the final entry recomputed from scratch.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .multigrid import cycle

__all__ = ["SolveReport", "default_maxit", "fgmres", "stationary_solve"]

_BREAKDOWN = 1e-14


@dataclass
class SolveReport:
    iterations: int
    residual_history: list = field(default_factory=list)
    converged: bool = False
    wall_time: float = 0.0
    diverged: bool = False


def default_maxit(restart=None):
    """Iteration cap when none is given: 100, or 200 for restarted FGMRES."""
    return 100 if restart is None else 200


def _givens(f, g):
    """Complex Givens pair (c real, s complex) zeroing g against f."""
    if f == 0:
        return 0.0, 1.0 + 0.0j
    d = np.hypot(abs(f), abs(g))
    c = abs(f) / d
    s = (f / abs(f)) * np.conj(g) / d
    return c, s


def fgmres(apply_A, apply_M, b, x0=None, restart=None, tol=1e-6, maxit=None):
    """Right-preconditioned flexible GMRES.

    apply_A and apply_M are callables on flat complex vectors; apply_M may
    vary per call (flexible). restart=None keeps the full basis. Convergence
    is declared on the recomputed true residual ||b - A x|| / ||b|| < tol.
    Returns (x, SolveReport).
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if restart is not None and restart < 1:
        raise ValueError(f"restart must be at least 1, got {restart}")
    if maxit is None:
        maxit = default_maxit(restart)
    if apply_M is None:
        apply_M = lambda v: v

    start = time.perf_counter()
    b = np.asarray(b, dtype=complex).ravel()
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return np.zeros_like(b), SolveReport(
            iterations=0, residual_history=[0.0], converged=True,
            wall_time=time.perf_counter() - start)

    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=complex).ravel().copy()
    history = [float(np.linalg.norm(b - apply_A(x)) / bnorm)]
    converged = history[0] < tol
    iterations = 0

    while not converged and iterations < maxit:
        r = b - apply_A(x)
        rnorm = np.linalg.norm(r)
        if rnorm / bnorm < tol:
            converged = True
            break
        budget = maxit - iterations if restart is None else min(restart, maxit - iterations)
        V = [r / rnorm]
        Z = []
        R_cols = []
        givens = []
        g = np.zeros(budget + 1, dtype=complex)
        g[0] = rnorm
        k = 0
        for j in range(budget):
            z = apply_M(V[j])
            Z.append(z)
            w = apply_A(z)
            iterations += 1
            norm_before = np.linalg.norm(w)
            col = np.zeros(j + 2, dtype=complex)
            for i in range(j + 1):
                hij = np.vdot(V[i], w)
                col[i] = hij
                w = w - hij * V[i]
            if np.linalg.norm(w) < norm_before / np.sqrt(2.0):
                # basis nearly contains w; one reorthogonalization pass
                for i in range(j + 1):
                    corr = np.vdot(V[i], w)
                    col[i] += corr
                    w = w - corr * V[i]
            wnorm = np.linalg.norm(w)
            col[j + 1] = wnorm
            breakdown = wnorm <= _BREAKDOWN * max(norm_before, 1e-300)
            if not breakdown:
                V.append(w / wnorm)
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
            R_cols.append(col[:j + 1].copy())
            k = j + 1
            estimate = abs(g[j + 1]) / bnorm
            history.append(float(estimate))
            if estimate < tol or breakdown or iterations >= maxit:
                break
        # solve the k x k triangular system and correct
        y = np.zeros(k, dtype=complex)
        for i in range(k - 1, -1, -1):
            y[i] = (g[i] - sum(R_cols[jj][i] * y[jj] for jj in range(i + 1, k))) / R_cols[i][i]
        for i in range(k):
            x = x + y[i] * Z[i]
        true_rel = float(np.linalg.norm(b - apply_A(x)) / bnorm)
        history[-1] = true_rel
        converged = true_rel < tol

    return x, SolveReport(iterations=iterations, residual_history=history,
                          converged=converged,
                          wall_time=time.perf_counter() - start)


def stationary_solve(hierarchy, b, tol=1e-6, maxit=None, x0=None):
    """Repeated correction x <- x + cycle(b - A x) on the fine level.

    Aborts with the diverged flag when the relative residual grows past 10x
    its running minimum. Returns (x, SolveReport).
    """
    if tol <= 0:
        raise ValueError(f"tol must be positive, got {tol}")
    if maxit is None:
        maxit = default_maxit()
    start = time.perf_counter()
    A = hierarchy.levels[0].operator.matrix
    b = np.asarray(b, dtype=complex).ravel()
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return np.zeros_like(b), SolveReport(
            iterations=0, residual_history=[0.0], converged=True,
            wall_time=time.perf_counter() - start)

    x = np.zeros_like(b) if x0 is None else np.asarray(x0, dtype=complex).ravel().copy()
    r = b - A @ x
    rel = float(np.linalg.norm(r) / bnorm)
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
