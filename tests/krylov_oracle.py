"""Modified Gram-Schmidt FGMRES, the reference for the library's solver.

The solver never goes through this module. It keeps the Krylov basis and
the preconditioned vectors in Python lists, orthogonalizes one basis vector
at a time (modified Gram-Schmidt, with a second pass only when the first
removes most of the vector), back-substitutes in Python and updates x one
term at a time. :func:`rscgc.krylov.fgmres` is checked against it.
"""

import numpy as np

from rscgc.krylov import _BREAKDOWN, SolveReport, _givens


def default_maxit(restart=None):
    """Iteration cap when none is given: 100, or 200 for restarted FGMRES."""
    return 100 if restart is None else 200


def fgmres(apply_A, apply_M, b, restart=None, tol=1e-6, maxit=None):
    """Right-preconditioned flexible GMRES from a zero start.

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

    b = np.asarray(b, dtype=complex).ravel()
    bnorm = np.linalg.norm(b)
    if bnorm == 0:
        return np.zeros_like(b), SolveReport(
            iterations=0, residual_history=[0.0], converged=True)

    x = np.zeros_like(b)
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
                          converged=converged)
