"""Outer solvers: flexible GMRES mechanics and the stationary driver."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import krylov_oracle
from rscgc.discretization import assemble_operator, point_source
from rscgc.krylov import fgmres, stationary_solve
from rscgc.multigrid import CyclePlan, build_hierarchy, cycle

from conftest import build_problem


def jacobi_preconditioned_run(**kwargs):
    problem = build_problem(2, 32, 12, pad=0)
    A = assemble_operator(problem, "fourth-order").matrix
    invd = 1.0 / A.diagonal()
    b = point_source(problem).ravel()
    return A, invd, fgmres(lambda v: A @ v, lambda v: 0.89 * invd * v, b, **kwargs)


# ---------------------------------------------------------------- fgmres

def test_identity_system_converges_in_one_step():
    rng = np.random.default_rng(0)
    b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    x, report = fgmres(lambda v: v, lambda v: v, b, tol=1e-12)
    assert report.converged and report.iterations == 1
    assert np.allclose(x, b)


def test_matches_dense_solve():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    A += 20.0 * np.eye(10)
    b = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    x, report = fgmres(lambda v: A @ v, lambda v: v, b, tol=1e-12)
    assert report.converged
    assert np.linalg.norm(x - np.linalg.solve(A, b)) <= 1e-8


def test_flexible_storage_agrees_with_composed_operator():
    """With a fixed M, right preconditioning equals plain GMRES on A M."""
    A, invd, (x1, rep1) = jacobi_preconditioned_run(tol=1e-12, maxit=25)
    problem = build_problem(2, 32, 12, pad=0)
    b = point_source(problem).ravel()
    precondition = lambda v: 0.89 * invd * v
    y, rep2 = fgmres(lambda v: A @ precondition(v), lambda v: v, b, tol=1e-12, maxit=25)
    x2 = precondition(y)
    h1, h2 = np.array(rep1.residual_history), np.array(rep2.residual_history)
    assert h1.shape == h2.shape
    assert np.allclose(h1, h2, rtol=1e-10, atol=1e-14)
    assert np.allclose(x1, x2, atol=1e-10 * np.linalg.norm(x1))


def test_restart_keeps_counting_across_blocks():
    _, _, (x, report) = jacobi_preconditioned_run(tol=1e-8, restart=5, maxit=23)
    assert report.iterations == 23 and not report.converged
    assert len(report.residual_history) == report.iterations + 1


@pytest.mark.parametrize("restart,starts", [(None, 1), (5, 5)])
def test_apply_A_runs_once_per_iteration_and_once_per_start(restart, starts):
    """The true residual is computed once at the end of every start and not
    before the first, whose residual is b: 23 iterations take 23 products
    plus one per start."""
    problem = build_problem(2, 32, 12, pad=0)
    A = assemble_operator(problem, "fourth-order").matrix
    invd = 1.0 / A.diagonal()
    b = point_source(problem).ravel()
    calls = []
    apply_A = lambda v: calls.append(1) or A @ v
    x, report = fgmres(apply_A, lambda v: 0.89 * invd * v, b,
                       restart=restart, tol=1e-12, maxit=23)
    assert report.iterations == 23 and not report.converged
    assert len(calls) == report.iterations + starts
    true_rel = np.linalg.norm(b - A @ x) / np.linalg.norm(b)
    assert report.residual_history[-1] == pytest.approx(true_rel, rel=1e-12)


def test_history_monotone_and_final_entry_recomputed():
    problem = build_problem(2, 32, 12, pad=0)
    A = assemble_operator(problem, "fourth-order")
    hier = build_hierarchy(problem, "fourth-order", CyclePlan(alpha=1.0045))
    b = point_source(problem).ravel()
    x, report = fgmres(lambda v: A.matrix @ v, lambda v: cycle(hier, v), b, tol=1e-8)
    h = np.array(report.residual_history)
    assert report.converged
    assert h[0] == pytest.approx(1.0)
    assert np.all(np.diff(h) <= 1e-12)
    recomputed = np.linalg.norm(b - A.matrix @ x) / np.linalg.norm(b)
    assert abs(h[-1] - recomputed) <= 1e-12


def test_zero_rhs_short_circuits():
    x, report = fgmres(lambda v: v, lambda v: v, np.zeros(8), tol=1e-8)
    assert report.converged and report.iterations == 0
    assert not x.any() and report.residual_history == [0.0]


def test_lucky_breakdown_on_a_two_cluster_spectrum():
    """diag(1,...,2,...) has a 2-dimensional Krylov space: two iterations."""
    d = np.array([1.0] * 5 + [2.0] * 5)
    b = np.ones(10, dtype=complex)
    x, report = fgmres(lambda v: d * v, lambda v: v, b, tol=1e-10)
    assert report.converged and report.iterations == 2
    assert np.allclose(x, b / d, atol=1e-12)


def test_fgmres_argument_validation():
    b = np.ones(4)
    with pytest.raises(ValueError, match="tol"):
        fgmres(lambda v: v, lambda v: v, b, tol=0.0)
    with pytest.raises(ValueError, match="restart"):
        fgmres(lambda v: v, lambda v: v, b, restart=0)
    for solve in (fgmres, stationary_solve):
        for tol, named in ((-1.0, "-1.0"), (np.nan, "nan"), (np.inf, "inf"),
                           ("abc", "'abc'")):
            with pytest.raises(ValueError, match=f"tol.*{named}"):
                solve(lambda v: v, lambda v: v, b, tol=tol)
        for value, named in ((-3, "-3"), (2.5, "2.5"), (True, "True")):
            with pytest.raises(ValueError, match=f"maxit.*{named}"):
                solve(lambda v: v, lambda v: v, b, maxit=value)
        # a non-finite right-hand side is named before any iteration
        for bad, named in ((np.nan, "nan"), (-np.inf, "-inf")):
            calls = []
            b_bad = np.r_[b, bad]
            with pytest.raises(ValueError, match=rf"b must be finite.*{named}.*index 4"):
                solve(lambda v: calls.append(1) or v, lambda v: v, b_bad)
            assert not calls
    for value, named in ((-3, "-3"), (2.5, "2.5"), (True, "True")):
        with pytest.raises(ValueError, match=f"restart.*{named}"):
            fgmres(lambda v: v, lambda v: v, b, restart=value)


@settings(max_examples=24, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(2.5, 4.0),
       restart=st.sampled_from([None, 7, 20]), identity_A=st.booleans())
def test_cgs2_on_blocked_arrays_matches_the_mgs_oracle(seed, shift, restart, identity_A):
    """On a diagonally shifted random complex system the blocked CGS2 solver
    takes the iterations of the modified Gram-Schmidt oracle, with the same
    residual history to 1e-10. Every run takes more than 16 iterations, so
    the basis arrays grow; with identity_A, A is the identity, apply_A
    returns its argument, and the system sits in the preconditioner."""
    rng = np.random.default_rng(seed)
    n = 48
    B = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(n)
    B += shift * np.eye(n)
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    d = rng.uniform(0.5, 2.0, n)
    if identity_A:
        apply_A, apply_M = (lambda v: v), (lambda v: B @ v)
    else:
        apply_A, apply_M = (lambda v: B @ v), (lambda v: v / d)
    kwargs = dict(restart=restart, tol=1e-10, maxit=150)
    x, report = fgmres(apply_A, apply_M, b, **kwargs)
    x_ref, expected = krylov_oracle.fgmres(apply_A, apply_M, b, **kwargs)
    assert report.iterations == expected.iterations > 16
    assert report.converged == expected.converged
    h, h_ref = np.array(report.residual_history), np.array(expected.residual_history)
    assert h.shape == h_ref.shape
    assert np.abs(h - h_ref).max() <= 1e-10
    assert np.linalg.norm(x - x_ref) <= 1e-8 * np.linalg.norm(x_ref)


def test_maxit_caps_the_iteration_count():
    rng = np.random.default_rng(3)
    A = rng.standard_normal((30, 30)) + 30.0 * np.eye(30)
    b = rng.standard_normal(30)
    _, report = fgmres(lambda v: A @ v, lambda v: v, b, tol=1e-30, maxit=7)
    assert report.iterations == 7 and not report.converged


def test_a_huge_maxit_reserves_nothing():
    """The triangular factor holds the iterations run, not maxit: a (maxit,
    maxit) array for maxit = 10^8 would need 160 PB."""
    x, report = jacobi_preconditioned_run(tol=1e-6, maxit=10 ** 8)[2]
    _, _, (expected, reference) = jacobi_preconditioned_run(tol=1e-6, maxit=200)
    assert report.converged and report.iterations < 200
    assert report.residual_history == reference.residual_history
    assert np.array_equal(x, expected)


# ---------------------------------------------------------------- stationary

def test_stationary_flags_divergence_at_tenfold_growth():
    rng = np.random.default_rng(4)
    b = rng.standard_normal(16).astype(complex)
    x, report = stationary_solve(lambda v: v, lambda r: -r, b, tol=1e-8)
    # residual doubles each step: 2, 4, 8, 16 => flagged on the fourth
    assert report.diverged and not report.converged
    assert report.iterations == 4


def test_stationary_converges_with_a_contracting_cycle():
    b = np.ones(9, dtype=complex)
    x, report = stationary_solve(lambda v: v, lambda r: 0.5 * r, b, tol=1e-3)
    assert report.converged and not report.diverged
    assert report.iterations == 10  # 2^-10 is the first residual under 1e-3
    h = np.array(report.residual_history)
    assert np.allclose(h, 0.5 ** np.arange(11))


def test_stationary_maxit_caps_the_iteration_count():
    b = np.ones(9, dtype=complex)
    _, capped = stationary_solve(lambda v: v, lambda r: 0.5 * r, b, tol=1e-30, maxit=6)
    assert capped.iterations == 6
    assert not capped.converged and not capped.diverged


def test_stationary_on_a_real_hierarchy():
    # needs the absorbing layer: the undamped closed box is near-resonant
    problem = build_problem(2, 32, 10)
    hier = build_hierarchy(problem, "fourth-order", CyclePlan(alpha=1.014))
    A = hier.levels[0].operator.matrix
    b = point_source(problem).ravel()
    x, report = stationary_solve(lambda v: A @ v, lambda r: cycle(hier, r), b, tol=1e-8)
    assert report.converged and not report.diverged
    assert np.linalg.norm(b - A @ x) <= 1e-8 * np.linalg.norm(b)
    with pytest.raises(ValueError, match="tol"):
        stationary_solve(lambda v: A @ v, lambda r: cycle(hier, r), b, tol=-1.0)
