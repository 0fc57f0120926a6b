"""The stability indicator, bifurcation detection, branch switching and
natural continuation, and the rigidity sweep."""

import os

import numpy as np
import pytest
from scipy.linalg import cholesky, eigvalsh, null_space, solve_triangular

import neumann_rigidity.continuation as continuation
import neumann_rigidity.linsolve as linsolve
import neumann_rigidity.newton as newton
from neumann_rigidity import (
    bifurcation_epsilon,
    branch_switch,
    build_bifurcation_report,
    continue_branch,
    detect_bifurcation,
    find_xi,
    first_eigenpair,
    rigidity_sweep,
    stability_indicator,
)
from neumann_rigidity.errors import (
    BranchLostError,
    FellBackToConstantError,
    InvalidBracketError,
    NoConvergenceError,
)
from neumann_rigidity.model import eval_f_prime
from neumann_rigidity.newton import switch_directions

A = 2.0
XI = find_xi(A)
FP_XI = eval_f_prime(XI, A)


def _dense_indicator(op, u, eps):
    """Smallest eigenvalue of Q'JQ, where J = eps*A - diag(m*f'(u)) and the
    columns of Q are an M-orthonormal basis of {v : m'v = 0}."""
    m = op.lumped_mass
    basis = null_space(m[None, :])
    chol = cholesky(basis.T @ (m[:, None] * basis), lower=True)
    q = solve_triangular(chol, basis.T, lower=True).T
    jac = eps * op.stiffness.toarray() - np.diag(m * (np.exp(u) - A))
    return eigvalsh(q.T @ jac @ q, subset_by_index=[0, 0])[0]


class TestStabilityIndicator:
    def test_spectral_identity_random_eps(self, square20, rng):
        # at u = xi the restricted Jacobian spectrum is eps*mu_k - f'(xi)
        mu1 = first_eigenpair(square20).mu1
        u = np.full(square20.n, XI)
        for eps in rng.uniform(0.05, 2.0, size=10):
            lam = stability_indicator(u, float(eps), A, square20)
            predicted = eps * mu1 - FP_XI
            assert abs(lam - predicted) <= 1e-6 * max(abs(predicted), FP_XI)

    def test_positive_above_threshold(self, square20):
        mu1 = first_eigenpair(square20).mu1
        eps = 2.0 * FP_XI / mu1
        lam = stability_indicator(np.full(square20.n, XI), eps, A, square20)
        assert lam > 0.0

    def test_near_zero_at_threshold(self, square20):
        mu1 = first_eigenpair(square20).mu1
        eps = FP_XI / mu1
        lam = stability_indicator(np.full(square20.n, XI), eps, A, square20)
        assert abs(lam) <= 1e-6 * FP_XI

    def test_patterned_state_matches_dense_reference(self, square16):
        # off the constant branch the mean border does real work: compare
        # with the smallest eigenvalue of Q'JQ, where J = eps*A - diag(m*f'(u))
        # and the columns of Q are an M-orthonormal basis of {v : m'v = 0}
        eps_star = bifurcation_epsilon(A, first_eigenpair(square16).mu1)
        rec, _, _ = branch_switch(eps_star, A, square16)
        point = continue_branch(rec, [0.9 * eps_star], A, square16)[-1]
        u, eps = point.solution.u, point.solution.epsilon
        assert eps == 0.9 * eps_star and point.solution.sup_fluct > 0.1
        dense = _dense_indicator(square16, u, eps)
        assert point.stability_indicator == pytest.approx(dense, rel=1e-8)

    @pytest.mark.parametrize("mesh", ["square16", "square20"])
    def test_phi1_start_on_constant_branch(self, request, mesh):
        # Lanczos starts from phi1, the exact eigenvector here, across the
        # bifurcate bracket (0.10, 0.20); the identity and the dense pencil agree
        op = request.getfixturevalue(mesh)
        mu1 = first_eigenpair(op).mu1
        u = np.full(op.n, XI)
        for eps in np.linspace(0.10, 0.20, 6):
            lam = stability_indicator(u, eps, A, op)
            assert abs(lam - _dense_indicator(op, u, eps)) <= 1e-8
            assert abs(lam - (eps * mu1 - FP_XI)) <= 1e-8

    @pytest.mark.parametrize("mesh", ["square16", "square20"])
    def test_phi1_start_at_branch_points(self, request, mesh):
        # off the constant branch phi1 is only a guess of the eigenvector
        op = request.getfixturevalue(mesh)
        report = build_bifurcation_report(A, op, (0.10, 0.20))
        points = report.branch + report.upward_branch
        assert any(p.solution.sup_fluct > 0.1 for p in points)
        for p in points:
            dense = _dense_indicator(op, p.solution.u, p.solution.epsilon)
            assert abs(p.stability_indicator - dense) <= 1e-8 * max(1.0, abs(dense))

    def test_constant_state_takes_few_solves(self, square20, monkeypatch):
        # from phi1 the constant-state indicator needs at most 8 shift-invert
        # solves (the border's solve with m included), against 22 from a random start
        first_eigenpair(square20)  # mu1's Poisson solves are made before counting
        solves = []

        def counting_dpbtrs(chol, rhs, **kwargs):
            solves.append(rhs.shape[1])
            return linsolve_dpbtrs(chol, rhs, **kwargs)

        linsolve_dpbtrs = linsolve.dpbtrs
        monkeypatch.setattr(linsolve, "dpbtrs", counting_dpbtrs)
        stability_indicator(np.full(square20.n, XI), 0.12, A, square20)
        assert 0 < len(solves) <= 8 and set(solves) == {1}


class TestDetectBifurcation:
    def test_closes_the_loop(self, square20):
        mu1 = first_eigenpair(square20).mu1
        eps_star = detect_bifurcation(A, square20, (0.10, 0.20), tol=1e-9)
        assert abs(eps_star * mu1 - FP_XI) <= 1e-6 * FP_XI

    def test_rejects_nonpositive_tol(self, square20):
        with pytest.raises(ValueError):
            detect_bifurcation(A, square20, (0.10, 0.20), tol=0.0)

    def test_same_sign_bracket_rejected(self, square20):
        with pytest.raises(InvalidBracketError):
            detect_bifurcation(A, square20, (0.5, 1.0))
        with pytest.raises(InvalidBracketError):
            detect_bifurcation(A, square20, (0.2, 0.1))

    def test_tol_below_float_spacing_returns(self, square20, monkeypatch):
        # lo + tol/2 rounds to lo, so without a stop the secant loop would
        # repeat one eigensolve forever; the counter turns a hang into a failure
        reference = detect_bifurcation(A, square20, (0.10, 0.20), tol=1e-8)
        calls = []

        def counted(*args):
            calls.append(args)
            if len(calls) > 20:
                raise RuntimeError("detect_bifurcation does not stop")
            return stability_indicator(*args)

        monkeypatch.setattr(continuation, "stability_indicator", counted)
        eps_star = detect_bifurcation(A, square20, (0.10, 0.20), tol=1e-20)
        assert abs(eps_star - reference) <= 1e-14

    def test_mesh_refinement_approaches_continuum(self, square16, square32):
        target = FP_XI / np.pi**2
        d16 = detect_bifurcation(A, square16, (0.10, 0.20), tol=1e-7)
        d32 = detect_bifurcation(A, square32, (0.10, 0.20), tol=1e-7)
        assert abs(d32 - target) < abs(d16 - target)


class TestBranchSwitch:
    def test_switch_finds_pattern(self, square20):
        eps_star = bifurcation_epsilon(A, first_eigenpair(square20).mu1)
        rec, label, direction = branch_switch(eps_star, A, square20)
        assert rec.classification == "nonconstant"
        assert rec.sup_fluct > 0.01
        assert rec.epsilon == pytest.approx(0.95 * eps_star)
        # the signed label of the eigenspace combination used, and its direction
        assert np.array_equal(direction, dict(switch_directions(square20))[label.lstrip("-")])

    def test_tiny_amplitude_falls_back(self, square20, monkeypatch):
        eps_star = bifurcation_epsilon(A, first_eigenpair(square20).mu1)
        monkeypatch.setattr(continuation, "SWITCH_AMPLITUDE", 1e-4 / XI)
        with pytest.raises(FellBackToConstantError):
            branch_switch(eps_star, A, square20)

    def test_sign_symmetry_equivariance(self, square32):
        # the two stripe patterns from +/- starts are related by the
        # half-turn rotation, the symmetry the diagonal split preserves
        from neumann_rigidity import newton_solve

        x = square32.mesh.nodes[:, 0]
        plus = newton_solve(XI + 0.5 * np.cos(np.pi * x), 0.14, A, square32)
        minus = newton_solve(XI - 0.5 * np.cos(np.pi * x), 0.14, A, square32)
        nx = ny = 32

        def rotate(u):
            grid = u.reshape(ny + 1, nx + 1)
            return grid[::-1, ::-1].ravel()

        assert np.abs(rotate(plus.u) - minus.u).max() <= 1e-6


class TestContinueBranch:
    def test_empty_schedule(self, square20):
        eps_star = bifurcation_epsilon(A, first_eigenpair(square20).mu1)
        rec, _, _ = branch_switch(eps_star, A, square20)
        assert continue_branch(rec, [], A, square20) == []

    def test_downward_growth_and_upward_merge(self, square20):
        eps_star = bifurcation_epsilon(A, first_eigenpair(square20).mu1)
        rec, _, _ = branch_switch(eps_star, A, square20)
        down = continue_branch(rec, [0.9 * eps_star, 0.8 * eps_star, 0.7 * eps_star],
                               A, square20)
        sups = [p.solution.sup_fluct for p in down]
        assert all(s2 > s1 for s1, s2 in zip(sups, sups[1:]))

        up = continue_branch(rec, [1.1 * eps_star], A, square20)
        merged = up[-1].solution
        assert merged.classification == "constant"
        v = merged.u - np.dot(square20.lumped_mass, merged.u) / square20.lumped_mass.sum()
        assert np.abs(v).max() < 1e-6

    def test_indicator_recomputable(self, square20):
        eps_star = bifurcation_epsilon(A, first_eigenpair(square20).mu1)
        rec, _, _ = branch_switch(eps_star, A, square20)
        points = continue_branch(rec, [0.9 * eps_star], A, square20)
        bp = points[0]
        lam = stability_indicator(bp.solution.u, bp.solution.epsilon, A, square20)
        assert abs(lam - bp.stability_indicator) <= 1e-6 * max(1.0, abs(lam))

    def test_step_halving_then_branch_lost(self, square20, monkeypatch):
        # the first solve is real, every later one fails: the step at e2 is
        # halved toward e1 MAX_HALVINGS times, then the branch is lost
        eps_star = bifurcation_epsilon(A, first_eigenpair(square20).mu1)
        rec, _, _ = branch_switch(eps_star, A, square20)
        e1, e2 = 0.9 * eps_star, 0.8 * eps_star
        real_solve, calls = continuation.newton_solve, []

        def first_only(u0, epsilon, a, op):
            calls.append(epsilon)
            if len(calls) == 1:
                return real_solve(u0, epsilon, a, op)
            raise NoConvergenceError("forced failure")

        monkeypatch.setattr(continuation, "newton_solve", first_only)
        with pytest.raises(BranchLostError) as info:
            continue_branch(rec, [e1, e2], A, square20)
        assert len(calls) == 1 + continuation.MAX_HALVINGS + 1
        assert [p.solution.epsilon for p in info.value.points] == [e1]
        failed = [e2]
        for _ in range(continuation.MAX_HALVINGS):
            failed.append(0.5 * (e1 + failed[-1]))
        assert calls == [e1] + failed


@pytest.fixture(scope="class")
def report20(square20):
    return build_bifurcation_report(A, square20, (0.10, 0.20), tol=1e-8)


class TestBifurcationReport:
    def test_report_structure(self, square20, report20):
        report = report20
        assert report.relative_gap <= 1e-6
        assert report.mu1 == pytest.approx(first_eigenpair(square20).mu1)
        assert len(report.branch) >= 3
        assert report.switch_direction is not None
        assert report.switch_eigenvector is not None
        # patterned side grows away from the bifurcation
        sups = [p.solution.sup_fluct for p in report.branch]
        assert sups[0] > 0.01
        assert sups[-1] > sups[0]
        # upward side merges with the constant branch
        last_up = report.upward_branch[-1].solution
        assert last_up.classification == "constant"

    def test_branch_points_carry_no_report(self, report20):
        # the check suite runs only where a result is reported
        points = report20.branch + report20.upward_branch
        assert report20.upward_branch and all(p.solution.diagnostics is None for p in points)


class TestRigiditySweep:
    def test_single_deep_point(self, square16):
        result = rigidity_sweep([10.0], A, square16, 8, seed=0)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.epsilon == 10.0
        assert not row.any_nonconstant
        assert row.n_distinct == 2
        assert result.eps_hat == 10.0
        assert result.eps_hat_uncertainty is None

    def test_uncertainty_is_gap_below_eps_hat(self, square16):
        # a pattern at 0.12 and none at 0.3 bracket the threshold in (0.12, 0.3]
        result = rigidity_sweep([0.12, 0.3], A, square16, 16, seed=0)
        assert [row.any_nonconstant for row in result.rows] == [True, False]
        assert result.eps_hat == 0.3
        assert result.eps_hat_uncertainty == pytest.approx(0.18)

    def test_deterministic(self, square16):
        r1 = rigidity_sweep([0.5, 1.0], A, square16, 8, seed=3)
        r2 = rigidity_sweep([0.5, 1.0], A, square16, 8, seed=3)
        assert [(row.epsilon, row.n_distinct, row.any_nonconstant) for row in r1.rows] \
            == [(row.epsilon, row.n_distinct, row.any_nonconstant) for row in r2.rows]
        for row1, row2 in zip(r1.rows, r2.rows):
            for rec1, rec2 in zip(row1.distinct, row2.distinct):
                assert np.array_equal(rec1.u, rec2.u)

    def test_bad_q_rejected_before_any_start(self, square16, monkeypatch):
        calls = []
        monkeypatch.setattr(newton, "newton_solve", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="q must exceed 2"):
            rigidity_sweep([0.12, 1.0], A, square16, 8, seed=0, q=2.0)
        assert calls == []

    def test_workers_capped_at_grid_size(self, square16, monkeypatch):
        # a process pool starts all max_workers at its first task, so the
        # worker count must exceed neither the number of grid values nor
        # the machine's CPU count
        pools = []

        class SerialPool:
            def __init__(self, max_workers):
                pools.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, tasks):
                return map(fn, tasks)

        monkeypatch.setattr(continuation, "ProcessPoolExecutor", SerialPool)
        two = rigidity_sweep([0.5, 1.0], A, square16, 4, seed=0, threads=64)
        assert pools == [2] and [row.epsilon for row in two.rows] == [0.5, 1.0]
        one = rigidity_sweep([1.0], A, square16, 4, seed=0, threads=64)
        assert pools == [2] and one.rows[0].n_distinct == 2
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        three = rigidity_sweep([0.5, 1.0, 10.0], A, square16, 4, seed=0, threads=64)
        assert pools == [2, 2] and [row.epsilon for row in three.rows] == [0.5, 1.0, 10.0]

    def test_m_emp_positive(self, square16):
        result = rigidity_sweep([1.0], A, square16, 6, seed=0)
        assert result.m_emp == pytest.approx(XI, rel=1e-6)
