"""Constant-branch stability, bifurcation detection, branch switching and
natural continuation, and the rigidity sweep."""

import numpy as np
import pytest

from neumann_rigidity import (
    Constant,
    NewtonOpts,
    Nonconstant,
    bifurcation_epsilon,
    branch_switch,
    build_bifurcation_report,
    continue_branch,
    detect_bifurcation,
    find_xi,
    first_eigenpair,
    rigidity_sweep,
    stability_indicator,
    trivial_branch_stability,
)
from neumann_rigidity.errors import FellBackToConstantError, InvalidBracketError
from neumann_rigidity.model import eval_f_prime
from neumann_rigidity.newton import sup_fluct_of

A = 2.0
XI = find_xi(A)
FP_XI = eval_f_prime(XI, A)


@pytest.fixture(scope="module")
def opts20(square20):
    return NewtonOpts(mu1=first_eigenpair(square20).mu1)


class TestStabilityIndicator:
    def test_spectral_identity_random_eps(self, square20, rng):
        # at u = xi the restricted Jacobian spectrum is eps*mu_k - f'(xi)
        mu1 = first_eigenpair(square20).mu1
        u = np.full(square20.n, XI)
        for eps in rng.uniform(0.05, 2.0, size=10):
            lam, _ = stability_indicator(u, float(eps), A, square20, tol=1e-10)
            predicted = eps * mu1 - FP_XI
            assert abs(lam - predicted) <= 1e-6 * max(abs(predicted), FP_XI)

    def test_positive_above_threshold(self, square20):
        mu1 = first_eigenpair(square20).mu1
        eps = 2.0 * FP_XI / mu1
        lam, _ = stability_indicator(np.full(square20.n, XI), eps, A, square20)
        assert lam > 0.0

    def test_near_zero_at_threshold(self, square20):
        mu1 = first_eigenpair(square20).mu1
        eps = FP_XI / mu1
        lam, _ = stability_indicator(np.full(square20.n, XI), eps, A, square20, tol=1e-11)
        assert abs(lam) <= 1e-6 * FP_XI


class TestTrivialBranchStability:
    def test_sign_change_across_grid(self, square20, opts20):
        mu1 = first_eigenpair(square20).mu1
        eps_star = FP_XI / mu1
        grid = [2.0 * eps_star, 1.2 * eps_star, 0.8 * eps_star, 0.5 * eps_star]
        points = trivial_branch_stability(grid, A, square20, opts=opts20)
        signs = [np.sign(p.stability_indicator) for p in points]
        assert signs == [1.0, 1.0, -1.0, -1.0]
        for p in points:
            assert isinstance(p.solution.classification, Constant)
            assert p.solution.diagnostics is not None


class TestDetectBifurcation:
    def test_closes_the_loop(self, square20):
        mu1 = first_eigenpair(square20).mu1
        eps_star = detect_bifurcation(A, square20, (0.10, 0.20), tol=1e-9)
        assert abs(eps_star * mu1 - FP_XI) <= 1e-6 * FP_XI

    def test_same_sign_bracket_rejected(self, square20):
        with pytest.raises(InvalidBracketError):
            detect_bifurcation(A, square20, (0.5, 1.0))
        with pytest.raises(InvalidBracketError):
            detect_bifurcation(A, square20, (0.2, 0.1))

    def test_mesh_refinement_approaches_continuum(self, square16, square32):
        target = FP_XI / np.pi**2
        d16 = detect_bifurcation(A, square16, (0.10, 0.20), tol=1e-7)
        d32 = detect_bifurcation(A, square32, (0.10, 0.20), tol=1e-7)
        assert abs(d32 - target) < abs(d16 - target)


class TestBranchSwitch:
    def test_switch_finds_pattern(self, square20, opts20):
        eps_star = bifurcation_epsilon(A, first_eigenpair(square20).mu1)
        rec, direction = branch_switch(eps_star, A, square20, opts=opts20)
        assert isinstance(rec.classification, Nonconstant)
        assert rec.classification.sup_fluct > 0.01
        assert rec.epsilon == pytest.approx(0.95 * eps_star)
        assert direction  # label of the eigenspace combination used

    def test_tiny_amplitude_falls_back(self, square20, opts20):
        eps_star = bifurcation_epsilon(A, first_eigenpair(square20).mu1)
        with pytest.raises(FellBackToConstantError):
            branch_switch(eps_star, A, square20, amplitude=1e-4, opts=opts20)

    def test_zero_amplitude_rejected(self, square20, opts20):
        with pytest.raises(ValueError):
            branch_switch(0.15, A, square20, amplitude=0.0, opts=opts20)

    def test_sign_symmetry_equivariance(self, square32):
        # the two stripe patterns from +/- starts are related by the
        # half-turn rotation, the symmetry the diagonal split preserves
        opts = NewtonOpts(mu1=first_eigenpair(square32).mu1)
        from neumann_rigidity import newton_solve

        x = square32.mesh.nodes[:, 0]
        plus = newton_solve(XI + 0.5 * np.cos(np.pi * x), 0.14, A, square32, opts)
        minus = newton_solve(XI - 0.5 * np.cos(np.pi * x), 0.14, A, square32, opts)
        nx = ny = 32

        def rotate(u):
            grid = u.reshape(ny + 1, nx + 1)
            return grid[::-1, ::-1].ravel()

        assert np.abs(rotate(plus.u) - minus.u).max() <= 1e-6


class TestContinueBranch:
    def test_empty_schedule(self, square20, opts20):
        eps_star = bifurcation_epsilon(A, first_eigenpair(square20).mu1)
        rec, _ = branch_switch(eps_star, A, square20, opts=opts20)
        assert continue_branch(rec, [], A, square20, opts=opts20) == []

    def test_downward_growth_and_upward_merge(self, square20, opts20):
        eps_star = bifurcation_epsilon(A, first_eigenpair(square20).mu1)
        rec, _ = branch_switch(eps_star, A, square20, opts=opts20)
        down = continue_branch(rec, [0.9 * eps_star, 0.8 * eps_star, 0.7 * eps_star],
                               A, square20, opts=opts20)
        sups = [sup_fluct_of(p.solution) for p in down]
        assert all(s2 > s1 for s1, s2 in zip(sups, sups[1:]))

        up = continue_branch(rec, [1.1 * eps_star], A, square20, opts=opts20)
        merged = up[-1].solution
        assert isinstance(merged.classification, Constant)
        v = merged.u - np.dot(square20.lumped_mass, merged.u) / square20.lumped_mass.sum()
        assert np.abs(v).max() < 1e-6

    def test_indicator_recomputable(self, square20, opts20):
        eps_star = bifurcation_epsilon(A, first_eigenpair(square20).mu1)
        rec, _ = branch_switch(eps_star, A, square20, opts=opts20)
        points = continue_branch(rec, [0.9 * eps_star], A, square20, opts=opts20)
        bp = points[0]
        lam, _ = stability_indicator(bp.solution.u, bp.epsilon, A, square20)
        assert abs(lam - bp.stability_indicator) <= 1e-6 * max(1.0, abs(lam))


class TestBifurcationReport:
    def test_report_structure(self, square20, opts20):
        report = build_bifurcation_report(A, square20, (0.10, 0.20), tol=1e-8,
                                          opts=opts20)
        assert report.relative_gap <= 1e-6
        assert report.mu1 == pytest.approx(first_eigenpair(square20).mu1)
        assert len(report.branch) >= 3
        assert report.switch_direction is not None
        assert report.switch_eigenvector is not None
        # patterned side grows away from the bifurcation
        sups = [sup_fluct_of(p.solution) for p in report.branch]
        assert sups[0] > 0.01
        assert sups[-1] > sups[0]
        # upward side merges with the constant branch
        last_up = report.upward_branch[-1].solution
        assert isinstance(last_up.classification, Constant)


class TestRigiditySweep:
    def test_single_deep_point(self, square16):
        opts = NewtonOpts(mu1=first_eigenpair(square16).mu1)
        result = rigidity_sweep([10.0], A, square16, 8, seed=0, opts=opts)
        assert len(result.rows) == 1
        row = result.rows[0]
        assert row.epsilon == 10.0
        assert not row.any_nonconstant
        assert row.n_distinct == 2
        assert result.eps_hat == 10.0

    def test_deterministic(self, square16):
        opts = NewtonOpts(mu1=first_eigenpair(square16).mu1)
        r1 = rigidity_sweep([0.5, 1.0], A, square16, 8, seed=3, opts=opts)
        r2 = rigidity_sweep([0.5, 1.0], A, square16, 8, seed=3, opts=opts)
        assert [(row.epsilon, row.n_distinct, row.any_nonconstant) for row in r1.rows] \
            == [(row.epsilon, row.n_distinct, row.any_nonconstant) for row in r2.rows]
        for eps in (0.5, 1.0):
            for rec1, rec2 in zip(r1.solutions[eps], r2.solutions[eps]):
                assert np.array_equal(rec1.u, rec2.u)

    def test_m_emp_positive(self, square16):
        opts = NewtonOpts(mu1=first_eigenpair(square16).mu1)
        result = rigidity_sweep([1.0], A, square16, 6, seed=0, opts=opts)
        assert result.m_emp == pytest.approx(XI, rel=1e-6)
