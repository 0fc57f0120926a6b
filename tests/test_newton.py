"""Steady-state residual/Jacobian, the damped Newton iteration, solution
classification, and the deterministic multi-start search."""

import numpy as np
import pytest

from neumann_rigidity import (
    Constant,
    NewtonOpts,
    Nonconstant,
    SolutionRecord,
    classify,
    find_xi,
    first_eigenpair,
    jacobian,
    multi_start,
    newton_solve,
    residual,
    weighted_mean,
)
from neumann_rigidity.errors import NoConvergenceError, SingularJacobianError
from neumann_rigidity.linsolve import bordered, restricted_smallest_eigen
from neumann_rigidity.model import eval_f, eval_f_prime
from neumann_rigidity.newton import dedup_records, default_tol, start_family

A = 2.0
XI = find_xi(A)


@pytest.fixture(scope="module")
def opts20(square20):
    return NewtonOpts(mu1=first_eigenpair(square20).mu1)


class TestResidual:
    def test_zero_state(self, square20):
        r = residual(np.zeros(square20.n), 1.0, A, square20)
        assert np.abs(r).max() == 0.0

    def test_xi_state(self, square20):
        r = residual(np.full(square20.n, XI), 1.0, A, square20)
        assert np.abs(r).max() <= 1e-14

    def test_other_constant(self, square20):
        # stiffness annihilates constants, so R_i = -m_i f(c) exactly
        c = 0.7
        r = residual(np.full(square20.n, c), 2.5, A, square20)
        expected = -square20.lumped_mass * eval_f(c, A)
        assert np.allclose(r, expected, rtol=1e-10, atol=1e-14)

    def test_saturated_state_is_finite(self, square20):
        r = residual(np.full(square20.n, 1e3), 1.0, A, square20)
        assert np.all(np.isfinite(r))


class TestJacobian:
    def test_symmetry(self, square20, rng):
        u = rng.uniform(-1.0, 2.0, square20.n)
        j_mat = jacobian(u, 0.7, A, square20)
        asym = abs(j_mat - j_mat.T)
        assert asym.nnz == 0 or asym.max() <= 1e-14

    def test_directional_derivative(self, square20, rng):
        u = rng.uniform(-1.0, 2.0, square20.n)
        w = rng.standard_normal(square20.n)
        j_mat = jacobian(u, 0.7, A, square20)
        errs = []
        for h in (1e-4, 1e-5):
            fd = (residual(u + h * w, 0.7, A, square20) - residual(u, 0.7, A, square20)) / h
            errs.append(np.abs(fd - j_mat.dot(w)).max())
        assert errs[1] < errs[0]  # O(h) agreement
        assert errs[1] <= 1e-4 * (1.0 + np.abs(j_mat.dot(w)).max())

    def test_singular_at_primary_bifurcation(self, square20):
        # at u = xi and eps = f'(xi)/mu1 the smallest restricted eigenvalue
        # of the Jacobian pencil vanishes
        pair = first_eigenpair(square20)
        eps = eval_f_prime(XI, A) / pair.mu1
        m = square20.lumped_mass
        lam, _ = restricted_smallest_eigen(bordered(square20), -eval_f_prime(XI, A), scale=eps,
                                           d=m * eval_f_prime(XI, A), tol=1e-11)
        assert abs(lam) <= 1e-6 * eval_f_prime(XI, A)


class TestNewtonSolve:
    def test_converges_to_xi(self, square20, opts20):
        rec = newton_solve(np.full(square20.n, 0.9 * XI), 1.0, A, square20, opts20)
        assert isinstance(rec.classification, Constant)
        assert rec.classification.value == pytest.approx(XI, abs=1e-9)
        assert rec.residual_norm <= default_tol(square20)

    def test_converges_to_zero(self, square20, opts20):
        rec = newton_solve(np.full(square20.n, -0.5), 1.0, A, square20, opts20)
        assert isinstance(rec.classification, Constant)
        assert abs(rec.classification.value) <= 1e-9

    def test_exact_root_is_fixed_point(self, square20, opts20):
        rec = newton_solve(np.zeros(square20.n), 0.3, A, square20, opts20)
        assert rec.newton_iters == 0
        assert isinstance(rec.classification, Constant)

    def test_log_a_start_is_singular(self, square20, opts20):
        # f'(log a) = 0 makes the Jacobian annihilate constants
        with pytest.raises(SingularJacobianError):
            newton_solve(np.full(square20.n, np.log(A)), 1.0, A, square20, opts20)

    def test_nonconstant_below_bifurcation(self, square32):
        pair = first_eigenpair(square32)
        x = square32.mesh.nodes[:, 0]
        rec = newton_solve(XI + 0.5 * np.cos(np.pi * x), 0.14, A, square32,
                           NewtonOpts(mu1=pair.mu1))
        assert isinstance(rec.classification, Nonconstant)
        assert rec.classification.sup_fluct > 0.01
        assert rec.residual_norm <= default_tol(square32)

    def test_zero_average_identity_at_solutions(self, square32):
        pair = first_eigenpair(square32)
        x = square32.mesh.nodes[:, 0]
        rec = newton_solve(XI + 0.5 * np.cos(np.pi * x), 0.14, A, square32,
                           NewtonOpts(mu1=pair.mu1))
        m = square32.lumped_mass
        fu = np.exp(rec.u) - 1.0 - A * rec.u
        assert abs(np.dot(m, fu)) <= 10.0 * default_tol(square32)

    def test_diagnostics_attached(self, square20, opts20):
        rec = newton_solve(np.full(square20.n, 0.9 * XI), 1.0, A, square20, opts20)
        assert rec.diagnostics is not None
        assert rec.diagnostics.mean_in_bounds

    def test_rejects_bad_eps(self, square20, opts20):
        with pytest.raises(ValueError):
            newton_solve(np.zeros(square20.n), -1.0, A, square20, opts20)

    def test_rejects_wrong_length(self, square20, opts20):
        with pytest.raises(ValueError):
            newton_solve(np.zeros(5), 1.0, A, square20, opts20)

    def test_huge_start_fails_gracefully(self, square16):
        u0 = np.full(square16.n, 500.0)
        with pytest.raises((NoConvergenceError, SingularJacobianError)):
            newton_solve(u0, 1.0, A, square16,
                         NewtonOpts(mu1=first_eigenpair(square16).mu1, max_iter=12))


class TestClassify:
    def test_constant(self, square16):
        m = square16.lumped_mass
        cls = classify(np.full(square16.n, XI), m)
        assert isinstance(cls, Constant)
        assert cls.value == pytest.approx(XI, rel=1e-14)

    def test_zero_constant(self, square16):
        cls = classify(np.zeros(square16.n), square16.lumped_mass)
        assert isinstance(cls, Constant) and cls.value == 0.0

    def test_cosine_is_nonconstant(self, square16):
        u = np.cos(np.pi * square16.mesh.nodes[:, 0])
        cls = classify(u, square16.lumped_mass)
        assert isinstance(cls, Nonconstant)
        assert cls.sup_fluct == pytest.approx(1.0, rel=0.05)

    def test_shift_moves_only_the_mean(self, square16, rng):
        m = square16.lumped_mass
        u = rng.standard_normal(square16.n)
        c = 3.7
        before = classify(u, m)
        after = classify(u + c, m)
        assert isinstance(before, Nonconstant) and isinstance(after, Nonconstant)
        assert after.sup_fluct == pytest.approx(before.sup_fluct, rel=1e-12)
        u_const = np.full(square16.n, 0.25)
        assert classify(u_const + c, m).value == pytest.approx(
            classify(u_const, m).value + c, rel=1e-14)

    def test_threshold_scale(self, square16):
        m = square16.lumped_mass
        u = np.full(square16.n, XI)
        u[0] += 5e-7  # below the 1e-6 relative threshold
        assert isinstance(classify(u, m), Constant)
        u[0] += 1e-5
        assert isinstance(classify(u, m), Nonconstant)


class TestStartFamily:
    def test_single_start_is_zero(self, square16):
        starts = start_family(1.0, A, square16, 1, seed=0)
        assert len(starts) == 1
        assert starts[0][0] == "const:0"
        assert np.all(starts[0][1] == 0.0)

    def test_deterministic(self, square16):
        s1 = start_family(0.5, A, square16, 30, seed=7)
        s2 = start_family(0.5, A, square16, 30, seed=7)
        assert all(np.array_equal(a[1], b[1]) for a, b in zip(s1, s2))

    def test_noise_range(self, square16):
        starts = start_family(0.5, A, square16, 40, seed=3)
        noise = [u for label, u in starts if label.startswith("noise")]
        assert noise
        for u in noise:
            assert u.min() >= -2.0 and u.max() <= XI + 2.0

    def test_rejects_zero_starts(self, square16):
        with pytest.raises(ValueError):
            start_family(1.0, A, square16, 0, seed=0)


class TestDedup:
    def _record(self, u, square16):
        return newton_solve(u, 1.0, A, square16,
                            NewtonOpts(mu1=first_eigenpair(square16).mu1,
                                       attach_diagnostics=False))

    def test_permutation_invariant(self, square16, rng):
        recs = [
            self._record(np.zeros(square16.n), square16),
            self._record(np.full(square16.n, XI), square16),
            self._record(np.full(square16.n, 0.9 * XI), square16),
            self._record(np.full(square16.n, -0.2), square16),
        ]
        base = dedup_records(recs)
        for _ in range(5):
            perm = list(rng.permutation(len(recs)))
            again = dedup_records([recs[i] for i in perm])
            assert len(again) == len(base)
            for r1, r2 in zip(base, again):
                assert np.abs(r1.u - r2.u).max() <= 1e-8

    def test_orders_by_weighted_mean(self):
        # plain means 1.0 < 1.35, mass-weighted means 1.5 > 1.125
        m = np.array([1.0, 3.0])
        recs = [
            SolutionRecord(u=u, epsilon=1.0, residual_norm=0.0, newton_iters=0,
                           classification=classify(u, m))
            for u in (np.array([0.0, 2.0]), np.array([1.8, 0.9]))
        ]
        assert all(isinstance(r.classification, Nonconstant) for r in recs)
        ordered = dedup_records(recs)
        assert [weighted_mean(r.u, m) for r in ordered] == pytest.approx([1.125, 1.5])


class TestMultiStart:
    def test_rigidity_regime_two_constants(self, square16):
        pair = first_eigenpair(square16)
        result = multi_start(1.0, A, square16, 12, seed=0, opts=NewtonOpts(mu1=pair.mu1))
        values = sorted(
            rec.classification.value for rec in result.distinct
            if isinstance(rec.classification, Constant)
        )
        assert len(result.distinct) == 2
        assert values[0] == pytest.approx(0.0, abs=1e-8)
        assert values[1] == pytest.approx(XI, abs=1e-8)

    def test_finds_pattern_below_bifurcation(self, square20, opts20):
        result = multi_start(0.125, A, square20, 50, seed=0, opts=opts20)
        assert any(isinstance(r.classification, Nonconstant) for r in result.distinct)

    def test_per_start_log(self, square16):
        pair = first_eigenpair(square16)
        result = multi_start(1.0, A, square16, 12, seed=0, opts=NewtonOpts(mu1=pair.mu1))
        assert len(result.runs) == 12
        log_a_runs = [r for r in result.runs if r.label == "const:log_a"]
        assert len(log_a_runs) == 1 and not log_a_runs[0].converged
        assert sum(r.converged for r in result.runs) >= 2

    def test_deterministic_given_seed(self, square16):
        pair = first_eigenpair(square16)
        opts = NewtonOpts(mu1=pair.mu1)
        r1 = multi_start(0.5, A, square16, 10, seed=42, opts=opts)
        r2 = multi_start(0.5, A, square16, 10, seed=42, opts=opts)
        assert len(r1.distinct) == len(r2.distinct)
        for a_rec, b_rec in zip(r1.distinct, r2.distinct):
            assert np.array_equal(a_rec.u, b_rec.u)

    def test_every_record_satisfies_zero_average(self, square20, opts20):
        result = multi_start(0.5, A, square20, 15, seed=1, opts=opts20)
        m = square20.lumped_mass
        for rec in result.distinct:
            fu = np.exp(rec.u) - 1.0 - A * rec.u
            assert abs(np.dot(m, fu)) <= 10.0 * default_tol(square20)

    def test_weighted_mean_helper(self):
        assert weighted_mean(np.array([0.0, 2.0]), np.array([1.0, 3.0])) == 1.5
