"""Steady-state residual/Jacobian, the damped Newton iteration, solution
classification, and the deterministic multi-start search."""

import numpy as np
import pytest
from scipy.linalg.lapack import dgbtrs

import neumann_rigidity.linsolve as linsolve
import neumann_rigidity.newton as newton
from neumann_rigidity import (
    SolutionRecord,
    assemble,
    attach_diagnostics,
    build_rectangle_mesh,
    classify,
    dual_norm,
    find_xi,
    first_eigenpair,
    jacobian,
    multi_start,
    newton_solve,
    residual,
    run_diagnostics,
    weighted_mean,
)
from neumann_rigidity.errors import NoConvergenceError, SingularJacobianError
from neumann_rigidity.linsolve import bordered, restricted_smallest_eigen
from neumann_rigidity.model import eval_f, eval_f_prime
from neumann_rigidity.newton import _newton_step, dedup_records, default_tol, start_family

A = 2.0
XI = find_xi(A)


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

    def test_saturated_node_has_infinite_norm(self, square20):
        # the Newton line search rejects saturated trials through this norm
        u = np.zeros(square20.n)
        u[square20.n // 2] = 701.0
        r = residual(u, 1.0, A, square20)
        assert np.all(np.isfinite(r))
        assert dual_norm(r, square20.lumped_mass) == np.inf


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
                                           d=m * eval_f_prime(XI, A))
        assert abs(lam) <= 1e-6 * eval_f_prime(XI, A)


class TestNewtonStep:
    @pytest.mark.parametrize("eps", [0.08, 0.4, 1.0])
    def test_direction_cancels_residual_to_first_order(self, square16, rng, eps):
        # the direction newton_solve takes: one band solve with the Jacobian
        for _ in range(5):
            u = rng.uniform(-1.0, 2.0, square16.n)
            r = residual(u, eps, A, square16)
            d = _newton_step(u, r, eps, A, square16)
            h = 1e-6 * max(1.0, np.abs(u).max()) / np.abs(d).max()
            fd = (residual(u + h * d, eps, A, square16)
                  - residual(u - h * d, eps, A, square16)) / (2.0 * h)
            assert np.abs(fd + r).max() <= 1e-6 * np.abs(r).max()

    @pytest.mark.parametrize("mesh", ["square16", "disk4"])
    def test_step_is_dense_jacobian_solve(self, request, rng, mesh):
        op = request.getfixturevalue(mesh)
        for eps in (0.08, 0.4, 1.0):
            u = rng.uniform(-1.0, 2.0, op.n)
            r = residual(u, eps, A, op)
            want = -np.linalg.solve(jacobian(u, eps, A, op).toarray(), r)
            got = _newton_step(u, r, eps, A, op)
            assert np.abs(got - want).max() <= 1e-10 * np.abs(want).max()

    def test_one_single_column_band_solve_per_iteration(self, square20, monkeypatch):
        columns = []

        def counting_dgbtrs(lu, kl, ku, b, piv, **kwargs):
            columns.append(b.shape[1])
            return dgbtrs(lu, kl, ku, b, piv, **kwargs)

        monkeypatch.setattr(linsolve, "dgbtrs", counting_dgbtrs)
        x = square20.mesh.nodes[:, 0]
        rec = newton_solve(XI + 0.5 * np.cos(np.pi * x), 0.14, A, square20)
        assert rec.newton_iters > 2
        assert columns == [1] * rec.newton_iters


class TestHeldFactor:
    @pytest.mark.parametrize("eps", [0.08, 0.12, 0.3])
    def test_census_matches_fresh_factor_every_iteration(self, square20, monkeypatch, eps):
        # CONTRACTION = 0 never holds a factor: one fresh LU per iteration
        held = multi_start(eps, A, square20, 50, seed=0)
        monkeypatch.setattr(newton, "CONTRACTION", 0.0)
        fresh = multi_start(eps, A, square20, 50, seed=0)
        assert [r.converged for r in held.runs] == [r.converged for r in fresh.runs]
        assert held.n_distinct == fresh.n_distinct
        for h, f in zip(held.distinct, fresh.distinct):
            assert np.abs(h.u - f.u).max() <= 1e-8

    def test_factorizations_count_band_lus(self, square20, monkeypatch):
        x = square20.mesh.nodes[:, 0]
        u0 = XI + 0.5 * np.cos(np.pi * x)
        rec = newton_solve(u0, 0.14, A, square20)
        assert 0 < rec.factorizations < rec.newton_iters
        monkeypatch.setattr(newton, "CONTRACTION", 0.0)
        fresh = newton_solve(u0, 0.14, A, square20)
        assert fresh.factorizations == fresh.newton_iters
        assert np.abs(fresh.u - rec.u).max() <= 1e-8


class TestNewtonSolve:
    def test_converges_to_xi(self, square20):
        rec = newton_solve(np.full(square20.n, 0.9 * XI), 1.0, A, square20)
        assert rec.classification == "constant"
        assert rec.mean == pytest.approx(XI, abs=1e-9)
        assert rec.residual_norm <= default_tol(square20)

    def test_converges_to_zero(self, square20):
        rec = newton_solve(np.full(square20.n, -0.5), 1.0, A, square20)
        assert rec.classification == "constant"
        assert abs(rec.mean) <= 1e-9

    def test_exact_root_is_fixed_point(self, square20):
        rec = newton_solve(np.zeros(square20.n), 0.3, A, square20)
        assert rec.newton_iters == 0
        assert rec.classification == "constant"

    def test_log_a_start_is_singular(self, square20):
        # f'(log a) = 0 makes the Jacobian annihilate constants
        with pytest.raises(SingularJacobianError):
            newton_solve(np.full(square20.n, np.log(A)), 1.0, A, square20)

    def test_nonconstant_below_bifurcation(self, square32):
        x = square32.mesh.nodes[:, 0]
        rec = newton_solve(XI + 0.5 * np.cos(np.pi * x), 0.14, A, square32)
        assert rec.classification == "nonconstant"
        assert rec.sup_fluct > 0.01
        assert rec.residual_norm <= default_tol(square32)

    def test_zero_average_identity_at_solutions(self, square32):
        x = square32.mesh.nodes[:, 0]
        rec = newton_solve(XI + 0.5 * np.cos(np.pi * x), 0.14, A, square32)
        m = square32.lumped_mass
        fu = np.exp(rec.u) - 1.0 - A * rec.u
        assert abs(np.dot(m, fu)) <= 10.0 * default_tol(square32)

    def test_diagnostics_attached(self, square20):
        rec = newton_solve(np.full(square20.n, 0.9 * XI), 1.0, A, square20)
        assert rec.diagnostics is None
        checked = attach_diagnostics(rec, A, 4.0, square20)
        assert checked.diagnostics == run_diagnostics(
            rec.u, 1.0, A, 4.0, square20, first_eigenpair(square20).mu1)
        assert checked.diagnostics.mean_in_bounds
        assert checked.u is rec.u
        assert (checked.mean, checked.sup_fluct) == (rec.mean, rec.sup_fluct)

    def test_rejects_bad_eps(self, square20):
        with pytest.raises(ValueError):
            newton_solve(np.zeros(square20.n), -1.0, A, square20)

    def test_rejects_wrong_length(self, square20):
        with pytest.raises(ValueError):
            newton_solve(np.zeros(5), 1.0, A, square20)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_start(self, square16, bad):
        # a NaN residual norm would pass the loop test and be "converged"
        u0 = np.full(square16.n, 0.5)
        u0[7] = bad
        with pytest.raises(ValueError, match="non-finite"):
            newton_solve(u0, 1.0, A, square16)

    @pytest.mark.parametrize("eps, a", [(np.inf, A), (1.0, np.nan)], ids=["eps-inf", "a-nan"])
    def test_rejects_non_finite_parameters(self, eps, a):
        # either makes the residual norm NaN, once read as "converged" after
        # 0 iterations
        op = assemble(build_rectangle_mesh(8, 8, 1.0, 1.0))
        with pytest.raises(ValueError, match="finite"):
            newton_solve(np.full(op.n, 0.5), eps, a, op)

    def test_huge_start_fails_gracefully(self, square16):
        u0 = np.full(square16.n, 500.0)
        with pytest.raises((NoConvergenceError, SingularJacobianError)):
            newton_solve(u0, 1.0, A, square16)

    @pytest.mark.parametrize("value", [1e300, 800.0, -1e300])
    def test_infinite_start_residual_fails_at_once(self, square20, monkeypatch, value):
        # no damped step reduces an infinite residual norm, so no Jacobian is
        # factored and no trial residual evaluated
        calls = []

        def counting_residual(*args):
            calls.append(args)
            return residual(*args)

        monkeypatch.setattr(newton, "residual", counting_residual)
        with pytest.raises(NoConvergenceError, match="start residual inf"):
            newton_solve(np.full(square20.n, value), 1.0, A, square20)
        assert len(calls) == 1


class TestClassify:
    def test_constant(self, square16):
        m = square16.lumped_mass
        mean, sup_fluct = classify(np.full(square16.n, XI), m)
        assert sup_fluct == 0.0
        assert mean == pytest.approx(XI, rel=1e-14)

    def test_zero_constant(self, square16):
        assert classify(np.zeros(square16.n), square16.lumped_mass) == (0.0, 0.0)

    def test_cosine_is_nonconstant(self, square16):
        u = np.cos(np.pi * square16.mesh.nodes[:, 0])
        _, sup_fluct = classify(u, square16.lumped_mass)
        assert sup_fluct > 0.0
        assert sup_fluct == pytest.approx(1.0, rel=0.05)

    def test_shift_moves_only_the_mean(self, square16, rng):
        m = square16.lumped_mass
        u = rng.standard_normal(square16.n)
        c = 3.7
        _, before = classify(u, m)
        _, after = classify(u + c, m)
        assert before > 0.0 and after > 0.0
        assert after == pytest.approx(before, rel=1e-12)
        u_const = np.full(square16.n, 0.25)
        mean, sup_fluct = classify(u_const, m)
        shifted, shifted_sup = classify(u_const + c, m)
        assert sup_fluct == shifted_sup == 0.0
        assert shifted == pytest.approx(mean + c, rel=1e-14)

    def test_threshold_scale(self, square16):
        m = square16.lumped_mass
        u = np.full(square16.n, XI)
        u[0] += 5e-7  # below the 1e-6 relative threshold
        assert classify(u, m)[1] == 0.0
        u[0] += 1e-5
        assert classify(u, m)[1] > 0.0


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
        return newton_solve(u, 1.0, A, square16)

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
            SolutionRecord(u, 1.0, 0.0, 0, *classify(u, m))
            for u in (np.array([0.0, 2.0]), np.array([1.8, 0.9]))
        ]
        assert all(r.classification == "nonconstant" for r in recs)
        ordered = dedup_records(recs)
        assert [weighted_mean(r.u, m) for r in ordered] == pytest.approx([1.125, 1.5])


class TestMultiStart:
    def test_rigidity_regime_two_constants(self, square16):
        result = multi_start(1.0, A, square16, 12, seed=0)
        values = sorted(
            rec.mean for rec in result.distinct if rec.classification == "constant"
        )
        assert len(result.distinct) == 2
        assert values[0] == pytest.approx(0.0, abs=1e-8)
        assert values[1] == pytest.approx(XI, abs=1e-8)

    def test_finds_pattern_below_bifurcation(self, square20):
        result = multi_start(0.125, A, square20, 50, seed=0)
        assert any(r.classification == "nonconstant" for r in result.distinct)

    def test_per_start_log(self, square16):
        result = multi_start(1.0, A, square16, 12, seed=0)
        assert len(result.runs) == 12
        assert [r.start_id for r in result.runs] == list(range(12))
        labels = [r.label for r in result.runs]
        assert labels[:2] == ["const:0", "const:xi"] and "const:log_a" not in labels
        # the singular constant log(a) is not tried, so both constants converge
        assert result.runs[0].converged and result.runs[1].converged
        for r in result.runs:
            assert r.converged == (r.failure is None) == (r.iters is not None)

    def test_census_record(self, square20):
        # below the bifurcation some noise starts fail, and the record counts them
        result = multi_start(0.125, A, square20, 30, seed=0)
        assert result.epsilon == 0.125
        assert result.n_distinct == len(result.distinct)
        assert result.any_nonconstant
        assert result.n_failed == sum(not r.converged for r in result.runs) > 0

    def test_reports_use_q(self, square20):
        result = multi_start(0.125, A, square20, 15, seed=0, q=3.0)
        mu1 = first_eigenpair(square20).mu1
        assert any(r.classification == "nonconstant" for r in result.distinct)
        for rec in result.distinct:
            assert rec.diagnostics == run_diagnostics(rec.u, rec.epsilon, A, 3.0, square20, mu1)

    def test_bad_q_rejected_before_any_start(self, square16, monkeypatch):
        calls = []
        monkeypatch.setattr(newton, "newton_solve", lambda *args, **kwargs: calls.append(args))
        with pytest.raises(ValueError, match="q must exceed 2"):
            multi_start(0.12, A, square16, 10, seed=0, q=2.0)
        assert calls == []

    def test_deterministic_given_seed(self, square16):
        r1 = multi_start(0.5, A, square16, 10, seed=42)
        r2 = multi_start(0.5, A, square16, 10, seed=42)
        assert len(r1.distinct) == len(r2.distinct)
        for a_rec, b_rec in zip(r1.distinct, r2.distinct):
            assert np.array_equal(a_rec.u, b_rec.u)

    def test_every_record_satisfies_zero_average(self, square20):
        result = multi_start(0.5, A, square20, 15, seed=1)
        m = square20.lumped_mass
        for rec in result.distinct:
            fu = np.exp(rec.u) - 1.0 - A * rec.u
            assert abs(np.dot(m, fu)) <= 10.0 * default_tol(square20)

    def test_weighted_mean_helper(self):
        assert weighted_mean(np.array([0.0, 2.0]), np.array([1.0, 3.0])) == 1.5
