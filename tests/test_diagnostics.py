"""The per-solution check suite and the empirical Green-kernel constants."""

from dataclasses import asdict

import numpy as np
import pytest

from neumann_rigidity import (
    bordered,
    check_energy_identity,
    check_exp_integrability,
    check_l1_bound,
    check_mean_bounds,
    check_poincare,
    check_representation,
    check_zero_average,
    estimate_green_constants,
    find_xi,
    first_eigenpair,
    newton_solve,
    project_mean_zero,
    run_diagnostics,
    solve_projected,
)
from neumann_rigidity.diagnostics import classify, cq_numerical_estimate
from neumann_rigidity.errors import ZeroFieldError
from neumann_rigidity.newton import default_tol

A = 2.0
XI = find_xi(A)


@pytest.fixture(scope="module")
def pattern32(square32):
    """A patterned steady state just below the bifurcation point."""
    pair = first_eigenpair(square32)
    eps = 0.9 * (np.exp(XI) - A) / pair.mu1
    x = square32.mesh.nodes[:, 0]
    return newton_solve(XI + 0.5 * np.cos(np.pi * x), eps, A, square32)


class TestZeroAverage:
    def test_constants_pass(self, square20):
        m = square20.lumped_mass
        for c in (0.0, XI):
            res, ok = check_zero_average(np.full(square20.n, c), m, A, tol=1e-12)
            assert ok and res <= 1e-13

    def test_converged_pattern(self, square32, pattern32):
        res, ok = check_zero_average(pattern32.u, square32.lumped_mass, A,
                                     tol=10.0 * default_tol(square32))
        assert ok
        assert res <= 10.0 * default_tol(square32)


class TestL1Bound:
    def test_zero_state(self, square20):
        l1, bound, ok = check_l1_bound(np.zeros(square20.n), square20.lumped_mass, A)
        assert ok and l1 == 0.0
        assert bound == pytest.approx(2.0 * (2.0 * np.log(2.0) - 1.0), rel=1e-12)

    def test_pattern_strictly_below_bound(self, square32, pattern32):
        l1, bound, ok = check_l1_bound(pattern32.u, square32.lumped_mass, A)
        assert ok and 0.0 < l1 < bound


class TestMeanBounds:
    def test_solutions_pass(self, square20):
        for c in (0.0, XI):
            mean, ok = check_mean_bounds(np.full(square20.n, c), square20.lumped_mass, A)
            assert ok and mean == pytest.approx(c, abs=1e-12)

    def test_negative_control(self, square20):
        # twice the root is not a steady state and violates the mean bound
        mean, ok = check_mean_bounds(np.full(square20.n, 2.0 * XI),
                                     square20.lumped_mass, A)
        assert not ok and mean > XI


class TestExpIntegrability:
    def test_constant_gives_area(self, square20):
        integral, ref = check_exp_integrability(np.full(square20.n, XI),
                                                square20.lumped_mass, q=4.0)
        assert ref == pytest.approx(square20.area, rel=1e-14)
        assert integral == pytest.approx(square20.area, rel=1e-14)

    def test_monotone_in_q(self, square32, pattern32):
        i3, _ = check_exp_integrability(pattern32.u, square32.lumped_mass, q=3.0)
        i4, _ = check_exp_integrability(pattern32.u, square32.lumped_mass, q=4.0)
        assert i4 >= i3

    def test_rejects_small_q(self, square20):
        with pytest.raises(ValueError):
            check_exp_integrability(np.zeros(square20.n), square20.lumped_mass, q=2.0)

    def test_extreme_field_overflows_to_inf(self, square20):
        u = np.zeros(square20.n)
        u[0] = 500.0
        integral, _ = check_exp_integrability(u, square20.lumped_mass, q=4.0)
        assert np.isinf(integral)


class TestEnergyIdentity:
    def test_constant_trivial(self, square20):
        lhs, rhs, ok = check_energy_identity(np.full(square20.n, XI), 1.0, square20,
                                             A, tol=1e-12)
        assert ok and lhs == 0.0 and abs(rhs) <= 1e-12

    def test_converged_pattern(self, square32, pattern32):
        tol = 10.0 * default_tol(square32)
        lhs, rhs, ok = check_energy_identity(pattern32.u, pattern32.epsilon, square32,
                                             A, tol=tol)
        assert ok and lhs > 0.0
        assert abs(lhs - rhs) <= tol * (1.0 + abs(lhs))

    def test_random_field_fails(self, square20, rng):
        u = rng.standard_normal(square20.n)
        _, _, ok = check_energy_identity(u, 0.5, square20, A, tol=1e-10)
        assert not ok


class TestPoincare:
    def test_first_eigenfunction_ratio_one(self, square20):
        pair = first_eigenpair(square20)
        ratio, ok = check_poincare(pair.phi1, square20.lumped_mass, square20, pair.mu1)
        assert ok and ratio == pytest.approx(1.0, abs=1e-8)

    def test_second_eigenfunction_above_one(self, square20):
        pair = first_eigenpair(square20)
        ratio, ok = check_poincare(pair.phi2, square20.lumped_mass, square20, pair.mu1)
        assert ok and ratio > 1.0

    def test_random_fields(self, square20, rng):
        pair = first_eigenpair(square20)
        m = square20.lumped_mass
        for _ in range(100):
            v = project_mean_zero(rng.standard_normal(square20.n), m)
            ratio, ok = check_poincare(v, m, square20, pair.mu1)
            assert ok and ratio >= 1.0 - 1e-8

    def test_zero_field_rejected(self, square20):
        with pytest.raises(ZeroFieldError):
            check_poincare(np.zeros(square20.n), square20.lumped_mass, square20, 9.8)


class TestRepresentation:
    def test_constant(self, square20):
        err, ok = check_representation(np.full(square20.n, XI), 1.0, A, square20,
                                       tol=1e-10)
        assert ok and err <= 1e-12

    def test_converged_pattern(self, square32, pattern32):
        tol = 100.0 * default_tol(square32)
        err, ok = check_representation(pattern32.u, pattern32.epsilon, A, square32,
                                       tol=tol)
        assert ok and err <= tol

    def test_manufactured_field_fails(self, square20):
        u = XI + 0.5 * np.sin(2.0 * np.pi * square20.mesh.nodes[:, 1])
        err, ok = check_representation(u, 0.3, A, square20, tol=1e-8)
        assert not ok and err > 1e-3


class TestGreenConstants:
    def test_square_c2_below_bound(self, square32):
        k_green, c2 = estimate_green_constants(square32, sample_count=6, seed=3)
        assert np.isfinite(k_green)
        assert c2 <= 2.0 * np.pi * square32.diameter**2

    def test_disk_c2_below_bound(self, disk4):
        _, c2 = estimate_green_constants(disk4, sample_count=6, seed=3)
        assert c2 <= 2.0 * np.pi * disk4.diameter**2

    def test_mesh_stability(self, square32, square64):
        k32, _ = estimate_green_constants(square32, sample_count=5, seed=11)
        k64, _ = estimate_green_constants(square64, sample_count=5, seed=11)
        assert abs(k64 - k32) <= 0.2 * max(abs(k32), abs(k64))

    def test_symmetric_sources_equivariant(self, square32):
        # sources at half-turn-symmetric nodes give Green columns related by
        # the same node permutation
        nx = ny = 32
        m = square32.lumped_mass

        def rotate_id(i):
            row, col = divmod(i, nx + 1)
            return (ny - row) * (nx + 1) + (nx - col)

        y = 3 * (nx + 1) + 7
        y_rot = rotate_id(y)
        cols = {}
        for src in (y, y_rot):
            load = -m / square32.area
            load[src] += 1.0
            cols[src] = solve_projected(bordered(square32), load)
        perm = np.array([rotate_id(i) for i in range(square32.n)])
        assert np.abs(cols[y][perm] - cols[y_rot]).max() <= 1e-6

    def test_cq_estimate(self):
        assert cq_numerical_estimate(0.2, 4.0) == pytest.approx(
            4.0 * np.exp(0.2 * np.pi), rel=1e-12)

    def test_rejects_zero_samples(self, square20):
        with pytest.raises(ValueError):
            estimate_green_constants(square20, sample_count=0)


class TestFullReport:
    def test_pattern_report_passes_suite(self, square32, pattern32):
        pair = first_eigenpair(square32)
        report = run_diagnostics(pattern32.u, pattern32.epsilon, A, 4.0,
                                 square32, pair.mu1)
        assert report.ok
        assert report.poincare_ratio >= 1.0 - 1e-8
        assert report.sup_norm >= XI
        assert report.exp_integral_q > square32.area

    def test_constant_report(self, square20):
        pair = first_eigenpair(square20)
        report = run_diagnostics(np.full(square20.n, XI), 1.0, A, 4.0,
                                 square20, pair.mu1)
        assert report.ok
        assert report.poincare_ratio == 1.0  # vacuous for a constant
        assert report.exp_integral_q == pytest.approx(square20.area, rel=1e-12)

    def test_constant_by_classify_gets_unit_ratio(self, square20):
        # classify is the one constant test: a constant plus round-off noise
        # is constant to it, so the spectral gap is not evaluated on the noise
        noise = np.random.default_rng(0).standard_normal(square20.n)
        u = XI + 1e-12 * noise
        assert classify(u, square20.lumped_mass)[1] == 0.0
        report = run_diagnostics(u, 1.0, A, 4.0, square20, first_eigenpair(square20).mu1)
        assert report.poincare_ratio == 1.0 and report.poincare_ok

    def test_report_serializable(self, square20):
        pair = first_eigenpair(square20)
        report = run_diagnostics(np.zeros(square20.n), 1.0, A, 4.0,
                                 square20, pair.mu1)
        d = asdict(report)
        assert set(d) == {
            "zero_avg_residual", "zero_avg_ok", "l1_norm_f", "l1_bound", "l1_ok",
            "mean_u", "mean_in_bounds", "exp_integral_q", "energy_lhs", "energy_rhs",
            "energy_ok", "poincare_ratio", "poincare_ok", "representation_error",
            "representation_ok", "sup_norm",
        }

    def test_overstated_mu1_fails_poincare(self, square32, pattern32):
        mu1 = 1.5 * first_eigenpair(square32).mu1
        report = run_diagnostics(pattern32.u, pattern32.epsilon, A, 4.0,
                                 square32, mu1)
        # only the spectral gap can catch a wrong mu1
        assert report.zero_avg_ok and report.l1_ok and report.mean_in_bounds
        assert report.energy_ok and report.representation_ok
        assert report.poincare_ratio < 1.0
        assert not report.poincare_ok
        assert report.ok is False
