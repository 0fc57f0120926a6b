"""The per-solution check suite and the empirical Green-kernel constants.

Each estimate is reached through ``run_diagnostics``, the one entry point of
the suite, and read off its report.
"""

from dataclasses import asdict

import numpy as np
import pytest

import neumann_rigidity.diagnostics as diagnostics
from neumann_rigidity import (
    bordered,
    estimate_green_constants,
    find_xi,
    first_eigenpair,
    newton_solve,
    run_diagnostics,
    solve_projected,
)
from neumann_rigidity.diagnostics import classify, cq_numerical_estimate
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


def report(u, eps, op, q=4.0):
    """The suite's report on u at the operator's own mu1."""
    return run_diagnostics(u, eps, A, q, op, first_eigenpair(op).mu1)


def pattern_report(op, state, q=4.0):
    return report(state.u, state.epsilon, op, q)


class TestZeroAverage:
    def test_constants_pass(self, square20):
        for c in (0.0, XI):
            r = report(np.full(square20.n, c), 1.0, square20)
            assert r.zero_avg_ok and r.zero_avg_residual <= 1e-13

    def test_converged_pattern(self, square32, pattern32):
        r = pattern_report(square32, pattern32)
        assert r.zero_avg_ok
        assert r.zero_avg_residual <= 10.0 * default_tol(square32)


class TestL1Bound:
    def test_zero_state(self, square20):
        r = report(np.zeros(square20.n), 1.0, square20)
        assert r.l1_ok and r.l1_norm_f == 0.0
        assert r.l1_bound == pytest.approx(2.0 * (2.0 * np.log(2.0) - 1.0), rel=1e-12)

    def test_pattern_strictly_below_bound(self, square32, pattern32):
        r = pattern_report(square32, pattern32)
        assert r.l1_ok and 0.0 < r.l1_norm_f < r.l1_bound


class TestMeanBounds:
    def test_solutions_pass(self, square20):
        for c in (0.0, XI):
            r = report(np.full(square20.n, c), 1.0, square20)
            assert r.mean_in_bounds and r.mean_u == pytest.approx(c, abs=1e-12)

    def test_negative_control(self, square20):
        # twice the root is not a steady state and violates the mean bound
        r = report(np.full(square20.n, 2.0 * XI), 1.0, square20)
        assert not r.mean_in_bounds and r.mean_u > XI


class TestExpIntegrability:
    def test_constant_gives_area(self, square20):
        r = report(np.full(square20.n, XI), 1.0, square20)
        assert r.exp_integral_q == pytest.approx(square20.area, rel=1e-14)

    def test_monotone_in_q(self, square32, pattern32):
        i3 = pattern_report(square32, pattern32, q=3.0).exp_integral_q
        i4 = pattern_report(square32, pattern32, q=4.0).exp_integral_q
        assert i4 >= i3

    def test_rejects_small_q(self, square20):
        with pytest.raises(ValueError, match="q must exceed 2"):
            report(np.zeros(square20.n), 1.0, square20, q=2.0)

    def test_extreme_field_overflows_to_inf(self, square20):
        # 4*|v| passes the exp overflow at 710 while f(u) and its solve stay finite
        u = np.zeros(square20.n)
        u[0] = 200.0
        r = report(u, 1.0, square20)
        assert np.isinf(r.exp_integral_q)
        assert np.isfinite(r.l1_norm_f) and np.isfinite(r.representation_error)


class TestEnergyIdentity:
    def test_constant_trivial(self, square20):
        r = report(np.full(square20.n, XI), 1.0, square20)
        assert r.energy_ok and r.energy_lhs == 0.0 and abs(r.energy_rhs) <= 1e-12

    def test_converged_pattern(self, square32, pattern32):
        tol = 10.0 * default_tol(square32)
        r = pattern_report(square32, pattern32)
        assert r.energy_ok and r.energy_lhs > 0.0
        assert abs(r.energy_lhs - r.energy_rhs) <= tol * (1.0 + abs(r.energy_lhs))

    def test_random_field_fails(self, square20, rng):
        r = report(rng.standard_normal(square20.n), 0.5, square20)
        assert not r.energy_ok


class TestPoincare:
    def test_first_eigenfunction_ratio_one(self, square20):
        r = report(first_eigenpair(square20).phi1, 1.0, square20)
        assert r.poincare_ok and r.poincare_ratio == pytest.approx(1.0, abs=1e-8)

    def test_second_eigenfunction_above_one(self, square20):
        r = report(first_eigenpair(square20).phi2, 1.0, square20)
        assert r.poincare_ok and r.poincare_ratio > 1.0

    def test_random_fields(self, square20, rng):
        for _ in range(100):
            r = report(rng.standard_normal(square20.n), 1.0, square20)
            assert r.poincare_ok and r.poincare_ratio >= 1.0 - 1e-8

    def test_zero_field_gets_unit_ratio(self, square20):
        r = report(np.zeros(square20.n), 1.0, square20)
        assert (r.poincare_ratio, r.poincare_ok) == (1.0, True)

    def test_vanishing_projection_fails_quietly(self, square20, rng, monkeypatch):
        # if m'w**2 vanishes the ratio is 0/0 = NaN: the flag fails, and
        # nothing is raised or warned (warnings are errors in this suite)
        monkeypatch.setattr(diagnostics, "project_mean_zero", lambda u, m: np.zeros_like(u))
        r = report(rng.standard_normal(square20.n), 1.0, square20)
        assert np.isnan(r.poincare_ratio) and not r.poincare_ok


class TestRepresentation:
    def test_constant(self, square20):
        r = report(np.full(square20.n, XI), 1.0, square20)
        assert r.representation_ok and r.representation_error <= 1e-12

    def test_converged_pattern(self, square32, pattern32):
        r = pattern_report(square32, pattern32)
        assert r.representation_ok
        assert r.representation_error <= 100.0 * default_tol(square32)

    def test_manufactured_field_fails(self, square20):
        u = XI + 0.5 * np.sin(2.0 * np.pi * square20.mesh.nodes[:, 1])
        r = report(u, 0.3, square20)
        assert not r.representation_ok and r.representation_error > 1e-3


@pytest.mark.parametrize("field", ["constant", "pattern32", "random"])
def test_report_equals_textbook_formulas(field, square32, pattern32, rng):
    """Each quantity recomputed from its formula with plain numpy; the
    Green representation reuses the package's mean-zero Poisson solve."""
    q = 4.0
    u, eps = {"constant": (np.full(square32.n, XI), 0.3),
              "pattern32": (pattern32.u, pattern32.epsilon),
              "random": (XI + rng.standard_normal(square32.n), 0.3)}[field]
    m, stiff = square32.lumped_mass, square32.stiffness
    mu1 = first_eigenpair(square32).mu1
    r = run_diagnostics(u, eps, A, q, square32, mu1)

    def f(t):
        return np.exp(t) - 1.0 - A * t

    mean = m @ u / m.sum()
    v = u - mean
    fu = f(u)
    assert r.zero_avg_residual == abs(m @ fu)
    assert r.l1_norm_f == m @ np.abs(fu)
    assert r.l1_bound == 2.0 * (A * np.log(A) - A + 1.0) * m.sum()
    assert r.mean_u == mean
    assert r.exp_integral_q == m @ np.exp(q * np.abs(v))
    assert r.energy_lhs == eps * (v @ (stiff @ v))
    assert r.energy_rhs == m @ ((fu - f(mean)) * v)
    if field == "constant":
        assert r.poincare_ratio == 1.0
    else:
        w = v - m @ v / m.sum()
        assert r.poincare_ratio == (w @ (stiff @ w)) / (mu1 * (m @ (w * w)))
    green = solve_projected(bordered(square32), m * fu / eps)
    assert r.representation_error == np.abs(green - v).max() / (1.0 + np.abs(v).max())
    assert r.sup_norm == np.abs(u).max()


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
