"""Scalar model: nonlinearity values, the positive root, the constant chain."""

import numpy as np
import pytest
from scipy.special import lambertw

from neumann_rigidity import (
    ConstantChain,
    bifurcation_epsilon,
    constant_chain,
    eval_f,
    eval_f_prime,
    find_xi,
    lipschitz_bound,
    rigidity_threshold,
)
from neumann_rigidity.model import eval_f_prime_clipped


def bisect_root(a, lo, hi, iters=200):
    """Independent bisection oracle for e^t - 1 - a*t = 0 on [lo, hi]."""
    flo = np.exp(lo) - 1.0 - a * lo
    assert flo < 0.0
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.exp(mid) - 1.0 - a * mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


# oracle-frozen roots (bisection on [log a, log a + 8])
XI_2 = 1.2564312086261697
XI_E = 1.7507867226801435


class TestEvalF:
    def test_zero_at_origin(self):
        assert eval_f(0.0, 2.0) == 0.0

    def test_global_minimum_value(self):
        # f(log 2) = -(2 log 2 - 1)
        assert eval_f(np.log(2.0), 2.0) == pytest.approx(-(2.0 * np.log(2.0) - 1.0), abs=1e-14)

    def test_near_root(self):
        assert abs(eval_f(1.256431, 2.0)) < 1e-5

    def test_saturates_to_inf(self):
        assert np.isinf(eval_f(800.0, 2.0))


class TestEvalFPrime:
    def test_zero_at_log_a(self):
        assert eval_f_prime(np.log(2.0), 2.0) == pytest.approx(0.0, abs=1e-15)

    def test_at_origin(self):
        assert eval_f_prime(0.0, 2.0) == -1.0

    def test_at_root(self):
        # e^xi = 1 + 2 xi at the root, so f'(xi) = 2 xi - 1
        assert eval_f_prime(XI_2, 2.0) == pytest.approx(2.0 * XI_2 - 1.0, rel=1e-12)

    def test_matches_centered_differences(self):
        ts = np.linspace(-10.0, 10.0, 201)
        h = 1e-6
        for t in ts:
            fd = (eval_f(t + h, 2.0) - eval_f(t - h, 2.0)) / (2.0 * h)
            scale = max(1.0, abs(eval_f_prime(t, 2.0)))
            assert abs(eval_f_prime(t, 2.0) - fd) <= 1e-6 * scale

    def test_clipped(self):
        vals = eval_f_prime_clipped(np.array([0.0, 1.0]), 2.0)
        assert vals == pytest.approx([-1.0, np.e - 2.0])


class TestFindXi:
    def test_a2_matches_oracle(self):
        oracle = bisect_root(2.0, np.log(2.0), np.log(2.0) + 8.0)
        assert find_xi(2.0) == pytest.approx(oracle, abs=1e-10)
        assert find_xi(2.0) == pytest.approx(XI_2, abs=1e-10)

    def test_a_e_matches_oracle(self):
        oracle = bisect_root(np.e, 1.0, 1.0 + 8.0)
        assert find_xi(np.e) == pytest.approx(oracle, abs=1e-10)
        assert find_xi(np.e) == pytest.approx(XI_E, abs=1e-10)

    def test_monotone_in_a(self):
        assert find_xi(3.0) > find_xi(2.0)

    @pytest.mark.parametrize("a", [1.1, 2.0, np.e, 10.0, 1e4, 1e7, 1e8, 1e10, 1e100])
    def test_matches_lambert_w(self, a):
        # e^t = 1 + a*t  <=>  t = -W_{-1}(-e^(-1/a)/a) - 1/a
        exact = -lambertw(-np.exp(-1.0 / a) / a, -1).real - 1.0 / a
        assert find_xi(a) == pytest.approx(exact, rel=4e-15)

    def test_a_near_one(self):
        # xi_a = 2*(a - 1) + O((a - 1)**2) as a -> 1
        a = 1.0 + 1e-9
        assert find_xi(a) / (2.0 * (a - 1.0)) == pytest.approx(1.0, abs=1e-6)

    def test_rejects_small_a(self):
        with pytest.raises(ValueError):
            find_xi(1.0)
        with pytest.raises(ValueError):
            find_xi(0.5)

    @pytest.mark.parametrize("a", [1.1, 1.5, 2.0, 3.0, 5.0, 10.0])
    def test_root_property_on_grid(self, a):
        xi = find_xi(a)
        assert xi > np.log(a)
        assert abs(eval_f(xi, a)) <= 1e-10
        assert eval_f(0.0, a) == 0.0


class TestGlobalMinimumBound:
    def test_f_bounded_below_by_minus_c0(self, rng):
        a = 2.0
        c0 = a * np.log(a) - a + 1.0
        ts = rng.uniform(-50.0, 50.0, size=1_000_000)
        vals = np.exp(ts) - 1.0 - a * ts
        assert np.all(vals >= -c0 - 1e-12)


class TestJensenEquality:
    """e^t <= 1 + a*t holds exactly between the roots 0 and xi_a."""

    @pytest.mark.parametrize("a", [1.5, 2.0, 5.0])
    def test_sign_pattern(self, a):
        xi = find_xi(a)
        d = 1e-6
        assert eval_f(-d, a) > 0.0
        assert eval_f(d, a) < 0.0
        assert eval_f(xi - d, a) < 0.0
        assert eval_f(xi + d, a) > 0.0


class TestConstantChain:
    def test_reference_values(self):
        chain = constant_chain(2.0, 4.0, area=1.0, diameter=np.sqrt(2.0))
        c0 = 2.0 * np.log(2.0) - 1.0
        assert chain.c0 == pytest.approx(c0, abs=1e-12)
        assert chain.c1 == pytest.approx(2.0 * c0, abs=1e-12)
        assert chain.eps0_of_q == pytest.approx(4.0 * 2.0 * c0 / np.pi, abs=1e-12)
        assert chain.c2_bound == pytest.approx(4.0 * np.pi, abs=1e-12)
        assert chain.xi_a == pytest.approx(XI_2, abs=1e-10)

    def test_linear_in_area(self):
        tiny = constant_chain(2.0, 4.0, area=1e-12, diameter=1.0)
        assert tiny.c1 <= 1e-11
        assert tiny.eps0_of_q <= 1e-11

    def test_lipschitz_value(self):
        assert lipschitz_bound(2.0, 2.0) == pytest.approx(np.exp(2.0) - 2.0, abs=1e-12)
        assert lipschitz_bound(2.0, 2.0) == pytest.approx(5.389056, abs=1e-6)
        # for small M the e^-M side dominates
        assert lipschitz_bound(0.1, 3.0) == pytest.approx(3.0 - np.exp(-0.1), abs=1e-12)

    def test_threshold(self):
        assert rigidity_threshold(2.0, 2.0, np.pi**2) == pytest.approx(
            (np.exp(2.0) - 2.0) / np.pi**2, abs=1e-12)
        with pytest.raises(ValueError):
            rigidity_threshold(2.0, 2.0, 0.0)

    def test_rejects_degenerate_domain(self):
        with pytest.raises(ValueError):
            constant_chain(2.0, 4.0, area=0.0, diameter=1.0)
        with pytest.raises(ValueError):
            constant_chain(2.0, 4.0, area=1.0, diameter=0.0)

    @pytest.mark.parametrize("a, q, message", [
        pytest.param(1.0, 4.0, "a must exceed 1", id="a"),
        pytest.param(2.0, 2.0, "q must exceed 2", id="q"),
    ])
    def test_rejects_model_parameters(self, a, q, message):
        with pytest.raises(ValueError, match=message):
            constant_chain(a, q, area=1.0, diameter=1.0)

    def test_is_frozen_dataclass(self):
        chain = constant_chain(2.0, 4.0, 1.0, 1.0)
        assert isinstance(chain, ConstantChain)
        with pytest.raises(AttributeError):
            chain.c0 = 0.0


class TestBifurcationEpsilon:
    def test_square_value(self):
        # f'(xi_2)/pi^2 with f'(xi_2) = 2 xi_2 - 1
        expected = (2.0 * XI_2 - 1.0) / np.pi**2
        assert bifurcation_epsilon(2.0, np.pi**2) == pytest.approx(expected, rel=1e-10)
        assert expected == pytest.approx(0.153285, abs=1e-6)

    def test_vanishes_for_large_mu(self):
        assert bifurcation_epsilon(2.0, 1e12) < 1e-11

    def test_disk_value(self):
        j11p = 1.8411837813406593  # first zero of the Bessel J1 derivative
        expected = (2.0 * XI_2 - 1.0) / j11p**2
        assert bifurcation_epsilon(2.0, j11p**2) == pytest.approx(expected, rel=1e-10)
        assert expected == pytest.approx(0.446278, abs=1e-5)

    def test_rejects_nonpositive_mu(self):
        with pytest.raises(ValueError):
            bifurcation_epsilon(2.0, -1.0)
