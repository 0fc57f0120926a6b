"""Scalar reaction model f(t) = e^t - 1 - a*t and its explicit constant chain.

Everything in here is closed-form scalar math: the nonlinearity, its
derivative, the positive root ``xi_a`` separating the two constant steady
states, and the chain of constants (C0, C1, eps0(q), the Green-kernel bound
2*pi*D**2, the Lipschitz bound K(M)) that control when diffusion wipes out
spatial structure.  All functions are pure and stateless.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Exponent magnitude beyond which exp() is saturated in field evaluations.
SATURATION_EXPONENT = 700.0


def eval_f(t: float, a: float) -> float:
    """Reaction term e^t - 1 - a*t (saturates to +inf for huge t).

    expm1 keeps full relative accuracy near t = 0, where the root sits
    for a close to 1.
    """
    with np.errstate(over="ignore"):
        return float(np.expm1(np.float64(t)) - a * t)


def eval_f_prime(t: float, a: float) -> float:
    """Derivative e^t - a of the reaction term."""
    with np.errstate(over="ignore"):
        return float(np.exp(np.float64(t)) - a)


def eval_f_clipped(t: np.ndarray, a: float) -> np.ndarray:
    """Vectorized reaction term with the exponent clipped at +700.

    A saturated node puts an entry of order m*e^700 into the residual; its
    square overflows, so the mass-weighted residual norm is +inf and the
    Newton line search rejects the trial state.
    """
    t = np.asarray(t, dtype=float)
    return np.exp(np.minimum(t, SATURATION_EXPONENT)) - 1.0 - a * t


def eval_f_prime_clipped(t: np.ndarray, a: float) -> np.ndarray:
    """Vectorized derivative with the same saturation policy as eval_f_clipped."""
    t = np.asarray(t, dtype=float)
    return np.exp(np.minimum(t, SATURATION_EXPONENT)) - a


def find_xi(a: float) -> float:
    """Unique positive root of e^t - 1 - a*t = 0, to the last bit.

    Bisects on the sign of f until no float lies strictly between the
    bracket ends, then returns the end with the smaller |f|.
    Deterministic and free of tolerances.
    """
    if not a > 1.0:
        raise ValueError("a must exceed 1: no positive root otherwise")
    lo = float(np.log(a))
    hi = lo + 2.0 * float(np.log1p(lo)) + 2.0
    # f(lo) = a - 1 - a*log(a) < 0; e^hi = a*e^2*(1+lo)^2 > 3a*(1+lo) > 1 + a*hi by log1p(lo) <= lo
    f_lo, f_hi = eval_f(lo, a), eval_f(hi, a)
    while lo < (mid := 0.5 * (lo + hi)) < hi:
        f_mid = eval_f(mid, a)
        if f_mid < 0.0:
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return lo if abs(f_lo) <= abs(f_hi) else hi


def c0_of_a(a: float) -> float:
    """C0 = a*log(a) - a + 1, minus the global minimum of f (at t = log(a))."""
    return float(a * np.log(a) - a + 1.0)


def lipschitz_bound(m_sup: float, a: float) -> float:
    """Bound max{e^M - a, a - e^-M} on |f'| over [-M, M]."""
    return max(np.exp(m_sup) - a, a - np.exp(-m_sup))


def rigidity_threshold(m_sup: float, a: float, mu1: float) -> float:
    """Diffusion level K(M)/mu1 above which fluctuations cannot persist."""
    if not mu1 > 0.0:
        raise ValueError("mu1 must be positive")
    return lipschitz_bound(m_sup, a) / mu1


def bifurcation_epsilon(a: float, mu_k: float) -> float:
    """Diffusion value f'(xi_a)/mu_k at which the k-th mode of the
    linearization about u = xi_a becomes neutral."""
    if not mu_k > 0.0:
        raise ValueError("mu_k must be positive")
    return eval_f_prime(find_xi(a), a) / mu_k


@dataclass(frozen=True)
class ConstantChain:
    """Every explicit constant in the chain from the domain data (area,
    diameter) and model parameters to the rigidity threshold."""

    a: float
    q: float
    area: float
    diameter: float
    xi_a: float
    c0: float
    c1: float
    eps0_of_q: float
    c2_bound: float


def constant_chain(a: float, q: float, area: float, diameter: float) -> ConstantChain:
    """Evaluate the closed-form constant chain for reaction coefficient
    ``a`` > 1, integrability exponent ``q`` > 2, and a domain of the given
    area and diameter.

    c0 = a*log(a) - a + 1 is minus the global minimum of f, c1 = 2*c0*area
    bounds the L1 mass of f(u) over exact steady states, eps0 = q*c1/pi is
    the diffusion level above which e^(q|u - mean|) is uniformly integrable,
    and 2*pi*D**2 bounds the kernel integral sup_y of D/|x-y|.
    """
    if not q > 2.0:
        raise ValueError("q must exceed 2")
    if not area > 0.0:
        raise ValueError("area must be positive")
    if not diameter > 0.0:
        raise ValueError("diameter must be positive")
    xi_a = find_xi(a)
    c0 = c0_of_a(a)
    c1 = 2.0 * c0 * area
    return ConstantChain(
        a=a,
        q=q,
        area=area,
        diameter=diameter,
        xi_a=xi_a,
        c0=c0,
        c1=float(c1),
        eps0_of_q=float(q * c1 / np.pi),
        c2_bound=float(2.0 * np.pi * diameter**2),
    )
