"""Quantitative checks applied to every reported steady state: the discrete
zero-average identity, the L1 bound on the reaction term, the mean bounds,
exponential integrability of the fluctuation, the energy identity, the
spectral-gap inequality, and the discrete Green representation.

Each check returns raw numbers plus a pass flag where the estimate admits a
sharp discrete form; regime-dependent quantities (exponential integrability)
are reported and judged by the experiment layer.

The module holds the tolerance policy, including ``classify``, the one test
that calls a state constant: Newton labels its records with it, and the
suite gives a constant state the spectral-gap entry (1, True).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ZeroFieldError
from .linsolve import bordered, project_mean_zero, solve_projected, weighted_mean
from .meshing import DiscreteOperator, mesh_size
from .model import c0_of_a, eval_f_clipped, find_xi

# The tolerance policy of the suite.  The identities hold to a multiple of
# the Newton residual target default_tol(op); the bounds hold up to a fixed slack.
IDENTITY_TOL_FACTOR = 10.0          # zero average and energy identity
REPRESENTATION_TOL_FACTOR = 100.0   # Green-representation round trip
MEAN_SLACK = 1e-6                   # absolute, on both ends of [0, xi_a]
L1_REL_SLACK = 1e-8
POINCARE_FLOOR = 1.0 - 1e-8
CLASSIFY_REL_TOL = 1e-6             # sup fluctuation separating round-off from pattern


def default_tol(op: DiscreteOperator) -> float:
    """The Newton residual target 1e-10*(1 + total mass), independent of the
    mesh size; every solve runs to it and the identity checks scale by it."""
    return 1e-10 * (1.0 + float(op.lumped_mass.sum()))


def classify(u: np.ndarray, m: np.ndarray) -> tuple[float, float]:
    """(mass-weighted mean, sup fluctuation) of u.  The state is constant iff
    its sup fluctuation is below 1e-6*max(1, |mean|), and the fluctuation of
    a constant state is returned as exactly 0.0."""
    mean = weighted_mean(u, m)
    sup_fluct = float(np.abs(u - mean).max())
    if sup_fluct <= CLASSIFY_REL_TOL * max(1.0, abs(mean)):
        sup_fluct = 0.0
    return mean, sup_fluct


def check_zero_average(u: np.ndarray, m: np.ndarray, a: float,
                       tol: float) -> tuple[float, bool]:
    """Discrete zero-average identity |sum(m*f(u))| <= tol, absolute since
    A*1 = 0 gives |sum(m*f(u))| = |1'r| <= sqrt(area)*dual_norm(r)."""
    fu = eval_f_clipped(u, a)
    residual = abs(float(np.dot(m, fu)))
    return residual, residual <= tol


def check_l1_bound(u: np.ndarray, m: np.ndarray, a: float) -> tuple[float, float, bool]:
    """Quadrature L1 mass of f(u) against the closed-form bound 2*C0*area."""
    fu = eval_f_clipped(u, a)
    l1 = float(np.dot(m, np.abs(fu)))
    bound = float(2.0 * c0_of_a(a) * m.sum())
    return l1, bound, l1 <= bound * (1.0 + L1_REL_SLACK)


def check_mean_bounds(u: np.ndarray, m: np.ndarray, a: float) -> tuple[float, bool]:
    """Solution mean must land in [0, xi_a] up to MEAN_SLACK."""
    mean = weighted_mean(u, m)
    return mean, (-MEAN_SLACK <= mean <= find_xi(a) + MEAN_SLACK)


def check_exp_integrability(u: np.ndarray, m: np.ndarray, q: float) -> tuple[float, float]:
    """Quadrature of e^(q|u - mean|); the reference value is the domain area
    (the large-diffusion limit where the fluctuation vanishes)."""
    if not q > 2.0:
        raise ValueError("q must exceed 2")
    v = u - weighted_mean(u, m)
    with np.errstate(over="ignore"):
        integral = float(np.dot(m, np.exp(q * np.abs(v))))
    return integral, float(m.sum())


def check_energy_identity(u: np.ndarray, eps: float, op: DiscreteOperator, a: float,
                          tol: float) -> tuple[float, float, bool]:
    """eps * (Dirichlet energy of the fluctuation) against sum(m*(f(u)-f(mean))*v);
    either side may overflow to inf, which fails the flag."""
    m = op.lumped_mass
    mean = weighted_mean(u, m)
    v = u - mean
    fu = eval_f_clipped(u, a)
    with np.errstate(over="ignore"):
        lhs = eps * float(v @ op.stiffness.dot(v))
        rhs = float(np.dot(m, (fu - eval_f_clipped(mean, a)) * v))
    return lhs, rhs, abs(lhs - rhs) <= tol * (1.0 + abs(lhs))


def check_poincare(v: np.ndarray, m: np.ndarray, op: DiscreteOperator,
                   mu1: float) -> tuple[float, bool]:
    """Spectral-gap ratio (v'Av)/(mu1*sum(m*v**2)) for a mean-zero field; an
    overflowing field gives a NaN ratio, which fails the flag."""
    with np.errstate(over="ignore"):
        vv = float(np.dot(m, v * v))
        v_a_v = float(v @ op.stiffness.dot(v))
    if vv <= 1e-300 * m.sum():
        raise ZeroFieldError("Poincare check needs a nonzero fluctuation")
    if abs(weighted_mean(v, m)) > 1e-8 * (1.0 + float(np.abs(v).max())):
        raise ValueError("Poincare check expects a weighted-mean-zero field")
    ratio = v_a_v / (mu1 * vv)
    return ratio, ratio >= POINCARE_FLOOR


def check_representation(u: np.ndarray, eps: float, a: float, op: DiscreteOperator,
                         tol: float) -> tuple[float, bool]:
    """Round-trip through the mean-zero solve: reconstruct the fluctuation
    from the reaction load m*f(u)/eps and compare in the sup norm.

    Mirrors the zero-mean normalized Green representation of the
    fluctuation; at a converged steady state the reconstruction error is of
    the order of the Newton residual.
    """
    m = op.lumped_mass
    v = u - weighted_mean(u, m)
    fu = eval_f_clipped(u, a)
    w = solve_projected(bordered(op), m * fu / eps)
    error = float(np.abs(w - v).max() / (1.0 + np.abs(v).max()))
    return error, error <= tol


def estimate_green_constants(op: DiscreteOperator, sample_count: int = 8,
                             seed: int = 0) -> tuple[float, float]:
    """Empirical Green-kernel constants from sampled discrete Green columns.

    For each sampled source node y, solves the mean-zero problem with load
    (unit point mass at y) - (uniform mass / area).  Returns

    * ``k_green_est``: max over samples and nodes farther than twice the
      mesh size of |G| - log(D/dist)/pi (the unresolved logarithmic core is
      excluded);
    * ``c2_est``: max over samples of the quadrature of D/dist with the
      singular node dropped, to compare against the closed bound 2*pi*D**2.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be at least 1")
    m = op.lumped_mass
    nodes = op.mesh.nodes
    n = nodes.shape[0]
    rng = np.random.default_rng(seed)
    samples = rng.choice(n, size=min(sample_count, n), replace=False)
    h = mesh_size(op.mesh)
    d_dom = op.diameter

    k_green = -np.inf
    c2 = 0.0
    loads = np.tile((-m / op.area)[:, None], (1, samples.size))
    loads[samples, np.arange(samples.size)] += 1.0
    greens = solve_projected(bordered(op), loads)  # the Poisson factor, all columns at once
    for y, g in zip(samples, greens.T):
        dist = np.sqrt(((nodes - nodes[y]) ** 2).sum(axis=1))
        far = dist > 2.0 * h
        if np.any(far):
            k_green = max(k_green, float(
                (np.abs(g[far]) - np.log(d_dom / dist[far]) / np.pi).max()
            ))
        keep = dist > 0.0
        c2 = max(c2, float(np.dot(m[keep], d_dom / dist[keep])))
    return k_green, c2


def cq_numerical_estimate(k_green_est: float, c2_est: float) -> float:
    """Numerical estimate (not a certified constant) of the exponential
    integrability bound C2 * e^(pi*K)."""
    return c2_est * float(np.exp(np.pi * k_green_est))


@dataclass(frozen=True)
class DiagnosticsReport:
    """All check quantities for one steady state: each check's return tuple
    (raw values, then pass flag) in suite order, plus the unflagged ones."""

    zero_avg_residual: float
    zero_avg_ok: bool
    l1_norm_f: float
    l1_bound: float
    l1_ok: bool
    mean_u: float
    mean_in_bounds: bool
    exp_integral_q: float
    energy_lhs: float
    energy_rhs: float
    energy_ok: bool
    poincare_ratio: float
    poincare_ok: bool
    representation_error: float
    representation_ok: bool
    sup_norm: float

    @property
    def ok(self) -> bool:
        """True iff every flagged check passed."""
        return (self.zero_avg_ok and self.l1_ok and self.mean_in_bounds
                and self.energy_ok and self.poincare_ok and self.representation_ok)


def run_diagnostics(u: np.ndarray, eps: float, a: float, q: float, op: DiscreteOperator,
                    mu1: float) -> DiagnosticsReport:
    """Evaluate the full check suite on one field.

    The identity tolerances are multiples of ``default_tol(op)`` (see the
    policy constants above).  A field that ``classify`` calls constant gets
    the spectral-gap entry (1, True): both sides vanish up to round-off.
    """
    m = op.lumped_mass
    tol = default_tol(op)
    # an overflowing field fails its flags or raises; numpy's warnings add nothing
    with np.errstate(over="ignore", invalid="ignore"):
        if classify(u, m)[1] == 0.0:
            poincare = (1.0, True)
        else:
            poincare = check_poincare(project_mean_zero(u, m), m, op, mu1)
        return DiagnosticsReport(
            *check_zero_average(u, m, a, tol=IDENTITY_TOL_FACTOR * tol),
            *check_l1_bound(u, m, a),
            *check_mean_bounds(u, m, a),
            check_exp_integrability(u, m, q)[0],
            *check_energy_identity(u, eps, op, a, tol=IDENTITY_TOL_FACTOR * tol),
            *poincare,
            *check_representation(u, eps, a, op, tol=REPRESENTATION_TOL_FACTOR * tol),
            float(np.abs(u).max()),
        )
