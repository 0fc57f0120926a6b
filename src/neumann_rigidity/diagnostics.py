"""Quantitative checks applied to every reported steady state: the discrete
zero-average identity, the L1 bound on the reaction term, the mean bounds,
exponential integrability of the fluctuation, the energy identity, the
spectral-gap inequality, and the discrete Green representation.

``run_diagnostics`` is the suite: it computes the field's mean, fluctuation
and reaction once, then states each estimate as one expression beside its
pass flag.  Estimates with a sharp discrete form are flagged; the
regime-dependent one (exponential integrability) is reported and judged by
the experiment layer.

The module holds the tolerance policy, including ``classify``, the one test
that calls a state constant: Newton labels its records with it, and the
suite gives a constant state the spectral-gap entry (1, True).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

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
    """All check quantities for one steady state, in suite order: each
    estimate's raw values followed by its pass flag, plus the two unflagged
    values ``exp_integral_q`` and ``sup_norm``."""

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
    """Evaluate the full check suite on one field, with q > 2.

    With m the lumped masses, v = u - mean(u) and f = f(u) clipped as in
    the residual:

    * zero average: |m'f| <= 10*tol, absolute, since A*1 = 0 bounds
      |m'f| = |1'r| by sqrt(area)*dual_norm(r);
    * L1 bound: m'|f| <= 2*C0*area, up to L1_REL_SLACK;
    * mean bounds: mean(u) in [0, xi_a], up to MEAN_SLACK;
    * exponential integrability: m'e^(q|v|), unflagged; its large-diffusion
      reference is the area, and the experiment layer judges it;
    * energy identity: eps*v'Av against m'((f - f(mean))*v), to 10*tol
      relative;
    * spectral gap: w'Aw/(mu1*m'w^2) >= POINCARE_FLOOR on w, the field
      projected to weighted mean zero.  A field that ``classify`` calls
      constant gets (1, True): both sides vanish up to round-off;
    * Green representation: the mean-zero solve of the load m*f/eps
      reconstructs v to 100*tol in the relative sup norm, an error of the
      order of the Newton residual at a converged state.

    Here tol is ``default_tol(op)``.  An overflowing field overflows its
    sums to inf and its ratios to inf or NaN, which fail their flags; numpy
    warns of none of it.
    """
    if not q > 2.0:
        raise ValueError("q must exceed 2")
    m = op.lumped_mass
    tol = default_tol(op)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        mean, sup_fluct = classify(u, m)
        v = u - mean
        fu = eval_f_clipped(u, a)
        zero_avg = abs(float(np.dot(m, fu)))
        l1 = float(np.dot(m, np.abs(fu)))
        l1_bound = float(2.0 * c0_of_a(a) * m.sum())
        energy_lhs = eps * float(v @ op.stiffness.dot(v))
        energy_rhs = float(np.dot(m, (fu - eval_f_clipped(mean, a)) * v))
        if sup_fluct == 0.0:
            poincare = 1.0
        else:
            w = project_mean_zero(u, m)
            poincare = float(w @ op.stiffness.dot(w) / (mu1 * np.dot(m, w * w)))
        green = solve_projected(bordered(op), m * fu / eps)
        representation = float(np.abs(green - v).max() / (1.0 + np.abs(v).max()))
        return DiagnosticsReport(
            zero_avg_residual=zero_avg, zero_avg_ok=zero_avg <= IDENTITY_TOL_FACTOR * tol,
            l1_norm_f=l1, l1_bound=l1_bound, l1_ok=l1 <= l1_bound * (1.0 + L1_REL_SLACK),
            mean_u=mean, mean_in_bounds=-MEAN_SLACK <= mean <= find_xi(a) + MEAN_SLACK,
            exp_integral_q=float(np.dot(m, np.exp(q * np.abs(v)))),
            energy_lhs=energy_lhs, energy_rhs=energy_rhs,
            energy_ok=(abs(energy_lhs - energy_rhs)
                       <= IDENTITY_TOL_FACTOR * tol * (1.0 + abs(energy_lhs))),
            poincare_ratio=poincare, poincare_ok=poincare >= POINCARE_FLOOR,
            representation_error=representation,
            representation_ok=representation <= REPRESENTATION_TOL_FACTOR * tol,
            sup_norm=float(np.abs(u).max()),
        )
