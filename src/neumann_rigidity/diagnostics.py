"""Quantitative checks applied to every computed steady state: the discrete
zero-average identity, the L1 bound on the reaction term, the mean bounds,
exponential integrability of the fluctuation, the energy identity, the
spectral-gap inequality, and the discrete Green representation.

Each check returns raw numbers plus a pass flag where the estimate admits a
sharp discrete form; regime-dependent quantities (exponential integrability)
are reported and judged by the experiment layer.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import ZeroFieldError
from .linsolve import bordered, mass_norm, project_mean_zero, solve_projected, weighted_mean
from .meshing import DiscreteOperator, mesh_size
from .model import ModelParams, eval_f, eval_f_clipped, find_xi


def check_zero_average(u: np.ndarray, m: np.ndarray, a: float,
                       tol: float) -> tuple[float, bool]:
    """Discrete zero-average identity: |sum(m*f(u))| against tol*(1 + sum(m*|f(u)|))."""
    fu, _ = eval_f_clipped(u, a)
    residual = abs(float(np.dot(m, fu)))
    return residual, residual <= tol * (1.0 + float(np.dot(m, np.abs(fu))))


def check_l1_bound(u: np.ndarray, m: np.ndarray, a: float) -> tuple[float, float, bool]:
    """Quadrature L1 mass of f(u) against the closed-form bound 2*C0*area."""
    fu, _ = eval_f_clipped(u, a)
    l1 = float(np.dot(m, np.abs(fu)))
    c0 = a * np.log(a) - a + 1.0
    bound = 2.0 * c0 * float(m.sum())
    return l1, bound, l1 <= bound * (1.0 + 1e-8)


def check_mean_bounds(u: np.ndarray, m: np.ndarray, a: float,
                      tol: float = 1e-6) -> tuple[float, bool]:
    """Solution mean must land in [0, xi_a] up to tol."""
    mean = weighted_mean(u, m)
    return mean, (-tol <= mean <= find_xi(a) + tol)


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
    """eps * (Dirichlet energy of the fluctuation) against sum(m*(f(u)-f(mean))*v)."""
    m = op.lumped_mass
    mean = weighted_mean(u, m)
    v = u - mean
    lhs = eps * float(v @ op.stiffness.dot(v))
    fu, _ = eval_f_clipped(u, a)
    rhs = float(np.dot(m, (fu - eval_f(mean, a)) * v))
    return lhs, rhs, abs(lhs - rhs) <= tol * (1.0 + abs(lhs))


def check_poincare(v: np.ndarray, m: np.ndarray, op: DiscreteOperator,
                   mu1: float) -> tuple[float, bool]:
    """Spectral-gap ratio (v'Av)/(mu1*sum(m*v**2)) for a mean-zero field."""
    vv = float(np.dot(m, v * v))
    if vv <= 1e-300 * m.sum():
        raise ZeroFieldError("Poincare check needs a nonzero fluctuation")
    if abs(weighted_mean(v, m)) > 1e-8 * (1.0 + float(np.abs(v).max())):
        raise ValueError("Poincare check expects a weighted-mean-zero field")
    ratio = float(v @ op.stiffness.dot(v)) / (mu1 * vv)
    return ratio, ratio >= 1.0 - 1e-8


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
    fu, _ = eval_f_clipped(u, a)
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
    """All check quantities for one steady state, raw values plus flags."""

    zero_avg_residual: float
    l1_norm_f: float
    l1_bound: float
    mean_u: float
    mean_in_bounds: bool
    exp_integral_q: float
    energy_lhs: float
    energy_rhs: float
    poincare_ratio: float
    representation_error: float
    sup_norm: float

    def as_dict(self) -> dict:
        return asdict(self)


def run_diagnostics(u: np.ndarray, eps: float, params: ModelParams, op: DiscreteOperator,
                    mu1: float, newton_tol: float,
                    diag_tol: float = 1e-6) -> DiagnosticsReport:
    """Evaluate the full check suite on one field.

    ``newton_tol`` sets the identity tolerances (zero average at 10x,
    representation at 100x); ``diag_tol`` is the absolute slack on the
    non-tight L1/mean bounds.  For a numerically constant field the
    spectral-gap ratio is reported as 1 (both sides vanish).
    """
    a, q = params.a, params.q
    m = op.lumped_mass
    v = project_mean_zero(u, m)

    zero_avg, _ = check_zero_average(u, m, a, tol=10.0 * newton_tol)
    l1, l1_bound, _ = check_l1_bound(u, m, a)
    mean, mean_ok = check_mean_bounds(u, m, a, tol=diag_tol)
    exp_int, _ = check_exp_integrability(u, m, q)
    energy_lhs, energy_rhs, _ = check_energy_identity(u, eps, op, a, tol=10.0 * newton_tol)
    if mass_norm(v, m) <= 1e-14 * (1.0 + abs(mean)) * np.sqrt(m.sum()):
        poincare = 1.0
    else:
        poincare, _ = check_poincare(v, m, op, mu1)
    repr_err, _ = check_representation(u, eps, a, op, tol=100.0 * newton_tol)

    return DiagnosticsReport(
        zero_avg_residual=zero_avg,
        l1_norm_f=l1,
        l1_bound=l1_bound,
        mean_u=mean,
        mean_in_bounds=mean_ok,
        exp_integral_q=exp_int,
        energy_lhs=energy_lhs,
        energy_rhs=energy_rhs,
        poincare_ratio=poincare,
        representation_error=repr_err,
        sup_norm=float(np.abs(u).max()),
    )


def full_suite_ok(report: DiagnosticsReport, newton_tol: float,
                  diag_tol: float = 1e-6) -> bool:
    """Identity suite every emitted solution must pass at default tolerances."""
    return (
        report.zero_avg_residual <= 10.0 * newton_tol
        and report.l1_norm_f <= report.l1_bound + diag_tol
        and report.mean_in_bounds
        and abs(report.energy_lhs - report.energy_rhs)
        <= 10.0 * newton_tol * (1.0 + abs(report.energy_lhs))
        and report.representation_error <= 100.0 * newton_tol
    )
