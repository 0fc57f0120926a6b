"""Damped Newton iteration for the discrete steady-state system
eps*A*u = m*f(u), a deterministic multi-start search over its solution set,
and classification of converged states as constant or patterned.

The Newton linear step splits into mean and fluctuation parts.  The
fluctuation part is a mean-zero solve with the symmetric Jacobian
eps*A - diag(m*f'(u)); the mean part comes from the mass-weighted row sum,
closed exactly through the rank-one coupling between the two.  Both
right-hand sides (the residual and the coupling) share one bordered LU
factorization of the Jacobian per iteration, laid out in the operator's
cached ordering (``linsolve.bordered``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

from .diagnostics import DiagnosticsReport, run_diagnostics
from .errors import NoConvergenceError, SingularJacobianError
from .linsolve import bordered, dual_norm, first_eigenpair, solve_projected, weighted_mean
from .meshing import DiscreteOperator
from .model import ModelParams, eval_f_clipped, eval_f_prime_clipped, find_xi

__all__ = [
    "Constant", "Nonconstant", "SolutionRecord", "NewtonOpts", "StartOutcome",
    "MultiStartResult", "residual", "jacobian", "newton_solve", "classify",
    "weighted_mean", "multi_start", "dedup_records", "switch_directions",
]

CLASSIFY_REL_TOL = 1e-6  # sup-fluctuation threshold separating round-off from pattern
DEDUP_REL_TOL = 1e-5


@dataclass(frozen=True)
class Constant:
    value: float


@dataclass(frozen=True)
class Nonconstant:
    sup_fluct: float
    mean: float  # mass-weighted


Classification = Constant | Nonconstant


@dataclass(frozen=True)
class SolutionRecord:
    """A converged steady state with its classification and check report."""

    u: np.ndarray
    epsilon: float
    residual_norm: float
    newton_iters: int
    classification: Classification
    diagnostics: DiagnosticsReport | None = None


@dataclass(frozen=True)
class NewtonOpts:
    """Newton solve options.

    ``tol`` is the mass-weighted residual norm target; if None it defaults
    to 1e-10*(1 + total mass), which is mesh-size independent.  ``damping``
    is the backtracking factor applied until the residual norm decreases.
    """

    tol: float | None = None
    max_iter: int = 40
    damping: float = 0.5
    min_alpha: float = 1e-8
    stall_window: int = 10         # give up when 10 iterations shrink the residual
    stall_factor: float = 0.3      # by less than this factor (0 disables)
    attach_diagnostics: bool = True
    q: float = 4.0
    mu1: float | None = None


def default_tol(op: DiscreteOperator) -> float:
    return 1e-10 * (1.0 + float(op.lumped_mass.sum()))


def residual(u: np.ndarray, eps: float, a: float, op: DiscreteOperator) -> np.ndarray:
    """Steady-state defect eps*A*u - m*f(u) (nodal load form).

    Reaction values saturate at exponent 700 so that huge trial states
    produce large finite entries; the Newton line search rejects such states
    instead of propagating infinities.
    """
    fu, _ = eval_f_clipped(u, a)
    return eps * op.stiffness.dot(u) - op.lumped_mass * fu


def jacobian(u: np.ndarray, eps: float, a: float, op: DiscreteOperator) -> sp.csr_matrix:
    """Symmetric Jacobian eps*A - diag(m*f'(u)) of the residual."""
    fp, _ = eval_f_prime_clipped(u, a)
    return (eps * op.stiffness - sp.diags(op.lumped_mass * fp)).tocsr()


def classify(u: np.ndarray, m: np.ndarray) -> Classification:
    """Constant iff the sup fluctuation is below 1e-6*max(1, |mean|)."""
    mean = weighted_mean(u, m)
    sup_fluct = float(np.abs(u - mean).max())
    if sup_fluct <= CLASSIFY_REL_TOL * max(1.0, abs(mean)):
        return Constant(value=mean)
    return Nonconstant(sup_fluct=sup_fluct, mean=mean)


def _newton_step(u: np.ndarray, r: np.ndarray, eps: float, a: float,
                 op: DiscreteOperator) -> np.ndarray:
    """One exact Newton direction via the mean/fluctuation decomposition."""
    m = op.lumped_mass
    fp, _ = eval_f_prime_clipped(u, a)
    mfp = m * fp
    try:
        w = solve_projected(bordered(op), np.column_stack([-r, mfp]), eps, mfp)
    except NoConvergenceError as exc:
        raise SingularJacobianError(f"inner mean-zero solve failed: {exc}") from exc
    w0, w1 = w[:, 0], w[:, 1]

    fu, _ = eval_f_clipped(u, a)
    mf = float(np.dot(m, fu))
    den = float(mfp.sum() + np.dot(mfp, w1))
    scale = float(np.abs(mfp).sum()) * (1.0 + float(np.abs(w1).max(initial=0.0)))
    if abs(den) <= 1e-12 * scale + 1e-300:
        raise SingularJacobianError("mean-mode equation degenerated (f' averages to zero)")
    delta_mean = -(mf + float(np.dot(mfp, w0))) / den
    return delta_mean + w0 + delta_mean * w1


def newton_solve(u0: np.ndarray, eps: float, a: float, op: DiscreteOperator,
                 opts: NewtonOpts = NewtonOpts()) -> SolutionRecord:
    """Damped Newton iteration from u0; raises on failure.

    Backtracks alpha in {1, 1/2, 1/4, ...} until the mass-weighted residual
    norm strictly decreases; raises NoConvergenceError on the iteration cap
    or step underflow and SingularJacobianError when the linear step is not
    solvable (typical right at a bifurcation point).
    """
    if not eps > 0.0:
        raise ValueError("eps must be positive")
    m = op.lumped_mass
    tol = opts.tol if opts.tol is not None else default_tol(op)

    u = np.asarray(u0, dtype=float).copy()
    if u.shape != m.shape:
        raise ValueError("start vector length does not match the operator")
    r = residual(u, eps, a, op)
    rnorm = dual_norm(r, m)
    history = [rnorm]
    iters = 0
    while rnorm > tol:
        if iters >= opts.max_iter:
            raise NoConvergenceError(
                f"Newton hit max_iter={opts.max_iter} with residual {rnorm:.3e}"
            )
        if opts.stall_window and len(history) > opts.stall_window \
                and rnorm > opts.stall_factor * history[-opts.stall_window - 1]:
            raise NoConvergenceError(
                f"Newton stalled near residual {rnorm:.3e} after {iters} iterations"
            )
        delta = _newton_step(u, r, eps, a, op)

        alpha = 1.0
        while True:
            trial = u + alpha * delta
            _, saturated = eval_f_clipped(trial, a)
            if not saturated:
                r_trial = residual(trial, eps, a, op)
                rnorm_trial = dual_norm(r_trial, m)
                if rnorm_trial < rnorm:
                    u, r, rnorm = trial, r_trial, rnorm_trial
                    break
            alpha *= opts.damping
            if alpha < opts.min_alpha:
                raise NoConvergenceError(
                    f"line search underflow at residual {rnorm:.3e}"
                )
        history.append(rnorm)
        iters += 1

    record = SolutionRecord(
        u=u,
        epsilon=eps,
        residual_norm=rnorm,
        newton_iters=iters,
        classification=classify(u, m),
        diagnostics=None,
    )
    if opts.attach_diagnostics:
        record = attach_diagnostics(record, a, op, opts)
    return record


def attach_diagnostics(record: SolutionRecord, a: float, op: DiscreteOperator,
                       opts: NewtonOpts = NewtonOpts()) -> SolutionRecord:
    """Fill in the check report of a converged record (replaces the field)."""
    mu1 = opts.mu1 if opts.mu1 is not None else first_eigenpair(op).mu1
    tol = opts.tol if opts.tol is not None else default_tol(op)
    params = ModelParams(a=a, epsilon=record.epsilon, q=opts.q)
    report = run_diagnostics(record.u, record.epsilon, params, op, mu1, newton_tol=tol)
    return replace(record, diagnostics=report)


@dataclass(frozen=True)
class StartOutcome:
    """Per-start log row of a multi-start batch (converged or not)."""

    start_id: int
    label: str
    epsilon: float
    converged: bool
    failure: str | None
    classification: str | None
    mean: float | None
    sup_fluct: float | None
    residual_norm: float | None
    iters: int | None


@dataclass(frozen=True)
class MultiStartResult:
    distinct: list[SolutionRecord]
    runs: list[StartOutcome] = field(default_factory=list)


def switch_directions(op: DiscreteOperator) -> list[tuple[str, np.ndarray]]:
    """Perturbation directions out of the constant state, normalized to sup
    norm one.

    A (near-)degenerate first eigenvalue carries a two-dimensional mode
    space, and which combination an emerging branch follows is a property
    of the nonlinearity, not of the eigensolver's arbitrary basis choice;
    the candidates span the extreme combinations of the leading pair.
    """
    pair = first_eigenpair(op)
    dirs = [("phi1", pair.phi1)]
    if pair.phi2 is not None and pair.mu2 is not None and pair.mu1 > 0.0 \
            and (pair.mu2 - pair.mu1) <= 0.05 * pair.mu1:
        dirs += [
            ("phi1+phi2", pair.phi1 + pair.phi2),
            ("phi1-phi2", pair.phi1 - pair.phi2),
            ("phi2", pair.phi2),
        ]
    return [(name, d / np.abs(d).max()) for name, d in dirs]


def start_family(eps: float, a: float, op: DiscreteOperator, n_starts: int,
                 seed: int) -> list[tuple[str, np.ndarray]]:
    """Deterministic start states: the three distinguished constants,
    perturbations of xi_a along the ``switch_directions`` (relative sup
    amplitudes 0.15, 0.45 and 1, both signs, smallest first), then seeded
    uniform noise fields.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    n = op.n
    xi = find_xi(a)
    starts: list[tuple[str, np.ndarray]] = [
        ("const:0", np.zeros(n)),
        ("const:xi", np.full(n, xi)),
        ("const:log_a", np.full(n, np.log(a))),
    ]
    directions = switch_directions(op)
    for amp in (0.15, -0.15, 0.45, -0.45, 1.0, -1.0):
        for name, d in directions:
            starts.append((f"{name}:{amp:+g}", xi + amp * xi * d))
    rng = np.random.default_rng(seed)
    k = 0
    while len(starts) < n_starts:
        starts.append((f"noise:{k}", rng.uniform(-2.0, xi + 2.0, size=n)))
        k += 1
    return starts[:n_starts]


def dedup_records(records: list[SolutionRecord]) -> list[SolutionRecord]:
    """Drop duplicates (sup-distance below 1e-5*(1 + sup)) and order the
    survivors canonically by mass-weighted mean, so the output does not
    depend on the order the solutions were found in."""
    distinct: list[SolutionRecord] = []
    for rec in records:
        is_dup = any(
            np.abs(rec.u - kept.u).max()
            <= DEDUP_REL_TOL * (1.0 + float(np.abs(kept.u).max()))
            for kept in distinct
        )
        if not is_dup:
            distinct.append(rec)
    distinct.sort(key=lambda r: (weighted_mean_of(r), sup_fluct_of(r)))
    return distinct


def weighted_mean_of(record: SolutionRecord) -> float:
    if isinstance(record.classification, Constant):
        return record.classification.value
    return record.classification.mean


def sup_fluct_of(record: SolutionRecord) -> float:
    if isinstance(record.classification, Nonconstant):
        return record.classification.sup_fluct
    return 0.0


def multi_start(eps: float, a: float, op: DiscreteOperator, n_starts: int,
                seed: int, opts: NewtonOpts = NewtonOpts()) -> MultiStartResult:
    """Newton from the deterministic start family; returns deduplicated
    solutions plus a per-start log (failures are recorded, never fatal)."""
    runs: list[StartOutcome] = []
    found: list[SolutionRecord] = []
    bare = replace(opts, attach_diagnostics=False)
    for start_id, (label, u0) in enumerate(start_family(eps, a, op, n_starts, seed)):
        try:
            rec = newton_solve(u0, eps, a, op, bare)
        except (NoConvergenceError, SingularJacobianError) as exc:
            runs.append(StartOutcome(start_id, label, eps, False, type(exc).__name__,
                                     None, None, None, None, None))
            continue
        cls = rec.classification
        runs.append(StartOutcome(
            start_id, label, eps, True, None,
            "constant" if isinstance(cls, Constant) else "nonconstant",
            weighted_mean(rec.u, op.lumped_mass), sup_fluct_of(rec),
            rec.residual_norm, rec.newton_iters,
        ))
        found.append(rec)
    distinct = dedup_records(found)
    if opts.attach_diagnostics:
        distinct = [attach_diagnostics(rec, a, op, opts) for rec in distinct]
    return MultiStartResult(distinct=distinct, runs=runs)
