"""Damped Newton iteration for the discrete steady-state system
eps*A*u = m*f(u), a deterministic multi-start search over its solution set,
and classification of converged states as constant or patterned.

Every converged state is a flat ``SolutionRecord`` carrying its
mass-weighted mean and sup fluctuation from ``diagnostics.classify``, which
sets the fluctuation to exactly 0.0 for a constant state; the record's
``classification`` label is read from that.

``newton_solve`` returns a bare record; ``attach_diagnostics`` runs the
check suite on one, and ``multi_start`` runs it on each distinct state it
reports.

The Newton direction is -J^{-1} r with the symmetric Jacobian
J = eps*A - diag(m*f'(u)): a band LU of J in the operator's cached band
order (``linsolve.bordered``), and one solve with it per iteration.  While
the iteration contracts, the LU of the last fresh Jacobian is held and
reused (a chord step; Kelley, Solving Nonlinear Equations with Newton's
Method, SIAM 2003).  A numerically singular J raises SingularJacobianError.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np
import scipy.sparse as sp

from .diagnostics import DiagnosticsReport, classify, default_tol, run_diagnostics
from .errors import NoConvergenceError, SingularJacobianError
from .linsolve import bordered, dual_norm, first_eigenpair, solve_projected
from .meshing import DiscreteOperator
from .model import eval_f_clipped, eval_f_prime_clipped, find_xi

DEDUP_REL_TOL = 1e-5
MAX_ITER = 40
DAMPING = 0.5        # line-search backtracking factor
MIN_ALPHA = 1e-8     # line-search step underflow
STALL_WINDOW = 10    # give up when this many iterations shrink the residual
STALL_FACTOR = 0.3   # by less than this factor
CONTRACTION = 0.1    # a full step that cuts the residual this much keeps its factor


@dataclass(frozen=True)
class SolutionRecord:
    """A converged steady state with its mass-weighted ``mean`` and its sup
    fluctuation ``max|u - mean|``, which ``classify`` sets to 0.0 for a
    constant state; ``factorizations`` counts the band LUs its Newton
    iteration made.  The check report is None until ``attach_diagnostics``
    fills it in."""

    u: np.ndarray
    epsilon: float
    residual_norm: float
    newton_iters: int
    mean: float
    sup_fluct: float
    factorizations: int = 0
    diagnostics: DiagnosticsReport | None = None

    @property
    def classification(self) -> str:
        """The label runs and output files give a state: "constant" or "nonconstant"."""
        return "nonconstant" if self.sup_fluct > 0.0 else "constant"


def residual(u: np.ndarray, eps: float, a: float, op: DiscreteOperator) -> np.ndarray:
    """Steady-state defect eps*A*u - m*f(u) (nodal load form).

    Reaction values saturate at exponent 700, so a huge trial state has
    finite entries but a residual norm of +inf, which the Newton line
    search rejects.
    """
    fu = eval_f_clipped(u, a)
    return eps * op.stiffness.dot(u) - op.lumped_mass * fu


def jacobian(u: np.ndarray, eps: float, a: float, op: DiscreteOperator) -> sp.csr_matrix:
    """Symmetric Jacobian eps*A - diag(m*f'(u)) of the residual."""
    fp = eval_f_prime_clipped(u, a)
    return (eps * op.stiffness - sp.diags(op.lumped_mass * fp)).tocsr()


def _newton_step(u: np.ndarray, r: np.ndarray, eps: float, a: float,
                 op: DiscreteOperator) -> np.ndarray:
    """The exact Newton direction -J^{-1} r, J = eps*A - diag(m*f'(u))."""
    fp = eval_f_prime_clipped(u, a)
    try:
        return solve_projected(bordered(op), -r, eps, op.lumped_mass * fp)
    except NoConvergenceError as exc:
        raise SingularJacobianError(f"Newton step: {exc}") from exc


def newton_solve(u0: np.ndarray, eps: float, a: float, op: DiscreteOperator) -> SolutionRecord:
    """Damped Newton iteration from u0 to the mass-weighted residual norm
    ``diagnostics.default_tol(op)``; raises on failure.

    Backtracks alpha in {1, 1/2, 1/4, ...} until the mass-weighted residual
    norm strictly decreases.  After a full step (alpha = 1) that cut the
    norm by CONTRACTION or more, the next step reuses the Jacobian factor
    of the last fresh step; it is accepted if it lowers the norm, and
    otherwise discarded for a fresh damped step.  Raises
    NoConvergenceError on a start whose residual norm is not finite, on
    the iteration cap or on step underflow, and SingularJacobianError when
    the linear step is not solvable (typical right at a bifurcation point).
    A non-finite ``eps``, ``a`` or start raises ValueError, and a NaN
    residual norm never counts as converged.
    """
    if not 0.0 < eps < np.inf:
        raise ValueError("eps must be positive and finite")
    if not np.isfinite(a):
        raise ValueError("a must be finite")
    m = op.lumped_mass
    tol = default_tol(op)

    u = np.asarray(u0, dtype=float).copy()
    if u.shape != m.shape:
        raise ValueError("start vector length does not match the operator")
    if not np.all(np.isfinite(u)):
        raise ValueError("start vector has non-finite entries")
    made = bordered(op).factorizations
    # huge states overflow the reaction and eps*A*u; the norms below are
    # checked for that explicitly, so numpy's warnings would be noise
    with np.errstate(over="ignore", invalid="ignore"):
        r = residual(u, eps, a, op)
        rnorm = dual_norm(r, m)
        if not np.isfinite(rnorm):  # no damped step can reduce it
            raise NoConvergenceError(f"start residual {rnorm:.3e} is not finite")
        history = [rnorm]
        iters = 0
        held = None  # the state whose Jacobian factor the next step reuses
        while not rnorm <= tol:
            if iters >= MAX_ITER:
                raise NoConvergenceError(
                    f"Newton hit max_iter={MAX_ITER} with residual {rnorm:.3e}"
                )
            if len(history) > STALL_WINDOW and rnorm > STALL_FACTOR * history[-STALL_WINDOW - 1]:
                raise NoConvergenceError(
                    f"Newton stalled near residual {rnorm:.3e} after {iters} iterations"
                )
            at = u if held is None else held
            delta = _newton_step(at, r, eps, a, op)

            alpha = 1.0
            while True:
                trial = u + alpha * delta
                r_trial = residual(trial, eps, a, op)
                rnorm_trial = dual_norm(r_trial, m)
                if rnorm_trial < rnorm:
                    break
                if at is not u:  # the held factor failed: take a fresh step
                    at = u
                    delta = _newton_step(u, r, eps, a, op)
                    continue
                alpha *= DAMPING
                if alpha < MIN_ALPHA:
                    raise NoConvergenceError(
                        f"line search underflow at residual {rnorm:.3e}"
                    )
            held = at if alpha == 1.0 and rnorm_trial <= CONTRACTION * rnorm else None
            u, r, rnorm = trial, r_trial, rnorm_trial
            history.append(rnorm)
            iters += 1

    mean, sup_fluct = classify(u, m)
    return SolutionRecord(u=u, epsilon=eps, residual_norm=rnorm, newton_iters=iters,
                          mean=mean, sup_fluct=sup_fluct,
                          factorizations=bordered(op).factorizations - made)


def attach_diagnostics(record: SolutionRecord, a: float, q: float,
                       op: DiscreteOperator) -> SolutionRecord:
    """The record with its check report filled in; ``q`` is the integrability
    exponent."""
    report = run_diagnostics(record.u, record.epsilon, a, q, op, first_eigenpair(op).mu1)
    return replace(record, diagnostics=report)


@dataclass(frozen=True)
class StartOutcome:
    """Per-start log row of a multi-start batch (converged or not)."""

    start_id: int
    label: str
    converged: bool
    failure: str | None
    classification: str | None
    mean: float | None
    sup_fluct: float | None
    residual_norm: float | None
    iters: int | None


@dataclass(frozen=True)
class MultiStartResult:
    """The census at one eps: the distinct states found and the per-start log."""

    epsilon: float
    distinct: list[SolutionRecord]
    runs: list[StartOutcome]

    @property
    def n_distinct(self) -> int:
        return len(self.distinct)

    @property
    def any_nonconstant(self) -> bool:
        return any(r.sup_fluct > 0.0 for r in self.distinct)

    @property
    def n_failed(self) -> int:
        return sum(not r.converged for r in self.runs)


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
    if pair.mu2 - pair.mu1 <= 0.05 * pair.mu1:
        dirs += [
            ("phi1+phi2", pair.phi1 + pair.phi2),
            ("phi1-phi2", pair.phi1 - pair.phi2),
            ("phi2", pair.phi2),
        ]
    return [(name, d / np.abs(d).max()) for name, d in dirs]


def noise_start(rng: np.random.Generator, xi: float, n: int) -> np.ndarray:
    """A seeded noise start: n values drawn uniformly from [-2, xi + 2]."""
    return rng.uniform(-2.0, xi + 2.0, size=n)


def start_family(eps: float, a: float, op: DiscreteOperator, n_starts: int,
                 seed: int) -> list[tuple[str, np.ndarray]]:
    """Deterministic start states: the constant states 0 and xi_a,
    perturbations of xi_a along the ``switch_directions`` (relative sup
    amplitudes 0.15, 0.45 and 1, both signs, smallest first), then
    ``noise_start`` fields from one generator seeded with ``seed``.

    The constant log(a) is left out: f'(log a) = 0 makes the first Newton
    Jacobian eps*A, which is singular.
    """
    if n_starts < 1:
        raise ValueError("n_starts must be at least 1")
    n = op.n
    xi = find_xi(a)
    starts: list[tuple[str, np.ndarray]] = [
        ("const:0", np.zeros(n)),
        ("const:xi", np.full(n, xi)),
    ]
    directions = switch_directions(op)
    for amp in (0.15, -0.15, 0.45, -0.45, 1.0, -1.0):
        for name, d in directions:
            starts.append((f"{name}:{amp:+g}", xi + amp * xi * d))
    rng = np.random.default_rng(seed)
    k = 0
    while len(starts) < n_starts:
        starts.append((f"noise:{k}", noise_start(rng, xi, n)))
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
    distinct.sort(key=lambda r: (r.mean, r.sup_fluct))
    return distinct


def multi_start(eps: float, a: float, op: DiscreteOperator, n_starts: int,
                seed: int, q: float = 4.0) -> MultiStartResult:
    """Newton from each start of the deterministic start family; returns
    the deduplicated solutions, each with its check report at exponent ``q``,
    plus a per-start log (failures are recorded, never fatal)."""
    if not q > 2.0:  # checked before the census, not by the first report
        raise ValueError("q must exceed 2")
    runs: list[StartOutcome] = []
    found: list[SolutionRecord] = []
    for start_id, (label, u0) in enumerate(start_family(eps, a, op, n_starts, seed)):
        try:
            rec = newton_solve(u0, eps, a, op)
        except (NoConvergenceError, SingularJacobianError) as exc:
            runs.append(StartOutcome(start_id, label, False, type(exc).__name__,
                                     None, None, None, None, None))
            continue
        runs.append(StartOutcome(
            start_id, label, True, None, rec.classification, rec.mean, rec.sup_fluct,
            rec.residual_norm, rec.newton_iters,
        ))
        found.append(rec)
    distinct = [attach_diagnostics(rec, a, q, op) for rec in dedup_records(found)]
    return MultiStartResult(eps, distinct, runs)
