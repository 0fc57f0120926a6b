"""Diffusion-parameter sweeps: linearized stability of the constant branch,
bisection for the primary bifurcation point, switching onto the patterned
branch, natural continuation along it, and the multi-start rigidity sweep.

The stability indicator of a state is the smallest eigenvalue of the
Jacobian pencil restricted to mean-zero fields.  At the constant branch
u = xi_a its spectrum is exactly {eps*mu_k - f'(xi_a)}, so the indicator
changes sign at eps = f'(xi_a)/mu_1: the same number the eigensolver
predicts, which closes the loop between the two routes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import (
    BranchLostError,
    FellBackToConstantError,
    InvalidBracketError,
    NoConvergenceError,
    SingularJacobianError,
)
from .linsolve import bordered, dual_norm, first_eigenpair, restricted_smallest_eigen
from .meshing import DiscreteOperator
from .model import bifurcation_epsilon, eval_f_prime_clipped, find_xi
from .newton import (
    NewtonOpts,
    Nonconstant,
    SolutionRecord,
    StartOutcome,
    attach_diagnostics,
    classify,
    multi_start,
    newton_solve,
    residual,
    switch_directions,
)


@dataclass(frozen=True)
class BranchPoint:
    """One accepted point along a branch: (eps, solution, linearized stability)."""

    epsilon: float
    solution: SolutionRecord
    stability_indicator: float


@dataclass(frozen=True)
class BifurcationReport:
    """Detected vs predicted primary bifurcation plus the traced branch.

    ``branch`` lists the patterned side (decreasing eps from the switch
    point); ``upward_branch`` continues past the bifurcation, where the
    pattern collapses back onto the constant state.  ``mu1_degenerate``
    flags a multiplicity-two first mode (disks; structured square meshes
    split the pair by O(h**2)); the direction actually used for switching
    is recorded by label and vector.
    """

    eps_star_detected: float
    eps_star_predicted: float
    relative_gap: float
    branch: list[BranchPoint]
    upward_branch: list[BranchPoint] = field(default_factory=list)
    mu1: float | None = None
    mu1_degenerate: bool = False
    switch_amplitude: float | None = None
    switch_direction: str | None = None
    switch_eigenvector: np.ndarray | None = None


def stability_indicator(u: np.ndarray, eps: float, a: float, op: DiscreteOperator,
                        tol: float = 1e-9) -> tuple[float, np.ndarray]:
    """Smallest mean-zero-subspace eigenvalue of the Jacobian pencil at u,
    with its eigenvector.

    The pointwise reaction slope bounds the spectrum from below by
    -max f'(u), which places the shift of the shift-invert eigensolver.
    The Jacobian eps*A - diag(m*f'(u)) is never assembled: its bordered
    factor is filled straight into the operator's cached layout.
    """
    fp, _ = eval_f_prime_clipped(u, a)
    return restricted_smallest_eigen(bordered(op), -float(fp.max()), scale=eps,
                                     d=op.lumped_mass * fp, tol=tol)


def _constant_record(value: float, eps: float, a: float, op: DiscreteOperator,
                     opts: NewtonOpts) -> SolutionRecord:
    u = np.full(op.n, value)
    rec = SolutionRecord(
        u=u,
        epsilon=eps,
        residual_norm=dual_norm(residual(u, eps, a, op), op.lumped_mass),
        newton_iters=0,
        classification=classify(u, op.lumped_mass),
        diagnostics=None,
    )
    return attach_diagnostics(rec, a, op, opts) if opts.attach_diagnostics else rec


def trivial_branch_stability(eps_grid: list[float], a: float, op: DiscreteOperator,
                             opts: NewtonOpts = NewtonOpts(),
                             indicator_tol: float = 1e-10) -> list[BranchPoint]:
    """Stability indicator of u = xi_a over a diffusion grid (conventionally
    decreasing, so instability appears at the end)."""
    xi = find_xi(a)
    points = []
    for eps in eps_grid:
        rec = _constant_record(xi, eps, a, op, opts)
        lam, _ = stability_indicator(rec.u, eps, a, op, tol=indicator_tol)
        points.append(BranchPoint(epsilon=eps, solution=rec, stability_indicator=lam))
    return points


def detect_bifurcation(a: float, op: DiscreteOperator, bracket: tuple[float, float],
                       tol: float = 1e-8, indicator_tol: float = 1e-10) -> float:
    """Bisection on the constant-branch stability indicator.

    Requires opposite indicator signs at the bracket ends; returns the
    midpoint once the bracket width drops below tol.
    """
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise InvalidBracketError(f"need 0 < lo < hi, got ({lo}, {hi})")
    xi = find_xi(a)
    u = np.full(op.n, xi)

    def indicator(eps):
        return stability_indicator(u, eps, a, op, tol=indicator_tol)[0]

    f_lo, f_hi = indicator(lo), indicator(hi)
    if np.sign(f_lo) == np.sign(f_hi):
        raise InvalidBracketError(
            f"indicator does not change sign on ({lo}, {hi}): {f_lo:.3e}, {f_hi:.3e}"
        )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = indicator(mid)
        if f_mid == 0.0:
            return mid
        if np.sign(f_mid) == np.sign(f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi, f_hi = mid, f_mid
    return 0.5 * (lo + hi)


def branch_switch(eps_star: float, a: float, op: DiscreteOperator,
                  amplitude: float | None = None, delta: float = 0.05,
                  opts: NewtonOpts = NewtonOpts()) -> tuple[SolutionRecord, str]:
    """Jump onto the patterned branch just below the bifurcation point.

    Runs Newton at eps = (1 - delta)*eps_star from xi_a + amplitude*d over
    the candidate directions d (sup norm one, both signs); ``amplitude``
    defaults to 0.3*xi_a and is the sup of the initial perturbation.
    Returns the first patterned solution and the direction label used.
    Raises FellBackToConstantError when every start lands back on the
    constant branch (amplitude or delta too small).
    """
    if amplitude is not None and amplitude == 0.0:
        raise ValueError("amplitude must be nonzero")
    xi = find_xi(a)
    if amplitude is None:
        amplitude = 0.3 * xi
    eps = (1.0 - delta) * eps_star
    n_constant = 0
    for name, direction in switch_directions(op):
        for sign in (1.0, -1.0):
            try:
                rec = newton_solve(xi + sign * amplitude * direction, eps, a, op, opts)
            except (NoConvergenceError, SingularJacobianError):
                continue
            if isinstance(rec.classification, Nonconstant):
                return rec, (name if sign > 0 else f"-{name}")
            n_constant += 1
    if n_constant:
        raise FellBackToConstantError(
            f"switch with amplitude {amplitude:g} converged back to the constant "
            f"from every direction; increase amplitude or delta"
        )
    raise NoConvergenceError(
        f"branch switch at eps={eps:.6g}: every direction start failed to converge"
    )


def continue_branch(start: SolutionRecord, eps_schedule: list[float], a: float,
                    op: DiscreteOperator, opts: NewtonOpts = NewtonOpts(),
                    indicator_tol: float = 1e-9,
                    max_halvings: int = 6) -> list[BranchPoint]:
    """Natural continuation: warm-start Newton at each scheduled eps.

    A failed step is retried at the midpoint toward the last accepted eps,
    up to ``max_halvings`` times per scheduled value; accepted intermediate
    points are recorded too.  Raises BranchLostError (carrying the points
    gathered so far) when the step underflows.
    """
    points: list[BranchPoint] = []
    u_prev = start.u
    eps_prev = start.epsilon
    for target in eps_schedule:
        halvings = 0
        current = target
        while True:
            try:
                rec = newton_solve(u_prev, current, a, op, opts)
            except (NoConvergenceError, SingularJacobianError) as exc:
                halvings += 1
                if halvings > max_halvings:
                    raise BranchLostError(
                        f"continuation lost the branch near eps={current:.6g}: {exc}",
                        points=points,
                    ) from exc
                current = 0.5 * (eps_prev + current)
                continue
            lam, _ = stability_indicator(rec.u, current, a, op, tol=indicator_tol)
            points.append(BranchPoint(epsilon=current, solution=rec,
                                      stability_indicator=lam))
            u_prev, eps_prev = rec.u, current
            if current == target:
                break
            current = target
    return points


def build_bifurcation_report(a: float, op: DiscreteOperator, bracket: tuple[float, float],
                             tol: float = 1e-8, amplitude: float | None = None,
                             opts: NewtonOpts = NewtonOpts(),
                             down_to: float = 0.5, n_down: int = 6,
                             up_to: float = 1.10, n_up: int = 2) -> BifurcationReport:
    """Detect the primary bifurcation, switch, and trace both directions.

    The patterned branch is continued down to ``down_to * eps_star`` and
    upward past the bifurcation (to ``up_to * eps_star``), where it merges
    with the constant branch.
    """
    eps_star = detect_bifurcation(a, op, bracket, tol=tol)
    pair = first_eigenpair(op)
    predicted = bifurcation_epsilon(a, pair.mu1)
    gap = abs(eps_star - predicted) / predicted

    switch, direction = branch_switch(eps_star, a, op, amplitude=amplitude, opts=opts)
    lam0, _ = stability_indicator(switch.u, switch.epsilon, a, op)
    first_point = BranchPoint(switch.epsilon, switch, lam0)

    down_schedule = list(np.linspace(0.90 * eps_star, down_to * eps_star, n_down))
    branch = [first_point] + continue_branch(switch, down_schedule, a, op, opts=opts)

    # hop well across eps_star in one step: near the crossing the Jacobian
    # of the merged constant state is almost singular and Newton stalls
    up_schedule = [0.97 * eps_star] + list(np.linspace(1.05 * eps_star, up_to * eps_star, n_up))
    upward = continue_branch(switch, up_schedule, a, op, opts=opts)

    xi = find_xi(a)
    used = dict(switch_directions(op)).get(direction.lstrip("-"))
    return BifurcationReport(
        eps_star_detected=eps_star,
        eps_star_predicted=predicted,
        relative_gap=gap,
        branch=branch,
        upward_branch=upward,
        mu1=pair.mu1,
        mu1_degenerate=pair.degenerate,
        switch_amplitude=amplitude if amplitude is not None else 0.3 * xi,
        switch_direction=direction,
        switch_eigenvector=used,
    )


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    n_distinct: int
    any_nonconstant: bool
    n_failed: int


@dataclass(frozen=True)
class SweepResult:
    """Multi-start census over a diffusion grid with the empirical threshold.

    ``eps_hat`` is the smallest grid value from which on no patterned
    solution was found (None if patterns persist through the grid top);
    its uncertainty is one grid spacing.  ``m_emp`` is the largest sup-norm
    over every solution found, the empirical stand-in for the a priori
    sup bound.
    """

    rows: list[SweepRow]
    eps_hat: float | None
    m_emp: float
    solutions: dict[float, list[SolutionRecord]]
    runs: list[StartOutcome]


def _sweep_one(args):
    eps, a, op, n_starts, seed, opts = args
    return eps, multi_start(eps, a, op, n_starts, seed, opts)


def rigidity_sweep(eps_grid: list[float], a: float, op: DiscreteOperator,
                   n_starts: int, seed: int, opts: NewtonOpts = NewtonOpts(),
                   threads: int = 1) -> SweepResult:
    """Run the multi-start search at every grid value and tabulate how many
    distinct states exist and whether any is nonconstant.

    Deterministic for a fixed seed, grid, and mesh: each grid value gets the
    derived seed ``seed + 7919*index``.  Grid values are independent, so
    they may be distributed over worker processes.
    """
    tasks = [
        (float(eps), a, op, n_starts, seed + 7919 * i, opts)
        for i, eps in enumerate(eps_grid)
    ]
    if threads > 1:
        with ProcessPoolExecutor(max_workers=threads) as pool:
            outcomes = list(pool.map(_sweep_one, tasks))
    else:
        outcomes = [_sweep_one(t) for t in tasks]

    rows: list[SweepRow] = []
    solutions: dict[float, list[SolutionRecord]] = {}
    runs: list[StartOutcome] = []
    m_emp = 0.0
    for eps, result in outcomes:
        any_nc = any(isinstance(r.classification, Nonconstant) for r in result.distinct)
        rows.append(SweepRow(
            epsilon=eps,
            n_distinct=len(result.distinct),
            any_nonconstant=any_nc,
            n_failed=sum(1 for r in result.runs if not r.converged),
        ))
        solutions[eps] = result.distinct
        runs.extend(result.runs)
        for rec in result.distinct:
            m_emp = max(m_emp, float(np.abs(rec.u).max()))

    by_eps = sorted(rows, key=lambda r: r.epsilon)
    eps_hat = None
    for i, row in enumerate(by_eps):
        if all(not r.any_nonconstant for r in by_eps[i:]):
            eps_hat = row.epsilon
            break
    return SweepResult(rows=rows, eps_hat=eps_hat, m_emp=m_emp,
                       solutions=solutions, runs=runs)
