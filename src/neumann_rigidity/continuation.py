"""Diffusion-parameter sweeps: the linearized stability indicator,
root finding for the primary bifurcation point, switching onto the patterned
branch, natural continuation along it, and the multi-start rigidity sweep.

The stability indicator of a state is the smallest eigenvalue of the
Jacobian pencil restricted to mean-zero fields.  At the constant branch
u = xi_a its spectrum is exactly {eps*mu_k - f'(xi_a)}, so the indicator
changes sign at eps = f'(xi_a)/mu_1: the same number the eigensolver
predicts, which closes the loop between the two routes.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .errors import (
    BranchLostError,
    FellBackToConstantError,
    InvalidBracketError,
    NoConvergenceError,
    SingularJacobianError,
)
from .linsolve import bordered, first_eigenpair, restricted_smallest_eigen
from .meshing import DiscreteOperator
from .model import bifurcation_epsilon, eval_f_prime_clipped, find_xi
from .newton import (MultiStartResult, SolutionRecord, multi_start, newton_solve,
                     switch_directions)

BIF_TOL = 1e-8          # default bracket width of the eps* root finder
SWITCH_DELTA = 0.05     # branch switching runs at (1 - SWITCH_DELTA)*eps*
SWITCH_AMPLITUDE = 0.3  # sup of the switch perturbation, relative to xi_a
MAX_HALVINGS = 6        # step halvings per scheduled continuation value
# the bifurcation report traces the patterned branch down to BRANCH_DOWN_TO*eps*
# in BRANCH_DOWN_POINTS steps and up past eps* to BRANCH_UP_TO*eps*
BRANCH_DOWN_TO, BRANCH_DOWN_POINTS = 0.5, 6
BRANCH_UP_TO, BRANCH_UP_POINTS = 1.10, 2


@dataclass(frozen=True)
class BranchPoint:
    """One accepted point along a branch: the solution (its ``epsilon`` is
    the point's eps) and its linearized stability."""

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
    is recorded by label and vector, with the perturbation's sup
    SWITCH_AMPLITUDE*xi_a.
    """

    eps_star_detected: float
    eps_star_predicted: float
    relative_gap: float
    branch: list[BranchPoint]
    upward_branch: list[BranchPoint]
    mu1: float
    mu1_degenerate: bool
    switch_amplitude: float
    switch_direction: str
    switch_eigenvector: np.ndarray


def stability_indicator(u: np.ndarray, eps: float, a: float, op: DiscreteOperator) -> float:
    """Smallest mean-zero-subspace eigenvalue of the Jacobian pencil at u,
    to the eigensolver tolerance ``linsolve.INDICATOR_TOL``.

    The pointwise reaction slope bounds the whole pencil spectrum from
    below by -max f'(u), which places the shift of the shift-invert
    eigensolver.  The Jacobian eps*A - diag(m*f'(u)) is never assembled:
    its shifted pencil, positive definite, is filled straight into the
    operator's cached band layout and factored by band Cholesky.  Lanczos
    starts from phi1, the indicator's eigenvector on the constant branch
    and a close guess near it.
    """
    fp = eval_f_prime_clipped(u, a)
    return restricted_smallest_eigen(bordered(op), -float(fp.max()), scale=eps,
                                     d=op.lumped_mass * fp, start=first_eigenpair(op).phi1)[0]


def detect_bifurcation(a: float, op: DiscreteOperator, bracket: tuple[float, float],
                       tol: float = BIF_TOL) -> float:
    """Regula falsi on the constant-branch stability indicator.

    Requires opposite indicator signs at the bracket ends.  Each step takes
    the secant point clamped to [lo + tol/2, hi - tol/2], so the bracket
    shrinks by at least tol/2 per call; once it is no wider than tol, or no
    float lies strictly inside it (a tol below the float spacing at the
    bracket), the end with the smaller |indicator| is returned.

    On the constant branch the indicator is exactly eps*mu1 - f'(xi_a),
    affine in eps, so the first secant point is the root up to the
    eigensolver's error, and the clamp closes the bracket in one more call.
    """
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    lo, hi = bracket
    if not (0.0 < lo < hi):
        raise InvalidBracketError(f"need 0 < lo < hi, got ({lo}, {hi})")
    u = np.full(op.n, find_xi(a))
    f_lo, f_hi = stability_indicator(u, lo, a, op), stability_indicator(u, hi, a, op)
    if np.sign(f_lo) == np.sign(f_hi):
        raise InvalidBracketError(
            f"indicator does not change sign on ({lo}, {hi}): {f_lo:.3e}, {f_hi:.3e}"
        )
    while hi - lo > tol:
        x = lo - f_lo * (hi - lo) / (f_hi - f_lo)
        x = min(max(x, lo + 0.5 * tol), hi - 0.5 * tol)
        if not lo < x < hi:  # tol below the float spacing: no float lies inside
            break
        f_x = stability_indicator(u, x, a, op)
        if f_x == 0.0:
            return x
        if np.sign(f_x) == np.sign(f_lo):
            lo, f_lo = x, f_x
        else:
            hi, f_hi = x, f_x
    return lo if abs(f_lo) <= abs(f_hi) else hi


def branch_switch(eps_star: float, a: float,
                  op: DiscreteOperator) -> tuple[SolutionRecord, str, np.ndarray]:
    """Jump onto the patterned branch just below the bifurcation point.

    Runs Newton at eps = (1 - SWITCH_DELTA)*eps_star from xi_a + amplitude*d
    over the candidate directions d (sup norm one, both signs), where the
    perturbation's sup is amplitude = SWITCH_AMPLITUDE*xi_a.  Returns the
    first patterned solution, the signed label of its start and the
    unsigned direction d.  Raises FellBackToConstantError when every start
    lands back on the constant branch.
    """
    xi = find_xi(a)
    amplitude = SWITCH_AMPLITUDE * xi
    eps = (1.0 - SWITCH_DELTA) * eps_star
    n_constant = 0
    for name, direction in switch_directions(op):
        for sign in (1.0, -1.0):
            try:
                rec = newton_solve(xi + sign * amplitude * direction, eps, a, op)
            except (NoConvergenceError, SingularJacobianError):
                continue
            if rec.sup_fluct > 0.0:
                return rec, (name if sign > 0 else f"-{name}"), direction
            n_constant += 1
    if n_constant:
        raise FellBackToConstantError(
            f"switch with amplitude {amplitude:g} converged back to the constant "
            f"from every direction"
        )
    raise NoConvergenceError(
        f"branch switch at eps={eps:.6g}: every direction start failed to converge"
    )


def continue_branch(start: SolutionRecord, eps_schedule: list[float], a: float,
                    op: DiscreteOperator) -> list[BranchPoint]:
    """Natural continuation: warm-start Newton at each scheduled eps.

    A failed step is retried at the midpoint toward the last accepted eps,
    up to MAX_HALVINGS times per scheduled value; accepted intermediate
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
                rec = newton_solve(u_prev, current, a, op)
            except (NoConvergenceError, SingularJacobianError) as exc:
                halvings += 1
                if halvings > MAX_HALVINGS:
                    raise BranchLostError(
                        f"continuation lost the branch near eps={current:.6g}: {exc}",
                        points=points,
                    ) from exc
                current = 0.5 * (eps_prev + current)
                continue
            points.append(BranchPoint(rec, stability_indicator(rec.u, current, a, op)))
            u_prev, eps_prev = rec.u, current
            if current == target:
                break
            current = target
    return points


def build_bifurcation_report(a: float, op: DiscreteOperator, bracket: tuple[float, float],
                             tol: float = BIF_TOL) -> BifurcationReport:
    """Detect the primary bifurcation to ``tol``, switch, and trace both
    directions with Newton solves.

    The patterned branch is continued down to BRANCH_DOWN_TO*eps_star and
    upward past the bifurcation (to BRANCH_UP_TO*eps_star), where it merges
    with the constant branch.
    """
    eps_star = detect_bifurcation(a, op, bracket, tol=tol)
    pair = first_eigenpair(op)
    predicted = bifurcation_epsilon(a, pair.mu1)
    gap = abs(eps_star - predicted) / predicted

    switch, label, direction = branch_switch(eps_star, a, op)
    first_point = BranchPoint(switch, stability_indicator(switch.u, switch.epsilon, a, op))

    down_schedule = list(np.linspace(0.90 * eps_star, BRANCH_DOWN_TO * eps_star,
                                     BRANCH_DOWN_POINTS))
    branch = [first_point] + continue_branch(switch, down_schedule, a, op)

    # hop well across eps_star in one step: near the crossing the Jacobian
    # of the merged constant state is almost singular and Newton stalls
    up_schedule = [0.97 * eps_star] + list(
        np.linspace(1.05 * eps_star, BRANCH_UP_TO * eps_star, BRANCH_UP_POINTS))
    upward = continue_branch(switch, up_schedule, a, op)

    return BifurcationReport(
        eps_star_detected=eps_star,
        eps_star_predicted=predicted,
        relative_gap=gap,
        branch=branch,
        upward_branch=upward,
        mu1=pair.mu1,
        mu1_degenerate=pair.degenerate,
        switch_amplitude=SWITCH_AMPLITUDE * find_xi(a),
        switch_direction=label,
        switch_eigenvector=direction,
    )


@dataclass(frozen=True)
class SweepResult:
    """Multi-start census over a diffusion grid with the empirical threshold.

    ``rows`` holds one census per grid value, in ascending ``eps``.
    ``eps_hat`` is the smallest grid value from which on no patterned
    solution was found (None if patterns persist through the grid top); the
    threshold lies between the grid value below it and ``eps_hat``, and
    ``eps_hat_uncertainty`` is that bracket's width (None when ``eps_hat``
    is None or the smallest grid value).  ``m_emp`` is the largest sup-norm
    over every solution found, the empirical stand-in for the a priori sup
    bound.
    """

    rows: list[MultiStartResult]
    eps_hat: float | None
    eps_hat_uncertainty: float | None
    m_emp: float


def _sweep_one(args):
    return multi_start(*args)


def rigidity_sweep(eps_grid: list[float], a: float, op: DiscreteOperator,
                   n_starts: int, seed: int, q: float = 4.0,
                   threads: int = 1) -> SweepResult:
    """Run the multi-start search at every grid value and tabulate how many
    distinct states exist and whether any is nonconstant.  ``q`` passes
    through to ``multi_start``.

    Deterministic for a fixed seed, grid, and mesh: each grid value gets the
    derived seed ``seed + 7919*index`` from its position in ``eps_grid``;
    the rows are then sorted by ``eps``.  Grid values are independent, so
    they may be distributed over min(threads, len(eps_grid), os.cpu_count())
    worker processes; with one, the sweep runs in this process.
    """
    tasks = [
        (float(eps), a, op, n_starts, seed + 7919 * i, q)
        for i, eps in enumerate(eps_grid)
    ]
    workers = min(threads, len(tasks), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(_sweep_one, tasks))
    else:
        rows = [_sweep_one(t) for t in tasks]

    rows.sort(key=lambda r: r.epsilon)
    # one past the last patterned row: eps_hat and the value below bracket the threshold
    top = max((i + 1 for i, row in enumerate(rows) if row.any_nonconstant), default=0)
    eps_hat = rows[top].epsilon if top < len(rows) else None
    uncertainty = eps_hat - rows[top - 1].epsilon if eps_hat is not None and top else None
    m_emp = max((rec.diagnostics.sup_norm for row in rows for rec in row.distinct), default=0.0)
    return SweepResult(rows=rows, eps_hat=eps_hat, eps_hat_uncertainty=uncertainty, m_emp=m_emp)
