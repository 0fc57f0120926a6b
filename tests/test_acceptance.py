"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria (tolerances pinned here, not deferred):
  1. scalar constant chain against closed forms and a bisection oracle
  2. first eigenvalue on square / rectangle / disk against closed forms
  3. discrete identity suite on >= 20 converged solutions, eps in [0.05, 2],
     judged by each report's own flags (the policy in diagnostics.py)
  4. bifurcation closure on the 64x64 square (1e-6 internal, 2% continuum)
  5. rigidity reproduction: patterns below the threshold, none above 0.25,
     exactly two constants in the deep regime
  6. branch switch amplitude and pitchfork closure upward
  7. exponential integrability in the large-diffusion regime, Green bounds
  8. numerical hygiene: Jacobian differences, spectral-gap ratio, eigen order
"""

import time

import numpy as np
import pytest

from neumann_rigidity import (
    bifurcation_epsilon,
    build_bifurcation_report,
    detect_bifurcation,
    estimate_green_constants,
    find_xi,
    first_eigenpair,
    jacobian,
    lipschitz_bound,
    multi_start,
    project_mean_zero,
    residual,
    weighted_mean,
)
from neumann_rigidity.model import constant_chain, eval_f_prime
from neumann_rigidity.newton import default_tol

A = 2.0
J11_PRIME_SQ = 1.8411837813406593**2
EPS_STAR_CONTINUUM = 0.153285


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, detail


def bisect_root(a, lo, hi, iters=200):
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        if np.exp(mid) - 1.0 - a * mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def test_criterion_1_scalar_chain():
    t0 = time.perf_counter()
    xi_oracle = bisect_root(A, np.log(A), np.log(A) + 8.0)
    xi = find_xi(A)
    ok_xi = abs(xi - xi_oracle) <= 1e-10

    chain = constant_chain(A, 4.0, area=1.0, diameter=np.sqrt(2.0))
    c0_exact = 2.0 * np.log(2.0) - 1.0
    ok_c0 = abs(chain.c0 - c0_exact) <= 1e-12
    ok_eps0 = abs(chain.eps0_of_q - 4.0 * chain.c1 / np.pi) <= 1e-12
    ok_k = abs(lipschitz_bound(2.0, A) - (np.exp(2.0) - 2.0)) <= 1e-12
    elapsed = time.perf_counter() - t0
    report("1 scalar chain", ok_xi and ok_c0 and ok_eps0 and ok_k and elapsed < 1.0,
           f"xi={xi:.10f} c0={chain.c0:.12f} eps0={chain.eps0_of_q:.12f} "
           f"K(2)={lipschitz_bound(2.0, A):.9f} {elapsed:.2f}s")


def test_criterion_2_eigenvalues(square64, rect2x1, disk6):
    details = []
    ok = True
    for name, op, target, tol in (
        ("square64", square64, np.pi**2, 0.01),
        ("rect2x1", rect2x1, (np.pi / 2.0) ** 2, 0.01),
        ("disk6", disk6, J11_PRIME_SQ, 0.02),
    ):
        t0 = time.perf_counter()
        pair = first_eigenpair(op)
        elapsed = time.perf_counter() - t0
        rel = abs(pair.mu1 - target) / target
        ok = ok and rel < tol and elapsed < 30.0
        details.append(f"{name}: mu1={pair.mu1:.5f} rel={rel:.2e} {elapsed:.1f}s")
    report("2 eigenvalues", ok, "; ".join(details))


def test_criterion_3_identity_suite(square20, sweep_result):
    result = sweep_result["result"]
    tol = default_tol(square20)

    records = [(row.epsilon, rec) for row in result.rows for rec in row.distinct]
    extra = multi_start(2.0, A, square20, 12, seed=1)
    records += [(2.0, rec) for rec in extra.distinct]

    n_checked = 0
    worst = {"zero": 0.0, "energy": 0.0, "repr": 0.0}
    ok = len(records) >= 20
    for eps, rec in records:
        d = rec.diagnostics
        ok = ok and d.ok
        gap = abs(d.energy_lhs - d.energy_rhs) / (1.0 + abs(d.energy_lhs))
        worst["zero"] = max(worst["zero"], d.zero_avg_residual)
        worst["energy"] = max(worst["energy"], gap)
        worst["repr"] = max(worst["repr"], d.representation_error)
        n_checked += 1
    report("3 identity suite", ok,
           f"{n_checked} solutions, worst zero-avg {worst['zero']:.1e}, "
           f"energy gap {worst['energy']:.1e}, representation {worst['repr']:.1e} "
           f"(tol {tol:.1e})")


def test_criterion_4_bifurcation_closure(square64):
    t0 = time.perf_counter()
    pair = first_eigenpair(square64)
    eps_star = detect_bifurcation(A, square64, (0.10, 0.20), tol=1e-8)
    elapsed = time.perf_counter() - t0
    fp_xi = eval_f_prime(find_xi(A), A)
    internal = abs(eps_star * pair.mu1 - fp_xi) / fp_xi
    continuum = abs(eps_star - EPS_STAR_CONTINUUM) / EPS_STAR_CONTINUUM
    ok = internal <= 1e-6 and continuum <= 0.02 and elapsed < 120.0
    report("4 bifurcation closure", ok,
           f"eps*={eps_star:.8f} internal={internal:.1e} continuum={continuum:.2%} "
           f"{elapsed:.0f}s")


def test_criterion_5_rigidity(square20, sweep_result):
    result = sweep_result["result"]
    seconds = sweep_result["seconds"]
    pair = first_eigenpair(square20)
    eps_star = bifurcation_epsilon(A, pair.mu1)
    xi = find_xi(A)

    below = [r for r in result.rows if r.epsilon < eps_star]
    ok_found = any(r.any_nonconstant for r in below)
    above = [r for r in result.rows if r.epsilon >= 0.25]
    ok_rigid = len(above) > 0 and all(not r.any_nonconstant for r in above)

    t0 = time.perf_counter()
    deep = multi_start(10.0, A, square20, 50, seed=7)
    seconds += time.perf_counter() - t0
    values = sorted(rec.mean for rec in deep.distinct if rec.classification == "constant")
    ok_deep = (len(deep.distinct) == 2 and len(values) == 2
               and abs(values[0]) <= 1e-8 and abs(values[1] - xi) <= 1e-8)

    ok = ok_found and ok_rigid and ok_deep and seconds < 600.0
    n_pattern_eps = sum(r.any_nonconstant for r in result.rows)
    report("5 rigidity sweep", ok,
           f"patterns at {n_pattern_eps} grid points below eps*={eps_star:.4f}, "
           f"none at eps>=0.25, deep regime = {{0, xi}}, eps_hat={result.eps_hat}, "
           f"{seconds:.0f}s")


def test_criterion_6_branch_behavior(square32):
    t0 = time.perf_counter()
    rep = build_bifurcation_report(A, square32, (0.10, 0.20), tol=1e-8)
    elapsed = time.perf_counter() - t0

    switch_point = rep.branch[0]
    ok_switch = (
        switch_point.solution.epsilon == pytest.approx(0.95 * rep.eps_star_detected, rel=1e-12)
        and switch_point.solution.sup_fluct > 0.01
    )
    merged = rep.upward_branch[-1]
    m = square32.lumped_mass
    v = merged.solution.u - weighted_mean(merged.solution.u, m)
    ok_merge = (merged.solution.epsilon > rep.eps_star_detected
                and merged.solution.classification == "constant"
                and np.abs(v).max() < 1e-6)
    ok = ok_switch and ok_merge and elapsed < 120.0
    report("6 branch behavior", ok,
           f"switch sup={switch_point.solution.sup_fluct:.4f} at "
           f"eps={switch_point.solution.epsilon:.5f}, merged sup={np.abs(v).max():.1e} at "
           f"eps={merged.solution.epsilon:.5f} (dir {rep.switch_direction}), {elapsed:.0f}s")


def test_criterion_7_jensen_green(square20, square32, disk4, sweep_result):
    result = sweep_result["result"]
    chain = constant_chain(A, 4.0, area=square20.area, diameter=square20.diameter)
    eps0 = chain.eps0_of_q

    solutions = {row.epsilon: row.distinct for row in result.rows}
    ok_regime = True
    checked = 0
    for eps in sorted(solutions):
        if eps < eps0:
            continue
        for rec in solutions[eps]:
            integral = rec.diagnostics.exp_integral_q  # the sweep's reports are at q = 4
            ok_regime = ok_regime and integral <= 2.0 * square20.area
            checked += 1
    top = max(solutions)
    ok_top = top >= eps0
    for rec in solutions[top]:
        integral = rec.diagnostics.exp_integral_q
        ok_top = ok_top and abs(integral - square20.area) <= 0.01 * square20.area

    ok_green = True
    green_detail = []
    for name, op in (("square32", square32), ("disk4", disk4)):
        _, c2 = estimate_green_constants(op, sample_count=6, seed=3)
        bound = 2.0 * np.pi * op.diameter**2
        ok_green = ok_green and c2 <= bound
        green_detail.append(f"{name} c2={c2:.3f}<={bound:.3f}")

    ok = ok_regime and ok_top and ok_green and checked >= 1
    report("7 jensen/green", ok,
           f"{checked} solutions at eps>=eps0={eps0:.4f} within 2|O|, top grid point "
           f"within 1%; " + "; ".join(green_detail))


def test_criterion_8_numerical_hygiene(square16, square20, square32, rng):
    # Jacobian vs centered differences at 10 random states
    ok_fd = True
    worst_fd = 0.0
    for _ in range(10):
        u = rng.uniform(-1.0, 2.0, square16.n)
        w = rng.standard_normal(square16.n)
        w /= np.abs(w).max()
        j_w = jacobian(u, 0.4, A, square16).dot(w)
        h = 1e-6 * max(1.0, np.abs(u).max())
        fd = (residual(u + h * w, 0.4, A, square16)
              - residual(u - h * w, 0.4, A, square16)) / (2.0 * h)
        rel = np.abs(fd - j_w).max() / (1.0 + np.abs(j_w).max())
        worst_fd = max(worst_fd, rel)
        ok_fd = ok_fd and rel <= 1e-5

    # spectral-gap ratio on 100 random mean-zero fields
    pair20 = first_eigenpair(square20)
    m = square20.lumped_mass
    ok_poincare = True
    for _ in range(100):
        v = project_mean_zero(rng.standard_normal(square20.n), m)
        ratio = (v @ square20.stiffness.dot(v)) / (pair20.mu1 * np.dot(m, v * v))
        ok_poincare = ok_poincare and ratio >= 1.0 - 1e-8

    # mesh halving improves the eigenvalue
    e16 = abs(first_eigenpair(square16).mu1 - np.pi**2)
    e32 = abs(first_eigenpair(square32).mu1 - np.pi**2)
    ok_order = e32 < e16

    ok = ok_fd and ok_poincare and ok_order
    report("8 numerical hygiene", ok,
           f"worst FD rel err {worst_fd:.1e}, Poincare ratios >= 1-1e-8, "
           f"mu1 err {e16:.2e} -> {e32:.2e} under halving")
