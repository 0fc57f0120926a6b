"""Correctness checks on the output files of one neumann-lab command.

Each check reads what the command wrote and returns a list of problems;
an empty list means the output reproduces the paper's result.  The
checks use only the standard library, so they do not depend on the code
under test.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

EPS_STAR_CONTINUUM = 0.153285  # f'(xi_2)/pi^2 for the unit square
NO_PATTERN_FROM = 0.25         # acceptance criterion 5: no pattern from here on
CONSTANT_ATOL = 1e-8


def find_xi(a: float) -> float:
    """Positive root of e^t - 1 - a*t by bisection (independent of the package)."""
    lo, hi = math.log(a), math.log(a) + 8.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if math.exp(mid) - 1.0 - a * mid < 0.0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def sweep_census(out_dir: Path) -> tuple[int, int, int]:
    """(total distinct states over the grid, failed starts, attempted starts)."""
    distinct = sum(int(r["n_distinct"]) for r in _rows(out_dir / "sweep.csv"))
    runs = _rows(out_dir / "runs.csv")
    failed = sum(1 for r in runs if r["converged"] == "0")
    return distinct, failed, len(runs)


def check_sweep(cfg: dict, out_dir: Path) -> list[str]:
    """Rigidity dichotomy and the identity suite (acceptance criteria 3 and 5)."""
    a = cfg["a"]
    xi = find_xi(a)
    summary = json.loads((out_dir / "sweep_summary.json").read_text())
    eps_star = (math.exp(xi) - a) / summary["mu1"]
    rows = summary["rows"]
    problems = []
    if not any(r["any_nonconstant"] for r in rows if r["epsilon"] < eps_star):
        problems.append(f"no pattern found below eps*={eps_star:.6f}")
    for r in rows:
        if r["epsilon"] >= NO_PATTERN_FROM and r["any_nonconstant"]:
            problems.append(f"pattern found at eps={r['epsilon']}")

    diag = _rows(out_dir / "diagnostics_summary.csv")
    deep = max(r["epsilon"] for r in rows)
    at_deep = [d for d in diag if float(d["epsilon"]) == deep]
    means = sorted(float(d["mean"]) for d in at_deep)
    if any(d["classification"] != "constant" for d in at_deep) or len(means) != 2 \
            or abs(means[0]) > CONSTANT_ATOL or abs(means[1] - xi) > CONSTANT_ATOL:
        problems.append(f"eps={deep} should give exactly the constants 0 and xi_a, "
                        f"got {[(d['classification'], d['mean']) for d in at_deep]}")

    # acceptance criterion 3; the energy gap is checked in absolute terms,
    # which is stricter than the criterion's gap/(1 + |lhs|)
    tol = 1e-10 * (1.0 + cfg["lx"] * cfg["ly"])
    for d in diag:
        where = f"diagnostics row eps={d['epsilon']} mean={d['mean']}"
        if not float(d["zero_avg_residual"]) <= 10.0 * tol:
            problems.append(f"{where}: zero-average residual {d['zero_avg_residual']}")
        if not float(d["energy_gap"]) <= 10.0 * tol:
            problems.append(f"{where}: energy gap {d['energy_gap']}")
        if not float(d["representation_error"]) <= 100.0 * tol:
            problems.append(f"{where}: representation error {d['representation_error']}")
        if not float(d["l1_norm_f"]) <= float(d["l1_bound"]) + 1e-6:
            problems.append(f"{where}: L1 norm {d['l1_norm_f']} above {d['l1_bound']}")
        if not -1e-6 <= float(d["mean"]) <= xi + 1e-6:
            problems.append(f"{where}: mean outside [0, xi_a]")
    return problems


def check_bifurcate(cfg: dict, out_dir: Path) -> list[str]:
    """Closure of eps* (acceptance criterion 4) and the pitchfork (criterion 6)."""
    report = json.loads((out_dir / "bifurcation.json").read_text())
    problems = []
    if not report["relative_gap"] <= 1e-6:
        problems.append(f"relative_gap {report['relative_gap']} above 1e-6")
    continuum = abs(report["eps_star_detected"] - EPS_STAR_CONTINUUM) / EPS_STAR_CONTINUUM
    if not continuum <= 0.02:
        problems.append(f"eps* {report['eps_star_detected']} is {continuum:.2%} "
                        f"from the continuum value {EPS_STAR_CONTINUUM}")
    branch = _rows(out_dir / "branch.csv")
    down = [r for r in branch if r["direction"] == "down"]
    up = [r for r in branch if r["direction"] == "up"]
    if not down or not float(down[0]["sup_fluct"]) > 0.01:
        problems.append("first point below eps* is not patterned (sup_fluct <= 0.01)")
    if not up or not float(up[-1]["sup_fluct"]) < 1e-6:
        problems.append("last point above eps* has not merged with the constant")
    return problems


def check_eigen(cfg: dict, out_dir: Path) -> list[str]:
    """mu1 against the closed form pi^2/L^2 (acceptance criterion 2)."""
    report = json.loads((out_dir / "eigen.json").read_text())
    exact = math.pi ** 2 / max(cfg["lx"], cfg["ly"]) ** 2
    problems = []
    if not abs(report["mu1"] - exact) / exact < 0.01:
        problems.append(f"mu1 {report['mu1']} is not within 1% of {exact}")
    if not report["mu2_estimate"] >= report["mu1"]:
        problems.append(f"mu2_estimate {report['mu2_estimate']} below mu1 {report['mu1']}")
    return problems


CHECKS = {"sweep": check_sweep, "bifurcate": check_bifurcate, "eigen": check_eigen}


def check_output(command: str, cfg: dict, out_dir: Path) -> list[str]:
    """Problems with the output of ``command``; a missing or unreadable file
    is a problem too."""
    try:
        return CHECKS[command](cfg, out_dir)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"cannot read the {command} output: {type(exc).__name__}: {exc}"]
