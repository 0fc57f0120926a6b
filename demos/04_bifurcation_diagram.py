"""Locate the primary bifurcation of the constant branch u = xi_a, switch
onto the patterned branch, and trace it both ways.

Writes branch.csv into the current directory and prints a small text diagram of
sup-fluctuation against the diffusion parameter.
"""

import csv
from pathlib import Path

from neumann_rigidity import (
    assemble,
    build_bifurcation_report,
    build_rectangle_mesh,
)

a = 2.0
op = assemble(build_rectangle_mesh(32, 32, 1.0, 1.0))

report = build_bifurcation_report(a, op, bracket=(0.10, 0.20), tol=1e-8)
print(f"eps* detected  = {report.eps_star_detected:.8f}")
print(f"eps* predicted = {report.eps_star_predicted:.8f}  (f'(xi)/mu1)")
print(f"relative gap   = {report.relative_gap:.2e}")
print(f"mu1 = {report.mu1:.6f}, degenerate pair: {report.mu1_degenerate}")
print(f"switch direction: {report.switch_direction}, amplitude {report.switch_amplitude:.4f}")

points = sorted(report.branch + report.upward_branch, key=lambda p: p.solution.epsilon)
print("\n  eps        mean      sup fluct   stability   (bar: sup fluct)")
for p in points:
    sup = p.solution.sup_fluct
    bar = "#" * int(round(40 * sup / 1.0))
    print(f"  {p.solution.epsilon:.5f}  {p.solution.mean:8.5f}"
          f"   {sup:8.5f}   {p.stability_indicator:+9.4f}   {bar}")

out = Path("branch.csv")
with open(out, "w", newline="") as fh:
    w = csv.writer(fh)
    w.writerow(["epsilon", "mean", "sup_fluct", "stability_indicator", "residual_norm"])
    for p in points:
        w.writerow([p.solution.epsilon, p.solution.mean, p.solution.sup_fluct,
                    p.stability_indicator, p.solution.residual_norm])
print(f"\nwrote {out}")
print("the pattern amplitude falls to zero as eps approaches eps* from below")
print("and the branch merges with the constant: a supercritical pitchfork.")
