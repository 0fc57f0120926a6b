"""Reproduce the rigidity dichotomy at desk scale: multi-start searches over
a diffusion grid find patterned solutions only below the primary bifurcation
value; above it, every start lands on u = 0 or u = xi_a.

Uses a coarse grid and fewer starts than the acceptance suite so it runs in
about a minute.
"""

from neumann_rigidity import (
    assemble,
    bifurcation_epsilon,
    build_rectangle_mesh,
    first_eigenpair,
    rigidity_sweep,
    rigidity_threshold,
)

a = 2.0
op = assemble(build_rectangle_mesh(20, 20, 1.0, 1.0))
pair = first_eigenpair(op)
eps_star = bifurcation_epsilon(a, pair.mu1)

grid = [0.05, 0.075, 0.1, 0.125, 0.15, 0.2, 0.3, 0.5, 1.0, 2.0]
print(f"grid of {len(grid)} diffusion values, 30 starts each, eps* = {eps_star:.4f}\n")
result = rigidity_sweep(grid, a, op, n_starts=30, seed=0)

print(f"{'eps':>7} {'distinct':>9} {'patterned?':>11} {'failed starts':>14}")
for row in result.rows:
    mark = " <-- patterns" if row.any_nonconstant else ""
    print(f"{row.epsilon:>7.3f} {row.n_distinct:>9} {str(row.any_nonconstant):>11} "
          f"{row.n_failed:>14}{mark}")

print(f"\nempirical rigidity threshold (grid resolution): eps_hat = {result.eps_hat}")
print(f"largest sup norm over every solution found:     M_emp = {result.m_emp:.4f}")
suff = rigidity_threshold(result.m_emp, a, pair.mu1)
print(f"sufficient threshold K(M_emp)/mu1 = {suff:.4f} >= eps_hat, as the energy")
print("argument guarantees; the gap shows how far from sharp that bound is.")
