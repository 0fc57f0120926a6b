"""Find steady states with the damped Newton solver and attach the check
report (integrability exponent q = 4) to each converged solution.

Three runs: two constant basins in the rigid regime, then a pattern below
the primary bifurcation value.
"""

import numpy as np

from neumann_rigidity import (
    assemble,
    attach_diagnostics,
    bifurcation_epsilon,
    build_rectangle_mesh,
    find_xi,
    first_eigenpair,
    multi_start,
    newton_solve,
)

a = 2.0
op = assemble(build_rectangle_mesh(32, 32, 1.0, 1.0))
pair = first_eigenpair(op)
xi = find_xi(a)
eps_star = bifurcation_epsilon(a, pair.mu1)


def show(rec, label):
    d = attach_diagnostics(rec, a, 4.0, op).diagnostics
    print(f"\n{label}: {rec.classification}, mean {rec.mean:.6f}, sup fluctuation "
          f"{rec.sup_fluct:.4f} after {rec.newton_iters} iterations "
          f"(residual {rec.residual_norm:.1e})")
    print(f"  zero average  |sum m f(u)| = {d.zero_avg_residual:.2e}")
    print(f"  L1 mass of f  {d.l1_norm_f:.6f} <= bound {d.l1_bound:.6f}")
    print(f"  mean          {d.mean_u:.6f} in [0, xi] = [0, {xi:.6f}]: {d.mean_in_bounds}")
    print(f"  energy        lhs {d.energy_lhs:.3e} vs rhs {d.energy_rhs:.3e}")
    print(f"  representation error {d.representation_error:.2e}")
    print(f"  exp integral  {d.exp_integral_q:.6f} (area {op.area:.1f})")


rec = newton_solve(np.full(op.n, 0.9 * xi), 1.0, a, op)
show(rec, "eps = 1.0, start 0.9*xi")

rec = newton_solve(np.full(op.n, -0.5), 1.0, a, op)
show(rec, "eps = 1.0, start -0.5")

eps = 0.9 * eps_star
x = op.mesh.nodes[:, 0]
rec = newton_solve(xi + 0.5 * np.cos(np.pi * x), eps, a, op)
show(rec, f"eps = 0.9*eps* = {eps:.4f}, start xi + 0.5 cos(pi x)")

print(f"\nmulti-start census at eps = {eps:.4f} (30 starts):")
result = multi_start(eps, a, op, 30, seed=0)
for r in result.distinct:
    print(f"  {r.classification:<11}  mean {r.mean:.6f}  sup {r.sup_fluct:.4f}")
print(f"  ({result.n_failed} of {len(result.runs)} starts failed to converge; "
      "rough noise starts often do below the bifurcation)")
