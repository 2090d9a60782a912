"""The third-order PDE of the two-time Airy log gap probability.

G(tau, E, W) = log det for intervals [E+W, inf), [E-W, inf) at times
(0, tau) satisfies a nonlinear third-order PDE.  The gradient of G
comes from one resolvent solve per point (the moment formulas), on a
3 x 3 (E, W) grid at the center tau; both sides of the PDE are central
differences of that gradient, so halving the step should shrink the
residual by about 4 (second-order differences).
"""

from gapdet import pdecheck

center = (1.0, 0.2, 0.1)
print(f"center (tau, E, W) = {center}")
print(f"{'h':>7} {'lhs':>15} {'rhs':>15} {'|residual|':>12} {'rel':>10}")
prev = None
for h in (0.08, 0.04, 0.02):
    grid = pdecheck.build_grid(center, step=h, m=120)
    r = pdecheck.avm_residual(grid)
    ratio = "" if prev is None else f"  (x{prev / r['relative_residual']:.2f})"
    print(f"{h:7.3f} {r['lhs']:15.8e} {r['rhs']:15.8e} "
          f"{r['residual']:12.3e} {r['relative_residual']:10.2e}{ratio}")
    prev = r["relative_residual"]
