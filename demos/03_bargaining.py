"""Bargaining on top of the equilibrium threat point.

Maximizes the product of utility gains with the projected Polak-Ribiere
conjugate-gradient solver, reports its iterations, residual and notes,
certifies local strict concavity through the Hessian eigenvalues, and
cross-checks the result against the exact closed-form solver and the
brute-force grid oracle.
"""

from bandgame import (Point, cg_nbs, eigenvalues, exact_nbs, grid_oracle_nbs,
                      hessian, make_context, nash_product)
from bandgame.cli import load_paper_scenario

scenario = load_paper_scenario()
ctx = make_context(scenario, Point(450.0, 450.0))
print(f"threat point (equilibrium utilities): ({ctx.threat.u1:.2f}, {ctx.threat.u2:.2f})")
print(f"equilibrium bands: ({ctx.ne_alloc.w1:.1f}, {ctx.ne_alloc.w2:.1f}) Hz")
print()

report = cg_nbs(ctx)
print(f"conjugate gradient: {report.iterations} iterations, residual {report.residual:.3e}")
print(f"notes: {'; '.join(report.diagnostics) or 'none'}")
print(f"solution: w = ({report.allocation.w1:.2f}, {report.allocation.w2:.2f}) Hz, "
      f"converged={report.converged}")
print(f"utility gains over the threat point: "
      f"({report.utilities.u1 - ctx.threat.u1:.2f}, {report.utilities.u2 - ctx.threat.u2:.2f})")
print()

eig = eigenvalues(hessian(report.allocation, ctx))
print(f"hessian eigenvalues at the solution: ({eig.lambda1:.4f}, {eig.lambda2:.4f})"
      f" -> strictly concave: {eig.lambda2 < 0}")

exact = exact_nbs(ctx)
print(f"exact closed form: w = ({exact.allocation.w1:.2f}, {exact.allocation.w2:.2f}) Hz, "
      f"product {nash_product(exact.allocation, ctx):.6e}")

oracle = grid_oracle_nbs(ctx, resolution=401)
cell = scenario.omega / 400.0
print(f"grid oracle (401x401): w = ({oracle.allocation.w1:.1f}, {oracle.allocation.w2:.1f}) Hz")
print(f"offset: ({abs(report.allocation.w1 - oracle.allocation.w1):.1f}, "
      f"{abs(report.allocation.w2 - oracle.allocation.w2):.1f}) Hz vs cell {cell:.1f} Hz")
print(f"product value cg vs oracle: {nash_product(report.allocation, ctx):.6e} "
      f">= {nash_product(oracle.allocation, ctx):.6e}")
