"""The achievable utility region, its convex hull, and time-sharing.

Sampling every band split gives a cloud of utility pairs; the convex hull is
what coordinated time-sharing can reach, and its undominated north-east chain
is the Pareto boundary the bargaining solution lives on.
"""

from bandgame import (Point, grid_oracle_nbs, make_context,
                      max_nash_product_on_pareto, nash_product,
                      sample_utility_region)
from bandgame.cli import load_paper_scenario

scenario = load_paper_scenario()
ctx = make_context(scenario, Point(450.0, 450.0))
sample = sample_utility_region(ctx, resolution=101)

print(f"sampled {len(sample.utilities)} allocations "
      f"-> {len(sample.hull_indices)} hull vertices, "
      f"{len(sample.pareto_indices)} on the Pareto boundary")
print()
print("Pareto boundary (every 4th vertex):")
print(f"{'u1':>14s} {'u2':>14s} {'w1':>10s} {'w2':>10s}")
r = len(sample.axis)
for i in sample.pareto_indices[::4]:
    (u1, u2), (w1, w2) = sample.utilities[i], sample.axis[[i // r, i % r]]
    print(f"{u1:14.2f} {u2:14.2f} {w1:10.0f} {w2:10.0f}")
print()

best = max_nash_product_on_pareto(sample, ctx.threat)
value = (best.u1 - ctx.threat.u1) * (best.u2 - ctx.threat.u2)
print(f"best product on the hull: {value:.6e}")
print(f"  mixes ({best.alloc_a.w1:.0f}, {best.alloc_a.w2:.0f}) Hz "
      f"for a fraction {best.mu:.3f} of the time")
print(f"  with  ({best.alloc_b.w1:.0f}, {best.alloc_b.w2:.0f}) Hz otherwise")

oracle = grid_oracle_nbs(ctx, resolution=101)
pure = nash_product(oracle.allocation, ctx)
print(f"best pure-strategy product on the same grid: {pure:.6e}")
print(f"time-sharing can only help: {value:.6e} >= {pure:.6e}")
