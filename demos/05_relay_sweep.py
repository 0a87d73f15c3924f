"""Relay placement maps: where does bargaining beat the selfish outcome?

Sweeps a coarse grid of relay positions and prints the total-bandwidth gain
and welfare gain maps, plus where the bargaining objective is certifiably
strictly concave. Finer maps come from the CLI:

    bandgame sweep --scenario <file> --step 25 --out sweep.csv
"""

import numpy as np

from bandgame import SweepGrid, sweep
from bandgame.cli import load_paper_scenario

scenario = load_paper_scenario()
grid = SweepGrid(step=100.0)
records = sweep(scenario, grid)  # one record whose fields are arrays over the grid

xs = sorted(set(records.xr.tolist()))
ys = sorted(set(records.yr.tolist()))
index = {xy: k for k, xy in enumerate(zip(records.xr.tolist(), records.yr.tolist()))}


def print_map(title, cell):
    print(title)
    print("      " + "".join(f"x={x:<6.0f}" for x in xs))
    for y in reversed(ys):
        row = []
        for x in xs:
            k = index[(x, y)]
            row.append("  --   " if records.failure[k] else cell(k))
        print(f"y={y:<4.0f}" + "".join(row))
    print()


print_map("total bandwidth gain of bargaining over equilibrium (%):",
          lambda k: f"{records.gain_bw_total_pct[k]:6.1f} ")
print_map("welfare gain (%):", lambda k: f"{records.gain_sw_pct[k]:6.1f} ")
print_map("strictly concave product at the solution:",
          lambda k: "   *   " if records.strictly_concave[k] else "   .   ")

clean = np.flatnonzero(np.equal(records.failure, None))
best = clean[np.argmax(records.gain_sw_pct[clean])]
print(f"best placement of this sweep by welfare: ({records.xr[best]:.0f}, {records.yr[best]:.0f}) "
      f"with {records.gain_sw_pct[best]:.1f}% more welfare and "
      f"{records.gain_bw_total_pct[best]:.1f}% less band")
