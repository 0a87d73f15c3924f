"""Relay placement maps: where does bargaining beat the selfish outcome?

Sweeps a coarse grid of relay positions and prints the total-bandwidth gain
and welfare gain maps, plus where the bargaining objective is certifiably
strictly concave. Finer maps come from the CLI:

    bandgame sweep --scenario <file> --step 25 --out sweep.csv
"""

from bandgame import SweepGrid, sweep
from bandgame.cli import load_paper_scenario

scenario = load_paper_scenario()
grid = SweepGrid(step=100.0)
records = sweep(scenario, grid)

xs = sorted({r.relay.x for r in records})
ys = sorted({r.relay.y for r in records})
by_pos = {(r.relay.x, r.relay.y): r for r in records}


def print_map(title, cell):
    print(title)
    print("      " + "".join(f"x={x:<6.0f}" for x in xs))
    for y in reversed(ys):
        row = []
        for x in xs:
            r = by_pos[(x, y)]
            row.append("  --   " if r.failure else cell(r))
        print(f"y={y:<4.0f}" + "".join(row))
    print()


print_map("total bandwidth gain of bargaining over equilibrium (%):",
          lambda r: f"{r.gain_bw_total_pct:6.1f} ")
print_map("welfare gain (%):", lambda r: f"{r.gain_sw_pct:6.1f} ")
print_map("strictly concave product at the solution:",
          lambda r: "   *   " if r.strictly_concave else "   .   ")

clean = [r for r in records if r.failure is None]
best = max(clean, key=lambda r: r.gain_sw_pct)
print(f"best placement of this sweep by welfare: ({best.relay.x:.0f}, {best.relay.y:.0f}) "
      f"with {best.gain_sw_pct:.1f}% more welfare and "
      f"{best.gain_bw_total_pct:.1f}% less band")
