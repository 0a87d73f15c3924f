"""Check a sweep of the bundled scenario, or of a seeded random one, row by
row against the bench's independent reference.

    python3 tests/check_sweep_reference.py [--step 10] [--random-seed N]

Writes the sweep CSV with ``bandgame sweep`` (default step 10 m: 71 x 71 =
5,041 relay positions over [0, 700]^2), then checks every row with the row
check of the ``maps-paper`` bench workload (``bench/workloads.py``), which
tests the equilibrium, the bargaining solution, the gains and the Hessian
eigenvalues against ``bench/reference.py`` (numpy and scipy only, nothing
from ``bandgame``). Prints the failing rows with their reasons and exits 1
if there is one. On a 2-CPU Xeon machine the 10 m grid takes about 14 s for
the bundled scenario and 7 to 13 s for random seeds 1 to 3.

With ``--random-seed N`` the scenario is the draw of the bench's
``_random_scenario_text`` (the tests' ``random_scenario`` distribution)
from ``numpy.random.default_rng(N)``, instead of the bundled one.
"""

import argparse
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import numpy as np  # noqa: E402
import reference  # noqa: E402
from workloads import (MapsPaper, _csv_rows, _num, _random_scenario_text,  # noqa: E402
                       grid_axis)

from bandgame.cli import main, paper_scenario_path  # noqa: E402


def check(step: float, seed=None) -> int:
    relays = [(x, y) for x in grid_axis(step) for y in grid_axis(step)]
    with tempfile.TemporaryDirectory() as work:
        scenario = paper_scenario_path()
        if seed is not None:
            scenario = Path(work) / f"random-{seed}.cfg"
            scenario.write_text(_random_scenario_text(np.random.default_rng(seed)))
        params = reference.parse_params(scenario.read_text())
        out = Path(work) / "sweep.csv"
        if main(["sweep", "--scenario", str(scenario), "--step", repr(step),
                 "--out", str(out)]) != 0:
            print("sweep failed")
            return 1
        rows = _csv_rows(out)
    if len(rows) != len(relays):
        print(f"{len(rows)} rows for {len(relays)} relay positions")
        return 1
    failed = 0
    for relay, cells in zip(relays, rows):
        if (_num(cells[0]), _num(cells[1])) != relay:
            reasons = ["position"]
        else:
            reasons = MapsPaper._sweep_row(reference, params, relay, cells)
        if reasons:
            failed += 1
            print(f"relay {relay}: {', '.join(reasons)}")
    print(f"{len(relays) - failed} of {len(relays)} rows agree with the reference")
    return 1 if failed else 0


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--step", type=float, default=10.0, help="grid step in m")
    parser.add_argument("--random-seed", type=int, default=None,
                        help="sweep the seeded random scenario draw instead of the bundled one")
    args = parser.parse_args()
    sys.exit(check(args.step, args.random_seed))
