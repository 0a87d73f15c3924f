"""Check a sweep of the bundled scenario, or of a seeded random one, row by
row against the bench's independent reference.

    python3 tests/check_sweep_reference.py [--step 10] [--random-seed N]

Writes the sweep CSV with ``bandgame sweep`` (default step 10 m: 71 x 71 =
5,041 relay positions over [0, 700]^2), then checks every row with the row
check of the ``maps-paper`` bench workload (``bench/workloads.py``), which
tests the equilibrium, the bargaining solution, the gains and the Hessian
eigenvalues against ``bench/reference.py`` (numpy and scipy only, nothing
from ``bandgame``). At every row it also builds the single-position context
with ``make_context``, which is computed on floats, not by the sweep's
batch: its equilibrium allocation and threat utilities must equal the
row's cells bit for bit (``%.17e`` cells round-trip), and at a failure row
it must raise the batch's failure (``make_context_batch``, which the sweep
calls), of the same type with the same message.
Prints the failing rows with their reasons and exits 1 if there is one. On
a 2-CPU Xeon machine the 10 m grid takes about 14 s for the bundled
scenario and 7 to 13 s for random seeds 1 to 3.

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

from bandgame import Point, SweepGrid, make_context  # noqa: E402
from bandgame.bargaining import make_context_batch  # noqa: E402
from bandgame.cli import main, paper_scenario_path, parse_scenario  # noqa: E402


def context_reasons(scenario, relay, cells, failure) -> list:
    """``make_context`` at one row's relay against the row: its equilibrium
    allocation and threat utilities against the row's cells, bit for bit, or
    its error against the sweep's ``failure`` there (the batch's error,
    None where the position is solved)."""
    try:
        ctx = make_context(scenario, Point(*relay))
    except (ValueError, RuntimeError) as exc:
        same = type(exc) is type(failure) and str(exc) == str(failure)
        return [] if same else ["context-failure"]
    if failure is not None:
        return ["context-failure"]
    got = (ctx.ne_alloc.w1, ctx.ne_alloc.w2, ctx.threat.u1, ctx.threat.u2)
    want = tuple(float(cells[k]) for k in (2, 3, 6, 7))
    return [] if [x.hex() for x in got] == [x.hex() for x in want] else ["context"]


def check(step: float, seed=None) -> int:
    relays = [(x, y) for x in grid_axis(step) for y in grid_axis(step)]
    with tempfile.TemporaryDirectory() as work:
        scenario = paper_scenario_path()
        if seed is not None:
            scenario = Path(work) / f"random-{seed}.cfg"
            scenario.write_text(_random_scenario_text(np.random.default_rng(seed)))
        params = reference.parse_params(scenario.read_text())
        model = parse_scenario(scenario)
        out = Path(work) / "sweep.csv"
        if main(["sweep", "--scenario", str(scenario), "--step", repr(step),
                 "--out", str(out)]) != 0:
            print("sweep failed")
            return 1
        rows = _csv_rows(out)
    _, failures = make_context_batch(model, *SweepGrid(step=step).positions())
    if not len(rows) == len(failures) == len(relays):
        print(f"{len(rows)} rows and {len(failures)} records for {len(relays)} relay positions")
        return 1
    failed = 0
    for relay, cells, failure in zip(relays, rows, failures):
        if (_num(cells[0]), _num(cells[1])) != relay:
            reasons = ["position"]
        else:
            reasons = MapsPaper._sweep_row(reference, params, relay, cells)
            reasons += context_reasons(model, relay, cells, failure)
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
