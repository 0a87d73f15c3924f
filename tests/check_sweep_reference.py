"""Check a sweep of the bundled scenario, or of a seeded random one, row by
row against the bench's independent reference.

    python3 tests/check_sweep_reference.py [--step 10] [--random-seed N]

Writes the sweep CSV with ``bandgame sweep`` (default step 10 m: 71 x 71 =
5,041 relay positions over [0, 700]^2), then checks every row with the row
check of the ``maps-paper`` bench workload (``bench/workloads.py``), which
tests the equilibrium, the bargaining solution, the gains and the Hessian
eigenvalues against ``bench/reference.py`` (numpy and scipy only, nothing
from ``bandgame``). At every row it also runs the one-position entry points,
which run the sweep's functions on the position's floats where the sweep
runs them on arrays: ``link_budget`` must give the sweep's link budget at
that row (``link_budget_batch``, which the sweep calls) bit for bit;
``make_context`` (which shares its body with ``make_context_batch``: link
budget, marginal terms, ``nash_equilibrium``) an equilibrium allocation and
threat utilities equal to the row's cells bit for bit (``%.17e`` cells
round-trip); ``exact_nbs`` on that context the row's bargaining
allocation and utilities bit for bit, with the ``bargain`` flag of
``exact_nbs`` on the batch context; and ``eigenvalues(hessian(...))`` at
that allocation the row's eigenvalue cells bit for bit, with its
``negative_definite()`` the row's ``strictly_concave`` flag, so the float
and the array Hessian cannot drift apart. Where the batch records a failure,
each must raise it, of the same type with the same message
(``make_context_batch``'s for ``make_context``).
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

from bandgame import (Point, SweepGrid, eigenvalues, exact_nbs, hessian,  # noqa: E402
                      link_budget, make_context)
from bandgame.bargaining import make_context_batch  # noqa: E402
from bandgame.cli import main, paper_scenario_path, parse_scenario  # noqa: E402
from bandgame.system_model import link_budget_batch, select  # noqa: E402


def _hex(budget) -> list:
    return [getattr(user, name).hex() for user in (budget.user1, budget.user2)
            for name in user.__dataclass_fields__]


def _error(exc) -> tuple:
    return type(exc), str(exc)


def single_reasons(scenario, relay, cells, budget, budget_failure, failure, bargain) -> list:
    """``link_budget``, ``make_context``, ``exact_nbs`` and the Hessian's
    eigenvalues at one row's relay against the sweep: the budget against the
    batch's ``budget`` at that row; the context's equilibrium allocation and
    threat utilities, its bargaining allocation and utilities, and the
    eigenvalues there, against the row's cells, bit for bit, its ``bargain``
    flag against the batch's ``bargain`` there and its concavity against the
    row's flag; or
    each one's error against the batch's failure there (``budget_failure``
    from ``link_budget_batch``, ``failure`` from ``make_context_batch``;
    None where the position is solved)."""
    try:
        got = _hex(link_budget(scenario, Point(*relay)))
        want = _hex(budget) if budget_failure is None else None
    except (ValueError, RuntimeError) as exc:
        got, want = _error(exc), budget_failure and _error(budget_failure)
    reasons = [] if got == want else ["budget"]
    try:
        ctx = make_context(scenario, Point(*relay))
    except (ValueError, RuntimeError) as exc:
        return reasons if failure and _error(exc) == _error(failure) else reasons + ["context"]
    if failure is not None:
        return reasons + ["context"]
    got = [x.hex() for x in (ctx.ne_alloc.w1, ctx.ne_alloc.w2, ctx.threat.u1, ctx.threat.u2)]
    if got != [float(cells[k]).hex() for k in (2, 3, 6, 7)]:
        reasons.append("context")
    nbs = exact_nbs(ctx)
    got = [x.hex() for x in (nbs.allocation.w1, nbs.allocation.w2,
                             nbs.utilities.u1, nbs.utilities.u2)]
    if got != [float(cells[k]).hex() for k in (4, 5, 8, 9)] or nbs.bargain is not bargain:
        reasons.append("nbs")
    eig = eigenvalues(hessian(nbs.allocation, ctx))
    got = [float(eig.lambda1).hex(), float(eig.lambda2).hex(), bool(eig.negative_definite())]
    if got != [float(cells[14]).hex(), float(cells[15]).hex(), cells[16] == "true"]:
        reasons.append("eigenvalues")
    return reasons


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
    positions = SweepGrid(step=step).positions()
    ctx, failures = make_context_batch(model, *positions)
    bargains = exact_nbs(ctx).bargain.tolist()
    budgets, budget_failures = link_budget_batch(model, *positions)
    if not len(rows) == len(failures) == len(relays):
        print(f"{len(rows)} rows and {len(failures)} records for {len(relays)} relay positions")
        return 1
    failed = 0
    for k, (relay, cells, failure, bargain) in enumerate(zip(relays, rows, failures,
                                                             bargains)):
        if (_num(cells[0]), _num(cells[1])) != relay:
            reasons = ["position"]
        else:
            reasons = MapsPaper._sweep_row(reference, params, relay, cells)
            reasons += single_reasons(model, relay, cells, select(budgets, k),
                                      budget_failures[k], failure, bargain)
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
