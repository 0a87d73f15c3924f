"""Check the CSV writer's float cells against Python's ``'%.17e'``.

    python3 tests/check_csv_format.py --seed N

Puts the tier-1 formatter cases of ``tests/test_cli.py`` drawn from
``numpy.random.default_rng(N)`` (about 1.0 million doubles: random mantissas
over the whole exponent range, powers of ten and their neighbours, exact
rounding ties, zeros, NaN and infinities of both signs) through the CSV
writer and compares every cell with ``'%.17e' % x``. Then writes the
``bandgame region --resolution 401`` files of the bundled scenario at relays
(200, 125) and (450, 450), 160,801 rows each, and compares them cell by cell
with one ``'%.17e'`` per float cell and set membership for the flags. Prints
the first differing cells and exits 1 if there is one. On a 2-CPU Xeon
machine one seed takes about 3 s.
"""

import argparse
import io
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent
sys.path[:0] = [str(ROOT.parent / "src"), str(ROOT)]

import numpy as np  # noqa: E402
from test_cli import _float_cases, _reference_region_csv  # noqa: E402

from bandgame import Point, make_context, sample_utility_region  # noqa: E402
from bandgame.cli import _csv, load_paper_scenario, main, paper_scenario_path  # noqa: E402

RELAYS = ((200.0, 125.0), (450.0, 450.0))
RESOLUTION = 401


def _report(name: str, got: list, want: list) -> int:
    """Print the first rows where ``got`` and ``want`` differ; 1 if any."""
    bad = [(k, g, w) for k, (g, w) in enumerate(zip(got, want)) if g != w]
    if len(got) != len(want):
        bad.append((min(len(got), len(want)), f"{len(got)} lines", f"{len(want)} lines"))
    for k, g, w in bad[:5]:
        print(f"{name} line {k}: got {g!r}, want {w!r}")
    print(f"{name}: {len(want) - len(bad)} of {len(want)} lines agree")
    return 1 if bad else 0


def check(seed: int) -> int:
    values = _float_cases(np.random.default_rng(seed))
    out = io.BytesIO()
    _csv("x", [values], out)
    failed = _report(f"formatter cases, seed {seed}",
                     out.getvalue().decode("ascii").splitlines(keepends=True),
                     ["x\n", *("%.17e\n" % v for v in values.tolist())])
    scenario = load_paper_scenario()
    with tempfile.TemporaryDirectory() as work:
        for relay in RELAYS:
            path = Path(work) / "region.csv"
            if main(["region", "--scenario", str(paper_scenario_path()), "--relay",
                     "%r,%r" % relay, "--resolution", str(RESOLUTION), "--out", str(path)]) != 0:
                print(f"region at {relay} failed")
                return 1
            sample = sample_utility_region(make_context(scenario, Point(*relay)), RESOLUTION)
            want = _reference_region_csv(sample, scenario.omega, RESOLUTION)
            failed |= _report(f"region at {relay}", path.read_text().splitlines(keepends=True),
                              want.splitlines(keepends=True))
    return failed


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True, help="seed of the formatter cases")
    sys.exit(check(parser.parse_args().seed))
