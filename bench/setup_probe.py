"""Time the program's set-up: import bandgame and parse a workload's scenarios.

    python3 bench/setup_probe.py <src-dir> <scenario-file>...

prints the seconds it took. It imports nothing else first, so the time
includes the numpy import that ``import bandgame`` pulls in.
"""

import sys
import time


def load_scenarios(scenario_files):
    """Parse scenario files with the package's own parser (the set-up path)."""
    from bandgame import cli
    return [cli.parse_scenario(path) for path in scenario_files]


if __name__ == "__main__":
    sys.path.insert(0, sys.argv[1])
    start = time.perf_counter()
    load_scenarios(sys.argv[2:])
    print(repr(time.perf_counter() - start))
