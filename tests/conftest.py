import numpy as np
import pytest

from bandgame import Point, Scenario
from bandgame.cli import load_paper_scenario
from bandgame.system_model import select

RELAY_450 = Point(450.0, 450.0)


@pytest.fixture(scope="session")
def paper():
    return load_paper_scenario()


def rows(records):
    """The record of each position of a sweep, with floats."""
    return [select(records, k) for k in range(len(records.xr))]


def random_scenario(rng):
    """A valid random scenario with non-degenerate geometry."""
    while True:
        coords = rng.uniform(0.0, 700.0, size=(4, 2))
        pts = [Point(float(x), float(y)) for x, y in coords]
        pairs = [(0, 1), (2, 3)]  # only source->dest separations matter here
        if all(np.hypot(pts[a].x - pts[b].x, pts[a].y - pts[b].y) > 5.0
               for a, b in pairs):
            break
    return Scenario(
        source_1=pts[0], dest_1=pts[1], source_2=pts[2], dest_2=pts[3],
        p1=float(rng.uniform(0.05, 0.2)),
        p2=float(rng.uniform(0.05, 0.2)),
        p_r=float(rng.uniform(0.04, 0.15)),
        sigma2=float(10.0 ** rng.uniform(-13.5, -12.5)),
        alpha=float(rng.uniform(0.4, 1.2)),
        b=float(10.0 ** rng.uniform(-6.0, -4.0)),
        M=int(rng.integers(20, 121)),
        omega=float(rng.choice([5e5, 1e6, 2e6])),
    )


def random_relay(rng, scenario, min_sep=1.0):
    """A relay position at least min_sep away from every node."""
    nodes = [scenario.source_1, scenario.dest_1, scenario.source_2, scenario.dest_2]
    while True:
        x, y = rng.uniform(0.0, 700.0, size=2)
        if all(np.hypot(x - n.x, y - n.y) >= min_sep for n in nodes):
            return Point(float(x), float(y))
