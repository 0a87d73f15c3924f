import math
from dataclasses import replace

import numpy as np
import pytest

from bandgame import (BandAllocation, Point, SweepGrid, UtilityPair,
                      bandwidth_gain, concavity_map, eigenvalues, exact_nbs,
                      hessian, is_strictly_concave_at, make_context,
                      nash_equilibrium, social_welfare_gain, sweep)
from bandgame.cli import sweep_csv
from conftest import RELAY_450, random_scenario


def test_bandwidth_gain_values():
    assert bandwidth_gain(3e5, 3e5) == 0.0
    assert bandwidth_gain(0.0, 0.0) == 0.0
    assert bandwidth_gain(4e5, 3e5) == pytest.approx(25.0, rel=1e-12)


def test_social_welfare_gain_values():
    assert social_welfare_gain(UtilityPair(3.0, 7.0), UtilityPair(3.0, 7.0)) == 0.0
    assert social_welfare_gain(UtilityPair(4.0, 6.0), UtilityPair(5.0, 6.1)) == pytest.approx(11.0, rel=1e-12)
    assert math.isnan(social_welfare_gain(UtilityPair(-1.0, 0.5), UtilityPair(1.0, 1.0)))


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        SweepGrid(step=0.0)
    with pytest.raises(ValueError):
        SweepGrid(step=10.0, x_min=5.0, x_max=5.0)
    grid = SweepGrid(step=50.0)
    assert len(grid.positions()) == 225  # 15 x 15 over [0, 700]^2
    corner = SweepGrid(step=700.0)
    assert [(p.x, p.y) for p in corner.positions()] == [
        (0.0, 0.0), (0.0, 700.0), (700.0, 0.0), (700.0, 700.0)]


def single_position_grid(p: Point) -> SweepGrid:
    return SweepGrid(step=1.0, x_min=p.x, x_max=p.x + 0.5,
                     y_min=p.y, y_max=p.y + 0.5)


def test_sweep_single_position_composes(paper):
    records = sweep(paper, single_position_grid(RELAY_450))
    assert len(records) == 1
    r = records[0]
    assert r.failure is None

    ctx = make_context(paper, RELAY_450)
    ne = nash_equilibrium(ctx.terms, paper)
    nbs = exact_nbs(ctx)
    assert r.ne.allocation == ne.allocation
    assert r.ne.utilities == ne.utilities
    assert r.nbs.allocation == nbs.allocation
    assert r.gain_bw_u1_pct == bandwidth_gain(ne.allocation.w1, nbs.allocation.w1)
    assert r.gain_bw_total_pct == bandwidth_gain(
        ne.allocation.w1 + ne.allocation.w2, nbs.allocation.w1 + nbs.allocation.w2)
    assert r.gain_sw_pct == social_welfare_gain(ne.utilities, nbs.utilities)
    eig = eigenvalues(hessian(nbs.allocation, ctx))
    assert (r.lambda1, r.lambda2) == (eig.lambda1, eig.lambda2)
    assert r.strictly_concave == (eig.lambda2 < 0.0)
    assert r.converged


def test_sweep_useless_relay(paper):
    # At 1e100 m, d**4 overflows: the relay links get the limit gain of zero.
    far = SweepGrid(step=1e100, x_min=1e100, x_max=1.5e100, y_min=0.0, y_max=0.5)
    for grid in (single_position_grid(Point(1e6, 1e6)), far):
        records = sweep(paper, grid)
        assert len(records) == 1
        r = records[0]
        assert r.failure is None
        assert r.ne.allocation == BandAllocation(0.0, 0.0)
        assert r.nbs.allocation == BandAllocation(0.0, 0.0)
        assert (r.gain_bw_u1_pct, r.gain_bw_u2_pct, r.gain_bw_total_pct) == (0.0, 0.0, 0.0)
        assert r.gain_sw_pct == 0.0


def test_sweep_degenerate_position_recorded(paper):
    # A relay on a node, and one so close to a node that d**4 underflows.
    at_origin = replace(paper, source_1=Point(0.0, 0.0))
    for scenario, relay in ((paper, paper.source_1), (at_origin, Point(1e-90, 0.0))):
        records = sweep(scenario, single_position_grid(relay))
        r = records[0]
        assert r.failure is not None
        assert not r.converged
        assert math.isnan(r.lambda1) and math.isnan(r.lambda2)
        assert r.gain_bw_total_pct == 0.0 and r.gain_sw_pct == 0.0
        assert not r.strictly_concave


def test_sweep_deterministic(paper):
    grid = SweepGrid(step=175.0)
    a = sweep_csv(sweep(paper, grid))
    b = sweep_csv(sweep(paper, grid))
    assert a == b


def test_sweep_records_sorted_and_flagged(paper):
    records = sweep(paper, SweepGrid(step=175.0))
    pos = [(r.relay.x, r.relay.y) for r in records]
    assert pos == sorted(pos)


def test_sweep_invariants(paper):
    records = sweep(paper, SweepGrid(step=100.0))
    for r in records:
        if r.failure is not None:
            continue
        if r.converged:
            for i in (1, 2):
                ne_u, nbs_u = r.ne.utilities.u(i), r.nbs.utilities.u(i)
                assert nbs_u >= ne_u - 1e-12 * abs(ne_u)
        if r.strictly_concave:
            assert r.gain_sw_pct >= -1e-9


def test_concavity_map_composes(paper):
    records = concavity_map(paper, single_position_grid(RELAY_450))
    assert len(records) == 1
    r = records[0]
    ctx = make_context(paper, RELAY_450)
    nbs = exact_nbs(ctx).allocation
    assert r.strictly_concave == is_strictly_concave_at(nbs, ctx)
    eig = eigenvalues(hessian(nbs, ctx))
    assert (r.lambda1, r.lambda2) == (eig.lambda1, eig.lambda2)


def test_concavity_map_agrees_with_sweep(paper):
    conc = concavity_map(paper, SweepGrid(step=100.0))
    fine = {(r.relay.x, r.relay.y): r for r in sweep(paper, SweepGrid(step=50.0))}
    assert len(conc) == 64
    for r in conc:
        s = fine[(r.relay.x, r.relay.y)]
        assert r.strictly_concave == s.strictly_concave
        if r.failure is None:
            assert (r.lambda1, r.lambda2) == (s.lambda1, s.lambda2)
        else:
            assert s.failure is not None
            assert math.isnan(r.lambda1) and math.isnan(s.lambda1)


def test_concavity_map_zero_pricing():
    rng = np.random.default_rng(31)
    scenario = replace(random_scenario(rng), b=0.0)
    grid = SweepGrid(step=350.0)
    records = concavity_map(scenario, grid)
    assert len(records) == 9
    clean = [r for r in records if r.failure is None]
    assert clean, "every position failed, nothing was actually checked"
    for r in clean:
        assert not r.strictly_concave


def test_concavity_map_degenerate_position(paper):
    records = concavity_map(paper, single_position_grid(paper.source_1))
    assert records[0].failure is not None
    assert math.isnan(records[0].lambda1)
    assert not records[0].strictly_concave
