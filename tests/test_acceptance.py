"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy artifacts (the 25 m sweep) are session fixtures shared between
criteria. Random draws are seeded so every run checks identical sites.
"""

import math

import numpy as np
import pytest

from bandgame import (BandAllocation, Point, SweepGrid, cg_nbs,
                      concavity_map, eigenvalues, grid_oracle_nbs, hessian,
                      is_strictly_concave_at, link_budget, make_context,
                      marginal_terms, max_nash_product_on_pareto,
                      nash_equilibrium, nash_product, nash_product_gradient,
                      best_response_iteration, sample_utility_region, sweep,
                      utility_pair)
from bandgame.game import MarginalTerms, utility_value
from conftest import RELAY_450, random_relay, random_scenario, rows

WINDOW = (400.0, 550.0)


def _report(name: str, ok: bool, detail: str):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="session")
def sweep_25m(paper):
    return rows(sweep(paper, SweepGrid(step=25.0)))


@pytest.fixture(scope="session")
def ctx450(paper):
    return make_context(paper, RELAY_450)


def _criterion3_sites(paper):
    """The 20 seeded relay positions plus solver outputs used by criteria 3 and 6."""
    rng = np.random.default_rng(20250808)
    sites = []
    while len(sites) < 20:
        relay = Point(*(float(v) for v in rng.uniform(0.0, 700.0, 2)))
        try:
            ctx = make_context(paper, relay)
        except ValueError:
            continue
        sites.append((relay, ctx, cg_nbs(ctx, mode="joint"), grid_oracle_nbs(ctx, 401)))
    return sites


def _criterion4_sites(n_scenarios=10, n_points=10):
    """Seeded (ctx, allocation) pairs used by criteria 4 and 6."""
    rng = np.random.default_rng(777)
    sites = []
    made = 0
    while made < n_scenarios:
        scenario = random_scenario(rng)
        relay = random_relay(rng, scenario)
        try:
            ctx = make_context(scenario, relay)
        except ValueError:
            continue
        made += 1
        for _ in range(n_points):
            alloc = BandAllocation(*(rng.uniform(0.05, 0.95, 2) * scenario.omega))
            sites.append((ctx, alloc))
    return sites


def test_criterion_1_gain_windows(sweep_25m):
    clean = [r for r in sweep_25m if r.failure is None]
    window = [r for r in clean
              if WINDOW[0] <= r.xr <= WINDOW[1]
              and WINDOW[0] <= r.yr <= WINDOW[1]]
    max_bw = max(r.gain_bw_total_pct for r in window)
    max_sw = max(r.gain_sw_pct for r in window)
    detail = (f"max total-bandwidth gain {max_bw:.2f}% in [15,30], "
              f"max welfare gain {max_sw:.2f}% in [8,15], "
              f"{len(clean)}/{len(sweep_25m)} positions solved")
    _report("criterion-1 gain-windows",
            15.0 <= max_bw <= 30.0 and 8.0 <= max_sw <= 15.0, detail)


def test_criterion_2_concavity_region(paper):
    records = rows(concavity_map(paper, SweepGrid(step=50.0)))
    concave = [r for r in records if r.strictly_concave]
    in_window = [r for r in concave
                 if WINDOW[0] <= r.xr <= WINDOW[1]
                 and WINDOW[0] <= r.yr <= WINDOW[1]]
    detail = (f"{len(concave)} strictly concave positions, "
              f"{len(in_window)} inside [400,550]^2")
    _report("criterion-2 concavity-region", len(concave) > 0 and len(in_window) > 0, detail)


def test_criterion_3_oracle_equivalence(paper):
    # Allocation match is asserted at two oracle cells: the dominance
    # constraint can leave no qualifying grid point inside the cell that
    # holds the continuum optimum (see the decisions ledger). The value
    # check is one-sided: CG may never be worse than brute force.
    cell = paper.omega / 400.0
    checked = 0
    worst_dw = 0.0
    worst_gap = 0.0
    for relay, ctx, cg, oracle in _criterion3_sites(paper):
        u = utility_pair(oracle.allocation, ctx.terms, ctx.scenario)
        assert (u.u1, u.u2) == (oracle.utilities.u1, oracle.utilities.u2)
        if not is_strictly_concave_at(oracle.allocation, ctx):
            continue
        checked += 1
        dw = max(abs(cg.allocation.w1 - oracle.allocation.w1),
                 abs(cg.allocation.w2 - oracle.allocation.w2))
        pi_cg = nash_product(cg.allocation, ctx)
        pi_or = nash_product(oracle.allocation, ctx)
        worst_dw = max(worst_dw, dw / cell)
        gap = (pi_or - pi_cg) / max(abs(pi_or), 1e-300)
        worst_gap = max(worst_gap, gap)
        assert cg.converged, f"cg did not converge at ({relay.x:.1f},{relay.y:.1f})"
        assert dw <= 2.0 * cell * (1 + 1e-9), \
            f"allocation {dw:.1f} Hz from oracle at ({relay.x:.1f},{relay.y:.1f})"
        assert pi_cg >= pi_or - 1e-6 * abs(pi_or) - 1e-12, \
            f"cg product below oracle at ({relay.x:.1f},{relay.y:.1f})"
    detail = (f"{checked}/20 positions strictly concave at the oracle point; "
              f"worst allocation offset {worst_dw:.2f} cells, "
              f"worst one-sided value gap {worst_gap:.2e}")
    _report("criterion-3 oracle-equivalence", checked > 0, detail)


def test_criterion_4_derivative_correctness():
    worst_g = 0.0
    worst_h = 0.0
    for ctx, alloc in _criterion4_sites():
        omega = ctx.scenario.omega
        w = np.array([alloc.w1, alloc.w2])

        def pi(v):
            return nash_product(BandAllocation(*v), ctx)

        hg = 1e-5 * omega
        fd_g = np.array([
            (pi(w + [hg, 0.0]) - pi(w - [hg, 0.0])) / (2 * hg),
            (pi(w + [0.0, hg]) - pi(w - [0.0, hg])) / (2 * hg)])
        an_g = np.array(nash_product_gradient(alloc, ctx))
        rel_g = np.linalg.norm(an_g - fd_g) / (np.linalg.norm(fd_g) + 1e-300)
        worst_g = max(worst_g, rel_g)
        assert rel_g <= 1e-5

        hh = 1e-4 * omega
        fd_h = np.array([
            [(pi(w + [hh, 0]) - 2 * pi(w) + pi(w - [hh, 0])) / hh**2,
             (pi(w + [hh, hh]) - pi(w + [hh, -hh]) - pi(w - [hh, -hh])
              + pi(w - [hh, hh])) / (4 * hh**2)],
            [0.0, (pi(w + [0, hh]) - 2 * pi(w) + pi(w - [0, hh])) / hh**2]])
        fd_h[1, 0] = fd_h[0, 1]
        an = hessian(alloc, ctx)
        an_h = np.ldexp([[an.a11, an.a12], [an.a12, an.a22]], an.exponent)
        rel_h = np.linalg.norm(an_h - fd_h) / (np.linalg.norm(fd_h) + 1e-300)
        worst_h = max(worst_h, rel_h)
        assert rel_h <= 1e-4
    detail = (f"100 interior points over 10 scenarios; worst gradient rel err "
              f"{worst_g:.2e} <= 1e-5, worst hessian rel err {worst_h:.2e} <= 1e-4")
    _report("criterion-4 derivative-correctness", True, detail)


def test_criterion_5_nash_equilibrium_correctness():
    rng = np.random.default_rng(555)
    worst_gap = 0.0
    deviation_violations = 0
    for k in range(1000):
        scenario = random_scenario(rng)
        if k % 2 == 0:
            relay = random_relay(rng, scenario)
            terms = marginal_terms(link_budget(scenario, relay), scenario)
        else:
            terms = MarginalTerms(*(float(v) for v in rng.uniform(0.0, 8.0, 4)))
        report = nash_equilibrium(terms, scenario)
        iterated, _, _, ok = best_response_iteration(terms, scenario)
        assert ok
        gap = max(abs(report.allocation.w1 - iterated.w1),
                  abs(report.allocation.w2 - iterated.w2)) / scenario.omega
        worst_gap = max(worst_gap, gap)
        assert gap <= 1e-6

        ne = report.allocation
        for i in (1, 2):
            base = report.utilities.u(i)
            devs = rng.uniform(0.0, scenario.omega, 100)
            own, other = (devs, ne.w2) if i == 1 else (devs, ne.w1)
            u_dev = utility_value(terms.phi(i), terms.psi(i), own, other,
                                  scenario.omega, scenario.b)
            tol = 1e-12 * max(1.0, abs(base))
            deviation_violations += int(np.sum(u_dev > base + tol))
    detail = (f"1000 scenarios; worst closed-form vs iteration gap "
              f"{worst_gap:.2e} * omega <= 1e-6; "
              f"{deviation_violations} profitable deviations out of 200000")
    _report("criterion-5 nash-equilibrium", deviation_violations == 0, detail)


def test_criterion_6_invariant_suite(paper, sweep_25m, ctx450):
    # threat point is a critical point with zero product, for every scenario
    rng = np.random.default_rng(666)
    contexts = [ctx450]
    while len(contexts) < 21:
        scenario = random_scenario(rng)
        try:
            contexts.append(make_context(scenario, random_relay(rng, scenario)))
        except ValueError:
            continue
    for ctx in contexts:
        assert nash_product(ctx.ne_alloc, ctx) == 0.0
        assert nash_product_gradient(ctx.ne_alloc, ctx) == (0.0, 0.0)

    # real eigenvalues with non-negative discriminant at every Hessian site
    # touched by criteria 1-4 (sweep NBS points, oracle points, random sites)
    n_hessians = 0
    for r in sweep_25m:
        if r.failure is not None:
            continue
        ctx = make_context(paper, Point(r.xr, r.yr))
        eig = eigenvalues(hessian(r.nbs, ctx))
        assert eig.delta >= 0.0
        assert math.isfinite(eig.lambda1) and math.isfinite(eig.lambda2)
        assert (eig.lambda1, eig.lambda2) == (r.lambda1, r.lambda2)
        n_hessians += 1
    for _, ctx, cg, oracle in _criterion3_sites(paper):
        for alloc in (cg.allocation, oracle.allocation):
            eig = eigenvalues(hessian(alloc, ctx))
            assert eig.delta >= 0.0 and math.isfinite(eig.lambda1)
            n_hessians += 1
    for ctx, alloc in _criterion4_sites():
        eig = eigenvalues(hessian(alloc, ctx))
        assert eig.delta >= 0.0 and math.isfinite(eig.lambda1)
        n_hessians += 1

    # bargaining never hands a player less than the threat point
    dominated = 0
    for r in sweep_25m:
        if r.failure is None:
            for i in (1, 2):
                ne_u, nbs_u = r.ne_u.u(i), r.nbs_u.u(i)
                assert nbs_u >= ne_u - 1e-12 * abs(ne_u)
            dominated += 1

    # grid-oracle argmax is invariant to positive utility rescalings
    base = grid_oracle_nbs(ctx450, 401)
    for _ in range(10):
        scale = tuple(10.0 ** rng.uniform(-3.0, 3.0, 2))
        scaled = grid_oracle_nbs(ctx450, 401, utility_scale=scale)
        assert scaled.allocation == base.allocation

    detail = (f"threat-point critical on {len(contexts)} contexts; "
              f"{n_hessians} Hessians real with delta >= 0; "
              f"dominance on {dominated} converged records; "
              f"argmax invariant under 10 rescalings")
    _report("criterion-6 invariant-suite", True, detail)


def test_criterion_7_region_sanity(ctx450):
    sample = sample_utility_region(ctx450, resolution=401)
    hull_pts = sample.utilities[sample.hull_indices]
    scale = float(np.abs(sample.utilities).max())
    tol = 1e-7 * scale * scale

    ok = np.ones(len(sample.utilities), dtype=bool)
    for a, b in zip(hull_pts, np.roll(hull_pts, -1, axis=0)):
        cross = ((b[0] - a[0]) * (sample.utilities[:, 1] - a[1])
                 - (b[1] - a[1]) * (sample.utilities[:, 0] - a[0]))
        ok &= cross >= -tol
    inside = int(ok.sum())
    assert inside == len(sample.utilities)

    ne_pt = np.array([ctx450.threat.u1, ctx450.threat.u2])
    ne_inside = True
    for a, b in zip(hull_pts, np.roll(hull_pts, -1, axis=0)):
        cross = ((b[0] - a[0]) * (ne_pt[1] - a[1])
                 - (b[1] - a[1]) * (ne_pt[0] - a[0]))
        ne_inside &= bool(cross >= -tol)
    assert ne_inside

    best = max_nash_product_on_pareto(sample, ctx450.threat)
    hull_val = (best.u1 - ctx450.threat.u1) * (best.u2 - ctx450.threat.u2)
    oracle = grid_oracle_nbs(ctx450, 401)
    pure_val = nash_product(oracle.allocation, ctx450)
    assert hull_val >= pure_val - 1e-9 * abs(pure_val)
    detail = (f"{inside}/{len(sample.utilities)} samples inside hull, threat "
              f"point inside, hull optimum {hull_val:.6e} >= pure optimum "
              f"{pure_val:.6e} (mu = {best.mu:.3f})")
    _report("criterion-7 region-sanity", True, detail)
