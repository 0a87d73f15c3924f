"""Known-answer tests of the benchmark's reference checker.

    PYTHONPATH=src python3 -m pytest -q bench/test_reference.py

A mirror-symmetric scenario has a closed-form answer: with c = psi - phi the
relay advantage both users share, the equilibrium is w = c/(3b) per user,
the bargaining solution w = c/(4b), and the bandwidth gain exactly 25%.
Deliberately wrong answers must each be flagged.
"""

import numpy as np
import pytest
from scipy.spatial import ConvexHull

import reference as ref

SYMMETRIC = """\
source_1 = 300.0, 200.0
dest_1 = 300.0, 600.0
source_2 = 400.0, 200.0
dest_2 = 400.0, 600.0
p1 = 0.1
p2 = 0.1
p_r = 0.08
sigma2 = 1e-13
alpha = 0.8
b = 1e-05
M = 80
omega = 1000000.0
"""
AXIS_RELAY = (350.0, 400.0)


@pytest.fixture(scope="module")
def symmetric():
    params = ref.parse_params(SYMMETRIC)
    terms = ref.link_terms(params, AXIS_RELAY)
    c = terms.c[0]
    assert terms.c[1] == c and 0.0 < c / (3.0 * params.b) < params.omega
    return params, terms, c


def test_symmetric_equilibrium_is_c_over_3b(symmetric):
    params, terms, c = symmetric
    w = c / (3.0 * params.b)
    assert ref.reference_ne(params, terms) == pytest.approx((w, w), rel=1e-12)
    assert ref.check_ne(params, terms, (w, w), ref.utilities(params, terms, w, w)) == []


def test_symmetric_bargain_is_c_over_4b_with_25_percent_gain(symmetric):
    params, terms, c = symmetric
    ne = (c / (3.0 * params.b),) * 2
    nbs = (c / (4.0 * params.b),) * 2
    product, w1, w2 = ref.reference_nbs(params, terms, ne)
    assert (w1, w2) == pytest.approx(nbs, rel=1e-6)
    u = ref.utilities(params, terms, *nbs)
    assert ref.classify_nbs(params, terms, ne, nbs, u) == []
    assert ref.bandwidth_gain(sum(ne), sum(nbs)) == pytest.approx(25.0, rel=1e-12)


def test_program_matches_the_symmetric_answers(symmetric, tmp_path):
    bandgame = pytest.importorskip("bandgame")
    from bandgame.cli import parse_scenario
    params, terms, c = symmetric
    path = tmp_path / "symmetric.cfg"
    path.write_text(SYMMETRIC)
    ctx = bandgame.make_context(parse_scenario(path), bandgame.Point(*AXIS_RELAY))
    nbs = bandgame.cg_nbs(ctx)
    ne_w = (ctx.ne_alloc.w1, ctx.ne_alloc.w2)
    nbs_w = (nbs.allocation.w1, nbs.allocation.w2)
    assert ne_w == pytest.approx((c / (3.0 * params.b),) * 2, rel=1e-9)
    assert nbs_w == pytest.approx((c / (4.0 * params.b),) * 2, rel=1e-6)
    assert ref.check_ne(params, terms, ne_w, (ctx.threat.u1, ctx.threat.u2)) == []
    assert ref.classify_nbs(params, terms, ne_w, nbs_w,
                            (nbs.utilities.u1, nbs.utilities.u2)) == []


def test_perturbed_equilibrium_is_flagged(symmetric):
    params, terms, c = symmetric
    w = c / (3.0 * params.b)
    for bad in ((w * (1 + 1e-3), w), (w, w - 1.0), (0.0, w)):
        u = ref.utilities(params, terms, *bad)
        assert "ne-deviation" in ref.check_ne(params, terms, bad, u)


def test_wrong_bargains_are_flagged(symmetric):
    params, terms, c = symmetric
    b = params.b
    ne = (c / (3.0 * b),) * 2

    def reasons(w):
        return ref.classify_nbs(params, terms, ne, w, ref.utilities(params, terms, *w))

    below = (ne[0] * 1.05, ne[1] * 1.05)           # both rent more: both lose
    assert reasons(below) == ["dominance"]
    assert reasons(ne) == ["missed-bargain"]      # equilibrium where a bargain exists
    halfway = (c / (3.3 * b),) * 2                 # dominates, far below the optimum
    assert reasons(halfway) == ["short-bargain"]
    u = ref.utilities(params, terms, *ne)
    assert "value" in ref.check_ne(params, terms, ne, (u[0] * (1 + 1e-6), u[1]))


def test_degenerate_relay_and_concavity_flags():
    params = ref.parse_params(SYMMETRIC)
    assert ref.is_degenerate(params, (300.0, 200.0))
    assert not ref.is_degenerate(params, AXIS_RELAY)
    assert ref.check_concavity_row(-2.0, -1.0, True) == []
    assert ref.check_concavity_row(-1.0, -2.0, True) == ["concavity"]
    assert ref.check_concavity_row(-2.0, 1.0, True) == ["concavity"]
    hess = np.array([[-2.0, 0.5], [0.5, -1.0]])
    lam = np.linalg.eigvalsh(hess)
    assert ref.check_eigenvalues(hess, lam[0], lam[1], True) == []
    assert ref.check_eigenvalues(hess, lam[0], lam[1] + 0.1, True) == ["value"]


def _region(params, terms, n=41):
    axis = np.linspace(0.0, params.omega, n)
    w1, w2 = np.repeat(axis, n), np.tile(axis, n)
    return np.column_stack(ref.utilities(params, terms, w1, w2))


def _pareto(u, hull):
    return [i for i in hull
            if not (((u[:, 0] >= u[i, 0]) & (u[:, 1] >= u[i, 1])
                     & ((u[:, 0] > u[i, 0]) | (u[:, 1] > u[i, 1]))).any())]


def test_region_hull_checks(symmetric):
    params, terms, _ = symmetric
    u = _region(params, terms)
    hull = [int(i) for i in ConvexHull(u).vertices]  # counter-clockwise in 2-D
    pareto = _pareto(u, hull)
    assert pareto and ref.check_region(u, hull, pareto) == []
    assert ref.check_region(u, ref.ccw_order(u, hull), pareto) == []
    removed = hull[:3] + hull[4:]
    assert ref.check_region(u, removed, [p for p in pareto if p in removed]) == ["hull"]
    assert ref.check_region(u, hull[::-1], pareto) == ["hull"]          # clockwise
    inner = int(np.argmin(np.hypot(*(u - u.mean(axis=0)).T)))
    assert ref.check_region(u, ref.ccw_order(u, hull + [inner]), pareto) == ["hull"]
    dominated = next(i for i in hull if i not in pareto)
    assert ref.check_region(u, hull, pareto + [dominated]) == ["hull"]


def test_program_region_passes(symmetric, tmp_path):
    bandgame = pytest.importorskip("bandgame")
    from bandgame.cli import parse_scenario
    params, terms, _ = symmetric
    path = tmp_path / "symmetric.cfg"
    path.write_text(SYMMETRIC)
    ctx = bandgame.make_context(parse_scenario(path), bandgame.Point(*AXIS_RELAY))
    sample = bandgame.sample_utility_region(ctx, resolution=61)
    assert np.abs(sample.utilities - _region(params, terms, 61)).max() <= \
        ref.VALUE_REL_TOL * ref.utility_scale(params, terms)
    assert ref.check_region(sample.utilities, sample.hull_indices, sample.pareto_indices) == []


def test_dense_program_hull_missing_one_vertex_is_flagged():
    bandgame = pytest.importorskip("bandgame")
    from bandgame.cli import load_paper_scenario
    ctx = bandgame.make_context(load_paper_scenario(), bandgame.Point(450.0, 450.0))
    sample = bandgame.sample_utility_region(ctx, resolution=201)
    u, hull, pareto = sample.utilities, list(sample.hull_indices), list(sample.pareto_indices)
    assert len(hull) > 100 and ref.check_region(u, hull, pareto) == []
    # Distance of each vertex beyond the chord of its two neighbours. A few
    # vertices sit within rounding of that chord: dropping one of those
    # changes nothing, so the test drops clearly convex ones.
    poly = u[hull]
    a, b = np.roll(poly, 1, axis=0), np.roll(poly, -1, axis=0)
    e = b - a
    beyond = (e[:, 1] * (poly[:, 0] - a[:, 0]) - e[:, 0] * (poly[:, 1] - a[:, 1])) \
        / np.hypot(e[:, 0], e[:, 1])
    salient = np.flatnonzero(beyond > 1e-9 * np.abs(u).max())
    assert len(salient) > len(hull) // 2
    for k in salient[[0, len(salient) // 3, len(salient) // 2, -1]]:
        removed = hull[:k] + hull[k + 1:]
        kept = [p for p in pareto if p in removed]
        assert ref.check_region(u, removed, kept) == ["hull"]
