import itertools
import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

import loop_reference
from bandgame import (BandAllocation, Hessian2x2, MarginalTerms,
                      NashProductContext, Point, SweepGrid, bandwidth_gain,
                      cg_minimize, cg_nbs, convex_hull_indices, eigenvalues,
                      exact_nbs, grid_oracle_nbs, hessian,
                      is_strictly_concave_at, make_context,
                      max_nash_product_on_pareto, nash_equilibrium,
                      nash_product, nash_product_gradient,
                      sample_utility_region, sweep, utility_pair,
                      utility_partial)
from bandgame import bargaining
from bandgame.bargaining import (NON_FINITE_NOTE, _interior_quartic, _pareto_chain,
                                 _quartic_roots, exact_nbs_batch, make_context_batch)
from bandgame.cli import main, paper_scenario_path
from conftest import RELAY_450, random_relay, random_scenario, rows
from test_acceptance import _criterion3_sites

PI_QUARTER = 128468211184.22597  # 50-digit value at alloc (omega/4, omega/4)
NBS_CONTINUUM = (111097.1332281624, 111106.24565861714)
PI_STAR = 752415308.27585719
# Relay positions of the 25 m paper sweep where no point of the 401 x 401
# oracle grid dominates the threat point, although a bargain with a positive
# Nash product exists: a grid search reports zero gain there.
MISSED_BARGAINS = (
    (75, 0), (75, 25), (75, 50), (100, 0), (100, 25), (100, 50), (100, 75),
    (125, 75), (125, 100), (150, 100), (150, 125), (175, 125), (175, 150),
    (250, 200), (300, 250), (325, 75), (325, 100), (325, 125), (325, 150),
    (325, 300), (350, 125), (350, 150), (350, 175), (350, 200), (375, 225),
    (425, 150), (425, 175), (425, 200), (450, 0), (450, 25), (450, 50),
    (475, 0), (550, 675), (550, 700))


@pytest.fixture(scope="module")
def ctx450(paper):
    return make_context(paper, RELAY_450)


def _seeded_contexts(seed):
    """Contexts of seeded random scenarios at random relays, skipping the
    draws whose geometry is degenerate."""
    rng = np.random.default_rng(seed)
    while True:
        scenario = random_scenario(rng)
        try:
            ctx = make_context(scenario, random_relay(rng, scenario))
        except ValueError:
            continue
        yield ctx


def test_make_context_holds_floats(paper):
    # One position's context is built on Python floats: numpy scalars in it
    # would send every CG evaluation through numpy's scalar dispatch.
    contexts = [make_context(paper, RELAY_450), make_context(replace(paper, b=0.0), RELAY_450),
                make_context(paper, Point(1e100, 300.0))]
    contexts += itertools.islice(_seeded_contexts(29), 20)
    for ctx in contexts:
        for value in (ctx.terms, ctx.ne_alloc, ctx.threat):
            for name in value.__dataclass_fields__:
                assert type(getattr(value, name)) is float, (value, name)


def _context_for(scenario, terms):
    """Context from hand-built marginal terms."""
    ne = nash_equilibrium(terms, scenario)
    return NashProductContext(scenario=scenario, terms=terms, ne_alloc=ne.allocation)


def central_gradient(alloc, ctx, h):
    out = []
    for i in range(2):
        up = [alloc.w1, alloc.w2]
        dn = [alloc.w1, alloc.w2]
        up[i] += h
        dn[i] -= h
        out.append((nash_product(BandAllocation(*up), ctx)
                    - nash_product(BandAllocation(*dn), ctx)) / (2.0 * h))
    return np.array(out)


def central_hessian(alloc, ctx, h):
    w = np.array([alloc.w1, alloc.w2])

    def pi(v):
        return nash_product(BandAllocation(*v), ctx)

    out = np.empty((2, 2))
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        out[i, i] = (pi(w + e) - 2.0 * pi(w) + pi(w - e)) / h**2
    ex, ey = np.array([h, 0.0]), np.array([0.0, h])
    out[0, 1] = out[1, 0] = (pi(w + ex + ey) - pi(w + ex - ey)
                             - pi(w - ex + ey) + pi(w - ex - ey)) / (4.0 * h**2)
    return out


def test_nash_product_zero_at_threat(ctx450):
    assert nash_product(ctx450.ne_alloc, ctx450) == 0.0


def test_nash_product_sign_rule(ctx450):
    # below the equilibrium band of player 1: u1 drops, u2 gains
    alloc = BandAllocation(0.5 * ctx450.ne_alloc.w1, ctx450.ne_alloc.w2)
    u = utility_pair(alloc, ctx450.terms, ctx450.scenario)
    assert u.u1 < ctx450.threat.u1 and u.u2 > ctx450.threat.u2
    assert nash_product(alloc, ctx450) < 0.0


def test_nash_product_paper_value(ctx450, paper):
    alloc = BandAllocation(paper.omega / 4.0, paper.omega / 4.0)
    assert nash_product(alloc, ctx450) == pytest.approx(PI_QUARTER, rel=1e-11)


def test_gradient_zero_at_threat(ctx450):
    assert nash_product_gradient(ctx450.ne_alloc, ctx450) == (0.0, 0.0)


def test_gradient_zero_pricing_formula():
    rng = np.random.default_rng(21)
    scenario = replace(random_scenario(rng), b=0.0)
    terms = MarginalTerms(phi1=1.0, psi1=2.0, phi2=2.5, psi2=1.5)
    ctx = _context_for(scenario, terms)
    for _ in range(10):
        alloc = BandAllocation(*(rng.uniform(0, scenario.omega, 2)))
        u = utility_pair(alloc, terms, scenario)
        g = nash_product_gradient(alloc, ctx)
        expect = ((terms.psi1 - terms.phi1) * (u.u2 - ctx.threat.u2),
                  (terms.psi2 - terms.phi2) * (u.u1 - ctx.threat.u1))
        assert g == pytest.approx(expect, rel=1e-12)


def test_gradient_matches_finite_differences(ctx450, paper):
    rng = np.random.default_rng(22)
    h = 1e-5 * paper.omega
    for _ in range(100):
        alloc = BandAllocation(*(rng.uniform(0.05, 0.95, 2) * paper.omega))
        fd = central_gradient(alloc, ctx450, h)
        an = np.array(nash_product_gradient(alloc, ctx450))
        assert np.linalg.norm(an - fd) <= 1e-5 * (np.linalg.norm(fd) + 1e-9)


def test_hessian_zero_pricing():
    rng = np.random.default_rng(23)
    scenario = replace(random_scenario(rng), b=0.0)
    terms = MarginalTerms(phi1=1.0, psi1=2.0, phi2=2.5, psi2=1.5)
    ctx = _context_for(scenario, terms)
    h = hessian(BandAllocation(1e5, 2e5), ctx)
    assert h.a11 == 0.0 and h.a22 == 0.0
    assert h.a12 == (terms.phi1 - terms.psi1) * (terms.phi2 - terms.psi2)


def test_hessian_symmetry(ctx450, paper):
    # Both mixed partials of the analytic gradient match the one stored a12.
    rng = np.random.default_rng(24)
    step = 1e-4 * paper.omega
    for _ in range(50):
        w1, w2 = rng.uniform(0, paper.omega, 2)
        h = hessian(BandAllocation(w1, w2), ctx450)
        g1_up, _ = nash_product_gradient(BandAllocation(w1, w2 + step), ctx450)
        g1_dn, _ = nash_product_gradient(BandAllocation(w1, w2 - step), ctx450)
        _, g2_up = nash_product_gradient(BandAllocation(w1 + step, w2), ctx450)
        _, g2_dn = nash_product_gradient(BandAllocation(w1 - step, w2), ctx450)
        scale = abs(h.a11) + abs(h.a22) + abs(h.a12)
        for mixed in ((g1_up - g1_dn) / (2 * step), (g2_up - g2_dn) / (2 * step)):
            assert abs(mixed - h.a12) <= 1e-6 * scale


def test_hessian_matches_finite_differences(ctx450, paper):
    rng = np.random.default_rng(25)
    h_step = 1e-4 * paper.omega
    for _ in range(100):
        alloc = BandAllocation(*(rng.uniform(0.05, 0.95, 2) * paper.omega))
        fd = central_hessian(alloc, ctx450, h_step)
        an = hessian(alloc, ctx450)
        an_m = np.array([[an.a11, an.a12], [an.a12, an.a22]])
        assert np.linalg.norm(an_m - fd) <= 1e-4 * (np.linalg.norm(fd) + 1e-9)


def _formulas(alloc, ctx):
    """The Nash product, its gradient and its Hessian written out from the
    per-user utility functions: the rounding the kernel must keep."""
    s, t = ctx.scenario, ctx.terms
    u = utility_pair(alloc, t, s)
    d1, d2 = u.u1 - ctx.threat.u1, u.u2 - ctx.threat.u2
    du1, du2 = utility_partial(1, alloc, t, s), utility_partial(2, alloc, t, s)
    w1, w2 = alloc.w1, alloc.w2
    product = d1 * d2
    gradient = (du1 * d2 + d1 * (-s.b * w2), d1 * du2 + d2 * (-s.b * w1))
    m = 256 * round(math.frexp(s.alpha)[1] / 256)
    unit = math.ldexp(1.0, -m)
    b = s.b * unit
    d1, d2, du1, du2 = d1 * unit, d2 * unit, du1 * unit, du2 * unit
    curvature = Hessian2x2(a11=-2.0 * b * d2 - 2.0 * b * w2 * du1,
                           a22=-2.0 * b * d1 - 2.0 * b * w1 * du2,
                           a12=-b * d2 - b * d1 + b * b * w1 * w2 + du1 * du2,
                           exponent=2 * m)
    return product, gradient, curvature


def _bits(product, gradient, curvature):
    return [np.asarray(x, dtype=float).tobytes() for x in (
        product, *gradient, curvature.a11, curvature.a22, curvature.a12)] + [curvature.exponent]


def test_kernel_matches_utility_formulas(paper):
    # nash_product, nash_product_gradient and hessian keep the bits of the
    # formulas above: on the floats of seeded contexts, at units where the
    # Hessian is rescaled, and on a sweep's arrays.
    rng = np.random.default_rng(29)
    cases = []
    for base in itertools.islice(_seeded_contexts(30), 60):
        s = base.scenario
        for scale in (1.0, 1e-100, 1e160):
            ctx = base if scale == 1.0 else make_context(
                replace(s, alpha=s.alpha * scale, b=s.b * scale), RELAY_450)
            omega = ctx.scenario.omega
            for alloc in (ctx.ne_alloc, exact_nbs(ctx).allocation,
                          BandAllocation(-0.0, omega),
                          BandAllocation(*rng.uniform(0.0, omega, 2).tolist())):
                cases.append((alloc, ctx))
    grid = SweepGrid(step=25.0)
    ctx, _ = make_context_batch(paper, *grid.positions())
    nbs, _ = exact_nbs_batch(ctx.terms, ctx.ne_alloc, paper)
    cases += [(ctx.ne_alloc, ctx), (nbs, ctx),
              (BandAllocation(*rng.uniform(0.0, paper.omega, (2, len(nbs.w1)))), ctx)]
    for alloc, ctx in cases:
        got = (nash_product(alloc, ctx), nash_product_gradient(alloc, ctx), hessian(alloc, ctx))
        assert _bits(*got) == _bits(*_formulas(alloc, ctx))


def test_eigenvalues_trivial():
    eig = eigenvalues(Hessian2x2(a11=3.0, a22=3.0, a12=0.0))
    assert (eig.lambda1, eig.lambda2, eig.delta) == (3.0, 3.0, 0.0)
    eig = eigenvalues(Hessian2x2(a11=0.0, a22=0.0, a12=-2.5))
    assert (eig.lambda1, eig.lambda2) == (-2.5, 2.5)


def test_eigenvalues_match_lapack():
    rng = np.random.default_rng(26)
    for _ in range(300):
        a11, a22, a12 = rng.uniform(-50, 50, 3)
        eig = eigenvalues(Hessian2x2(a11=a11, a22=a22, a12=a12))
        ref = np.linalg.eigvalsh(np.array([[a11, a12], [a12, a22]]))
        assert eig.delta >= 0.0
        assert eig.lambda1 == pytest.approx(ref[0], rel=1e-10, abs=1e-10)
        assert eig.lambda2 == pytest.approx(ref[1], rel=1e-10, abs=1e-10)
    for scale in (1e-300, 1e300):  # squares beyond the float range
        a11, a22, a12 = scale * rng.uniform(-50, 50, 3)
        eig = eigenvalues(Hessian2x2(a11=a11, a22=a22, a12=a12))
        ref = np.linalg.eigvalsh(np.array([[a11, a12], [a12, a22]]))
        assert [eig.lambda1, eig.lambda2] == pytest.approx(ref, rel=1e-10, abs=1e-10 * scale)


def test_concavity_flag(ctx450):
    assert eigenvalues(Hessian2x2(-1.0, -1.0, 0.0)).lambda2 < 0.0
    oracle = grid_oracle_nbs(ctx450)
    assert is_strictly_concave_at(oracle.allocation, ctx450)


def test_concavity_false_without_pricing():
    rng = np.random.default_rng(27)
    scenario = replace(random_scenario(rng), b=0.0)
    terms = MarginalTerms(phi1=1.0, psi1=2.0, phi2=2.5, psi2=1.5)
    ctx = _context_for(scenario, terms)
    for _ in range(20):
        alloc = BandAllocation(*(rng.uniform(0, scenario.omega, 2)))
        assert not is_strictly_concave_at(alloc, ctx)


def test_cg_exact_on_quadratic():
    # pi_m = (w1 - a)^2 + (w2 - c)^2: nonlinear CG is exact in two steps
    a, c = 3.0e5, 7.0e5

    def fun(w):
        return (w[0] - a) ** 2 + (w[1] - c) ** 2

    def grad(w):
        return np.array([2.0 * (w[0] - a), 2.0 * (w[1] - c)])

    def hess(w):
        return np.array([[2.0, 0.0], [0.0, 2.0]])

    w, resid, iters, converged, _ = cg_minimize(
        fun, grad, hess, np.array([1.0e5, 9.0e5]), 0.0, 1.0e6,
        epsilon=1e-9, max_iter=50)
    assert converged and iters <= 2
    assert w[0] == pytest.approx(a, abs=1e-6)
    assert w[1] == pytest.approx(c, abs=1e-6)


@pytest.mark.parametrize("offset", [
    (1.0e4, -1.0e4),  # the first trial raises fun
    (25001.25, 0.0),  # it lowers fun, by less than the sufficient decrease
])
def test_cg_fallback_backtracks_to_sufficient_decrease(offset):
    # The Hessian reports no positive curvature, so every iteration takes the
    # steepest-descent fallback. Its first trial moves 5% of the box, past the
    # minimum, to about or beyond the start's mirror image, so the fallback
    # has to halve its step to descend enough.
    a, c = 3.0e5, 7.0e5

    def f(w):
        return (w[0] - a) ** 2 + 4.0 * (w[1] - c) ** 2

    def g(w):
        return np.array([2.0 * (w[0] - a), 8.0 * (w[1] - c)])

    calls, iterates = [], []

    def fun(w):
        calls.append(w)
        return f(w)

    def grad(w):
        iterates.append(np.array(w, dtype=float))
        return g(w)

    def hess(w):
        return -np.eye(2)

    w, _, iters, converged, notes = cg_minimize(
        fun, grad, hess, np.array([a, c]) + offset, 0.0, 1.0e6,
        epsilon=1e-6, max_iter=200)
    assert notes == [f"steepest-descent fallback used on {iters} iteration(s)"]
    # fun is called at the start and once per trial step: each fallback
    # starts from the point the one before accepted, whose value it reuses.
    # So more than one call per iteration beyond the start's means that some
    # trial was halved.
    assert len(calls) > iters + 1
    assert len(iterates) == iters + 1
    for before, after in zip(iterates, iterates[1:]):
        # Armijo's sufficient decrease along the step taken (no step is
        # clipped: the iterates stay inside the box)
        assert f(after) <= f(before) + 1e-4 * float(g(before) @ (after - before))
    assert converged
    assert w[0] == pytest.approx(a, abs=1e-3)
    assert w[1] == pytest.approx(c, abs=1e-3)


@pytest.mark.parametrize("coord", [0, 1])
@pytest.mark.parametrize("bound", [0.0, -0.0, 1.0e6])
@pytest.mark.parametrize("outward", [True, False])
def test_cg_box_stopping_rule(bound, outward, coord):
    # A linear objective whose gradient is large along one coordinate, which
    # starts exactly on a bound, and tiny along the other. Where the large
    # component points out of the box, descent is blocked there: the
    # projected gradient is tiny and CG stops at its start, pinned. Where it
    # points inward, CG iterates.
    lo, hi, eps = 0.0, 1.0e6, 1e-6
    g = np.full(2, 3e-7)
    g[coord] = (2.0 if bound == lo else -2.0) * (1.0 if outward else -1.0)
    w0 = np.full(2, 0.5 * hi)
    w0[coord] = bound

    def fun(w):
        return float(g @ w)

    def grad(w):
        return g.copy()

    def hess(w):
        return np.zeros((2, 2))

    w, _, iters, converged, notes = cg_minimize(fun, grad, hess, w0, lo, hi, eps, 5)
    pinned = "stopped at a box-stationary point (projected gradient below epsilon)"
    if outward:
        assert (iters, converged, notes) == (0, True, [pinned])
        assert w.tobytes() == np.clip(w0, lo, hi).tobytes()
    else:
        assert iters == 5 and pinned not in notes
    # The residual at the start, against the projected gradient built as an
    # array: components that point outward at an active bound are zeroed.
    _, residual, _, _, _ = cg_minimize(fun, grad, hess, w0, lo, hi, eps, 0)
    w = np.clip(w0, lo, hi)
    pg = g.copy()
    pg[(w <= lo) & (pg > 0.0)] = 0.0
    pg[(w >= hi) & (pg < 0.0)] = 0.0
    assert residual == min(float(np.linalg.norm(-g)), float(np.linalg.norm(pg)))
    assert (residual < 1.0) == outward


def test_cg_rejects_unknown_mode(ctx450):
    with pytest.raises(ValueError):
        cg_nbs(ctx450, mode="diagonal")


def test_cg_stationary_start(ctx450):
    oracle = grid_oracle_nbs(ctx450)
    g = np.array(nash_product_gradient(oracle.allocation, ctx450))
    eps = float(np.linalg.norm(g)) * (1.0 + 1e-9)
    report = cg_nbs(ctx450, w0=oracle.allocation, epsilon=eps)
    assert report.iterations == 0
    assert report.converged
    assert report.allocation == oracle.allocation


def test_cg_matches_oracle_and_continuum(ctx450, paper):
    report = cg_nbs(ctx450)
    assert report.converged
    assert "grid-oracle result returned" not in " ".join(report.diagnostics)
    oracle = grid_oracle_nbs(ctx450)
    cell = paper.omega / 400.0
    assert abs(report.allocation.w1 - oracle.allocation.w1) <= cell
    assert abs(report.allocation.w2 - oracle.allocation.w2) <= cell
    assert report.allocation.w1 == pytest.approx(NBS_CONTINUUM[0], rel=1e-9)
    assert report.allocation.w2 == pytest.approx(NBS_CONTINUUM[1], rel=1e-9)
    assert nash_product(report.allocation, ctx450) == pytest.approx(PI_STAR, rel=1e-12)


def test_cg_modes_agree_in_concave_region(ctx450):
    joint = cg_nbs(ctx450, mode="joint")
    alternating = cg_nbs(ctx450, mode="alternating", max_iter=2000)
    assert joint.converged and alternating.converged
    omega = ctx450.scenario.omega
    assert abs(joint.allocation.w1 - alternating.allocation.w1) <= 1e-6 * omega
    assert abs(joint.allocation.w2 - alternating.allocation.w2) <= 1e-6 * omega


def test_cg_center_start_falls_back_to_exact(ctx450, paper):
    # (omega/2, omega/2) sits where both players lose; the run must be
    # rejected at the dominance check and return the exact solution, flagged.
    report = cg_nbs(ctx450, w0=BandAllocation(paper.omega / 2, paper.omega / 2))
    assert report.allocation == exact_nbs(ctx450).allocation
    assert "cg endpoint rejected; exact result returned" in report.diagnostics


def test_cg_corner_equilibrium_finds_bargain(paper):
    # Both users rent the whole band at the equilibrium, yet renting a little
    # less helps both. The default start 0.9*NE lies outside the dominance
    # region and CG climbs back to the threat point, whose product is zero.
    terms = MarginalTerms(phi1=1.0, psi1=37.0, phi2=2.0, psi2=41.6)
    ctx = _context_for(paper, terms)
    assert ctx.ne_alloc == BandAllocation(paper.omega, paper.omega)
    report = cg_nbs(ctx)
    assert nash_product(report.allocation, ctx) > 0.0
    assert report.allocation == exact_nbs(ctx).allocation
    assert "cg endpoint rejected; exact result returned" in report.diagnostics


def test_cg_threat_point_start_returns_exact(ctx450):
    # The threat point is a critical point with a zero product: CG stops
    # there at once, and the endpoint is rejected for the exact bargain.
    report = cg_nbs(ctx450, w0=ctx450.ne_alloc)
    assert report.allocation == exact_nbs(ctx450).allocation
    assert "cg endpoint rejected; exact result returned" in report.diagnostics
    assert nash_product(report.allocation, ctx450) > 0.0


def test_cg_single_exit_rule():
    # Where exact_nbs finds no bargain, cg_nbs returns the threat allocation
    # itself, not a nearby CG endpoint with a zero product; where there is a
    # bargain, its answer weakly dominates the threat point with a positive
    # product.
    draws = 200
    no_bargain = 0
    for ctx in itertools.islice(_seeded_contexts(1414), draws):
        report = cg_nbs(ctx)
        if exact_nbs(ctx).allocation == ctx.ne_alloc:
            no_bargain += 1
            assert report.allocation == ctx.ne_alloc
            assert report.utilities == ctx.threat
            continue
        for i in (1, 2):
            assert report.utilities.u(i) >= ctx.threat.u(i) - 1e-12 * abs(ctx.threat.u(i))
        assert nash_product(report.allocation, ctx) > 0.0
    assert 0 < no_bargain < draws


# cg_nbs at draws 1, 3 and 48 of _seeded_contexts(1414), recorded bit for bit
# from the numpy-scalar implementation that evaluated the objective on
# np.float64: draw 1 stops at its start, draw 3 iterates with fallbacks and is
# rejected, draw 48 is accepted. Per mode: cg_minimize's endpoint, residual,
# iterations, flag and notes, then the report's allocation, residual,
# iterations and notes (floats as float.hex).
_REJECTED = "cg endpoint rejected; exact result returned"
_NO_BARGAIN = ("no allocation improves both utilities on the threat point; "
               "returning the threat allocation")
_PINNED = "stopped at a box-stationary point (projected gradient below epsilon)"
CG_PINS = {
    (1, "joint"): (
        ("0x1.3d0bf87b36dc6p-36", "0x0.0p+0"), "0x1.0fc256621ee76p-93", 0, True, (),
        ("0x1.60463088e79f8p-36", "0x0.0p+0"), "0x0.0p+0", 0, (_NO_BARGAIN, _REJECTED)),
    (1, "alternating"): (
        ("0x1.3d0bf87b36dc6p-36", "0x0.0p+0"), "0x1.0fc256621ee76p-93", 0, True, (),
        ("0x1.60463088e79f8p-36", "0x0.0p+0"), "0x0.0p+0", 0, (_NO_BARGAIN, _REJECTED)),
    (3, "joint"): (
        ("0x1.e848000000000p+18", "0x1.e848000000000p+18"), "0x0.0p+0", 24, True,
        ("steepest-descent fallback used on 24 iteration(s)", _PINNED),
        ("0x1.b96c190795710p+17", "0x0.0p+0"), "0x0.0p+0", 0,
        (_NO_BARGAIN, "steepest-descent fallback used on 24 iteration(s)", _PINNED,
         _REJECTED)),
    (3, "alternating"): (
        ("0x1.e848000000000p+18", "0x1.e848000000000p+18"), "0x0.0p+0", 48, True,
        ("steepest-descent fallback used on 48 iteration(s)", _PINNED),
        ("0x1.b96c190795710p+17", "0x0.0p+0"), "0x0.0p+0", 0,
        (_NO_BARGAIN, "steepest-descent fallback used on 48 iteration(s)", _PINNED,
         _REJECTED)),
    (48, "joint"): (
        ("0x1.98d50cdbdd95bp+11", "0x1.dfa540399978dp+12"), "0x1.9155bb8d7da90p-21", 10,
        True, (), ("0x1.98d50cdbdd95bp+11", "0x1.dfa540399978dp+12"),
        "0x1.9155bb8d7da90p-21", 10, ()),
    (48, "alternating"): (
        ("0x1.98d50ce177b1dp+11", "0x1.dfa5403d5d45cp+12"), "0x1.68a6ec14b1400p-23", 32,
        True, (), ("0x1.98d50ce177b1dp+11", "0x1.dfa5403d5d45cp+12"),
        "0x1.68a6ec14b1400p-23", 32, ()),
}


def test_cg_pinned_answers(monkeypatch):
    # The answers above, bit for bit, and one evaluation of the kernel's
    # gradient per iteration plus one at the start, which also sets the
    # default epsilon.
    runs, grads = [], []
    minimize, gradient = bargaining.cg_minimize, bargaining._gradient

    def recorded_minimize(*args, **kwargs):
        runs.append(minimize(*args, **kwargs))
        return runs[-1]

    def recorded_gradient(w1, w2, *args):
        grads.append((w1, w2))
        return gradient(w1, w2, *args)

    monkeypatch.setattr(bargaining, "cg_minimize", recorded_minimize)
    monkeypatch.setattr(bargaining, "_gradient", recorded_gradient)
    contexts = list(itertools.islice(_seeded_contexts(1414), 48))
    for (draw, mode), pin in CG_PINS.items():
        ctx = contexts[draw - 1]
        runs.clear()
        grads.clear()
        report = cg_nbs(ctx, mode=mode)
        (w, residual, iters, converged, notes), = runs
        got = (tuple(x.hex() for x in w.tolist()), residual.hex(), iters, converged,
               tuple(notes),
               (report.allocation.w1.hex(), report.allocation.w2.hex()),
               report.residual.hex(), report.iterations, report.diagnostics)
        assert got == pin, (draw, mode)
        assert len(grads) == iters + 1, (draw, mode)
        assert grads[0] == (0.9 * ctx.ne_alloc.w1, 0.9 * ctx.ne_alloc.w2)


def test_cg_fallback_evaluates_each_point_once(monkeypatch):
    # Draw 3 in joint mode falls back on each of its 24 iterations, each from
    # the trial point the one before accepted: the objective is evaluated at
    # the start and once per trial, never twice at one point.
    points = []
    minimize = bargaining.cg_minimize

    def recorded_minimize(fun, *args, **kwargs):
        def recorded_fun(w):
            points.append(tuple(w.tolist()))
            return fun(w)
        return minimize(recorded_fun, *args, **kwargs)

    monkeypatch.setattr(bargaining, "cg_minimize", recorded_minimize)
    ctx = next(itertools.islice(_seeded_contexts(1414), 2, None))
    report = cg_nbs(ctx, mode="joint")
    assert "steepest-descent fallback used on 24 iteration(s)" in report.diagnostics
    assert len(points) == 25
    assert len(set(points)) == len(points)


def _objective_calls(monkeypatch) -> list:
    """A one-entry list that counts the objective's calls in every
    ``cg_minimize`` that ``cg_nbs`` runs from now on."""
    calls = [0]
    inner = bargaining.cg_minimize

    def counted(fun, *args, **kwargs):
        def fun_counted(w):
            calls[0] += 1
            return fun(w)
        return inner(fun_counted, *args, **kwargs)

    monkeypatch.setattr(bargaining, "cg_minimize", counted)
    return calls


@pytest.mark.parametrize("scale", [1e100, 1e150, 1e160, 1e200])
def test_cg_large_units_return_exact(paper, scale, monkeypatch):
    # With alpha and b this large the gradient's squared norm overflows
    # (numpy warns), so the default epsilon and the residual are not finite
    # (1e100, 1e150); or the gradient at the start is NaN (1e160, 1e200),
    # and CG stops there. Either way the endpoint is rejected for the exact
    # bargain, after no more objective calls than at unit scale.
    calls = _objective_calls(monkeypatch)
    cg_nbs(make_context(paper, RELAY_450))
    at_unit, calls[0] = calls[0], 0
    ctx = make_context(replace(paper, alpha=paper.alpha * scale, b=paper.b * scale),
                       RELAY_450)
    if scale < 1e160:
        with pytest.warns(RuntimeWarning, match="overflow"):
            report = cg_nbs(ctx)
    else:
        report = cg_nbs(ctx)
        assert NON_FINITE_NOTE in report.diagnostics
    assert calls[0] <= at_unit
    exact = exact_nbs(ctx)
    assert report.allocation == exact.allocation
    assert report.utilities == exact.utilities
    assert report.diagnostics[-1] == _REJECTED
    assert nash_product(report.allocation, ctx) > 0.0


def test_cg_stops_at_non_finite_values():
    # A NaN start, a NaN gradient at the start, a NaN objective where a
    # fallback starts, and a step to a point whose gradient is NaN: each
    # stops CG at once, with a NaN residual.
    g = np.array([1.0, -1.0])
    bad = np.array([math.nan, 1.0])
    start = np.array([0.5, 0.5])
    cases = [
        (lambda w: float(g @ w), lambda w: g, lambda w: np.eye(2), bad, 0),
        (lambda w: float(g @ w), lambda w: bad, lambda w: np.eye(2), start, 0),
        (lambda w: math.nan, lambda w: g, lambda w: -np.eye(2), start, 0),
        (lambda w: float(g @ w), lambda w: g if w[0] == 0.5 else bad, lambda w: np.eye(2),
         start, 1),
    ]
    for fun, grad, hess, w0, iters in cases:
        w, residual, k, converged, notes = cg_minimize(fun, grad, hess, w0, 0.0, 1.0, None, 10)
        assert (math.isnan(residual), k, converged) == (True, iters, False)
        assert notes[-1] == NON_FINITE_NOTE


def test_cg_overflowing_residual_is_not_converged():
    # |g|**2 overflows: the default epsilon and the residual are both inf.
    g = np.array([1e200, -1e200])
    with pytest.warns(RuntimeWarning, match="overflow"):
        w, residual, iters, converged, _ = cg_minimize(
            lambda w: float(g @ w), lambda w: g.copy(), lambda w: np.zeros((2, 2)),
            np.array([0.5, 0.5]), 0.0, 1.0, None, 10)
    assert (residual, iters, converged) == (math.inf, 0, False)


def test_cg_dominance_on_accepted_result(ctx450):
    report = cg_nbs(ctx450)
    for i in (1, 2):
        assert (report.utilities.u(i)
                >= ctx450.threat.u(i) - 1e-12 * abs(ctx450.threat.u(i)))


def test_exact_matches_continuum(ctx450):
    report = exact_nbs(ctx450)
    assert report.kind == "NBS" and report.converged and not report.diagnostics
    assert report.allocation.w1 == pytest.approx(NBS_CONTINUUM[0], rel=1e-9)
    assert report.allocation.w2 == pytest.approx(NBS_CONTINUUM[1], rel=1e-9)
    assert nash_product(report.allocation, ctx450) == pytest.approx(PI_STAR, rel=1e-12)


def test_exact_mirror_symmetric(paper):
    # c1 = c2 = c: the equilibrium rents c/(3b) per user and the bargain
    # c/(4b), a quarter less band. The direct-link slopes do not matter.
    for terms in (MarginalTerms(phi1=0.5, psi1=2.0, phi2=0.5, psi2=2.0),
                  MarginalTerms(phi1=0.25, psi1=1.75, phi2=3.0, psi2=4.5)):
        ctx = _context_for(paper, terms)
        c = terms.relay_advantage(1)
        assert ctx.ne_alloc.w1 == pytest.approx(c / (3.0 * paper.b), rel=1e-12)
        nbs = exact_nbs(ctx).allocation
        assert nbs.w1 == pytest.approx(c / (4.0 * paper.b), rel=1e-12)
        assert nbs.w2 == pytest.approx(c / (4.0 * paper.b), rel=1e-12)
        gain = bandwidth_gain(ctx.ne_alloc.w1 + ctx.ne_alloc.w2, nbs.w1 + nbs.w2)
        assert gain == pytest.approx(25.0, rel=1e-9)


def test_exact_returns_threat_without_bargain(paper):
    # Zero pricing: each gain c_i*(w_i - a_i) is <= 0 on the whole box.
    free = _context_for(replace(paper, b=0.0),
                        MarginalTerms(phi1=1.0, psi1=2.0, phi2=2.5, psi2=1.5))
    # Useless relay: renting band only costs, and the threat is (0, 0).
    useless = _context_for(paper, MarginalTerms(phi1=1.5, psi1=1.5, phi2=0.7, psi2=0.7))
    far = make_context(paper, Point(1e6, 1e6))
    for ctx in (free, useless, far):
        report = exact_nbs(ctx)
        assert report.allocation == ctx.ne_alloc
        assert report.utilities == ctx.threat
        assert any("threat allocation" in d for d in report.diagnostics)


def test_exact_dominates_and_beats_oracle(paper):
    contexts = [ctx for _, ctx, _, _ in _criterion3_sites(paper)]
    rng = np.random.default_rng(4242)
    while len(contexts) < 20 + 200:
        scenario = random_scenario(rng)
        try:
            contexts.append(make_context(scenario, random_relay(rng, scenario)))
        except ValueError:
            continue
    bargains = 0
    for ctx in contexts:
        report = exact_nbs(ctx)
        for i in (1, 2):
            assert report.utilities.u(i) >= ctx.threat.u(i) - 1e-12 * abs(ctx.threat.u(i))
        exact = nash_product(report.allocation, ctx)
        oracle = nash_product(grid_oracle_nbs(ctx, 401).allocation, ctx)
        assert exact >= oracle - 1e-12 * abs(oracle)
        bargains += exact > 0.0
    assert bargains > 0, "no context had a bargain; the comparison checked nothing"


def _candidates(e3, e2, e1, e0):
    """The closed-form solver's candidates, with RuntimeWarnings as errors."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return _quartic_roots(e3, e2, e1, e0)


def _near_real_roots(coefficients):
    """Roots by np.roots (highest degree first) with |imag| <= 1e-6 and a real
    part in [0, 2]. Leading coefficients whose companion row is not finite
    are dropped first (a tiny price): they stand for roots far beyond 2."""
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        while len(coefficients) > 1 and not np.isfinite(coefficients[1:] / coefficients[0]).all():
            coefficients = coefficients[1:]
    roots = np.roots(coefficients)
    return roots[(np.abs(roots.imag) <= 1e-6) & (roots.real >= 0.0) & (roots.real <= 2.0)]


def test_quartic_roots_match_np_roots():
    # Every root np.roots finds in [0, 2] has a candidate within
    # tol*(1 + |root|), plus its imaginary part (a close complex pair has its
    # vertex as a candidate). Rows: random monic quartics; quartics with
    # roots c +- d and c +- i*f, whose depressed form has q = 0 up to
    # rounding (the resolvent's largest root is then about 0); and
    # biquadratics (t**2 - a)*(t**2 + b), where q = 0 exactly.
    rng = np.random.default_rng(11)
    random = rng.normal(size=(4, 2000)) * 10.0 ** rng.uniform(-1.0, 1.0, size=(4, 2000))
    c, d, f = rng.uniform(0.2, 1.0, 300), rng.uniform(0.0, 1.0, 300), rng.uniform(0.01, 1.0, 300)
    symmetric = np.array([np.poly([x - y * x, x + y * x, x + 1j * z, x - 1j * z]).real[1:]
                          for x, y, z in zip(c, d, f)]).T
    a, b = rng.uniform(0.01, 4.0, 100), rng.uniform(-4.0, 4.0, 100)
    biquadratic = np.array([np.zeros(100), b - a, np.zeros(100), -a * b])
    for e, tol, least in ((random, 1e-13, 500), (symmetric, 1e-11, 300), (biquadratic, 1e-13, 100)):
        found = _candidates(*e)
        assert found.shape == (e.shape[1], 4)
        matched = 0
        for row, cands in zip(e.T, found):
            for r in _near_real_roots(np.concatenate([[1.0], row])):
                assert np.abs(cands - r.real).min() <= tol * (1.0 + abs(r)) + abs(r.imag), (row, r)
                matched += 1
        assert matched >= least


def test_quartic_roots_of_close_pairs():
    # Quartics built from known roots, with a pair of real roots 1e-9 to 1e-3
    # apart in [0, 2] and either two more real roots or a complex pair.
    # Rounding the coefficients moves a root whose nearest neighbour is g
    # away by about 1e-16/g, or by about sqrt(1e-16) once that is larger, so
    # each known real root in [0, 2] must have a candidate within
    # min(2e-6, 1e-11/g). np.roots misses by as much.
    rng = np.random.default_rng(12)
    for gap in 10.0 ** np.arange(-9.0, -2.5, 0.5):
        for k in range(40):
            x = rng.uniform(0.0, 2.0 - gap)
            if k % 2:
                m, im = rng.uniform(-1.0, 3.0), rng.uniform(0.01, 1.0)
                roots = [x, x + gap, complex(m, im), complex(m, -im)]
            else:
                roots = [x, x + gap, *rng.uniform(-1.0, 3.0, size=2)]
            cands = _candidates(*np.poly(roots).real[1:, None])[0]
            for i, r in enumerate(roots):
                if np.imag(r) == 0.0 and 0.0 <= r.real <= 2.0:
                    g = min(abs(r - o) for j, o in enumerate(roots) if j != i)
                    assert np.abs(cands - r.real).min() <= min(2e-6, 1e-11 / g), (roots, r)


def test_quartic_roots_of_sweep_quartics(paper):
    # The interior quartics of the bundled 25 m sweep, and of its 100 m sweep
    # at a zero price and at tiny prices: in the total band s = t/b, every root
    # that np.roots finds in [0, 2] for the same quartic in s (from
    # np.convolve, as the loop reference builds it) has a candidate within
    # 1e-8 plus its imaginary part. A zero price leaves no finite candidate;
    # a NaN row has no candidate.
    matched = 0
    for b, step in ((paper.b, 25.0), (0.0, 100.0), (1e-89, 100.0), (1e-86, 100.0),
                    (1e-84, 100.0)):
        scenario = replace(paper, b=b)
        xr, yr = SweepGrid(step=step).positions()
        ctx, failures = make_context_batch(scenario, xr, yr)
        for k, failure in enumerate(failures):
            if failure is not None:
                continue
            t = ctx.terms
            c1, c2, bn, _, _, alpha1, alpha2 = loop_reference.normalized(
                float(t.psi1[k] - t.phi1[k]), float(t.psi2[k] - t.phi2[k]), b,
                scenario.omega, (float(ctx.ne_alloc.w1[k]), float(ctx.ne_alloc.w2[k])))
            coefficients = _interior_quartic(c1, c2, bn, alpha1, alpha2)
            assert np.isfinite(coefficients).all()
            with np.errstate(divide="ignore", invalid="ignore"):
                cands = _candidates(*coefficients)[0] / bn
            if b == 0.0:
                assert not np.isfinite(cands).any()
            for r in _near_real_roots(loop_reference.interior_quartic(c1, c2, bn, alpha1, alpha2)):
                assert np.abs(cands - r.real).min() <= 1e-8 + abs(r.imag), (b, xr[k], yr[k], r)
                matched += 1
    assert matched > 2000
    nan = _candidates(*np.array([[np.nan, 1.0, np.nan], [1.0, np.nan, 2.0],
                                 [0.5, 0.5, np.inf], [0.1, 0.2, np.nan]]))
    assert not np.isfinite(nan).any()


def test_sweeps_call_no_eigenvalue_routine(paper, monkeypatch, tmp_path):
    # The quartic's roots come in closed form: no LAPACK eigenvalue call and
    # no np.roots, at the bundled price, a zero price or a tiny price, for a
    # sweep, a single position or a CLI map.
    def refuse(*args, **kwargs):
        raise AssertionError("eigenvalue routine called")

    monkeypatch.setattr(np.linalg, "eigvals", refuse)
    monkeypatch.setattr(np.linalg, "eig", refuse)
    monkeypatch.setattr(np, "roots", refuse)
    for b in (paper.b, 0.0, 1e-86):
        records = sweep(replace(paper, b=b), SweepGrid(step=25.0))
        assert np.equal(records.failure, None).sum() == 840
    assert exact_nbs(make_context(paper, RELAY_450)).allocation.w1 > 0.0
    assert main(["concavity-map", "--scenario", str(paper_scenario_path()), "--step", "50",
                 "--out", str(tmp_path / "concavity.csv")]) == 0


def test_exact_nbs_tiny_price(paper):
    # At these prices b*omega/unit is between about 1e-84 and 1e-76, so the
    # interior quartic in the total band s has a leading coefficient
    # 4*(b*omega/unit)**4 that is subnormal or zero; the solver takes the
    # quartic in t = (b*omega/unit)*s, whose coefficients are O(1).
    def check(ctx, alloc):
        u = utility_pair(alloc, ctx.terms, ctx.scenario)
        assert u.u1 >= ctx.threat.u1 and u.u2 >= ctx.threat.u2
        oracle = nash_product(grid_oracle_nbs(ctx, 101).allocation, ctx)
        assert nash_product(alloc, ctx) >= oracle - 1e-12 * abs(oracle)

    for b in (1e-89, 1e-86, 1e-84):
        scenario = replace(paper, b=b)
        records = [r for r in rows(sweep(scenario, SweepGrid(step=100.0))) if r.failure is None]
        assert len(records) == 63  # all but the relay on source_1
        for r in records:
            check(make_context(scenario, Point(r.xr, r.yr)), r.nbs)
    for exponent in np.arange(-86.0, -82.4, 0.5):
        ctx = make_context(replace(paper, b=10.0 ** exponent), RELAY_450)
        check(ctx, exact_nbs(ctx).allocation)


def test_exact_sweep_reports_missed_bargains(paper):
    records = {(r.xr, r.yr): r for r in rows(sweep(paper, SweepGrid(step=25.0)))}
    for xy in MISSED_BARGAINS:
        r = records[xy]
        for i in (1, 2):
            assert r.nbs_u.u(i) > r.ne_u.u(i), xy


def test_zero_band_positions_have_no_bargain(paper):
    # exact_nbs_batch scores only the positions where both users rent band at
    # the threat point. The loop reference, which scores the corners, the
    # box edges and the quartic's roots, finds no bargain at the positions it
    # skips: on the bundled 25 m grid, which holds the near-zero products of
    # a gain formula with cancellation, and on seeded random scenarios.
    rng = np.random.default_rng(61)
    grids = [(paper, SweepGrid(step=25.0))]
    grids += [(random_scenario(rng), SweepGrid(step=50.0)) for _ in range(12)]
    skipped = []
    for scenario, grid in grids:
        ctx, failures = make_context_batch(scenario, *grid.positions())
        t, ne = ctx.terms, ctx.ne_alloc
        zero = np.flatnonzero(np.equal(failures, None) & ((ne.w1 == 0.0) | (ne.w2 == 0.0)))
        for k in zero:
            assert loop_reference.exact_nbs(
                float(t.psi1[k] - t.phi1[k]), float(t.psi2[k] - t.phi2[k]), scenario.b,
                scenario.omega, (float(ne.w1[k]), float(ne.w2[k]))) is None
        assert not exact_nbs_batch(t, ne, scenario)[1][zero].any()
        skipped.append(len(zero))
    assert skipped[0] == 539 and sum(skipped[1:]) > 2000


# Rounding floor of test_bargains_are_interior, as a fraction of m1*m2, where
# m_i = |d_i|*(|c_i| + b*(y_i + a_i + y_j)) + b*a_i*|d_j| sums the magnitudes
# of the terms of the gain g_i = d_i*(c_i - b*(y_i + a_i + y_j)) - b*a_i*d_j.
# The computed g_i is within about 7u (u = 2**-53, one per rounding) of m_i
# of its exact value for the same inputs, and the threat allocation is
# within a few u of each user's best response to the other's band, which
# moves g_i by a few u of m_i more. On the box boundary one of the exact
# gains at the exact equilibrium is <= 0, so one computed gain is below
# 16u*m_i; the other is at most m_j, so the product is below 16u*m1*m2.
# Seen: at most 1.3u*m1*m2, at a band one ulp from the threat's.
BOUNDARY_FLOOR = 16.0 * 2.0 ** -53


def test_bargains_are_interior(paper):
    # Both users rent band at every position that exact_nbs_batch scores, so
    # no point of the box boundary can hold a bargain and it scores only the
    # quartic's roots. Every bargain lies inside the box, and dense samples
    # of the four box edges, plus the threat's own band on each and the two
    # bands on either side of it, have no product above the rounding floor
    # where both gains are >= 0. Grids: the bundled 25 m one, and seeded
    # random scenarios at 35 m with b in [1e-9, 1e-1] and omega in [1e3, 1e8].
    rng = np.random.default_rng(62)
    grids = [(paper, SweepGrid(step=25.0))]
    for _ in range(100):
        scenario = random_scenario(rng)
        grids.append((replace(scenario, b=float(10.0 ** rng.uniform(-9.0, -1.0)),
                              omega=float(10.0 ** rng.uniform(3.0, 8.0))),
                      SweepGrid(step=35.0)))
    z = np.linspace(0.0, 1.0, 1001)
    scored_rows, bargains, near_threat = 0, 0, 0
    for scenario, grid in grids:
        ctx, failures = make_context_batch(scenario, *grid.positions())
        t, ne = ctx.terms, ctx.ne_alloc
        alloc, bargain = exact_nbs_batch(t, ne, scenario)
        for w in (alloc.w1[bargain], alloc.w2[bargain]):
            assert ((w > 0.0) & (w < scenario.omega)).all()
        bargains += bargain.sum()
        scored = np.flatnonzero(np.equal(failures, None) & (ne.w1 > 0.0) & (ne.w2 > 0.0))
        scored_rows += len(scored)
        if not len(scored):
            continue
        c1, c2, b, a1, a2 = np.array([loop_reference.normalized(
            float(t.psi1[k] - t.phi1[k]), float(t.psi2[k] - t.phi2[k]), scenario.b,
            scenario.omega, (float(ne.w1[k]), float(ne.w2[k])))[:5] for k in scored]).T[..., None]
        for pinned, a in ((1, a2), (2, a1)):
            below, above = np.nextafter(a, -1.0), np.nextafter(a, 2.0)
            near = [np.nextafter(below, -1.0), below, a, above, np.nextafter(above, 2.0)]
            free = np.clip(np.concatenate([np.broadcast_to(z, (len(a), len(z)))] + near,
                                          axis=1), 0.0, 1.0)
            for edge in (0.0, 1.0):
                pin = np.full_like(free, edge)
                y1, y2 = (pin, free) if pinned == 1 else (free, pin)
                d1, d2 = y1 - a1, y2 - a2
                g1 = d1 * (c1 - b * (y1 + a1 + y2)) - b * a1 * d2
                g2 = d2 * (c2 - b * (y2 + a2 + y1)) - b * a2 * d1
                m1 = abs(d1) * (abs(c1) + b * (y1 + a1 + y2)) + b * a1 * abs(d2)
                m2 = abs(d2) * (abs(c2) + b * (y2 + a2 + y1)) + b * a2 * abs(d1)
                both = (g1 >= 0.0) & (g2 >= 0.0)
                assert (g1 * g2 <= BOUNDARY_FLOOR * m1 * m2)[both].all()
                near_threat += (g1 * g2 > 0.0)[both].sum()
    # The rounding near the threat point does show, and the floor lets it by.
    assert scored_rows > 1000 and bargains > 500 and near_threat > 0


def test_oracle_degenerate_relay_useless(paper):
    # equal direct and relayed slopes: renting band only costs, threat = (0,0)
    terms = MarginalTerms(phi1=1.5, psi1=1.5, phi2=0.7, psi2=0.7)
    ctx = _context_for(paper, terms)
    assert ctx.ne_alloc == BandAllocation(0.0, 0.0)
    report = grid_oracle_nbs(ctx, resolution=101)
    assert report.allocation == BandAllocation(0.0, 0.0)
    assert nash_product(report.allocation, ctx) == 0.0


def test_oracle_resolution_two_corners(ctx450, paper):
    # none of the four corners dominates the threat point here, so the
    # exhaustive tiny case takes the flagged threat-allocation fallback
    report = grid_oracle_nbs(ctx450, resolution=2)
    assert report.allocation == ctx450.ne_alloc
    assert any("no grid point" in d for d in report.diagnostics)
    # with the threat pinned at the origin the corner (0, 0) itself qualifies
    terms = MarginalTerms(phi1=1.5, psi1=1.5, phi2=0.7, psi2=0.7)
    degenerate = _context_for(paper, terms)
    corner = grid_oracle_nbs(degenerate, resolution=2)
    assert corner.allocation == BandAllocation(0.0, 0.0)
    assert not corner.diagnostics


def test_oracle_rejects_bad_inputs(ctx450):
    with pytest.raises(ValueError):
        grid_oracle_nbs(ctx450, resolution=1)
    with pytest.raises(ValueError):
        grid_oracle_nbs(ctx450, utility_scale=(0.0, 1.0))


def test_oracle_refinement_stability(ctx450, paper):
    coarse = grid_oracle_nbs(ctx450, resolution=401)
    fine = grid_oracle_nbs(ctx450, resolution=801)
    cell = paper.omega / 400.0
    assert abs(coarse.allocation.w1 - fine.allocation.w1) < cell
    assert abs(coarse.allocation.w2 - fine.allocation.w2) < cell


def test_oracle_rescaling_invariance(ctx450):
    base = grid_oracle_nbs(ctx450, resolution=201)
    rng = np.random.default_rng(28)
    for _ in range(10):
        scale = tuple(10.0 ** rng.uniform(-3, 3, size=2))
        scaled = grid_oracle_nbs(ctx450, resolution=201, utility_scale=scale)
        assert scaled.allocation == base.allocation


def test_convex_hull_basics():
    square = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0],
                       [0.5, 0.5], [0.5, 0.0]])
    hull = convex_hull_indices(square)
    assert sorted(hull) == [0, 1, 2, 3]  # collinear midpoint stays off
    assert convex_hull_indices(np.zeros((7, 2))) == [0]
    seg = convex_hull_indices(np.array([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]]))
    assert sorted(seg) == [0, 2]


def _reference_hull(points):
    """Plain monotone chain over every point: no prefilter, tuple-key sort."""
    uniq, first = np.unique(points, axis=0, return_index=True)
    pts = uniq.tolist()
    order = sorted(range(len(pts)), key=lambda i: (pts[i][0], pts[i][1]))
    if len(pts) <= 2:
        return [int(first[i]) for i in order]

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    def chain(indices):
        out = []
        for i in indices:
            while len(out) >= 2 and cross(pts[out[-2]], pts[out[-1]], pts[i]) <= 0:
                out.pop()
            out.append(i)
        return out

    hull = chain(order)[:-1] + chain(order[::-1])[:-1]
    if len(hull) < 2:  # every point collinear: keep the two extremes
        hull = [order[0], order[-1]]
    return [int(first[i]) for i in hull]


def _hull_clouds(rng):
    """Seeded clouds with the degenerate shapes a hull must survive."""
    for _ in range(40):
        n = int(rng.integers(4, 300))
        base = rng.normal(size=(n, 2))
        yield base
        yield base[rng.integers(0, n, size=2 * n)]  # duplicates
        yield rng.integers(0, 4, size=(n, 2)).astype(float)  # collinear triples
        yield np.column_stack([np.full(n, 2.5), base[:, 1]])  # vertical line
        yield np.column_stack([base[:, 0], 3.0 * base[:, 0] - 1.0])  # collinear
        yield base[:int(rng.integers(1, 4))]  # one to three points
        yield 1e9 + base
        yield 1e-8 * base
        yield base * [1e-8, 1e8]
        angle = rng.uniform(0.0, 2.0 * np.pi, n)  # every point near the hull
        yield np.column_stack([np.cos(angle), np.sin(angle)])
    # 0.0 and -0.0 are one coordinate, so vertices repeat across zero's sign
    yield np.array([[-0.0, 0.0], [1.0, -0.0], [0.0, -0.0], [0.0, 1.0],
                    [1.0, 0.0], [-0.0, 1.0], [0.25, 0.25], [0.0, 0.0],
                    [-0.0, 0.5], [0.5, -0.0]])


def test_convex_hull_matches_plain_chain(ctx450):
    rng = np.random.default_rng(5)
    for points in _hull_clouds(rng):
        assert convex_hull_indices(points) == _reference_hull(points)
    utilities = sample_utility_region(ctx450, resolution=401).utilities
    assert convex_hull_indices(utilities) == _reference_hull(utilities)


def test_chain_walk_matches_plain_chain(ctx450, monkeypatch):
    # convex_hull_indices walks the chain only for nearly collinear points;
    # the walk makes the plain chain's own tests, so it must match on every
    # cloud, whatever its orientations.
    utilities = sample_utility_region(ctx450, resolution=101).utilities
    monkeypatch.setattr(bargaining, "_chain", bargaining._walk)
    rng = np.random.default_rng(7)
    for points in [*_hull_clouds(rng), utilities]:
        assert convex_hull_indices(points) == _reference_hull(points)


def test_region_hull_on_grid_boundary(ctx450, paper):
    # Each interior sample lies on the chord between the two boundary ends of
    # its anti-diagonal, so only boundary samples can be hull vertices.
    rng = np.random.default_rng(17)
    contexts = [ctx450] + [make_context(paper, random_relay(rng, paper, min_sep=20.0))
                           for _ in range(4)]
    for ctx in contexts:
        sample = sample_utility_region(ctx, resolution=41)
        _assert_hull_on_boundary(sample, 41)
        # The hull of every sample, by the plain chain.
        assert sample.hull_indices.tolist() == _reference_hull(sample.utilities)
    # At (450, 450) the welfare anti-diagonal is straight to within rounding:
    # its interior samples are not vertices, and the Pareto boundary is the
    # chord between its two ends.
    sample = sample_utility_region(ctx450, resolution=401)
    _assert_hull_on_boundary(sample, 401)
    pareto = [tuple(divmod(k, 401)) for k in sample.pareto_indices.tolist()]
    assert pareto == [(0, 89), (89, 0)]


def _assert_hull_on_boundary(sample, n):
    i, j = np.divmod(sample.hull_indices, n)
    assert ((i == 0) | (i == n - 1) | (j == 0) | (j == n - 1)).all()
    assert set(sample.pareto_indices.tolist()) <= set(sample.hull_indices.tolist())


def test_pareto_chain_short_hulls():
    # One vertex is its own Pareto boundary.
    utilities = np.array([[5.0, 5.0], [1.0, 2.0], [3.0, 4.0]])
    assert _pareto_chain(utilities, [2]) == [2]
    # Two vertices: one that dominates the other is the whole boundary; two
    # that are each ahead in one utility are both on it, by increasing u1,
    # in either hull order.
    assert _pareto_chain(utilities, [1, 2]) == [2]
    assert _pareto_chain(utilities, [2, 1]) == [2]
    anti = np.array([[0.0, 3.0], [2.0, 1.0]])
    assert _pareto_chain(anti, [0, 1]) == [0, 1]
    assert _pareto_chain(anti, [1, 0]) == [0, 1]
    # A tie in u1 goes to the larger u2, and a tie in u2 to the larger u1.
    tied = np.array([[1.0, 0.0], [1.0, 2.0], [0.0, 2.0]])
    assert _pareto_chain(tied, [0, 1]) == [1]
    assert _pareto_chain(tied, [2, 1]) == [1]


def test_oracle_utilities_are_region_samples(ctx450, paper):
    # The oracle reports the utilities of one region sample, bit for bit:
    # sample k = i*r + j at its allocation (axis[i], axis[j]).
    rng = np.random.default_rng(41)
    scenarios = [random_scenario(rng) for _ in range(40)]
    contexts = [ctx450, _context_for(paper, MarginalTerms(phi1=1.5, psi1=1.5,
                                                          phi2=0.7, psi2=0.7))]
    contexts += [make_context(s, random_relay(rng, s)) for s in scenarios]
    checked = {2: 0, 41: 0, 401: 0}
    for ctx in contexts:
        for r in checked:
            report = grid_oracle_nbs(ctx, r)
            if report.diagnostics:  # no grid point dominates the threat point
                continue
            sample = sample_utility_region(ctx, r)
            i, j = (int(np.flatnonzero(sample.axis == w)[0])
                    for w in (report.allocation.w1, report.allocation.w2))
            got = np.array([report.utilities.u1, report.utilities.u2])
            assert got.tobytes() == sample.utilities[i * r + j].tobytes()
            checked[r] += 1
    assert min(checked.values()) >= 10


def test_region_rejects_resolution(ctx450):
    with pytest.raises(ValueError):
        sample_utility_region(ctx450, resolution=1)


@pytest.fixture(scope="module")
def region450(ctx450):
    return sample_utility_region(ctx450, resolution=101)


def _inside_hull(points, hull_pts, tol):
    if len(hull_pts) == 1:
        return np.all(np.abs(points - hull_pts[0]) <= tol, axis=1)
    ok = np.ones(len(points), dtype=bool)
    for a, b in zip(hull_pts, np.roll(hull_pts, -1, axis=0)):
        cross = ((b[0] - a[0]) * (points[:, 1] - a[1])
                 - (b[1] - a[1]) * (points[:, 0] - a[0]))
        ok &= cross >= -tol
    return ok


def test_region_samples_inside_hull(region450):
    hull_pts = region450.utilities[region450.hull_indices]
    scale = float(np.abs(region450.utilities).max())
    inside = _inside_hull(region450.utilities, hull_pts, tol=1e-7 * scale * scale)
    assert bool(inside.all())


def test_region_contains_threat_point(region450, ctx450):
    hull_pts = region450.utilities[region450.hull_indices]
    scale = float(np.abs(region450.utilities).max())
    pt = np.array([[ctx450.threat.u1, ctx450.threat.u2]])
    assert bool(_inside_hull(pt, hull_pts, tol=1e-7 * scale * scale)[0])


def test_region_pareto_undominated(region450):
    hull_pts = region450.utilities[region450.hull_indices]
    pareto_pts = region450.utilities[region450.pareto_indices]
    for p in pareto_pts:
        dominated = np.any((hull_pts[:, 0] >= p[0] + 1e-9)
                           & (hull_pts[:, 1] >= p[1] + 1e-9))
        assert not dominated
    # ordered by increasing u1
    assert np.all(np.diff(pareto_pts[:, 0]) >= 0.0)


def test_hull_max_dominates_pure_oracle(ctx450):
    sample = sample_utility_region(ctx450, resolution=201)
    best = max_nash_product_on_pareto(sample, ctx450.threat)
    assert best is not None
    oracle = grid_oracle_nbs(ctx450, resolution=201)
    pure = nash_product(oracle.allocation, ctx450)
    hull_val = (best.u1 - ctx450.threat.u1) * (best.u2 - ctx450.threat.u2)
    assert hull_val >= pure - 1e-9 * abs(pure)
    assert 0.0 <= best.mu <= 1.0
