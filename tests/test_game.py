import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from bandgame import (BandAllocation, LinkBudget, MarginalTerms, UserLink,
                      best_response, best_response_iteration, link_budget,
                      marginal_terms, nash_equilibrium, utility_pair,
                      utility_partial)
from conftest import RELAY_450, random_scenario

# 50-digit reference values for the bundled scenario, relay at (450, 450).
PHI1 = 2.4102982725693671e-5
PSI1 = 4.4440404223773692
PHI2 = 1.9143259288762797e-5
PSI2 = 4.4441379774965443
U1_QUARTER = -138971.81716861342
U2_QUARTER = -138951.14818139735
W1_NE = 148130.46015173438
W2_NE = 148140.71163599559
U1_NE = 219450.43523037137
U2_NE = 219475.84769948074


@pytest.fixture(scope="module")
def terms_450(paper):
    return marginal_terms(link_budget(paper, RELAY_450), paper)


def _fake_budget(g_direct, g_relayed):
    link = UserLink(h_ii_sq=0.0, h_ir_sq=0.0, h_ri_sq=0.0,
                    gamma_direct=g_direct, gamma_relayed=g_relayed,
                    gamma_af=g_direct + g_relayed)
    return LinkBudget(user1=link, user2=link)


def test_marginal_terms_paper_values(terms_450):
    assert terms_450.phi1 == pytest.approx(PHI1, rel=1e-12)
    assert terms_450.psi1 == pytest.approx(PSI1, rel=1e-12)
    assert terms_450.phi2 == pytest.approx(PHI2, rel=1e-12)
    assert terms_450.psi2 == pytest.approx(PSI2, rel=1e-12)


def test_marginal_terms_zero_snr(paper):
    terms = marginal_terms(_fake_budget(0.0, 0.0), paper)
    assert terms.phi1 == 0.0 and terms.psi1 == 0.0


def test_marginal_terms_af_collapse(paper):
    # negligible relay power and no relayed SNR: psi -> phi * p/(p + p_r)
    tiny = replace(paper, p_r=1e-12)
    terms = marginal_terms(_fake_budget(5.0, 0.0), tiny)
    assert terms.psi1 == pytest.approx(terms.phi1, rel=1e-9)


def test_utility_no_relay_band(terms_450, paper):
    alloc = BandAllocation(0.0, 123456.0)
    assert utility_pair(alloc, terms_450, paper).u(1) == terms_450.phi1 * paper.omega


def test_utility_full_band_no_pricing(terms_450, paper):
    free = replace(paper, b=0.0)
    alloc = BandAllocation(paper.omega, 0.0)
    assert utility_pair(alloc, terms_450, free).u(1) == pytest.approx(
        terms_450.psi1 * paper.omega, rel=1e-12)


def test_utility_paper_value(terms_450, paper):
    alloc = BandAllocation(paper.omega / 4.0, paper.omega / 4.0)
    assert utility_pair(alloc, terms_450, paper).u(1) == pytest.approx(U1_QUARTER, rel=1e-11)
    assert utility_pair(alloc, terms_450, paper).u(2) == pytest.approx(U2_QUARTER, rel=1e-11)


def test_utility_partial_no_pricing(terms_450, paper):
    free = replace(paper, b=0.0)
    for w in (0.0, 1e5, 9e5):
        got = utility_partial(1, BandAllocation(w, 2e5), terms_450, free)
        assert got == terms_450.psi1 - terms_450.phi1


def test_utility_partial_stationary_point(terms_450, paper):
    w_j = 2.0e5
    c = terms_450.psi1 - terms_450.phi1
    w_i = (c - paper.b * w_j) / (2.0 * paper.b)
    got = utility_partial(1, BandAllocation(w_i, w_j), terms_450, paper)
    assert abs(got) <= 1e-12 * max(1.0, abs(c))


def test_utility_partial_matches_finite_differences(paper):
    rng = np.random.default_rng(11)
    for _ in range(20):
        scenario = random_scenario(rng)
        terms = MarginalTerms(*rng.uniform(0.0, 5.0, size=4))
        h = 1e-6 * scenario.omega
        for _ in range(5):
            w1, w2 = rng.uniform(0.05, 0.95, 2) * scenario.omega
            for i in (1, 2):
                up = BandAllocation(w1 + h if i == 1 else w1, w2 + h if i == 2 else w2)
                dn = BandAllocation(w1 - h if i == 1 else w1, w2 - h if i == 2 else w2)
                fd = (utility_pair(up, terms, scenario).u(i)
                      - utility_pair(dn, terms, scenario).u(i)) / (2 * h)
                an = utility_partial(i, BandAllocation(w1, w2), terms, scenario)
                assert an == pytest.approx(fd, rel=1e-6, abs=1e-9 * max(1.0, abs(an)))


def test_best_response_never_profitable(paper):
    terms = MarginalTerms(phi1=2.0, psi1=1.0, phi2=2.0, psi2=2.0)
    assert best_response(1, 1e5, terms, paper) == 0.0
    assert best_response(2, 1e5, terms, paper) >= 0.0


def test_best_response_clamps_at_cap(paper):
    # relay advantage larger than b*(w_j + 2*omega) forces the full band
    terms = MarginalTerms(phi1=0.0, psi1=paper.b * 3.1e6, phi2=0.0, psi2=0.1)
    assert best_response(1, paper.omega, terms, paper) == paper.omega


def test_best_response_matches_grid_search(paper):
    rng = np.random.default_rng(12)
    grid = np.linspace(0.0, paper.omega, 100_001)
    step = paper.omega / 100_000
    for _ in range(20):
        terms = MarginalTerms(*rng.uniform(0.0, 6.0, size=4))
        w_j = float(rng.uniform(0.0, paper.omega))
        for i in (1, 2):
            utils = (terms.phi(i) * (paper.omega - grid) + terms.psi(i) * grid
                     - paper.b * (grid + w_j) * grid)
            best_grid = grid[int(np.argmax(utils))]
            got = best_response(i, w_j, terms, paper)
            assert abs(got - best_grid) <= step + 1e-9


def test_best_response_zero_pricing(paper):
    free = replace(paper, b=0.0)
    up = MarginalTerms(phi1=1.0, psi1=2.0, phi2=1.0, psi2=2.0)
    down = MarginalTerms(phi1=2.0, psi1=1.0, phi2=2.0, psi2=1.0)
    tie = MarginalTerms(phi1=1.0, psi1=1.0, phi2=1.0, psi2=1.0)
    assert best_response(1, 0.0, up, free) == free.omega
    assert best_response(1, 0.0, down, free) == 0.0
    with pytest.warns(RuntimeWarning):
        assert best_response(1, 0.0, tie, free) == 0.0


def test_best_response_non_increasing(paper):
    rng = np.random.default_rng(13)
    for _ in range(100):
        terms = MarginalTerms(*rng.uniform(0.0, 6.0, size=4))
        w_a, w_b = sorted(rng.uniform(0.0, paper.omega, 2))
        for i in (1, 2):
            assert (best_response(i, w_a, terms, paper)
                    >= best_response(i, w_b, terms, paper) - 1e-9)


def test_nash_equilibrium_matches_batch(paper):
    # The float path takes the batch's clamp pattern, bit for bit: at a zero
    # price, where an interior coordinate needs a tie within the slack; at
    # tiny prices, where dividing by 3b or 2b overflows; at relay advantages
    # a few tol_w*b from the corners' and around zero, and whose interior
    # coordinate lies on the box's tolerance; and on NaN terms.
    omega = paper.omega
    tol = 1e-12 * omega
    near = [0.0, 0.5e-12, -0.5e-12, 2e-12, 1.0, -1.0, math.nan]
    for price in (0.0, 5e-324, 1e-300, 1e-30, paper.b):
        advantages = near + [price * (base + tol * k) for base in (0.0, 3.0 * omega, omega)
                             for k in (-2.6, -1.0, -0.4, 0.0, 0.4, 1.0)]
        advantages += [2.0 * price * (omega + tol), 2.0 * price * -tol]
        c1, c2 = (np.array(c) for c in zip(*((x, y) for x in advantages for y in advantages)))
        zero = np.zeros_like(c1)
        scenario = replace(paper, b=price)
        batch = nash_equilibrium(
            MarginalTerms(phi1=zero, psi1=c1, phi2=zero, psi2=c2), scenario).allocation
        for k in range(len(c1)):
            terms = MarginalTerms(phi1=0.0, psi1=c1[k].item(), phi2=0.0, psi2=c2[k].item())
            alloc = nash_equilibrium(terms, scenario).allocation
            assert type(alloc.w1) is type(alloc.w2) is float
            assert np.array([alloc.w1, alloc.w2]).tobytes() == np.array(
                [batch.w1[k], batch.w2[k]]).tobytes(), (price, c1[k], c2[k])


def test_nash_equilibrium_on_numpy_scalars(paper):
    # numpy-scalar terms are one position: the floats' report, bit for bit,
    # with no numpy warning where c/(3b) overflows at the smallest price.
    scenario = replace(paper, b=5e-324)
    floats = nash_equilibrium(MarginalTerms(0.0, 1.0, 0.0, 2.0), scenario)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = nash_equilibrium(MarginalTerms(np.float64(0.0), np.float64(1.0),
                                                np.float64(0.0), np.float64(2.0)), scenario)
    values = (report.allocation.w1, report.allocation.w2,
              report.utilities.u1, report.utilities.u2)
    assert all(type(x) is float for x in values)
    assert np.array(values).tobytes() == np.array([
        floats.allocation.w1, floats.allocation.w2,
        floats.utilities.u1, floats.utilities.u2]).tobytes()
    assert report.converged is True


def test_nash_equilibrium_relay_useless(paper):
    terms = MarginalTerms(phi1=2.0, psi1=1.0, phi2=3.0, psi2=1.0)
    report = nash_equilibrium(terms, paper)
    assert report.allocation == BandAllocation(0.0, 0.0)
    assert report.converged


def test_nash_equilibrium_symmetric_interior(paper):
    c = 3.0 * paper.b * 1.0e5  # interior by construction: w = c/(3b) = 1e5
    terms = MarginalTerms(phi1=1.0, psi1=1.0 + c, phi2=1.0, psi2=1.0 + c)
    report = nash_equilibrium(terms, paper)
    assert report.allocation.w1 == pytest.approx(1.0e5, rel=1e-12)
    assert report.allocation.w2 == pytest.approx(1.0e5, rel=1e-12)


def test_nash_equilibrium_paper_values(terms_450, paper):
    report = nash_equilibrium(terms_450, paper)
    assert report.kind == "NE"
    assert report.converged
    assert report.allocation.w1 == pytest.approx(W1_NE, rel=1e-9)
    assert report.allocation.w2 == pytest.approx(W2_NE, rel=1e-9)
    assert report.utilities.u1 == pytest.approx(U1_NE, rel=1e-11)
    assert report.utilities.u2 == pytest.approx(U2_NE, rel=1e-11)


def test_nash_equilibrium_matches_iteration(terms_450, paper):
    report = nash_equilibrium(terms_450, paper)
    alloc, _, _, ok = best_response_iteration(terms_450, paper)
    assert ok
    assert abs(report.allocation.w1 - alloc.w1) <= 1e-6 * paper.omega
    assert abs(report.allocation.w2 - alloc.w2) <= 1e-6 * paper.omega


def test_nash_equilibrium_kkt_conditions():
    rng = np.random.default_rng(14)
    for _ in range(300):
        scenario = random_scenario(rng)
        terms = MarginalTerms(*rng.uniform(0.0, 8.0, size=4))
        report = nash_equilibrium(terms, scenario)
        alloc = report.allocation
        for i in (1, 2):
            w = alloc.w(i)
            c = terms.relay_advantage(i)
            partial = utility_partial(i, alloc, terms, scenario)
            slack = 1e-9 * max(1.0, abs(c))
            assert 0.0 <= w <= scenario.omega
            if 0.0 < w < scenario.omega:
                assert abs(partial) <= slack
            elif w == 0.0:
                assert partial <= slack
            else:
                assert partial >= -slack


def test_nash_equilibrium_closed_form_vs_iteration_randomized():
    rng = np.random.default_rng(15)
    for _ in range(200):
        scenario = random_scenario(rng)
        terms = MarginalTerms(*rng.uniform(0.0, 8.0, size=4))
        report = nash_equilibrium(terms, scenario)
        alloc, _, _, ok = best_response_iteration(terms, scenario)
        assert ok
        assert abs(report.allocation.w1 - alloc.w1) <= 1e-6 * scenario.omega
        assert abs(report.allocation.w2 - alloc.w2) <= 1e-6 * scenario.omega


def test_nash_equilibrium_no_profitable_deviation():
    rng = np.random.default_rng(16)
    for _ in range(50):
        scenario = random_scenario(rng)
        terms = MarginalTerms(*rng.uniform(0.0, 8.0, size=4))
        report = nash_equilibrium(terms, scenario)
        ne_alloc, ne_u = report.allocation, report.utilities
        for i in (1, 2):
            base = ne_u.u(i)
            for w in rng.uniform(0.0, scenario.omega, 100):
                dev = (BandAllocation(float(w), ne_alloc.w2) if i == 1
                       else BandAllocation(ne_alloc.w1, float(w)))
                assert utility_pair(dev, terms, scenario).u(i) <= base + 1e-12 * max(1.0, abs(base))


def test_nash_equilibrium_zero_pricing_corner():
    rng = np.random.default_rng(17)
    scenario = replace(random_scenario(rng), b=0.0)
    terms = MarginalTerms(phi1=1.0, psi1=2.0, phi2=2.0, psi2=1.0)
    report = nash_equilibrium(terms, scenario)
    assert report.allocation == BandAllocation(scenario.omega, 0.0)


def test_utility_concave_in_own_band():
    rng = np.random.default_rng(18)
    for _ in range(200):
        scenario = random_scenario(rng)
        terms = MarginalTerms(*rng.uniform(0.0, 8.0, size=4))
        i = int(rng.integers(1, 3))
        w_j = float(rng.uniform(0.0, scenario.omega))
        a, c = sorted(rng.uniform(0.0, scenario.omega, 2))
        lam = float(rng.uniform(0.0, 1.0))
        mid = lam * a + (1 - lam) * c

        def u(w):
            alloc = BandAllocation(w, w_j) if i == 1 else BandAllocation(w_j, w)
            return utility_pair(alloc, terms, scenario).u(i)

        chord = lam * u(a) + (1 - lam) * u(c)
        assert u(mid) >= chord - 1e-9 * max(1.0, abs(chord))
