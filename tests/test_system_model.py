import math
from dataclasses import replace

import numpy as np
import pytest

from bandgame import (DegenerateGeometryError, Point, channel_gain,
                      distance, efficiency, link_budget, make_context,
                      snr_direct, snr_relayed)
from bandgame.bargaining import make_context_batch
from bandgame.system_model import link_budget_batch, select
from conftest import RELAY_450

# Frozen reference values, computed with 50-digit arithmetic from the exact
# rational gain/SNR chain of the bundled scenario (relay at (450, 450)).
D_S1_D1 = 398.77938763180827
H11_SQ = 3.8356672618953322e-12
H22_SQ = 3.8025495705677748e-12
H1R_SQ = 4.7901234567901235e-11
HR1_SQ = 5.9064385127192033e-11
H2R_SQ = 5.8131144786744310e-11
HR2_SQ = 5.2438836178070548e-11
GAMMA_11 = 3.8356672618953322
GAMMA_22 = 3.8025495705677748
GAMMA_R1 = 23.539688109005976
GAMMA_R2 = 24.125546648451999
F_3835_80 = 2.9990520716926957e-6


def test_distance_trivial():
    assert distance(Point(0, 0), Point(0, 0)) == 0.0
    assert distance(Point(0, 0), Point(3, 4)) == 5.0


def test_distance_paper_nodes(paper):
    assert distance(paper.source_1, paper.dest_1) == pytest.approx(D_S1_D1, rel=1e-14)


def test_channel_gain_unit_distance(paper):
    assert channel_gain(1.0, paper) == pytest.approx(0.097, rel=1e-15)


def test_channel_gain_value(paper):
    assert channel_gain(398.78, paper) == pytest.approx(3.8356437016845402e-12, rel=1e-12)


def test_channel_gain_zero_exponent(paper):
    from dataclasses import replace
    flat = replace(paper, pathloss_exp=0.0)
    for d in (0.5, 1.0, 123.4, 1e6):
        assert channel_gain(d, flat) == 0.097


def test_channel_gain_overflow_is_zero(paper):
    from dataclasses import replace
    # 1e100**4 overflows a float: the path-loss law's limit is a zero gain.
    assert channel_gain(1e100, paper) == 0.0
    assert channel_gain(1e300, replace(paper, pathloss_exp=2.0)) == 0.0
    assert channel_gain(1e75, paper) > 0.0


def test_channel_gain_degenerate(paper):
    with pytest.raises(DegenerateGeometryError):
        channel_gain(0.0, paper)
    with pytest.raises(DegenerateGeometryError):  # 1e-90**4 underflows to 0.0
        channel_gain(1e-90, paper)
    with pytest.raises(ValueError):
        channel_gain(-1.0, paper)


def test_snr_direct_trivial():
    assert snr_direct(0.0, 1e-11, 1e-13) == 0.0
    assert snr_direct(0.1, 1e-12, 1e-13) == pytest.approx(1.0, rel=1e-15)


def test_snr_direct_value():
    assert snr_direct(0.1, 3.835e-12, 1e-13) == pytest.approx(3.835, rel=1e-12)


def test_snr_relayed_trivial():
    assert snr_relayed(0.1, 0.0, 1e-11, 1e-11, 1e-13) == 0.0
    # both received powers equal to the noise floor: sigma^4 / (3 sigma^4)
    s2 = 1e-13
    assert snr_relayed(1.0, 1.0, s2, s2, s2) == pytest.approx(1.0 / 3.0, rel=1e-12)


_SIGNS = np.array([1.0, -1.0, 1.0])  # one negative entry


@pytest.mark.parametrize("helper, args, message", [
    (snr_direct, (0.1, 1e-12, 0.0), "sigma2"),
    (snr_direct, (0.1, 1e-12, -1e-13), "sigma2"),
    (snr_direct, (0.1, 1e-12, math.nan), "sigma2"),
    (snr_direct, (-0.1, 1e-12, 1e-13), "non-negative"),
    (snr_direct, (0.1, -1e-12, 1e-13), "non-negative"),
    (snr_direct, (0.1 * _SIGNS, 1e-12, 1e-13), "non-negative"),
    (snr_direct, (0.1, 1e-12 * _SIGNS, 1e-13), "non-negative"),
    (snr_relayed, (0.1, 0.1, 1e-11, 1e-11, 0.0), "sigma2"),
    (snr_relayed, (0.1, 0.1, 1e-11, 1e-11, -1e-13), "sigma2"),
    (snr_relayed, (0.1, 0.1, 1e-11, 1e-11, math.nan), "sigma2"),
    (snr_relayed, (-0.1, 0.1, 1e-11, 1e-11, 1e-13), "non-negative"),
    (snr_relayed, (0.1, -0.1, 1e-11, 1e-11, 1e-13), "non-negative"),
    (snr_relayed, (0.1, 0.1, -1e-11, 1e-11, 1e-13), "non-negative"),
    (snr_relayed, (0.1, 0.1, 1e-11, -1e-11, 1e-13), "non-negative"),
    (snr_relayed, (0.1 * _SIGNS, 0.1, 1e-11, 1e-11, 1e-13), "non-negative"),
    (snr_relayed, (0.1, 0.1, 1e-11 * _SIGNS, 1e-11, 1e-13), "non-negative"),
    (snr_relayed, (0.1, 0.1, 1e-11, 1e-11 * _SIGNS, 1e-13), "non-negative"),
])
def test_snr_rejects_bad_arguments(helper, args, message):
    with pytest.raises(ValueError, match=message):
        helper(*args)


def test_snr_relayed_paper_value(paper):
    got = snr_relayed(paper.p1, paper.p_r, H1R_SQ, HR1_SQ, paper.sigma2)
    assert got == pytest.approx(GAMMA_R1, rel=1e-12)


def test_snr_relayed_symmetry():
    rng = np.random.default_rng(7)
    for _ in range(200):
        p_i, p_r = rng.uniform(0.01, 1.0, 2)
        g_ir, g_ri = 10.0 ** rng.uniform(-13, -9, 2)
        s2 = 10.0 ** rng.uniform(-14, -12)
        a = snr_relayed(p_i, p_r, g_ir, g_ri, s2)
        b = snr_relayed(p_r, p_i, g_ri, g_ir, s2)
        assert a == pytest.approx(b, rel=1e-12)


def test_snr_relayed_bounded_by_hops():
    rng = np.random.default_rng(8)
    for _ in range(200):
        p_i, p_r = rng.uniform(0.0, 1.0, 2)
        g_ir, g_ri = 10.0 ** rng.uniform(-13, -9, 2)
        s2 = 10.0 ** rng.uniform(-14, -12)
        relayed = snr_relayed(p_i, p_r, g_ir, g_ri, s2)
        assert relayed <= min(snr_direct(p_i, g_ir, s2), snr_direct(p_r, g_ri, s2)) + 1e-15


def test_link_budget_paper_values(paper):
    budget = link_budget(paper, RELAY_450)
    u1, u2 = budget.user1, budget.user2
    assert u1.h_ii_sq == pytest.approx(H11_SQ, rel=1e-13)
    assert u1.h_ir_sq == pytest.approx(H1R_SQ, rel=1e-13)
    assert u1.h_ri_sq == pytest.approx(HR1_SQ, rel=1e-13)
    assert u2.h_ii_sq == pytest.approx(H22_SQ, rel=1e-13)
    assert u2.h_ir_sq == pytest.approx(H2R_SQ, rel=1e-13)
    assert u2.h_ri_sq == pytest.approx(HR2_SQ, rel=1e-13)
    assert u1.gamma_direct == pytest.approx(GAMMA_11, rel=1e-13)
    assert u2.gamma_direct == pytest.approx(GAMMA_22, rel=1e-13)
    assert u1.gamma_relayed == pytest.approx(GAMMA_R1, rel=1e-12)
    assert u2.gamma_relayed == pytest.approx(GAMMA_R2, rel=1e-12)


def test_link_budget_af_is_exact_sum(paper):
    rng = np.random.default_rng(9)
    for _ in range(50):
        relay = Point(float(rng.uniform(1, 700)), float(rng.uniform(1, 700)))
        budget = link_budget(paper, relay)
        for user in (budget.user1, budget.user2):
            assert user.gamma_af == user.gamma_direct + user.gamma_relayed


def test_link_budget_colocated_relay(paper):
    with pytest.raises(DegenerateGeometryError):
        link_budget(paper, paper.source_1)


def _budget_bits(budget) -> bytes:
    return np.array([getattr(user, name) for user in (budget.user1, budget.user2)
                     for name in user.__dataclass_fields__], dtype=float).tobytes()


def test_single_position_matches_batch_at_degenerate_geometry(paper):
    # One position's float path gives the batch's budget and context bit for
    # bit, or raises the batch's error: the same type, the same message.
    at_origin = replace(paper, source_1=Point(0.0, 0.0))
    cases = [
        (paper, paper.source_1, "co-located nodes"),
        # 1e-90 m from source_1, d**4 underflows; with dest_2 at 2e-90 m
        # too, user 1's link comes first and names the failure.
        (at_origin, Point(1e-90, 0.0), "nodes 1e-90 m apart"),
        (replace(at_origin, dest_2=Point(-1e-90, 0.0)), Point(1e-90, 0.0), "nodes 1e-90 m apart"),
        (paper, Point(1e100, 300.0), None),  # d**4 overflows: a zero gain, no failure
        (at_origin, Point(1e-76, 0.0), None),  # a gain of about 1e302
        (at_origin, Point(1e-79, 0.0), "relay too close"),  # the gain overflows, then an SNR
        (replace(paper, pathloss_exp=0.0), paper.dest_2, "co-located nodes"),  # 0**0 is 1
        # A relayed SNR's numerator and denominator both underflow to zero.
        (replace(paper, sigma2=1e-200), Point(1e60, 1e60), "noise power too small"),
    ]
    for scenario, relay, failure in cases:
        batch, failures = link_budget_batch(scenario, [relay.x], [relay.y])
        contexts, context_failures = make_context_batch(scenario, [relay.x], [relay.y])
        assert repr(failures[0]) == repr(context_failures[0])
        if failure is None:
            assert failures[0] is None, relay
            assert _budget_bits(link_budget(scenario, relay)) == _budget_bits(select(batch, 0))
            ctx = make_context(scenario, relay)
            assert np.array([ctx.ne_alloc.w1, ctx.ne_alloc.w2, ctx.threat.u1,
                             ctx.threat.u2]).tobytes() == np.array([
                contexts.ne_alloc.w1, contexts.ne_alloc.w2, contexts.threat.u1,
                contexts.threat.u2]).tobytes()
            continue
        assert str(failures[0]).startswith(failure), relay
        for single in (link_budget, make_context):
            with pytest.raises(DegenerateGeometryError) as raised:
                single(scenario, relay)
            assert (type(raised.value), str(raised.value)) == (type(failures[0]),
                                                               str(failures[0]))
    # Each scenario's relays in one batch, with an ordinary relay among them:
    # every slot holds its own position's budget or failure.
    batches = {}
    for scenario, relay, _ in cases:
        batches.setdefault(scenario, [Point(450.0, 650.0)]).append(relay)
    for scenario, relays in batches.items():
        xr, yr = [r.x for r in relays], [r.y for r in relays]
        batch, failures = link_budget_batch(scenario, xr, yr)
        contexts, context_failures = make_context_batch(scenario, xr, yr)
        assert failures[0] is None
        for k, relay in enumerate(relays):
            assert repr(failures[k]) == repr(context_failures[k]), relay
            try:
                budget, ctx = link_budget(scenario, relay), make_context(scenario, relay)
            except DegenerateGeometryError as exc:
                assert (type(exc), str(exc)) == (type(failures[k]), str(failures[k])), relay
                assert np.isnan([contexts.ne_alloc.w1[k], contexts.ne_alloc.w2[k]]).all()
                continue
            assert failures[k] is None, relay
            assert _budget_bits(budget) == _budget_bits(select(batch, k)), relay
            assert np.array([ctx.ne_alloc.w1, ctx.ne_alloc.w2]).tobytes() == np.array(
                [contexts.ne_alloc.w1[k], contexts.ne_alloc.w2[k]]).tobytes(), relay


def test_link_budget_far_relay(paper):
    budget = link_budget(paper, Point(1e9, 1e9))
    for user in (budget.user1, budget.user2):
        assert user.gamma_relayed < 1e-12
        assert user.gamma_af == pytest.approx(user.gamma_direct, rel=1e-9)


def test_link_budget_deterministic(paper):
    a = link_budget(paper, RELAY_450)
    b = link_budget(paper, RELAY_450)
    assert a == b


def test_efficiency_trivial():
    assert efficiency(0.0, 1) == 0.0
    assert efficiency(0.0, 80) == 0.0
    assert efficiency(2.0 * math.log(2.0), 1) == pytest.approx(0.5, rel=1e-14)


def test_efficiency_value():
    assert efficiency(3.835, 80) == pytest.approx(F_3835_80, rel=1e-12)


def test_efficiency_limits():
    assert efficiency(1e6, 80) == 1.0
    assert efficiency(1e-300, 80) == 0.0  # underflows cleanly


def test_efficiency_monotone():
    rng = np.random.default_rng(10)
    for _ in range(300):
        x = float(rng.uniform(0.0, 50.0))
        dx = float(rng.uniform(0.0, 10.0))
        m = int(rng.integers(1, 200))
        lo, hi = efficiency(x, m), efficiency(x + dx, m)
        assert 0.0 <= lo <= hi <= 1.0
        if x > 0:
            assert efficiency(x, m + int(rng.integers(1, 50))) <= lo


def test_efficiency_preconditions():
    with pytest.raises(ValueError):
        efficiency(-1.0, 80)
    with pytest.raises(ValueError):
        efficiency(1.0, 0)


def test_scenario_invariants(paper):
    from dataclasses import replace
    for field, bad in [("p1", 0.0), ("p2", -1.0), ("p_r", 0.0),
                       ("sigma2", 0.0), ("omega", 0.0), ("b", -1e-6),
                       ("alpha", 0.0), ("M", 0), ("pathloss_const", 0.0),
                       ("pathloss_const", -0.097), ("pathloss_exp", -1.0),
                       ("pathloss_exp", math.nan)]:
        with pytest.raises(ValueError, match=field):
            replace(paper, **{field: bad})


def test_point_finite():
    with pytest.raises(ValueError):
        Point(math.nan, 0.0)
    with pytest.raises(ValueError):
        Point(0.0, math.inf)
