import io
import math
import re
import sys
import warnings
from dataclasses import replace

import numpy as np
import pytest

import loop_reference
from bandgame import (BandAllocation, MarginalTerms, Point, SweepGrid,
                      UtilityPair, bandwidth_gain, concavity_map, eigenvalues,
                      exact_nbs, hessian, is_strictly_concave_at,
                      make_context, nash_equilibrium, social_welfare_gain,
                      sweep)
from bandgame import cli
from bandgame.bargaining import NO_BARGAIN_NOTE
from bandgame.cli import sweep_csv
from bandgame.game import nash_equilibrium_batch
from conftest import RELAY_450, random_scenario, rows


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
    # Non-finite values would leave the axis loop without an end.
    for bad in ({"step": math.inf}, {"step": math.nan}, {"x_max": math.inf},
                {"y_min": -math.inf}, {"y_max": math.nan}):
        with pytest.raises(ValueError):
            SweepGrid(**{"step": 10.0, **bad})
    xr, yr = SweepGrid(step=50.0).positions()
    assert len(xr) == len(yr) == 225  # 15 x 15 over [0, 700]^2
    xr, yr = SweepGrid(step=700.0).positions()
    assert _bits(xr) == _bits([0.0, 0.0, 700.0, 700.0])
    assert _bits(yr) == _bits([0.0, 700.0, 0.0, 700.0])


def single_position_grid(p: Point) -> SweepGrid:
    return SweepGrid(step=1.0, x_min=p.x, x_max=p.x + 0.5,
                     y_min=p.y, y_max=p.y + 0.5)


def test_sweep_single_position_composes(paper):
    records = rows(sweep(paper, single_position_grid(RELAY_450)))
    assert len(records) == 1
    r = records[0]
    assert r.failure is None

    ctx = make_context(paper, RELAY_450)
    ne = nash_equilibrium(ctx.terms, paper)
    nbs = exact_nbs(ctx)
    assert r.ne == ne.allocation
    assert r.ne_u == ne.utilities
    assert r.nbs == nbs.allocation
    assert r.nbs_u == nbs.utilities
    assert r.bargain == (NO_BARGAIN_NOTE not in nbs.diagnostics)
    assert r.gain_bw_u1_pct == bandwidth_gain(ne.allocation.w1, nbs.allocation.w1)
    assert r.gain_bw_total_pct == bandwidth_gain(
        ne.allocation.w1 + ne.allocation.w2, nbs.allocation.w1 + nbs.allocation.w2)
    assert r.gain_sw_pct == social_welfare_gain(ne.utilities, nbs.utilities)
    eig = eigenvalues(hessian(nbs.allocation, ctx))
    assert (r.lambda1, r.lambda2) == (eig.lambda1, eig.lambda2)
    assert r.strictly_concave == (eig.lambda2 < 0.0)


def test_sweep_at_the_smallest_price(paper):
    # At b = 5e-324 the interior coordinates c/(3b) and c/(2b) overflow: the
    # sweep warns of nothing, and each row's equilibrium is the one-position
    # one, bit for bit.
    tiny = replace(paper, b=5e-324)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = rows(sweep(tiny, SweepGrid(step=100.0)))
    solved = 0
    for r in records:
        relay = Point(r.xr, r.yr)
        if r.failure is not None:
            with pytest.raises(ValueError, match=re.escape(r.failure)):
                make_context(tiny, relay)
            continue
        ctx = make_context(tiny, relay)
        alloc = nash_equilibrium(ctx.terms, tiny).allocation
        assert (_bits([r.ne.w1, r.ne.w2]) == _bits([alloc.w1, alloc.w2])
                == _bits([ctx.ne_alloc.w1, ctx.ne_alloc.w2])), relay
        solved += 1
    assert solved == len(records) - 1  # the relay on a node fails


def test_sweep_useless_relay(paper):
    # At 1e100 m, d**4 overflows: the relay links get the limit gain of zero.
    far = SweepGrid(step=1e100, x_min=1e100, x_max=1.5e100, y_min=0.0, y_max=0.5)
    for grid in (single_position_grid(Point(1e6, 1e6)), far):
        records = rows(sweep(paper, grid))
        assert len(records) == 1
        r = records[0]
        assert r.failure is None
        assert r.ne == BandAllocation(0.0, 0.0)
        assert r.nbs == BandAllocation(0.0, 0.0)
        assert not r.bargain
        assert (r.gain_bw_u1_pct, r.gain_bw_u2_pct, r.gain_bw_total_pct) == (0.0, 0.0, 0.0)
        assert r.gain_sw_pct == 0.0


def test_sweep_degenerate_position_recorded(paper):
    # A relay on a node, one so close to a node that d**4 underflows, and one
    # so close that the relayed SNR overflows (inf / inf).
    at_origin = replace(paper, source_1=Point(0.0, 0.0))
    for scenario, relay in ((paper, paper.source_1), (at_origin, Point(1e-90, 0.0)),
                            (at_origin, Point(1e-80, 0.0))):
        records = rows(sweep(scenario, single_position_grid(relay)))
        r = records[0]
        assert r.failure is not None
        assert not r.bargain
        for value in (r.ne.w1, r.ne.w2, r.ne_u.u1, r.ne_u.u2, r.nbs.w1, r.nbs.w2,
                      r.nbs_u.u1, r.nbs_u.u2, r.lambda1, r.lambda2):
            assert math.isnan(value)
        assert r.gain_bw_total_pct == 0.0 and r.gain_sw_pct == 0.0
        assert not r.strictly_concave


def test_sweep_deterministic(paper):
    grid = SweepGrid(step=175.0)
    a, b = io.BytesIO(), io.BytesIO()
    sweep_csv(sweep(paper, grid), a)
    sweep_csv(sweep(paper, grid), b)
    assert a.getvalue() == b.getvalue()


def test_sweep_records_sorted_and_flagged(paper):
    records = rows(sweep(paper, SweepGrid(step=175.0)))
    pos = [(r.xr, r.yr) for r in records]
    assert pos == sorted(pos)


def test_sweep_invariants(paper):
    records = rows(sweep(paper, SweepGrid(step=100.0)))
    for r in records:
        if r.failure is not None:
            continue
        for i in (1, 2):
            ne_u, nbs_u = r.ne_u.u(i), r.nbs_u.u(i)
            assert nbs_u >= ne_u - 1e-12 * abs(ne_u)
        if r.strictly_concave:
            assert r.gain_sw_pct >= -1e-9


def test_concavity_map_composes(paper):
    records = rows(concavity_map(paper, single_position_grid(RELAY_450)))
    assert len(records) == 1
    r = records[0]
    ctx = make_context(paper, RELAY_450)
    nbs = exact_nbs(ctx).allocation
    assert r.strictly_concave == is_strictly_concave_at(nbs, ctx)
    eig = eigenvalues(hessian(nbs, ctx))
    assert (r.lambda1, r.lambda2) == (eig.lambda1, eig.lambda2)


def test_concavity_map_agrees_with_sweep(paper):
    conc = rows(concavity_map(paper, SweepGrid(step=100.0)))
    fine = {(r.xr, r.yr): r for r in rows(sweep(paper, SweepGrid(step=50.0)))}
    assert len(conc) == 64
    for r in conc:
        s = fine[(r.xr, r.yr)]
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
    records = rows(concavity_map(scenario, grid))
    assert len(records) == 9
    clean = [r for r in records if r.failure is None]
    assert clean, "every position failed, nothing was actually checked"
    for r in clean:
        assert not r.strictly_concave


def test_concavity_map_degenerate_position(paper):
    records = rows(concavity_map(paper, single_position_grid(paper.source_1)))
    assert records[0].failure is not None
    assert math.isnan(records[0].lambda1)
    assert not records[0].strictly_concave


def _bits(values) -> bytes:
    return np.array(values, dtype=float).tobytes()


def _assert_sweep_matches_loop(scenario, grid) -> tuple:
    """Compare ``sweep`` with the per-position reference loop, and at every
    position with the single-position API (whose context is computed on
    floats); returns the number of bargains and of rows whose bargain moved
    within tolerance.

    Failures carry the same message. The equilibrium, its utilities and the
    bargain/no-bargain status are bit-equal. The bargaining allocation is
    within 1e-13*omega, because the batch sums the quartic's coefficients in
    another order than ``np.convolve``; where it is bit-equal, so is every
    other value of the row, and where it is not, every other value is within
    the bounds of :func:`_assert_moved_cells`. The concavity flag is always
    the same.
    """
    records = sweep(scenario, grid)
    xr, yr = grid.positions()
    assert _bits([records.xr, records.yr]) == _bits([xr, yr])
    bargains = moved = 0
    for r in rows(records):
        relay = Point(r.xr, r.yr)
        ref = loop_reference.position(scenario, relay)
        if isinstance(ref, str):
            assert r.failure == ref, relay
            with pytest.raises((ValueError, RuntimeError), match="^" + re.escape(ref) + "$"):
                make_context(scenario, relay)
            continue
        assert r.failure is None, relay
        ctx = make_context(scenario, relay)
        nbs = exact_nbs(ctx)
        eig = eigenvalues(hessian(nbs.allocation, ctx))
        assert _bits([ctx.ne_alloc.w1, ctx.ne_alloc.w2, ctx.threat.u1, ctx.threat.u2]) == _bits(
            [r.ne.w1, r.ne.w2, r.ne_u.u1, r.ne_u.u2]), relay
        assert (nbs.allocation, nbs.utilities, NO_BARGAIN_NOTE not in nbs.diagnostics) == (
            r.nbs, r.nbs_u, r.bargain), relay
        assert _bits([eig.lambda1, eig.lambda2]) == _bits([r.lambda1, r.lambda2]), relay
        assert _bits([r.ne.w1, r.ne.w2]) == _bits(ref["ne"]), relay
        assert _bits([r.ne_u.u1, r.ne_u.u2]) == _bits(ref["ne_u"]), relay
        assert r.bargain == ref["bargain"], relay
        bargains += ref["bargain"]
        nbs = [r.nbs.w1, r.nbs.w2]
        if _bits(nbs) == _bits(ref["nbs"]):
            got = [r.nbs_u.u1, r.nbs_u.u2, r.gain_bw_u1_pct,
                   r.gain_bw_u2_pct, r.gain_bw_total_pct, r.gain_sw_pct,
                   r.lambda1, r.lambda2]
            assert _bits(got) == _bits([*ref["nbs_u"], *ref["gains"], *ref["lambdas"]]), relay
        else:
            moved += 1
            assert np.abs(np.subtract(nbs, ref["nbs"])).max() <= 1e-13 * scenario.omega, relay
            _assert_moved_cells(r, ref, scenario, relay)
        assert r.strictly_concave == (ref["lambdas"][1] < 0.0), relay
    return bargains, moved


def _assert_moved_cells(r, ref, scenario, relay) -> None:
    """Check ``nbs_u``, the four gains and the two eigenvalues of a row whose
    bargaining allocation is within step = 1e-13*omega of the loop
    reference's per user, but not bit-equal to it.

    Each value is a function of the allocation, so it may move by its
    largest first-order change under that move, counted twice, plus the
    rounding of its evaluation. With c_i = psi_i - phi_i, C = max |c_i|,
    P = C + 4*b*omega and U = omega*max(|phi_i|, |psi_i|, b*omega):

    - a utility u_i, whose partials are c_i - b*(2*w_i + w_j) and -b*w_i,
      moves by at most step*P: bound du = 2*step*P + 1e-14*U;
    - a band gain 100*(ne - nbs)/ne moves by 100*step/ne, and the total
      band's by 100*2*step/(ne1 + ne2): bound twice that plus
      1e-13*(100 + |gain|), and 0 where ne is 0 (the gain is then 0);
    - the welfare gain 100*(sum nbs_u - sum ne_u)/sum ne_u moves by
      100*2*du/|sum ne_u|: bound that plus 1e-13*(100 + |gain|), and a NaN
      gain stays NaN;
    - an eigenvalue moves by at most the spectral norm of the Hessian's
      change, and with d_i = u_i - threat_i each Hessian entry moves by at
      most 4*b*step*P (diagonal) or 8*b*step*P (off-diagonal), so by at
      most 12*b*step*P: bound twice that plus 1e-14*(P**2 + b*U).
    """
    (phi1, psi1), (phi2, psi2) = loop_reference.terms(scenario, relay)
    b, omega = scenario.b, scenario.omega
    step = 1e-13 * omega
    big_p = max(abs(psi1 - phi1), abs(psi2 - phi2)) + 4.0 * b * omega
    big_u = omega * max(abs(phi1), abs(psi1), abs(phi2), abs(psi2), b * omega)
    du = 2.0 * step * big_p + 1e-14 * big_u
    dlam = 2.0 * 12.0 * b * step * big_p + 1e-14 * (big_p ** 2 + b * big_u)
    ne1, ne2 = ref["ne"]
    ne_sum = sum(ref["ne_u"])  # the welfare gain is NaN where it is not positive
    gains = ref["gains"]

    def share(move, whole, gain):
        return 0.0 if whole == 0.0 else 2.0 * 100.0 * move / whole + 1e-13 * (100.0 + abs(gain))

    bounds = [du, du, share(step, ne1, gains[0]), share(step, ne2, gains[1]),
              share(2.0 * step, ne1 + ne2, gains[2]),
              100.0 * 2.0 * du / ne_sum + 1e-13 * (100.0 + abs(gains[3])) if ne_sum > 0.0 else 0.0,
              dlam, dlam]
    got = [r.nbs_u.u1, r.nbs_u.u2, r.gain_bw_u1_pct, r.gain_bw_u2_pct,
           r.gain_bw_total_pct, r.gain_sw_pct, r.lambda1, r.lambda2]
    want = [*ref["nbs_u"], *gains, *ref["lambdas"]]
    for g, w, bound in zip(got, want, bounds):
        if math.isnan(w):
            assert math.isnan(g), relay
        else:
            assert abs(g - w) <= bound, (relay, g, w, bound)


def test_sweep_matches_loop_reference(paper):
    at_origin = replace(paper, source_1=Point(0.0, 0.0))
    cases = [
        (paper, SweepGrid(step=25.0)),
        (replace(paper, b=0.0), SweepGrid(step=50.0)),
        # (300, 300) is on source_1; at 1e100 m, d**4 overflows.
        (paper, SweepGrid(step=1e100, x_min=300.0, x_max=1e100, y_min=300.0, y_max=301.0)),
        # At 1e-90 m from source_1, d**4 underflows; with dest_2 at 2e-90 m
        # too, the first failing link names the failure.
        (at_origin, SweepGrid(step=1e100, x_min=1e-90, x_max=1e100, y_min=0.0, y_max=1.0)),
        (replace(at_origin, dest_2=Point(-1e-90, 0.0)),
         SweepGrid(step=1e100, x_min=1e-90, x_max=1e100, y_min=0.0, y_max=1.0)),
    ]
    rng = np.random.default_rng(61)
    cases += [(random_scenario(rng), SweepGrid(step=100.0)) for _ in range(20)]
    bargains = moved = 0
    for scenario, grid in cases:
        b, m = _assert_sweep_matches_loop(scenario, grid)
        bargains, moved = bargains + b, moved + m
    assert bargains > 100, "too few bargains for the comparison to check the solver"
    assert moved < bargains


def test_equilibrium_batch_matches_loop_at_pattern_ties(paper):
    # Interior equilibria within tol_w of a box bound, and zero-price relay
    # advantages within the slack of zero, satisfy several clamp patterns
    # with different allocations: the pattern order decides, bit for bit.
    omega = paper.omega
    tol = 1e-12 * omega
    near = (-0.5 * tol, 0.5 * tol, 0.3 * omega, omega - 0.5 * tol, omega + 0.5 * tol)
    cases = []
    b = paper.b
    cases += [(b, b * (2.0 * w1 + w2), b * (2.0 * w2 + w1)) for w1 in near for w2 in near]
    # Advantages a few tol_w*b from those of the zero and full-band corners:
    # here the interior pattern can fail while two clamped ones both hold.
    steps = (-2.6, -1.8, -1.0, -0.4, 0.4, 1.0)
    near_c = [b * (base + tol * k) for base in (0.0, 3.0 * omega) for k in steps]
    cases += [(b, c1, c2) for c1 in near_c for c2 in near_c]
    ties = (-0.5e-12, 0.0, 0.5e-12, 1.0, -1.0)
    cases += [(0.0, c1, c2) for c1 in ties for c2 in ties]
    ambiguous = 0
    for price in (b, 0.0):
        rows = [(c1, c2) for p, c1, c2 in cases if p == price]
        c1, c2 = np.array(rows).T
        terms = MarginalTerms(phi1=np.zeros_like(c1), psi1=c1, phi2=np.zeros_like(c2), psi2=c2)
        got = nash_equilibrium_batch(terms, replace(paper, b=price))
        ref = [loop_reference.nash_equilibrium(x, y, price, omega) for x, y in rows]
        assert _bits(np.column_stack([got.w1, got.w2])) == _bits(ref)
        for x, y in rows:
            found = {loop_reference._kkt_candidate((s1, s2), x, y, price, omega)
                     for s1 in range(3) for s2 in range(3)} - {None}
            ambiguous += len(found) > 1
    assert ambiguous >= 20, "the cases must make the pattern order matter"


def test_sweep_unit_invariance(paper):
    # Rescaling the utilities (alpha*k, b*k) or the band (omega*k, b/k) is a
    # change of units: the equilibrium and the bargaining solution, in the
    # rescaled band's units, and the concavity flags must not move.
    rng = np.random.default_rng(83)
    grid = SweepGrid(step=100.0)
    for scenario in [paper] + [random_scenario(rng) for _ in range(3)]:
        base = sweep(scenario, grid)
        ok = np.equal(base.failure, None)
        cases = [(replace(scenario, alpha=scenario.alpha * k, b=scenario.b * k), 1.0)
                 for k in (1e-100, 1e-12, 1e-9, 1e100, 1e140, 1e160, 1e200)]
        cases += [(replace(scenario, omega=scenario.omega * k, b=scenario.b / k), k)
                  for k in (1e-100, 1e-12, 1e100)]
        for rescaled, k in cases:
            got = sweep(rescaled, grid)
            assert np.array_equal(np.equal(got.failure, None), ok)
            for want, alloc in ((base.ne, got.ne), (base.nbs, got.nbs)):
                for w, a in ((want.w1, alloc.w1), (want.w2, alloc.w2)):
                    assert np.isnan(a[~ok]).all()
                    error = np.abs(a[ok] - k * w[ok]).max()
                    assert error <= 1e-12 * rescaled.omega, (rescaled, error / rescaled.omega)
            assert np.array_equal(got.strictly_concave, base.strictly_concave), rescaled


def _forbidden(*args):
    raise AssertionError("a per-element math call in the sweep path")


def _line_events(scenario, grid) -> int:
    """Lines of ``bandgame`` run by ``sweep(scenario, grid)``, leaving out
    ``SweepGrid.axis``, which builds one axis of the grid."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def calls(frame, event, arg):
        code = frame.f_code
        if "bandgame" in code.co_filename and code.co_name != "axis":
            return local
        return None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        sweep(scenario, grid)
    finally:
        sys.settrace(previous)
    return count


def test_sweep_has_no_per_element_python(paper, monkeypatch, tmp_path):
    # The link budget, the efficiency curve, the eigenvalue square and the
    # CSV cells are array passes: no math call per link or SNR, no Python
    # line run once per position, one formatting pass per CSV block.
    monkeypatch.setattr(math, "hypot", _forbidden)
    monkeypatch.setattr(math, "expm1", _forbidden)
    at_origin = replace(paper, source_1=Point(0.0, 0.0))
    for scenario, grid in (
            (paper, SweepGrid(step=25.0)),
            (replace(paper, b=0.0), SweepGrid(step=25.0)),
            (paper, SweepGrid(step=1e100, x_min=300.0, x_max=1e100, y_min=300.0, y_max=301.0)),
            (at_origin, SweepGrid(step=1e100, x_min=1e-90, x_max=1e100, y_min=0.0, y_max=1.0))):
        # Each grid holds one failed position: on source_1, or 1e-90 m from it.
        failed = np.not_equal(sweep(scenario, grid).failure, None)
        assert np.count_nonzero(failed) == 1 and len(failed) > 1
    assert _line_events(paper, SweepGrid(step=25.0)) == _line_events(paper, SweepGrid(step=50.0))

    calls, decimal = [], cli._decimal

    def counted(x):
        calls.append(len(x))
        return decimal(x)

    monkeypatch.setattr(cli, "_decimal", counted)
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 300)
    out = tmp_path / "sweep.csv"
    assert cli.main(["sweep", "--scenario", str(cli.paper_scenario_path()),
                     "--step", "25", "--out", str(out)]) == 0
    assert calls == [300 * 16, 300 * 16, 241 * 16]  # 841 rows of 16 float cells
