"""Relay-position sweeps: NE-vs-NBS gain maps, welfare comparison, concavity maps.

``sweep`` is one pass of array functions over all grid positions: bargaining
contexts (link budget, marginal terms, closed-form NE), exact bargaining
solutions, gains, and the Nash product eigenvalues at the reported NBS. The
single-position API (``make_context``, ``exact_nbs``, ...) is the same
functions called with one position. The concavity map is read from the sweep.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bargaining import (NO_BARGAIN_NOTE, eigenvalues_batch, exact_nbs_batch,
                         hessian, make_context_batch)
from .game import BandAllocation, EquilibriumReport, UtilityPair, utility_pair
from .system_model import Point, Scenario, as_batch


@dataclass(frozen=True)
class SweepGrid:
    """Rectangular grid of relay positions, default area [0, 700] m squared."""

    step: float
    x_min: float = 0.0
    x_max: float = 700.0
    y_min: float = 0.0
    y_max: float = 700.0

    def __post_init__(self):
        for name in ("step", "x_min", "x_max", "y_min", "y_max"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.step > 0:
            raise ValueError("step must be positive")
        if not (self.x_max > self.x_min and self.y_max > self.y_min):
            raise ValueError("grid bounds must satisfy max > min on both axes")

    def axis(self, lo: float, hi: float) -> list:
        vals = []
        k = 0
        while True:
            v = lo + k * self.step
            if v > hi + 1e-9 * self.step:
                break
            vals.append(min(v, hi))
            k += 1
        return vals

    def positions(self) -> list:
        """Grid points sorted by (x, y)."""
        ys = self.axis(self.y_min, self.y_max)
        return [Point(x, y) for x in self.axis(self.x_min, self.x_max) for y in ys]


@dataclass(frozen=True)
class SweepRecord:
    """Everything computed at one relay position.

    Failed positions (degenerate geometry, solver breakdown) carry the
    failure message, NaN allocations/utilities/eigenvalues and, by
    convention, zero gains.
    """

    relay: Point
    ne: EquilibriumReport | None
    nbs: EquilibriumReport | None
    gain_bw_u1_pct: float
    gain_bw_u2_pct: float
    gain_bw_total_pct: float
    gain_sw_pct: float
    lambda1: float
    lambda2: float
    strictly_concave: bool
    failure: str | None = None

    @property
    def converged(self) -> bool:
        return (self.failure is None and self.ne is not None
                and self.nbs is not None
                and self.ne.converged and self.nbs.converged)


def bandwidth_gain(ne_w: float, nbs_w: float) -> float:
    """Relative band saving of bargaining over the equilibrium, in percent.

    Zero by convention when the equilibrium already rents no band (both
    solutions skip the relay there).
    """
    return float(bandwidth_gain_batch(np.array([ne_w]), np.array([nbs_w]))[0])


def bandwidth_gain_batch(ne_w: np.ndarray, nbs_w: np.ndarray) -> np.ndarray:
    """:func:`bandwidth_gain` of every entry of two arrays of band widths."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ne_w == 0.0, 0.0, 100.0 * (ne_w - nbs_w) / ne_w)


def social_welfare_gain(ne_u: UtilityPair, nbs_u: UtilityPair) -> float:
    """Relative change of the utility sum, in percent.

    Returns NaN (undefined-gain marker) when the equilibrium welfare is not
    positive, where a ratio would be meaningless.
    """
    return float(social_welfare_gain_batch(as_batch(ne_u), as_batch(nbs_u))[0])


def social_welfare_gain_batch(ne_u: UtilityPair, nbs_u: UtilityPair) -> np.ndarray:
    """:func:`social_welfare_gain` of utility pairs whose fields are arrays."""
    ne_sum = ne_u.total()
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ne_sum <= 0.0, math.nan, 100.0 * (nbs_u.total() - ne_sum) / ne_sum)


def _failure_record(relay: Point, message: str) -> SweepRecord:
    return SweepRecord(
        relay=relay, ne=None, nbs=None,
        gain_bw_u1_pct=0.0, gain_bw_u2_pct=0.0, gain_bw_total_pct=0.0,
        gain_sw_pct=0.0, lambda1=math.nan, lambda2=math.nan,
        strictly_concave=False, failure=message)


def sweep(scenario: Scenario, grid: SweepGrid) -> list:
    """Solve NE and NBS at every relay position of the grid.

    Per position: bargaining context with the closed-form NE, the exact
    bargaining solution (:func:`exact_nbs_batch`), bandwidth and welfare
    gains, and the Nash product eigenvalues at the reported NBS allocation,
    each stage computed for all positions at once. Individual position
    failures are recorded, never raised.
    """
    relays = grid.positions()
    ctx, failures = make_context_batch(scenario, relays)
    ne, ne_u = ctx.ne_alloc, ctx.threat
    nbs, bargain = exact_nbs_batch(ctx.terms, ne, scenario)
    nbs_u = utility_pair(nbs, ctx.terms, scenario)
    eig = eigenvalues_batch(hessian(nbs, ctx))
    columns = zip(
        ne.w1.tolist(), ne.w2.tolist(), ne_u.u1.tolist(), ne_u.u2.tolist(),
        nbs.w1.tolist(), nbs.w2.tolist(), nbs_u.u1.tolist(), nbs_u.u2.tolist(),
        bargain.tolist(),
        bandwidth_gain_batch(ne.w1, nbs.w1).tolist(),
        bandwidth_gain_batch(ne.w2, nbs.w2).tolist(),
        bandwidth_gain_batch(ne.w1 + ne.w2, nbs.w1 + nbs.w2).tolist(),
        social_welfare_gain_batch(ne_u, nbs_u).tolist(),
        eig.lambda1.tolist(), eig.lambda2.tolist())
    records = []
    for relay, failure in zip(relays, failures):
        if failure is not None:
            records.append(_failure_record(relay, str(failure)))
            continue
        (w1, w2, u1, u2, b1, b2, v1, v2, bargained,
         g1, g2, gt, gs, l1, l2) = next(columns)
        records.append(SweepRecord(
            relay=relay,
            ne=EquilibriumReport(
                allocation=BandAllocation(w1, w2), utilities=UtilityPair(u1, u2),
                kind="NE", iterations=0, residual=0.0, converged=True),
            nbs=EquilibriumReport(
                allocation=BandAllocation(b1, b2), utilities=UtilityPair(v1, v2),
                kind="NBS", iterations=0, residual=0.0, converged=True,
                diagnostics=() if bargained else (NO_BARGAIN_NOTE,)),
            gain_bw_u1_pct=g1, gain_bw_u2_pct=g2, gain_bw_total_pct=gt,
            gain_sw_pct=gs, lambda1=l1, lambda2=l2, strictly_concave=l2 < 0.0,
        ))
    return records


def concavity_map(scenario: Scenario, grid: SweepGrid) -> list:
    """Concavity certificate of the Nash product across relay positions.

    Returns the sweep's records: ``lambda1``, ``lambda2`` and
    ``strictly_concave`` are the Hessian eigenvalues at the reported NBS of
    each position, so the map agrees with a sweep over the same grid.
    Failures carry NaN eigenvalues and a False flag.
    """
    return sweep(scenario, grid)
