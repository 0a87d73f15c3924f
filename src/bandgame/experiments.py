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

from .bargaining import (eigenvalues_batch, exact_nbs_batch, hessian,
                         make_context_batch)
from .game import BandAllocation, UtilityPair, utility_pair
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

    ``bargain`` tells whether some allocation improves both utilities on the
    equilibrium; without one the NBS is the equilibrium itself. Failed
    positions (degenerate geometry, solver breakdown) carry the failure
    message, NaN allocations, utilities and eigenvalues, False flags and, by
    convention, zero gains.
    """

    relay: Point
    ne: BandAllocation
    ne_u: UtilityPair
    nbs: BandAllocation
    nbs_u: UtilityPair
    bargain: bool
    gain_bw_u1_pct: float
    gain_bw_u2_pct: float
    gain_bw_total_pct: float
    gain_sw_pct: float
    lambda1: float
    lambda2: float
    strictly_concave: bool
    failure: str | None = None


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
    solved = (ne.w1, ne.w2, ne_u.u1, ne_u.u2, nbs.w1, nbs.w2, nbs_u.u1, nbs_u.u2, bargain,
              bandwidth_gain_batch(ne.w1, nbs.w1), bandwidth_gain_batch(ne.w2, nbs.w2),
              bandwidth_gain_batch(ne.w1 + ne.w2, nbs.w1 + nbs.w2),
              social_welfare_gain_batch(ne_u, nbs_u), eig.lambda1, eig.lambda2)
    # What a failed position holds in each column.
    unsolved = (math.nan,) * 8 + (False,) + (0.0,) * 4 + (math.nan,) * 2
    ok = np.array([f is None for f in failures], dtype=bool)
    columns = []
    for column, fill in zip(solved, unsolved):
        full = np.full(len(relays), fill, dtype=column.dtype)
        full[ok] = column
        columns.append(full.tolist())
    return [SweepRecord(
        relay=relay, ne=BandAllocation(w1, w2), ne_u=UtilityPair(u1, u2),
        nbs=BandAllocation(b1, b2), nbs_u=UtilityPair(v1, v2), bargain=bargained,
        gain_bw_u1_pct=g1, gain_bw_u2_pct=g2, gain_bw_total_pct=gt, gain_sw_pct=gs,
        lambda1=l1, lambda2=l2, strictly_concave=l2 < 0.0,
        failure=None if failure is None else str(failure))
        for (relay, failure, w1, w2, u1, u2, b1, b2, v1, v2, bargained, g1, g2, gt, gs, l1, l2)
        in zip(relays, failures, *columns)]


def concavity_map(scenario: Scenario, grid: SweepGrid) -> list:
    """Concavity certificate of the Nash product across relay positions.

    Returns the sweep's records: ``lambda1``, ``lambda2`` and
    ``strictly_concave`` are the Hessian eigenvalues at the reported NBS of
    each position, so the map agrees with a sweep over the same grid.
    Failures carry NaN eigenvalues and a False flag.
    """
    return sweep(scenario, grid)
