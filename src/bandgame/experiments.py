"""Relay-position sweeps: NE-vs-NBS gain maps, welfare comparison, concavity maps.

``sweep`` is one pass of array functions over the grid's coordinate arrays:
bargaining contexts (link budget, marginal terms, closed-form NE), exact
bargaining solutions, gains, and the Nash product eigenvalues at the reported
NBS. It returns one :class:`SweepRecord` whose fields are arrays over the
positions; a failed position keeps its slot, NaN from its equilibrium on.
The single-position API (``make_context``, ``exact_nbs``, ...) is the same
functions called with one position. The concavity map is read from the sweep.
"""

import math
from dataclasses import dataclass

import numpy as np

from .bargaining import (eigenvalues, exact_nbs_batch, hessian,
                         make_context_batch)
from .game import BandAllocation, UtilityPair, utility_pair
from .system_model import Scenario


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

    def positions(self) -> tuple:
        """Coordinates ``(xr, yr)`` of the grid points, as float arrays sorted
        by (x, y)."""
        xs, ys = self.axis(self.x_min, self.x_max), self.axis(self.y_min, self.y_max)
        return np.repeat(xs, len(ys)), np.tile(ys, len(xs))


@dataclass(frozen=True)
class SweepRecord:
    """Everything computed at the relay positions of a sweep, as arrays over
    the positions in the order of :meth:`SweepGrid.positions`;
    ``system_model.select(records, k)`` gives position k's record with
    floats.

    ``xr``, ``yr`` are the relay coordinates. ``bargain`` tells whether some
    allocation improves both utilities on the equilibrium; without one the
    NBS is the equilibrium itself. ``failure`` holds None, or for a failed
    position (degenerate geometry, solver breakdown) the failure message;
    such a position has NaN allocations, utilities and eigenvalues, False
    flags and, by convention, zero gains.
    """

    xr: np.ndarray
    yr: np.ndarray
    ne: BandAllocation
    ne_u: UtilityPair
    nbs: BandAllocation
    nbs_u: UtilityPair
    bargain: np.ndarray
    gain_bw_u1_pct: np.ndarray
    gain_bw_u2_pct: np.ndarray
    gain_bw_total_pct: np.ndarray
    gain_sw_pct: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    strictly_concave: np.ndarray
    failure: np.ndarray


def bandwidth_gain(ne_w, nbs_w):
    """Relative band saving of bargaining over the equilibrium, in percent;
    elementwise over arrays.

    Zero by convention when the equilibrium already rents no band (both
    solutions skip the relay there).
    """
    ne_w = np.asarray(ne_w, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ne_w == 0.0, 0.0, 100.0 * (ne_w - nbs_w) / ne_w)[()]


def social_welfare_gain(ne_u: UtilityPair, nbs_u: UtilityPair):
    """Relative change of the utility sum, in percent; elementwise over
    utility pairs whose fields are arrays.

    Returns NaN (undefined-gain marker) when the equilibrium welfare is not
    positive, where a ratio would be meaningless.
    """
    ne_sum = np.asarray(ne_u.total(), dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(ne_sum <= 0.0, math.nan, 100.0 * (nbs_u.total() - ne_sum) / ne_sum)[()]


def sweep(scenario: Scenario, grid: SweepGrid) -> SweepRecord:
    """Solve NE and NBS at every relay position of the grid.

    Per position: bargaining context with the closed-form NE, the exact
    bargaining solution (:func:`exact_nbs_batch`), bandwidth and welfare
    gains, and the Nash product eigenvalues at the reported NBS allocation,
    each stage computed for all positions at once. Individual position
    failures are recorded, never raised: a failed position's equilibrium is
    NaN, so every later stage gives it NaN or False on its own, and only its
    gains are set to zero.
    """
    xr, yr = grid.positions()
    ctx, failures = make_context_batch(scenario, xr, yr)
    ne, ne_u = ctx.ne_alloc, ctx.threat
    nbs, bargain = exact_nbs_batch(ctx.terms, ne, scenario)
    nbs_u = utility_pair(nbs, ctx.terms, scenario)
    eig = eigenvalues(hessian(nbs, ctx))
    failure = np.array(failures, dtype=object)
    ok = np.equal(failure, None)
    failure[~ok] = [str(f) for f in failure[~ok]]  # the failed positions only
    return SweepRecord(
        xr=xr, yr=yr, ne=ne, ne_u=ne_u, nbs=nbs, nbs_u=nbs_u, bargain=bargain,
        gain_bw_u1_pct=np.where(ok, bandwidth_gain(ne.w1, nbs.w1), 0.0),
        gain_bw_u2_pct=np.where(ok, bandwidth_gain(ne.w2, nbs.w2), 0.0),
        gain_bw_total_pct=np.where(ok, bandwidth_gain(ne.w1 + ne.w2, nbs.w1 + nbs.w2), 0.0),
        gain_sw_pct=np.where(ok, social_welfare_gain(ne_u, nbs_u), 0.0),
        lambda1=eig.lambda1, lambda2=eig.lambda2, strictly_concave=eig.lambda2 < 0.0,
        failure=failure)


def concavity_map(scenario: Scenario, grid: SweepGrid) -> SweepRecord:
    """Concavity certificate of the Nash product across relay positions.

    Returns the sweep's record: ``lambda1``, ``lambda2`` and
    ``strictly_concave`` are the Hessian eigenvalues at the reported NBS of
    each position, so the map agrees with a sweep over the same grid.
    Failures carry NaN eigenvalues and a False flag.
    """
    return sweep(scenario, grid)
