"""Relay-position sweeps: NE-vs-NBS gain maps, welfare comparison, concavity maps.

``sweep`` is the one per-position pipeline: bargaining context (link budget,
marginal terms, closed-form NE), exact bargaining solution, gains, and the
Nash product eigenvalues at the reported NBS. The concavity map is read from
it.
"""

import math
from dataclasses import dataclass

from .bargaining import eigenvalues, exact_nbs, hessian, make_context
from .game import ConvergenceError, EquilibriumReport, UtilityPair
from .system_model import DegenerateGeometryError, Point, Scenario


@dataclass(frozen=True)
class SweepGrid:
    """Rectangular grid of relay positions, default area [0, 700] m squared."""

    step: float
    x_min: float = 0.0
    x_max: float = 700.0
    y_min: float = 0.0
    y_max: float = 700.0

    def __post_init__(self):
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
        return [Point(x, y)
                for x in self.axis(self.x_min, self.x_max)
                for y in self.axis(self.y_min, self.y_max)]


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
    if ne_w == 0.0:
        return 0.0
    return 100.0 * (ne_w - nbs_w) / ne_w


def social_welfare_gain(ne_u: UtilityPair, nbs_u: UtilityPair) -> float:
    """Relative change of the utility sum, in percent.

    Returns NaN (undefined-gain marker) when the equilibrium welfare is not
    positive, where a ratio would be meaningless.
    """
    ne_sum = ne_u.total()
    if ne_sum <= 0.0:
        return math.nan
    return 100.0 * (nbs_u.total() - ne_sum) / ne_sum


def _failure_record(relay: Point, message: str) -> SweepRecord:
    return SweepRecord(
        relay=relay, ne=None, nbs=None,
        gain_bw_u1_pct=0.0, gain_bw_u2_pct=0.0, gain_bw_total_pct=0.0,
        gain_sw_pct=0.0, lambda1=math.nan, lambda2=math.nan,
        strictly_concave=False, failure=message)


def sweep(scenario: Scenario, grid: SweepGrid) -> list:
    """Solve NE and NBS at every relay position of the grid.

    Per position: bargaining context with the closed-form NE, the exact
    bargaining solution (:func:`exact_nbs`), bandwidth and welfare gains,
    and the Nash product eigenvalues at the reported NBS allocation.
    Individual position failures are recorded, never raised.
    """
    records = []
    for relay in grid.positions():
        try:
            ctx = make_context(scenario, relay)
        except (DegenerateGeometryError, ConvergenceError) as exc:
            records.append(_failure_record(relay, str(exc)))
            continue
        nbs = exact_nbs(ctx)
        # The context holds the closed-form NE; this is its solver report.
        ne = EquilibriumReport(allocation=ctx.ne_alloc, utilities=ctx.threat,
                               kind="NE", iterations=0, residual=0.0,
                               converged=True)
        eig = eigenvalues(hessian(nbs.allocation, ctx))
        records.append(SweepRecord(
            relay=relay,
            ne=ne,
            nbs=nbs,
            gain_bw_u1_pct=bandwidth_gain(ne.allocation.w1, nbs.allocation.w1),
            gain_bw_u2_pct=bandwidth_gain(ne.allocation.w2, nbs.allocation.w2),
            gain_bw_total_pct=bandwidth_gain(
                ne.allocation.w1 + ne.allocation.w2,
                nbs.allocation.w1 + nbs.allocation.w2),
            gain_sw_pct=social_welfare_gain(ne.utilities, nbs.utilities),
            lambda1=eig.lambda1,
            lambda2=eig.lambda2,
            strictly_concave=eig.lambda2 < 0.0,
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
