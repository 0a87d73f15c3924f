"""Geometry, path-loss channels, and the SNR budget of a relay-assisted pair of links.

Two source/destination pairs share a band of width ``omega``. A half-duplex
relay offers an extra hop: source i reaches its destination either directly
(SNR ``gamma_direct``) or through the relay (SNR ``gamma_relayed``), and the
combined two-phase link behaves like a single channel whose SNR is the sum of
the two (``gamma_af``). Channel power gains follow a deterministic path-loss
law ``pathloss_const / d**pathloss_exp``.

The link budget is one function, run on one position's floats
(:func:`link_budget`) or on N positions' arrays (:func:`link_budget_batch`).
Its transcendental steps are numpy ufuncs over arrays even for one position,
and every other step is +, -, * or /, which Python floats round as numpy
does elementwise, so one position and a batch get the same bits.
"""

import math
from dataclasses import dataclass

import numpy as np


class DegenerateGeometryError(ValueError):
    """Raised when two connected nodes are co-located (zero-distance link)."""


@dataclass(frozen=True)
class Point:
    """A planar node location in meters."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("Point coordinates must be finite")


@dataclass(frozen=True)
class Scenario:
    """Static problem instance: node geometry, radio parameters, pricing.

    Units: coordinates in meters, powers in Watt, band in Hz. ``alpha`` is the
    spectral efficiency in bit/s per Hz, ``b`` the linear pricing factor per
    Hz**2 of relay band used, ``M`` the number of symbols per packet entering
    the efficiency curve.
    """

    source_1: Point
    dest_1: Point
    source_2: Point
    dest_2: Point
    p1: float
    p2: float
    p_r: float
    sigma2: float
    alpha: float
    b: float
    M: int
    omega: float
    pathloss_const: float = 0.097
    pathloss_exp: float = 4.0

    def __post_init__(self):
        for name in ("p1", "p2", "p_r"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be a positive power in Watt")
        if not self.sigma2 > 0:
            raise ValueError("sigma2 must be a positive noise power in Watt")
        if not self.omega > 0:
            raise ValueError("omega must be a positive band in Hz")
        if self.b < 0:
            raise ValueError("b must be a non-negative pricing factor")
        if not self.alpha > 0:
            raise ValueError("alpha must be a positive spectral efficiency")
        if self.M < 1 or int(self.M) != self.M:
            raise ValueError("M must be an integer >= 1")
        if not self.pathloss_const > 0:
            raise ValueError("pathloss_const must be a positive path-loss constant")
        if self.pathloss_exp < 0:
            raise ValueError("pathloss_exp must be a non-negative path-loss exponent")
        for name in ("pathloss_const", "pathloss_exp", "b", "alpha", "omega",
                     "sigma2", "p1", "p2", "p_r"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class UserLink:
    """Channel gains and SNRs of one user for a fixed relay position.

    ``gamma_af`` is exactly ``gamma_direct + gamma_relayed``. In a batch (see
    :func:`link_budget_batch`) every field is an array over the positions.
    """

    h_ii_sq: float
    h_ir_sq: float
    h_ri_sq: float
    gamma_direct: float
    gamma_relayed: float
    gamma_af: float


@dataclass(frozen=True)
class LinkBudget:
    """Per-user link quantities for both users at one relay position."""

    user1: UserLink
    user2: UserLink


def select(batch, index):
    """Positions ``index`` of a batch value: the same dataclass with every
    array field indexed by ``index``, nested value dataclasses included. An
    int index gives floats, the value of one position."""
    cls = type(batch)
    values = []
    for name in cls.__dataclass_fields__:
        v = getattr(batch, name)
        if type(v) is np.ndarray:
            v = v.item(index) if isinstance(index, int) else v[index]
        elif hasattr(v, "__dataclass_fields__") and type(v) is not Scenario:
            v = select(v, index)
        values.append(v)
    return cls(*values)


def distance(a: Point, b: Point) -> float:
    """Euclidean distance between two nodes in meters."""
    return math.hypot(a.x - b.x, a.y - b.y)


def channel_gain(d: float, scenario: Scenario) -> float:
    """Path-loss channel power gain ``pathloss_const / d**pathloss_exp``.

    Raises DegenerateGeometryError for d == 0: a zero-length link has no
    physical meaning and almost always indicates a misconfigured geometry.
    The same holds for a positive distance so small that ``d**pathloss_exp``
    underflows to zero (below about 1e-81 m at exponent 4). A distance so
    large that ``d**pathloss_exp`` overflows gets the law's limit, a zero gain.
    """
    if d < 0:
        raise ValueError("distance must be non-negative")
    with np.errstate(over="ignore", divide="ignore"):
        gains, bad = _channel_gains(np.array([d], dtype=float), scenario)
    if bad is not None:
        raise _degenerate(d)
    return gains.item()


def _channel_gains(d: np.ndarray, scenario: Scenario):
    """Gains of links of lengths ``d`` (an array of floats >= 0), and None or
    the mask of the links that have none (a zero length, or a
    ``d**pathloss_exp`` that underflows to zero); those links get a NaN gain.
    An overflowing ``d**pathloss_exp`` gives a zero gain. Call it with
    overflow and division by zero ignored."""
    e = scenario.pathloss_exp
    attenuation = d ** e
    gains = scenario.pathloss_const / attenuation
    # At e > 0 a zero length has a zero attenuation.
    if np.count_nonzero(attenuation) == d.size and (e > 0 or np.count_nonzero(d) == d.size):
        return gains, None
    bad = (attenuation == 0.0) | (d == 0.0)
    gains[bad] = math.nan
    return gains, bad


def _degenerate(d: float) -> DegenerateGeometryError:
    """The error of a link of length ``d`` that has no gain."""
    if d == 0.0:
        return DegenerateGeometryError(
            "co-located nodes: channel gain undefined at zero distance")
    return DegenerateGeometryError(
        f"nodes {d!r} m apart: d**pathloss_exp underflows to zero")


def snr_direct(p, h_sq, sigma2: float):
    """Single-hop SNR ``p * h_sq / sigma2``; elementwise over arrays."""
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    if np.less(np.fmin(p, h_sq), 0).any():
        raise ValueError("power and channel gain must be non-negative")
    return _snr_direct(p, h_sq, sigma2)


def snr_relayed(p_i, p_r: float, h_ir_sq, h_ri_sq, sigma2: float):
    """End-to-end SNR of the amplify-and-forward hop.

    Equals ``p_i*p_r*h_ir_sq*h_ri_sq / (sigma2*(p_i*h_ir_sq + p_r*h_ri_sq + sigma2))``
    and is symmetric under swapping the roles (p_i, h_ir_sq) <-> (p_r, h_ri_sq).
    It never exceeds the SNR of either constituent hop. Elementwise over
    arrays.
    """
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    if p_r < 0 or np.less(np.fmin(np.fmin(p_i, h_ir_sq), h_ri_sq), 0).any():
        raise ValueError("powers and channel gains must be non-negative")
    num, den = _snr_relayed_terms(p_i, p_r, h_ir_sq, h_ri_sq, sigma2)
    return num / den


# The SNR formulas without argument checks, for inputs a Scenario has
# already validated; the relayed SNR as its numerator and denominator.
def _snr_direct(p, h_sq, sigma2):
    return p * h_sq / sigma2


def _snr_relayed_terms(p_i, p_r, h_ir_sq, h_ri_sq, sigma2):
    return (p_i * p_r * h_ir_sq * h_ri_sq,
            sigma2 * (p_i * h_ir_sq + p_r * h_ri_sq + sigma2))


def efficiency(x: float, M: int) -> float:
    """Sigmoidal packet-success proxy ``(1 - exp(-x/2))**M`` on SNR ``x``.

    Monotone non-decreasing in x, non-increasing in M, with range [0, 1].
    """
    if x < 0:
        raise ValueError("SNR must be non-negative")
    if M < 1 or int(M) != M:
        raise ValueError("M must be an integer >= 1")
    return float(efficiency_batch(np.array([x]), M)[0])


def efficiency_batch(x: np.ndarray, M: int) -> np.ndarray:
    """:func:`efficiency` of every entry of an array of SNRs (NaN stays NaN),
    in one pass of numpy ufuncs."""
    # -expm1 keeps full relative accuracy for small x, where 1 - exp(-x/2)
    # would cancel.
    return (-np.expm1(-0.5 * x)) ** M


_SNR_OVERFLOW = "relay too close to a node: an SNR overflows"
_SNR_UNDERFLOW = "noise power too small: a relayed SNR's denominator underflows to zero"


def link_budget(scenario: Scenario, relay: Point) -> LinkBudget:
    """Channel gains and the three SNRs of both users for one relay position,
    as floats; raises the DegenerateGeometryError that leaves the position
    without a budget (see :func:`link_budget_batch`)."""
    return _link_budget(scenario, relay.x, relay.y, None)


def link_budget_batch(scenario: Scenario, xr, yr) -> tuple:
    """Channel gains and the three SNRs of both users at N relay positions,
    given by their finite coordinates ``xr``, ``yr`` (sequences of length N).

    Returns a LinkBudget whose fields are arrays over the positions, and a
    tuple with, for each position, None or the first DegenerateGeometryError
    that leaves it without a budget: a zero-length link or a
    ``d**pathloss_exp`` underflow (the first such link of user 1, then of
    user 2, in the order direct, source-relay, relay-destination); then, for
    user 1 and then user 2, a relayed SNR whose denominator underflows to
    zero, or an SNR that overflows (a relay too close to a node). The gains
    of a link without one are NaN.
    """
    failures = [None] * len(xr)
    xr, yr = np.array([xr, yr], dtype=float)
    return _link_budget(scenario, xr, yr, failures), tuple(failures)


def _link_budget(scenario: Scenario, xr, yr, failures) -> LinkBudget:
    """The link budget of one position, from its coordinates as floats, or of
    N positions, from arrays: the six links' lengths and attenuations are a
    (6,) or (6, N) array, and their gains and SNRs floats or arrays. One
    position's failure is raised (``failures`` is None); position k's of a
    batch goes to ``failures[k]``."""
    s = scenario
    s1, d1, s2, d2 = s.source_1, s.dest_1, s.source_2, s.dest_2
    zero = 0.0 * xr  # spreads a direct link's difference over the positions
    # The links: user 1's direct, source-relay and relay-destination, then user 2's.
    dx = np.array([s1.x - d1.x + zero, s1.x - xr, xr - d1.x,
                   s2.x - d2.x + zero, s2.x - xr, xr - d2.x])
    dy = np.array([s1.y - d1.y + zero, s1.y - yr, yr - d1.y,
                   s2.y - d2.y + zero, s2.y - yr, yr - d2.y])
    lengths = np.hypot(dx, dy)
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gains, bad = _channel_gains(lengths, s)
        if bad is not None:
            lengths, bad = lengths.reshape(6, -1), bad.reshape(6, -1)  # (link, position)
            first = bad.argmax(axis=0)
            _fail(failures, bad.any(axis=0), lambda k: _degenerate(lengths[first[k], k].item()))
        gains = gains.tolist() if failures is None else gains
        users = []
        for p, (h_ii, h_ir, h_ri) in ((s.p1, gains[:3]), (s.p2, gains[3:])):
            num, den = _snr_relayed_terms(p, s.p_r, h_ir, h_ri, s.sigma2)
            # Before the division: on floats, a zero divisor raises.
            _fail(failures, den == 0.0, lambda k: DegenerateGeometryError(_SNR_UNDERFLOW))
            g_direct = _snr_direct(p, h_ii, s.sigma2)
            g_relayed = num / den
            g_af = g_direct + g_relayed
            # inf - inf and NaN - NaN are NaN: the SNR is not finite.
            _fail(failures, g_af - g_af != 0.0, lambda k: DegenerateGeometryError(_SNR_OVERFLOW))
            users.append(UserLink(h_ii_sq=h_ii, h_ir_sq=h_ir, h_ri_sq=h_ri, gamma_direct=g_direct,
                                  gamma_relayed=g_relayed, gamma_af=g_af))
    return LinkBudget(user1=users[0], user2=users[1])


def _fail(failures, bad, error) -> None:
    """Raise ``error(0)`` if ``bad`` at one position (``failures`` is None);
    in a batch, put ``error(k)`` in each empty slot k where ``bad[k]``."""
    if failures is not None:
        for k in np.flatnonzero(bad).tolist():
            failures[k] = failures[k] or error(k)
    elif bad:
        raise error(0)
