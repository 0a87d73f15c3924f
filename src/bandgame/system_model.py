"""Geometry, path-loss channels, and the SNR budget of a relay-assisted pair of links.

Two source/destination pairs share a band of width ``omega``. A half-duplex
relay offers an extra hop: source i reaches its destination either directly
(SNR ``gamma_direct``) or through the relay (SNR ``gamma_relayed``), and the
combined two-phase link behaves like a single channel whose SNR is the sum of
the two (``gamma_af``). Channel power gains follow a deterministic path-loss
law ``pathloss_const / d**pathloss_exp``.

The link budget is computed for N relay positions at once, given as two
coordinate arrays (:func:`link_budget_batch`), and for one position on its
floats (:func:`link_budget`). Both take the transcendental steps (``hypot``,
``**`` and, in the game layer, ``expm1``) as numpy ufuncs over arrays, for
one position over a 6- or 4-element array, so both run the same numpy loops;
every other step is +, -, * or /, which Python floats round as numpy does
elementwise. So one position and a batch get the same bits.
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
    if attenuation.all() and (e > 0 or d.all()):  # at e > 0, d == 0 gives 0
        return gains, None
    bad = (attenuation == 0.0) | (d == 0.0)
    gains[bad] = math.nan
    return gains, bad


_SNR_OVERFLOW = "relay too close to a node: an SNR overflows"


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
    return _snr_relayed(p_i, p_r, h_ir_sq, h_ri_sq, sigma2)


# The SNR formulas without argument checks, for inputs a Scenario has
# already validated.
def _snr_direct(p, h_sq, sigma2):
    return p * h_sq / sigma2


def _snr_relayed(p_i, p_r, h_ir_sq, h_ri_sq, sigma2):
    num = p_i * p_r * h_ir_sq * h_ri_sq
    den = sigma2 * (p_i * h_ir_sq + p_r * h_ri_sq + sigma2)
    return num / den


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


# The three links of a user, in the order direct, source-relay and
# relay-destination, by their two ends: which end is the relay (the others
# are the user's source, then its destination).
_AT_RELAY = np.array([[False, False], [False, True], [True, False]])[:, :, None]


def link_budget_batch(scenario: Scenario, xr, yr) -> tuple:
    """Channel gains and the three SNRs of both users at N relay positions,
    given by their finite coordinates ``xr``, ``yr`` (sequences of length N).

    Returns a LinkBudget whose fields are arrays over the positions, and a
    tuple with, for each position, None or the DegenerateGeometryError that
    leaves it without a budget: a zero-length link, a ``d**pathloss_exp``
    underflow (the first such link of user 1, then of user 2, in the order
    direct, source-relay, relay-destination), or a relay so close to a node
    that an SNR overflows. The entries of failed positions are NaN.

    The six link lengths of every position come from one ``np.hypot`` over
    the (user, link, position) array of coordinate differences.
    """
    s = scenario
    relay = np.array([xr, yr], dtype=float)[:, None, None, None, :]  # (axis, 1, 1, 1, N)
    nodes = np.array([[[s.source_1.x, s.dest_1.x], [s.source_2.x, s.dest_2.x]],
                      [[s.source_1.y, s.dest_1.y], [s.source_2.y, s.dest_2.y]]])
    # (axis, user, link, end, N): the coordinates of both ends of every link
    ends = np.where(_AT_RELAY, relay, nodes[:, :, None, :, None])
    lengths = np.hypot(*(ends[:, :, :, 0] - ends[:, :, :, 1]))  # (user, link, N)
    n = lengths.shape[-1]
    failures = [None] * n
    p = np.array([[s.p1], [s.p2]])
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        gains, bad = _channel_gains(lengths, s)
        if bad is not None:
            bad = bad.reshape(6, n)  # links in the order above, by position
            first = np.argmax(bad, axis=0)
            for k in np.flatnonzero(bad.any(axis=0)).tolist():
                failures[k] = _degenerate(lengths.reshape(6, n)[first[k], k].item())
        h_ii, h_ir, h_ri = gains[:, 0], gains[:, 1], gains[:, 2]  # each (user, position)
        g_direct = _snr_direct(p, h_ii, s.sigma2)
        g_relayed = _snr_relayed(p, s.p_r, h_ir, h_ri, s.sigma2)
        g_af = g_direct + g_relayed
    if not np.isfinite(g_af).all():
        for k in np.flatnonzero(~np.isfinite(g_af).all(axis=0)).tolist():
            if failures[k] is None:
                failures[k] = DegenerateGeometryError(_SNR_OVERFLOW)
    users = [UserLink(h_ii_sq=h_ii[i], h_ir_sq=h_ir[i], h_ri_sq=h_ri[i],
                      gamma_direct=g_direct[i], gamma_relayed=g_relayed[i],
                      gamma_af=g_af[i]) for i in (0, 1)]
    return LinkBudget(user1=users[0], user2=users[1]), tuple(failures)


def link_budget(scenario: Scenario, relay: Point) -> LinkBudget:
    """Channel gains and the three SNRs of both users for one relay position,
    as floats; raises the DegenerateGeometryError that leaves the position
    without a budget (see :func:`link_budget_batch`).

    Computed on the position's floats, with the batch's expressions in the
    batch's order: the six link lengths come from one ``np.hypot`` and their
    attenuations ``d**pathloss_exp`` from one ``**``, both over a 6-element
    array, so they run the batch's numpy loops; the gains and the SNRs are
    float arithmetic, which rounds as numpy does elementwise. So the budget
    and the failure are the batch's at that position, bit for bit.
    """
    s, x, y = scenario, relay.x, relay.y
    dx, dy = [], []
    for src, dst in ((s.source_1, s.dest_1), (s.source_2, s.dest_2)):
        dx += [src.x - dst.x, src.x - x, x - dst.x]
        dy += [src.y - dst.y, src.y - y, y - dst.y]
    lengths = np.hypot(np.array(dx), np.array(dy))
    with np.errstate(over="ignore"):
        attenuation = (lengths ** s.pathloss_exp).tolist()
    for d, a in zip(lengths.tolist(), attenuation):
        if a == 0.0 or d == 0.0:  # no gain, as in _channel_gains
            raise _degenerate(d)
    gains = [s.pathloss_const / a for a in attenuation]
    users = []
    for p, (h_ii, h_ir, h_ri) in ((s.p1, gains[:3]), (s.p2, gains[3:])):
        g_direct = _snr_direct(p, h_ii, s.sigma2)
        try:
            g_relayed = _snr_relayed(p, s.p_r, h_ir, h_ri, s.sigma2)
        except ZeroDivisionError:  # the denominator underflows: the batch's SNR is inf or NaN
            g_relayed = math.nan
        g_af = g_direct + g_relayed
        if not math.isfinite(g_af):
            raise DegenerateGeometryError(_SNR_OVERFLOW)
        users.append(UserLink(h_ii_sq=h_ii, h_ir_sq=h_ir, h_ri_sq=h_ri, gamma_direct=g_direct,
                              gamma_relayed=g_relayed, gamma_af=g_af))
    return LinkBudget(user1=users[0], user2=users[1])
