"""Geometry, path-loss channels, and the SNR budget of a relay-assisted pair of links.

Two source/destination pairs share a band of width ``omega``. A half-duplex
relay offers an extra hop: source i reaches its destination either directly
(SNR ``gamma_direct``) or through the relay (SNR ``gamma_relayed``), and the
combined two-phase link behaves like a single channel whose SNR is the sum of
the two (``gamma_af``). Channel power gains follow a deterministic path-loss
law ``pathloss_const / d**pathloss_exp``.
"""

import math
from dataclasses import dataclass


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

    def source(self, i: int) -> Point:
        return self.source_1 if i == 1 else self.source_2

    def dest(self, i: int) -> Point:
        return self.dest_1 if i == 1 else self.dest_2

    def power(self, i: int) -> float:
        return self.p1 if i == 1 else self.p2


@dataclass(frozen=True)
class UserLink:
    """Channel gains and SNRs of one user for a fixed relay position.

    ``gamma_af`` is exactly ``gamma_direct + gamma_relayed``.
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

    def user(self, i: int) -> UserLink:
        return self.user1 if i == 1 else self.user2


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
    if d == 0:
        raise DegenerateGeometryError("co-located nodes: channel gain undefined at zero distance")
    try:
        attenuation = d ** scenario.pathloss_exp
    except OverflowError:
        return 0.0
    if attenuation == 0.0:
        raise DegenerateGeometryError(
            f"nodes {d!r} m apart: d**pathloss_exp underflows to zero")
    return scenario.pathloss_const / attenuation


def snr_direct(p: float, h_sq: float, sigma2: float) -> float:
    """Single-hop SNR ``p * h_sq / sigma2``."""
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    if p < 0 or h_sq < 0:
        raise ValueError("power and channel gain must be non-negative")
    return p * h_sq / sigma2


def snr_relayed(p_i: float, p_r: float, h_ir_sq: float, h_ri_sq: float,
                sigma2: float) -> float:
    """End-to-end SNR of the amplify-and-forward hop.

    Equals ``p_i*p_r*h_ir_sq*h_ri_sq / (sigma2*(p_i*h_ir_sq + p_r*h_ri_sq + sigma2))``
    and is symmetric under swapping the roles (p_i, h_ir_sq) <-> (p_r, h_ri_sq).
    It never exceeds the SNR of either constituent hop.
    """
    if not sigma2 > 0:
        raise ValueError("sigma2 must be positive")
    if min(p_i, p_r, h_ir_sq, h_ri_sq) < 0:
        raise ValueError("powers and channel gains must be non-negative")
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
    if x == 0.0:
        return 0.0
    # -expm1 keeps full relative accuracy for small x, where 1 - exp(-x/2)
    # would cancel.
    base = -math.expm1(-0.5 * x)
    return base ** M


def link_budget(scenario: Scenario, relay: Point) -> LinkBudget:
    """Channel gains and the three SNRs of both users for one relay position."""
    users = []
    for i in (1, 2):
        src, dst, p = scenario.source(i), scenario.dest(i), scenario.power(i)
        h_ii_sq = channel_gain(distance(src, dst), scenario)
        h_ir_sq = channel_gain(distance(src, relay), scenario)
        h_ri_sq = channel_gain(distance(relay, dst), scenario)
        g_direct = snr_direct(p, h_ii_sq, scenario.sigma2)
        g_relayed = snr_relayed(p, scenario.p_r, h_ir_sq, h_ri_sq, scenario.sigma2)
        users.append(UserLink(
            h_ii_sq=h_ii_sq,
            h_ir_sq=h_ir_sq,
            h_ri_sq=h_ri_sq,
            gamma_direct=g_direct,
            gamma_relayed=g_relayed,
            gamma_af=g_direct + g_relayed,
        ))
    return LinkBudget(user1=users[0], user2=users[1])
