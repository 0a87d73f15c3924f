"""Independent reference checks for bandgame output.

Everything here is computed from the paper's formulas with numpy and scipy
only; no bandgame code is imported, so a fault in the package cannot hide
behind the same fault in its checker. The checks work on the numbers the
program emits (CSV rows, report fields) and return failure reasons:

- ``value``: a reported utility, gain or eigenvalue differs from the
  recomputed one;
- ``ne-deviation``: the reported equilibrium admits a profitable unilateral
  deviation on a dense grid, or breaks a KKT sign condition;
- ``dominance``: the reported bargain leaves a player below the threat point;
- ``missed-bargain``: the program reports the equilibrium (zero gain) where
  the reference finds a bargain with a Nash product above ``PRODUCT_FLOOR``;
- ``short-bargain``: the reported Nash product is below the reference by
  more than ``PRODUCT_REL_TOL``;
- ``concavity``: eigenvalues out of order, or a concavity flag that
  disagrees with the sign of the larger eigenvalue;
- ``failure-row``: a degenerate relay position without the documented
  failure row, or a regular position reported as failed;
- ``hull``: a region hull that is not convex and counter-clockwise, leaves a
  sample outside, or marks a dominated Pareto vertex.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize
from scipy.spatial import ConvexHull

# A recomputed quantity may differ from the reported one by this share of the
# problem's utility scale (rounding differences only; both use doubles).
VALUE_REL_TOL = 1e-9
# Gradient sign slack for the KKT check, as a share of the gradient scale.
KKT_REL_TOL = 1e-9
# Dominance slack, as a share of the utility scale.
DOMINANCE_REL_TOL = 1e-10
# Nash products are compared in units of the squared utility scale. A
# bargain below this floor (both gains under about 1e-10 of the utility
# scale) is treated as no bargain: there the program's CG stops on its
# absolute gradient tolerance before it moves, so its answer is arbitrary.
PRODUCT_FLOOR = 1e-20
# A reported bargain may fall short of the reference product by this share.
PRODUCT_REL_TOL = 1e-2
# Points per axis of the unilateral-deviation grid.
DEVIATION_GRID = 4001

POINT_KEYS = ("source_1", "dest_1", "source_2", "dest_2")
NUMBER_KEYS = ("p1", "p2", "p_r", "sigma2", "alpha", "b", "M", "omega",
               "pathloss_const", "pathloss_exp")


@dataclass(frozen=True)
class Params:
    """One scenario: node positions in m, powers in W, band in Hz."""

    source_1: tuple
    dest_1: tuple
    source_2: tuple
    dest_2: tuple
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


def parse_params(text: str) -> Params:
    """Read the flat ``key = value`` scenario text."""
    raw = {}
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        raw[key.strip()] = value.strip()
    kwargs = {}
    for key in POINT_KEYS:
        x, y = raw.pop(key).split(",")
        kwargs[key] = (float(x), float(y))
    for key in NUMBER_KEYS:
        if key in raw:
            kwargs[key] = float(raw.pop(key))
    if raw:
        raise ValueError(f"unknown scenario keys: {sorted(raw)}")
    kwargs["M"] = int(kwargs["M"])
    return Params(**kwargs)


@dataclass(frozen=True)
class Terms:
    """Per-Hz efficiencies of the direct (phi) and relayed (psi) links."""

    phi: tuple
    psi: tuple

    @property
    def c(self) -> tuple:
        """Relay advantage psi_i - phi_i of both users."""
        return (self.psi[0] - self.phi[0], self.psi[1] - self.phi[1])


def is_degenerate(params: Params, relay) -> bool:
    """True when the relay sits on a source or destination it links to."""
    return any(math.hypot(relay[0] - n[0], relay[1] - n[1]) == 0.0
               for n in (params.source_1, params.dest_1,
                         params.source_2, params.dest_2))


def link_terms(params: Params, relay) -> Terms:
    """phi and psi of both users from path-loss gains and SNRs.

    Gains are K/d**n; the direct SNR is p*h_sd/sigma2, the relayed one
    p*p_r*h_sr*h_rd / (sigma2*(p*h_sr + p_r*h_rd + sigma2)), and the
    combined link's SNR their sum. With f(x) = (1 - exp(-x/2))**M:
    phi = alpha*f(direct)/p and psi = alpha*f(combined)/(p + p_r).
    """
    def gain(a, b):
        d = math.hypot(a[0] - b[0], a[1] - b[1])
        return params.pathloss_const / d ** params.pathloss_exp

    def f(x):
        return (1.0 - math.exp(-x / 2.0)) ** params.M

    phi, psi = [], []
    s2, p_r = params.sigma2, params.p_r
    for src, dst, p in ((params.source_1, params.dest_1, params.p1),
                        (params.source_2, params.dest_2, params.p2)):
        h_sd, h_sr, h_rd = gain(src, dst), gain(src, relay), gain(relay, dst)
        direct = p * h_sd / s2
        relayed = p * p_r * h_sr * h_rd / (s2 * (p * h_sr + p_r * h_rd + s2))
        phi.append(params.alpha * f(direct) / p)
        psi.append(params.alpha * f(direct + relayed) / (p + p_r))
    return Terms(phi=tuple(phi), psi=tuple(psi))


def utilities(params: Params, terms: Terms, w1, w2):
    """u_i = phi_i*(omega - w_i) + psi_i*w_i - b*(w1 + w2)*w_i, elementwise."""
    om, b = params.omega, params.b
    u1 = terms.phi[0] * (om - w1) + terms.psi[0] * w1 - b * (w1 + w2) * w1
    u2 = terms.phi[1] * (om - w2) + terms.psi[1] * w2 - b * (w1 + w2) * w2
    return u1, u2


def utility_scale(params: Params, terms: Terms) -> float:
    """Size of a utility at this position, the unit of every tolerance."""
    om = params.omega
    return om * max(terms.phi[0], terms.phi[1], terms.psi[0], terms.psi[1],
                    params.b * om, 1e-300)


def gains(params: Params, terms: Terms, ne, w1, w2):
    """u_i(w) - u_i(ne), written without the cancellation of two utilities.

    With dw = w - ne: du1 = dw1*(c1 - b*(w1 + ne1) - b*w2) - b*ne1*dw2, and
    symmetrically for user 2, so gains far below the utility scale keep
    their relative precision.
    """
    b = params.b
    c1, c2 = terms.c
    a1, a2 = ne
    d1 = w1 - a1
    d2 = w2 - a2
    g1 = d1 * (c1 - b * (w1 + a1) - b * w2) - b * a1 * d2
    g2 = d2 * (c2 - b * (w2 + a2) - b * w1) - b * a2 * d1
    return g1, g2


def reference_ne(params: Params, terms: Terms) -> tuple:
    """Equilibrium by simultaneous best responses from (0, 0).

    Each best response is the clamped vertex (c_i - b*w_j)/(2b) of a concave
    quadratic; the map halves distances, so it settles within ~100 steps.
    """
    om, b = params.omega, params.b
    c1, c2 = terms.c
    w = (0.0, 0.0)
    for _ in range(200):
        nxt = (min(max((c1 - b * w[1]) / (2.0 * b), 0.0), om),
               min(max((c2 - b * w[0]) / (2.0 * b), 0.0), om))
        if nxt == w:
            break
        w = nxt
    return w


def check_ne(params: Params, terms: Terms, w, u) -> list:
    """Reasons the reported equilibrium ``w`` with utilities ``u`` is wrong."""
    reasons = []
    om, b = params.omega, params.b
    scale = utility_scale(params, terms)
    if not all(0.0 <= wi <= om for wi in w):
        return ["ne-deviation"]
    ref = utilities(params, terms, w[0], w[1])
    if any(abs(u[i] - ref[i]) > VALUE_REL_TOL * scale for i in (0, 1)):
        reasons.append("value")
    grid = np.linspace(0.0, om, DEVIATION_GRID)
    dev1, _ = utilities(params, terms, grid, w[1])
    _, dev2 = utilities(params, terms, w[0], grid)
    deviates = (float(dev1.max()) > ref[0] + VALUE_REL_TOL * scale
                or float(dev2.max()) > ref[1] + VALUE_REL_TOL * scale)
    g_scale = max(abs(terms.c[0]), abs(terms.c[1]), b * om, 1e-300)
    slack = KKT_REL_TOL * g_scale
    for i in (0, 1):
        partial = terms.c[i] - b * (2.0 * w[i] + w[1 - i])
        if w[i] <= 1e-12 * om:
            deviates |= partial > slack
        elif w[i] >= om * (1.0 - 1e-12):
            deviates |= partial < -slack
        else:
            deviates |= abs(partial) > slack
    if deviates:
        reasons.append("ne-deviation")
    return reasons


def _product_grid(params, terms, ne, x1, x2):
    g1, g2 = gains(params, terms, ne, params.omega * x1, params.omega * x2)
    ok = (g1 >= 0.0) & (g2 >= 0.0)
    return np.where(ok, g1 * g2, -np.inf)


def _best_on_window(params, terms, ne, centre, half, n):
    axes = [np.clip(np.linspace(c - half, c + half, n), 0.0, 1.0) for c in centre]
    X1, X2 = np.meshgrid(axes[0], axes[1], indexing="ij")
    prod = _product_grid(params, terms, ne, X1, X2)
    k = int(np.argmax(prod))
    return float(prod.flat[k]), (float(X1.flat[k]), float(X2.flat[k]))


def _slsqp_polish(params, terms, ne, x0, p0):
    """Local constrained polish of the normalised Nash product from ``x0``."""
    om, b = params.omega, params.b
    c1, c2 = terms.c
    s1, s2 = (max(abs(v), 1e-300) for v in gains(params, terms, ne, om * x0[0], om * x0[1]))

    def g(x):
        return gains(params, terms, ne, om * x[0], om * x[1])

    def jac(x):
        w1, w2 = om * x[0], om * x[1]
        return (np.array([c1 - b * (2.0 * w1 + w2), -b * w1]) * om,
                np.array([-b * w2, c2 - b * (2.0 * w2 + w1)]) * om)

    def f(x):
        g1, g2 = g(x)
        return -(g1 / s1) * (g2 / s2)

    def fprime(x):
        (g1, g2), (j1, j2) = g(x), jac(x)
        return -((j1 / s1) * (g2 / s2) + (g1 / s1) * (j2 / s2))

    cons = ({"type": "ineq", "fun": lambda x: g(x)[0] / s1, "jac": lambda x: jac(x)[0] / s1},
            {"type": "ineq", "fun": lambda x: g(x)[1] / s2, "jac": lambda x: jac(x)[1] / s2})
    res = minimize(f, np.asarray(x0, dtype=float), jac=fprime, method="SLSQP",
                   bounds=[(0.0, 1.0), (0.0, 1.0)], constraints=cons,
                   options={"maxiter": 200, "ftol": 1e-15})
    x = np.clip(res.x, 0.0, 1.0)
    g1, g2 = g(x)
    if g1 >= 0.0 and g2 >= 0.0 and g1 * g2 > p0:
        return float(g1 * g2), (float(x[0]), float(x[1]))
    return p0, tuple(x0)


def reference_nbs(params: Params, terms: Terms, ne) -> tuple:
    """Best dominance-constrained Nash product found by the reference.

    Nested zoom grids centred on the equilibrium (half-widths 1 down to 1e-8
    of the band), each best point refined by shrinking grids around it and
    polished with SLSQP. Returns ``(product, w1, w2)`` with the product in
    units of the squared utility scale; ``product`` is 0.0 when nothing
    improves on the threat point.
    """
    om = params.omega
    scale = utility_scale(params, terms)
    centre = (ne[0] / om, ne[1] / om)
    starts = []
    for k in range(9):
        p, x = _best_on_window(params, terms, ne, centre, 10.0 ** -k, 101)
        if p > 0.0:
            starts.append((p, x, 10.0 ** -k / 50.0))
    best_p, best_x = 0.0, centre
    seen = set()
    for p, x, half in sorted(starts, reverse=True)[:3]:
        if x in seen:
            continue
        seen.add(x)
        while half > 1e-13:
            q, y = _best_on_window(params, terms, ne, x, half, 21)
            if q > p:
                p, x = q, y
            half /= 4.0
        p, x = _slsqp_polish(params, terms, ne, x, p)
        if p > best_p:
            best_p, best_x = p, x
    return best_p / scale ** 2, om * best_x[0], om * best_x[1]


def grid_resolves(params: Params, terms: Terms, ne, product: float,
                  resolution: int) -> bool:
    """Whether a uniform allocation grid holds a point within the product
    tolerance of ``product`` (or the reference found no bargain at all)."""
    if product <= PRODUCT_FLOOR:
        return True
    axis = np.linspace(0.0, 1.0, resolution)
    X1, X2 = np.meshgrid(axis, axis, indexing="ij")
    best = float(_product_grid(params, terms, ne, X1, X2).max())
    return best / utility_scale(params, terms) ** 2 >= (1.0 - PRODUCT_REL_TOL) * product


def classify_nbs(params: Params, terms: Terms, ne, w, u, reference=None) -> list:
    """Reasons the reported bargaining solution ``w`` with utilities ``u`` is wrong.

    ``ne`` is the (already checked) equilibrium allocation. ``reference`` is
    the ``reference_nbs`` result when the caller has it already.
    """
    om = params.omega
    scale = utility_scale(params, terms)
    if not all(0.0 <= wi <= om for wi in w):
        return ["dominance"]
    reasons = []
    ref_u = utilities(params, terms, w[0], w[1])
    if any(abs(u[i] - ref_u[i]) > VALUE_REL_TOL * scale for i in (0, 1)):
        reasons.append("value")
    g1, g2 = gains(params, terms, ne, w[0], w[1])
    if min(g1, g2) < -DOMINANCE_REL_TOL * scale:
        return reasons + ["dominance"]
    p = max(g1, 0.0) * max(g2, 0.0) / scale ** 2
    if reference is None:
        reference = reference_nbs(params, terms, ne)
    p_ref = reference[0]
    if p_ref <= PRODUCT_FLOOR:
        return reasons
    if tuple(w) == tuple(ne):
        reasons.append("missed-bargain")
    elif p < (1.0 - PRODUCT_REL_TOL) * p_ref:
        reasons.append("short-bargain")
    return reasons


def nash_product_hessian(params: Params, terms: Terms, ne, w) -> np.ndarray:
    """Hessian of (u1 - t1)*(u2 - t2) at ``w``, from the product rule.

    H = d2*H1 + d1*H2 + g1 g2^T + g2 g1^T with the utility gradients g_i and
    the constant utility Hessians H1 = [[-2b, -b], [-b, 0]] and
    H2 = [[0, -b], [-b, -2b]].
    """
    b = params.b
    c1, c2 = terms.c
    w1, w2 = w
    d1, d2 = gains(params, terms, ne, w1, w2)
    grad1 = np.array([c1 - b * (2.0 * w1 + w2), -b * w1])
    grad2 = np.array([-b * w2, c2 - b * (2.0 * w2 + w1)])
    h1 = np.array([[-2.0 * b, -b], [-b, 0.0]])
    h2 = np.array([[0.0, -b], [-b, -2.0 * b]])
    return d2 * h1 + d1 * h2 + np.outer(grad1, grad2) + np.outer(grad2, grad1)


def check_concavity_row(lam1: float, lam2: float, flag: bool) -> list:
    """Eigenvalues in order, and the flag set exactly when lambda2 < 0."""
    if not (lam1 <= lam2) or flag != (lam2 < 0.0):
        return ["concavity"]
    return []


def check_eigenvalues(hess: np.ndarray, lam1: float, lam2: float, flag: bool) -> list:
    """``check_concavity_row`` plus agreement with the eigenvalues of ``hess``."""
    reasons = check_concavity_row(lam1, lam2, flag)
    ref = np.linalg.eigvalsh(hess)
    tol = 1e-7 * max(float(np.abs(hess).max()), 1e-300)
    if abs(ref[0] - lam1) > tol or abs(ref[1] - lam2) > tol:
        reasons.append("value")
    return reasons


def bandwidth_gain(ne_w: float, nbs_w: float) -> float:
    return 0.0 if ne_w == 0.0 else 100.0 * (ne_w - nbs_w) / ne_w


def welfare_gain(ne_u, nbs_u) -> float:
    total = ne_u[0] + ne_u[1]
    if total <= 0.0:
        return math.nan
    return 100.0 * (nbs_u[0] + nbs_u[1] - total) / total


def _same(a: float, b: float, rel: float = 1e-9) -> bool:
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= rel * max(1.0, abs(a), abs(b))


def check_gains(ne_w, nbs_w, ne_u, nbs_u, reported) -> list:
    """Reasons the reported (bw_u1, bw_u2, bw_total, sw) gains are wrong."""
    expected = (bandwidth_gain(ne_w[0], nbs_w[0]),
                bandwidth_gain(ne_w[1], nbs_w[1]),
                bandwidth_gain(ne_w[0] + ne_w[1], nbs_w[0] + nbs_w[1]),
                welfare_gain(ne_u, nbs_u))
    if all(_same(e, r) for e, r in zip(expected, reported)):
        return []
    return ["value"]


# ---------------------------------------------------------------- region


def ccw_order(points: np.ndarray, members) -> list:
    """``members`` sorted by angle around their centroid (counter-clockwise)."""
    members = np.asarray(members, dtype=int)
    pts = points[members]
    centre = pts.mean(axis=0)
    ang = np.arctan2(pts[:, 1] - centre[1], pts[:, 0] - centre[0])
    return [int(i) for i in members[np.argsort(ang, kind="stable")]]


def check_region(utilities_xy: np.ndarray, hull, pareto) -> list:
    """Reasons a hull (indices in their claimed order) and Pareto set are wrong.

    The hull must be a convex counter-clockwise polygon with every sample
    inside it. Every sample is a convex combination of the extreme points
    qhull finds, so it is enough to test those against the polygon. No
    sample may dominate a Pareto vertex, and every Pareto vertex must be a
    hull vertex.
    """
    u = np.asarray(utilities_xy, dtype=float)
    hull = [int(i) for i in hull]
    pareto = [int(i) for i in pareto]
    scale = max(float(np.abs(u).max()), 1e-300)
    tol = 1e-12 * scale
    if len(hull) < 3 or len(set(hull)) != len(hull) or not set(pareto) <= set(hull):
        return ["hull"]
    poly = u[hull]
    edge = np.roll(poly, -1, axis=0) - poly
    length = np.hypot(edge[:, 0], edge[:, 1])
    if not (length > 0.0).all():
        return ["hull"]
    # Convex and counter-clockwise: every turn is a left turn (or straight),
    # the signed area is positive and the edges wind around exactly once.
    nxt = np.roll(edge, -1, axis=0)
    turn = (edge[:, 0] * nxt[:, 1] - edge[:, 1] * nxt[:, 0]) / np.hypot(nxt[:, 0], nxt[:, 1])
    area = 0.5 * float(np.sum(poly[:, 0] * np.roll(poly[:, 1], -1)
                              - np.roll(poly[:, 0], -1) * poly[:, 1]))
    winding = float(np.sum(np.arctan2(edge[:, 0] * nxt[:, 1] - edge[:, 1] * nxt[:, 0],
                                      edge[:, 0] * nxt[:, 0] + edge[:, 1] * nxt[:, 1])))
    if (turn < -tol).any() or area <= 0.0 or abs(winding - 2.0 * math.pi) > 1e-6:
        return ["hull"]
    extreme = u[ConvexHull(u).vertices]
    for a, e, n in zip(poly, edge, length):
        dist = (e[0] * (extreme[:, 1] - a[1]) - e[1] * (extreme[:, 0] - a[0])) / n
        if (dist < -tol).any():
            return ["hull"]
    if not pareto:
        return ["hull"]
    for p in u[pareto]:
        ge = (u[:, 0] >= p[0] - tol) & (u[:, 1] >= p[1] - tol)
        gt = (u[:, 0] > p[0] + tol) | (u[:, 1] > p[1] + tol)
        if (ge & gt).any():
            return ["hull"]
    return []
