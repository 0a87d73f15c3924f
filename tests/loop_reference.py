"""The per-position sweep loop that the batched pipeline replaced, kept as the
reference it is checked against.

One relay at a time in Python floats: link budget, marginal terms, the
equilibrium as the first feasible of the nine KKT clamp patterns, the exact
bargaining solution (quartic coefficients in the total band from
``np.convolve``, roots from ``np.roots``), the Hessian eigenvalues at the
bargaining solution, and the gains. It imports nothing from ``bandgame``.

Its ``np.roots`` is an independent reference for the package's quartic
solver, which finds the roots in closed form from other coefficients (those
of the same quartic in t = b*s, divided by 4*b**4), without an eigenvalue
routine. So the two agree to rounding, not bit for bit.

It shares with the package the primitives that are not exactly rounded:
``np.hypot``, ``d**pathloss_exp``, ``np.expm1`` and ``**M``, each applied to
1-element arrays (:func:`_one`), as the package applies them to arrays of
positions. Python's ``math`` and numpy's scalar ``**`` can round these
differently in the last bit from numpy's array loops, so sharing them is what
lets the comparison demand bit equality everywhere else. The eigenvalue square is a
product, exactly rounded in either. What the shared primitives compute is
checked independently by ``bench/reference.py`` (numpy and scipy only,
nothing from ``bandgame``), row by row in ``tests/check_sweep_reference.py``.
"""

import math

import numpy as np


class Failure(Exception):
    """A position without a solution; the message is the sweep's failure text."""


def _one(x):
    """``x`` as a 1-element array, so that a ufunc on it runs numpy's array
    loop, as the package's batch does, and not numpy's scalar path."""
    return np.array([x], dtype=float)


def _hypot(x, y):
    return np.hypot(_one(x), _one(y)).item()


def _gain(d, s):
    if d == 0:
        raise Failure("co-located nodes: channel gain undefined at zero distance")
    with np.errstate(over="ignore"):  # inf where it overflows
        attenuation = (_one(d) ** s.pathloss_exp).item()
    if attenuation == 0.0:
        raise Failure(f"nodes {d!r} m apart: d**pathloss_exp underflows to zero")
    return s.pathloss_const / attenuation


def _efficiency(x, M):
    if x == 0.0:
        return 0.0
    return ((-np.expm1(_one(-0.5 * x))) ** M).item()


def terms(s, relay):
    """((phi1, psi1), (phi2, psi2)) at one relay position."""
    out = []
    for src, dst, p in ((s.source_1, s.dest_1, s.p1), (s.source_2, s.dest_2, s.p2)):
        h_ii = _gain(_hypot(src.x - dst.x, src.y - dst.y), s)
        h_ir = _gain(_hypot(src.x - relay.x, src.y - relay.y), s)
        h_ri = _gain(_hypot(relay.x - dst.x, relay.y - dst.y), s)
        g_direct = p * h_ii / s.sigma2
        num = p * s.p_r * h_ir * h_ri
        den = s.sigma2 * (p * h_ir + s.p_r * h_ri + s.sigma2)
        g_af = g_direct + num / den
        out.append((s.alpha * _efficiency(g_direct, s.M) / p,
                    s.alpha * _efficiency(g_af, s.M) / (p + s.p_r)))
    return out


_LO, _IN, _HI = 0, 1, 2


def _kkt_candidate(pattern, c1, c2, b, omega):
    s1, s2 = pattern
    slack = 1e-12 * max(abs(c1), abs(c2), 3.0 * b * omega)
    fixed = {_LO: 0.0, _HI: omega}
    if s1 == _IN and s2 == _IN:
        if b == 0:
            if abs(c1) > slack or abs(c2) > slack:
                return None
            w1 = w2 = 0.0
        else:
            w1 = (2.0 * c1 - c2) / (3.0 * b)
            w2 = (2.0 * c2 - c1) / (3.0 * b)
    elif s1 == _IN:
        w2 = fixed[s2]
        if b == 0:
            if abs(c1) > slack:
                return None
            w1 = 0.0
        else:
            w1 = (c1 - b * w2) / (2.0 * b)
    elif s2 == _IN:
        w1 = fixed[s1]
        if b == 0:
            if abs(c2) > slack:
                return None
            w2 = 0.0
        else:
            w2 = (c2 - b * w1) / (2.0 * b)
    else:
        w1, w2 = fixed[s1], fixed[s2]
    tol_w = 1e-12 * omega
    for s, w in ((s1, w1), (s2, w2)):
        if s == _IN and not (-tol_w <= w <= omega + tol_w):
            return None
    w1 = min(max(w1, 0.0), omega)
    w2 = min(max(w2, 0.0), omega)
    for i, s, w_own, w_oth in ((1, s1, w1, w2), (2, s2, w2, w1)):
        partial = (c1 if i == 1 else c2) - b * (2.0 * w_own + w_oth)
        if s == _LO and partial > slack:
            return None
        if s == _HI and partial < -slack:
            return None
    return w1, w2


def nash_equilibrium(c1, c2, b, omega):
    """(w1, w2) of the first feasible pattern in the order IN, LO, HI per user."""
    for s1 in (_IN, _LO, _HI):
        for s2 in (_IN, _LO, _HI):
            alloc = _kkt_candidate((s1, s2), c1, c2, b, omega)
            if alloc is not None:
                return alloc
    raise Failure("no KKT pattern validated; inconsistent inputs")


def _quadratic_roots(q2, q1, q0):
    disc = np.sqrt(np.maximum(q1 * q1 - 4.0 * q2 * q0, 0.0))
    q = -0.5 * (q1 + np.copysign(disc, q1))
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.stack([q / q2, q0 / q])


def normalized(c1, c2, b, omega, ne):
    """(c1, c2, b, a1, a2, alpha1, alpha2) in units where the band is 1 and
    the largest of |c1|, |c2| and b*omega is 1, with the threat allocation a
    and alpha_i = -a_i*(c_i - b*(a1 + a2))."""
    unit = max(abs(c1), abs(c2), b * omega) or 1.0
    c1, c2, b = c1 / unit, c2 / unit, b * omega / unit
    a1, a2 = ne[0] / omega, ne[1] / omega
    alpha1 = -a1 * (c1 - b * (a1 + a2))
    alpha2 = -a2 * (c2 - b * (a1 + a2))
    return c1, c2, b, a1, a2, alpha1, alpha2


def interior_quartic(c1, c2, b, alpha1, alpha2):
    """Coefficients, highest degree first, of the quartic in the total band s
    whose roots are the interior candidates (normalized units)."""
    p2, p1, p0 = b * b, -b * (c1 + c2), c1 * c2
    n = np.array([p2, p1, p0 - b * (alpha1 + alpha2), c1 * alpha2 + c2 * alpha1])
    return (2.0 * np.convolve(n[:3] * [3.0, 2.0, 1.0], [p2, p1, p0])
            - np.convolve(n, [2.0 * p2, p1]))


def exact_nbs(c1, c2, b, omega, ne):
    """(w1, w2) of the bargaining solution, or None where there is no bargain."""
    c1, c2, b, a1, a2, alpha1, alpha2 = normalized(c1, c2, b, omega, ne)
    roots = np.roots(interior_quartic(c1, c2, b, alpha1, alpha2))
    total = roots.real[np.abs(roots.imag) <= 1e-6 * (1.0 + np.abs(roots.real))]
    total = np.clip(total, 0.0, 2.0)
    av, bv = c1 - b * total, c2 - b * total
    peaked = av * bv > 0.0
    total, av, bv = total[peaked], av[peaked], bv[peaked]
    inner1 = (av * (alpha2 + bv * total) - bv * alpha1) / (2.0 * av * bv)
    e = np.array([0.0, 0.0, 1.0, 1.0])
    pins_w1 = np.array([True, False, True, False])
    cp, ap = np.array([c1, c2, c1, c2]), np.array([alpha1, alpha2, alpha1, alpha2])
    cf, af = cp[[1, 0, 3, 2]], ap[[1, 0, 3, 2]]
    h0, h1, f1 = ap + cp * e - b * e * e, -b * e, cf - b * e
    z = _quadratic_roots(-3.0 * b * h1, 2.0 * (h1 * f1 - b * h0), h1 * af + h0 * f1)
    y = np.column_stack([
        np.concatenate([[0.0, 0.0, 1.0, 1.0], inner1, np.where(pins_w1, e, z).ravel()]),
        np.concatenate([[0.0, 1.0, 0.0, 1.0], total - inner1, np.where(pins_w1, z, e).ravel()])])
    y = np.clip(y[np.isfinite(y).all(axis=1)], 0.0, 1.0)
    d1, d2 = y[:, 0] - a1, y[:, 1] - a2
    g1 = d1 * (c1 - b * (y[:, 0] + a1 + y[:, 1])) - b * a1 * d2
    g2 = d2 * (c2 - b * (y[:, 1] + a2 + y[:, 0])) - b * a2 * d1
    product = np.where((g1 >= 0.0) & (g2 >= 0.0), g1 * g2, -np.inf)
    best = product.max()
    if not best > 0.0:
        return None
    ties = np.flatnonzero(product == best)
    k = int(ties[np.argmax(g1[ties] + g2[ties])])
    return float(omega * y[k, 0]), float(omega * y[k, 1])


def _utility(phi, psi, w_own, w_other, omega, b):
    return phi * (omega - w_own) + psi * w_own - b * (w_own + w_other) * w_own


def _bandwidth_gain(ne_w, nbs_w):
    if ne_w == 0.0:
        return 0.0
    return 100.0 * (ne_w - nbs_w) / ne_w


def position(s, relay):
    """Everything the sweep records at one relay position, as a dict, or the
    failure message."""
    try:
        (phi1, psi1), (phi2, psi2) = terms(s, relay)
        c1, c2 = psi1 - phi1, psi2 - phi2
        b, omega = s.b, s.omega
        ne = nash_equilibrium(c1, c2, b, omega)
    except Failure as exc:
        return str(exc)

    def utilities(w):
        return (_utility(phi1, psi1, w[0], w[1], omega, b),
                _utility(phi2, psi2, w[1], w[0], omega, b))

    threat = utilities(ne)
    found = exact_nbs(c1, c2, b, omega, ne)
    nbs = ne if found is None else found
    nbs_u = utilities(nbs)
    w1, w2 = nbs
    d1, d2 = nbs_u[0] - threat[0], nbs_u[1] - threat[1]
    du1 = c1 - b * (2.0 * w1 + w2)
    du2 = c2 - b * (2.0 * w2 + w1)
    a11 = -2.0 * b * d2 - 2.0 * b * w2 * du1
    a22 = -2.0 * b * d1 - 2.0 * b * w1 * du2
    a12 = -b * d2 - b * d1 + b * b * w1 * w2 + du1 * du2
    root = math.sqrt((a11 - a22) * (a11 - a22) + 4.0 * a12 * a12)
    ne_sum = threat[0] + threat[1]
    return {
        "ne": ne, "ne_u": threat, "nbs": nbs, "nbs_u": nbs_u,
        "bargain": found is not None,
        "gains": (_bandwidth_gain(ne[0], nbs[0]), _bandwidth_gain(ne[1], nbs[1]),
                  _bandwidth_gain(ne[0] + ne[1], nbs[0] + nbs[1]),
                  math.nan if ne_sum <= 0.0
                  else 100.0 * (nbs_u[0] + nbs_u[1] - ne_sum) / ne_sum),
        "lambdas": ((a11 + a22 - root) / 2.0, (a11 + a22 + root) / 2.0),
    }
