"""Nash bargaining over the relay band: product objective, CG solver, region tools.

The bargaining objective is the Nash product

    pi(w1, w2) = (u1(w) - u1_ne) * (u2(w) - u2_ne)

whose maximizer over the utilities weakly dominating the equilibrium pair is
the Nash bargaining solution. This module provides the analytic gradient and
Hessian of pi, its eigenvalue-based concavity certificate, the exact
closed-form bargaining solver that production paths use (it scores the real
roots of one quartic and nothing else: where both users rent band at the
threat point no point of the box boundary has a positive product, and where
one rents none there is no bargain), the paper's projected
Polak-Ribiere conjugate-gradient solver with Newton step lengths (which returns
the exact solver's answer in place of an endpoint that does not weakly
dominate the threat point or has no positive product), a brute-force grid
oracle kept as the tests' reference, and the sampled utility region with its
convex hull, Pareto boundary and time-sharing mixtures. The oracle and the
region evaluate the utilities on the same uniform allocation grid, one
broadcast over its axis of band values.

Contexts, allocations, Hessians and eigenvalue pairs hold floats for one
relay position, or equal-length arrays for a batch of positions (see
:func:`make_context_batch`). The Nash product, its gradient, its Hessian and
the eigenvalues take either; the bargaining solution is computed for a batch
at once (:func:`exact_nbs_batch`), and :func:`exact_nbs` is its call with
N = 1. A batch context keeps a failed position in its slot with a NaN
equilibrium, and everything computed from it is NaN, or False for a flag.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .game import (BandAllocation, ConvergenceError, EquilibriumReport, MarginalTerms,
                   UtilityPair, _kkt_allocation, marginal_terms, nash_equilibrium_batch,
                   utility_pair)
from .system_model import Point, Scenario, link_budget, link_budget_batch, select


@dataclass(frozen=True)
class NashProductContext:
    """Frozen inputs of one bargaining problem: scenario, marginal terms and
    the threat (equilibrium) allocation. ``threat``, the utilities at
    ``ne_alloc``, is derived from them."""

    scenario: Scenario
    terms: MarginalTerms
    ne_alloc: BandAllocation
    threat: UtilityPair = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "threat",
                           utility_pair(self.ne_alloc, self.terms, self.scenario))


def make_context(scenario: Scenario, relay: Point) -> NashProductContext:
    """Build the bargaining context for one relay position (computes the NE);
    raises the error that leaves the position unsolvable.

    Every field is a float: :func:`make_context_batch`'s stages run on the
    position's floats, and give the batch's context or error bit for bit.
    """
    terms = marginal_terms(link_budget(scenario, relay), scenario)
    w1, w2 = _kkt_allocation([terms.psi1 - terms.phi1, terms.psi2 - terms.phi2], scenario)
    return NashProductContext(scenario=scenario, terms=terms, ne_alloc=BandAllocation(w1, w2))


def make_context_batch(scenario: Scenario, xr, yr) -> tuple:
    """Bargaining contexts at the N relay positions with coordinates ``xr``,
    ``yr``: link budgets, marginal terms and closed-form equilibria, each
    computed for all positions at once.

    Returns the context, whose value fields are arrays over the positions,
    and a tuple with, for each position, None or the error that leaves it
    unsolvable (a DegenerateGeometryError from the link budget, or a
    ConvergenceError). A failed position keeps its slot with a NaN
    equilibrium, so everything computed from it is NaN as well.
    """
    budget, failures = link_budget_batch(scenario, xr, yr)
    terms = marginal_terms(budget, scenario)
    ne = nash_equilibrium_batch(terms, scenario)
    unsolved = np.isnan(ne.w1)
    if unsolved.any():
        failures = tuple(f or (ConvergenceError("no KKT pattern validated; inconsistent inputs")
                               if bad else None) for f, bad in zip(failures, unsolved.tolist()))
    if failures.count(None) < len(failures):
        failed = np.not_equal(failures, None)
        ne = BandAllocation(w1=np.where(failed, math.nan, ne.w1),
                            w2=np.where(failed, math.nan, ne.w2))
    return NashProductContext(scenario=scenario, terms=terms, ne_alloc=ne), failures


def _numbers(ctx: NashProductContext) -> tuple:
    """The numbers of a context that :func:`_gains` reads after (w1, w2):
    phi_i, psi_i and c_i = psi_i - phi_i of each user, omega, b and the
    threat utilities."""
    t, s = ctx.terms, ctx.scenario
    return (t.phi1, t.psi1, t.relay_advantage(1), t.phi2, t.psi2, t.relay_advantage(2),
            s.omega, s.b, ctx.threat.u1, ctx.threat.u2)


def _gains(w1, w2, phi1, psi1, c1, phi2, psi2, c2, omega, b, t1, t2) -> tuple:
    """The utility gains d_i = u_i - u_i_ne and the partials du_i = d u_i / d w_i
    at (w1, w2), on floats or elementwise on arrays: the kernel of the Nash
    product, its gradient and its Hessian.

    u_i is :func:`~bandgame.game.utility_value`'s expression and du_i
    :func:`~bandgame.game.utility_partial`'s, with c_i the terms'
    ``relay_advantage(i)``, each in the same order, so every result has
    their bits.
    """
    d1 = phi1 * (omega - w1) + psi1 * w1 - b * (w1 + w2) * w1 - t1
    d2 = phi2 * (omega - w2) + psi2 * w2 - b * (w2 + w1) * w2 - t2
    du1 = c1 - b * (2.0 * w1 + w2)
    du2 = c2 - b * (2.0 * w2 + w1)
    return d1, d2, du1, du2


def _gradient(w1, w2, b, d1, d2, du1, du2) -> tuple:
    """(dpi/dw1, dpi/dw2) from :func:`_gains`' values at (w1, w2).

    Uses d u_j / d w_i = -b * w_j for j != i: the opponent's utility sees w_i
    only through the price on its own rented band.
    """
    return du1 * d2 + d1 * (-b * w2), d1 * du2 + d2 * (-b * w1)


def _curvature(w1, w2, b, unit, d1, d2, du1, du2) -> tuple:
    """The Hessian entries (a11, a22, a12) of the Nash product at (w1, w2)
    divided by ``unit`` squared, from :func:`_gains`' values there."""
    b = b * unit
    d1, d2, du1, du2 = d1 * unit, d2 * unit, du1 * unit, du2 * unit
    a11 = -2.0 * b * d2 - 2.0 * b * w2 * du1
    a22 = -2.0 * b * d1 - 2.0 * b * w1 * du2
    a12 = -b * d2 - b * d1 + b * b * w1 * w2 + du1 * du2
    return a11, a22, a12


def nash_product(alloc: BandAllocation, ctx: NashProductContext) -> float:
    """(u1 - u1_ne)*(u2 - u2_ne); negative outside the dominance quadrant."""
    d1, d2, _, _ = _gains(alloc.w1, alloc.w2, *_numbers(ctx))
    return d1 * d2


def nash_product_gradient(alloc: BandAllocation, ctx: NashProductContext):
    """Analytic gradient (dpi/dw1, dpi/dw2) (see :func:`_gradient`)."""
    w1, w2 = alloc.w1, alloc.w2
    return _gradient(w1, w2, ctx.scenario.b, *_gains(w1, w2, *_numbers(ctx)))


@dataclass(frozen=True)
class Hessian2x2:
    """Second partials of the Nash product: 2**exponent times the matrix
    [[a11, a12], [a12, a22]]; ``a12`` is both off-diagonal entries."""

    a11: float
    a22: float
    a12: float
    exponent: int = 0


# The Hessian is quadratic in the utility unit, which alpha and b carry. Its
# factors are divided by 2**m, m the multiple of this step nearest log2(alpha):
# that is exact, m is 0 for every alpha between about 1e-38 and 1e38, and no
# entry overflows at any unit.
_UNIT_STEP = 256


def _unit_exponent(alpha: float) -> int:
    """m of the Hessian's unit 2**m (see ``_UNIT_STEP``)."""
    return _UNIT_STEP * round(math.frexp(alpha)[1] / _UNIT_STEP)


def hessian(alloc: BandAllocation, ctx: NashProductContext) -> Hessian2x2:
    """Analytic Hessian of the Nash product at ``alloc``; elementwise for a
    batch context and allocation."""
    m = _unit_exponent(ctx.scenario.alpha)
    w1, w2 = alloc.w1, alloc.w2
    a11, a22, a12 = _curvature(w1, w2, ctx.scenario.b, math.ldexp(1.0, -m),
                               *_gains(w1, w2, *_numbers(ctx)))
    return Hessian2x2(a11=a11, a22=a22, a12=a12, exponent=2 * m)


@dataclass(frozen=True)
class EigenPair:
    """Real eigenvalues of a symmetric 2x2 Hessian, lambda1 <= lambda2."""

    lambda1: float
    lambda2: float
    delta: float


def eigenvalues(h: Hessian2x2) -> EigenPair:
    """Closed-form eigenvalues via trace and discriminant, of one Hessian or
    of a batch (fields are arrays).

    delta = (a11 - a22)**2 + 4*a12**2 is a sum of squares, hence the
    eigenvalues are always real. Each Hessian is first scaled by the power of
    two that brings its largest entry into [0.5, 1): that is exact, and no
    square overflows or underflows on the way. An eigenvalue beyond the float
    range is infinite, with its sign.
    """
    _, e = np.frexp(np.maximum(np.maximum(abs(h.a11), abs(h.a22)), abs(h.a12)))
    a11, a22, a12 = np.ldexp(h.a11, -e), np.ldexp(h.a22, -e), np.ldexp(h.a12, -e)
    d = a11 - a22
    delta = d * d + 4.0 * a12 * a12
    root = np.sqrt(delta)
    tr = a11 + a22
    e = e + h.exponent
    with np.errstate(over="ignore"):  # a delta beyond the float range is inf
        return EigenPair(lambda1=np.ldexp((tr - root) / 2.0, e),
                         lambda2=np.ldexp((tr + root) / 2.0, e), delta=np.ldexp(delta, 2 * e))


def is_strictly_concave_at(alloc: BandAllocation, ctx: NashProductContext) -> bool:
    """True iff the Nash product Hessian at ``alloc`` is negative definite."""
    return bool(eigenvalues(hessian(alloc, ctx)).lambda2 < 0.0)


NON_FINITE_NOTE = "stopped at a non-finite iterate, objective or gradient"


def cg_minimize(fun, grad, hess, w0, lo, hi, epsilon, max_iter, mode: str = "joint"):
    """Projected nonlinear CG with Newton step lengths and PR+ updates.

    Minimizes ``fun`` over the box [lo, hi]^2. Per iteration: a Newton-optimal
    step ``t = -g.v / v.A.v`` along the current direction (falling back to
    steepest descent with Armijo backtracking when the curvature along v is
    not positive), projection onto the box, then the Polak-Ribiere direction
    update with negative beta clipped to zero. In ``alternating`` mode only
    one coordinate (1, 2, 1, 2, ...) keeps its new value each iteration.

    Stops when the direction norm falls to ``epsilon`` or, because projection
    can pin a coordinate against the box while the raw direction stays large,
    when the projected gradient does: the gradient without its components
    that point outward at an active bound. ``epsilon=None`` means
    1e-8 * max(1, |g|), with g the gradient at the (projected) start.

    The fallback keeps the trial point it accepts and the objective value
    there: where the next iteration falls back again from that point, that
    value is its start value, and ``fun`` is not called at the same point
    twice. Norms and the dot products with v and A stay numpy 2-vector dot
    products: BLAS may fuse their multiply-adds, so plain float arithmetic
    would round some of them differently.

    It stops at once where the iterate or the gradient there is not finite,
    or the objective at the iterate a fallback starts from: the residual is
    then NaN, and a note says so.

    Returns ``(w, residual, iterations, converged, notes)``; the residual is
    the smaller of the two norms at ``w``, and it is converged only where it
    is finite and at most epsilon.
    """
    if mode not in ("joint", "alternating"):
        raise ValueError(f"unknown mode {mode!r}")

    def norm(x):  # what np.linalg.norm computes for a 1-D float vector
        return math.sqrt(x.dot(x))

    def clip(x):  # np.clip without its wrapper; it keeps x's sign of zero at lo
        return np.minimum(np.maximum(lo, x), hi)

    def projected_norm(ws, gs, g):
        # Components of g (whose floats are gs, w's are ws) that point outward
        # at an active bound do not count; with one zeroed, norm's dot
        # product is the other's square exactly.
        kept = [gi for wi, gi in zip(ws, gs)
                if not (wi <= lo and gi > 0.0 or wi >= hi and gi < 0.0)]
        return norm(g) if len(kept) == 2 else math.sqrt(sum(x * x for x in kept))

    w = clip(np.asarray(w0, dtype=float))
    g = np.asarray(grad(w), dtype=float)
    if epsilon is None:
        epsilon = 1e-8 * max(1.0, norm(g))
    v = -g
    k = 0
    fallbacks = 0
    f_w = None  # fun(w) where a fallback evaluated it on accepting w, else None
    pinned_stop = non_finite = False
    span = hi - lo
    while True:
        ws, gs = w.tolist(), g.tolist()
        if not all(map(math.isfinite, ws + gs)):
            non_finite = True
            break
        v_norm = norm(v)
        if k >= max_iter or v_norm <= epsilon:
            break
        pg_norm = projected_norm(ws, gs, g)
        if pg_norm <= epsilon:
            pinned_stop = True
            break
        A = np.asarray(hess(w), dtype=float)
        curvature = float(v @ A @ v)
        if curvature > 0.0:
            t = -float(g @ v) / curvature
            w_next = clip(w + t * v)
            f_w = None
        else:
            # Non-convex stretch: Newton length is undefined or an ascent;
            # take a safeguarded steepest-descent step instead. The first
            # trial moves at most 5% of the box: an objective like the Nash
            # product scores high again far beyond its local maximum, and a
            # long clipped step could hop the valley in between.
            fallbacks += 1
            v = -g
            slope = float(g @ v)
            f0 = fun(w) if f_w is None else f_w
            if not math.isfinite(f0):
                non_finite = True
                break
            t = 0.05 * span / max(norm(v), 1e-300)
            for _ in range(60):
                w_next = clip(w + t * v)
                f_w = fun(w_next)
                if f_w <= f0 + 1e-4 * t * slope:
                    break
                t *= 0.5
            else:  # no trial accepted: one more halving, not evaluated
                w_next = clip(w + t * v)
                f_w = None
        if mode == "alternating":
            keep = w.copy()
            keep[k % 2] = w_next[k % 2]
            w_next = keep
            f_w = None
        g_next = np.asarray(grad(w_next), dtype=float)
        gg = float(g @ g)
        beta = float(g_next @ (g_next - g)) / gg if gg > 0.0 else 0.0
        if beta < 0.0:
            beta = 0.0
        v = -g_next + beta * v
        w, g = w_next, g_next
        k += 1
    notes = []
    if fallbacks:
        notes.append(f"steepest-descent fallback used on {fallbacks} iteration(s)")
    if non_finite:
        notes.append(NON_FINITE_NOTE)
        return w, math.nan, k, False, notes
    if pinned_stop:
        notes.append("stopped at a box-stationary point (projected gradient below epsilon)")
    else:
        pg_norm = projected_norm(ws, gs, g)
    res = min(v_norm, pg_norm)
    return w, res, k, math.isfinite(res) and res <= epsilon, notes


def cg_nbs(ctx: NashProductContext, w0: BandAllocation | None = None,
           epsilon: float | None = None, max_iter: int = 200,
           mode: str = "joint") -> EquilibriumReport:
    """Nash bargaining solution by conjugate-gradient descent on -pi.

    The default start is the equilibrium allocation shrunk by 10 percent.
    Where both users rent band at the equilibrium, renting slightly less
    raises both utilities, so that point lies inside the dominance region the
    bargaining optimum belongs to. Where a user rents no band at the
    equilibrium, the start leaves that user at zero band and at its threat
    utility, so the start's product is 0; most rejected endpoints (below)
    come from such starts. (A start such as (omega/2, omega/2) usually sits
    where both players lose relative to the threat point; the product of two
    losses is positive and grows away from the solution, so the iteration
    would chase the wrong quadrant.) Default epsilon is
    1e-8 * max(1, |grad pi|) at the start (see :func:`cg_minimize`).
    Iterates are projected onto [0, omega]^2; the dominance constraint
    u_i >= u_i_ne is not enforced during the iteration. The context's
    numbers (:func:`_numbers`) and the Hessian's unit are read once per
    call; the objective, its gradient and its Hessian are then the
    kernel's (:func:`_gains`) on the iterate's two Python floats, which
    round as numpy's scalars do, so they have the bits of
    :func:`nash_product`, :func:`nash_product_gradient` and
    :func:`hessian`.

    One exit rule: an endpoint that does not weakly dominate the threat
    point, whose Nash product is not positive, or whose residual is not
    finite (a gradient norm that overflows), is rejected, and
    :func:`exact_nbs` is returned in its place with a note. So where there
    is no bargain the result is the threat allocation, and where there is
    one it weakly dominates the threat point with a positive product.
    """
    if w0 is None:
        w0 = BandAllocation(0.9 * ctx.ne_alloc.w1, 0.9 * ctx.ne_alloc.w2)
    numbers = _numbers(ctx)
    b = ctx.scenario.b
    m = _unit_exponent(ctx.scenario.alpha)
    unit = math.ldexp(1.0, -m)

    def fun_m(w):
        d1, d2, _, _ = _gains(*w.tolist(), *numbers)
        return -(d1 * d2)

    def grad_m(w):
        w1, w2 = w.tolist()
        g1, g2 = _gradient(w1, w2, b, *_gains(w1, w2, *numbers))
        return (-g1, -g2)

    def hess_m(w):
        w1, w2 = w.tolist()
        a11, a22, a12 = _curvature(w1, w2, b, unit, *_gains(w1, w2, *numbers))
        return -np.ldexp(np.array([[a11, a12], [a12, a22]]), 2 * m)

    w, residual, iters, converged, notes = cg_minimize(
        fun_m, grad_m, hess_m, (w0.w1, w0.w2), 0.0, ctx.scenario.omega, epsilon,
        max_iter, mode=mode)

    alloc = BandAllocation(*w.tolist())
    u = utility_pair(alloc, ctx.terms, ctx.scenario)
    dominates = all(
        u.u(i) >= ctx.threat.u(i) - 1e-12 * abs(ctx.threat.u(i)) for i in (1, 2))
    if not dominates or nash_product(alloc, ctx) <= 0.0 or not math.isfinite(residual):
        exact = exact_nbs(ctx)
        return replace(
            exact,
            diagnostics=exact.diagnostics + tuple(notes) + (
                "cg endpoint rejected; exact result returned",))

    return EquilibriumReport(
        allocation=alloc,
        utilities=u,
        kind="NBS",
        iterations=iters,
        residual=residual,
        converged=converged,
        diagnostics=tuple(notes),
    )


NO_BARGAIN_NOTE = ("no allocation improves both utilities on the threat "
                   "point; returning the threat allocation")


def exact_nbs(ctx: NashProductContext) -> EquilibriumReport:
    """Nash bargaining solution in closed form: the maximizer of the Nash
    product over the allocations that weakly dominate the threat point.

    Solved by :func:`exact_nbs_batch` with N = 1. Where no allocation has a
    positive product the threat allocation is returned, with a note.
    """
    alloc, bargain = exact_nbs_batch(ctx.terms, ctx.ne_alloc, ctx.scenario)
    if not bargain[0]:
        return EquilibriumReport(
            allocation=ctx.ne_alloc, utilities=ctx.threat, kind="NBS",
            iterations=0, residual=0.0, converged=True,
            diagnostics=(NO_BARGAIN_NOTE,))
    alloc = select(alloc, 0)
    return EquilibriumReport(
        allocation=alloc, utilities=utility_pair(alloc, ctx.terms, ctx.scenario),
        kind="NBS", iterations=0, residual=0.0, converged=True)


def exact_nbs_batch(terms: MarginalTerms, ne_alloc: BandAllocation,
                    scenario: Scenario) -> tuple:
    """Bargaining solutions of a batch: marginal terms and threat (equilibrium)
    allocations whose fields are arrays over the positions, or floats for one
    position.

    Returns the allocations, with the threat allocation where there is no
    bargain, and the mask of the positions that have one, as arrays.

    Works in units where the band is 1 and the largest of |c1|, |c2| and
    b*omega is 1 (c_i = psi_i - phi_i), with the threat allocation a. On a
    slice of fixed total band s = w1 + w2 both users pay b*s per Hz, so
    with A = c1 - b*s and B = c2 - b*s the gains are affine,

        g1 = alpha1 + A*w1,   g2 = alpha2 + B*(s - w1),
        alpha_i = -a_i*(c_i - b*(a1 + a2)),

    and the product is a quadratic in w1. Where AB > 0 its peak
    w1*(s) = (A*(alpha2 + B*s) - B*alpha1) / (2AB) has the value
    N(s)**2 / (4AB) with N = A*alpha2 + B*alpha1 + AB*s, which is stationary
    in s at the roots of the quartic 2N'AB - N(AB)', found in closed form
    (:func:`_quartic_roots`). The four candidates for its real roots are
    the only ones scored (:func:`_best_candidates`).

    Only positions where both users rent band at the threat point are
    scored. Where user i rents none, user j's threat band is its best
    response to 0, its global maximum, since u_j(w_i, w_j) <= u_j(0, w_j)
    for b >= 0; so g_j <= 0 everywhere and no product is positive.

    On a scored position (a1, a2 > 0) no point of the box boundary has a
    positive product, so the bargain is an interior stationary point: a
    maximum of the product on its slice, where AB > 0, and stationary in s.
    On the edge w_i = 0, u_i does not depend on w_j, and a_i > 0 is user
    i's unique best response to a_j, so g_i < 0. On the edge w_i = omega
    with a_i < 1, g_j = -b*((w_j - a_j)**2 + w_j*(1 - a_i)) < 0 where a_j
    is interior, and g_j <= -b*(w_j**2 - (1 + a_i)*w_j + 1) < 0 where
    a_j = 1. With a_i = 1 that edge is user j's best-response line, so
    g_j <= 0. At a zero price a scored position has a1 = a2 = 1, each
    u_i ignores w_j, and there is no bargain; its quartic has no finite
    root in s.
    """
    omega = scenario.omega
    w1, w2 = (np.array(w, dtype=float, ndmin=1) for w in (ne_alloc.w1, ne_alloc.w2))
    a1, a2 = w1 / omega, w2 / omega
    bargain = np.zeros(len(w1), dtype=bool)
    scored = np.flatnonzero((a1 > 0.0) & (a2 > 0.0))  # NaN rows fall out too
    if len(scored):
        # unit > 0: b*omega > 0, or at b = 0 renting band needs c_i > 0.
        c1, c2 = (np.reshape(terms.relay_advantage(i), -1)[scored] for i in (1, 2))
        b = scenario.b * omega
        unit = np.maximum(np.maximum(abs(c1), abs(c2)), b)
        best, y1, y2 = _best_candidates(c1 / unit, c2 / unit, b / unit,
                                        a1[scored], a2[scored])
        won = best > 0.0
        bargain[scored[won]] = True
        w1[scored[won]], w2[scored[won]] = omega * y1[won], omega * y2[won]
    return BandAllocation(w1=w1, w2=w2), bargain


def _best_candidates(c1, c2, b, a1, a2) -> tuple:
    """The largest Nash product over the four candidates of the quartic's
    real roots, and the allocation that wins it, for N positions in
    :func:`exact_nbs_batch`'s normalized units (the (N,) arrays ``c1``,
    ``c2``, ``b``, and the threat allocation ``a1``, ``a2``, both positive).

    No corner or edge is scored: with both users renting band at the threat
    point, no boundary point has a positive product (see
    :func:`exact_nbs_batch`). Each candidate is scored with gains written
    without subtracting two nearly equal utilities; a candidate that is not
    a slice peak (AB <= 0, a non-finite value) or that does not dominate the
    threat point scores -inf, so the product is -inf where none does. The
    largest product wins, ties going to the larger utility sum, then to the
    first candidate.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        alpha1 = -a1 * (c1 - b * (a1 + a2))
        alpha2 = -a2 * (c2 - b * (a1 + a2))
        roots = _quartic_roots(*_interior_quartic(c1, c2, b, alpha1, alpha2))
        b, c1, c2, a1, a2, alpha1, alpha2 = (
            np.reshape(x, (-1, 1)) for x in (b, c1, c2, a1, a2, alpha1, alpha2))
        total = roots / b
        real = np.isfinite(total)
        total = np.clip(np.where(real, total, 0.0), 0.0, 2.0)
        av, bv = c1 - b * total, c2 - b * total
        y1 = (av * (alpha2 + bv * total) - bv * alpha1) / (2.0 * av * bv)
        y2 = total - y1
        valid = real & (av * bv > 0.0) & np.isfinite(y1)  # then y2 is finite too
        y1 = np.clip(np.where(valid, y1, 0.0), 0.0, 1.0)
        y2 = np.clip(np.where(valid, y2, 0.0), 0.0, 1.0)
        d1, d2 = y1 - a1, y2 - a2
        g1 = d1 * (c1 - b * (y1 + a1 + y2)) - b * a1 * d2
        g2 = d2 * (c2 - b * (y2 + a2 + y1)) - b * a2 * d1
        product = np.where(valid & (g1 >= 0.0) & (g2 >= 0.0), g1 * g2, -np.inf)
    best = product.max(axis=1)
    k = np.argmax(np.where(product == best[:, None], g1 + g2, -np.inf), axis=1)
    rows = np.arange(len(k))
    return best, y1[rows, k], y2[rows, k]


def _interior_quartic(c1, c2, b, alpha1, alpha2) -> tuple:
    """Coefficients (e3, e2, e1, e0) of the monic quartic in t = b*s whose
    roots are the stationary points of :func:`exact_nbs_batch`'s slice
    maximum N(s)**2/(4AB), in its normalized units; elementwise.

    With AB = b**2*s**2 - b*(c1 + c2)*s + c1*c2 and
    N = AB*s + A*alpha2 + B*alpha1 = b**2*s**3 - b*(c1 + c2)*s**2 + n2*s + n3,
    the quartic 2*N'*AB - N*(AB)' has the leading coefficient 4*b**4. In t,
    divided by it, it reads

        t**4 - 7*sum*t**3/4 + (6*prod + 3*sum**2)*t**2/4
            - (sum*(4*prod + n2) + 2*b*n3)*t/4 + (2*n2*prod + b*sum*n3)/4,

    with sum = c1 + c2 and prod = c1*c2. Every coefficient is O(1), and at a
    zero price s = t/b has no finite value.
    """
    csum, cprod = c1 + c2, c1 * c2
    n2, n3 = cprod - b * (alpha1 + alpha2), c1 * alpha2 + c2 * alpha1
    return (-1.75 * csum, 1.5 * cprod + 0.75 * csum * csum,
            -0.25 * (csum * (4.0 * cprod + n2) + 2.0 * b * n3),
            0.25 * (2.0 * n2 * cprod + b * csum * n3))


def _quartic_roots(e3, e2, e1, e0) -> np.ndarray:
    """Four candidates for the real roots of t**4 + e3*t**3 + e2*t**2 + e1*t + e0,
    elementwise over N coefficients (arrays, or floats for N = 1); returns
    an (N, 4) array.

    Ferrari's method in real arithmetic. With t = x + u and x = -e3/4 the
    quartic is u**4 + p*u**2 + q*u + r. Its resolvent cubic
    y**3 + 2p*y**2 + (p*p - 4r)*y - q*q is -q*q <= 0 at y = 0, so its largest
    real root y is >= 0, and with a = sqrt(y) the quartic splits into the
    real quadratics (u**2 + a*u + beta)*(u**2 - a*u + gamma), where
    beta + gamma = p + y and gamma - beta = q/a. Each quadratic gives two
    real roots, or the vertex of its complex pair and one more point, so a
    double root has a candidate too; extra candidates cost nothing, because
    every candidate is scored exactly afterwards. Two Newton steps on the
    quartic polish each candidate, each step kept only where it does not
    raise |Q|. A row with a non-finite coefficient gets non-finite candidates.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        # The Taylor coefficients r, q, p at x, by synthetic division.
        x = -0.25 * e3
        h1 = e3 + x
        h2 = e2 + x * h1
        h3 = e1 + x * h2
        r = e0 + x * h3
        h1 = h1 + x
        h2 = h2 + x * h1
        q = h3 + x * h2
        p = h2 + x * (h1 + x)

        # The resolvent cubic y**3 + A*y**2 + B*y - qq, depressed at
        # y = z - A/3 to z**3 + P*z + R, has one real root where D > 0
        # (Cardano, without cancellation) and three otherwise (Viete; fmax and
        # fmin map the 0/0 of a triple root to z = 0).
        pp, qq = p * p, q * q
        A, B = 2.0 * p, pp - 4.0 * r
        P = B - pp * (4.0 / 3.0)
        R = p * (r * (8.0 / 3.0) - pp * (2.0 / 27.0)) - qq
        P3 = P / 3.0
        D = 0.25 * R * R + P3 * P3 * P3
        w = np.cbrt(-0.5 * R - np.copysign(np.sqrt(D), R))
        rho = np.sqrt(-P3)
        cosine = np.fmin(np.fmax(-0.5 * R / (rho * rho * rho), -1.0), 1.0)
        y = np.where(D > 0.0, w - P / (3.0 * w), 2.0 * rho * np.cos(np.arccos(cosine) / 3.0))
        y = y - A / 3.0
        # Two Newton steps, each kept where it does not raise |f|, give a small
        # root the relative accuracy that q/a below needs.
        y = np.maximum(y, 0.0)
        f = ((y + A) * y + B) * y - qq
        for _ in range(2):
            step = np.maximum(y - f / ((3.0 * y + 2.0 * A) * y + B), 0.0)
            at_step = ((step + A) * step + B) * step - qq
            keep = np.abs(at_step) <= np.abs(f)
            y, f = np.where(keep, step, y), np.where(keep, at_step, f)

        # Where y = 0 (then q = 0), (gamma - beta)/2 = sqrt(half**2 - r).
        a = np.sqrt(y)
        half = 0.5 * (p + y)
        skew = np.where(a > 0.0, 0.5 * q / a, np.sqrt(np.maximum(half * half - r, 0.0)))
        beta, gamma = half - skew, half + skew
        # Without cancellation: u**2 + a*u + beta has the roots m1 and beta/m1,
        # u**2 - a*u + gamma the roots m2 and gamma/m2; a negative
        # discriminant is taken as zero, which gives the vertex.
        ha = 0.5 * a
        hh = ha * ha
        m1 = -ha - np.sqrt(np.maximum(hh - beta, 0.0))
        m2 = ha + np.sqrt(np.maximum(hh - gamma, 0.0))
        e3, e2, e1, e0, x = (np.reshape(v, (-1, 1)) for v in (e3, e2, e1, e0, x))
        t = x + np.reshape(np.stack([m1, beta / m1, m2, gamma / m2], axis=-1), (-1, 4))
        e3x3, e2x2 = 3.0 * e3, 2.0 * e2
        value = (((t + e3) * t + e2) * t + e1) * t + e0
        for _ in range(2):
            step = t - value / (((4.0 * t + e3x3) * t + e2x2) * t + e1)
            at_step = (((step + e3) * step + e2) * step + e1) * step + e0
            keep = np.abs(at_step) <= np.abs(value)
            t, value = np.where(keep, step, t), np.where(keep, at_step, value)
    return t


def _utility_grid(ctx: NashProductContext, resolution: int) -> tuple:
    """The band values ``axis`` of each grid axis, and the utilities at every
    allocation (axis[i], axis[j]) of the resolution x resolution grid as
    (resolution, resolution) arrays."""
    if resolution < 2:
        raise ValueError("resolution must be at least 2 per axis")
    axis = np.linspace(0.0, ctx.scenario.omega, resolution)
    return axis, utility_pair(BandAllocation(axis[:, None], axis), ctx.terms, ctx.scenario)


def grid_oracle_nbs(ctx: NashProductContext, resolution: int = 401,
                    utility_scale=(1.0, 1.0)) -> EquilibriumReport:
    """Brute-force Nash product argmax on a uniform allocation grid.

    Grid points whose utilities fail to weakly dominate the threat point are
    discarded; if none qualifies the threat allocation itself is returned and
    flagged. ``utility_scale`` applies positive per-player rescalings
    (kappa1*u1, kappa2*u2, with the threat rescaled identically) before the
    argmax; the bargaining solution is invariant to such rescalings, which
    makes the hook useful for validation. Reported utilities are unscaled.
    """
    k1, k2 = utility_scale
    if not (k1 > 0 and k2 > 0):
        raise ValueError("utility_scale entries must be positive")
    axis, U = _utility_grid(ctx, resolution)
    F1 = k1 * U.u1 - k1 * ctx.threat.u1
    F2 = k2 * U.u2 - k2 * ctx.threat.u2
    qualifying = (F1 >= 0.0) & (F2 >= 0.0)
    n_points = resolution * resolution
    if not bool(qualifying.any()):
        return EquilibriumReport(
            allocation=ctx.ne_alloc,
            utilities=ctx.threat,
            kind="NBS",
            iterations=n_points,
            residual=0.0,
            converged=True,
            diagnostics=("no grid point weakly dominates the threat point; "
                         "returning the threat allocation",),
        )
    product = np.where(qualifying, F1 * F2, -np.inf)
    # Exact product ties happen when one utility gain is pinned at zero (a
    # whole edge of the region scores zero); bargaining then requires the
    # Pareto-efficient representative, so prefer the larger utility sum, then
    # the lowest index for determinism.
    ties = np.flatnonzero(product == product.max())
    idx = int(ties[np.argmax(U.u1.flat[ties] + U.u2.flat[ties])])
    i, j = divmod(idx, resolution)
    return EquilibriumReport(
        allocation=BandAllocation(float(axis[i]), float(axis[j])),
        utilities=UtilityPair(float(U.u1.flat[idx]), float(U.u2.flat[idx])),
        kind="NBS",
        iterations=n_points,
        residual=0.0,
        converged=True,
        diagnostics=(),
    )


# Shewchuk's bound on the rounding error of an orientation (a - o) x (b - o)
# computed in doubles: its sign is certain where |cross| exceeds this times
# |left product| + |right product| (barring underflow).
_ORIENT_ERR = (3.0 + 16.0 * 2.0 ** -53) * 2.0 ** -53


def _orientation(x, y, o, a, b):
    """(a - o) x (b - o) for each index triple of the points (x[k], y[k]),
    positive for a left turn, and whether rounding may have set its sign."""
    left = (x[a] - x[o]) * (y[b] - y[o])
    right = (y[a] - y[o]) * (x[b] - x[o])
    cross = left - right
    bound = _ORIENT_ERR * (np.abs(left) + np.abs(right))
    return cross, (np.abs(cross) <= bound) & (bound > 0.0)


def _chain(x, y) -> np.ndarray:
    """Indices of the points (x[k], y[k]) that the monotone chain keeps: a
    walk in index order that pops its last point while that is not a strict
    left turn towards the next (:func:`_walk`).

    Pruning passes drop, all at once, every point that is not a left turn
    between its kept neighbours, until none is left. Where every orientation
    they compute has a certain sign, they give the exact hull chain, and so
    does the walk unless one of its own tests, which the passes need not
    make, is within rounding of zero. Where a pass meets an orientation
    within rounding of zero (nearly collinear points), the result depends on
    the order of the tests, so the walk itself runs instead.
    """
    keep = np.arange(len(x))
    while len(keep) > 2:
        cross, unsure = _orientation(x, y, keep[:-2], keep[1:-1], keep[2:])
        if unsure.any():
            return _walk(x, y)
        left = cross > 0.0
        if left.all():
            break
        keep = np.concatenate([keep[:1], keep[1:-1][left], keep[-1:]])
    return keep


def _walk(x, y) -> np.ndarray:
    """The monotone chain's walk over every point (x[k], y[k]), in index
    order."""
    x, y = x.tolist(), y.tolist()
    stack = []
    for k in range(len(x)):
        while len(stack) >= 2:
            o, a = stack[-2], stack[-1]
            if (x[a] - x[o]) * (y[k] - y[o]) - (y[a] - y[o]) * (x[k] - x[o]) > 0.0:
                break
            stack.pop()
        stack.append(k)
    return np.array(stack)


def convex_hull_indices(points: np.ndarray) -> list:
    """Convex hull by the monotone chain, in numpy array passes (see
    :func:`_chain`).

    Returns CCW indices into ``points``, from the least point by (x, y).
    Collinear boundary points are left off the hull. Duplicate points (0.0
    and -0.0 count as equal) are collapsed to their first occurrence: the
    points are sorted by a stable lexsort, and a point equal to its sorted
    predecessor is dropped. Degenerate clouds yield hulls of one or two
    vertices.
    """
    points = np.asarray(points, dtype=float)
    order = np.lexsort((points[:, 1], points[:, 0]))
    x, y = points[order, 0], points[order, 1]
    new = np.ones(len(order), dtype=bool)
    new[1:] = (x[1:] != x[:-1]) | (y[1:] != y[:-1])
    first, x, y = order[new], x[new], y[new]
    if len(first) <= 2:
        return first.tolist()
    lower = _chain(x, y)
    upper = len(first) - 1 - _chain(x[::-1], y[::-1])
    return first[np.concatenate([lower[:-1], upper[:-1]])].tolist()


@dataclass(frozen=True)
class ParetoPoint:
    """A Pareto utility point as a time-sharing mix of two pure allocations:
    alloc_a for a fraction mu of the time, alloc_b for the rest. A hull
    vertex is pure: mu = 1 and both allocations coincide."""

    u1: float
    u2: float
    mu: float
    alloc_a: BandAllocation
    alloc_b: BandAllocation


@dataclass(frozen=True)
class RegionSample:
    """Sampled utility region with its convex hull and Pareto boundary.

    ``axis`` holds the r band values of each grid axis, and sample k is the
    allocation (axis[k // r], axis[k % r]). ``utilities`` is the (r*r, 2)
    array of the samples' utility pairs; ``hull_indices`` index the CCW hull
    vertices within it, and ``pareto_indices`` the undominated hull vertices
    ordered by increasing u1.
    """

    utilities: np.ndarray
    hull_indices: np.ndarray
    pareto_indices: np.ndarray
    axis: np.ndarray


def _pareto_chain(utilities: np.ndarray, hull: list) -> list:
    """Undominated hull vertices, walked CCW from max-u1 to max-u2 and
    returned by increasing u1."""
    pts = utilities[hull]
    n = len(hull)
    start = max(range(n), key=lambda i: (pts[i, 0], pts[i, 1]))
    end = max(range(n), key=lambda i: (pts[i, 1], pts[i, 0]))
    return [hull[(start + k) % n] for k in range((end - start) % n, -1, -1)]


def sample_utility_region(ctx: NashProductContext, resolution: int = 201) -> RegionSample:
    """Grid-sample the utility region and extract hull and Pareto boundary.

    The hull is taken over the 4*(resolution - 1) samples on the boundary of
    the grid, and it is the hull of every sample: along an anti-diagonal
    w1 + w2 = s both utilities are affine in w1 (u_i = phi_i*omega +
    (c_i - b*s)*w_i), so each interior sample lies on the segment between the
    two ends of its anti-diagonal, which are boundary samples.
    """
    axis, U = _utility_grid(ctx, resolution)
    utilities = np.column_stack([U.u1.ravel(), U.u2.ravel()])
    edge = np.zeros((resolution, resolution), dtype=bool)
    edge[[0, -1], :] = edge[:, [0, -1]] = True
    boundary = np.flatnonzero(edge)
    hull = boundary[convex_hull_indices(utilities[boundary])].tolist()
    return RegionSample(
        utilities=utilities,
        hull_indices=np.asarray(hull, dtype=int),
        pareto_indices=np.asarray(_pareto_chain(utilities, hull), dtype=int),
        axis=axis,
    )


def max_nash_product_on_pareto(sample: RegionSample,
                               threat: UtilityPair) -> ParetoPoint | None:
    """Best Nash product over the Pareto boundary including time-sharing mixes.

    Along an edge between Pareto vertices P and Q the product is quadratic in
    the mixing weight mu, so each segment is maximized in closed form over the
    sub-interval where both utility gains stay non-negative. Returns None when
    no Pareto mixture weakly dominates the threat point.
    """
    best: ParetoPoint | None = None
    best_val = -math.inf

    def consider(u1, u2, mu, pa, pb):
        nonlocal best, best_val
        f1 = u1 - threat.u1
        f2 = u2 - threat.u2
        if f1 < 0.0 or f2 < 0.0:
            return
        val = f1 * f2
        if val > best_val:
            best_val = val
            best = ParetoPoint(u1=u1, u2=u2, mu=mu, alloc_a=pa, alloc_b=pb)

    axis, r = sample.axis.tolist(), len(sample.axis)
    verts = [(u1, u2, BandAllocation(axis[k // r], axis[k % r])) for (u1, u2), k in zip(
        sample.utilities[sample.pareto_indices].tolist(), sample.pareto_indices.tolist())]
    for u1, u2, alloc in verts:
        consider(u1, u2, 1.0, alloc, alloc)
    for (pu1, pu2, pa), (qu1, qu2, qa) in zip(verts, verts[1:]):
        # point(mu) = mu*P + (1-mu)*Q; factors are linear in mu
        a0 = qu1 - threat.u1
        a1 = pu1 - qu1
        b0 = qu2 - threat.u2
        b1 = pu2 - qu2
        # feasible mu interval where both factors >= 0, intersected with [0,1]
        lo_mu, hi_mu = 0.0, 1.0
        for c0, c1 in ((a0, a1), (b0, b1)):
            if c1 > 0:
                lo_mu = max(lo_mu, -c0 / c1)
            elif c1 < 0:
                hi_mu = min(hi_mu, -c0 / c1)
            elif c0 < 0:
                lo_mu, hi_mu = 1.0, 0.0
        if lo_mu > hi_mu:
            continue
        candidates = {lo_mu, hi_mu}
        quad = a1 * b1
        if quad < 0:  # interior vertex of the concave quadratic
            mu_star = -(a0 * b1 + a1 * b0) / (2.0 * quad)
            if lo_mu < mu_star < hi_mu:
                candidates.add(mu_star)
        for mu in candidates:
            consider(qu1 + mu * a1, qu2 + mu * b1, mu, pa, qa)
    return best
