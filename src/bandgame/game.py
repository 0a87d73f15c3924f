"""The two-player band-allocation game: utilities, best responses, Nash equilibrium.

Each user i picks the width ``w_i`` in [0, omega] of the relay band it rents.
Its payoff is energy efficiency with a linear price on rented band:

    u_i = phi_i*(omega - w_i) + psi_i*w_i - b*(w1 + w2)*w_i

where ``phi_i = alpha*f(gamma_direct)/p_i`` is the per-Hz efficiency of the
direct link and ``psi_i = alpha*f(gamma_af)/(p_i + p_r)`` that of the relayed
link. The game is a concave quadratic game with a unique pure Nash
equilibrium (Rosen 1965), computed here in closed form through a KKT case
analysis. Damped best-response iteration is kept as an independent reference
for that closed form.

The value types hold floats for one relay position, or equal-length arrays
for a batch of positions, and each stage is one function that takes either:
the marginal terms, the utilities and the equilibrium's KKT patterns
(:func:`nash_equilibrium` on floats, :func:`nash_equilibrium_batch` on
arrays). Python floats round as numpy does elementwise, so one position and
a batch get the same bits.
"""

import warnings
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .system_model import LinkBudget, Scenario, efficiency_batch


class ConvergenceError(RuntimeError):
    """A solver found no valid solution for its inputs."""


@dataclass(frozen=True)
class BandAllocation:
    """Strategy profile: per-user rented band widths in Hz."""

    w1: float
    w2: float

    def w(self, i: int) -> float:
        return self.w1 if i == 1 else self.w2


@dataclass(frozen=True)
class UtilityPair:
    u1: float
    u2: float

    def u(self, i: int) -> float:
        return self.u1 if i == 1 else self.u2

    def total(self) -> float:
        return self.u1 + self.u2


@dataclass(frozen=True)
class MarginalTerms:
    """Per-user efficiency slopes of the direct (phi) and relayed (psi) paths."""

    phi1: float
    psi1: float
    phi2: float
    psi2: float

    def phi(self, i: int) -> float:
        return self.phi1 if i == 1 else self.phi2

    def psi(self, i: int) -> float:
        return self.psi1 if i == 1 else self.psi2

    def relay_advantage(self, i: int) -> float:
        """psi_i - phi_i: marginal benefit of moving band onto the relay."""
        return self.psi(i) - self.phi(i)


@dataclass(frozen=True)
class EquilibriumReport:
    """Solver output: an allocation, its utilities, and diagnostics."""

    allocation: BandAllocation
    utilities: UtilityPair
    kind: str  # "NE" or "NBS"
    iterations: int
    residual: float
    converged: bool
    diagnostics: tuple = ()


def marginal_terms(budget: LinkBudget, scenario: Scenario) -> MarginalTerms:
    """phi_i and psi_i of both users from a link budget of one position
    (floats; the terms are floats), or of a batch (fields are arrays).

    The four efficiencies come from one :func:`efficiency_batch` call, over
    a 4-element array for one position, so one position runs the batch's
    numpy loops and gets its bits."""
    u1, u2 = budget.user1, budget.user2
    f = efficiency_batch(np.array([u1.gamma_direct, u1.gamma_af, u2.gamma_direct, u2.gamma_af]),
                         scenario.M)
    if f.ndim == 1:  # one position
        f = f.tolist()
    a, p1, p2, p_r = scenario.alpha, scenario.p1, scenario.p2, scenario.p_r
    return MarginalTerms(phi1=a * f[0] / p1, psi1=a * f[1] / (p1 + p_r),
                         phi2=a * f[2] / p2, psi2=a * f[3] / (p2 + p_r))


def utility_value(phi: float, psi: float, w_own, w_other, omega: float, b: float):
    """Payoff of a user with slopes ``phi``, ``psi`` that rents ``w_own``
    while the other rents ``w_other``.

    Works elementwise on numpy arrays: :func:`utility_pair` calls it for one
    allocation and for a grid of them alike, so grid utilities are
    bit-identical to those of a single allocation.
    """
    return phi * (omega - w_own) + psi * w_own - b * (w_own + w_other) * w_own


def utility_pair(alloc: BandAllocation, terms: MarginalTerms,
                 scenario: Scenario) -> UtilityPair:
    omega, b = scenario.omega, scenario.b
    return UtilityPair(
        utility_value(terms.phi1, terms.psi1, alloc.w1, alloc.w2, omega, b),
        utility_value(terms.phi2, terms.psi2, alloc.w2, alloc.w1, omega, b))


def utility_partial(i: int, alloc: BandAllocation, terms: MarginalTerms,
                    scenario: Scenario) -> float:
    """d u_i / d w_i = psi_i - phi_i - b*(2*w_i + w_j)."""
    return terms.relay_advantage(i) - scenario.b * (2.0 * alloc.w(i) + alloc.w(3 - i))


def best_response(i: int, w_j: float, terms: MarginalTerms,
                  scenario: Scenario) -> float:
    """Maximizer of u_i over [0, omega] given the opponent's band w_j.

    For b > 0 this is the clamped vertex of the concave quadratic. For b = 0
    the utility is linear in w_i: the response is 0 or omega by the sign of
    psi_i - phi_i, and an exact tie returns 0 (smallest maximizer) with a
    RuntimeWarning since every point of [0, omega] is optimal.
    """
    c = terms.relay_advantage(i)
    if scenario.b == 0:
        if c > 0:
            return scenario.omega
        if c == 0:
            warnings.warn(
                "degenerate best response: zero pricing and zero relay advantage; "
                "any band width is optimal, returning 0",
                RuntimeWarning, stacklevel=2)
        return 0.0
    raw = (c - scenario.b * w_j) / (2.0 * scenario.b)
    return min(max(raw, 0.0), scenario.omega)


def best_response_iteration(terms: MarginalTerms, scenario: Scenario,
                            start: BandAllocation | None = None,
                            damping: float = 0.5, tol: float | None = None,
                            max_iter: int = 10_000):
    """Damped simultaneous best-response iteration.

    Returns ``(allocation, iterations, residual, converged)`` where residual
    is the sup-norm of ``BR(w) - w`` at the returned point. The undamped map
    is a 1/2-contraction, so the default damping of 0.5 converges geometrically
    from any start.
    """
    if tol is None:
        tol = 1e-9 * scenario.omega
    w1, w2 = (0.0, 0.0) if start is None else (start.w1, start.w2)
    resid = float("inf")
    for k in range(max_iter):
        b1 = best_response(1, w2, terms, scenario)
        b2 = best_response(2, w1, terms, scenario)
        resid = max(abs(b1 - w1), abs(b2 - w2))
        if resid <= tol:
            return BandAllocation(w1, w2), k, resid, True
        w1 += damping * (b1 - w1)
        w2 += damping * (b2 - w2)
    return BandAllocation(w1, w2), max_iter, resid, False


_LO, _IN, _HI = 0, 1, 2
# The nine clamp patterns (user 1's state, user 2's state) of the KKT
# conditions, in the order they are tried: the first feasible one is the
# equilibrium. Each coordinate is clamped at 0, interior, or clamped at omega.
_ORDER = tuple((s1, s2) for s1 in (_IN, _LO, _HI) for s2 in (_IN, _LO, _HI))
# numpy's maximum and minimum on Python floats, with numpy's NaN and signed-zero
# results: NaN if either operand is, and the second one where they compare equal.
_FLOAT_OPS = SimpleNamespace(maximum=lambda x, y: x if x > y or x != x else y,
                             minimum=lambda x, y: x if x < y or x != x else y)


def nash_equilibrium(terms: MarginalTerms, scenario: Scenario) -> EquilibriumReport:
    """The unique pure Nash equilibrium of the band game at one position, on
    the terms' floats: :func:`nash_equilibrium_batch`'s allocation at that
    position, bit for bit. The report has no iterations and zero residual."""
    w1, w2 = _kkt_allocation([terms.psi1 - terms.phi1, terms.psi2 - terms.phi2], scenario)
    alloc = BandAllocation(w1=w1, w2=w2)
    return EquilibriumReport(
        allocation=alloc,
        utilities=utility_pair(alloc, terms, scenario),
        kind="NE",
        iterations=0,
        residual=0.0,
        converged=True,
    )


def nash_equilibrium_batch(terms: MarginalTerms, scenario: Scenario) -> BandAllocation:
    """Equilibrium allocations of a batch of marginal terms, whose fields are
    arrays over the positions or floats for one position; the allocations are
    arrays.

    Every position tries the nine clamp patterns of the KKT conditions in a
    fixed order and takes the first feasible one. In a pattern, interior
    coordinates solve the stationarity equations given the clamped ones; with
    b == 0 an interior coordinate exists only at an exact tie (within the
    slack). A pattern is feasible when its interior coordinates lie in the box
    (within ``tol_w = 1e-12*omega``) and the partial derivative at each clamped
    coordinate does not point into the box (within the slack, 1e-12 of the
    largest of |c1|, |c2| and 3*b*omega, where c_i = psi_i - phi_i). Both
    tolerances are relative, so rescaling the utilities or the band does not
    move the equilibrium. Positions where no pattern is feasible get NaN.
    """
    c = np.reshape(np.array([terms.psi1, terms.psi2]) - np.array([terms.phi1, terms.phi2]),
                   (2, -1))
    # An interior coordinate that overflows (c/(3b) at a tiny price) or is
    # NaN (inf - inf at infinite terms) fails the box test.
    with np.errstate(over="ignore", invalid="ignore"):
        w = _kkt_allocation(c, scenario)
    return BandAllocation(w1=w[0], w2=w[1])


def _kkt_allocation(c, scenario: Scenario):
    """The equilibrium allocation (w1, w2) of the relay advantages ``c`` =
    (c1, c2), as :func:`nash_equilibrium_batch` defines it. One position's
    two floats return at their first feasible pattern, and raise
    ConvergenceError if none is. A (2, N) array keeps the rows that no
    pattern has decided yet and stops when none is left; the result is a
    (2, N) array, NaN where no pattern is feasible."""
    b, omega = scenario.b, scenario.omega
    batch = isinstance(c, np.ndarray)
    xp = np if batch else _FLOAT_OPS
    size = [abs(c[0]), abs(c[1])]
    slack = 1e-12 * xp.maximum(xp.maximum(size[0], size[1]), 3.0 * b * omega)
    tol_w = 1e-12 * omega
    if batch:  # the indices of the undecided rows, and the result
        rows, out = np.arange(c.shape[1]), np.full(c.shape, np.nan)
    clamped = (0.0, 0.0, omega)  # a coordinate's value in each state but _IN
    for state in _ORDER:
        w = [clamped[state[0]], clamped[state[1]]]
        bad = False
        for i, j in ((0, 1), (1, 0)):
            if state[i] != _IN:
                continue
            if b == 0:  # an interior coordinate exists only at a tie: it is 0
                bad = bad | (size[i] > slack)
                continue
            wi = ((2.0 * c[i] - c[j]) / (3.0 * b) if state[j] == _IN
                  else (c[i] - b * w[j]) / (2.0 * b))
            # Box feasibility (NaN fails it), then exact clamp.
            bad = bad | (wi < -tol_w) | (wi > omega + tol_w) | (wi != wi)
            w[i] = xp.minimum(xp.maximum(wi, 0.0), omega)
        # KKT sign conditions: at a clamped coordinate, the partial derivative
        # must not point into the box.
        for i, j in ((0, 1), (1, 0)):
            if state[i] != _IN:
                partial = c[i] - b * (2.0 * w[i] + w[j])
                bad = bad | ((partial if state[i] == _LO else -partial) > slack)
        if not batch:
            if not bad:
                return w
            continue
        done = ~bad
        out[0, rows[done]], out[1, rows[done]] = (x[done] if np.ndim(x) else x for x in w)
        rows, c, size, slack = rows[bad], c[:, bad], [x[bad] for x in size], slack[bad]
        if not rows.size:
            break
    if batch:
        return out
    raise ConvergenceError(  # pragma: no cover - the patterns are exhaustive
        "no KKT pattern validated; inconsistent inputs")
