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
"""

import warnings
from dataclasses import dataclass

from .system_model import LinkBudget, Scenario, efficiency


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
    """phi_i and psi_i of both users from a link budget."""
    vals = {}
    for i in (1, 2):
        link = budget.user(i)
        p = scenario.power(i)
        vals[f"phi{i}"] = scenario.alpha * efficiency(link.gamma_direct, scenario.M) / p
        vals[f"psi{i}"] = scenario.alpha * efficiency(link.gamma_af, scenario.M) / (p + scenario.p_r)
    return MarginalTerms(**vals)


def utility_value(phi: float, psi: float, w_own, w_other, omega: float, b: float):
    """Payoff expression shared by the scalar and the vectorized paths.

    Works elementwise on numpy arrays; the grid evaluators reuse it so that
    grid utilities are bit-identical to scalar ones.
    """
    return phi * (omega - w_own) + psi * w_own - b * (w_own + w_other) * w_own


def utility(i: int, alloc: BandAllocation, terms: MarginalTerms,
            scenario: Scenario) -> float:
    """Utility of player i at the given allocation."""
    return utility_value(terms.phi(i), terms.psi(i), alloc.w(i), alloc.w(3 - i),
                         scenario.omega, scenario.b)


def utility_pair(alloc: BandAllocation, terms: MarginalTerms,
                 scenario: Scenario) -> UtilityPair:
    return UtilityPair(utility(1, alloc, terms, scenario),
                       utility(2, alloc, terms, scenario))


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


def _kkt_candidate(pattern, c1, c2, b, omega):
    """Allocation for one boundary pattern, or None if the pattern is infeasible.

    Pattern entries: clamped at 0, interior (stationary), clamped at omega.
    Interior coordinates solve the stationarity equations given the clamped
    ones; with b == 0 an interior coordinate exists only at an exact tie.
    """
    s1, s2 = pattern
    slack = 1e-12 * max(1.0, abs(c1), abs(c2), 3.0 * b * omega)

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

    # Box feasibility of interior coordinates, then exact clamp.
    tol_w = 1e-12 * max(1.0, omega)
    for s, w in ((s1, w1), (s2, w2)):
        if s == _IN and not (-tol_w <= w <= omega + tol_w):
            return None
    w1 = min(max(w1, 0.0), omega)
    w2 = min(max(w2, 0.0), omega)

    # KKT sign conditions on clamped coordinates.
    for i, s, w_own, w_oth in ((1, s1, w1, w2), (2, s2, w2, w1)):
        partial = (c1 if i == 1 else c2) - b * (2.0 * w_own + w_oth)
        if s == _LO and partial > slack:
            return None
        if s == _HI and partial < -slack:
            return None
    return BandAllocation(w1, w2)


def nash_equilibrium(terms: MarginalTerms, scenario: Scenario) -> EquilibriumReport:
    """The unique pure Nash equilibrium of the band game.

    Solved in closed form by enumerating the nine clamp patterns of the KKT
    conditions; the first feasible pattern is the equilibrium. The report has
    no iterations and zero residual.
    """
    b, omega = scenario.b, scenario.omega
    c1 = terms.relay_advantage(1)
    c2 = terms.relay_advantage(2)

    alloc = None
    for s1 in (_IN, _LO, _HI):
        for s2 in (_IN, _LO, _HI):
            alloc = _kkt_candidate((s1, s2), c1, c2, b, omega)
            if alloc is not None:
                break
        if alloc is not None:
            break
    if alloc is None:  # pragma: no cover - the patterns are exhaustive
        raise ConvergenceError("no KKT pattern validated; inconsistent inputs")

    return EquilibriumReport(
        allocation=alloc,
        utilities=utility_pair(alloc, terms, scenario),
        kind="NE",
        iterations=0,
        residual=0.0,
        converged=True,
    )
