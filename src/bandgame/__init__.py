"""Two-user relay-bandwidth sharing game: equilibrium, bargaining, sweeps.

Two transmitter/receiver pairs rent slices of a relay's band under linear
pricing. This package computes the closed-form Nash equilibrium of the
resulting concave game, the Nash bargaining solution on top of it (an exact
closed-form solver used by sweeps and by ``bandgame nbs --oracle`` as the
cross-check; the paper's projected Polak-Ribiere conjugate gradient, which
falls back to the exact solver; and a brute-force grid oracle, kept only as
the tests' reference), certifies local strict concavity of the bargaining
objective through 2x2 eigenvalues, builds the sampled utility region with its
Pareto boundary and time-sharing hull, and sweeps relay positions into
bandwidth-gain, welfare-gain and concavity maps through one array pipeline
over all positions. Each stage (link budget, marginal terms, equilibrium,
bargaining context, exact bargaining solution) is one function, run on one
position's floats or on arrays over many, so a single position gets the
sweep's bits; every solver's report says in fields which path produced it
and whether there is a bargain.
The positions enter as two coordinate arrays, and a sweep is one record
whose fields are arrays over them; a failed position keeps its slot, with
NaN values.
"""

from .bargaining import (EigenPair, Hessian2x2, NashProductContext,
                         ParetoPoint, RegionSample, cg_minimize, cg_nbs,
                         convex_hull_indices, eigenvalues, exact_nbs,
                         grid_oracle_nbs, hessian, is_strictly_concave_at,
                         make_context, max_nash_product_on_pareto,
                         nash_product, nash_product_gradient,
                         sample_utility_region)
from .experiments import (SweepGrid, SweepRecord, bandwidth_gain,
                          concavity_map, social_welfare_gain, sweep)
from .game import (BandAllocation, ConvergenceError, EquilibriumReport,
                   MarginalTerms, UtilityPair, best_response,
                   best_response_iteration, marginal_terms, nash_equilibrium,
                   utility_pair, utility_partial)
from .system_model import (DegenerateGeometryError, LinkBudget, Point,
                           Scenario, UserLink, channel_gain, distance,
                           efficiency, link_budget, snr_direct, snr_relayed)

__all__ = [
    "BandAllocation", "ConvergenceError",
    "DegenerateGeometryError", "EigenPair", "EquilibriumReport", "Hessian2x2",
    "LinkBudget", "MarginalTerms", "NashProductContext", "ParetoPoint",
    "Point", "RegionSample", "Scenario", "SweepGrid",
    "SweepRecord", "UserLink", "UtilityPair", "bandwidth_gain",
    "best_response", "best_response_iteration", "cg_minimize", "cg_nbs",
    "channel_gain", "concavity_map", "convex_hull_indices", "distance",
    "efficiency", "eigenvalues", "exact_nbs", "grid_oracle_nbs", "hessian",
    "is_strictly_concave_at", "link_budget", "make_context",
    "marginal_terms", "max_nash_product_on_pareto", "nash_equilibrium",
    "nash_product", "nash_product_gradient", "sample_utility_region",
    "snr_direct", "snr_relayed", "social_welfare_gain", "sweep",
    "utility_pair", "utility_partial",
]
