"""In-memory spans around bandgame's public functions, installed from outside.

``Tracer.install`` replaces each traced function by a wrapper in every
``bandgame`` module namespace that holds it, so calls are caught wherever the
calling module looks the name up. A span records its name, start, end, the
span that caused it and the operation it belongs to; spans stay in memory
until ``write`` dumps them. ``summary`` turns them into the per-layer metrics.
"""

import json
import sys
import time

# Traced functions per layer (module of the bandgame package).
TRACED = {
    "system_model": ("link_budget",),
    "game": ("marginal_terms", "nash_equilibrium"),
    "bargaining": ("make_context", "cg_nbs", "cg_minimize", "grid_oracle_nbs",
                   "hessian", "eigenvalues", "sample_utility_region",
                   "convex_hull_indices"),
    "experiments": ("sweep", "concavity_map"),
    "cli": ("main", "parse_scenario", "sweep_csv", "region_csv", "concavity_csv"),
}
LAYERS = tuple(TRACED)
# cg_minimize is the loop inside cg_nbs: it is counted (for CG iterations)
# but gets no span, so cg_nbs keeps the loop in its self time.
COUNT_ONLY = ("bargaining.cg_minimize",)
FALLBACK_NOTE = "grid-oracle result returned"


class Tracer:
    """Collects spans and per-call work counters while installed."""

    def __init__(self):
        self.spans = []        # (id, parent, op, name, start, end)
        self.counters = {}     # "layer.function.counter" -> int
        self.op = None         # identifier of the operation being run
        self._stack = []
        self._next_id = 0

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items()
                   if n == "bandgame" or n.startswith("bandgame.")]
        for layer, names in TRACED.items():
            home = sys.modules[f"bandgame.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapper = self._wrap(f"{layer}.{name}", original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapper)

    def _count(self, key: str, n: int = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + n

    def _wrap(self, name, fn):
        if name in COUNT_ONLY:
            def counted(*args, **kwargs):
                result = fn(*args, **kwargs)
                self._count("bargaining.cg_nbs.iterations", int(result[2]))
                return result
            return counted

        def traced(*args, **kwargs):
            span = self._next_id
            self._next_id += 1
            parent = self._stack[-1] if self._stack else None
            self._stack.append(span)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans.append((span, parent, self.op, name, start, end))
            self._count(f"{name}.calls")
            self._read_report(name, result)
            return result
        return traced

    def _read_report(self, name, result) -> None:
        if name == "bargaining.grid_oracle_nbs":
            self._count("bargaining.grid_oracle_nbs.points", int(result.iterations))
        elif name == "game.nash_equilibrium":
            self._count("game.nash_equilibrium.br_iterations", int(result.iterations))
        elif name == "bargaining.cg_nbs":
            fell_back = any(FALLBACK_NOTE in note for note in result.diagnostics)
            self._count("bargaining.cg_nbs.oracle_fallbacks" if fell_back
                        else "bargaining.cg_nbs.accepted")

    def self_times(self) -> dict:
        """Self time of every span: its duration minus its children's."""
        child = {}
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child[parent] = child.get(parent, 0.0) + (end - start)
        return {span: (end - start) - child.get(span, 0.0)
                for span, _, _, _, start, end in self.spans}

    def mark(self) -> tuple:
        """A point to split set-up from the measured rounds at."""
        return len(self.spans), dict(self.counters)

    def summary(self, mark: tuple, rounds: int) -> dict:
        """Per-layer metrics for set-up once plus one average round.

        Spans and counters recorded before ``mark`` belong to set-up; the
        rest are divided by ``rounds``.
        """
        n_setup, setup_counters = mark
        selfs = self.self_times()
        totals = {}

        def add(key, value, in_setup):
            totals[key] = totals.get(key, 0.0) + (value if in_setup else value / rounds)

        for k, (span, _, _, name, start, end) in enumerate(self.spans):
            in_setup = k < n_setup
            layer = name.split(".")[0]
            add(f"{name}.time_s", end - start, in_setup)
            add(f"{name}.self_s", selfs[span], in_setup)
            add(f"layer.{layer}.self_s", selfs[span], in_setup)
        for key, value in self.counters.items():
            before = setup_counters.get(key, 0)
            per_round = (value - before) / rounds
            # Every round repeats the same operations, so counts divide evenly.
            totals[key] = before + (int(per_round) if per_round.is_integer() else per_round)

        def get(key):
            return totals.get(key, 0)

        out = {f"layer.{layer}.self_s": get(f"layer.{layer}.self_s") for layer in LAYERS}
        for key in ("system_model.link_budget.calls", "system_model.link_budget.time_s",
                    "game.marginal_terms.time_s", "game.nash_equilibrium.calls",
                    "game.nash_equilibrium.time_s", "game.nash_equilibrium.br_iterations",
                    "bargaining.make_context.time_s", "bargaining.cg_nbs.calls",
                    "bargaining.cg_nbs.self_s", "bargaining.cg_nbs.iterations",
                    "bargaining.cg_nbs.accepted", "bargaining.cg_nbs.oracle_fallbacks",
                    "bargaining.grid_oracle_nbs.calls", "bargaining.grid_oracle_nbs.time_s",
                    "bargaining.grid_oracle_nbs.points", "bargaining.hessian.calls",
                    "bargaining.convex_hull_indices.time_s",
                    "bargaining.sample_utility_region.self_s",
                    "experiments.sweep.self_s", "experiments.concavity_map.self_s",
                    "cli.parse_scenario.time_s"):
            out[key] = get(key)
        out["bargaining.hessian.time_s"] = (get("bargaining.hessian.time_s")
                                            + get("bargaining.eigenvalues.time_s"))
        out["cli.csv.time_s"] = sum(get(f"cli.{n}.time_s")
                                    for n in ("sweep_csv", "region_csv", "concavity_csv"))
        return out

    def write(self, path) -> None:
        """Dump the spans as JSON lines: id, parent, op, name, start, end (s)."""
        with open(path, "w") as out:
            for span in self.spans:
                out.write(json.dumps(span) + "\n")
