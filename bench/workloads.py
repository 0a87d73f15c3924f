"""The benchmark's workloads: inputs made from a seed, rounds of operations, checks.

Each workload runs whole rounds of the same operations, so every run of it
attempts a whole multiple of one round and fails the same share of them.
Outputs are checked against ``reference`` (imported only when checking, so
its scipy import stays out of the measured process's memory); outputs that
repeat byte for byte across rounds are checked once.

Run as a script, it makes the inputs of ``queries-mixed``:

    python3 bench/workloads.py <seed> <work-dir> <bundled-scenario-file>
"""

import contextlib
import hashlib
import io
import itertools
import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
NAMED_FAULT = ("missed-bargain", "short-bargain")
REASONS = ("missed-bargain", "short-bargain", "ne-deviation", "dominance", "hull",
           "exit-status", "value", "concavity", "failure-row", "error")

SWEEP_STEP = 25.0          # 29 x 29 = 841 positions
CONCAVITY_STEP = 50.0      # 15 x 15 = 225 positions
GRID_MAX = 700.0
REGION_RESOLUTION = 401
REGION_RELAYS = 4          # relay positions per region-paper round
REGION_MIN_SEPARATION = 25.0
QUERY_SCENARIOS = 900      # seeded scenario draws, each used by about one query
BUNDLED_SHARE = 10         # every 10th query candidate uses the bundled scenario
QUERIES_PER_ROUND = 1000   # p99 over the queries has ten beyond it


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def grid_axis(step: float) -> list:
    n = int(round(GRID_MAX / step))
    return [k * step for k in range(n + 1)]


def _cli_call(cli, argv):
    """Run one ``bandgame`` command in-process; returns (seconds, exit status)."""
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        status = cli.main(argv)
        elapsed = time.perf_counter() - start
    return elapsed, status


def _csv_rows(path):
    """Rows (lists of strings) of a small CSV, header left out."""
    return [line.split(",") for line in Path(path).read_text().splitlines()[1:]]


def _num(cell: str) -> float:
    return math.nan if cell == "" else float(cell)


def _flag(cell: str) -> bool:
    return cell == "true"


class Workload:
    """Inputs, rounds and checks of one workload.

    ``ops_per_round`` operations per round; ``run_round`` returns the timed
    samples ``(seconds, operations)`` and the round's outputs; ``check``
    returns one list of failure reasons per operation of a round.
    """

    name = ""
    tracer = None  # set by the traced run; spans then carry operation ids

    def __init__(self, seed: int, root: Path, work: Path):
        self.work = work
        self.paper_file = root / "src" / "bandgame" / "data" / "paper_scenario.cfg"
        self.scenario_files = [self.paper_file]
        self.inputs = {}  # what the seed made, for the run report

    def begin(self, op) -> None:
        """Mark the start of operation ``op`` for the spans that follow."""
        if self.tracer is not None:
            self.tracer.op = op

    def bind(self, bandgame, scenarios) -> None:
        self.bg = bandgame
        self.cli = sys.modules["bandgame.cli"]
        self.scenarios = scenarios

    def fingerprint(self, outputs):
        """``(key, csv)`` of a round's outputs ``(name, exit status, path)``:
        a round repeats an earlier one when its key does, and ``csv`` lists
        the sha256 of every CSV it wrote."""
        csv = [{"file": path.name, "sha256": sha256(path) if path.is_file() else None}
               for _, _, path in outputs]
        return tuple((o[1], c["sha256"]) for o, c in zip(outputs, csv)), csv


class MapsPaper(Workload):
    """``sweep --step 25`` then ``concavity-map --step 50`` on the bundled scenario.

    The grid is the paper's figure grid; the seed changes nothing.
    """

    name = "maps-paper"

    def __init__(self, seed, root, work):
        super().__init__(seed, root, work)
        self.sweep_relays = [(x, y) for x in grid_axis(SWEEP_STEP) for y in grid_axis(SWEEP_STEP)]
        self.conc_relays = [(x, y) for x in grid_axis(CONCAVITY_STEP)
                            for y in grid_axis(CONCAVITY_STEP)]
        self.ops_per_round = len(self.sweep_relays) + len(self.conc_relays)

    def run_round(self, k):
        samples, outputs = [], []
        for command, step, n in (("sweep", SWEEP_STEP, len(self.sweep_relays)),
                                 ("concavity-map", CONCAVITY_STEP, len(self.conc_relays))):
            out = self.work / f"{command}-{k}.csv"
            self.begin(f"{k}.{command}")
            elapsed, status = _cli_call(self.cli, [
                command, "--scenario", str(self.paper_file), "--step", repr(step),
                "--out", str(out)])
            samples.append((elapsed, n))
            outputs.append((command, status, out))
        return samples, outputs

    def check(self, outputs):
        import reference as ref
        params = ref.parse_params(self.paper_file.read_text())
        reasons = []
        for (command, status, path), relays in zip(outputs, (self.sweep_relays, self.conc_relays)):
            if status != 0 or not path.is_file():
                reasons.extend(["exit-status"] for _ in relays)
                continue
            rows = _csv_rows(path)
            check_row = self._sweep_row if command == "sweep" else self._concavity_row
            for k, relay in enumerate(relays):
                if k >= len(rows) or (_num(rows[k][0]), _num(rows[k][1])) != relay:
                    reasons.append(["value"])
                else:
                    reasons.append(check_row(ref, params, relay, rows[k]))
        return reasons

    @staticmethod
    def _sweep_row(ref, params, relay, cells):
        v = [_num(c) if c not in ("true", "false") else c for c in cells]
        (w1n, w2n, w1b, w2b, u1n, u2n, u1b, u2b, g1, g2, gt, gs, l1, l2) = v[2:16]
        concave, converged = _flag(cells[16]), _flag(cells[17])
        if ref.is_degenerate(params, relay):
            nan8 = all(math.isnan(x) for x in v[2:10])
            ok = (nan8 and (g1, g2, gt, gs) == (0.0, 0.0, 0.0, 0.0)
                  and math.isnan(l1) and math.isnan(l2) and not concave and not converged)
            return [] if ok else ["failure-row"]
        if any(math.isnan(x) for x in v[2:10]):
            return ["failure-row"]
        terms = ref.link_terms(params, relay)
        ne, nbs = (w1n, w2n), (w1b, w2b)
        reasons = ref.check_ne(params, terms, ne, (u1n, u2n))
        reasons += ref.classify_nbs(params, terms, ne, nbs, (u1b, u2b))
        reasons += ref.check_gains(ne, nbs, (u1n, u2n), (u1b, u2b), (g1, g2, gt, gs))
        hess = ref.nash_product_hessian(params, terms, ne, nbs)
        reasons += ref.check_eigenvalues(hess, l1, l2, concave)
        return sorted(set(reasons))

    @staticmethod
    def _concavity_row(ref, params, relay, cells):
        l1, l2, concave = _num(cells[2]), _num(cells[3]), _flag(cells[4])
        if ref.is_degenerate(params, relay):
            ok = math.isnan(l1) and math.isnan(l2) and not concave
            return [] if ok else ["failure-row"]
        return ref.check_concavity_row(l1, l2, concave)


class RegionPaper(Workload):
    """``region --resolution 401`` at seeded relay positions of the bundled scenario."""

    name = "region-paper"

    def __init__(self, seed, root, work):
        super().__init__(seed, root, work)
        nodes = _paper_nodes(self.paper_file)
        rng = np.random.default_rng([seed, 1])
        self.relays = []
        while len(self.relays) < REGION_RELAYS:
            x, y = (float(v) for v in rng.uniform(0.0, GRID_MAX, 2))
            if all(math.hypot(x - a, y - b) >= REGION_MIN_SEPARATION for a, b in nodes):
                self.relays.append((x, y))
        self.ops_per_round = len(self.relays)
        self.inputs = {"relays": self.relays}

    def run_round(self, k):
        samples, outputs = [], []
        for j, (x, y) in enumerate(self.relays):
            out = self.work / f"region-{k}-{j}.csv"
            self.begin(f"{k}.{j}")
            elapsed, status = _cli_call(self.cli, [
                "region", "--scenario", str(self.paper_file), "--relay", f"{x!r},{y!r}",
                "--resolution", str(REGION_RESOLUTION), "--out", str(out)])
            samples.append((elapsed, 1))
            outputs.append((j, status, out))
        return samples, outputs

    def check(self, outputs):
        import reference as ref
        params = ref.parse_params(self.paper_file.read_text())
        reasons = []
        for j, status, path in outputs:
            if status != 0 or not path.is_file():
                reasons.append(["exit-status"])
                continue
            reasons.append(self._check_region(ref, params, self.relays[j], path))
        return reasons

    @staticmethod
    def _check_region(ref, params, relay, path):
        text = Path(path).read_text()
        body = text[text.index("\n") + 1:].rstrip("\n")
        body = body.replace("true", "1").replace("false", "0").replace("\n", ",")
        table = np.array(body.split(","), dtype=float).reshape(-1, 6)
        n = REGION_RESOLUTION
        axis = np.linspace(0.0, params.omega, n)
        expect_w = np.column_stack([np.repeat(axis, n), np.tile(axis, n)])
        if table.shape[0] != n * n or not np.array_equal(table[:, :2], expect_w):
            return ["value"]
        terms = ref.link_terms(params, relay)
        u1, u2 = ref.utilities(params, terms, table[:, 0], table[:, 1])
        scale = ref.utility_scale(params, terms)
        reasons = []
        if (np.abs(u1 - table[:, 2]).max() > ref.VALUE_REL_TOL * scale
                or np.abs(u2 - table[:, 3]).max() > ref.VALUE_REL_TOL * scale):
            reasons.append("value")
        utils = table[:, 2:4]
        hull = ref.ccw_order(utils, np.flatnonzero(table[:, 4] == 1.0))
        pareto = np.flatnonzero(table[:, 5] == 1.0)
        return reasons + ref.check_region(utils, hull, pareto)


def _paper_nodes(path):
    nodes = []
    for line in Path(path).read_text().splitlines():
        key, _, value = line.partition("=")
        if key.strip() in ("source_1", "dest_1", "source_2", "dest_2"):
            nodes.append(tuple(float(v) for v in value.split(",")))
    return nodes


class QueriesMixed(Workload):
    """``make_context`` then ``cg_nbs`` per query, one caller in a closed loop.

    Scenarios: the bundled one plus seeded draws from the distribution the
    tests' ``random_scenario`` uses; relays are seeded. The query list and
    its reference answers are made by a child process (see ``make_queries``).
    """

    name = "queries-mixed"

    def __init__(self, seed, root, work):
        super().__init__(seed, root, work)
        subprocess.run([sys.executable, str(Path(__file__)), str(seed), str(work),
                        str(self.paper_file)], check=True)
        made = json.loads((work / "queries.json").read_text())
        self.scenario_files = [Path(p) for p in made["scenario_files"]]
        self.queries = made["queries"]
        self.ops_per_round = len(self.queries)
        self.inputs = {"scenario_files": len(self.scenario_files),
                       "queries": len(self.queries), "candidates": made["candidates"]}

    def run_round(self, k):
        make_context, cg_nbs, point = self.bg.make_context, self.bg.cg_nbs, self.bg.Point
        samples, outputs = [], []
        for j, q in enumerate(self.queries):
            scenario = self.scenarios[q["scenario"]]
            x, y = q["relay"]
            self.begin(f"{k}.{j}")
            start = time.perf_counter()
            try:
                ctx = make_context(scenario, point(x, y))
                nbs = cg_nbs(ctx)
                out = (ctx.ne_alloc.w1, ctx.ne_alloc.w2, ctx.threat.u1, ctx.threat.u2,
                       nbs.allocation.w1, nbs.allocation.w2,
                       nbs.utilities.u1, nbs.utilities.u2)
            except Exception as exc:  # a raise is a failed query, recorded as such
                out = ("error", repr(exc))
            samples.append((time.perf_counter() - start, 1))
            outputs.append(out)
        return samples, outputs

    def fingerprint(self, outputs):
        return tuple(outputs), []

    def check(self, outputs):
        import reference as ref
        params = [ref.parse_params(Path(p).read_text()) for p in self.scenario_files]
        reasons = []
        for q, out in zip(self.queries, outputs):
            if out[0] == "error":
                reasons.append(["error"])
                continue
            p = params[q["scenario"]]
            terms = ref.link_terms(p, tuple(q["relay"]))
            ne, threat, nbs, u = out[0:2], out[2:4], out[4:6], out[6:8]
            r = ref.check_ne(p, terms, ne, threat)
            r += ref.classify_nbs(p, terms, ne, nbs, u, reference=q["reference"])
            reasons.append(sorted(set(r)))
        return reasons


def _random_scenario_text(rng) -> str:
    """A draw from the tests' ``random_scenario`` distribution, as scenario text."""
    while True:
        pts = rng.uniform(0.0, 700.0, size=(4, 2))
        if all(math.hypot(*(pts[a] - pts[b])) > 5.0 for a, b in ((0, 1), (2, 3))):
            break
    values = {
        "p1": rng.uniform(0.05, 0.2), "p2": rng.uniform(0.05, 0.2),
        "p_r": rng.uniform(0.04, 0.15), "sigma2": 10.0 ** rng.uniform(-13.5, -12.5),
        "alpha": rng.uniform(0.4, 1.2), "b": 10.0 ** rng.uniform(-6.0, -4.0),
        "M": int(rng.integers(20, 121)), "omega": rng.choice([5e5, 1e6, 2e6]),
    }
    lines = [f"{key} = {float(x)!r}, {float(y)!r}"
             for key, (x, y) in zip(("source_1", "dest_1", "source_2", "dest_2"), pts)]
    lines += [f"{key} = {value if key == 'M' else float(value)!r}"
              for key, value in values.items()]
    return "\n".join(lines) + "\n"


def make_queries(seed: int, work: Path, paper_file: Path) -> None:
    """Write the scenario files and ``queries.json`` of ``queries-mixed``.

    Every ``BUNDLED_SHARE``-th candidate uses the bundled scenario, the
    others cycle over the seeded draws; relays are seeded. One query per
    draw keeps a draw with a slow solve from filling the latency tail on
    its own, so p99 does not hinge on which draws a seed makes. A candidate is
    kept when the reference finds no bargain, or when the best point of a
    uniform 401-point-per-axis allocation grid is within the product
    tolerance of the reference optimum, and the equilibrium is not the
    corner where both users rent the whole band. The first rule leaves out
    where the named fault (a grid-oracle fallback that misses or shortens
    the bargain) can show, the second where CG can climb back to the
    threat point; on seeded inputs either shows on some seeds only, so
    their failure count could not repeat from run to run. maps-paper counts
    the named fault on fixed inputs instead. ``candidates`` records how
    many were drawn to keep ``QUERIES_PER_ROUND``.
    """
    import reference as ref
    work.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng([seed, 2])
    files = [str(paper_file)]
    for k in range(QUERY_SCENARIOS):
        path = work / f"scenario-{k}.cfg"
        path.write_text(_random_scenario_text(rng))
        files.append(str(path))
    params = [ref.parse_params(Path(p).read_text()) for p in files]
    draws = itertools.cycle(range(1, len(files)))
    queries, candidates = [], 0
    while len(queries) < QUERIES_PER_ROUND:
        s = 0 if candidates % BUNDLED_SHARE == 0 else next(draws)
        candidates += 1
        p = params[s]
        nodes = (p.source_1, p.dest_1, p.source_2, p.dest_2)
        while True:  # the tests' random_relay: at least 1 m from every node
            x, y = (float(v) for v in rng.uniform(0.0, 700.0, 2))
            if all(math.hypot(x - n[0], y - n[1]) >= 1.0 for n in nodes):
                break
        terms = ref.link_terms(p, (x, y))
        ne = ref.reference_ne(p, terms)
        best = ref.reference_nbs(p, terms, ne)
        if ne != (p.omega, p.omega) and ref.grid_resolves(p, terms, ne, best[0], 401):
            queries.append({"scenario": s, "relay": [x, y], "reference": list(best)})
    (work / "queries.json").write_text(json.dumps(
        {"scenario_files": files, "queries": queries, "candidates": candidates}))


WORKLOADS = {w.name: w for w in (MapsPaper, RegionPaper, QueriesMixed)}


if __name__ == "__main__":
    sys.path.insert(0, str(BENCH_DIR))
    make_queries(int(sys.argv[1]), Path(sys.argv[2]), Path(sys.argv[3]))
