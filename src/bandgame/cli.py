"""Scenario files, CSV emission, and the ``bandgame`` command-line front end.

Scenario files are flat ``key = value`` text; point-valued keys take an
``x, y`` pair. Keys mirror the Scenario fields exactly; ``pathloss_const``
and ``pathloss_exp`` may be omitted (defaults 0.097 and 4). All CSV and
report numbers are emitted in full-precision scientific notation so runs are
reproducible byte for byte.
"""

import argparse
import math
import os
import sys
from importlib.resources import files as _pkg_files
from pathlib import Path

import numpy as np

from .bargaining import (cg_nbs, exact_nbs, make_context, nash_product,
                         sample_utility_region)
from .experiments import SweepGrid, concavity_map, sweep
from .game import (BandAllocation, EquilibriumReport, marginal_terms,
                   nash_equilibrium)
from .system_model import Point, Scenario, link_budget

OUTPUT_DIR_ENV = "BANDGAME_OUTPUT_DIR"

SWEEP_HEADER = ("xr,yr,w1_ne,w2_ne,w1_nbs,w2_nbs,u1_ne,u2_ne,u1_nbs,u2_nbs,"
                "gain_bw_u1_pct,gain_bw_u2_pct,gain_bw_total_pct,gain_sw_pct,"
                "lambda1,lambda2,strictly_concave,converged")
REGION_HEADER = "w1,w2,u1,u2,on_hull,on_pareto"
CONCAVITY_HEADER = "xr,yr,lambda1,lambda2,strictly_concave"
_REGION_ROW = "%s,%s,%.17e,%.17e,%s,%s"
_SWEEP_ROW = ",".join(["%.17e"] * 16 + ["%s"] * 2)
_CONCAVITY_ROW = "%.17e,%.17e,%.17e,%.17e,%s"
_CSV_BLOCK_ROWS = 4096  # rows per formatting call; bounds the peak memory
_WORDS = ("false", "true")


class ScenarioFormatError(ValueError):
    """A scenario file could not be parsed into a valid Scenario."""


_POINT_KEYS = ("source_1", "dest_1", "source_2", "dest_2")
_FLOAT_KEYS = ("p1", "p2", "p_r", "sigma2", "alpha", "b", "omega")
_INT_KEYS = ("M",)
_OPTIONAL_KEYS = ("pathloss_const", "pathloss_exp")
_ALL_KEYS = _POINT_KEYS + _FLOAT_KEYS + _INT_KEYS + _OPTIONAL_KEYS


def _parse_number(key: str, text: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ScenarioFormatError(f"key {key!r}: non-numeric value {text!r}") from None


def _parse_point(key: str, text: str) -> Point:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 2:
        raise ScenarioFormatError(f"key {key!r}: expected 'x, y', got {text!r}")
    x, y = _parse_number(key, parts[0]), _parse_number(key, parts[1])
    if not (math.isfinite(x) and math.isfinite(y)):
        raise ScenarioFormatError(f"key {key!r}: coordinates must be finite, got {text!r}")
    return Point(x, y)


def parse_scenario(path) -> Scenario:
    """Read a scenario file; diagnostics name the offending key."""
    raw = {}
    text = Path(path).read_text()
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ScenarioFormatError(f"line {lineno}: expected 'key = value', got {stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in _ALL_KEYS:
            raise ScenarioFormatError(f"line {lineno}: unknown key {key!r}")
        if key in raw:
            raise ScenarioFormatError(f"line {lineno}: duplicate key {key!r}")
        raw[key] = value.strip()

    missing = [k for k in _POINT_KEYS + _FLOAT_KEYS + _INT_KEYS if k not in raw]
    if missing:
        raise ScenarioFormatError(f"missing mandatory key(s): {', '.join(missing)}")

    kwargs = {}
    for key in _POINT_KEYS:
        kwargs[key] = _parse_point(key, raw[key])
    for key in _FLOAT_KEYS:
        kwargs[key] = _parse_number(key, raw[key])
    for key in _INT_KEYS:
        value = _parse_number(key, raw[key])
        if not math.isfinite(value) or value != int(value):
            raise ScenarioFormatError(f"key {key!r}: expected an integer, got {raw[key]!r}")
        kwargs[key] = int(value)
    for key in _OPTIONAL_KEYS:
        if key in raw:
            kwargs[key] = _parse_number(key, raw[key])
    try:
        return Scenario(**kwargs)
    except ValueError as exc:
        raise ScenarioFormatError(f"invalid scenario: {exc}") from exc


def format_scenario(scenario: Scenario) -> str:
    """Render a Scenario back to file text; parse(format(s)) == s."""
    lines = [
        "# Two-user relay spectrum sharing scenario.",
        "# Units: lengths in meters, powers in Watt, band in Hz.",
    ]
    for key in _POINT_KEYS:
        p = getattr(scenario, key)
        lines.append(f"{key} = {p.x!r}, {p.y!r}")
    for key in _FLOAT_KEYS:
        lines.append(f"{key} = {getattr(scenario, key)!r}")
    for key in _INT_KEYS:
        lines.append(f"{key} = {getattr(scenario, key)}")
    for key in _OPTIONAL_KEYS:
        lines.append(f"{key} = {getattr(scenario, key)!r}")
    return "\n".join(lines) + "\n"


def write_scenario(scenario: Scenario, path) -> None:
    Path(path).write_text(format_scenario(scenario))


def paper_scenario_path() -> Path:
    """Location of the bundled reference scenario."""
    return Path(str(_pkg_files("bandgame").joinpath("data/paper_scenario.cfg")))


def load_paper_scenario() -> Scenario:
    return parse_scenario(paper_scenario_path())


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return f"{value:.17e}"


def _csv(header: str, row: str, columns) -> str:
    """``header`` and one line per entry of the equal-length ``columns``,
    formatted by ``row``: one ``%`` per block of ``_CSV_BLOCK_ROWS`` rows,
    with ``row`` repeated. The cells of ``%.17e`` are the text of
    :func:`_fmt`."""
    parts = [header]
    for start in range(0, len(columns[0]), _CSV_BLOCK_ROWS):
        cells = np.column_stack([c[start:start + _CSV_BLOCK_ROWS] for c in columns]).ravel()
        parts.append("\n".join([row] * (len(cells) // len(columns))) % tuple(cells.tolist()))
    parts.append("")  # ends the last row without another copy of the text
    return "\n".join(parts)


def _words(flags) -> np.ndarray:
    """``true``/``false`` text of a boolean array, as an object array."""
    return np.array(_WORDS, dtype=object)[np.asarray(flags, dtype=np.intp)]


def sweep_csv(records) -> str:
    r = records
    return _csv(SWEEP_HEADER, _SWEEP_ROW, [
        r.xr, r.yr, r.ne.w1, r.ne.w2, r.nbs.w1, r.nbs.w2,
        r.ne_u.u1, r.ne_u.u2, r.nbs_u.u1, r.nbs_u.u2,
        r.gain_bw_u1_pct, r.gain_bw_u2_pct, r.gain_bw_total_pct,
        r.gain_sw_pct, r.lambda1, r.lambda2,
        _words(r.strictly_concave), _words(np.equal(r.failure, None))])


def region_csv(sample) -> str:
    columns = []
    for j in (0, 1):
        # Grid columns repeat few values: format each distinct value once,
        # told apart by bit pattern so that -0.0 keeps its own text.
        bits, inverse = np.unique(sample.allocations[:, j].view(np.uint64),
                                  return_inverse=True)
        text = np.array([_fmt(v) for v in bits.view(np.float64).tolist()], dtype=object)
        columns.append(text[inverse])
    columns.extend(sample.utilities.T)
    for indices in (sample.hull_indices, sample.pareto_indices):
        flag = np.zeros(len(sample.utilities), dtype=bool)
        flag[indices] = True
        columns.append(_words(flag))
    return _csv(REGION_HEADER, _REGION_ROW, columns)


def concavity_csv(records) -> str:
    r = records
    return _csv(CONCAVITY_HEADER, _CONCAVITY_ROW,
                [r.xr, r.yr, r.lambda1, r.lambda2, _words(r.strictly_concave)])


def _out_path(name: str) -> Path:
    path = Path(name)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not path.is_absolute():
        path = Path(base) / path
    path.parent.mkdir(parents=True, exist_ok=True)
    return path


def _parse_pair(text: str, what: str):
    parts = text.split(",")
    if len(parts) != 2:
        raise ValueError(f"{what} must be 'x,y', got {text!r}")
    return float(parts[0]), float(parts[1])


def _print_report(report: EquilibriumReport, label: str) -> None:
    flags = f"converged={_fmt(report.converged)} iterations={report.iterations}"
    print(f"[{label}] kind={report.kind} {flags} residual={_fmt(report.residual)}")
    print(f"w1 = {_fmt(report.allocation.w1)}")
    print(f"w2 = {_fmt(report.allocation.w2)}")
    print(f"u1 = {_fmt(report.utilities.u1)}")
    print(f"u2 = {_fmt(report.utilities.u2)}")
    for note in report.diagnostics:
        print(f"note: {note}")


def _cmd_ne(args) -> int:
    scenario = parse_scenario(args.scenario)
    relay = Point(*_parse_pair(args.relay, "--relay"))
    terms = marginal_terms(link_budget(scenario, relay), scenario)
    report = nash_equilibrium(terms, scenario)
    _print_report(report, "ne")
    return 0 if report.converged else 1


def _cmd_nbs(args) -> int:
    scenario = parse_scenario(args.scenario)
    relay = Point(*_parse_pair(args.relay, "--relay"))
    ctx = make_context(scenario, relay)
    w0 = None
    if args.w0 is not None:
        w0 = BandAllocation(*_parse_pair(args.w0, "--w0"))
    report = cg_nbs(ctx, w0=w0, epsilon=args.epsilon, max_iter=args.max_iter,
                    mode=args.mode)
    _print_report(report, "nbs")
    status = 0 if report.converged else 1
    if args.oracle:
        exact = exact_nbs(ctx)
        _print_report(exact, "exact")
        best = nash_product(exact.allocation, ctx)
        got = nash_product(report.allocation, ctx)
        matched = got >= best - 1e-9 * abs(best)
        gap = (best - got) / (abs(best) or 1.0)
        print(f"oracle_match = {_fmt(matched)} (relative product gap = {_fmt(gap)})")
        if not matched:
            status = 1
    return status


def _cmd_region(args) -> int:
    scenario = parse_scenario(args.scenario)
    relay = Point(*_parse_pair(args.relay, "--relay"))
    ctx = make_context(scenario, relay)
    sample = sample_utility_region(ctx, resolution=args.resolution)
    path = _out_path(args.out)
    path.write_text(region_csv(sample))
    print(f"wrote {path} ({len(sample.allocations)} samples, "
          f"{len(sample.hull_indices)} hull vertices, "
          f"{len(sample.pareto_indices)} Pareto vertices)")
    return 0


def _grid_from_args(args) -> SweepGrid:
    x0, x1 = _parse_pair(args.x_bounds, "--x-bounds")
    y0, y1 = _parse_pair(args.y_bounds, "--y-bounds")
    return SweepGrid(step=args.step, x_min=x0, x_max=x1, y_min=y0, y_max=y1)


def _cmd_sweep(args) -> int:
    scenario = parse_scenario(args.scenario)
    grid = _grid_from_args(args)
    records = sweep(scenario, grid)
    path = _out_path(args.out)
    path.write_text(sweep_csv(records))
    failures = np.count_nonzero(np.not_equal(records.failure, None))
    print(f"wrote {path} ({len(records.xr)} positions, {failures} failed)")
    return 0


def _cmd_concavity(args) -> int:
    scenario = parse_scenario(args.scenario)
    grid = _grid_from_args(args)
    records = concavity_map(scenario, grid)
    path = _out_path(args.out)
    path.write_text(concavity_csv(records))
    concave = np.count_nonzero(records.strictly_concave)
    print(f"wrote {path} ({len(records.xr)} positions, {concave} strictly concave)")
    return 0


def _add_common(sub) -> None:
    sub.add_argument("--scenario", required=True, help="scenario file path")


def _add_bounds(sub) -> None:
    sub.add_argument("--x-bounds", default="0,700", help="relay x range 'min,max' in m")
    sub.add_argument("--y-bounds", default="0,700", help="relay y range 'min,max' in m")
    sub.add_argument("--step", type=float, default=50.0, help="grid step in m")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandgame",
        description="Solvers for the two-user relay-bandwidth sharing game.")
    commands = parser.add_subparsers(dest="command", required=True)

    p_ne = commands.add_parser("ne", help="print the Nash equilibrium report")
    _add_common(p_ne)
    p_ne.add_argument("--relay", required=True, help="relay position 'x,y' in m")
    p_ne.set_defaults(handler=_cmd_ne)

    p_nbs = commands.add_parser("nbs", help="conjugate-gradient bargaining solution")
    _add_common(p_nbs)
    p_nbs.add_argument("--relay", required=True, help="relay position 'x,y' in m")
    p_nbs.add_argument("--w0", default=None, help="start allocation 'w1,w2' in Hz")
    p_nbs.add_argument("--epsilon", type=float, default=None, help="direction-norm stop threshold")
    p_nbs.add_argument("--max-iter", type=int, default=200)
    p_nbs.add_argument("--mode", choices=("joint", "alternating"), default="joint")
    p_nbs.add_argument("--oracle", action="store_true",
                       help="cross-check the Nash product against the exact solver")
    p_nbs.set_defaults(handler=_cmd_nbs)

    p_region = commands.add_parser("region", help="utility region / Pareto CSV")
    _add_common(p_region)
    p_region.add_argument("--relay", required=True, help="relay position 'x,y' in m")
    p_region.add_argument("--resolution", type=int, default=201)
    p_region.add_argument("--out", default="region.csv")
    p_region.set_defaults(handler=_cmd_region)

    p_sweep = commands.add_parser("sweep", help="relay-position sweep CSV")
    _add_common(p_sweep)
    _add_bounds(p_sweep)
    p_sweep.add_argument("--out", default="sweep.csv")
    p_sweep.set_defaults(handler=_cmd_sweep)

    p_conc = commands.add_parser("concavity-map", help="strict-concavity map CSV")
    _add_common(p_conc)
    _add_bounds(p_conc)
    p_conc.add_argument("--out", default="concavity.csv")
    p_conc.set_defaults(handler=_cmd_concavity)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ScenarioFormatError, ValueError, OSError) as exc:
        print(f"bandgame: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
