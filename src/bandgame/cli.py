"""Scenario files, CSV emission, and the ``bandgame`` command-line front end.

Scenario files are flat ``key = value`` text; point-valued keys take an
``x, y`` pair. Keys mirror the Scenario fields exactly; ``pathloss_const``
and ``pathloss_exp`` may be omitted (defaults 0.097 and 4). All CSV and
report numbers are emitted in full-precision scientific notation so runs are
reproducible byte for byte.

The CSV writers build the text of a block of rows at once in numpy: each
float cell gets exactly the text of ``'%.17e' % x``, from its 18 significant
digits computed in double-double arithmetic (Python's ``%`` formats the rare
cell that is within reach of a rounding tie or of the float range's ends).
The digits are looked up four at a time in a table of the text of 0000 to
9999, the cells of all float columns are built in one contiguous array, and
each column's cells are copied whole into its slots. A writer streams the
blocks, as bytes, into the open binary file it is given.
"""

import argparse
import functools
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


# CSV cells are written into fixed-width byte slots, one row of slots per CSV
# row, in one buffer per call that every block of rows overwrites. A float
# slot holds the widest ``%.17e`` text, "-d.ddddddddddddddddde+ddd", then its
# separator; a flag slot holds "false" and its separator. A byte that a
# cell's text leaves out is written as NUL: the sign of a value that has
# none, the exponent's hundreds digit below 1e100, the "e" of "true" and the
# bytes after "nan" and "inf". The NULs are removed once per block, as it is
# written out.
_FLOAT_SLOT = 26
_FLAG_SLOT = 6
_TEXT = np.dtype(f"V{_FLOAT_SLOT - 1}")  # a float slot's text, without the separator
_FLOAT_CELL = np.dtype({"names": ["sign", "lead", "d1_8", "d9_16", "tail", "exp"],
                        "formats": ["u1", "<u2", "<u8", "<u8", "<u2", "<u4"],
                        "offsets": [0, 1, 3, 11, 19, 21], "itemsize": _TEXT.itemsize})
_FLAG_TEXT = np.dtype(f"V{_FLAG_SLOT - 1}")  # a flag slot's text, without the separator
_DOT = ord(".") << 8   # "lead" is the first digit and "."
_E = ord("e") << 8     # "tail" is the last digit and "e"
_SPECIAL_LEAD = np.frombuffer(b"nain", dtype="<u2")  # "lead" of "nan" and "inf"
_SPECIAL_THIRD = np.frombuffer(b"nf", dtype=np.uint8)  # their third byte
_EXP_MIN = -400
# "+ddd" / "-ddd" of every decimal exponent a double can have, with NUL for
# the hundreds digit of the exponents below 100.
_EXP_TEXT = np.frombuffer(b"".join(
    b"%+04d" % e if abs(e) >= 100 else b"%c\0%02d" % (b"+-"[e < 0], abs(e))
    for e in range(_EXP_MIN, 401)), dtype="<u4")
_CSV_BLOCK_ROWS = 8192  # rows per block; bounds the peak memory


def _powers_of_ten(lo: int, hi: int):
    """10**p = hi + lo as two doubles, for p from ``lo`` to ``hi``, computed
    from Python integers: ``int / int`` and ``float(int)`` round correctly."""
    heads, tails = [], []
    for p in range(lo, hi + 1):
        if p >= 0:
            exact = 10 ** p
            head = float(exact)
            tail = float(exact - int(head))
        else:
            denominator = 10 ** -p
            head = 1 / denominator
            num, den = head.as_integer_ratio()
            tail = (den - num * denominator) / (den * denominator)
        heads.append(head)
        tails.append(tail)
    return np.array(heads), np.array(tails)


# Magnitudes of [1e-250, 1e250] are scaled by 10**p for p in [-234, 269].
_P_MIN = -240
_POW10_HI, _POW10_LO = _powers_of_ten(_P_MIN, 275)
_SPLIT = 134217729.0  # 2**27 + 1: Dekker's split of a double into two halves


def _split(v):
    """Dekker's split of each of ``v`` into a high and a low half."""
    c = v * _SPLIT
    high = c - v
    np.subtract(c, high, out=high)  # c - (c - v)
    return high, np.subtract(v, high, out=c)


# 10**p for p from _P_MIN as rows hi, hi's two halves and lo: one gather
# takes all four.
_POW10 = np.stack([_POW10_HI, *_split(_POW10_HI), _POW10_LO])


def _scaled_floor(a, e10):
    """floor(a * 10**(17 - e10)) as int64 and the fraction it drops.

    The product is taken in double-double arithmetic: 10**p as hi + lo and
    a * hi as an exact two-product (hi's halves come from ``_POW10``). Its
    error is about 1e-13 on a result of about 1e17, whose double part is an
    integer.
    """
    k = (17 - _P_MIN) - e10
    head, hh, hl, lo = np.take(_POW10, k, axis=1)
    head *= a
    ah, al = _split(a)
    # ((ah*hh - head) + ah*hl + al*hh) + al*hl + a*lo, one term at a time
    tail = ah * hh
    tail -= head
    tail += np.multiply(ah, hl, out=ah)
    tail += np.multiply(al, hh, out=hh)
    tail += np.multiply(al, hl, out=hl)
    tail += np.multiply(a, lo, out=lo)
    whole = np.floor(tail, out=lo)
    tail -= whole
    n = head.astype(np.int64)
    n += whole.astype(np.int64)
    return n, tail


def _decimal(x):
    """The 18 significant digits ``n`` and the decimal exponent ``e10`` of
    ``'%.17e' % x`` for each finite x; 0 and 0 for zeros, NaN and infinities.

    Python's ``%`` formats a value whose dropped fraction is within 1e-6 of a
    tie, or whose magnitude is outside about [1e-250, 1e250].
    """
    a = np.abs(x)
    with np.errstate(divide="ignore"):
        e = np.log10(a)
    rare = np.flatnonzero(~(np.abs(e) <= 250.0))  # also 0, NaN and inf
    a[rare] = 1.0  # exact digits and a zero fraction, so never slow
    e[rare] = 0.0
    e10 = np.floor(e, out=e).astype(np.int64)
    n, frac = _scaled_floor(a, e10)
    # log10 can land on the wrong side of a power of ten: move one decade.
    off = np.flatnonzero((n - 10 ** 17).view(np.uint64) >= 9 * 10 ** 17)
    if len(off):
        e10[off] += np.where(n[off] >= 10 ** 18, 1, -1)
        n[off], frac[off] = _scaled_floor(a[off], e10[off])
    n += frac > 0.5
    carry = np.flatnonzero(n == 10 ** 18)  # rounded up to the next decade
    n[carry] = 10 ** 17
    e10[carry] += 1
    n[rare] = 0
    e10[rare] = 0
    frac -= 0.5
    slow = np.abs(frac, out=frac) < 1e-6
    slow[rare] = (x[rare] != 0.0) & np.isfinite(x[rare])
    if slow.any():
        text = ["%.17e" % v for v in np.abs(x[slow]).tolist()]  # "d.<17 digits>e<exponent>"
        n[slow] = [int(t[0] + t[2:19]) for t in text]
        e10[slow] = [int(t[20:]) for t in text]
    return n, e10


# The ASCII text of 0000 to 9999 as little-endian words: the first digit in
# the least significant byte. np.indices counts through the four digits.
_DIGITS4 = np.ascontiguousarray(np.indices((10,) * 4, dtype=np.uint8).reshape(4, -1).T
                                + np.uint8(ord("0"))).view("<u4")[:, 0]


def _ascii8(v):
    """ASCII digits of each ``v`` < 10**8, zero-padded to eight and packed in a
    uint64 whose least significant byte is the first digit."""
    q = v // 10_000
    words = np.empty(v.shape + (2,), dtype="<u4")
    words[..., 0] = _DIGITS4[q]
    q *= -10_000
    q += v                                   # v % 10_000
    words[..., 1] = _DIGITS4[q]
    return words.view("<u8")[..., 0]


def _put_floats(buf, x, offsets) -> None:
    """Write the ``%.17e`` text of each cell of ``x`` (rows, k) into the rows
    of ``buf``, column j into the float slot at byte ``offsets[j]``.

    The digits of all k columns are computed in one pass into a contiguous
    (rows, k) array of cells, and each column's cells are copied whole into
    its slots.
    """
    flat = x.ravel()
    n, e10 = _decimal(flat)
    high = n // 10 ** 9                          # digits 0 to 8
    n -= high * 10 ** 9                          # digits 9 to 17
    lead = high // 10 ** 8
    eights = np.empty((2, len(n)), dtype=np.int64)
    np.subtract(high, lead * 10 ** 8, out=eights[0])
    np.floor_divide(n, 10, out=eights[1])
    n -= eights[1] * 10                          # digit 17
    eights = _ascii8(eights)
    lead += ord("0") | _DOT
    n += ord("0") | _E
    e10 -= _EXP_MIN
    cells = np.empty(x.shape, dtype=_FLOAT_CELL)
    fields = cells.reshape(-1)
    fields["sign"] = np.signbit(flat).view(np.uint8) * np.uint8(ord("-"))
    fields["lead"] = lead
    fields["d1_8"] = eights[0]
    fields["d9_16"] = eights[1]
    fields["tail"] = n
    fields["exp"] = _EXP_TEXT[e10]
    special = np.flatnonzero(~np.isfinite(flat))
    if len(special):  # "nan" for every NaN, "inf", "-inf"
        inf = np.isinf(flat[special]).view(np.uint8)
        fields["sign"][special] *= inf
        fields["lead"][special] = _SPECIAL_LEAD[inf]
        fields["d1_8"][special] = _SPECIAL_THIRD[inf]
        for name in ("d9_16", "tail", "exp"):
            fields[name][special] = 0
    for j, off in enumerate(offsets):
        buf[:, off:off + _FLOAT_SLOT - 1].view(_TEXT)[:, 0] = cells[:, j].view(_TEXT)


def _put_flags(buf, off, flags) -> None:
    """Write ``true``/``false`` for each of ``flags`` into the flag slots at
    byte ``off``."""
    words = buf[:, off:off + _FLAG_SLOT - 1].view(_FLAG_TEXT)[:, 0]
    words[:] = b"false"
    words[np.flatnonzero(flags)] = b"true\0"


class _Distinct:
    """A float column whose rows take few values: each of ``values`` is
    formatted once, and row k's cell is the text of ``values[index[k]]``."""

    def __init__(self, values, index):
        buf = np.empty((len(values), _FLOAT_SLOT), dtype=np.uint8)
        _put_floats(buf, np.asarray(values, dtype=float)[:, None], [0])
        self.text = np.ascontiguousarray(buf[:, :-1]).view(_TEXT)[:, 0]
        self.index = np.asarray(index)

    def __len__(self):
        return len(self.index)


def _csv(header: str, columns, out) -> None:
    """Write ``header`` and one line per row of the equal-length ``columns``
    to the open binary file ``out``.

    A column is a float array (``%.17e`` cells, the text of :func:`_fmt`), a
    boolean array (``true``/``false``) or a :class:`_Distinct`. Rows are built
    in blocks of ``_CSV_BLOCK_ROWS`` in one buffer, and each block is written
    as soon as it is built. The float arrays of a block are stacked into one
    (rows, k) array and formatted in one pass.
    """
    columns = [c if isinstance(c, _Distinct) else np.asarray(c) for c in columns]
    flags = [not isinstance(c, _Distinct) and c.dtype == bool for c in columns]
    offsets = np.cumsum([0] + [_FLAG_SLOT if f else _FLOAT_SLOT for f in flags]).tolist()
    floats = [(off, c) for off, f, c in zip(offsets, flags, columns)
              if not f and not isinstance(c, _Distinct)]
    n_rows = len(columns[0])
    # A bytearray, whose translate drops the NULs without a copy to bytes first.
    text = bytearray(min(n_rows, _CSV_BLOCK_ROWS) * offsets[-1])
    buf = np.frombuffer(text, dtype=np.uint8).reshape(-1, offsets[-1])
    buf[:, np.subtract(offsets[1:], 1)] = ord(",")
    buf[:, -1] = ord("\n")
    out.write(header.encode("ascii") + b"\n")
    for start in range(0, n_rows, _CSV_BLOCK_ROWS):
        rows = slice(start, min(start + _CSV_BLOCK_ROWS, n_rows))
        block = buf[:rows.stop - start]
        if floats:
            _put_floats(block, np.stack([c[rows] for _, c in floats], axis=1, dtype=float),
                        [off for off, _ in floats])
        for off, flag, column in zip(offsets, flags, columns):
            if isinstance(column, _Distinct):
                cells = block[:, off:off + _FLOAT_SLOT - 1].view(_TEXT)[:, 0]
                cells[:] = column.text[column.index[rows]]
            elif flag:
                _put_flags(block, off, column[rows])
        written = text if len(block) == len(buf) else text[:block.size]
        out.write(written.translate(None, b"\0"))


def sweep_csv(records, out) -> None:
    """Write the sweep CSV of ``records`` to the open binary file ``out``."""
    r = records
    _csv(SWEEP_HEADER, [
        r.xr, r.yr, r.ne.w1, r.ne.w2, r.nbs.w1, r.nbs.w2,
        r.ne_u.u1, r.ne_u.u2, r.nbs_u.u1, r.nbs_u.u2,
        r.gain_bw_u1_pct, r.gain_bw_u2_pct, r.gain_bw_total_pct,
        r.gain_sw_pct, r.lambda1, r.lambda2,
        r.strictly_concave, np.equal(r.failure, None)], out)


def region_csv(sample, out) -> None:
    """Write the region CSV of ``sample`` to the open binary file ``out``."""
    n = len(sample.utilities)
    on_hull, on_pareto = np.zeros(n, dtype=bool), np.zeros(n, dtype=bool)
    on_hull[sample.hull_indices] = True
    on_pareto[sample.pareto_indices] = True
    r = len(sample.axis)
    _csv(REGION_HEADER, [_Distinct(sample.axis, np.repeat(np.arange(r), r)),
                         _Distinct(sample.axis, np.tile(np.arange(r), r)),
                         sample.utilities[:, 0], sample.utilities[:, 1],
                         on_hull, on_pareto], out)


def concavity_csv(records, out) -> None:
    """Write the concavity CSV of ``records`` to the open binary file ``out``."""
    r = records
    _csv(CONCAVITY_HEADER, [r.xr, r.yr, r.lambda1, r.lambda2, r.strictly_concave], out)


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
    print(f"[{label}] kind={report.kind} source={report.source} {flags} "
          f"residual={_fmt(report.residual)}")
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
    w0 = None
    if args.w0 is not None:
        w0 = BandAllocation(*_parse_pair(args.w0, "--w0"))
        if not (math.isfinite(w0.w1) and math.isfinite(w0.w2)):
            raise ValueError(f"--w0 must be finite, got {args.w0!r}")
    if args.epsilon is not None and not (args.epsilon >= 0.0 and math.isfinite(args.epsilon)):
        raise ValueError(f"--epsilon must be finite and >= 0, got {args.epsilon!r}")
    if args.max_iter < 0:
        raise ValueError(f"--max-iter must be >= 0, got {args.max_iter!r}")
    ctx = make_context(scenario, relay)
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
    with open(path, "wb") as out:
        region_csv(sample, out)
    print(f"wrote {path} ({len(sample.utilities)} samples, "
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
    with open(path, "wb") as out:
        sweep_csv(records, out)
    failures = np.count_nonzero(np.not_equal(records.failure, None))
    print(f"wrote {path} ({len(records.xr)} positions, {failures} failed)")
    return 0


def _cmd_concavity(args) -> int:
    scenario = parse_scenario(args.scenario)
    grid = _grid_from_args(args)
    records = concavity_map(scenario, grid)
    path = _out_path(args.out)
    with open(path, "wb") as out:
        concavity_csv(records, out)
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


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except (ScenarioFormatError, ValueError, OSError) as exc:
        print(f"bandgame: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
