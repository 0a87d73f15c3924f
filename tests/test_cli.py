import io
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from bandgame import (Point, SweepGrid, make_context, sample_utility_region,
                      sweep)
from bandgame import cli
from bandgame.cli import (CONCAVITY_HEADER, REGION_HEADER, SWEEP_HEADER,
                          ScenarioFormatError, _csv, _fmt, concavity_csv,
                          format_scenario, main, paper_scenario_path,
                          parse_scenario, region_csv, sweep_csv,
                          write_scenario)
from conftest import RELAY_450, random_relay, random_scenario, rows


@pytest.fixture()
def paper_path():
    return str(paper_scenario_path())


def test_paper_scenario_contents(paper):
    assert paper.source_1 == Point(300.0, 300.0)
    assert paper.dest_1 == Point(500.0, 645.0)
    assert paper.source_2 == Point(390.0, 257.0)
    assert paper.dest_2 == Point(590.0, 603.0)
    assert paper.sigma2 == 1e-13
    assert (paper.p1, paper.p2, paper.p_r) == (0.1, 0.1, 0.08)
    assert paper.alpha == 0.8
    assert paper.b == 1e-5
    assert paper.M == 80
    assert paper.omega == 1e6
    assert (paper.pathloss_const, paper.pathloss_exp) == (0.097, 4.0)


def test_parse_applies_defaults(tmp_path, paper):
    text = "\n".join(
        line for line in format_scenario(paper).splitlines()
        if not line.startswith(("pathloss_const", "pathloss_exp")))
    p = tmp_path / "s.cfg"
    p.write_text(text + "\n")
    parsed = parse_scenario(p)
    assert parsed.pathloss_const == 0.097
    assert parsed.pathloss_exp == 4.0


def test_parse_invariant_violation_names_key(tmp_path, paper):
    text = format_scenario(paper).replace("b = 1e-05", "b = -1")
    p = tmp_path / "bad.cfg"
    p.write_text(text)
    with pytest.raises(ScenarioFormatError, match="b"):
        parse_scenario(p)


def test_parse_diagnostics(tmp_path, paper):
    base = format_scenario(paper)
    cases = [
        (base.replace("omega = 1000000.0\n", ""), "omega"),
        (base.replace("p_r = 0.08", "p_r = eight"), "p_r"),
        (base + "wrong_key = 3\n", "wrong_key"),
        (base + "p1 = 0.2\n", "duplicate"),
        (base.replace("source_1 = 300.0, 300.0", "source_1 = 300.0"), "source_1"),
        (base.replace("M = 80", "M = 80.5"), "M"),
        # Non-finite values fail at parse time too, naming the key.
        (base.replace("M = 80", "M = 1e400"), "'M'"),
        (base.replace("M = 80", "M = inf"), "'M'"),
        (base.replace("M = 80", "M = nan"), "'M'"),
        (base.replace("source_1 = 300.0, 300.0", "source_1 = inf, 0"), "'source_1'"),
        (base.replace("source_1 = 300.0, 300.0", "source_1 = 300.0, nan"), "'source_1'"),
        (base + "just some text\n", "key = value"),
        (base.replace("pathloss_const = 0.097", "pathloss_const = -0.097"), "pathloss_const"),
        (base.replace("pathloss_exp = 4.0", "pathloss_exp = -2"), "pathloss_exp"),
    ]
    for text, needle in cases:
        p = tmp_path / "case.cfg"
        p.write_text(text)
        with pytest.raises(ScenarioFormatError, match=needle):
            parse_scenario(p)


def test_scenario_round_trip(tmp_path, paper):
    rng = np.random.default_rng(41)
    scenarios = [paper] + [random_scenario(rng) for _ in range(5)]
    for k, scenario in enumerate(scenarios):
        p = tmp_path / f"rt{k}.cfg"
        write_scenario(scenario, p)
        assert parse_scenario(p) == scenario


def test_golden_headers():
    assert SWEEP_HEADER == (
        "xr,yr,w1_ne,w2_ne,w1_nbs,w2_nbs,u1_ne,u2_ne,u1_nbs,u2_nbs,"
        "gain_bw_u1_pct,gain_bw_u2_pct,gain_bw_total_pct,gain_sw_pct,"
        "lambda1,lambda2,strictly_concave,converged")
    assert REGION_HEADER == "w1,w2,u1,u2,on_hull,on_pareto"
    assert CONCAVITY_HEADER == "xr,yr,lambda1,lambda2,strictly_concave"


def test_cli_ne_paper(paper_path, capsys):
    rc = main(["ne", "--scenario", paper_path, "--relay", "450,450"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.startswith("[ne] kind=NE source=closed-form converged=true iterations=0 ")
    w1 = float(out.split("w1 = ")[1].splitlines()[0])
    assert w1 == pytest.approx(148130.46015173438, rel=1e-9)


def test_cli_ne_useless_relay(paper_path, capsys):
    # At 1e100 m, d**4 overflows: the relay links get the limit gain of zero.
    for relay in ("1e6,1e6", "1e100,0"):
        rc = main(["ne", "--scenario", paper_path, "--relay", relay])
        out = capsys.readouterr().out
        assert rc == 0
        assert float(out.split("w1 = ")[1].splitlines()[0]) == 0.0
        assert float(out.split("w2 = ")[1].splitlines()[0]) == 0.0


def test_cli_nbs_with_oracle(paper_path, tmp_path, capsys):
    rc = main(["nbs", "--scenario", paper_path, "--relay", "450,450", "--oracle"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "kind=NBS" in out
    assert "[exact]" in out
    assert "oracle_match = true" in out
    # Here CG stops after 0 iterations, far short of the exact Nash product,
    # although the whole bargain lies inside one cell of a 401 x 401 grid.
    rc = main(["nbs", "--scenario", paper_path, "--relay", "200,125", "--oracle"])
    out = capsys.readouterr().out
    assert rc == 1
    assert "oracle_match = false" in out
    # At this price the interior quartic in the total band has a subnormal
    # leading coefficient; the exact solver takes it in t = (b*omega/unit)*s.
    path = tmp_path / "tiny.cfg"
    write_scenario(replace(parse_scenario(paper_path), b=1e-84), path)
    rc = main(["nbs", "--scenario", str(path), "--relay", "450,450", "--oracle"])
    assert rc == 0
    assert "oracle_match = true" in capsys.readouterr().out


def test_cli_nbs_prints_notes(paper_path, tmp_path, capsys):
    # The reports' notes reach the user word for word. At (100, 600) user 2
    # rents no band, so there is no bargain, and CG's endpoint is rejected.
    # With alpha and b x 1e160 the gradient at CG's start is NaN.
    # The header says which path the report came from: here the exact
    # solver's report stands in for CG's rejected endpoint.
    rc = main(["nbs", "--scenario", paper_path, "--relay", "100,600"])
    out = capsys.readouterr().out.splitlines()
    notes = [line for line in out if line.startswith("note: ")]
    assert rc == 0
    assert out[0] == ("[nbs] kind=NBS source=cg-rejected converged=true iterations=0 "
                      "residual=0.00000000000000000e+00")
    assert notes == [
        "note: no allocation improves both utilities on the threat point; "
        "returning the threat allocation",
        "note: steepest-descent fallback used on 29 iteration(s)",
        "note: stopped at a box-stationary point (projected gradient below epsilon)",
        "note: cg endpoint rejected; exact result returned"]
    paper = parse_scenario(paper_path)
    path = tmp_path / "large.cfg"
    write_scenario(replace(paper, alpha=paper.alpha * 1e160, b=paper.b * 1e160), path)
    rc = main(["nbs", "--scenario", str(path), "--relay", "450,450"])
    out = capsys.readouterr().out.splitlines()
    notes = [line for line in out if line.startswith("note: ")]
    assert rc == 0
    assert out[0].startswith("[nbs] kind=NBS source=cg-non-finite ")
    assert notes == ["note: stopped at a non-finite iterate, objective or gradient",
                     "note: cg endpoint rejected; exact result returned"]


def test_cli_at_tiny_units(paper_path, tmp_path, capsys):
    # With alpha and b x 1e-290 every subcommand that solves a bargain
    # answers: the Hessian's units come from each position's terms and band.
    paper = parse_scenario(paper_path)
    path = tmp_path / "tiny.cfg"
    write_scenario(replace(paper, alpha=paper.alpha * 1e-290, b=paper.b * 1e-290), path)
    for command in ("sweep", "concavity-map"):
        assert main([command, "--scenario", str(path), "--step", "100",
                     "--out", str(tmp_path / f"{command}.csv")]) == 0
        assert capsys.readouterr().out.startswith("wrote ")
    assert main(["nbs", "--scenario", str(path), "--relay", "450,450", "--oracle"]) == 0
    assert "oracle_match = true" in capsys.readouterr().out


def test_cli_region(paper_path, tmp_path, capsys):
    out_file = tmp_path / "region.csv"
    rc = main(["region", "--scenario", paper_path, "--relay", "450,450",
               "--resolution", "41", "--out", str(out_file)])
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == REGION_HEADER
    assert len(lines) == 1 + 41 * 41
    hull_rows = [l for l in lines[1:] if l.split(",")[4] == "true"]
    pareto_rows = [l for l in lines[1:] if l.split(",")[5] == "true"]
    assert hull_rows and pareto_rows
    assert len(pareto_rows) <= len(hull_rows)


def _text(write, *args):
    """What the CSV writer ``write`` writes to a file, as a string."""
    out = io.BytesIO()
    write(*args, out)
    return out.getvalue().decode("ascii")


def _reference_region_csv(sample, omega, resolution):
    """One ``_fmt`` call per cell and set membership for the flags. Sample k
    is the allocation of row k // resolution and column k % resolution of
    the uniform grid over [0, omega]^2."""
    axis = np.linspace(0.0, omega, resolution)
    on_hull = set(sample.hull_indices.tolist())
    on_pareto = set(sample.pareto_indices.tolist())
    lines = [REGION_HEADER]
    for i, (u1, u2) in enumerate(sample.utilities):
        row, col = divmod(i, resolution)
        cells = [axis[row], axis[col], u1, u2, i in on_hull, i in on_pareto]
        lines.append(",".join(_fmt(c) for c in cells))
    return "\n".join(lines) + "\n"


def test_region_csv_matches_per_cell_format(paper):
    rng = np.random.default_rng(31)
    scenario = random_scenario(rng)
    for ctx in (make_context(paper, RELAY_450),
                make_context(scenario, random_relay(rng, scenario))):
        sample = sample_utility_region(ctx, resolution=41)
        assert len(sample.hull_indices) and len(sample.pareto_indices)
        # Compared row by row, so that a failure names the first bad row.
        reference = _reference_region_csv(sample, ctx.scenario.omega, 41)
        assert _text(region_csv, sample).split("\n") == reference.split("\n")


def _reference_map_csvs(records):
    """Sweep and concavity CSVs with one ``_fmt`` call per cell. A failed
    position's cells are written from the convention, not read from its
    record: NaN allocations, utilities and eigenvalues, zero gains, false
    flags."""
    sweep_lines, concavity_lines = [SWEEP_HEADER], [CONCAVITY_HEADER]
    for r in rows(records):
        if r.failure is None:
            cells = [r.ne.w1, r.ne.w2, r.nbs.w1, r.nbs.w2, r.ne_u.u1, r.ne_u.u2,
                     r.nbs_u.u1, r.nbs_u.u2, r.gain_bw_u1_pct, r.gain_bw_u2_pct,
                     r.gain_bw_total_pct, r.gain_sw_pct, r.lambda1, r.lambda2,
                     r.strictly_concave, True]
        else:
            cells = [math.nan] * 8 + [0.0] * 4 + [math.nan] * 2 + [False, False]
        relay = [r.xr, r.yr]
        sweep_lines.append(",".join(_fmt(c) for c in relay + cells))
        concavity_lines.append(",".join(_fmt(c) for c in relay + cells[12:15]))
    return "\n".join(sweep_lines) + "\n", "\n".join(concavity_lines) + "\n"


def test_sweep_csv_matches_per_cell_format(paper):
    # The 100 m grid holds the relay on source_1, (300, 300): a failed row.
    for scenario in (paper, replace(paper, b=0.0)):
        records = sweep(scenario, SweepGrid(step=100.0))
        assert any(r.failure is not None for r in rows(records))
        assert any(r.bargain for r in rows(records)) == (scenario.b > 0.0)
        want_sweep, want_concavity = _reference_map_csvs(records)
        # Compared row by row, so that a failure names the first bad row.
        assert _text(sweep_csv, records).split("\n") == want_sweep.split("\n")
        assert _text(concavity_csv, records).split("\n") == want_concavity.split("\n")


def _float_cases(rng):
    """Seeded doubles for the cell formatter: random mantissas over the whole
    exponent range and, more densely, over the magnitudes CSVs hold (1e-30 to
    1e30), and the values its fast path must get right or hand on."""
    n = 1_000_000
    mantissa = rng.integers(0, 2 ** 52, n, dtype=np.uint64)
    power = np.where(rng.random(n) < 0.4, rng.integers(-1063, 1024, n),  # 1e-320 to 1e308
                     rng.integers(-100, 100, n))
    sign = rng.choice([-1.0, 1.0], n)
    with np.errstate(under="ignore"):
        spread = sign * np.ldexp(1.0 + mantissa / 2.0 ** 52, power)
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)] + [10.0 ** k for k in range(-300, 301)])
    edges = np.array([0.0, 5e-324, 2.2250738585072009e-308, 2.2250738585072014e-308,
                      1.7976931348623157e308, 1e250, 1e-250, 9.999999999999999e17,
                      999999999999999999.0, 2.0 ** 54, 2.0 ** 54 + 2.0, 2.0 ** 60, 2.0 ** 63,
                      1000000000000000.125, 0.5, 1.0])
    edges = np.concatenate([edges, tens])
    with np.errstate(over="ignore"):  # above the largest double is inf
        near = np.concatenate([edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf)])
    big_integers = rng.integers(2 ** 54, 2 ** 63, 2000).astype(float)
    # Odd multiples of 1/8 between 1e15 and 2**50: the 19th digit is an exact tie.
    ties = (2 * rng.integers(4 * 10 ** 15, 2 ** 52, 2000) + 1) / 8.0
    special = np.array([np.inf, np.nan, np.copysign(np.nan, -1.0)])
    finite = np.concatenate([near, big_integers, ties])
    return np.concatenate([spread, finite, -finite, special, -special])


def test_float_cells_match_percent_format():
    values = _float_cases(np.random.default_rng(41))
    assert len(values) >= 1_000_000
    assert np.signbit(values[np.isnan(values)]).any() and not np.signbit(values[np.isnan(values)]).all()
    want = "x\n" + "\n".join(["%.17e" % v for v in values.tolist()]) + "\n"
    got = _text(_csv, "x", [values])
    if got != want:
        bad = [(v, g, w) for v, g, w in zip(values.tolist(), got.split("\n")[1:], want.split("\n")[1:])
               if g != w]
        pytest.fail(f"{len(bad)} cells differ, first {bad[:5]}")


def test_float_columns_formatted_together(monkeypatch):
    # Float columns in two runs of adjacent slots, split by a flag and a
    # _Distinct column, with zeros, NaN and inf in each, across blocks.
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 1000)
    rng = np.random.default_rng(43)
    values = _float_cases(rng)
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan]
    floats = [rng.permutation(np.concatenate([rng.choice(values, 2500), special]))
              for _ in range(4)]
    flags = rng.random(len(floats[0])) < 0.5
    choices = np.array(special + [1.5, -2.5e-300])
    pick = rng.integers(len(choices), size=len(flags))
    repeated = choices[pick]
    got = _text(_csv, "h", [floats[0], flags, floats[1], floats[2],
                            cli._Distinct(choices, pick), floats[3]])
    cells = zip(*(c.tolist() for c in (floats[0], flags, floats[1], floats[2], repeated, floats[3])))
    want = "h\n" + "".join(",".join(_fmt(c) for c in row) + "\n" for row in cells)
    assert got.split("\n") == want.split("\n")


def test_scaled_floor_matches_exact_fractions():
    # _scaled_floor's docstring puts its error at about 1e-13 on a result of
    # about 1e17: n + frac is the exact a * 10**(17 - e10) within 1e-13, and
    # the fraction is in [0, 1). The tie test of _decimal needs only 1e-6.
    rng = np.random.default_rng(47)
    decades = np.repeat(np.arange(-250, 250), 4)
    a = rng.uniform(1.0, 10.0, len(decades)) * 10.0 ** decades.astype(float)
    a = np.concatenate([a, 10.0 ** np.arange(-250, 251).astype(float)])
    e10 = np.floor(np.log10(a)).astype(np.int64)
    e10 += [Fraction(v) >= Fraction(10) ** int(e + 1) for v, e in zip(a.tolist(), e10.tolist())]
    e10 -= [Fraction(v) < Fraction(10) ** int(e) for v, e in zip(a.tolist(), e10.tolist())]
    a_before, e10_before = a.copy(), e10.copy()
    n, frac = cli._scaled_floor(a, e10)
    assert np.array_equal(a, a_before) and np.array_equal(e10, e10_before)
    assert ((frac >= 0.0) & (frac < 1.0)).all()
    worst = max(abs(Fraction(k) + Fraction(f) - Fraction(v) * Fraction(10) ** (17 - e))
                for v, e, k, f in zip(a.tolist(), e10.tolist(), n.tolist(), frac.tolist()))
    assert worst <= Fraction(1, 10 ** 13)


def test_digit_table_matches_percent_format():
    # v = k * 10001 puts every 4-digit group k in both halves of the eight.
    rng = np.random.default_rng(53)
    v = np.concatenate([[0, 9_999, 10_000, 99_999_999], np.arange(10_000) * 10_001,
                        rng.integers(0, 10 ** 8, 5000)])
    for shape in (v.shape, (2, len(v) // 2)):
        got = cli._ascii8(v.reshape(shape)).astype("<u8").tobytes()
        assert got == b"".join(b"%08d" % k for k in v.tolist())


def test_formatting_leaves_its_inputs_unchanged():
    rng = np.random.default_rng(59)
    values = rng.choice(_float_cases(rng), 20_000)
    bits = values.view(np.uint64).copy()
    cli._decimal(values)
    assert np.array_equal(values.view(np.uint64), bits)
    flags = rng.random(len(values)) < 0.5
    choices = rng.choice(values, 50)
    pick = rng.integers(len(choices), size=len(values))
    before = [c.copy() for c in (values, flags, choices, pick)]
    _text(_csv, "h", [values, flags, cli._Distinct(choices, pick), values[::-1]])
    for got, want in zip((values, flags, choices, pick), before):
        assert np.array_equal(got.view(np.uint8), want.view(np.uint8))


def test_map_csvs_match_per_cell_format_50m(paper, tmp_path):
    # The 50 m grid holds the failure row (300, 300), zero gains and negative
    # eigenvalues; the text is written to a file, as the subcommands do.
    records = sweep(paper, SweepGrid(step=50.0))
    assert any(r.failure is not None for r in rows(records))
    assert (records.gain_bw_total_pct == 0.0).any() and (records.lambda1 < 0.0).any()
    want_sweep, want_concavity = _reference_map_csvs(records)
    for write, want in ((sweep_csv, want_sweep), (concavity_csv, want_concavity)):
        path = tmp_path / f"{write.__name__}.csv"
        with open(path, "wb") as out:
            write(records, out)
        assert path.read_text().split("\n") == want.split("\n")


def test_csv_written_in_blocks_matches_per_cell_format(paper, monkeypatch):
    # Small blocks, so that every output spans several of them.
    monkeypatch.setattr(cli, "_CSV_BLOCK_ROWS", 100)
    sample = sample_utility_region(make_context(paper, RELAY_450), resolution=41)
    records = sweep(paper, SweepGrid(step=50.0))
    want_region = _reference_region_csv(sample, paper.omega, 41)
    want_sweep, want_concavity = _reference_map_csvs(records)
    for write, data, want in ((region_csv, sample, want_region),
                              (sweep_csv, records, want_sweep),
                              (concavity_csv, records, want_concavity)):
        assert want.count("\n") > 2 * cli._CSV_BLOCK_ROWS + 1
        assert _text(write, data).split("\n") == want.split("\n")


def test_cli_files_match_per_cell_format(paper, paper_path, tmp_path):
    # The files the subcommands write, at the default block size. The
    # 201 x 201 region has 40,401 rows: four full blocks and a partial fifth.
    out = tmp_path / "region.csv"
    assert main(["region", "--scenario", paper_path, "--relay", "450,450",
                 "--resolution", "201", "--out", str(out)]) == 0
    sample = sample_utility_region(make_context(paper, RELAY_450), resolution=201)
    assert 4 * cli._CSV_BLOCK_ROWS < len(sample.utilities) == 40401 < 5 * cli._CSV_BLOCK_ROWS
    # Compared row by row, so that a failure names the first bad row.
    want = _reference_region_csv(sample, paper.omega, 201).encode("ascii")
    assert out.read_bytes().split(b"\n") == want.split(b"\n")
    want_sweep, want_concavity = _reference_map_csvs(sweep(paper, SweepGrid(step=50.0)))
    for command, want in (("sweep", want_sweep), ("concavity-map", want_concavity)):
        out = tmp_path / f"{command}.csv"
        assert main([command, "--scenario", paper_path, "--step", "50", "--out", str(out)]) == 0
        assert out.read_bytes().split(b"\n") == want.encode("ascii").split(b"\n")


def test_cli_map_summary_lines(paper, paper_path, tmp_path, capsys):
    # The 100 m grid holds the relay on source_1, (300, 300): a failed row.
    records = rows(sweep(paper, SweepGrid(step=100.0)))
    assert sum(r.failure is not None for r in records) == 1
    concave = sum(r.strictly_concave for r in records)
    out_file = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", paper_path, "--step", "100",
                 "--out", str(out_file)]) == 0
    assert capsys.readouterr().out == f"wrote {out_file} ({len(records)} positions, 1 failed)\n"
    out_file = tmp_path / "concavity.csv"
    assert main(["concavity-map", "--scenario", paper_path, "--step", "100",
                 "--out", str(out_file)]) == 0
    assert capsys.readouterr().out == (
        f"wrote {out_file} ({len(records)} positions, {concave} strictly concave)\n")


def test_cli_sweep_corner_grid(paper_path, tmp_path):
    out_file = tmp_path / "sweep.csv"
    rc = main(["sweep", "--scenario", paper_path, "--step", "700",
               "--out", str(out_file)])
    assert rc == 0
    lines = out_file.read_text().splitlines()
    assert lines[0] == SWEEP_HEADER
    assert len(lines) == 1 + 4  # the four corners of [0, 700]^2
    for line in lines[1:]:
        assert len(line.split(",")) == len(SWEEP_HEADER.split(","))


def test_cli_sweep_deterministic(paper_path, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["sweep", "--scenario", paper_path, "--step", "350"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_output_dir_env(paper_path, tmp_path, monkeypatch):
    monkeypatch.setenv("BANDGAME_OUTPUT_DIR", str(tmp_path / "outputs"))
    rc = main(["concavity-map", "--scenario", paper_path, "--step", "700",
               "--out", "conc.csv"])
    assert rc == 0
    lines = (tmp_path / "outputs" / "conc.csv").read_text().splitlines()
    assert lines[0] == CONCAVITY_HEADER
    assert len(lines) == 1 + 4


def test_cli_error_exits(paper_path, tmp_path, capsys):
    assert main(["ne", "--scenario", str(tmp_path / "missing.cfg"),
                 "--relay", "450,450"]) == 2
    assert "error" in capsys.readouterr().err
    bad = tmp_path / "bad.cfg"
    bad.write_text("p1 = 0.1\n")
    assert main(["ne", "--scenario", str(bad), "--relay", "450,450"]) == 2
    # relay on top of a node is a degenerate geometry
    assert main(["ne", "--scenario", paper_path, "--relay", "300,300"]) == 2
    # so is a relay whose distance to a node underflows d**4 to zero
    at_origin = tmp_path / "origin.cfg"
    write_scenario(replace(parse_scenario(paper_path), source_1=Point(0.0, 0.0)), at_origin)
    assert main(["ne", "--scenario", str(at_origin), "--relay", "1e-90,0"]) == 2
    # and one so close that the relayed SNR overflows
    assert main(["ne", "--scenario", str(at_origin), "--relay", "1e-80,0"]) == 2
    # a non-finite grid step would never end the grid's axis
    assert main(["sweep", "--scenario", paper_path, "--step", "inf",
                 "--out", str(tmp_path / "never.csv")]) == 2
    # a flag that takes "x,y" and gets one or three numbers
    capsys.readouterr()
    assert main(["ne", "--scenario", paper_path, "--relay", "450"]) == 2
    assert "--relay" in capsys.readouterr().err
    assert main(["sweep", "--scenario", paper_path, "--x-bounds", "0,700,3",
                 "--out", str(tmp_path / "bounds.csv")]) == 2
    assert "--x-bounds" in capsys.readouterr().err


@pytest.mark.parametrize("flags, named", [
    (["--w0", "nan,0"], "--w0"),
    (["--w0", "1e5,inf"], "--w0"),
    (["--epsilon", "-1"], "--epsilon"),
    (["--epsilon", "nan"], "--epsilon"),
    (["--epsilon", "inf"], "--epsilon"),
    (["--max-iter", "-3"], "--max-iter"),
])
def test_cli_nbs_rejects_bad_solver_flags(paper_path, monkeypatch, capsys, flags, named):
    def solve(*args, **kwargs):
        raise AssertionError("nbs ran the solver on a bad flag")

    monkeypatch.setattr(cli, "cg_nbs", solve)
    assert main(["nbs", "--scenario", paper_path, "--relay", "450,450"] + flags) == 2
    err = capsys.readouterr().err
    assert err.startswith("bandgame: error: ") and named in err


def test_cli_nbs_accepts_zero_solver_flags(paper_path, capsys):
    rc = main(["nbs", "--scenario", paper_path, "--relay", "450,450",
               "--epsilon", "0", "--max-iter", "0", "--oracle"])
    assert rc in (0, 1)
    assert "[nbs] kind=NBS" in capsys.readouterr().out


def test_main_builds_its_parser_once(paper_path, monkeypatch, capsys):
    assert main(["ne", "--scenario", paper_path, "--relay", "450,450"]) == 0

    def rebuild():
        raise AssertionError("main built its parser again")

    monkeypatch.setattr(cli, "build_parser", rebuild)
    assert main(["ne", "--scenario", paper_path, "--relay", "450,450"]) == 0
    assert "kind=NE" in capsys.readouterr().out


def test_cli_full_precision_output(paper_path, capsys):
    main(["ne", "--scenario", paper_path, "--relay", "450,450"])
    out = capsys.readouterr().out
    line = [l for l in out.splitlines() if l.startswith("w1 = ")][0]
    mantissa = line.split(" = ")[1]
    assert "e+" in mantissa or "e-" in mantissa
    assert len(mantissa.split("e")[0].split(".")[1]) == 17
