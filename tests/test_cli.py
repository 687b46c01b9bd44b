import ast
import functools
import hashlib
import itertools
import math
import os
import pathlib
import random
import signal
import stat
import subprocess
import sys
import textwrap

import pytest

import piezoscanner
from piezoscanner import scanner
from piezoscanner.cli import (MAX_SAMPLES, MAX_STEPS, MIN_NODES, PIECE_ROWS, _SWEEP_HEADER,
                              _sweep_row, _write_atomic, run)
from piezoscanner.config import ConfigError, parse_config
from piezoscanner.scanner import profile_rows, solve_scanner
from piezoscanner.sweep import SweepSpec, optimize_1d, reference_config, run_sweep, sweep_points

from conftest import (PROFILE_SAMPLES, extreme_profile_load, profile_outcome, profile_points,
                      reference_profile_points)

REPO = pathlib.Path(__file__).resolve().parents[1]
SCANNER_A_CFG = (REPO / "scannerA.cfg").read_text()


def test_readme_config_is_scanner_a():
    """The README shows scannerA.cfg verbatim, so its commands run as written."""
    readme = (REPO / "README.md").read_text()
    assert readme.split("```ini\n", 1)[1].split("```", 1)[0] == SCANNER_A_CFG
    parsed = tuple(parse_config(SCANNER_A_CFG))
    assert parsed == pytest.approx(tuple(reference_config()), rel=1e-15)


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "scannerA.cfg"
    path.write_text(SCANNER_A_CFG)
    return str(path)


class TestParseConfig:
    def test_reference_config(self):
        config = parse_config(SCANNER_A_CFG)
        assert config.substrate_E == 169e9
        assert config.d31 == -274e-12
        # every _um key scales by 1e-6
        assert config.beam_length == pytest.approx(850e-6, rel=1e-15)
        assert config.beam_width == pytest.approx(30e-6, rel=1e-15)
        assert config.substrate_t == pytest.approx(5e-6, rel=1e-15)
        assert config.piezo_t == pytest.approx(1e-6, rel=1e-15)
        assert config.mirror_side == pytest.approx(300e-6, rel=1e-15)
        assert config.voltage == 50.0

    def test_explicit_constants(self):
        text = SCANNER_A_CFG.replace("name = silicon", "E_GPa = 169").replace(
            "[material.piezo]\nname = pzt-5h",
            "[material.piezo]\nE_GPa = 60.6\nd31_pm_per_V = -274",
        )
        config = parse_config(text)
        assert config.substrate_E == pytest.approx(169e9, rel=1e-15)
        assert config.piezo_E == pytest.approx(60.6e9, rel=1e-15)
        assert config.d31 == pytest.approx(-274e-12, rel=1e-15)

    def test_name_and_constants_rejected(self):
        text = SCANNER_A_CFG.replace(
            "[material.piezo]\nname = pzt-5h",
            "[material.piezo]\nname = pzt-5h\nE_GPa = 60.6",
        )
        with pytest.raises(ConfigError, match="not both"):
            parse_config(text)

    @pytest.mark.parametrize(
        "line, bad",
        [
            ("beam_width_um = 30", "beam_width_um = -30"),
            ("beam_width_um = 30", "beam_width_um = nan"),
            ("beam_width_um = 30", "beam_width_um = inf"),
            ("voltage_V = 50", "voltage_V = nan"),
        ],
        ids=["-30", "nan", "inf", "voltage-nan"],
    )
    def test_negative_geometry_rejected(self, line, bad):
        with pytest.raises(ConfigError, match=line.split()[0]):
            parse_config(SCANNER_A_CFG.replace(line, bad))

    def test_duplicate_section_rejected(self):
        with pytest.raises(ConfigError, match=r"^line 22: duplicate section \[drive\]$"):
            parse_config(SCANNER_A_CFG + "\n[drive]\nvoltage_V = 10\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match=r"^line 21: duplicate key 'voltage_V'$"):
            parse_config(SCANNER_A_CFG.replace("voltage_V = 50", "voltage_V = 50\nvoltage_V = 10"))

    @pytest.mark.parametrize("text, error", [
        (SCANNER_A_CFG.replace("beam_length_um = 850", "beam_length_um =\n    850"),
         "line 14: expected key = value under a [section], got '850'"),
        (SCANNER_A_CFG.replace("[geometry]", "[geometry] junk"),
         "line 12: expected key = value under a [section], got '[geometry] junk'"),
        ("voltage_V = 50\n" + SCANNER_A_CFG,
         "line 1: expected key = value under a [section], got 'voltage_V = 50'"),
        (SCANNER_A_CFG.replace("voltage_V = 50", "voltage_V : 50"),
         "line 20: expected key = value under a [section], got 'voltage_V : 50'"),
        (SCANNER_A_CFG.replace("voltage_V = 50", "voltage_V = 50\n= 50"),
         "line 21: expected key = value under a [section], got '= 50'"),
        ("\n \n".join(f"\t{line.replace(' = ', '  =  ')}  " for line in SCANNER_A_CFG.splitlines()),
         None),
    ], ids=["continuation", "header-text", "key-before-section", "no-equals", "no-key", "padded"])
    def test_line_grammar(self, tmp_path, capsys, text, error):
        """Each line is blank, a # comment, a [section] header or key = value, with
        whitespace at either end ignored. Any other line exits 1 with one stderr line that
        names it; a padded Scanner A parses to the reference design."""
        cfg = tmp_path / "grammar.cfg"
        cfg.write_text(text)
        code = run(["model", "--config", str(cfg), "--out", str(tmp_path / "m.csv")])
        if error is None:
            assert (code, capsys.readouterr().err) == (0, "")
            assert tuple(parse_config(text)) == pytest.approx(tuple(reference_config()), rel=1e-15)
        else:
            assert (code, capsys.readouterr().err) == (1, f"config: {error}\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config(SCANNER_A_CFG.replace("voltage_V = 50", "voltage_V = 50\ncurrent_A = 1"))

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config(SCANNER_A_CFG + "\n[thermal]\nT_K = 300\n")

    def test_missing_key_named(self):
        with pytest.raises(ConfigError, match="mirror_side_um"):
            parse_config(SCANNER_A_CFG.replace("mirror_side_um = 300\n", ""))

    def test_missing_section_named(self):
        with pytest.raises(ConfigError, match="drive"):
            parse_config(SCANNER_A_CFG.split("[drive]")[0])

    def test_unknown_material_rejected(self):
        with pytest.raises(Exception, match="unobtainium"):
            parse_config(SCANNER_A_CFG.replace("name = silicon", "name = unobtainium"))


class TestModelCommand:
    def test_summary_and_csv(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "model.csv")
        assert run(["model", "--config", config_path, "--out", out]) == 0
        stdout = capsys.readouterr().out
        assert "phi_deg=0.531974242" in stdout
        assert "y_max_um=2.28513075" in stdout
        assert "F_uN=43.9528235" in stdout
        lines = open(out).read().splitlines()
        assert lines[0] == "phi_deg,y_max_um,x_at_ymax_um,F_uN,R_A_uN,rigidity_Nm2"
        fields = lines[1].split(",")
        assert float(fields[0]) == pytest.approx(0.5319742417, rel=1e-9)
        assert float(fields[5]) == pytest.approx(9.29782829e-11, rel=1e-8)

    @pytest.mark.parametrize(
        "line, edit, expected",
        [
            ("piezo_thickness_um = 1\n", "piezo_thickness_um = 1e-14\n",
             "F_uN=4.39528235e-13 R_A_uN=3.42532132e-13"),
            ("piezo_thickness_um = 1\n", "piezo_thickness_um = 1e-24\n",
             "F_uN=4.39528235e-23 R_A_uN=3.42532132e-23"),
            ("voltage_V = 50", "voltage_V = 1e308", "F_uN=8.79056471e+307 R_A_uN=6.85064264e+307"),
        ],
        ids=["piezo-1e-14", "piezo-1e-24", "voltage-1e308"],
    )
    def test_force_is_closed_form_at_extremes(self, tmp_path, capsys, line, edit, expected):
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(SCANNER_A_CFG.replace(line, edit))
        assert run(["model", "--config", str(cfg), "--out", str(tmp_path / "m.csv")]) == 0
        stdout = capsys.readouterr().out
        assert expected in stdout
        assert "nan" not in stdout and "inf" not in stdout

    @pytest.mark.parametrize("edit, sweep", [
        (("voltage_V = 50", "voltage_V = -0"), ["beam_length", "--from=500e-6", "--to=850e-6"]),
        (("[material.piezo]\nname = pzt-5h",
          "[material.piezo]\nE_GPa = 60.6\nd31_pm_per_V = 0"),
         ["voltage", "--from=-1", "--to=1"]),
    ], ids=["voltage-minus-0", "d31-0"])
    def test_zero_drive_writes_no_negative_zero(self, tmp_path, capsys, edit, sweep):
        """At zero drive the reaction is 0, never -0, in model's summary and CSV and in
        every row of a 3-point sweep."""
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(SCANNER_A_CFG.replace(*edit))
        model_csv = tmp_path / "m.csv"
        assert run(["model", "--config", str(cfg), "--out", str(model_csv)]) == 0
        assert capsys.readouterr().out == (
            "phi_deg=0 y_max_um=0 x_at_ymax_um=150 F_uN=0 R_A_uN=0 rigidity_Nm2=9.29782829e-11\n")
        assert model_csv.read_text().splitlines()[1] == "0,0,150,0,0,9.29782829e-11"
        assert hashlib.sha256(model_csv.read_bytes()).hexdigest() == (
            "a01e474866fba21351af304a238fe6249a7965762b7843eafd4be3b1877cb390")
        sweep_csv = tmp_path / "s.csv"
        assert run(["sweep", "--config", str(cfg), "--axis", *sweep, "--steps", "3",
                    "--out", str(sweep_csv)]) == 0
        assert [line.split(",")[2:] for line in sweep_csv.read_text().splitlines()[1:]] == [
            ["0", "0", "0", "0", "ok"]] * 3

    def test_missing_config_file(self, tmp_path, capsys):
        assert run(["model", "--config", str(tmp_path / "nope.cfg")]) == 1
        assert capsys.readouterr().err.startswith("config:")

    def test_undecodable_config_exit_code(self, tmp_path, capsys):
        """A config whose bytes do not decode, here a 0xff in a comment, cannot be read: it
        exits 1, as a missing file does, not as a numeric failure."""
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"# \xff\n" + SCANNER_A_CFG.encode())
        assert run(["model", "--config", str(bad), "--out", str(tmp_path / "m.csv")]) == 1
        assert capsys.readouterr().err.startswith(f"config: cannot read {bad}: ")

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SCANNER_A_CFG.replace("beam_width_um = 30", "beam_width_um = -30"))
        assert run(["model", "--config", str(bad), "--out", str(tmp_path / "m.csv")]) == 1
        assert capsys.readouterr().err.startswith("config:")

    def test_unknown_material_exit_code(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SCANNER_A_CFG.replace("name = silicon", "name = unobtainium"))
        assert run(["model", "--config", str(bad), "--out", str(tmp_path / "m.csv")]) == 1
        assert capsys.readouterr().err.startswith("config: unknown material")

    @pytest.mark.parametrize("text", [
        "[DEFAULT]\n" + SCANNER_A_CFG,
        "[DEFAULT]\nvoltage_V = 50\n" + SCANNER_A_CFG.replace("voltage_V = 50\n", ""),
    ], ids=["empty", "voltage-under-default"])
    def test_default_section_is_unknown(self, tmp_path, capsys, text):
        """[DEFAULT] is a section like any other, so it is unknown, and its keys are not
        copied into the sections that lack them."""
        bad = tmp_path / "bad.cfg"
        bad.write_text(text)
        out = tmp_path / "m.csv"
        assert run(["model", "--config", str(bad), "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config: unknown section [DEFAULT]\n"
        assert not out.exists()


@pytest.mark.parametrize("length_um, summary", [
    ("1e76", "y_max_um=2.23229547e+73 x_at_ymax_um=3.33333333e+75"),
    ("1e83", "y_max_um=2.23229547e+80 x_at_ymax_um=3.33333333e+82"),
], ids=["1e76", "1e83"])
def test_long_beam_peak(tmp_path, capsys, length_um, summary):
    """Beams 1e70 and 1e77 m long peak at the interior stationary point, about a third
    of the half span, and the profile samples stay finite and within y_max."""
    cfg = tmp_path / "long.cfg"
    cfg.write_text(SCANNER_A_CFG.replace("beam_length_um = 850", f"beam_length_um = {length_um}"))
    model_csv = tmp_path / "m.csv"
    assert run(["model", "--config", str(cfg), "--out", str(model_csv)]) == 0
    assert summary in capsys.readouterr().out
    y_max = float(model_csv.read_text().splitlines()[1].split(",")[1])
    for samples in ("3", "5", "401"):
        out = tmp_path / f"p{samples}.csv"
        assert run(["profile", "--config", str(cfg), "--samples", samples, "--out", str(out)]) == 0
        assert all(abs(float(line.split(",")[1])) <= y_max
                   for line in out.read_text().splitlines()[1:])


class TestProfileCommand:
    def test_five_sample_profile(self, tmp_path):
        for voltage in ("50", "-50"):
            cfg = tmp_path / f"{voltage}.cfg"
            cfg.write_text(SCANNER_A_CFG.replace("voltage_V = 50", f"voltage_V = {voltage}"))
            out = str(tmp_path / "p.csv")
            assert run(["profile", "--config", str(cfg), "--samples", "5", "--out", out]) == 0
            lines = open(out).read().splitlines()
            assert lines[0] == "x_um,y_um"
            assert len(lines) == 6
            rows = [line.split(",") for line in lines[1:]]
            assert float(rows[0][1]) == 0.0  # left anchor
            assert rows[2][1] == "0"  # the mirror center is the fixed support, never -0
            assert float(rows[-1][1]) == 0.0  # right anchor
            assert float(rows[2][0]) == pytest.approx(1000.0)

    def test_samples_bounded(self, config_path, tmp_path, capsys):
        out = tmp_path / "p.csv"
        assert run(["profile", "--config", config_path, "--samples", "1000000000000",
                    "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("config: --samples")
        assert not out.exists()

    def test_byte_stable(self, config_path, tmp_path):
        out1 = str(tmp_path / "p1.csv")
        out2 = str(tmp_path / "p2.csv")
        run(["profile", "--config", config_path, "--samples", "101", "--out", out1])
        run(["profile", "--config", config_path, "--samples", "101", "--out", out2])
        assert open(out1, "rb").read() == open(out2, "rb").read()

    def test_bytes_pinned(self, config_path, tmp_path):
        """Scanner A's 401-sample CSV keeps its bytes across versions of the code."""
        out = tmp_path / "p.csv"
        assert run(["profile", "--config", config_path, "--samples", "401", "--out", str(out)]) == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == (
            "ba6d82e49119ecef35f0f3bd509ba40fde8c6dcc714081a6ae837cf0754ede18")

    def test_bytes_pinned_across_chunks(self, config_path, tmp_path):
        """Scanner A's 2,001-sample CSV, whose rows fill one 1,024-row chunk and part of a
        second, keeps its bytes; 2,000 samples are bumped to the same 2,001."""
        for samples in ("2001", "2000"):
            out = tmp_path / f"p{samples}.csv"
            assert run(["profile", "--config", config_path, "--samples", samples,
                        "--out", str(out)]) == 0
            assert hashlib.sha256(out.read_bytes()).hexdigest() == (
                "fa0c60ece7ccdb4b418861e890eec46c592ea8bcd197d22e6edddefaeda4bb94")

    @pytest.mark.parametrize("samples", PROFILE_SAMPLES)
    def test_rows_format_as_one_row_at_a_time(self, config_path, tmp_path, samples):
        """The rows, formatted 1,024 to a call, are the bytes of one "%.9g" format per row:
        short, full, partial last and even-count (bumped to odd) chunks alike."""
        out = tmp_path / "p.csv"
        assert run(["profile", "--config", config_path, "--samples", str(samples),
                    "--out", str(out)]) == 0
        force, rigidity, a, half_span = solve_scanner(*parse_config(SCANNER_A_CFG))[:4]
        points = profile_points(samples, force, a, half_span, rigidity)
        assert out.read_text() == "x_um,y_um\n" + "".join(
            "%.9g,%.9g\n" % (u * 1e6, y * 1e6) for u, y in points)

    @pytest.mark.parametrize("edit", [
        ("voltage_V = 50", "voltage_V = 0"),
        ("[material.piezo]\nname = pzt-5h",
         "[material.piezo]\nE_GPa = 60.6\nd31_pm_per_V = 0"),
    ], ids=["voltage-0", "d31-0"])
    def test_zero_drive_writes_no_negative_zero(self, tmp_path, edit):
        """At zero drive every ordinate is 0, in both halves, never -0."""
        cfg = tmp_path / "zero.cfg"
        cfg.write_text(SCANNER_A_CFG.replace(*edit))
        out = tmp_path / "p.csv"
        assert run(["profile", "--config", str(cfg), "--samples", "7", "--out", str(out)]) == 0
        assert [line.split(",")[1] for line in out.read_text().splitlines()[1:]] == ["0"] * 7


# (samples, a, span, rigidity) of the loads whose left half fills two of the CLI's pieces.
FINITENESS_LOAD = (4097, 1.0, 101.0, 1e-300)


@functools.cache
def finiteness_forces() -> tuple[float, float]:
    """(lo, hi), bisected with reference_profile_points: the largest force at which
    FINITENESS_LOAD samples and the smallest at which it fails."""
    samples, a, span, rigidity = FINITENESS_LOAD
    lo, hi = 1.0, sys.float_info.max
    while hi > lo * 1.001:
        force = math.sqrt(lo) * math.sqrt(hi)
        if isinstance(profile_outcome(reference_profile_points, samples, force, a, span,
                                      rigidity), tuple):
            hi = force
        else:
            lo = force
    return lo, hi


def test_profile_rows_finiteness_matches_reference():
    """profile_rows tests each range's ordinates by their sum. Two loads at 4,097 samples,
    whose left half fills two of the CLI's pieces, are found by bisecting the force with
    reference_profile_points. The largest that samples, whose first piece's ordinates sum
    past float_info.max, gives the reference's bits. The smallest that fails, whose first
    non-finite ordinate is in the second piece, gives the first piece and raises the
    reference's exact error on the second."""
    samples, a, span, rigidity = FINITENESS_LOAD

    def outcome(function, force):
        return profile_outcome(function, samples, force, a, span, rigidity)

    lo, hi = finiteness_forces()
    expected = outcome(reference_profile_points, lo)
    assert not math.isfinite(sum(float.fromhex(y) for _, y in expected[:PIECE_ROWS]))
    assert outcome(profile_points, lo) == [
        (u, "0x0.0p+0" if y == "-0x0.0p+0" else y) for u, y in expected]

    expected = outcome(reference_profile_points, hi)
    assert expected[0] is ValueError
    yielded = 0
    with pytest.raises(ValueError):
        for _ in reference_profile_points(samples, hi, a, span, rigidity):
            yielded += 1
    assert yielded > PIECE_ROWS  # the first non-finite ordinate is in the second piece
    assert outcome(profile_points, hi) == expected
    assert len(profile_rows(samples, hi, a, span, rigidity, 0, PIECE_ROWS)) == 2 * PIECE_ROWS
    with pytest.raises(ValueError) as raised:
        profile_rows(samples, hi, a, span, rigidity, PIECE_ROWS, 2 * PIECE_ROWS)
    assert str(raised.value) == expected[1]


# Row counts of the pieces that the partition tests cut a profile or a sweep into.
PIECE_SIZES = (1, 2, 3, 7, PIECE_ROWS - 1, PIECE_ROWS, PIECE_ROWS + 1)


def partitions(n: int, mid: int):
    """Lists of ranges (lo, hi) that cover rows 0 to n - 1 in order: pieces of each of
    PIECE_SIZES, two pieces cut at 0, 1, mid, mid + 1, n - 1 and n, and a cut at mid with
    empty ranges at 0, at mid and past the end."""
    for size in PIECE_SIZES:
        yield [(lo, lo + size) for lo in range(0, n, size)]
    for cut in (0, 1, mid, mid + 1, n - 1, n):
        yield [(0, cut), (cut, math.inf)]
    yield [(0, 0), (0, mid), (mid, mid), (mid, math.inf), (n, n), (n + 1, n + 7), (n + 5, math.inf)]


def range_outcome(function, ranges):
    """The hex of each float (and each status text) that function(lo, hi) gives over the
    ranges in order, or the first exception's exact type and text."""
    try:
        return [value.hex() if isinstance(value, float) else value
                for lo, hi in ranges for value in function(lo, hi)]
    except Exception as exc:  # the exception type is part of what is compared
        return type(exc), str(exc)


def partition_loads():
    """(force, a, span, rigidity) of Scanner A, of FINITENESS_LOAD at both forces of
    finiteness_forces() and of six extreme_profile_load draws."""
    force, rigidity, a, span = solve_scanner(*reference_config())[:4]
    _, a_f, span_f, rigidity_f = FINITENESS_LOAD
    rng = random.Random(20261025)
    return [(force, a, span, rigidity),
            *((f, a_f, span_f, rigidity_f) for f in finiteness_forces()),
            *(extreme_profile_load(rng) for _ in range(6))]


def test_profile_rows_partitions_match_one_call():
    """profile_rows over any partition of the rows into ranges, empty ones included, gives
    the bits of one call over all of them, or its exact exception; an empty range, at 0 or
    past the last row, gives []."""
    outcomes = set()
    for load in partition_loads():
        for samples in PROFILE_SAMPLES:
            last = (samples | 1) - 1

            def rows(lo, hi):
                return profile_rows(samples, *load, lo, hi)

            whole = range_outcome(rows, [(0, math.inf)])
            outcomes.add(type(whole))
            for ranges in partitions(last + 1, last // 2):
                assert range_outcome(rows, ranges) == whole, (load, samples, ranges)
            if isinstance(whole, list):
                assert rows(0, 0) == rows(last + 1, math.inf) == rows(last + 2, last + 9) == []
    assert outcomes == {list, tuple}  # loads that sample and loads that fail


def test_sweep_points_partitions_match_one_call():
    """sweep_points over any partition of the points into ranges, empty ones included, gives
    the bits and statuses of one call over all of them, on each axis and on a sweep whose
    first half fails."""
    specs = [SweepSpec(reference_config(), axis, lo, hi, 2049) for axis, (lo, hi) in (
        ("beam_length", (100e-6, 2000e-6)), ("beam_width", (5e-6, 200e-6)),
        ("mirror_side", (10e-6, 1000e-6)), ("piezo_thickness", (0.2e-6, 20e-6)),
        ("substrate_thickness", (0.2e-6, 20e-6)), ("voltage", (0.0, 50.0)),
        ("beam_length", (-1e-3, 1e-3)))]
    for spec in specs:

        def points(lo, hi):
            return [value for point in sweep_points(spec, lo, hi) for value in point]

        whole = range_outcome(points, [(0, math.inf)])
        assert len(whole) == 6 * spec.steps
        for ranges in partitions(spec.steps, spec.steps // 2):
            assert range_outcome(points, ranges) == whole, (spec.axis, ranges)
    assert "length must be > 0" in whole and "ok" in whole


# The README's model, sweep and table1 commands on Scanner A: argv after the
# subcommand, exact stdout, and the SHA-256 of the CSV.
README_OUTPUTS = {
    "model": (
        ["--config", "{config}"],
        "phi_deg=0.531974242 y_max_um=2.28513075 x_at_ymax_um=359.42029 F_uN=43.9528235 "
        "R_A_uN=34.2532132 rigidity_Nm2=9.29782829e-11\n",
        "204a14a9f28b458e2897cd4393b0213ef046c5b113e35e2ae85f990a8f121c0c",
    ),
    "sweep": (
        ["--config", "{config}", "--axis", "beam_length", "--from=500e-6", "--to=850e-6",
         "--steps", "8"],
        "",
        "a69724f06610acb20caa80b4240988fdf008581fc2eb5f04433c087afc31a9e0",
    ),
    "table1": (
        [],
        "beam_length_um=850 phi_deg=0.531974242 y_max_um=2.28513075\n"
        "beam_length_um=600 phi_deg=0.445581978 y_max_um=1.64661795\n"
        "beam_length_um=500 phi_deg=0.397842679 y_max_um=1.37810652\n",
        "68ce682d074c9638ba3e60d9c1e1bc5910a931444365ed08885b77d9fb7e55c3",
    ),
}


@pytest.mark.parametrize("command", sorted(README_OUTPUTS))
def test_readme_bytes_pinned(config_path, tmp_path, capsys, command):
    """The README commands keep their stdout and CSV bytes across versions of the code."""
    argv, stdout, digest = README_OUTPUTS[command]
    out = tmp_path / "out.csv"
    argv = [arg.format(config=config_path) for arg in argv]
    assert run([command, *argv, "--out", str(out)]) == 0
    assert capsys.readouterr().out == stdout
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Scanner A's 2,000-point sweep on each axis, then sweeps whose points fail or
# overflow: (axis, from, to) -> (exit code, SHA-256 of the CSV). Every status
# text is part of the bytes.
SWEEP_PINS = {
    ("beam_length", "100e-6", "2000e-6"):
        (0, "2bc3cfc2ac19c2c3f7e97f2276abccc4b1a15a2513c74a298a0a2f42e615a3d5"),
    ("beam_width", "5e-6", "200e-6"):
        (0, "1c0dd92327959b216e59474c890b837899ba4201b394fd34327694b22763aa4d"),
    ("substrate_thickness", "0.2e-6", "20e-6"):
        (0, "1786596c819e68d307bce4cfdece19feadb3972f5b78a58818157a10c60581fa"),
    ("piezo_thickness", "0.2e-6", "20e-6"):
        (0, "ddca4539e3296e1aa05481759da97ace114e0e8c5f93654ff6ec30772ee85fee"),
    ("mirror_side", "50e-6", "1000e-6"):
        (0, "6ff9f2da2343cbe08d9a5d5549a9481d5ab1fb6386ac3a550923c33cb5a4bc02"),
    ("voltage", "-200", "200"):
        (0, "5450223857ef2a81d21c19e2b863eeca511ab40330a0648388015a8b600e415c"),
    ("beam_length", "-1e-3", "1e-3"):
        (2, "18111fe201eecece70cda3715c86dfac030b9c71b7ca9837f8a31063007e4478"),
    ("mirror_side", "1e-330", "1e-323"):
        (2, "c941c10144347168c64ad5ac5541bd4bf32b4abbb0e79e6efcbcb41428d73996"),
    ("piezo_thickness", "1e100", "1e300"):
        (2, "0d61ffec3e8fda5965b51e0eb0c2f98a02da3975d5b0a59bc10f02e2cda1fea2"),
    ("voltage", "1e300", "1.7e308"):
        (0, "d12529dc97d785f476b7a743086fb2315b0456ada7001fd7f0019b71c6b14bf1"),
}


@pytest.mark.parametrize("axis, start, stop", sorted(SWEEP_PINS),
                         ids=["_".join(key) for key in sorted(SWEEP_PINS)])
def test_sweep_bytes_pinned(config_path, tmp_path, capsys, axis, start, stop):
    """2,000-point sweeps keep their CSV bytes and exit code across versions of the code."""
    code, digest = SWEEP_PINS[axis, start, stop]
    out = tmp_path / "s.csv"
    assert run(["sweep", "--config", config_path, "--axis", axis, f"--from={start}", f"--to={stop}",
                "--steps", "2000", "--out", str(out)]) == code
    capsys.readouterr()
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


# Scanner A at 1.55e224 V with 3.28e88 um wide beams: finite SI results, inf in uN.
CSV_UNIT_OVERFLOW = {"voltage_V = 50": "voltage_V = 1.55e224",
                     "beam_width_um = 30": "beam_width_um = 3.28e88"}

# (edits, axis, from, to, steps) of the sweeps that must keep their per-row bytes.
CHUNK_EDGE_SWEEPS = {
    "1023-steps": ({}, "beam_length", "100e-6", "2000e-6", 1023),
    "1024-steps": ({}, "beam_width", "5e-6", "200e-6", 1024),
    "1025-steps": ({}, "mirror_side", "50e-6", "1000e-6", 1025),
    "3000-steps": ({}, "voltage", "-200", "200", 3000),
    # Rows 0-499 fail, all inside the first chunk.
    "errors-inside-chunk": ({}, "beam_length", "-1e-3", "3e-3", 2000),
    # Rows 0-1499 fail, across the edge between the first and second chunks.
    "errors-across-edge": ({}, "beam_length", "-1e-3", "1e-3", 3000),
    # Rows 2338-2999 overflow in CSV units, from inside the last chunk to its end.
    "csv-overflow-in-last-chunk": (CSV_UNIT_OVERFLOW, "voltage", "1", "2.4e221", 3000),
    # Rows 4-2999 overflow in CSV units: a mixed chunk, then two failed ones.
    "csv-overflow": (CSV_UNIT_OVERFLOW, "voltage", "1", "1.55e224", 3000),
    # Every cell is finite, but each chunk's cells sum to inf: every row stays ok.
    "finite-cells-inf-sum": ({}, "voltage", "1e300", "1.7e308", 3000),
}


@pytest.mark.parametrize("case", list(CHUNK_EDGE_SWEEPS))
def test_sweep_chunks_match_per_row_bytes(tmp_path, capsys, case):
    """The sweep's CSV, exit code and numeric line are those of one _sweep_row call a point,
    whichever way each 1,024-point chunk is formatted."""
    edits, axis, start, stop, steps = CHUNK_EDGE_SWEEPS[case]
    text = SCANNER_A_CFG
    for old, new in edits.items():
        text = text.replace(old, new)
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text)
    spec = SweepSpec(base=parse_config(text), axis=axis, start=float(start), stop=float(stop),
                     steps=steps)
    rows = [_sweep_row(axis, *point) for point in sweep_points(spec)]
    failed = sum(not row.endswith(",ok\n") for row in rows)
    if case == "finite-cells-inf-sum":
        cells = [float(cell) for row in rows[:1024] for cell in row.split(",")[2:6]]
        assert failed == 0 and all(map(math.isfinite, cells)) and sum(cells) == math.inf
    out = tmp_path / "s.csv"
    code = run(["sweep", "--config", str(cfg), "--axis", axis, f"--from={start}", f"--to={stop}",
                "--steps", str(steps), "--out", str(out)])
    assert out.read_text() == _SWEEP_HEADER + "\n" + "".join(rows)
    assert code == (2 if failed else 0)
    assert ("numeric:" in capsys.readouterr().err) == bool(failed)


class TestSweepCommand:
    def test_sweep_csv(self, config_path, tmp_path):
        out = str(tmp_path / "s.csv")
        code = run(
            [
                "sweep", "--config", config_path, "--axis", "beam_length",
                "--from=500e-6", "--to=850e-6", "--steps", "3", "--out", out,
            ]
        )
        assert code == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "param_name,param_value_si,phi_deg,y_max_um,F_uN,R_A_uN,status"
        assert len(lines) == 4
        assert all(line.endswith(",ok") for line in lines[1:])
        assert lines[1].startswith("beam_length,0.0005,")

    BAD_RANGES = {
        ("50", "50"): "--from must be less than --to",
        ("50", "inf"): "--from and --to must be finite",
        ("-inf", "50"): "--from and --to must be finite",
        ("nan", "50"): "--from and --to must be finite",
        ("-1e308", "1e308"): "--to minus --from must be finite",
    }

    @pytest.mark.parametrize("start, stop", list(BAD_RANGES))
    def test_bad_range_exit_code(self, config_path, tmp_path, capsys, start, stop):
        """Each range error names the flags."""
        out = tmp_path / "s.csv"
        code = run(
            [
                "sweep", "--config", config_path, "--axis", "voltage",
                f"--from={start}", f"--to={stop}", "--steps", "3", "--out", str(out),
            ]
        )
        assert code == 1
        assert capsys.readouterr().err == f"config: {self.BAD_RANGES[start, stop]}\n"
        assert not out.exists()

    def test_steps_bounded(self, config_path, tmp_path, capsys):
        """Both ends of the range give the one message."""
        out = tmp_path / "s.csv"
        for steps in (1, MAX_STEPS + 1):
            assert run(["sweep", "--config", config_path, "--axis", "voltage", "--from=0",
                        "--to=50", "--steps", str(steps), "--out", str(out)]) == 1
            assert capsys.readouterr().err == f"config: --steps must be in [2, {MAX_STEPS}]\n"
            assert not out.exists()

    def test_failed_points_flagged(self, config_path, tmp_path, capsys):
        out = str(tmp_path / "s.csv")
        code = run(
            [
                "sweep", "--config", config_path, "--axis", "substrate_thickness",
                "--from=-1e-6", "--to=1e-6", "--steps", "3", "--out", out,
            ]
        )
        assert code == 2
        lines = open(out).read().splitlines()
        assert any("error" in line for line in lines[1:])


class TestTable1Command:
    def test_rows(self, tmp_path, capsys):
        out = str(tmp_path / "t.csv")
        assert run(["table1", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 4
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert values == [850e-6, 600e-6, 500e-6]
        tilts = [float(line.split(",")[2]) for line in lines[1:]]
        assert tilts[0] > tilts[1] > tilts[2]


class TestVerifyCommand:
    def test_verify_passes(self, capsys):
        assert run(["verify", "--nodes", "801"]) == 0
        stdout = capsys.readouterr().out
        assert stdout.splitlines()[0] == ("assumed constants: silicon E=1.69e+11 Pa, "
                                          "pzt-5h E=6.06e+10 Pa d31=-2.74e-10 m/V")
        assert "closed_form_identity" in stdout
        assert "FAIL" not in stdout

    def test_bad_nodes(self, capsys):
        assert run(["verify", "--nodes", "10"]) == 1
        assert capsys.readouterr().err.startswith("config:")

    def test_nodes_bounded(self, capsys):
        """Both ends of the range, and even counts inside it, give the one message."""
        for nodes in (9, 12, MIN_NODES - 2, MAX_SAMPLES + 1, MAX_SAMPLES + 2):
            assert run(["verify", "--nodes", str(nodes)]) == 1
            captured = capsys.readouterr()
            assert captured.err == (
                f"config: --nodes must be odd and in [{MIN_NODES}, {MAX_SAMPLES}]\n")
            assert captured.out == ""

    def test_fewest_nodes_pass(self, capsys):
        """The correct model passes every line at the smallest node count verify accepts."""
        assert run(["verify", "--nodes", str(MIN_NODES)]) == 0
        assert capsys.readouterr().out.count(" PASS\n") == 9

    def test_without_numpy_one_config_line(self):
        """Where numpy cannot be imported, verify exits 1 with one line, not a traceback."""
        src = os.path.dirname(os.path.dirname(piezoscanner.__file__))
        probe = "import sys; sys.modules['numpy'] = None; from piezoscanner.cli import main; main()"
        result = subprocess.run([sys.executable, "-c", probe, "verify"],
                                env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == ("config: verify needs numpy: "
                                 "import of numpy halted; None in sys.modules\n")


class TestNonFiniteResults:
    """Finite inputs whose results overflow fail with exit 2, never print nan or inf."""

    @pytest.mark.parametrize(
        "edits, argv, reason",
        [
            ({"name = silicon": "E_GPa = 1e300"}, ["model"], "non-finite rigidity"),
            ({"voltage_V = 50": "voltage_V = 1e308", "beam_width_um = 30": "beam_width_um = 3e10"},
             ["profile", "--samples", "5"], "non-finite force"),
            ({"beam_width_um = 30": "beam_width_um = 3e10"},
             ["sweep", "--axis", "voltage", "--from=1e307", "--to=1.7e308", "--steps", "3"],
             "non-finite force"),
            ({"piezo_thickness_um = 1\n": "piezo_thickness_um = 1e300\n"}, ["model"],
             "equivalent section: (34"),
            ({"beam_length_um = 850": "beam_length_um = 1e-210"}, ["model"],
             "half span: a + L rounds to a for a beam length of 1e-216 m"),
            ({"mirror_side_um = 300": "mirror_side_um = 1e300"}, ["model"],
             "mirror side of 1e+294 m; the design is outside double-precision range"),
            ({"mirror_side_um = 300": "mirror_side_um = 2e109",
              "beam_length_um = 850": "beam_length_um = 1e109"}, ["model"], "half-beam statics: (34"),
            ({}, ["sweep", "--axis", "piezo_thickness", "--from=1e-6", "--to=1e300", "--steps", "3"],
             "equivalent section: (34"),
            ({}, ["sweep", "--axis", "mirror_side", "--from=1e-330", "--to=1e-323", "--steps", "3"],
             "mirror half side: a mirror side of 5e-324 m halves to a = 0; the design is outside "
             "double-precision range"),
            ({"beam_width_um = 30": "beam_width_um = 1e-315"}, ["model"],
             "half-beam statics: float division by zero"),
            (CSV_UNIT_OVERFLOW, ["model"], "overflows in CSV units"),
            ({"name = silicon": "E_GPa = 1.08e-3", "beam_length_um = 850": "beam_length_um = 904000",
              "beam_width_um = 30": "beam_width_um = 132000",
              "substrate_thickness_um = 5": "substrate_thickness_um = 0.0036",
              "piezo_thickness_um = 1\n": "piezo_thickness_um = 0.00324\n",
              "voltage_V = 50": "voltage_V = 1.96e300"}, ["profile", "--samples", "5"],
             "overflows in CSV units"),
            (CSV_UNIT_OVERFLOW, ["sweep", "--axis", "voltage", "--from=1", "--to=1.55e224",
                                 "--steps", "2"], "overflows in CSV units"),
        ],
        ids=["model-E", "profile-voltage", "sweep-voltage", "model-piezo-thickness",
             "model-beam-length", "model-mirror-side-rounding", "model-mirror-side",
             "sweep-piezo-thickness", "sweep-mirror-half-side", "model-zero-rigidity",
             "model-csv-units", "profile-csv-units", "sweep-csv-units"],
    )
    def test_overflow_fails(self, tmp_path, capsys, edits, argv, reason):
        text = SCANNER_A_CFG
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "overflow.cfg"
        cfg.write_text(text)
        out = tmp_path / "out.csv"
        assert run([argv[0], "--config", str(cfg), *argv[1:], "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("numeric:")
        assert "nan" not in captured.out and "inf" not in captured.out
        if argv[0] != "sweep":
            assert reason in captured.err
            return
        rows = out.read_text().splitlines()[1:]
        assert len(rows) == int(argv[argv.index("--steps") + 1])
        assert any(reason in row for row in rows if ",error: " in row)
        for row in rows:
            if row.endswith(",ok"):
                assert "nan" not in row and "inf" not in row
            else:
                assert ",error: " in row


def test_readme_pins_pass_without_numpy():
    """tests/conftest.py loads, and the README byte pins pass, where numpy cannot be
    imported: conftest imports verification, and numpy with it, only inside the helpers
    that need it."""
    tests = pathlib.Path(__file__).parent
    src = os.path.dirname(os.path.dirname(piezoscanner.__file__))
    probe = ("import sys; sys.modules['numpy'] = None; import pytest; "
             "sys.exit(pytest.main(['-q', '-p', 'no:cacheprovider', sys.argv[1]]))")
    result = subprocess.run(
        [sys.executable, "-c", probe, "tests/test_cli.py::test_readme_bytes_pinned"],
        cwd=tests.parent, env={**os.environ, "PYTHONPATH": src}, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout + result.stderr
    assert " passed" in result.stdout and "skipped" not in result.stdout


def test_only_the_oracle_imports_numpy():
    """Arrays are the FD oracle's alone: of the package's modules, only oracle.py imports
    numpy, at any depth of its syntax tree."""
    importers = set()
    for path in pathlib.Path(piezoscanner.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(module.split(".")[0] == "numpy" for module in modules):
                importers.add(path.name)
    assert importers == {"oracle.py"}


@pytest.mark.parametrize("flags", [(), ("-S",)], ids=["site", "no-site"])
def test_cli_loads_only_model_path_modules(config_path, tmp_path, flags):
    """The import and every command but verify load exactly the package modules of the
    model path, and neither scipy nor numpy, nor fractions, which only verify's exact layer
    check reads, nor configparser, since config.py reads its own line grammar; the import
    loads no array either. Under -S, with no site hook that may load them itself, neither do
    dataclasses, inspect or tempfile."""
    src = os.path.dirname(os.path.dirname(piezoscanner.__file__))
    probe = textwrap.dedent(
        """\
        import sys
        import piezoscanner.cli as cli
        PACKAGE = {'piezoscanner', 'piezoscanner.cli', 'piezoscanner.config',
                   'piezoscanner.multimorph', 'piezoscanner.scanner', 'piezoscanner.sweep'}
        def package_modules():
            return {name for name in sys.modules if name.split('.')[0] == 'piezoscanner'}
        assert package_modules() == PACKAGE, package_modules()
        assert 'scipy' not in sys.modules, 'scipy imported'
        assert 'numpy' not in sys.modules, 'numpy imported by the import'
        assert 'array' not in sys.modules, 'array imported by the import'
        assert 'configparser' not in sys.modules, 'configparser imported by the import'
        cfg, out = sys.argv[1:]
        for argv in (["model", "--config", cfg], ["profile", "--config", cfg],
                     ["sweep", "--config", cfg, "--axis", "voltage", "--from=0", "--to=50",
                      "--steps", "3"], ["table1"]):
            assert cli.run([*argv, "--out", out]) == 0, argv
            assert package_modules() == PACKAGE, (argv[0], package_modules())
            for name in ('numpy', 'fractions', 'configparser'):
                assert name not in sys.modules, f'{name} imported by {argv[0]}'
            if sys.flags.no_site:
                for name in ('dataclasses', 'inspect', 'tempfile'):
                    assert name not in sys.modules, f'{name} imported by {argv[0]}'
        """
    )
    result = subprocess.run(
        [sys.executable, *flags, "-c", probe, config_path, str(tmp_path / "out.csv")],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr


class TestProcessExit:
    """The console entry ends its process with os._exit once the atexit hooks have run and
    stdout and stderr are flushed. Each case runs a fresh process with both streams on pipes
    and without PYTHONUNBUFFERED, under which every print is written at once and a lost
    flush would not show."""

    # The interpreter's own exit path, which main() leaves only for a flush that fails.
    INTERPRETER_EXIT = "import sys; from piezoscanner.cli import run; sys.exit(run())"

    @staticmethod
    def cli(*argv, prelude=None, stdout=subprocess.PIPE):
        """Run the CLI with argv, as `python -m piezoscanner.cli`, or after the prelude
        statements as `python -c`."""
        env = {key: value for key, value in os.environ.items() if key != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(piezoscanner.__file__))
        entry = ["-m", "piezoscanner.cli"] if prelude is None else ["-c", prelude]
        return subprocess.run([sys.executable, *entry, *argv], env=env, stdout=stdout,
                              stderr=subprocess.PIPE, text=True)

    def test_model_output_is_flushed(self, config_path, tmp_path):
        _, stdout, digest = README_OUTPUTS["model"]
        out = tmp_path / "model.csv"
        result = self.cli("model", "--config", config_path, "--out", str(out))
        assert (result.returncode, result.stdout, result.stderr) == (0, stdout, "")
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    @pytest.mark.parametrize("edits, code, prefix", [
        (CSV_UNIT_OVERFLOW, 2, "numeric: "),
        ({"beam_width_um = 30": "beam_width_um = -30"}, 1, "config: "),
    ], ids=["overflow", "bad-config"])
    def test_error_is_one_flushed_line(self, tmp_path, edits, code, prefix):
        text = SCANNER_A_CFG
        for old, new in edits.items():
            text = text.replace(old, new)
        cfg = tmp_path / "design.cfg"
        cfg.write_text(text)
        out = tmp_path / "model.csv"
        result = self.cli("model", "--config", str(cfg), "--out", str(out))
        assert (result.returncode, result.stdout) == (code, "")
        assert result.stderr.startswith(prefix) and result.stderr.endswith("\n")
        assert result.stderr.count("\n") == 1
        assert not out.exists()

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
    def test_stdout_on_full_device_exits_as_the_interpreter_does(self, config_path, tmp_path):
        """A flush that fails takes the interpreter's exit path: exit 120 and the same
        "Exception ignored" report, byte for byte."""
        argv = ["model", "--config", config_path, "--out", str(tmp_path / "model.csv")]
        with open("/dev/full", "w") as full:
            result = self.cli(*argv, stdout=full)
            expected = self.cli(*argv, prelude=self.INTERPRETER_EXIT, stdout=full)
        assert result.returncode == expected.returncode == 120
        assert result.stderr == expected.stderr
        assert result.stderr.startswith("Exception ignored in: <_io.TextIOWrapper name='<stdout>'")

    def test_atexit_hook_runs_and_is_flushed(self, config_path, tmp_path):
        _, stdout, _ = README_OUTPUTS["model"]
        prelude = ("import atexit; atexit.register(print, 'hook ran'); "
                   "from piezoscanner.cli import main; main()")
        result = self.cli("model", "--config", config_path, "--out", str(tmp_path / "model.csv"),
                          prelude=prelude)
        assert (result.returncode, result.stdout, result.stderr) == (0, stdout + "hook ran\n", "")

    def test_closed_stdout_exits_zero(self, config_path, tmp_path):
        """Python sets sys.stdout to None where fd 1 is closed at start-up; print then writes
        nothing and the command succeeds, as on the interpreter's exit path."""
        out = tmp_path / "model.csv"
        prelude = "import sys; sys.stdout = None; from piezoscanner.cli import main; main()"
        result = self.cli("model", "--config", config_path, "--out", str(out), prelude=prelude)
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "")
        assert out.exists()


class TestAtomicWrites:
    def test_no_partial_file_on_failure(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text(SCANNER_A_CFG.replace("beam_width_um = 30", "beam_width_um = -30"))
        out = tmp_path / "p.csv"
        code = run(["profile", "--config", str(bad), "--samples", "5", "--out", str(out)])
        assert code == 1
        assert not out.exists()
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]

    def test_failing_row_stream_leaves_nothing(self, tmp_path):
        out = tmp_path / "p.csv"
        out.write_bytes(b"earlier output\n")

        def rows():
            for i in range(3):
                yield f"{i},0\n"
            raise ValueError("row 3 fails")

        with pytest.raises(ValueError, match="row 3 fails"):
            _write_atomic(str(out), "x_um,y_um", rows())
        assert out.read_bytes() == b"earlier output\n"
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
        out.unlink()
        with pytest.raises(ValueError):
            _write_atomic(str(out), "x_um,y_um", rows())
        assert os.listdir(tmp_path) == []

    def test_stream_failing_past_first_chunk_leaves_target(self, tmp_path):
        """A stream that fails after 1,500 rows, with its first 1,024 rows written."""
        out = tmp_path / "p.csv"
        out.write_bytes(b"earlier output\n")

        def rows():
            for i in range(1500):
                yield f"{i},0\n"
            raise ValueError("row 1500 fails")

        def pieces():
            lines = rows()
            while piece := "".join(itertools.islice(lines, 1024)):
                yield piece

        with pytest.raises(ValueError, match="row 1500 fails"):
            _write_atomic(str(out), "x_um,y_um", pieces())
        assert out.read_bytes() == b"earlier output\n"
        assert os.listdir(tmp_path) == ["p.csv"]

    @pytest.mark.parametrize("target", ["missing-dir", "dir"])
    @pytest.mark.parametrize("argv", [
        ["model", "--config", "{config}"],
        ["profile", "--config", "{config}"],
        ["sweep", "--config", "{config}", "--axis", "voltage", "--from=0", "--to=50",
         "--steps", "3"],
        ["table1"],
    ], ids=["model", "profile", "sweep", "table1"])
    def test_unwritable_out_names_the_path(self, config_path, tmp_path, capsys, argv, target):
        """An --out in a missing directory, or that is a directory, exits 1 with one line
        that names --out, not the temp file, before anything is printed."""
        out = tmp_path / "missing" / "out.csv" if target == "missing-dir" else tmp_path / "out"
        if target == "dir":
            out.mkdir()
        assert run([arg.format(config=config_path) for arg in argv] + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"config: cannot write {out}: ")
        assert ".tmp-" not in captured.err and captured.err.count("\n") == 1
        assert not [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")]
        assert target == "missing-dir" or os.listdir(out) == []

    @pytest.mark.parametrize("umask, mode",[(0o022, 0o644), (0o077, 0o600)])
    def test_mode_follows_umask(self, config_path, tmp_path, umask, mode):
        """The CSV gets the mode a plain open() would give it, not mkstemp's 0o600."""
        out = tmp_path / "m.csv"
        old = os.umask(umask)
        try:
            assert run(["model", "--config", config_path, "--out", str(out)]) == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(out.stat().st_mode) == mode


class TestForkedWrites:
    """On two or more CPUs, profile and sweep fork one child for the pieces at odd places.
    Each case runs with the one CPU and the two CPUs that a patched os.sched_getaffinity, the
    CLI's CPU source, reports, and must give the same exit code, stdout, stderr and CSV
    bytes, leave no temp file and leave no child process behind."""

    @pytest.fixture(autouse=True)
    def deadline(self):
        """A run that hangs, as on a pipe that no process reads, fails after 60 s instead."""
        def expire(signum, frame):
            raise TimeoutError("the run took over 60 s")

        previous = signal.signal(signal.SIGALRM, expire)
        signal.alarm(60)
        yield
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)

    @staticmethod
    def forks(monkeypatch, cpus):
        """Make the CLI see cpus CPUs; return the list that each forked pid is appended to."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        forked, fork = [], os.fork

        def counted_fork():
            pid = fork()
            if pid:
                forked.append(pid)
            return pid

        monkeypatch.setattr(os, "fork", counted_fork)
        return forked

    @staticmethod
    def statuses(monkeypatch):
        """Return the list that the status of each process the CLI reaps is appended to."""
        reaped, waitpid = [], os.waitpid

        def recorded_waitpid(pid, options):
            result = waitpid(pid, options)
            reaped.append(result[1])
            return result

        monkeypatch.setattr(os, "waitpid", recorded_waitpid)
        return reaped

    @staticmethod
    def outcome(capfd, tmp_path, argv):
        """(exit code, stdout, stderr, CSV bytes or None) of one run, in a directory that
        must hold nothing else afterwards, and with no child process left."""
        directory = tmp_path / "out"
        directory.mkdir(exist_ok=True)
        out = directory / "out.csv"
        code = run([*argv, "--out", str(out)])
        captured = capfd.readouterr()
        data = out.read_bytes() if out.exists() else None
        if data is not None:
            out.unlink()
        assert os.listdir(directory) == []
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        return code, captured.out, captured.err, data

    @staticmethod
    def argv(tmp_path, argv, edits=None):
        """argv with {config} as a Scanner A config with the given edits."""
        text = SCANNER_A_CFG
        for old, new in (edits or {}).items():
            text = text.replace(old, new)
        cfg = tmp_path / "design.cfg"
        cfg.write_text(text)
        return [arg.format(config=cfg) for arg in argv]

    PROFILE = ["profile", "--config", "{config}", "--samples"]
    VOLTAGE_SWEEP = ["sweep", "--config", "{config}", "--axis", "voltage", "--from=0", "--to=50",
                     "--steps"]
    # argv, config edits, exit code, SHA-256 of the CSV (None: not pinned), forks on two CPUs.
    CASES = {
        # The CI pins: the benchmark's profile size and the 200,000-point voltage sweep.
        "profile-200001": (PROFILE + ["200001"], None, 0,
                           "b13feb5d1362caf50fb1d6910a1e643bc1affdd64058edb61f26b33a583169a9", 1),
        "sweep-200000": (VOLTAGE_SWEEP + ["200000"], None, 0,
                         "a48b2eb408a9f62d714ebd5d849a019f5d4d51c49563e2fb9d52bae4bb30744d", 1),
        # The child's one piece is the right anchor alone, or the last row and the anchor.
        "profile-1025": (PROFILE + ["1025"], None, 0, None, 1),
        "profile-2049": (PROFILE + ["2049"], None, 0, None, 1),
        # One piece: nothing to share.
        "profile-401": (PROFILE + ["401"], None, 0,
                        "ba6d82e49119ecef35f0f3bd509ba40fde8c6dcc714081a6ae837cf0754ede18", 0),
        # Rows 1596-2047 overflow in CSV units: every error: row is in the child's piece.
        "sweep-errors-in-child-piece": (
            ["sweep", "--config", "{config}", "--axis", "voltage", "--from=1", "--to=2.4e221",
             "--steps", "2048"], CSV_UNIT_OVERFLOW, 2, None, 1),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_forked_run_matches_one_process(self, monkeypatch, capfd, tmp_path, case):
        argv, edits, code, digest, forks = self.CASES[case]
        argv = self.argv(tmp_path, argv, edits)
        forked = self.forks(monkeypatch, 1)
        expected = self.outcome(capfd, tmp_path, argv)
        assert forked == []
        forked = self.forks(monkeypatch, 2)
        assert self.outcome(capfd, tmp_path, argv) == expected
        assert len(forked) == forks
        assert expected[0] == code
        assert digest is None or hashlib.sha256(expected[3]).hexdigest() == digest
        if case == "sweep-errors-in-child-piece":
            statuses = [line.rsplit(",", 1)[1] for line in expected[3].decode().splitlines()[1:]]
            assert set(statuses[:1024]) == {"ok"} and "ok" not in statuses[1596:]
            assert expected[1:3] == (
                "", "numeric: some sweep points failed; see the status column\n")

    def test_failing_child_piece(self, monkeypatch, capfd, tmp_path):
        """FINITENESS_LOAD at the smallest force that fails has its first non-finite ordinate in
        the second piece, the child's: the parent computes that piece itself and raises the
        reference's exact error, and nothing is written."""
        samples, a, span, rigidity = FINITENESS_LOAD
        force = finiteness_forces()[1]
        _, text = profile_outcome(reference_profile_points, samples, force, a, span, rigidity)
        solution = (force, rigidity, a, span, 0.0, 0.0, 0.0, a)  # y_max 0 passes the CSV check
        monkeypatch.setattr(scanner, "solve_scanner", lambda *config: solution)
        argv = self.argv(tmp_path, self.PROFILE + [str(samples)])
        self.forks(monkeypatch, 1)
        expected = self.outcome(capfd, tmp_path, argv)
        assert expected == (2, "", f"numeric: {text}\n", None)
        forked = self.forks(monkeypatch, 2)
        assert self.outcome(capfd, tmp_path, argv) == expected
        assert len(forked) == 1

    @pytest.mark.parametrize("failing", [0, 3], ids=["header", "mid-file"])
    def test_write_error(self, monkeypatch, capfd, tmp_path, failing):
        """A CSV write that fails in the parent, on the header before any piece is read or
        after three pieces, exits 1 naming --out, removes the temp file and reaps the child."""
        fdopen = os.fdopen

        def failing_fdopen(fd, mode="r", *args, **kwargs):
            handle = fdopen(fd, mode, *args, **kwargs)
            if mode == "w":  # the CSV; the pipe's ends are binary
                write, writes = handle.write, itertools.count()

                def failing_write(text):
                    if next(writes) == failing:
                        raise OSError(28, "No space left on device")
                    return write(text)

                handle.write = failing_write
            return handle

        monkeypatch.setattr(os, "fdopen", failing_fdopen)
        forked = self.forks(monkeypatch, 2)
        out = tmp_path / "out" / "out.csv"
        assert self.outcome(capfd, tmp_path, self.argv(tmp_path, self.PROFILE + ["200001"])) == (
            1, "", f"config: cannot write {out}: No space left on device\n", None)
        assert len(forked) == 1

    def test_killed_child(self, monkeypatch, capfd, tmp_path):
        """A child killed with SIGKILL after it sent its first piece: the parent computes the
        pieces it did not send, so the run exits 0 with the one-process bytes."""
        parent, profile_rows = os.getpid(), scanner.profile_rows

        def killing_profile_rows(*args):
            if os.getpid() != parent and args[5] == 3 * PIECE_ROWS:  # lo
                os.kill(os.getpid(), signal.SIGKILL)
            return profile_rows(*args)

        argv = self.argv(tmp_path, self.PROFILE + ["200001"])
        self.forks(monkeypatch, 1)
        expected = self.outcome(capfd, tmp_path, argv)
        monkeypatch.setattr(scanner, "profile_rows", killing_profile_rows)
        self.forks(monkeypatch, 2)
        reaped = self.statuses(monkeypatch)
        assert self.outcome(capfd, tmp_path, argv) == expected
        assert [os.WIFSIGNALED(status) and os.WTERMSIG(status) for status in reaped] == [
            signal.SIGKILL]

    def test_child_without_reader_exits_quietly(self, monkeypatch, capfd, tmp_path):
        """The parent fails at its own second piece while the child is pieces ahead: the
        child's next write finds no reader, and it exits 1 through os._exit, writing nothing
        to stderr."""
        parent, profile_rows = os.getpid(), scanner.profile_rows

        def failing_profile_rows(*args):
            if os.getpid() == parent and args[5] == 2 * PIECE_ROWS:  # lo
                raise ValueError("the parent fails at row 2048")
            return profile_rows(*args)

        monkeypatch.setattr(scanner, "profile_rows", failing_profile_rows)
        forked = self.forks(monkeypatch, 2)
        reaped = self.statuses(monkeypatch)
        assert self.outcome(capfd, tmp_path, self.argv(tmp_path, self.PROFILE + ["200001"])) == (
            2, "", "numeric: the parent fails at row 2048\n", None)
        assert len(forked) == 1
        assert [os.WIFEXITED(status) and os.WEXITSTATUS(status) for status in reaped] == [1]

    def test_one_row_commands_and_the_api_never_fork(self, monkeypatch, capfd, tmp_path):
        forked = self.forks(monkeypatch, 2)
        model = self.argv(tmp_path, ["model", "--config", "{config}"])
        assert self.outcome(capfd, tmp_path, model)[0] == 0
        assert self.outcome(capfd, tmp_path, ["table1"])[0] == 0
        assert run(["verify", "--nodes", str(MIN_NODES)]) == 0
        spec = SweepSpec(reference_config(), "voltage", 0.0, 50.0, 5000)
        assert len(run_sweep(spec)) == 5000
        optimize_1d(spec._replace(axis="beam_length", start=100e-6, stop=2000e-6), "tilt")
        assert forked == []
