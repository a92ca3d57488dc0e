import dataclasses
import json
import math
import os
import re
import tracemalloc
import warnings

import numpy as np
import pytest

import blochcurve.cli as cli_mod
import blochcurve.fields as fields_mod
from blochcurve import (
    DEFAULT_TOLERANCES,
    ExtremaSummary,
    ScenarioParams,
    TimeGrid,
    extrema_summary,
    geodesic_efficiency,
    scenario_records,
)
from blochcurve._floattext import table_chunks
from blochcurve.cli import SERIES_COLUMNS, SWEEP_COLUMNS, main
from reference_render import reference_render

PI_TXT = "3.141592653589793"


def render(blocks, names, fmt):
    """The whole text that ``table_chunks`` streams for the row ``blocks``."""
    return "".join(table_chunks(blocks, names, fmt))


def run_simulate(tmp_path, *extra):
    out = tmp_path / "series.csv"
    code = main(["simulate", "--steps", "50", "--out", str(out), *extra])
    assert code == 0
    return out.read_text()


def first_difference(text, expected):
    """None if the texts are equal, else the first line where they differ,
    as (index, line, expected line): a failure message that a long table
    cannot make slow to build."""
    lines, wanted = text.split("\n"), expected.split("\n")
    if lines == wanted:
        return None
    k = next((k for k, pair in enumerate(zip(lines, wanted)) if pair[0] != pair[1]),
             min(len(lines), len(wanted)))
    return k, lines[k:k + 1], wanted[k:k + 1]


def parse_csv(text):
    lines = text.strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, (float(x) for x in line.split(","))))
            for line in lines[1:]]
    return header, rows


class TestSimulate:
    def test_header_and_row_count(self, tmp_path):
        text = run_simulate(tmp_path)
        lines = text.split("\n")
        assert lines[0] == ",".join(SERIES_COLUMNS)
        assert len(lines) == 53  # header + 51 rows + trailing newline
        assert lines[-1] == ""

    def test_deterministic_output(self, tmp_path):
        a = run_simulate(tmp_path)
        b = run_simulate(tmp_path)
        assert a == b

    def test_first_row_values(self, tmp_path):
        _, rows = parse_csv(run_simulate(tmp_path))
        first = rows[0]
        assert first["t"] == 0.0
        assert (first["ax"], first["ay"], first["az"]) == (0.0, 0.0, 1.0)
        assert (first["hx"], first["hy"], first["hz"]) == (0.0, 1.0, 0.0)
        assert first["v"] == 1.0
        assert first["kappa2_closed"] == 4.0
        assert first["arc_length"] == 0.0
        assert first["beta_phase"] == 0.0

    def test_floats_round_trip_at_17_digits(self, tmp_path):
        text = run_simulate(tmp_path)
        for line in text.strip().split("\n")[1:3]:
            for token in line.split(","):
                assert f"{float(token):.17g}" == token

    def test_stdout_by_default(self, capsys):
        assert main(["simulate", "--steps", "5"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(",".join(SERIES_COLUMNS))

    def test_respects_parameters(self, tmp_path):
        text = run_simulate(tmp_path, "--omega0", "2.0", "--t-max", "1.0")
        _, rows = parse_csv(text)
        assert rows[0]["v"] == 2.0
        assert rows[-1]["t"] == 1.0

    def test_geodesic_limit_columns(self, tmp_path):
        text = run_simulate(tmp_path, "--nu0", "0", "--t-max", PI_TXT)
        _, rows = parse_csv(text)
        for row in rows[::10]:
            assert row["kappa2_closed"] == 0.0
            assert abs(row["kappa2_expect"]) <= 1e-12
            assert row["ratio"] == 0.0
            assert row["eta_se"] == pytest.approx(1.0, abs=1e-12)
            assert row["beta_phase"] == 0.0
            assert row["arc_length"] == pytest.approx(row["t"], abs=1e-9)

    def test_json_format_matches_csv(self, tmp_path):
        csv_text = run_simulate(tmp_path)
        out = tmp_path / "series.json"
        assert main(["simulate", "--steps", "50", "--format", "json",
                     "--out", str(out)]) == 0
        records = json.loads(out.read_text())
        _, rows = parse_csv(csv_text)
        assert len(records) == len(rows) == 51
        assert list(records[0].keys()) == list(SERIES_COLUMNS)
        for rec, row in zip(records[::17], rows[::17]):
            for key in SERIES_COLUMNS:
                assert rec[key] == row[key]

    def test_weak_drive_is_not_singular(self, tmp_path):
        # |h| = 1e-13 far from an eigenstate used to exit 3 on the operator
        # route's absolute speed floor
        _, rows = parse_csv(run_simulate(tmp_path, "--omega0", "1e-13"))
        for row in rows:
            k2 = row["kappa2_closed"]
            assert abs(row["kappa2_expect"] - k2) <= 1e-15 * 4e26
            assert abs(row["kappa2_bloch"] - k2) <= 1e-15 * 4e26

    def test_route_columns_agree(self, tmp_path):
        _, rows = parse_csv(run_simulate(tmp_path, "--t-max", PI_TXT))
        for row in rows:
            assert abs(row["kappa2_bloch"] - row["kappa2_closed"]) <= 1e-13
            assert abs(row["kappa2_expect"] - row["kappa2_closed"]) <= 1e-13


class TestConfigFile:
    def test_file_values_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "omega0 = 2.0\n"
            "t_max = 1.0\n"
            "steps = 50\n"
        )
        out = tmp_path / "out.csv"
        code = main(["simulate", "--config", str(cfg), "--steps", "70",
                     "--out", str(out)])
        assert code == 0
        _, rows = parse_csv(out.read_text())
        assert len(rows) == 71          # flag beats file
        assert rows[0]["v"] == 2.0      # file beats default
        assert rows[-1]["t"] == 1.0

    def test_unknown_key_reports_location(self, tmp_path, capsys):
        # a key no subcommand reads, keys this subcommand does not read, and
        # a line that is not key=value
        cfg = tmp_path / "bad.cfg"
        for argv, text, message in (
            (["simulate"], "bogus = 1\n", "unknown key"),
            (["simulate"], "tol.fidelity = 1e-3\n", "unknown key"),
            (["validate"], "format = json\n", "unknown key"),
            (["sweep", "--nu0-list", "1"], "steps = 5\n", "unknown key"),
            (["simulate"], "steps 5\n", "expected key=value"),
        ):
            cfg.write_text(text)
            assert main([*argv, "--config", str(cfg)]) == 2, text
            err = capsys.readouterr().err
            assert message in err
            assert ":1" in err

    def test_bad_value_is_reported_like_a_bad_flag(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        for command, key, flag, value in (("simulate", "format", "--format", "xml"),
                                          ("validate", "omega0", "--omega0", "abc")):
            cfg.write_text(f"{key} = {value}\n")
            with pytest.raises(SystemExit) as from_file:
                main([command, "--config", str(cfg)])
            file_err = capsys.readouterr().err
            with pytest.raises(SystemExit) as from_flag:
                main([command, flag, value])
            flag_err = capsys.readouterr().err
            assert from_file.value.code == from_flag.value.code == 2
            assert f"argument {flag}" in file_err
            assert file_err.splitlines()[-1] == flag_err.splitlines()[-1]

    def test_value_starting_with_a_dash_stays_a_value(self, tmp_path, monkeypatch):
        # out = -dash.csv must reach --out as its value, not as an option
        monkeypatch.chdir(tmp_path)
        (tmp_path / "run.cfg").write_text("out = -dash.csv\nnu0 = -0.0\nsteps = 20\n")
        assert main(["simulate", "--config", "run.cfg"]) == 0
        assert main(["simulate", "--nu0=-0.0", "--steps", "20", "--out", "flags.csv"]) == 0
        assert (tmp_path / "-dash.csv").read_bytes() == (tmp_path / "flags.csv").read_bytes()

    def test_missing_file(self, tmp_path, capsys):
        assert main(["simulate", "--config", str(tmp_path / "absent.cfg")]) == 2

    def test_tolerance_from_file_overridden_by_flag(self, tmp_path, capsys):
        cfg = tmp_path / "tol.cfg"
        cfg.write_text("tol.bloch_supnorm = 1e-30\nsteps = 300\nt_max = %s\n" % PI_TXT)
        assert main(["validate", "--config", str(cfg)]) == 1
        capsys.readouterr()
        assert main(["validate", "--config", str(cfg),
                     "--tol", "bloch_supnorm=1e-6"]) == 0


class TestValidateCommand:
    def test_clean_run_reports_all_passes(self, capsys):
        code = main(["validate", "--steps", "300", "--t-max", PI_TXT])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS]" in out
        assert "[FAIL]" not in out
        assert "all" in out and "passed" in out

    def test_impossible_tolerance_fails(self, capsys):
        code = main(["validate", "--steps", "300", "--t-max", PI_TXT,
                     "--tol", "route_agreement=1e-30"])
        out = capsys.readouterr().out
        assert code == 1
        assert "[FAIL] route_agreement" in out

    def test_unknown_tolerance_name(self, capsys):
        assert main(["validate", "--tol", "bogus=1e-6"]) == 2
        assert "bogus" in capsys.readouterr().err

    @pytest.mark.parametrize("item", ["route_agreement", "route_agreement=", "=1e-6"])
    def test_tolerance_needs_name_and_value(self, capsys, item):
        assert main(["validate", "--tol", item]) == 2
        assert capsys.readouterr().err == f"error: --tol expects NAME=VALUE, got {item!r}\n"


class TestSweep:
    def test_rows_and_reference_values(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--nu0-list", "0,1,2", "--out", str(out)]) == 0
        header, rows = parse_csv(out.read_text())
        assert header == list(SWEEP_COLUMNS)
        assert [r["nu0"] for r in rows] == [0.0, 1.0, 2.0]
        assert [r["kappa2_max"] for r in rows] == [0.0, 4.0, 16.0]
        assert rows[0]["eta_ge"] == 1.0
        assert rows[1]["eta_ge"] == pytest.approx(0.9435391991406721, abs=1e-12)
        assert rows[2]["eta_ge"] == pytest.approx(0.82236387409390321, abs=1e-12)
        assert rows[1]["v_max"] == pytest.approx(math.sqrt(5.0) / 2.0, abs=1e-15)
        assert rows[2]["v_max"] == pytest.approx(math.sqrt(2.0), abs=1e-15)
        assert rows[2]["acc_max"] == pytest.approx(0.82842712474619007, abs=1e-12)

    def test_sweep_json(self, tmp_path):
        out = tmp_path / "sweep.json"
        assert main(["sweep", "--nu0-list", "1", "--format", "json",
                     "--out", str(out)]) == 0
        records = json.loads(out.read_text())
        assert len(records) == 1
        assert list(records[0].keys()) == list(SWEEP_COLUMNS)

    @pytest.mark.parametrize("loose, clean", [(" 0.5 , 1 ,", "0.5,1"), ("1,,2", "1,2")])
    def test_blank_pieces_are_skipped(self, tmp_path, loose, clean):
        out_loose, out_clean = tmp_path / "loose.csv", tmp_path / "clean.csv"
        assert main(["sweep", "--nu0-list", loose, "--out", str(out_loose)]) == 0
        assert main(["sweep", "--nu0-list", clean, "--out", str(out_clean)]) == 0
        assert out_loose.read_bytes() == out_clean.read_bytes()

    def test_rejects_malformed_list(self, capsys):
        assert main(["sweep", "--nu0-list", "1,abc"]) == 2
        assert "'abc'" in capsys.readouterr().err
        assert main(["sweep", "--nu0-list", ""]) == 2
        assert main(["sweep", "--nu0-list", ","]) == 2
        assert main(["sweep", "--nu0-list", "-1"]) == 2
        assert main(["sweep", "--nu0-list", "1,2,-3,4"]) == 2
        assert "nu0[2]" in capsys.readouterr().err

    def test_summary_columns_follow_the_dataclass(self):
        # cmd_sweep writes the summary fields in declaration order
        assert SWEEP_COLUMNS[2:-1] == tuple(f.name for f in dataclasses.fields(ExtremaSummary))

    def test_columns_match_one_value_at_a_time(self, tmp_path):
        nu0 = [0.0, 1e-3, 0.37, 1.0, 2.0, 45.0, 999.0]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--omega0", "0.8", "--nu0-list", ",".join(map(repr, nu0)),
                     "--out", str(out)]) == 0
        _, rows = parse_csv(out.read_text())
        for n, row in zip(nu0, rows):
            p = ScenarioParams(0.8, n)
            expected = (0.8, n, *dataclasses.astuple(extrema_summary(p)),
                        geodesic_efficiency(p))
            got = [row[c] for c in SWEEP_COLUMNS]
            assert got == pytest.approx(expected, rel=2e-15, abs=0.0)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("nu0_list", ["0,1e-3,0.37,45,999", "1"])
    def test_bytes_equal_the_broadcast_render(self, tmp_path, nu0_list, fmt):
        # the omega0-only columns reach table_chunks as 0-d values; the text is
        # the one of every column broadcast to a row each
        out = tmp_path / "sweep.txt"
        assert main(["sweep", "--omega0", "0.8", "--nu0-list", nu0_list,
                     "--format", fmt, "--out", str(out)]) == 0
        p = ScenarioParams(0.8, [float(x) for x in nu0_list.split(",")])
        columns = np.broadcast_arrays(p.omega0, p.nu0, *vars(extrema_summary(p)).values(),
                                      geodesic_efficiency(p))
        assert out.read_bytes().decode() == render([columns], SWEEP_COLUMNS, fmt)


    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--omega0", "1e-160", "--nu0", "1", "--steps", "4"], "nu0 = 1.0 "),
        (["sweep", "--omega0", "1e-10", "--nu0-list", "1e160"], "nu0[0] = 1e+160 "),
        (["sweep", "--omega0", "1e200", "--nu0-list", "1e200"], "nu0[0] = 1e+200 "),
        (["sweep", "--omega0", "5e-324", "--nu0-list", "0"], "omega0 = 5e-324 "),
        (["sweep", "--omega0", "1e-310", "--nu0-list", "1e-310"], "omega0 = 1e-310 "),
        # the field rate nu0*(2*omega0 + nu0/4), about |h_dot|, is 2e310
        (["sweep", "--omega0", "1e300", "--nu0-list", "1e10"], "nu0[0] = 10000000000.0 "),
        # 4*omega0 overflows, so pi/(4*omega0) and the period would read 0
        (["sweep", "--omega0", "5e307", "--nu0-list", "0"], "omega0 = 5e+307 "),
        (["sweep", "--omega0", "1e308", "--nu0-list", "0"], "omega0 = 1e+308 "),
        (["simulate", "--omega0", "5e307", "--nu0", "0", "--steps", "2", "--t-max", "1e-300"],
         "omega0 = 5e+307 "),
        # the field's phase 4*omega0*t overflows on the grid
        (["simulate", "--t-max", "1e308", "--steps", "3"], "t_max = 1e+308 "),
    ])
    def test_rejects_what_a_closed_form_would_overflow(self, tmp_path, capsys, argv, message):
        # one error line, exit 2, no warning and no output file
        out = tmp_path / "out.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err and err.count("\n") == 1
        assert not out.exists()

    def test_out_of_range_last_value_writes_nothing(self, tmp_path, monkeypatch, capsys):
        # every block is checked before --out is opened
        monkeypatch.setattr(cli_mod, "_SWEEP_ROWS", 7)
        out = tmp_path / "sweep.csv"
        nu0 = ",".join(["1"] * 20 + ["1e200"])
        assert main(["sweep", "--nu0-list", nu0, "--out", str(out)]) == 2
        assert "nu0[20] = 1e+200" in capsys.readouterr().err
        assert not out.exists()


class TestSweepStream:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("count", [1, 7, 8, 15])
    def test_blocks_join_into_the_whole_table(self, tmp_path, monkeypatch, fmt, count):
        # block seams after 7 and 14 rows; the whole-array columns through
        # the per-row reference renderer are the oracle
        monkeypatch.setattr(cli_mod, "_SWEEP_ROWS", 7)
        nu0 = np.geomspace(1e-3, 1e3, count).tolist()
        out = tmp_path / "sweep.txt"
        assert main(["sweep", "--omega0", "0.8", "--nu0-list", ",".join(map(repr, nu0)),
                     "--format", fmt, "--out", str(out)]) == 0
        p = ScenarioParams(0.8, nu0)
        columns = (p.omega0, p.nu0, *vars(extrema_summary(p)).values(), geodesic_efficiency(p))
        assert out.read_bytes().decode() == reference_render(columns, SWEEP_COLUMNS, fmt)

    @pytest.mark.parametrize("segment", [1, 2, 3, 5, 8])
    @pytest.mark.parametrize("text", [
        "0.5,1,2,4,8,16", " 0.5 , 1 ,", "1,,2", ",1,2,,", "1, ,2 ,\t3\n", "0.25,\n1e-3 ,  45,999,",
        "1,abc", "1,2,3,x,4", "1,2,,3,-4", "", ",", " , ,",
    ])
    def test_parse_segments_do_not_change_the_result(self, tmp_path, monkeypatch, capsys,
                                                      segment, text):
        # blank pieces, whitespace and bad values on either side of a seam
        def sweep(name):
            out = tmp_path / name
            code = main(["sweep", "--nu0-list", text, "--out", str(out)])
            return code, capsys.readouterr().err, out.read_bytes() if out.exists() else None

        whole = sweep("whole.csv")
        monkeypatch.setattr(cli_mod, "_PARSE_SEGMENT", segment)
        assert sweep("segmented.csv") == whole
        pieces = [p.strip() for p in text.split(",") if p.strip()]
        try:
            expected = [float(p) for p in pieces]
        except ValueError:
            expected = None
        if expected and min(expected) >= 0.0:
            assert whole[0] == 0
            assert cli_mod._parse_nu0_list(text).tolist() == expected
        else:
            assert whole[0] == 2 and whole[2] is None and whole[1].startswith("error: ")

    def test_peak_memory_does_not_grow_with_the_list(self, tmp_path):
        # the list is one float64 array; every other allocation is bounded
        # by the block and chunk sizes
        def peak(count):
            nu0 = 10.0 ** np.random.default_rng(count).uniform(-3.0, 3.0, size=count)
            argv = ["sweep", "--nu0-list", ",".join(map(repr, nu0.tolist())),
                    "--out", str(tmp_path / "sweep.csv")]
            tracemalloc.start()
            try:
                assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        large = peak(100_000)
        assert large <= 6 * 8 * 100_000
        assert large <= peak(20_000) + 2**20


    def test_blank_piece_keeps_the_parse_bounded(self):
        # a trailing comma sends only the last segment through the
        # piece-by-piece parse, not the whole text
        nu0 = 10.0 ** np.random.default_rng(5).uniform(-3.0, 3.0, size=100_000)
        text = ",".join(map(repr, nu0.tolist())) + ","
        tracemalloc.start()
        try:
            values = cli_mod._parse_nu0_list(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(values, nu0)
        assert peak <= 3 * values.nbytes


_BLOCK = cli_mod._SIMULATE_NODES


class TestSimulateStream:
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("nodes", [_BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_blocks_join_into_the_whole_table(self, tmp_path, fmt, nodes):
        # block seams at each multiple of the block size; the whole-grid
        # columns through the per-row reference renderer are the oracle
        out = tmp_path / "series.txt"
        assert main(["simulate", "--omega0", "0.7", "--nu0", "1.3", "--t-max", "3",
                     "--steps", str(nodes - 1), "--format", fmt, "--out", str(out)]) == 0
        columns = scenario_records(ScenarioParams(0.7, 1.3), TimeGrid(0.0, 3.0, nodes - 1))
        expected = reference_render(list(columns.values()), SERIES_COLUMNS, fmt)
        assert first_difference(out.read_bytes().decode(), expected) is None

    def test_samples_the_field_once_per_block(self, monkeypatch):
        # both curvature routes read the one sample of their block
        calls = []
        original = fields_mod.two_parameter_field

        def counted(params, t):
            calls.append(np.shape(t))
            return original(params, t)

        monkeypatch.setattr(fields_mod, "two_parameter_field", counted)
        assert main(["simulate", "--steps", str(2 * _BLOCK), "--out", os.devnull]) == 0
        assert calls == [(_BLOCK,), (_BLOCK,), (1,)]

    def test_peak_memory_does_not_grow_with_the_steps(self):
        # every allocation is bounded by the block and chunk sizes
        def peak(steps):
            tracemalloc.start()
            try:
                assert main(["simulate", "--steps", str(steps), "--out", os.devnull]) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        # the whole grid would hold about 0.35 kB per node, 35 MB here
        large = peak(100_000)
        assert large <= 8 * 2**20
        assert large <= peak(20_000) + 2**20

    @pytest.mark.parametrize("argv", [
        ["--omega0", "0"], ["--nu0", "1e200"], ["--t-max", "1e308"], ["--steps", "0"],
    ])
    def test_a_failing_run_leaves_no_file(self, tmp_path, capsys, argv):
        # every error comes before --out is opened, so none leaves a partial table
        out = tmp_path / "series.csv"
        assert main(["simulate", *argv, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestRender:
    def test_matches_per_value_formatting(self):
        # every value as f"{x:.17g}", signed zeros, non-finite values and
        # subnormals included
        values = [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, -2.5e-310,
                  1.0 / 3.0, -1e300, 123456789.0, 0.1, 2.0 ** 60]
        columns = [np.array(values), np.array(values[::-1])]
        names = ("a", "b")
        expected = "a,b\n" + "".join(
            f"{x:.17g},{y:.17g}\n" for x, y in zip(values, values[::-1]))
        assert render([columns], names, "csv") == expected
        objects = [f'{{"a": {x:.17g}, "b": {y:.17g}}}' for x, y in zip(values, values[::-1])]
        assert render([columns], names, "json") == "[\n  " + ",\n  ".join(objects) + "\n]\n"

    @pytest.mark.parametrize("value", [0.0, -0.0, math.nan, math.inf, -math.inf, 5e-324, 1.0 / 3.0])
    def test_scalar_column_renders_as_its_broadcast(self, value):
        varying = np.array([1.5, -2.0, 0.1])
        names = ("a", "s", "b")
        for scalar in (value, np.float64(value), np.array(value)):
            for fmt in ("csv", "json"):
                broadcast = np.broadcast_arrays(varying, scalar, varying[::-1])
                assert (render([[varying, scalar, varying[::-1]]], names, fmt)
                        == render([broadcast], names, fmt))

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_peak_memory_is_bounded_by_the_output(self, fmt):
        # one copy of the text plus the per-row strings, not a second copy
        columns = list(scenario_records(ScenarioParams(1.0, 1.0),
                                        TimeGrid(0.0, 2.0 * math.pi, 19999)).values())
        tracemalloc.start()
        try:
            text = render([columns], SERIES_COLUMNS, fmt)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * len(text)


class TestAgainstReferenceRender:
    # the per-row %-formatting renderer is the oracle for the streamed kernel
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("omega0, nu0, steps", [
        (1.0, 1.0, 6283), (1.0, 0.0, 6283), (1.0, 50.0, 6283), (1e-3, 1.0, 2000),
    ])
    def test_simulate(self, tmp_path, fmt, omega0, nu0, steps):
        out = tmp_path / "series.txt"
        assert main(["simulate", "--omega0", repr(omega0), "--nu0", repr(nu0),
                     "--steps", str(steps), "--format", fmt, "--out", str(out)]) == 0
        columns = scenario_records(ScenarioParams(omega0, nu0), TimeGrid(0.0, 2.0 * math.pi, steps))
        assert out.read_bytes().decode() == reference_render(list(columns.values()),
                                                             SERIES_COLUMNS, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_sweep(self, tmp_path, fmt):
        nu0 = [0.0, *np.geomspace(1e-3, 1e3, 3001).tolist()]
        out = tmp_path / "sweep.txt"
        assert main(["sweep", "--omega0", "0.8", "--nu0-list", ",".join(map(repr, nu0)),
                     "--format", fmt, "--out", str(out)]) == 0
        p = ScenarioParams(0.8, nu0)
        columns = (p.omega0, p.nu0, *vars(extrema_summary(p)).values(), geodesic_efficiency(p))
        assert out.read_bytes().decode() == reference_render(columns, SWEEP_COLUMNS, fmt)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("argv", [["simulate", "--steps", "3000"],
                                      ["sweep", "--nu0-list", "0,0.5,1,2,40"]])
    def test_stdout_equals_the_file(self, tmp_path, capsys, fmt, argv):
        out = tmp_path / "table.txt"
        assert main([*argv, "--format", fmt, "--out", str(out)]) == 0
        capsys.readouterr()
        assert main([*argv, "--format", fmt]) == 0
        assert capsys.readouterr().out == out.read_text()


_DECADES = ("1e-300", "1e-200", "1e-160", "1e-100", "1e-60", "1e-10", "1",
            "1e10", "1e60", "1e100", "1e155", "1e200", "1e300")


class TestDomain:
    def test_simulate_is_finite_or_rejected_across_the_decades(self, capsys):
        # every point exits 0 with finite columns or 2 with one error line;
        # no traceback, no warning, no exit 3
        codes = []
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for w in (*_DECADES, "5e307", "1.7e308"):
                for n in (*_DECADES, "0", "5e-324"):
                    code = main(["simulate", "--omega0", w, "--nu0", n, "--steps", "8"])
                    out, err = capsys.readouterr()
                    if code == 0:
                        _, rows = parse_csv(out)
                        assert all(math.isfinite(x) for r in rows for x in r.values()), (w, n)
                    else:
                        assert code == 2 and err.startswith("error: "), (w, n, code, err)
                        assert err.count("\n") == 1, (w, n, err)
                    codes.append(code)
        assert (codes.count(0), codes.count(2)) == (134, 91)

    def test_validate_far_below_the_geodesic_limit(self, capsys):
        # nu0/omega0 = 1e-160: the closed form once built (omega0/nu0)**2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--nu0", "1e-160", "--steps", "400"]) == 0
        assert "all 19 checks passed" in capsys.readouterr().out

    def test_validate_rejects_a_grid_whose_phase_overflows(self, capsys):
        # 4*omega0*t_max = 4e308: the field would be sampled at sin(inf)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--t-max", "1e308", "--steps", "3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("error: t_max = 1e+308 is out of range: "
                                "4*omega0*t_max and nu0*t_max must be finite\n")

    def test_validate_reports_every_check_name_at_a_huge_omega0(self, capsys):
        # at omega0 = 1e155 some checks raise; each still reads as its own
        # names, so the report lists all 19 in order whichever of them fail
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            main(["validate", "--omega0", "1e155", "--nu0", "1",
                  "--t-max", "6.283185307179586e-155", "--steps", "400"])
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines[:-1]] == list(DEFAULT_TOLERANCES)
        assert re.fullmatch(r"\d+ of 19 checks failed: .*", lines[-1])

    def test_validate_reports_an_overflowing_step_once(self, capsys):
        # the Magnus step's cross product overflows at omega0 = 1e155
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["validate", "--omega0", "1e155", "--nu0", "1", "--steps", "40"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == ("numerical failure: step error estimate is not finite at "
                                "t = 0.15707963267948966; reduce the step size\n")


class TestErrorPaths:
    def test_invalid_parameters(self, capsys):
        assert main(["simulate", "--omega0", "-1"]) == 2
        assert main(["simulate", "--steps", "0"]) == 2
        assert main(["simulate", "--t-max", "-2"]) == 2

    def test_unwritable_output(self, tmp_path, capsys):
        target = tmp_path / "no_such_dir" / "out.csv"
        assert main(["simulate", "--steps", "5", "--out", str(target)]) == 2

    def test_unknown_format_rejected_by_parser(self, capsys):
        # a bad choice, and any flag the subcommand does not read
        for argv in (
            ["simulate", "--format", "yaml"],
            ["simulate", "--tol", "bogus=1"],
            ["sweep", "--nu0-list", "1", "--steps", "5", "--t-max", "3", "--tol", "bogus=2"],
            ["validate", "--format", "json", "--out", "v.json"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2, argv
