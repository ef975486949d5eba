import inspect
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import zetacorr as z
from zetacorr import cli, series
from zetacorr.cli import main
from zetacorr.config import KEYS, ExperimentConfig, parse_config_text
from zetacorr.correlation import build_report, leading_constant, main_term
from zetacorr.series import choose_truncation, sieve_limit


class TestConstantsCommand:
    def test_table_output(self, capsys):
        assert main(["constants", "--r-max", "5"]) == 0
        out = capsys.readouterr().out
        assert "1/4" in out and "15619/37158912" in out

    def test_tuple_constants(self, capsys):
        assert main(["constants", "--tuple", "1,1,-2"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[1] == "C  0.5  (exact 1/2)"
        d = leading_constant(z.coefficient_tuple([1, 1, -2]))[0]
        assert out[2] == f"D  {d:.17g}" and d < 0

    def test_tuple_constants_exact_at_wide_coefficients(self, capsys):
        assert main(["constants", "--tuple", "1000000,1,-1000001"]) == 0
        assert "(exact 1/1000001)" in capsys.readouterr().out

    def test_too_many_sign_classes_exit_4(self, capsys):
        # 21 distinct |a_k|: 2^21 sign classes
        primes = "1,2,3,5,7,11,13,17,19,23,29,31,37,41,43,47,53,59,61,67"
        assert main(["constants", "--tuple", primes + ",-569"]) == 4
        assert "sign classes" in capsys.readouterr().err

    def test_invalid_tuple_exit_2(self, capsys):
        assert main(["constants", "--tuple", "1,1,-1"]) == 2
        assert "sum" in capsys.readouterr().err

    @pytest.mark.parametrize("r_max", ["0", "-3"])
    def test_r_max_below_one_exit_2(self, capsys, r_max):
        assert main(["constants", "--r-max", r_max]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "--r-max must be at least 1" in err

    @staticmethod
    def _unreachable(*args):
        raise AssertionError("the constants were computed")

    def test_table_over_budget_exit_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "balanced_coefficient", self._unreachable)
        assert main(["constants", "--r-max", str(cli.MAX_TABLE_R + 1)]) == 4
        out, err = capsys.readouterr()
        assert out == "" and f"budget of {cli.MAX_TABLE_R}" in err

    def test_tuple_over_digit_budget_exit_4(self, capsys, monkeypatch):
        # refused before the table is printed or C computed
        monkeypatch.setattr(cli, "balanced_coefficient", self._unreachable)
        monkeypatch.setattr(cli, "leading_constant", self._unreachable)
        entries = ",".join(["1"] * 1000 + ["-1"] * 1000)
        assert main(["constants", "--r-max", "3", "--tuple", entries]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "more than 4300 digits" in err

    @pytest.fixture
    def int_digits(self):
        # Python's int-to-str limit, as -X int_max_str_digits sets it
        old = sys.get_int_max_str_digits()
        yield sys.set_int_max_str_digits
        sys.set_int_max_str_digits(old)

    def test_digit_budget_follows_a_lower_limit(self, capsys, monkeypatch, int_digits):
        # both print at the default limit of 4,300 digits
        int_digits(640)
        monkeypatch.setattr(cli, "balanced_coefficient", self._unreachable)
        monkeypatch.setattr(cli, "leading_constant", self._unreachable)
        assert main(["constants", "--r-max", "300"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "row 300 may have more than 640 digits" in err
        entries = ",".join(["1"] * 193 + ["-1"] * 193)
        assert main(["constants", "--tuple", entries]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "386 entries may have more than 640 digits" in err

    def test_no_digit_budget_without_a_limit(self, capsys, int_digits):
        int_digits(0)
        entries = ",".join(["1"] * 1000 + ["-1"] * 1000)
        assert main(["constants", "--tuple", entries]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "(2 pi)^2000 overflows" in err

    def test_leading_constant_overflow_exit_3(self, capsys):
        # (2 pi)^400 overflows float64
        entries = ",".join(["1"] * 200 + ["-1"] * 200)
        assert main(["constants", "--tuple", entries]) == 3
        out, err = capsys.readouterr()
        assert out == "" and "(2 pi)^400 overflows" in err


class TestKfunCommand:
    def test_csv_emission(self, tmp_path, capsys):
        out = tmp_path / "curves.csv"
        code = main(
            [
                "kfun",
                "--tuple",
                "1,1,-2",
                "--t-lo",
                "14.0",
                "--t-hi",
                "14.2",
                "--step",
                "0.1",
                "--tolerance",
                "1e-3",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "t,y_+1+1-2"
        assert len(lines) == 4

    def test_columns_and_header(self, capsys):
        # one column per tuple, named by its display form, in the order given
        argv = ["--t-lo", "10", "--t-hi", "11", "--step", "0.5", "--tolerance", "1e-3"]
        assert main(["kfun", "--tuple", "1,1,-2", "--tuple", "1,2,-3", *argv]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "t,y_+1+1-2,y_+1+2-3"
        assert len(lines) == 4

    def test_single_point_range(self, capsys):
        code = main(
            [
                "kfun", "--tuple", "1,1,-2",
                "--t-lo", "14.0", "--t-hi", "14.0",
                "--step", "0.1", "--tolerance", "1e-3",
            ]
        )
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == 2  # header plus one row

    def test_bad_step_exit_2(self, capsys):
        code = main(
            ["kfun", "--tuple", "1,1,-2", "--t-lo", "1", "--t-hi", "2", "--step", "0"]
        )
        assert code == 2

    @pytest.mark.parametrize("tolerance", ["inf", "nan", "0", "-1"])
    def test_bad_tolerance_exit_2(self, capsys, monkeypatch, tolerance):
        def unreachable(*args):
            raise AssertionError("sieved")

        monkeypatch.setattr(cli, "sieve_mangoldt", unreachable)
        for command in ("kfun", "dips"):
            assert main([command, "--tuple", "1,1,-2", "--tolerance", tolerance]) == 2
            out, err = capsys.readouterr()
            assert out == "" and "tolerance must be finite and positive" in err

    def test_repeated_tuple_exit_2_before_the_sieve(self, capsys, monkeypatch):
        def unreachable(*args):
            raise AssertionError("sieved")

        monkeypatch.setattr(cli, "sieve_mangoldt", unreachable)
        assert main(["kfun", "--tuple", "1,1,-2", "--tuple", "1,2,-3", "--tuple", "1,1,-2"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "tuple (1,1,-2) given more than once" in err

    def test_sieve_fits_every_tuple(self):
        tuples = [z.coefficient_tuple(t) for t in ([1, 1, -2], [1, 1, -1, -1], [1, 2, -3])]
        table = cli._sieve_for(tuples, 1e-2)
        limits = [sieve_limit(float(t.positive_sum), t.m, 1e-2) for t in tuples]
        assert table.limit == max(limits)
        for tup in tuples:
            choose_truncation(float(tup.positive_sum), tup.m, table, 1e-2)

    def test_unreachable_tolerance_exit_4(self, capsys):
        code = main(
            [
                "kfun", "--tuple", "1,1,-2",
                "--t-lo", "14.0", "--t-hi", "14.1",
                "--step", "0.05", "--tolerance", "1e-12",
            ]
        )
        assert code == 4
        assert "limit" in capsys.readouterr().err


class TestHsumCommand:
    def test_pipeline_and_route_agreement(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "tuples = 1,1,-2\n"
            "T = 40\n"
            "h_center = 20\nh_width = 2\n"
            "series_tolerance = 1e-3\n"
            "quadrature_tolerance = 1e-5\n"
            f"output_dir = {tmp_path / 'out'}\n"
        )
        assert main(["hsum", "--config", str(cfg)]) == 0
        assert "vacuous" not in capsys.readouterr().err
        reports = list((tmp_path / "out").glob("report_*.json"))
        assert len(reports) == 1
        payload = json.loads(reports[0].read_text())
        assert {"h_direct", "h_spectral", "main_term"} <= set(payload)
        csv_text = (tmp_path / "out" / "reports.csv").read_text()
        assert csv_text.startswith("tuple,T,")

    def test_repeat_runs_byte_identical(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            cfg = tmp_path / f"exp_{out.name}.cfg"
            cfg.write_text(
                "tuples = 1,1,-2\nT = 40\n"
                "series_tolerance = 1e-3\nquadrature_tolerance = 1e-5\n"
                f"output_dir = {out}\n"
            )
            assert main(["hsum", "--config", str(cfg)]) == 0
        ja = (out_a / "report_+1+1-2_40.json").read_bytes()
        jb = (out_b / "report_+1+1-2_40.json").read_bytes()
        assert ja == jb
        assert (out_a / "reports.csv").read_bytes() == (out_b / "reports.csv").read_bytes()

    def test_t_values_alike_in_six_digits_get_their_own_reports(self, tmp_path):
        # 40 and 40.00001 print alike with :g's 6 digits: one report overwrote the other
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"tuples = 1,1,-2\nT = 40, 40.00001\noutput_dir = {out}\n")
        assert main(["hsum", "--config", str(cfg)]) == 0
        names = sorted(p.name for p in out.glob("report_*.json"))
        assert names == ["report_+1+1-2_40.00001.json", "report_+1+1-2_40.json"]
        assert [json.loads((out / n).read_text())["t_max"] for n in names] == [40.00001, 40.0]

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=5e-324, max_value=1.7e308))
    def test_report_names_read_back_and_keep_six_digit_names(self, t):
        name = cli._name(t)
        assert float(name) == t
        if float(f"{t:g}") == t:
            assert name == f"{t:g}"

    @pytest.mark.parametrize(
        "lines, repeated",
        [
            ("tuples = 1,1,-2; 1,2,-3; 1,1,-2\nT = 40", "tuple (1,1,-2)"),
            ("tuples = 1,1,-2\nT = 40, 50, 40.0", "T 40.0"),
        ],
    )
    def test_repeated_tuple_or_t_exit_2(self, tmp_path, capsys, lines, repeated):
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"{lines}\noutput_dir = {out}\n")
        assert main(["hsum", "--config", str(cfg)]) == 2
        assert f"{repeated} given more than once" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_zeros_exit_2(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "tuples = 1,1,-2\nT = 40\nzeros = /nonexistent/zeros.txt\n"
        )
        assert main(["hsum", "--config", str(cfg)]) == 2

    def test_invalid_tuple_in_config_exit_2(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("tuples = 1,1,-3\nT = 40\n")
        assert main(["hsum", "--config", str(cfg)]) == 2

    def test_t_past_the_table_exit_2_and_writes_nothing(self, tmp_path, capsys):
        # the bundled table ends at ordinate 1000, 1419.42; ordinate 1001,
        # 1420.42, lies below T = 1421 and would be missed
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"tuples = 1,1,-2\nT = 1421\noutput_dir = {out}\n")
        assert main(["hsum", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "does not cover T=1421.0" in captured.err
        assert not out.exists()

    def test_empty_table_exit_2(self, tmp_path, capsys):
        empty = tmp_path / "empty.txt"
        empty.write_text("# no ordinates\n")
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"tuples = 1,1,-2\nT = 300\nzeros = {empty}\noutput_dir = {tmp_path}\n")
        assert main(["hsum", "--config", str(cfg)]) == 2
        assert "is empty, so it does not cover T=300.0" in capsys.readouterr().err

    def test_zero_sum_below_first_zero_not_vacuous(self, tmp_path, capsys):
        # no ordinate below T: both routes give H = 0 with claims of 0
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"tuples = 1,1,-2\nT = 10\noutput_dir = {tmp_path}\n")
        assert main(["hsum", "--config", str(cfg)]) == 0
        assert "vacuous" not in capsys.readouterr().err

    @pytest.mark.parametrize("setting", ["h_center = 1e-300", "h_width = 1e300", "h_center = 2e-10"])
    def test_weight_cancelling_to_zero_exit_3(self, tmp_path, capsys, setting):
        # the three bumps cancel exactly at the origin, so h(0) = 0; at c = 2e-10
        # (s = 2) h elsewhere is rounding noise of 2.2e-16, on which the direct
        # route's certificate was vacuous (exit 1)
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"tuples = 1,1,-2\nT = 60\n{setting}\noutput_dir = {tmp_path}\n")
        assert main(["hsum", "--config", str(cfg)]) == 3
        assert "three bumps cancel" in capsys.readouterr().err

    def test_huge_center_finishes(self, tmp_path):
        # the main term once looped forever here: t_edge += width/4 stops
        # moving a float near 1e300; now it finishes and reports that no
        # digit of its cos(2 pi c xi) terms, hence of the main term, is
        # certain, and that the routes agree only through claims larger
        # than either value; numpy's overflow inside h stays silent
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"tuples = 1,1,-2\nT = 40\nh_center = 1e300\noutput_dir = {tmp_path}\n"
        )
        src = str(Path(z.__file__).resolve().parents[1])
        path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
        env = {**os.environ, "PYTHONPATH": path}
        done = subprocess.run(
            [sys.executable, "-m", "zetacorr.cli", "hsum", "--config", str(cfg)],
            env=env,
            capture_output=True,
            timeout=60,
        )
        assert done.returncode == 1, done.stderr
        lines = done.stderr.decode().splitlines()
        assert any(line.startswith("vacuous certificate") and "main term" in line for line in lines)
        assert any(line.startswith("vacuous certificate") and "H_direct" in line for line in lines)
        assert "RuntimeWarning" not in done.stderr.decode()

    @pytest.mark.parametrize("width", ["1e200", "1e150"])
    def test_non_finite_report_exit_3(self, tmp_path, capsys, width):
        # s = 1e200 makes hhat(0) nan (s * s = inf, times 0); s = 1e150 makes
        # the spectral and main-term rounding bounds infinite
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"tuples = 1,1,-2\nT = 60\nh_center = 1e200\nh_width = {width}\n"
            f"output_dir = {out}\n"
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["hsum", "--config", str(cfg)]) == 3
        err = capsys.readouterr().err
        assert any(line.startswith("domain error:") for line in err.splitlines())
        assert "not finite" in err
        for written in out.rglob("*.json"):
            json.loads(written.read_text(), parse_constant=pytest.fail)

    def test_huge_weight_leaves_no_output_dir(self, tmp_path, capsys):
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"tuples = 1,1,-2\nT = 60\nh_center = 1e200\nh_width = 1e200\noutput_dir = {out}\n"
        )
        assert main(["hsum", "--config", str(cfg)]) == 3
        assert not out.exists()

    def test_error_at_second_t_writes_nothing(self, tmp_path, capsys, monkeypatch):
        build = cli.build_report

        def failing_at_60(h, tup, t_max, *args, **kwargs):
            if t_max == 60.0:
                raise z.DomainError("refused at T=60")
            return build(h, tup, t_max, *args, **kwargs)

        monkeypatch.setattr(cli, "build_report", failing_at_60)
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"tuples = 1,1,-2\nT = 40, 60\noutput_dir = {out}\n")
        assert main(["hsum", "--config", str(cfg)]) == 3
        assert "refused at T=60" in capsys.readouterr().err
        assert not out.exists()

    def test_violation_still_writes_every_report(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(cli, "routes_agree", lambda report: report.t_max != 40.0)
        out = tmp_path / "out"
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"tuples = 1,1,-2\nT = 40, 60\noutput_dir = {out}\n")
        assert main(["hsum", "--config", str(cfg)]) == 1
        assert "route agreement violated" in capsys.readouterr().err
        names = {"report_+1+1-2_40.json", "report_+1+1-2_60.json", "reports.csv"}
        assert {path.name for path in out.iterdir()} == names
        assert len((out / "reports.csv").read_text().splitlines()) == 3


class TestDipsCommand:
    def test_json_output(self, capsys):
        code = main(
            [
                "dips", "--tuple", "1,1,-2",
                "--t-lo", "13.5", "--t-hi", "14.8",
                "--step", "0.02", "--tolerance", "1e-3", "--deep-only",
            ]
        )
        assert code == 0
        records = json.loads(capsys.readouterr().out)
        assert len(records) == 1
        assert records[0]["matched_gamma"] == pytest.approx(14.134725, abs=1e-4)

    @pytest.mark.parametrize("t_hi", ["15", "15.02"])
    def test_grid_below_three_points_prints_no_minimum(self, capsys, monkeypatch, t_hi):
        # no interior point, so no minimum; the grid is sieved and evaluated
        # as any other, so a tolerance fails here as on any grid
        limits = []
        sieve = cli.sieve_mangoldt
        monkeypatch.setattr(cli, "sieve_mangoldt", lambda n: limits.append(n) or sieve(n))
        argv = ["dips", "--tuple", "1,1,-2", "--t-lo", "15", "--t-hi", t_hi, "--tolerance", "0.1"]
        assert main(argv) == 0
        assert capsys.readouterr().out == "[]\n" and len(limits) == 1
        assert main([*argv[:-1], "1e-300"]) == 4
        assert "limit" in capsys.readouterr().err

    def test_window_past_the_table_exit_2_before_the_sieve(self, capsys, monkeypatch):
        # the bundled table ends at 1419.42: dips near 1420.42 would read unmatched
        def unreachable(*args):
            raise AssertionError("sieved")

        monkeypatch.setattr(cli, "sieve_mangoldt", unreachable)
        assert main(["dips", "--tuple", "1,1,-2", "--t-lo", "1400", "--t-hi", "1440"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "ends at 1419.42" in err

    @pytest.mark.parametrize(
        "option, value, message",
        [
            ("--tolerance", "inf", "tolerance must be finite"),
            ("--tolerance", "nan", "tolerance must be finite"),
            ("--window", "nan", "window must be finite"),
            ("--window", "inf", "window must be finite"),
            ("--window", "-1", "window must be finite"),
        ],
    )
    def test_bad_tolerance_or_window_exit_2(self, capsys, option, value, message):
        args = ["dips", "--tuple", "1,1,-2", "--t-lo", "13.5", "--t-hi", "14.8"]
        assert main(args + ["--tolerance", "0.1", "--deep-only", option, value]) == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["dips", "kfun"])
def test_sieve_table_freed_before_the_phase_sums(capsys, monkeypatch, command):
    # the table is a local of cli._profiles, which returns the evaluators
    tables, alive = [], []
    sieve, sums = cli.sieve_mangoldt, series.phase_sums

    def recorded_sieve(limit):
        table = sieve(limit)
        tables.append(weakref.ref(table))
        return table

    def recorded_sums(*args):
        alive.append(tables[0]() is not None)
        return sums(*args)

    monkeypatch.setattr(cli, "sieve_mangoldt", recorded_sieve)
    monkeypatch.setattr(series, "phase_sums", recorded_sums)
    assert main([command, "--tuple", "1,1,-1,-1", "--tolerance", "1e-2"]) == 0
    capsys.readouterr()
    assert len(tables) == 1 and alive == [False]


class TestGridRange:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["dips", "--tuple", "1,1,-2", "--window", "-1"], "window must be finite"),
            (["dips", "--tuple", "1,1,-2", "--step", "0"], "step must be in (0, 0.05]"),
            (["dips", "--tuple", "1,1,-2", "--t-lo", "nan"], "t_lo and t_hi must be finite"),
            (["kfun", "--tuple", "1,1,-2", "--step", "0"], "step must be positive"),
            (["kfun", "--tuple", "1,1,-2", "--step", "inf"], "step must be positive and finite, got inf"),
            # three points, but t_hi - t_lo overflows
            (["kfun", "--t-lo=-1e308", "--t-hi=1e308", "--step=1e308"], "overflows float64"),
        ],
    )
    def test_bad_grid_or_window_exit_2_before_the_sieve(self, capsys, monkeypatch, argv, message):
        def unreachable(*args):
            raise AssertionError("sieved")

        monkeypatch.setattr(cli, "sieve_mangoldt", unreachable)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and message in err

    @pytest.mark.parametrize(
        "command, t_hi, code",
        [
            ("dips", "1e7", 4),
            ("kfun", "1e300", 4),
            ("dips", "nan", 2),
            ("dips", "inf", 2),
            ("kfun", "nan", 2),
            ("kfun", "inf", 2),
        ],
    )
    def test_rejected_before_the_grid_exists(self, capsys, command, t_hi, code):
        # the rejected grids would take 4 GB (1e7 at step 0.02) or more
        tracemalloc.start()
        try:
            got = main([command, "--tuple", "1,1,-2", "--t-hi", t_hi, "--tolerance", "0.1"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == code
        assert ("budget error" if code == 4 else "finite") in capsys.readouterr().err
        assert peak < 32 * 2**20

    @pytest.mark.parametrize(
        "argv",
        [
            ["kfun", "--t-lo", "0", "--t-hi", "1e8", "--step", "1"],
            ["dips", "--tuple", "1,1,-2", "--t-hi", "1e7"],
        ],
        ids=["kfun", "dips"],
    )
    def test_over_budget_grid_exit_4_before_a_bad_tolerance(self, capsys, argv):
        # the grid is checked first; the tolerance, when the series is cut
        assert main([*argv, "--tolerance", "nan"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "exceeds 10000000 points" in err

    def test_overflowing_phase_exit_2(self, capsys):
        # t_max = 1.1e308 fits a double, but t_max log n does not: the
        # cosine of that phase printed nan
        argv = ["--t-lo=-1e308", "--t-hi=-1e308", "--step=1e307", "--tolerance", "0.1"]
        assert main(["kfun", "--tuple", "1,1,-2", *argv]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "overflow float64 at t_max = 1.1e+308" in err

    @pytest.mark.parametrize("command", ["kfun", "dips"])
    @pytest.mark.parametrize("t_lo, t_hi", [("1e17", "100000000000000010"), ("1e300", "1e300")])
    def test_step_below_float_spacing_exit_2(self, capsys, command, t_lo, t_hi):
        # at 1e17 every grid value rounds to t_lo; at 1e300 the grid is empty
        args = ["--t-lo", t_lo, "--t-hi", t_hi, "--step", "0.02", "--tolerance", "0.1"]
        assert main([command, "--tuple", "1,1,-2", *args]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "does not advance a float64 grid" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["dips", "--tuple=--"],
        ["kfun", "--tuple=1,1,-2", "--tuple=--"],
        ["kfun", "--step=--"],
        ["constants", "--r-max=--"],
    ],
)
def test_double_dash_value_exit_2(capsys, argv):
    # argparse hands --flag=-- on as [], without calling the flag's type
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: '--' is not a flag's value\n"


def _balanced(r: int) -> str:
    return ",".join(["1"] * r + ["-1"] * r)


class TestLongTuples:
    """Balanced tuples of 170, 172 and 400 entries finish without a traceback.

    Their (m-1)!, (S-1)^m or T^(m-1) overflow float64.
    """

    GRID = ["--t-lo", "13.5", "--t-hi", "14.8", "--tolerance", "0.1"]

    @pytest.mark.parametrize("r", [85, 86, 200])
    def test_kfun_and_dips_exit_0_with_finite_output(self, capsys, r):
        assert main(["kfun", "--tuple", _balanced(r), *self.GRID]) == 0
        values = [float(row.split(",")[1]) for row in capsys.readouterr().out.splitlines()[1:]]
        assert len(values) == 66 and all(math.isfinite(v) for v in values)
        assert main(["dips", "--tuple", _balanced(r), *self.GRID]) == 0
        records = json.loads(capsys.readouterr().out)
        depth = Fraction(2 ** (2 * r + 1) * math.factorial(2 * r - 1), (2 * r - 1) ** (2 * r))
        assert records and all(rec["predicted_depth"] == -float(depth) for rec in records)
        assert all(math.isfinite(rec["y_min"]) for rec in records)

    @pytest.mark.parametrize("r", [85, 86])
    def test_hsum_reports_are_finite(self, zero_table, weight_default, r):
        # built in process, as their report names, of over 340 bytes, are too
        # long for a file system; build_report refuses any value not finite
        tup = z.coefficient_tuple([1] * r + [-1] * r)
        table = z.sieve_mangoldt(1_000)
        report = build_report(weight_default, tup, 14.5, zero_table, table, tol=1e-6)
        assert report.diagnostics["main_term_terms"] == 8

    def test_hsum_exit_3_when_t_power_overflows(self, tmp_path, capsys):
        # 100 entries, whose report name (217 bytes) a file system takes
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(f"tuples = {_balanced(50)}\nT = 1400\noutput_dir = {tmp_path / 'out'}\n")
        assert main(["hsum", "--config", str(cfg)]) == 3
        assert "T^(m-1) = 1400^99 overflows float64" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_hsum_refuses_a_report_name_too_long_before_any_work(self, tmp_path, capsys):
        # 130 entries: report_<260 bytes>_14.5.json; the zero table named does
        # not exist, so the refusal comes before it is read
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            f"tuples = 1,1,-2; {_balanced(65)}\nT = 14.5\n"
            f"zeros = {tmp_path / 'missing.txt'}\noutput_dir = {tmp_path / 'out'}\n"
        )
        assert main(["hsum", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == f"error: the report name of tuple ({_balanced(65)}) has 277 bytes, above 255\n"
        assert not (tmp_path / "out").exists()


class TestValidateZerosCommand:
    def test_bundled_table_passes(self, capsys):
        assert main(["validate-zeros"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all(not c["flagged"] for c in data["checkpoints"])

    def test_corrupt_file_exit_2_with_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_text("14.1\nnot-a-number\n")
        assert main(["validate-zeros", str(bad)]) == 2
        assert "line 2" in capsys.readouterr().err


def test_identities_is_no_command_and_its_evaluators_no_exports(capsys):
    # the identity suite is a test (tests/identities.py), not a product feature
    with pytest.raises(SystemExit) as exc:
        main(["identities"])
    assert exc.value.code == 2
    assert "invalid choice: 'identities'" in capsys.readouterr().err
    assert {"multinomial", "cosh_product_identity"} & set(z.__all__) == set()


class TestConfigParsing:
    def test_full_parse(self):
        cfg = parse_config_text(
            "# experiment\n"
            "tuples = 1,1,-2; 1,1,-1,-1\n"
            "T = 100, 250\n"
            "h_center = 10\nh_width = 3\n"
            "series_tolerance = 1e-4\n"
        )
        assert [t.entries for t in cfg.tuples] == [(1, 1, -2), (1, 1, -1, -1)]
        assert cfg.t_list == [100.0, 250.0]
        assert cfg.h_center == 10.0 and cfg.h_width == 3.0

    def test_defaults_are_the_library_defaults(self):
        cfg = parse_config_text("tuples = 1,1,-2\nT = 40\n")
        assert (cfg.h_center, cfg.h_width, cfg.output_dir) == (20.0, 2.0, Path("."))
        tol = {inspect.signature(f).parameters["tol"].default for f in (main_term, build_report)}
        assert tol == {cfg.quadrature_tolerance} == {1e-6}

    def test_missing_tuples_rejected(self):
        with pytest.raises(z.DataError):
            parse_config_text("T = 100\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(z.DataError, match="line 1"):
            parse_config_text("tuples without equals sign\n")

    @pytest.mark.parametrize(
        "key", ["series_tolerance", "quadrature_tolerance", "h_center", "h_width", "T"]
    )
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_non_finite_or_non_positive_rejected(self, key, value):
        fields = {"tuples": "1,1,-2", "T": "40", key: value}
        text = "".join(f"{k} = {v}\n" for k, v in fields.items())
        with pytest.raises(z.DataError, match=key):
            parse_config_text(text)

    def test_unknown_key_rejected(self):
        with pytest.raises(z.DataError, match="h_widht"):
            parse_config_text("tuples = 1,1,-2\nT = 40\nh_widht = 2\n")

    @staticmethod
    def _config_or_data_error(text):
        try:
            cfg = parse_config_text(text)
        except z.DataError:
            return
        assert isinstance(cfg, ExperimentConfig)

    # every code point but surrogates, as st.text(), without its slow first build
    CHARS = st.characters(exclude_categories=["Cs"])

    @settings(max_examples=75, deadline=None)
    @given(st.text(CHARS))
    def test_fuzz_arbitrary_text(self, text):
        self._config_or_data_error(text)

    VALUES = st.one_of(
        st.text(CHARS, max_size=30),
        st.floats().map(repr),
        st.lists(st.integers(-4, 4), max_size=6).map(lambda xs: ",".join(map(str, xs))),
        st.sampled_from(["1,1,-2", "1,1,-1,-1; 1,2,-3", "40", "100, 1e3"]),
    )

    @settings(max_examples=75, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(sorted(KEYS)), VALUES), max_size=8))
    def test_fuzz_known_keys(self, pairs):
        # over a valid base, so that some inputs parse: a later line overrides
        lines = "".join(f"{k} = {v}\n" for k, v in pairs)
        self._config_or_data_error("tuples = 1,1,-2\nT = 40\n" + lines)

    def test_env_fallback(self, monkeypatch, tmp_path):
        fake = tmp_path / "alt.txt"
        fake.write_text("14.1\n")
        monkeypatch.setenv("ZETA_ZEROS_PATH", str(fake))
        cfg = parse_config_text("tuples = 1,1,-2\nT = 40\n")
        assert cfg.zeros_path == fake
