import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zetacorr as z

FIRST_SIX = [14.134725, 21.022040, 25.010858, 30.424876, 32.935062, 37.586178]


class TestLoad:
    def test_basic_parse(self, tmp_path):
        path = tmp_path / "zeros.txt"
        path.write_text("# comment\n14.134725\n21.022040\n\n25.010858\n")
        table = z.load_zeros(path)
        assert len(table) == 3
        assert table.ordinates[0] == pytest.approx(14.134725)
        assert table.precision_digits == 6

    def test_empty_file_is_valid(self, tmp_path):
        # an empty table loads, but covers no T
        path = tmp_path / "empty.txt"
        path.write_text("# nothing\n")
        table = z.load_zeros(path)
        assert len(table) == 0
        with pytest.raises(z.DataError, match="is empty"):
            z.zeros_up_to(table, 50.0)

    def test_missing_file(self, tmp_path):
        with pytest.raises(z.DataError):
            z.load_zeros(tmp_path / "absent.txt")

    def test_garbage_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("14.1\nabc\n")
        with pytest.raises(z.DataError, match="line 2"):
            z.load_zeros(path)

    def test_decreasing_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("14.1\n13.9\n")
        with pytest.raises(z.DataError, match="line 2"):
            z.load_zeros(path)

    def test_nonpositive_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("0.0\n")
        with pytest.raises(z.DataError):
            z.load_zeros(path)

    @pytest.mark.parametrize("text", ["0.0", "-0.0", "-3.5"])
    def test_nonpositive_message(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(f"14.1\n{text}\n")
        with pytest.raises(z.DataError, match="line 2: ordinate must be positive"):
            z.load_zeros(path)

    @pytest.mark.parametrize("text", ["nan", "inf", "Infinity", "-inf", "-nan"])
    def test_non_finite_rejected(self, tmp_path, text):
        path = tmp_path / "bad.txt"
        path.write_text(f"14.1\n{text}\n")
        with pytest.raises(z.DataError, match="line 2: ordinate must be finite"):
            z.load_zeros(path)

    @pytest.mark.parametrize("text", ["2.1022e1", "1_00.5", "\u0661\u0664.\u0661"])
    def test_only_plain_decimals(self, tmp_path, text):
        # float() reads each, but the digit count would not
        path = tmp_path / "bad.txt"
        path.write_text(f"14.1\n{text}\n", encoding="utf-8")
        with pytest.raises(z.DataError, match=f"line 2: not a decimal: {text!r}"):
            z.load_zeros(path)

    def test_repeated_line_kept_with_warning(self, tmp_path):
        path = tmp_path / "multi.txt"
        path.write_text("14.1\n14.1\n15.0\n")
        with pytest.warns(UserWarning, match="multiplicity"):
            table = z.load_zeros(path)
        assert len(table) == 3

    def test_roundtrip_bit_exact(self, tmp_path):
        src = tmp_path / "src.txt"
        src.write_text("14.134725\n21.022040\n25.010858\n")
        table = z.load_zeros(src)
        out = tmp_path / "out.txt"
        z.write_zeros(table, out)
        again = z.load_zeros(out)
        assert np.array_equal(table.ordinates, again.ordinates)


    LINES = st.one_of(
        st.floats(0.01, 1e4).map(lambda x: f"{x:.6f}"),
        st.floats().map(repr),
        st.sampled_from(["", "# comment", "1e999", "-0.0", "1_000.5", "14.1 15.2"]),
        st.text(st.characters(exclude_categories=["Cs"]), max_size=12),
    )
    FILES = st.one_of(
        st.lists(LINES, max_size=10).map(lambda lines: "\n".join(lines).encode()),
        st.binary(max_size=40),
    )

    @settings(max_examples=100, deadline=None)
    @given(FILES)
    def test_fuzz_file(self, tmp_path_factory, data):
        path = tmp_path_factory.mktemp("fuzz") / "zeros.txt"
        path.write_bytes(data)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # repeated ordinates
                table = z.load_zeros(path)
        except ValueError:  # DataError, or bytes that are not UTF-8
            return
        g = table.ordinates
        assert np.all(np.isfinite(g)) and np.all(g > 0) and np.all(np.diff(g) >= 0)


class TestQueries:
    def test_first_six_of_bundled(self, zero_table):
        assert np.allclose(zero_table.ordinates[:6], FIRST_SIX, atol=5e-7)

    def test_threshold_boundaries(self, zero_table):
        assert z.zeros_up_to(zero_table, 14.0).size == 0
        got = z.zeros_up_to(zero_table, 15.0)
        assert got.size == 1 and got[0] == pytest.approx(14.134725, abs=1e-6)

    def test_count_at_100(self, zero_table):
        assert z.zeros_up_to(zero_table, 100.0).size == 29

    def test_rejects_nonpositive_threshold(self, zero_table):
        with pytest.raises(ValueError):
            z.zeros_up_to(zero_table, 0.0)

    def test_covers_t_up_to_the_last_ordinate(self, zero_table):
        top = zero_table.max_ordinate
        assert z.zeros_up_to(zero_table, top).size == len(zero_table)
        with pytest.raises(z.DataError, match=f"ends at {top!r}, so it does not cover T="):
            z.zeros_up_to(zero_table, np.nextafter(top, math.inf))

    @given(st.floats(min_value=1.0, max_value=1219.0), st.floats(min_value=0.0, max_value=200.0))
    def test_nested_thresholds(self, t1, gap):
        table = _module_table()
        low = z.zeros_up_to(table, t1)
        high = z.zeros_up_to(table, t1 + gap)
        assert low.size <= high.size
        assert np.array_equal(high[: low.size], low)

    def test_mean_gap_tracks_asymptotic(self, zero_table):
        for t_max in (200.0, 500.0, 1000.0):
            got = z.zeros_up_to(zero_table, t_max)
            mean_gap = float(np.diff(got).mean())
            # crude average of the local gap 2 pi / log(g / 2 pi)
            predicted = float(
                np.mean(2.0 * math.pi / np.log(got[1:] / (2.0 * math.pi)))
            )
            assert mean_gap == pytest.approx(predicted, rel=0.10)


_TABLE_CACHE = None


def _module_table():
    global _TABLE_CACHE
    if _TABLE_CACHE is None:
        _TABLE_CACHE = z.load_zeros(z.bundled_zeros_path())
    return _TABLE_CACHE


class TestCountingFormula:
    def test_known_points(self):
        assert z.riemann_von_mangoldt_count(100.0) == pytest.approx(29.0, abs=0.01)
        assert z.riemann_von_mangoldt_count(2 * math.pi * math.e) == pytest.approx(
            7.0 / 8.0, abs=1e-12
        )

    def test_within_two_of_true_count_at_1000(self, zero_table):
        count = z.zeros_up_to(zero_table, 1000.0).size
        assert count == 649
        assert abs(count - z.riemann_von_mangoldt_count(1000.0)) < 2.0

    def test_rejects_tiny_argument(self):
        with pytest.raises(ValueError):
            z.riemann_von_mangoldt_count(1.0)


class TestValidation:
    def test_bundled_table_all_pass(self, zero_table):
        report = z.validate_zero_table(zero_table)
        assert report.all_ok
        assert all(c["deviation"] < 3.0 for c in report.checkpoints)

    def test_json_schema(self, zero_table):
        report = z.validate_zero_table(zero_table)
        data = json.loads(report.to_json())
        assert set(data) == {"checkpoints"}
        for c in data["checkpoints"]:
            assert {"T", "count", "expected", "deviation", "flagged"} <= set(c)

    def test_broken_single_zero_table_flagged(self, tmp_path):
        path = tmp_path / "single.txt"
        path.write_text("14.134725\n")
        table = z.load_zeros(path)
        report = z.validate_zero_table(table)
        first = report.checkpoints[0]
        assert first["T"] == 100.0
        assert first["deviation"] == pytest.approx(28.0, abs=0.1)
        assert first["flagged"]
        # the later default checkpoints carry no new information
        assert [c["T"] for c in report.checkpoints] == [100.0, table.max_ordinate]

    def test_table_ending_on_a_checkpoint_lists_it_once(self, zero_table, tmp_path):
        path = tmp_path / "to_100.txt"
        kept = zero_table.ordinates[zero_table.ordinates < 100.0]
        path.write_text("".join(f"{g:.6f}\n" for g in kept) + "100.0\n")
        report = z.validate_zero_table(z.load_zeros(path))
        assert [c["T"] for c in report.checkpoints] == [100.0, 500.0]

    def test_truncated_table_flagged_at_covered_checkpoint(self, zero_table, tmp_path):
        path = tmp_path / "sparse.txt"
        # every third ordinate below 600: counts fall far below expectation
        kept = zero_table.ordinates[zero_table.ordinates <= 600.0][::3]
        path.write_text("\n".join(f"{g:.9f}" for g in kept) + "\n")
        table = z.load_zeros(path)
        report = z.validate_zero_table(table, checkpoints=(100.0, 500.0))
        assert not report.all_ok

    def test_empty_table_rejected(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("")
        with pytest.raises(ValueError):
            z.validate_zero_table(z.load_zeros(path))
