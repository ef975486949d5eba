import json
import math

import numpy as np
import pytest

import zetacorr as z
from zetacorr.dips import deep_minima, records_json
from zetacorr.series import kernel_profile_evaluator

from oracles import golden_minimize, kernel_pole_expansion

TOL = 1e-3
FIRST_SIX = [14.134725, 21.022040, 25.010858, 30.424876, 32.935062, 37.586178]
ASYM = z.coefficient_tuple([1, 1, -2])


@pytest.fixture(scope="module")
def asym_profile(mangoldt_medium):
    """The (1,1,-2) scan grid on [10, 40] at step 0.02, and the evaluator for its range."""
    ts, t_max = z.scan_grid(10.0, 40.0, 0.02, 0.5)
    return ts, kernel_profile_evaluator(ASYM, mangoldt_medium, TOL, t_max)


@pytest.fixture(scope="module")
def asym_records(asym_profile):
    return z.scan_minima(ASYM, *asym_profile)


class TestScan:
    def test_rejects_coarse_step(self):
        with pytest.raises(ValueError, match=r"step must be in \(0, 0.05\]"):
            z.scan_grid(10.0, 40.0, 0.2, 0.5)

    def test_empty_range(self, asym_profile):
        for t_hi in (15.0, 15.02):  # one or two points: none is interior
            ts, _ = z.scan_grid(15.0, t_hi, 0.02, 0.5)
            assert z.scan_minima(ASYM, ts, asym_profile[1]) == []

    def test_six_deep_minima_near_first_ordinates(self, asym_records):
        deep = deep_minima(asym_records)
        assert len(deep) == 6
        for rec, gamma in zip(deep, FIRST_SIX):
            assert abs(rec.t_min - gamma) < 0.5

    def test_local_minimum_certificate(self, asym_profile):
        step = 0.02
        ts, profile = asym_profile  # the evaluator the scan reads
        for rec in deep_minima(z.scan_minima(ASYM, ts, profile)):
            around = profile(np.array([rec.t_min - step, rec.t_min + step]))
            assert around[0] >= rec.y_min and around[1] >= rec.y_min

    def test_depths_near_prediction(self, asym_records):
        deep = deep_minima(asym_records)
        predicted = z.dip_depth_prediction(3, 2)
        deepest = min(rec.y_min for rec in deep)
        assert abs(deepest - predicted) <= 0.3 * abs(predicted)


class TestLockstepRefinement:
    @pytest.mark.parametrize("entries", [[1, 1, -1, -1], [1, 1, -2]])
    def test_equals_each_search_alone(self, mangoldt_medium, entries):
        tup = z.coefficient_tuple(entries)
        ts, t_max = z.scan_grid(10.0, 40.0, 0.02, 0.5)
        profile = kernel_profile_evaluator(tup, mangoldt_medium, TOL, t_max)
        records = z.scan_minima(tup, ts, profile)
        ys = profile(ts)
        scalar = lambda t: float(profile(np.array([t]))[0])
        alone = [
            golden_minimize(scalar, ts[i - 1], ts[i + 1])
            for i in range(1, ts.size - 1)
            if ys[i] < ys[i - 1] and ys[i] < ys[i + 1]
        ]
        assert len(alone) >= 6
        got = [(rec.t_min.hex(), rec.y_min.hex()) for rec in records]
        assert got == [(float(t).hex(), y.hex()) for t, y in alone]

    def test_batch_equals_points_one_at_a_time(self, mangoldt_medium):
        # the premise of lockstep: more points than a block, no progression
        profile = kernel_profile_evaluator(
            z.coefficient_tuple([1, 1, -1, -1]), mangoldt_medium, TOL, 40.02
        )
        ts = np.random.default_rng(1).uniform(10.0, 40.0, 600)
        alone = [profile(ts[i : i + 1])[0] for i in range(ts.size)]
        assert profile(ts).tobytes() == np.array(alone).tobytes()


class TestMatching:
    def test_match_fills_fields(self, asym_records, zero_table):
        matched = z.match_to_zeros(deep_minima(asym_records), zero_table, window=0.5)
        assert all(rec.matched_gamma is not None for rec in matched)
        assert all(rec.distance < 0.5 for rec in matched)

    def test_zero_window_matches_nothing(self, asym_records, zero_table):
        matched = z.match_to_zeros(asym_records, zero_table, window=0.0)
        assert all(rec.matched_gamma is None for rec in matched)

    def test_far_record_unmatched(self, zero_table):
        rec = z.DipRecord(t_min=18.0, y_min=-1.0, predicted_depth=-1.18)
        out = z.match_to_zeros([rec], zero_table, window=0.5)
        assert out[0].matched_gamma is None

    def test_near_record_distance(self, zero_table):
        rec = z.DipRecord(t_min=14.10, y_min=-1.0, predicted_depth=-1.18)
        out = z.match_to_zeros([rec], zero_table, window=0.5)
        assert out[0].matched_gamma == pytest.approx(14.134725, abs=1e-5)
        assert out[0].distance == pytest.approx(0.034725, abs=1e-4)

    def test_records_json(self, zero_table):
        rec = z.DipRecord(t_min=14.1, y_min=-1.2, predicted_depth=-1.18)
        data = json.loads(records_json([rec]))
        assert data[0]["t_min"] == 14.1


class TestPoleExpansion:
    def test_converges_to_series(self, mangoldt_medium, zero_table):
        kernel = z.correlation_kernel(2.5, 3, mangoldt_medium, 1e-7)
        errs = {
            order: abs(
                kernel_pole_expansion(2.5, 3, order, zero_table)
                - kernel
            )
            for order in (2, 5, 20)
        }
        assert errs[20] < errs[5] < errs[2]
        assert errs[20] < 1e-4

    def test_dominant_term_at_first_ordinate(self, zero_table):
        g1 = float(zero_table.ordinates[0])
        s = complex(2.0, g1)
        val = kernel_pole_expansion(s, 3, 20, zero_table)
        dominant = -math.factorial(2) / (2.0 - 0.5) ** 3
        # the nearest-pole term carries most of the value near an ordinate
        assert val.real == pytest.approx(dominant, rel=0.25)

    def test_rejects_first_power(self, zero_table):
        with pytest.raises(z.DomainError):
            kernel_pole_expansion(2.5, 1, 10, zero_table)

    def test_rejects_low_sigma(self, zero_table):
        with pytest.raises(z.DomainError):
            kernel_pole_expansion(1.5, 3, 10, zero_table)

    def test_rejects_empty_table(self, tmp_path):
        empty = tmp_path / "none.txt"
        empty.write_text("")
        table = z.load_zeros(empty)
        with pytest.raises(ValueError):
            kernel_pole_expansion(2.5, 3, 10, table)
