import math

import numpy as np
import pytest

import zetacorr as z
from zetacorr.quadrature import (
    adaptive_integrate,
    sinc_product,
    sinc_product_constant,
    weighted_profile_integral,
)

SERIES_TOL = 1e-3


QUADRATURES = {
    "adaptive_integrate": lambda h, table, tol: adaptive_integrate(np.exp, 0.0, 1.0, tol),
    "sinc_product_constant": lambda h, table, tol: sinc_product_constant(
        z.coefficient_tuple([1, 2, -3]), tol
    ),
    "weighted_profile_integral": lambda h, table, tol: weighted_profile_integral(
        h, z.coefficient_tuple([1, 1, -2]), table, SERIES_TOL, tol
    ),
}


@pytest.mark.parametrize("tol", [math.inf, math.nan])
@pytest.mark.parametrize("name", sorted(QUADRATURES))
def test_rejects_a_tolerance_not_finite_and_positive(name, tol, weight_default, mangoldt_small):
    # with tol = inf every panel passes its share of tol: one batch, no estimate worth the name
    with pytest.raises(ValueError, match="tol must be finite and positive"):
        QUADRATURES[name](weight_default, mangoldt_small, tol)


class TestAdaptiveIntegrate:
    def test_constant(self):
        res = adaptive_integrate(lambda x: np.ones_like(x), 0.0, 1.0, 1e-12)
        assert res.value == pytest.approx(1.0, abs=1e-14)

    def test_sine_half_period(self):
        res = adaptive_integrate(np.sin, 0.0, math.pi, 1e-10)
        assert res.value == pytest.approx(2.0, abs=1e-10)
        assert res.error_estimate <= 1e-10

    def test_polynomial_exact_to_machine(self):
        coeffs = np.array([3.0, -2.0, 0.5, 1.25, -0.75])

        def poly(x):
            return sum(c * x**k for k, c in enumerate(coeffs))

        res = adaptive_integrate(poly, -1.0, 2.0, 1e-9)
        exact = sum(
            c * (2.0 ** (k + 1) - (-1.0) ** (k + 1)) / (k + 1)
            for k, c in enumerate(coeffs)
        )
        assert res.value == pytest.approx(exact, abs=1e-13)

    def test_error_estimate_honest_on_oscillation(self):
        res = adaptive_integrate(lambda x: np.sin(40.0 * x), 0.0, 5.0, 1e-10)
        exact = (1.0 - math.cos(200.0)) / 40.0
        assert abs(res.value - exact) <= max(res.error_estimate, 1e-12)

    def test_budget_error_carries_best(self):
        with pytest.raises(z.BudgetError) as err:
            adaptive_integrate(
                lambda x: np.sin(1000.0 * x), 0.0, 50.0, 1e-14, max_evals=500
            )
        assert err.value.best is not None

    def test_rejects_bad_interval(self):
        with pytest.raises(ValueError):
            adaptive_integrate(np.sin, 1.0, 1.0, 1e-8)


class TestSincProduct:
    def test_value_at_origin_is_one(self):
        assert sinc_product((1, 1, 2), np.array([0.0]))[0] == 1.0

    def test_taylor_guard_continuous(self):
        eps = 1e-4
        near = sinc_product((1, 1, 2), np.array([eps * 0.999, eps * 1.001]))
        assert near[0] == pytest.approx(near[1], rel=1e-9)

    def test_plain_region(self):
        w = np.array([0.7])
        expect = (math.sin(0.7) / 0.7) ** 2 * (math.sin(1.4) / 1.4)
        assert sinc_product((1, 1, 2), w)[0] == pytest.approx(expect, rel=1e-15)


class TestSincProductConstant:
    def test_balanced_matches_exact(self):
        tup = z.coefficient_tuple([1, 1, -1, -1])
        res = sinc_product_constant(tup, tol=1e-9)
        assert abs(res.value - 2.0 / 3.0) <= res.error_estimate + res.tail_bound
        assert res.error_estimate + res.tail_bound <= 1e-9

    def test_asymmetric_tuple_vs_trapezoid_oracle(self):
        tup = z.coefficient_tuple([1, 1, -2])
        res = sinc_product_constant(tup, tol=1e-8)
        # independent high-resolution trapezoid on [0, W] plus tail bound
        width = 4000.0
        w = np.linspace(0.0, width, 4_000_001)
        vals = sinc_product((1, 1, 2), w)
        step = w[1] - w[0]
        oracle = (2.0 / math.pi) * float(
            (vals[0] / 2 + vals[-1] / 2 + vals[1:-1].sum()) * step
        )
        tail = (2.0 / math.pi) / (2.0 * 2.0 * width**2)
        assert abs(res.value - oracle) <= 1e-6 + tail + res.error_estimate + res.tail_bound

    def test_permutation_and_negation_invariance_bitwise(self):
        base = sinc_product_constant(z.coefficient_tuple([1, 1, -2]), tol=1e-8)
        perm = sinc_product_constant(z.coefficient_tuple([-2, 1, 1]), tol=1e-8)
        flip = sinc_product_constant(z.coefficient_tuple([2, -1, -1]), tol=1e-8)
        assert base.value == perm.value == flip.value

    def test_rejects_short_tuples(self):
        with pytest.raises(z.DomainError):
            sinc_product_constant(
                z.tuples.CoefficientTuple(entries=(1, -1)), tol=1e-6
            )

    def test_wider_window_moves_less_than_tail(self):
        tup = z.coefficient_tuple([1, 2, -3])
        loose = sinc_product_constant(tup, tol=1e-6)
        tight = sinc_product_constant(tup, tol=1e-10)
        assert abs(loose.value - tight.value) <= loose.error_estimate + loose.tail_bound


class TestWeightedProfileIntegral:
    def test_matches_fine_grid_oracle(self, mangoldt_medium, weight_default):
        # same series truncation on both sides; the quadrature differs
        tup = z.coefficient_tuple([1, 1, -2])
        res = weighted_profile_integral(
            weight_default, tup, mangoldt_medium, 1e-2, tol=1e-7
        )
        from zetacorr.series import kernel_profile_evaluator

        span = 34.0
        profile = kernel_profile_evaluator(tup, mangoldt_medium, 1e-2, span)
        ts = np.linspace(0.0, span, 68_001)
        vals = weight_default.value(ts) * profile(ts)
        weights = np.full(ts.size, 2.0)
        weights[1::2] = 4.0
        weights[0] = weights[-1] = 1.0
        oracle = 2.0 * float((vals * weights).sum() * (ts[1] - ts[0]) / 3.0)
        assert res.value == pytest.approx(oracle, abs=1e-5)

    def test_matches_spectral_side_formula(self, mangoldt_medium, weight_default):
        # the adaptive oracle agrees with 2 sum_n w_n hhat(log n / 2 pi)
        tup = z.coefficient_tuple([1, 1, -2])
        oracle = weighted_profile_integral(
            weight_default, tup, mangoldt_medium, 1e-2, tol=1e-6
        )
        value, _, tail, n_cut = z.closed_form_profile_integral(
            weight_default, tup, mangoldt_medium, tol=1e-6
        )
        from zetacorr.series import choose_truncation

        # the oracle integrates the profile truncated at n_series term by
        # term, i.e. the closed form at n_series; from n_cut on, the closed
        # form's tail bound covers the difference
        n_series = choose_truncation(2.0, 3, mangoldt_medium, 1e-2)
        assert n_series >= n_cut
        gap = abs(oracle.value - value)
        assert gap <= oracle.error_estimate + oracle.tail_bound + tail

    @pytest.mark.skipif(
        np.finfo(np.longdouble).eps > 2.0**-60, reason="long double is not extended"
    )
    @pytest.mark.parametrize("entries", [(1, 1, -2), (1, 1, -1, -1)])
    def test_closed_form_rounding_covers_long_double_sum(
        self, mangoldt_small, weight_default, entries
    ):
        tup = z.coefficient_tuple(list(entries))
        value, rounding, _, n_cut = z.closed_form_profile_integral(
            weight_default, tup, mangoldt_small, tol=1e-6
        )
        keep = mangoldt_small.prime_powers <= n_cut
        log_n = np.log(mangoldt_small.prime_powers[keep].astype(np.longdouble))
        log_p = log_n / mangoldt_small.power_index[keep]
        pi = np.arccos(np.longdouble(-1.0))
        xi = log_n / (2 * pi)
        c, s = np.longdouble(weight_default.center), np.longdouble(weight_default.width)
        hat = 2 * s * np.exp(-pi * s * s * xi * xi) * (np.cos(2 * pi * c * xi) - 1)
        reference = 2 * np.sum(log_p**tup.m * np.exp(-tup.positive_sum * log_n) * hat)
        assert 0.0 < rounding < 1e-12
        assert float(abs(value - reference)) <= rounding

    def test_closed_form_rounding_vacuous_at_huge_center(self, mangoldt_small):
        h = z.gaussian_triplet(1e300, 2.0)
        tup = z.coefficient_tuple([1, 1, -2])
        value, rounding, _, _ = z.closed_form_profile_integral(h, tup, mangoldt_small, tol=1e-6)
        assert rounding >= abs(value)

    def test_window_tail_accounted(self, mangoldt_medium, weight_default):
        tup = z.coefficient_tuple([1, 1, -2])
        res = weighted_profile_integral(
            weight_default, tup, mangoldt_medium, SERIES_TOL, tol=1e-6
        )
        assert res.tail_bound <= 1e-6 / 2
        assert res.value < 0.0  # the transform of this weight family is <= 0
