import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

import zetacorr as z
from zetacorr.combinatorics import sinc_product_digits
from zetacorr.quadrature import adaptive_integrate, sinc_product, sinc_product_constant

from identities import (
    alternating_multinomial_sum_scaled,
    cosh_product_identity,
    multinomial,
    signed_power_sum_scaled,
)
from oracles import sinc_power_integral, sinc_product_naive


class TestMultinomial:
    def test_hand_values(self):
        assert multinomial(4, [2, 2]) == 6
        assert multinomial(2, [2]) == 1
        assert multinomial(6, [2, 2, 2]) == 90
        assert multinomial(0, []) == 1

    def test_rejects_mismatched_parts(self):
        with pytest.raises(ValueError):
            multinomial(5, [2, 2])

    def test_matches_factorial_ratio(self):
        rng = random.Random(7)
        for _ in range(50):
            parts = [rng.randint(0, 4) for _ in range(rng.randint(1, 5))]
            top = sum(parts)
            expect = math.factorial(top)
            for p in parts:
                expect //= math.factorial(p)
            assert multinomial(top, parts) == expect


class TestCancellationSums:
    def test_two_point_exact_zero(self):
        # q=2, r=1 with equal entries cancels exactly
        assert alternating_multinomial_sum_scaled([1.0, 1.0], 1)[0] == 0.0

    def test_rejects_bad_order(self):
        with pytest.raises(ValueError):
            alternating_multinomial_sum_scaled([1.0, 2.0], 2)
        with pytest.raises(ValueError):
            signed_power_sum_scaled([1.0, 2.0], 0)

    @pytest.mark.parametrize("q,r", [(3, 2), (5, 3), (6, 5)])
    def test_multinomial_sum_residual(self, q, r):
        rng = random.Random(100 * q + r)
        for _ in range(25):
            xs = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(q)]
            residual, scale = alternating_multinomial_sum_scaled(xs, r)
            assert abs(residual) <= 1e-9 * max(scale, 1.0)

    @pytest.mark.parametrize("q,r", [(2, 1), (3, 1), (4, 3), (6, 4)])
    def test_signed_power_residual(self, q, r):
        rng = random.Random(17 * q + r)
        for _ in range(25):
            al = [complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(q)]
            residual, scale = signed_power_sum_scaled(al, r)
            assert abs(residual) <= 1e-9 * max(scale, 1.0)


class TestCoshExpansion:
    def test_zero_arguments(self):
        lhs, rhs = cosh_product_identity([0.0, 0.0])
        assert lhs == 4.0 and rhs == 4.0

    def test_hand_expansion(self):
        lhs, rhs = cosh_product_identity([1.0, 1.0])
        assert lhs == pytest.approx((2 * math.cosh(1)) ** 2, rel=1e-15)
        assert rhs == pytest.approx(2 * math.cosh(2) + 2 * math.cosh(0), rel=1e-15)
        assert lhs == pytest.approx(rhs, rel=1e-13)

    def test_overflow_guard(self):
        with pytest.raises(ValueError):
            cosh_product_identity([31.0, 0.0])

    @pytest.mark.parametrize("s", [2, 3, 5, 6])
    def test_random_agreement(self, s):
        rng = random.Random(s)
        for _ in range(50):
            a_vals = [rng.uniform(-3, 3) for _ in range(s)]
            lhs, rhs = cosh_product_identity(a_vals)
            assert abs(lhs - rhs) <= 1e-12 * abs(lhs)


class TestSincPowerIntegral:
    def test_first_values(self):
        assert z.sinc_product_exact((1, -1)) == Fraction(1)
        assert z.sinc_product_exact((1, 1, -1, -1)) == Fraction(2, 3)
        assert z.sinc_product_exact((1, 1, 1, -1, -1, -1)) == Fraction(11, 20)

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            z.sinc_product_exact(())

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_against_quadrature(self, n):
        exact = math.pi * float(z.sinc_product_exact((1,) * n + (-1,) * n))
        width = (1e9 / (2 * n - 1)) ** (1.0 / (2 * n - 1))
        inner = adaptive_integrate(
            lambda w: sinc_product((1,) * (2 * n), w), 0.0, width, 1e-10
        )
        tail = width ** (1 - 2 * n) / (2 * n - 1)
        assert abs(2 * inner.value - exact) <= 1e-8 + 2 * tail


class TestLeadingCoefficients:
    def test_exact_table(self):
        expected = {
            1: Fraction(1, 4),
            2: Fraction(1, 24),
            3: Fraction(11, 1280),
            4: Fraction(151, 80640),
            5: Fraction(15619, 37158912),
        }
        for r, val in expected.items():
            assert z.balanced_coefficient(r) == val

    def test_links_to_sinc_integral(self):
        # scaled coefficient is the sinc-power rational over 4^r, exactly
        for r in range(2, 6):
            assert z.balanced_coefficient(r) == sinc_power_integral(r) / Fraction(4) ** r
            assert z.balanced_sinc_constant(r) == sinc_power_integral(r)

    def test_balanced_constant_needs_r2(self):
        with pytest.raises(ValueError):
            z.balanced_sinc_constant(1)


class TestSincProductExact:
    @pytest.mark.parametrize(
        "entries, value",
        [
            ((1, 1, -2), Fraction(1, 2)),
            ((1, 2, -3), Fraction(1, 3)),
            ((1, 1, 1, -3), Fraction(1, 3)),
            ((1, 2, 2, -5), Fraction(1, 5)),
        ],
    )
    def test_against_quadrature_oracle(self, entries, value):
        exact = z.sinc_product_exact(entries)
        assert exact == value
        oracle = sinc_product_constant(z.coefficient_tuple(list(entries)), tol=1e-10)
        assert abs(float(exact) - oracle.value) <= (
            oracle.error_estimate + oracle.tail_bound
        )

    @pytest.mark.parametrize("r", [2, 3, 4])
    def test_balanced_matches_closed_form(self, r):
        assert z.sinc_product_exact((1,) * r + (-1,) * r) == sinc_power_integral(r)

    def test_sign_and_order_free(self):
        assert z.sinc_product_exact((1, 2, -3)) == z.sinc_product_exact((-3, 2, 1))
        assert z.sinc_product_exact((1, 2, -3)) == z.sinc_product_exact((-1, -2, 3))

    def test_rejects_short_or_zero(self):
        with pytest.raises(ValueError):
            z.sinc_product_exact((1,))
        with pytest.raises(ValueError):
            z.sinc_product_exact((1, 0, -1))

    @pytest.mark.parametrize(
        "entries",
        [(1, 1, -2), (1, 2, -3), (1, 1, 1, -3), (1, 2, 2, -5), (2, 3, 3, -1, -7)],
    )
    def test_sign_classes_match_sign_vectors(self, entries):
        assert z.sinc_product_exact(entries) == sinc_product_naive(entries)

    def test_long_balanced_tuple_by_classes(self):
        # up to 2^80 sign vectors in 81 classes, against Lagrange's sum
        for n in range(1, 41):
            assert z.sinc_product_exact((1,) * n + (-1,) * n) == sinc_power_integral(n)

    def test_digit_bound_covers_the_fraction(self):
        rng = random.Random(1)
        cases = [(1, 2), (1, -1), (3, 5, 7), (1000000, 1, -1000001)]
        cases += [(1,) * n + (-1,) * n for n in range(1, 41)]
        for m in range(2, 10):
            cases.append(tuple(rng.choice((-1, 1)) * rng.randint(1, 40) for _ in range(m)))
        for entries in cases:
            c = z.sinc_product_exact(entries)
            digits = max(len(str(abs(c.numerator))), len(str(c.denominator)))
            # and loose by at most 8.7 digits here; without the parity
            # argument, by 6.6 + 79 log10(2) for the balanced 80
            assert digits <= sinc_product_digits(entries) < digits + 10

    def test_class_budget(self):
        assert z.sinc_product_exact(tuple(range(1, 21))) > 0  # 2^20 classes
        with pytest.raises(z.BudgetError, match="2097152 sign classes"):
            z.sinc_product_exact(tuple(range(1, 22)))


class TestDipDepth:
    def test_reference_values(self):
        assert z.dip_depth_prediction(3, 2) == pytest.approx(-1.1851851851851851)
        assert z.dip_depth_prediction(4, 2) == pytest.approx(-2.3703703703703702)
        assert z.dip_depth_prediction(3, 3) == pytest.approx(-0.256)

    def test_rejects_small_m(self):
        with pytest.raises(ValueError):
            z.dip_depth_prediction(1, 2)


class TestFractionExactness:
    @given(
        st.integers(-10**6, 10**6),
        st.integers(1, 10**6),
        st.integers(-10**6, 10**6),
        st.integers(1, 10**6),
    )
    def test_add_subtract_roundtrip(self, a, b, c, d):
        x, y = Fraction(a, b), Fraction(c, d)
        assert (x + y) - y == x
        assert x.denominator > 0
