import math

import numpy as np
import pytest

import zetacorr as z
from zetacorr.series import (
    certified_tail_bound,
    choose_truncation,
    integral_tail_bound,
    prime_tail_estimate,
    transform_truncation,
    upper_gamma_int,
)

CFG = z.SeriesConfig(tolerance=1e-6)
LOOSE = z.SeriesConfig(tolerance=1e-3)


class TestTailBounds:
    def test_upper_gamma_closed_form(self):
        # Gamma(1, z) = e^-z; Gamma(2, z) = e^-z (1 + z)
        assert upper_gamma_int(1, 2.0) == pytest.approx(math.exp(-2.0))
        assert upper_gamma_int(2, 3.0) == pytest.approx(math.exp(-3.0) * 4.0)

    def test_upper_gamma_vs_quadrature(self):
        # Gamma(k, z) = integral over [z, inf) of t^(k-1) e^-t
        for k, zz in [(3, 2.0), (4, 5.0), (5, 1.0)]:
            quad = z.adaptive_integrate(
                lambda t: t ** (k - 1) * np.exp(-t), zz, zz + 60.0, 1e-12
            )
            assert upper_gamma_int(k, zz) == pytest.approx(quad.value, rel=1e-10)

    @pytest.mark.parametrize("sigma", [2.0, 2.5, 3.0])
    @pytest.mark.parametrize("m", [3, 4])
    def test_bound_covers_measured_tail(self, sigma, m, mangoldt_small):
        # actual tail measured by extending the truncation tenfold
        n_cut = 5_000
        view = mangoldt_small.prime_powers
        mask = (view > n_cut) & (view <= 10 * n_cut)
        logs = mangoldt_small.base_log[mask]
        tail = math.fsum((logs**m * view[mask].astype(float) ** (-sigma)).tolist())
        assert integral_tail_bound(n_cut, sigma, m) >= tail
        assert certified_tail_bound(n_cut, sigma, m, mangoldt_small) >= tail

    def test_transform_truncation_covers_measured_tail(self, mangoldt_small):
        h = z.gaussian_triplet(20.0, 2.0)
        n_cut, bound = transform_truncation(h, 2.0, 4, 1e-6, 10**8)
        assert bound <= 1e-6
        keep = mangoldt_small.prime_powers > n_cut
        log_p = mangoldt_small.base_log[keep]
        log_n = mangoldt_small.power_index[keep] * log_p
        terms = log_p**4 * np.exp(-2.0 * log_n) * np.abs(h.hat(log_n / (2 * math.pi)))
        assert 2.0 * math.fsum(terms.tolist()) <= bound
        # smallest such N: one term fewer is not certified
        with pytest.raises(z.ResourceError):
            transform_truncation(h, 2.0, 4, 1e-6, n_cut - 1)

    def test_choose_truncation_is_certified(self, mangoldt_small):
        cfg = z.SeriesConfig(tolerance=1e-4)
        n_cut = choose_truncation(2.5, 3, mangoldt_small, cfg)
        assert certified_tail_bound(n_cut, 2.5, 3, mangoldt_small) <= cfg.tolerance

    def test_resource_error_names_needed_limit(self, mangoldt_small):
        with pytest.raises(z.ResourceError, match=r"limit of about \d+"):
            choose_truncation(2.0, 3, mangoldt_small, z.SeriesConfig(tolerance=1e-9))


class TestKernelSeries:
    def test_real_argument_real_value(self, mangoldt_medium):
        val = z.correlation_kernel(2.5, 3, mangoldt_medium, CFG)
        assert val.imag == 0.0
        assert val.real > 0.0

    def test_conjugate_symmetry_exact(self, mangoldt_medium):
        s = complex(2.5, 11.7)
        a = z.correlation_kernel(s, 3, mangoldt_medium, CFG)
        b = z.correlation_kernel(s.conjugate(), 3, mangoldt_medium, CFG)
        assert a == b.conjugate()

    def test_brute_force_partial_agreement(self, mangoldt_medium):
        # independent loop over n up to 10^4 with trial-division Lambda
        def lam(n):
            for p in range(2, n + 1):
                if n % p == 0:
                    while n % p == 0:
                        n //= p
                    return math.log(p) if n == 1 else 0.0
            return 0.0

        brute = math.fsum(lam(n) ** 3 / n**2.5 for n in range(2, 10_001))
        full = z.correlation_kernel(2.5, 3, mangoldt_medium, CFG).real
        remainder = full - brute
        # engine includes every brute term plus a positive certified tail
        assert remainder >= 0.0
        assert remainder <= integral_tail_bound(10_000, 2.5, 3)

    def test_domain_floor(self, mangoldt_small):
        with pytest.raises(z.DomainError):
            z.correlation_kernel(1.2, 3, mangoldt_small, CFG)

    def test_m_validation(self, mangoldt_small):
        with pytest.raises(ValueError):
            z.correlation_kernel(2.5, 1, mangoldt_small, CFG)

    def test_monotone_decrease_in_sigma(self, mangoldt_medium):
        k2 = abs(z.correlation_kernel(complex(2.0, 5.0), 3, mangoldt_medium, LOOSE))
        k0 = z.correlation_kernel(2.0, 3, mangoldt_medium, LOOSE).real
        assert k2 <= k0 + LOOSE.tolerance
        k3 = abs(z.correlation_kernel(complex(3.0, 5.0), 3, mangoldt_medium, LOOSE))
        assert k3 <= k0


class TestLogDerivativeSeries:
    def test_matches_zeta_log_derivative_at_2(self, mangoldt_large):
        # frozen high-precision reference for the series value at s = 2
        cfg = z.SeriesConfig(tolerance=1e-7)
        val = z.log_derivative_series(2.0, 1, mangoldt_large, cfg).real
        reference = 0.5699609930945328
        # truncation sits below the limit value by at most the tolerance
        assert reference - cfg.tolerance <= val <= reference + 1e-12

    def test_real_for_real_sigma(self, mangoldt_small):
        assert z.log_derivative_series(4.0, 3, mangoldt_small, CFG).imag == 0.0

    def test_dominated_by_first_term_at_large_sigma(self, mangoldt_small):
        sigma = 40.0
        val = z.log_derivative_series(sigma, 2, mangoldt_small, CFG).real
        first = math.log(2) ** 2 * 2.0**-sigma
        assert val == pytest.approx(first, rel=1e-5)


class TestProfile:
    def test_even_in_t(self, mangoldt_medium):
        tup = z.coefficient_tuple([1, 1, -2])
        left = z.kernel_profile(-17.3, tup, mangoldt_medium, LOOSE)
        right = z.kernel_profile(17.3, tup, mangoldt_medium, LOOSE)
        assert left == right

    def test_positive_at_origin(self, mangoldt_medium):
        tup = z.coefficient_tuple([1, 1, -2])
        y0 = z.kernel_profile(0.0, tup, mangoldt_medium, LOOSE)
        k0 = z.correlation_kernel(2.0, 3, mangoldt_medium, LOOSE).real
        assert y0 == pytest.approx(2.0 * k0, rel=1e-14)
        assert y0 > 0.0

    def test_grid_matches_scalar(self, mangoldt_medium):
        tup = z.coefficient_tuple([1, 2, -3])
        ts = np.array([0.0, 3.7, 14.1, 25.0])
        grid = z.kernel_profile_grid(ts, tup, mangoldt_medium, LOOSE)
        for t, y in zip(ts, grid):
            assert y == pytest.approx(
                z.kernel_profile(float(t), tup, mangoldt_medium, LOOSE), rel=1e-12
            )


class TestKernelExpansion:
    def test_identity_residual_moderate(self, mangoldt_medium, mobius_table):
        res = z.kernel_expansion_residual(
            2.5, 3, 40, mangoldt_medium, mobius_table, z.SeriesConfig(tolerance=1e-4)
        )
        assert res <= 1e-4

    def test_identity_residual_fourth_power(self, mangoldt_medium, mobius_table):
        res = z.kernel_expansion_residual(
            3.0, 4, 40, mangoldt_medium, mobius_table, z.SeriesConfig(tolerance=1e-8)
        )
        assert res <= 1e-8

    def test_single_term_is_worse(self, mangoldt_medium, mobius_table):
        cfg = z.SeriesConfig(tolerance=1e-5)
        coarse = abs(
            z.correlation_kernel(2.5, 3, mangoldt_medium, cfg)
            - z.log_derivative_series(2.5, 3, mangoldt_medium, cfg)
        )
        fine = z.kernel_expansion_residual(
            2.5, 3, 40, mangoldt_medium, mobius_table, cfg
        )
        assert coarse > fine

    def test_domain_floor(self, mangoldt_small, mobius_table):
        with pytest.raises(z.DomainError):
            z.kernel_expansion_residual(1.8, 3, 10, mangoldt_small, mobius_table, CFG)


class TestPrimeTailEstimate:
    def test_tracks_measured_tail(self, mangoldt_medium):
        # estimate should sit within a few percent of the measured tail
        n_cut, sigma, m = 50_000, 2.0, 3
        view = mangoldt_medium.prime_powers
        mask = view > n_cut
        logs = mangoldt_medium.base_log[mask]
        ks = mangoldt_medium.power_index[mask]
        true_tail = math.fsum(
            (logs**m * np.exp(-sigma * ks * logs)).tolist()
        )
        est = prime_tail_estimate(n_cut, sigma, m)
        assert est == pytest.approx(true_tail, rel=0.05)
