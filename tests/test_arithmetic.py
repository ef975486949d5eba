import math

import numpy as np
import pytest

import zetacorr as z
from zetacorr.arithmetic import SIEVE_LIMIT_CAP, b_coefficients

from oracles import b_coefficient_naive, divisors, lambda_value, mobius

B_LIMIT = 10_000


def trial_factor_lambda(n: int) -> float:
    """Independent Lambda(n) by trial factorization."""
    if n < 2:
        return 0.0
    for p in range(2, n + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return math.log(p) if n == 1 else 0.0
    return 0.0


class TestMangoldtSieve:
    def test_rejects_zero_limit(self):
        with pytest.raises(ValueError):
            z.sieve_mangoldt(0)

    def test_prime_power_values(self, mangoldt_small):
        assert lambda_value(mangoldt_small, 8) == math.log(2)
        assert lambda_value(mangoldt_small, 7) == math.log(7)
        assert lambda_value(mangoldt_small, 12) == 0.0
        assert lambda_value(mangoldt_small, 1) == 0.0

    def test_matches_trial_factorization(self, mangoldt_small):
        for n in range(1, 10_001):
            assert lambda_value(mangoldt_small, n) == trial_factor_lambda(n), n

    def test_nonzero_iff_prime_power(self, mangoldt_small):
        for n in range(2, 10_001):
            is_pp = trial_factor_lambda(n) != 0.0
            assert (mangoldt_small.base_prime[n] != 0) == is_pp

    def test_chebyshev_identity(self, mangoldt_small):
        # sum of Lambda over divisors of n recovers log n
        for n in range(2, 1001):
            acc = math.fsum(
                lambda_value(mangoldt_small, d) for d in divisors(n)
            )
            assert acc == pytest.approx(math.log(n), rel=1e-12)

    def test_compressed_view_consistent(self, mangoldt_small):
        pp = mangoldt_small.prime_powers
        assert (np.diff(pp) > 0).all()
        recon = mangoldt_small.base_prime[pp].astype(float)
        assert np.allclose(np.log(recon), mangoldt_small.base_log)
        n_back = recon ** mangoldt_small.power_index
        assert np.array_equal(n_back.astype(np.int64), pp)

    def test_psi_at(self, mangoldt_small):
        expected = math.fsum(lambda_value(mangoldt_small, n) for n in range(1, 101))
        assert mangoldt_small.psi_at(100) == pytest.approx(expected, rel=1e-14)
        assert mangoldt_small.psi_at(1.5) == 0.0


class TestMobius:
    def test_small_values(self):
        assert mobius(1) == 1
        assert mobius(2) == -1
        assert mobius(4) == 0
        assert mobius(6) == 1
        assert mobius(30) == -1

    def test_squarefull_vanish(self):
        for n in range(1, 101):
            vanish = any(n % (p * p) == 0 for p in range(2, int(n**0.5) + 1))
            assert (mobius(n) == 0) == vanish

    def test_multiplicative_on_coprime_pairs(self):
        pairs = [(4, 9), (3, 8), (5, 6), (7, 10), (9, 10), (11, 12)]
        for a, b in pairs:
            assert math.gcd(a, b) == 1
            assert mobius(a * b) == mobius(a) * mobius(b)


class TestBCoefficient:
    def test_unit_argument(self):
        for m in range(2, 7):
            assert b_coefficients(m, B_LIMIT)[1] == 1

    def test_hand_value(self):
        b = b_coefficients(3, B_LIMIT)
        # divisor sum over {1, 2}: 1 - 2^2
        assert b[2] == -3
        # over {1, 2, 3, 6}: 1 - 4 - 9 + 36
        assert b[6] == 24

    def test_out_of_range(self):
        b = b_coefficients(3, B_LIMIT)
        assert len(b) == B_LIMIT + 1
        with pytest.raises(IndexError):
            b[B_LIMIT + 1]
        with pytest.raises(ValueError):
            b_coefficients(1, B_LIMIT)
        with pytest.raises(ValueError):
            b_coefficients(3, 0)
        with pytest.raises(ValueError):
            b_coefficients(3, SIEVE_LIMIT_CAP + 1)

    def test_magnitude_bound(self):
        for m in (2, 3, 4):
            b = b_coefficients(m, B_LIMIT)
            for k in range(1, 200):
                assert abs(b[k]) <= k ** (m - 1)

    def test_matches_divisor_sum(self):
        sieved = {m: b_coefficients(m, B_LIMIT) for m in range(2, 7)}
        for k in range(1, B_LIMIT + 1):
            for m, b in sieved.items():
                assert b[k] == b_coefficient_naive(k, m), (k, m)
