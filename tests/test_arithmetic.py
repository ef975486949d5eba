import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zetacorr as z
from zetacorr.arithmetic import SIEVE_LIMIT_CAP

from oracles import (
    b_coefficient_naive,
    b_coefficients,
    divisors,
    lambda_value,
    mobius,
    prime_power_entries,
    sieve_mangoldt_by_insert,
)

B_LIMIT = 10_000
# the dips-quartic limit (tolerance 1e-2) and the default-tolerance (1e-3) one
WORKLOAD_LIMITS = (287_467, 5_044_949)
# limits at and next to prime powers, where a sieve's bounds are tested
POWERS = (4, 8, 9, 16, 25, 27, 32, 49, 64, 81, 121, 125, 128, 169, 243, 343, 529, 1024, 2187)
EDGE_LIMITS = sorted({1, 2, 3} | {q + d for q in POWERS for d in (-1, 0, 1)})


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


def assert_same_as_insert_build(limit: int) -> None:
    """Every array of the table has the dtype, shape and bits of `sieve_mangoldt_by_insert`'s."""
    table, oracle = z.sieve_mangoldt(limit), sieve_mangoldt_by_insert(limit)
    assert table.limit == oracle.limit == limit
    for f in dataclasses.fields(table):
        if f.name != "limit":
            got, want = getattr(table, f.name), getattr(oracle, f.name)
            assert got.dtype == want.dtype and got.shape == want.shape, f.name
            assert got.tobytes() == want.tobytes(), f.name


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
        # the table lists exactly the n with Lambda(n) != 0, each with its prime
        head = mangoldt_small.prime_powers <= 10_000
        listed = mangoldt_small.prime_powers[head].tolist()
        assert listed == [n for n in range(2, 10_001) if trial_factor_lambda(n) != 0.0]
        for n, p in zip(listed, mangoldt_small.base_prime[head].tolist()):
            assert math.log(p) == trial_factor_lambda(n), n

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
        base = mangoldt_small.base_prime
        assert np.array_equal(np.log(base.astype(float)), mangoldt_small.base_log)
        assert np.array_equal(base**mangoldt_small.power_index, pp)

    def test_every_array_is_aligned_with_the_prime_powers(self, mangoldt_small):
        # no array is indexed by n itself: a reader of base_prime[n] would
        # read the prime of the n-th prime power
        arrays = [f.name for f in dataclasses.fields(mangoldt_small) if f.name != "limit"]
        for name in arrays:
            assert getattr(mangoldt_small, name).shape == mangoldt_small.prime_powers.shape, name

    def test_peak_memory_is_the_table_and_the_odd_sieve(self):
        # the five arrays of P 8-byte entries it returns and one byte per odd
        # number: nothing of table size beside them
        for limit in WORKLOAD_LIMITS:
            tracemalloc.start()
            try:
                table = z.sieve_mangoldt(limit)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 5 * 8 * table.prime_powers.size + limit // 2, limit

    @pytest.mark.parametrize("limit", WORKLOAD_LIMITS)
    def test_matches_the_insert_build_at_workload_limits(self, limit):
        assert_same_as_insert_build(limit)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(min_value=1, max_value=20_000))
    def test_matches_the_insert_build(self, limit):
        assert_same_as_insert_build(limit)

    @pytest.mark.parametrize("limit", EDGE_LIMITS)
    def test_matches_trial_division_at_edge_limits(self, limit):
        table = z.sieve_mangoldt(limit)
        n, p, k = np.array(prime_power_entries(limit), np.int64).reshape(-1, 3).T
        assert table.prime_powers.dtype == table.base_prime.dtype == table.power_index.dtype == np.int64
        assert table.base_log.dtype == table.psi.dtype == np.float64
        assert np.array_equal(table.prime_powers, n)
        assert np.array_equal(table.base_prime, p)
        assert np.array_equal(table.power_index, k)
        logs = np.log(p.astype(np.float64))
        assert np.array_equal(table.base_log, logs)
        assert np.array_equal(table.psi, np.cumsum(logs))

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
