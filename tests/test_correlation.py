import json
import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import zetacorr as z
from zetacorr import correlation, series, tuples
from zetacorr.correlation import _zero_sums
from zetacorr.rounding import gamma
from zetacorr.series import ROW, transform_truncation

from oracles import Unpruned, canonical_pair_count, naive_correlation_sum, tuple_count_naive

# runs of equal coefficients in one half or both, none, and equal halves
TUPLES = [(1, 1, -2), (-1, -1, 2), (1, 1, -1, -1), (2, 2, -1, -3), (1, 2, -3), (1, -1, 1, -1)]


class Scaled:
    """h times a factor, counting the points h.value receives."""

    def __init__(self, inner, factor):
        self.inner, self.factor, self.points = inner, factor, 0
        self.center, self.width = inner.center, inner.width

    def value(self, x):
        self.points += np.size(x)
        return self.factor * self.inner.value(x)

    def support_cutoff(self):
        return self.inner.support_cutoff()

    def value_bound_beyond(self, x):
        return self.factor * self.inner.value_bound_beyond(x)


class TestCoefficientTuple:
    def test_valid_examples(self):
        for entries in ([1, 1, -2], [1, 1, -1, -1], [1, 2, -3]):
            tup = z.coefficient_tuple(entries)
            assert tup.m == len(entries)
        assert z.coefficient_tuple([1, 1, -2]).positive_sum == 2
        assert z.coefficient_tuple([1, 2, -3]).positive_sum == 3
        assert z.coefficient_tuple([1, 1, -1, -1]).is_balanced

    @given(st.lists(st.integers(-9, 9).filter(bool), min_size=2, max_size=6))
    def test_every_tuple_sits_above_the_series_floor(self, head):
        # the profile and main-term paths check no domain: S = 1 would force (1, -1)
        try:
            tup = z.coefficient_tuple(head + [-sum(head)])
        except ValueError:
            return
        assert tup.positive_sum >= 2 > series.SIGMA_FLOOR
        # the spectral rate's 2 S is the sum of the |a_k|
        assert sum(abs(a) for a in tup.entries) == 2 * tup.positive_sum

    def test_rejects_nonzero_sum(self):
        with pytest.raises(ValueError, match="sum"):
            z.coefficient_tuple([1, 1, -1])

    def test_rejects_zero_entry(self):
        with pytest.raises(ValueError, match="nonzero"):
            z.coefficient_tuple([1, 0, -1])

    def test_rejects_short(self):
        with pytest.raises(ValueError, match="length"):
            z.coefficient_tuple([1, -1])

    def test_rejects_common_factor(self):
        with pytest.raises(ValueError, match="coprime"):
            z.coefficient_tuple([2, 2, -4])

    def test_coprimality_one_gcd_a_value(self, monkeypatch):
        # each value against the running product, not one gcd a pair
        odd = [p for p in range(3, 40_000, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]
        is_prime = lambda k: all(k % d for d in range(3, math.isqrt(k) + 1, 2))
        last = next(p for p in odd[3998:] if is_prime(sum(odd[:3998]) + p))
        entries = odd[:3998] + [last]
        entries.append(-sum(entries))
        calls = []
        gcd = math.gcd
        monkeypatch.setattr(tuples.math, "gcd", lambda a, b: calls.append(b) or gcd(a, b))
        assert z.coefficient_tuple(entries).m == 4000
        assert len(calls) == 4000
        calls.clear()
        with pytest.raises(ValueError, match="values 3 and 21 must be coprime"):
            z.coefficient_tuple(entries[:-1] + [21, -sum(entries[:-1]) - 21])
        # the negated sum, 3, 5, ..., 19, 21: 9 checks; the partner search tests it, then 3
        assert len(calls) == 9 + 2

    def test_value_bits_budget(self, monkeypatch):
        # 10^5 distinct values are refused before any gcd
        calls = []
        monkeypatch.setattr(tuples.math, "gcd", lambda a, b: calls.append(b))
        entries = list(range(10**6, 10**6 + 10**5))
        with pytest.raises(ValueError, match="2051461 bits, over the budget 131072"):
            z.coefficient_tuple(entries + [-sum(entries)])
        assert calls == []
        monkeypatch.undo()
        x = 2**65534  # x, 1 and x + 1: 65535 + 1 + 65535 bits
        assert z.coefficient_tuple([x, 1, -x - 1]).m == 3
        with pytest.raises(ValueError, match="131073 bits"):
            z.coefficient_tuple([2 * x, 1, -2 * x - 1])

    def test_repeated_values_allowed(self):
        assert z.coefficient_tuple([1, 1, -2]).entries == (1, 1, -2)

    def test_parse_text(self):
        assert z.parse_tuple_text("1, 1, -2").entries == (1, 1, -2)
        with pytest.raises(ValueError):
            z.parse_tuple_text("1,1,-1")

    # lists closed to a zero sum, so that some parse, and arbitrary text
    # over every code point but surrogates
    TEXTS = st.one_of(
        st.lists(st.integers(-30, 30), min_size=1, max_size=8).map(
            lambda xs: ", ".join(map(str, xs + [-sum(xs)]))
        ),
        st.text(st.characters(exclude_categories=["Cs"]), max_size=40),
    )

    @settings(max_examples=150, deadline=None)
    @given(TEXTS)
    def test_fuzz_parse_text(self, text):
        try:
            tup = z.parse_tuple_text(text)
        except ValueError:
            return
        assert tup.m >= 3 and sum(tup.entries) == 0 and 0 not in tup.entries


class TestDirectRoute:
    def test_empty_below_first_zero(self, weight_default, tiny_zeros):
        val, diag = z.direct_correlation_sum(
            weight_default, z.coefficient_tuple([1, 1, -2]), 10.0, tiny_zeros
        )
        assert val == 0.0 and diag.tuple_count == 0

    def test_naive_matches_bitwise_m3(self, weight_default, tiny_zeros):
        tup = z.coefficient_tuple([1, 1, -2])
        naive = naive_correlation_sum(weight_default, tup, 30.0, tiny_zeros)
        pruned, _ = z.direct_correlation_sum(Unpruned(weight_default), tup, 30.0, tiny_zeros)
        assert naive == pruned

    @pytest.mark.parametrize(
        "entries", [(-1, -1, 2), (2, 2, -1, -3), (1, 1, 1, -3), (1, -1, 1, -1)]
    )
    def test_naive_matches_bitwise_more_tuples(self, weight_default, zero_table, entries):
        tup = z.coefficient_tuple(list(entries))
        naive = naive_correlation_sum(weight_default, tup, 60.0, zero_table)
        pruned, diag = z.direct_correlation_sum(Unpruned(weight_default), tup, 60.0, zero_table)
        assert naive == pruned
        assert diag.tuple_count == z.zeros_up_to(zero_table, 60.0).size ** tup.m

    def test_runs_of_three_in_both_halves_bitwise(self, weight_default, zero_table):
        # multiplicities 3 and 6 on alike halves, entering in power-of-two parts
        tup = z.coefficient_tuple([1, 1, 1, -1, -1, -1])
        naive = naive_correlation_sum(weight_default, tup, 40.0, zero_table)
        counted = Scaled(Unpruned(weight_default), 1.0)
        value, diag = z.direct_correlation_sum(counted, tup, 40.0, zero_table)
        assert value == naive and diag.tuple_count == 6**6
        assert counted.points == canonical_pair_count(tup, 40.0, zero_table, math.inf)
        _, diag = z.direct_correlation_sum(weight_default, tup, 40.0, zero_table)
        assert diag.tuple_count == tuple_count_naive(tup, 40.0, zero_table, diag.cutoff)

    @pytest.mark.parametrize("entries", TUPLES + [(1, 1, 1, -3)])
    def test_tuple_count_matches_brute_force(self, weight_default, zero_table, entries):
        tup = z.coefficient_tuple(list(entries))
        t_max = 100.0 if tup.m == 3 else 80.0
        _, diag = z.direct_correlation_sum(weight_default, tup, t_max, zero_table)
        count = tuple_count_naive(tup, t_max, zero_table, diag.cutoff)
        full = float(z.zeros_up_to(zero_table, t_max).size) ** tup.m
        assert 0 < diag.tuple_count == count < full
        assert diag.pruned_fraction == 1.0 - count / full

    @pytest.mark.parametrize("entries", TUPLES + [(1, 1, 1, -3)])
    def test_swap_symmetry_halves_h_evaluations(self, weight_default, zero_table, entries):
        # h is evaluated once per pair of index multisets of the two halves
        tup = z.coefficient_tuple(list(entries))
        counted = Scaled(weight_default, 1.0)
        value, diag = z.direct_correlation_sum(counted, tup, 80.0, zero_table)
        assert value == z.direct_correlation_sum(weight_default, tup, 80.0, zero_table)[0]
        pairs = canonical_pair_count(tup, 80.0, zero_table, diag.cutoff)
        assert counted.points == diag.h_evals == pairs
        if tup.is_balanced:  # halves alike: (A, B) and (B, A) walked once
            assert counted.points <= 0.3 * diag.tuple_count

    def test_default_cutoff_within_claimed(self, weight_default, tiny_zeros):
        tup = z.coefficient_tuple([1, 1, -2])
        naive = naive_correlation_sum(weight_default, tup, 30.0, tiny_zeros)
        pruned, diag = z.direct_correlation_sum(weight_default, tup, 30.0, tiny_zeros)
        assert abs(naive - pruned) <= diag.claimed_error

    def test_permuting_equal_coefficients_identical(self, weight_default, tiny_zeros):
        a = z.direct_correlation_sum(
            weight_default, z.coefficient_tuple([1, 1, -2]), 30.0, tiny_zeros
        )[0]
        b = z.direct_correlation_sum(
            weight_default, z.coefficient_tuple([1, -2, 1]), 30.0, tiny_zeros
        )[0]
        assert a == b

    def test_tuple_order_full_permutation_stable(self, weight_default, zero_table):
        # the halves' sums fix the order of summation, and h is even
        results = {
            z.direct_correlation_sum(weight_default, z.coefficient_tuple(e), 60.0, zero_table)
            for e in ([1, 1, -2], [-2, 1, 1], [-1, -1, 2])
        }
        assert len(results) == 1

    def test_linear_in_weight(self, weight_default, zero_table):
        tup = z.coefficient_tuple([1, 1, -2])
        base = z.direct_correlation_sum(weight_default, tup, 80.0, zero_table)[0]
        doubled = z.direct_correlation_sum(
            Scaled(weight_default, 2.0), tup, 80.0, zero_table
        )[0]
        assert doubled == pytest.approx(2.0 * base, rel=1e-12)

    @pytest.mark.parametrize("prefixes, block", [(1, 1), (7, 3), (300, 50), (5000, 7)])
    def test_block_size_bit_identical(self, weight_default, zero_table, prefixes, block):
        # with one prefix a step, the steps of (1,1,-2) with i > j hold no prefix
        for entries in ([1, 1, -1, -1], [1, 1, -2]):
            tup = z.coefficient_tuple(entries)
            value, diag = z.direct_correlation_sum(weight_default, tup, 80.0, zero_table)
            with patch.object(correlation, "PREFIXES", prefixes), patch.object(
                correlation, "BLOCK", block
            ):
                small = z.direct_correlation_sum(weight_default, tup, 80.0, zero_table)
            assert small[0] == value and small[1] == diag

    @staticmethod
    def direct_peak_bytes(h, entries, t_max, zeros):
        tracemalloc.start()
        try:
            _, diag = z.direct_correlation_sum(h, z.coefficient_tuple(entries), t_max, zeros)
            return diag, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_memory_does_not_grow_with_prefixes(self, weight_default, zero_table):
        diag, peak = self.direct_peak_bytes(weight_default, [1, 1, -1, -1], 150.0, zero_table)
        assert diag.tuple_count > 10**6  # 8 bytes a tuple would be 16 MB
        assert peak < 8e6

    def test_memory_does_not_grow_with_streamed_half(self, weight_default, zero_table):
        diag, peak = self.direct_peak_bytes(weight_default, [1, 1, -2], 500.0, zero_table)
        assert diag.tuple_count > 10**6
        assert peak < 8e6

    def test_peak_is_a_few_arrays_of_one_block(self, weight_default, zero_table):
        # h.value and exact_sum hold about a dozen 8-byte arrays of one block,
        # BLOCK pairs plus at most one row of the sorted half (its n (n + 1) / 2
        # multisets), and BLOCK keeps them within 0.6 MB
        n = z.zeros_up_to(zero_table, 150.0).size
        _, peak = self.direct_peak_bytes(weight_default, [1, 1, -1, -1], 150.0, zero_table)
        assert peak <= 13 * 8 * (correlation.BLOCK + n * (n + 1) // 2) <= 0.6e6

    def test_data_error_beyond_coverage(self, weight_default, tiny_zeros):
        with pytest.raises(z.DataError):
            z.direct_correlation_sum(
                weight_default, z.coefficient_tuple([1, 1, -2]), 100.0, tiny_zeros
            )

    def test_budget_error_names_the_ordinate_that_fits(self, weight_default, zero_table):
        # 38^5 <= 8e7 < 39^5: T below the 39th ordinate keeps n at 38
        wide = z.coefficient_tuple([1, 1, 1, 1, 1, -5])
        with pytest.raises(z.BudgetError) as caught:
            z.direct_correlation_sum(weight_default, wide, 1000.0, zero_table)
        assert str(caught.value) == (
            "649^5 index tuples of a half exceed the direct-route budget of 80,000,000; "
            "T below 121.37012500242065 (ordinate 39) fits"
        )
        below = np.nextafter(zero_table.ordinates[38], 0.0)
        assert z.zeros_up_to(zero_table, below).size == 38


LD = np.longdouble
LD_PI = np.arccos(LD(-1.0))
needs_extended = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 2.0**-60, reason="long double is not extended"
)


def _zero_phase_sum_oracle(gammas, scale, xi):
    """Q(scale * xi) point by point, every phase and sum in long double."""
    phase = (2.0 * LD_PI * scale) * np.outer(xi.astype(LD), gammas.astype(LD))
    return np.exp(1j * phase).sum(axis=1)


def _spectral_oracle(h, tup, gammas, diag):
    """Trapezoid sum of the spectral integrand at the route's nodes, in long double."""
    x = np.arange(diag.grid_points).astype(LD) * LD(diag.dx)
    c, s = LD(h.center), LD(h.width)
    f = (2 * s * np.exp(-LD_PI * s * s * x * x) * (np.cos(2 * LD_PI * c * x) - 1)).astype(
        np.clongdouble
    )
    factors = {a: _zero_phase_sum_oracle(gammas, a, x) for a in {abs(a) for a in tup.entries}}
    for a in tup.entries:
        f = f * (factors[a] if a > 0 else np.conj(factors[-a]))
    w = np.ones(x.size, dtype=LD)
    w[0] = 0.5
    return 2 * LD(diag.dx) * np.sum(w * f.real)


# runs the spectral route in a fresh interpreter and prints its bits, a
# digest of 128 zero sums over 12,000 ordinates, more than OpenBLAS's
# zdotc takes in one thread, and a digest of a profile grid over 23,578
# proxies (the terms themselves at t_max = 1e6), more than PIECE
SPECTRAL_BITS = """
import hashlib, sys
sys.path.insert(0, sys.argv[1])
import numpy as np
import zetacorr as z
from zetacorr.correlation import _zero_sums
from zetacorr.series import (
    PIECE, choose_truncation, kernel_profile_evaluator, profile_proxies, profile_terms,
    sieve_limit,
)
value, diag = z.spectral_correlation_sum(
    z.gaussian_triplet(20.0, 2.0), z.coefficient_tuple([1, 1, -2]), 100.0,
    z.load_zeros(z.bundled_zeros_path()),
)
gammas = np.sort(np.random.default_rng(0).uniform(14.0, 5000.0, 12_000))
chunk = _zero_sums(gammas, 1, 1e-3, 128)[0]
tup = z.coefficient_tuple([1, 1, -1, -1])
table = z.sieve_mangoldt(sieve_limit(2.0, 4, 1e-2))
log_n, w = profile_terms(2.0, 4, table, choose_truncation(2.0, 4, table, 1e-2))
assert profile_proxies(lambda: [(log_n, 2.0 * w)], 1e6, 1e-5)[0].size > PIECE
ys = kernel_profile_evaluator(tup, table, 1e-2, 1e6)(z.t_grid(999_000.0, 999_002.0, 0.01)[0])
print(
    value.hex(), diag.rounding_error.hex(),
    *(hashlib.sha256(a.tobytes()).hexdigest() for a in (chunk, ys)),
)
"""


class TestSpectralRoute:
    def test_zero_phase_sum_at_origin(self, zero_table):
        gammas = z.zeros_up_to(zero_table, 100.0)
        q0 = _zero_sums(gammas, 1, 0.01, 1)[0][0]
        assert q0 == complex(29.0, 0.0)

    def test_conjugate_reflection(self, zero_table):
        gammas = z.zeros_up_to(zero_table, 100.0)
        plus = _zero_sums(gammas, 1, 0.01, 300)[0]
        minus = _zero_sums(gammas, -1, 0.01, 300)[0]
        assert np.array_equal(np.conj(plus), minus)

    @needs_extended
    @pytest.mark.parametrize("a", [1, 2, 3])
    def test_rows_within_bound_of_oracle(self, zero_table, a):
        gammas = z.zeros_up_to(zero_table, 500.0)
        dx, j = 1.9 / 1000, np.arange(1001)
        exact = _zero_phase_sum_oracle(gammas, a, j.astype(LD) * LD(dx))
        # PIECE 50 splits each dot product into six, summed in one more order
        for piece in (series.PIECE, 50):
            with patch.object(series, "PIECE", piece):
                got, bound = _zero_sums(gammas, a, dx, j.size)
            miss = np.abs(got.astype(np.clongdouble) - exact).astype(np.float64)
            assert np.all(miss <= bound)
            # a worst case, but within three orders of the realised error
            assert np.max(bound) <= 1e3 * np.max(miss)

    @needs_extended
    @pytest.mark.parametrize(
        "entries, t_max", [((1, 1, -2), 300.0), ((1, 1, -2), 500.0), ((1, 1, -1, -1), 150.0)]
    )
    def test_route_zero_sums_within_bound_of_oracle(
        self, weight_default, zero_table, entries, t_max
    ):
        # the zero sums at the route's own nodes j dx, j < grid_points
        tup = z.coefficient_tuple(list(entries))
        _, diag = z.spectral_correlation_sum(weight_default, tup, t_max, zero_table)
        gammas = z.zeros_up_to(zero_table, t_max)
        xi = np.arange(diag.grid_points).astype(LD) * LD(diag.dx)
        for a in {abs(a) for a in entries}:
            got, bound = _zero_sums(gammas, a, diag.dx, diag.grid_points)
            exact = _zero_phase_sum_oracle(gammas, a, xi)
            miss = np.abs(got.astype(np.clongdouble) - exact).astype(np.float64)
            assert np.all(miss <= bound)
            assert np.max(bound) <= 1e3 * np.max(miss)

    @needs_extended
    def test_rows_within_bound_at_far_nodes(self, zero_table):
        # at j up to 4000 the phases' rounding, bounded by the argument
        # term, grows with j dx and dominates the bound
        gammas = z.zeros_up_to(zero_table, 500.0)
        a, dx, j = 3, 0.005, np.arange(4000)
        got, bound = _zero_sums(gammas, a, dx, j.size)
        exact = _zero_phase_sum_oracle(gammas, a, j.astype(LD) * LD(dx))
        miss = np.abs(got.astype(np.clongdouble) - exact).astype(np.float64)
        assert np.all(miss <= bound)
        assert np.max(bound) <= 1e3 * np.max(miss)

    @needs_extended
    def test_caller_phase_error_is_in_the_bound(self, zero_table):
        # one ordinate, so nothing cancels; at this dx the four roundings of
        # g = fl(fl(fl(2 pi) a) dx) gamma lose 2.07 U of it, all downward,
        # so at far nodes the realised error exceeds every term of the bound
        # but the caller's gamma_4 k |g|
        gammas = z.zeros_up_to(zero_table, 15.0)
        a, dx, j = 3, 0.004013022665488758, np.arange(4000)
        got, bound = _zero_sums(gammas, a, dx, j.size)
        exact = _zero_phase_sum_oracle(gammas, a, j.astype(LD) * LD(dx))
        miss = np.abs(got.astype(np.clongdouble) - exact).astype(np.float64)
        assert gammas.size == 1 and np.all(miss <= bound)
        callers = gamma(4) * j * abs(float((correlation.TWO_PI * a * dx) * gammas[0]))
        assert np.max(miss - (bound - callers)) > 0.0

    @needs_extended
    def test_bound_holds_for_a_sequential_contraction(self, zero_table):
        # np.vecdot's blocked sums stay far below the worst case of its
        # 2n-term dot products; a left-to-right sum of the same factors is
        # one more order the bound must cover, and at phases this small
        # only its gamma_(2n) term does
        gammas = z.zeros_up_to(zero_table, 1400.0)
        a, dx, j = 1, 1e-7, np.arange(ROW, 2 * ROW)
        g = (correlation.TWO_PI * a * dx) * gammas
        block = np.exp(1j * (np.arange(ROW, dtype=np.float64)[:, None] * g))
        sequential = np.cumsum(np.exp(1j * (float(ROW) * g)) * block, axis=1)[:, -1]
        xi = j.astype(LD) * LD(dx)
        exact = _zero_phase_sum_oracle(gammas, a, xi)
        miss = np.abs(sequential.astype(np.clongdouble) - exact).astype(np.float64)
        bound = _zero_sums(gammas, a, dx, 2 * ROW)[1][ROW:]
        assert np.all(miss <= bound)
        assert np.max(bound) <= 1e3 * np.max(miss)

    def test_nodes_are_exact_multiples(self, weight_default, zero_table, monkeypatch):
        # the nodes the route passes to hhat, and their count to the zero sums
        calls, hats = [], []

        def recorded(gammas, a, dx, count):
            calls.append((a, dx, count))
            return zero_sums(gammas, a, dx, count)

        def recorded_hat(self, xi):
            hats.append(xi)
            return hat(self, xi)

        zero_sums, hat = correlation._zero_sums, type(weight_default).hat
        monkeypatch.setattr(correlation, "_zero_sums", recorded)
        monkeypatch.setattr(type(weight_default), "hat", recorded_hat)
        tup = z.coefficient_tuple([1, 2, -3])
        _, diag = z.spectral_correlation_sum(weight_default, tup, 100.0, zero_table)
        assert [(a, dx) for a, dx, _ in calls] == [(a, diag.dx) for a in (1, 2, 3)]
        assert len(hats) == 1
        nodes = hats[0]
        assert all(count == nodes.size == diag.grid_points for _, _, count in calls)
        step = Fraction(diag.dx)
        assert all(Fraction(x) == j * step for j, x in enumerate(nodes.tolist()))
        # the last node is the first at or beyond xi_max
        assert nodes[-2] < diag.xi_max <= nodes[-1]

    @needs_extended
    @pytest.mark.parametrize("entries", [(1, 1, -2), (1, 1, -1, -1)])
    def test_rounding_bound_covers_long_double_reference(
        self, weight_default, zero_table, entries
    ):
        tup = z.coefficient_tuple(list(entries))
        value, diag = z.spectral_correlation_sum(weight_default, tup, 100.0, zero_table)
        gammas = z.zeros_up_to(zero_table, 100.0)
        reference = _spectral_oracle(weight_default, tup, gammas, diag)
        assert float(abs(LD(value) - reference)) <= diag.rounding_error
        assert diag.claimed_error >= diag.alias_error + diag.tail_bound + diag.rounding_error
        _, ddiag = z.direct_correlation_sum(weight_default, tup, 100.0, zero_table)
        assert diag.rounding_error <= 0.5 * ddiag.claimed_error

    def test_alias_bound_covers_undersampling(self, weight_default, zero_table, monkeypatch):
        # at the rate Delta_max + c/2, aliases h(Delta - k / dx) land on
        # the weight's bumps: the routes then differ by more than every
        # other claim, and only the alias bound covers the gap
        tup = z.coefficient_tuple([1, 1, -2])
        gammas = z.zeros_up_to(zero_table, 100.0)
        slow = tup.positive_sum * float(gammas[-1] - gammas[0]) + weight_default.center / 2
        monkeypatch.setattr(correlation, "SAMPLES_PER_PERIOD", slow / (2 * tup.positive_sum * 100.0))
        spectral, sdiag = z.spectral_correlation_sum(weight_default, tup, 100.0, zero_table)
        direct, ddiag = z.direct_correlation_sum(weight_default, tup, 100.0, zero_table)
        gap = abs(spectral - direct)
        assert gap > sdiag.tail_bound + sdiag.rounding_error + ddiag.claimed_error
        assert gap <= sdiag.claimed_error + ddiag.claimed_error

    @pytest.mark.parametrize("center, width", [(20.0, 2.0), (1.0, 5.0), (2.0, 8.0)])
    def test_alias_bound_covers_every_alias(self, zero_table, center, width):
        # sum over k != 0 and all 27 tuples at T = 30 of |h(Delta - k R)|,
        # at rates from well below the aliasing limit to just above it;
        # at R = Delta_max + c + s/2 the bound needs its value_bound_beyond term
        h = z.gaussian_triplet(center, width)
        tup = z.coefficient_tuple([1, 1, -2])
        gammas = z.zeros_up_to(zero_table, 30.0)
        grids = np.meshgrid(*[gammas] * 3, indexing="ij")
        deltas = sum(a * g for a, g in zip(tup.entries, grids)).ravel()
        delta_max = tup.positive_sum * float(gammas[-1] - gammas[0])
        ks = np.concatenate([np.arange(-2000, 0), np.arange(1, 2001)])
        for rate in (2.0, 5.0, (delta_max + center) / 1.5, delta_max + center + width / 2):
            aliases = np.abs(h.value(deltas[:, None] - ks * rate)).sum()
            bound = correlation._alias_bound(h, float(deltas.size), delta_max, rate)
            assert aliases <= bound

    @pytest.mark.parametrize("center, width, t_max", [(1e300, 2.0, 40.0), (1e200, 1e150, 60.0)])
    def test_grid_never_exceeds_sixteen_per_period(self, zero_table, center, width, t_max):
        # a huge center caps the rate at SAMPLES_PER_PERIOD 2 S T; dx is
        # rounded up, so the nodes j dx <= xi_max stay within that rate
        tup = z.coefficient_tuple([1, 1, -2])
        h = z.gaussian_triplet(center, width)
        _, diag = z.spectral_correlation_sum(h, tup, t_max, zero_table)
        assert diag.grid_points <= math.ceil(16 * 2 * tup.positive_sum * t_max * diag.xi_max) + 1

    @pytest.mark.parametrize("chunk", [1, 5, 1000])
    def test_chunk_size_bit_identical(self, weight_default, zero_table, chunk):
        tup = z.coefficient_tuple([1, 2, -3])
        value, diag = z.spectral_correlation_sum(weight_default, tup, 100.0, zero_table)
        with patch.object(series, "CHUNK", chunk):
            small = z.spectral_correlation_sum(weight_default, tup, 100.0, zero_table)
        assert small[0] == value and small[1] == diag

    def test_bits_do_not_depend_on_blas_threads(self):
        src = str(Path(z.__file__).resolve().parents[1])
        outputs = []
        for threads in (None, "1", "2"):  # unset: zetacorr's default of one thread
            env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            done = subprocess.run(
                [sys.executable, "-I", "-c", SPECTRAL_BITS, src],
                env=env, capture_output=True, text=True, timeout=60, check=True,
            )
            outputs.append(done.stdout.split())
        assert len(outputs[0]) == 4 and outputs[0] == outputs[1] == outputs[2]

    def test_matches_direct_on_tiny_instance(self, weight_default, tiny_zeros):
        tup = z.coefficient_tuple([1, 1, -2])
        direct, ddiag = z.direct_correlation_sum(Unpruned(weight_default), tup, 30.0, tiny_zeros)
        spectral, sdiag = z.spectral_correlation_sum(
            weight_default, tup, 30.0, tiny_zeros
        )
        assert abs(direct - spectral) <= ddiag.claimed_error + sdiag.claimed_error


class TestMainTermAndReport:
    def test_balanced_uses_exact_constant(self, weight_default, mangoldt_medium):
        tup = z.coefficient_tuple([1, 1, -1, -1])
        t_max = 100.0
        main = z.main_term(weight_default, tup, t_max, mangoldt_medium)[0]
        # the closed-form sum 2 sum_{n<=N} Lambda(n)^4 n^-2 hhat(log n / 2 pi),
        # at the truncation main_term certifies for its default tolerance
        n_cut, _ = transform_truncation(weight_default, 2.0, 4, 1e-6, 10**8)
        keep = mangoldt_medium.prime_powers <= n_cut
        log_p = mangoldt_medium.base_log[keep]
        log_n = mangoldt_medium.power_index[keep] * log_p
        hat = weight_default.hat(log_n / (2.0 * math.pi))
        terms = log_p**4 * np.exp(-2.0 * log_n) * hat
        closed_form = 2.0 * math.fsum(terms.tolist())
        expected = (2.0 / 3.0) / (2.0 * math.pi) ** 4 * t_max**3 * closed_form
        assert main == pytest.approx(expected, rel=1e-9)

    def test_scaling_in_t_exact(self, weight_default, mangoldt_medium):
        tup = z.coefficient_tuple([1, 1, -2])
        one = z.main_term(weight_default, tup, 100.0, mangoldt_medium)[0]
        two = z.main_term(weight_default, tup, 200.0, mangoldt_medium)[0]
        assert two == pytest.approx(2.0 ** (tup.m - 1) * one, rel=1e-12)

    def test_report_roundtrip_and_agreement(
        self, weight_default, zero_table, mangoldt_medium
    ):
        tup = z.coefficient_tuple([1, 1, -2])
        report = z.build_report(
            weight_default, tup, 100.0, zero_table, mangoldt_medium
        )
        assert z.routes_agree(report)
        n_zeros = z.zeros_up_to(zero_table, 100.0).size
        assert report.diagnostics["tuple_count"] <= n_zeros**tup.m
        assert all(v >= 0.0 for v in report.diagnostics["claimed_errors"].values())
        parts = ("spectral_alias_error", "spectral_tail_bound", "spectral_rounding_error")
        assert report.diagnostics["claimed_errors"]["spectral"] == sum(
            report.diagnostics[key] for key in parts
        )
        assert report.diagnostics["spectral_xi_max"] > 0.0
        # main-term certificate: tail bound <= tol, scaled by |D| T^(m-1)
        d_abs = 0.5 / (2.0 * math.pi) ** 3
        claimed = report.diagnostics["main_term_claimed_error"]
        assert 0.0 < claimed <= 1.01e-6 * d_abs * 100.0**2
        assert report.diagnostics["main_term_terms"] >= 3
        data = json.loads(report.to_json())
        clone = z.CorrelationReport(**{**data, "tuple_entries": tuple(data["tuple_entries"])})
        assert clone == report
        row = report.csv_row()
        assert row["T"] == 100.0 and row["tuple"] == "+1+1-2"

    def test_report_sums_the_main_term_once(
        self, weight_default, tiny_zeros, mangoldt_medium, monkeypatch
    ):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return closed_form(*args, **kwargs)

        closed_form = correlation.closed_form_profile_integral
        monkeypatch.setattr(correlation, "closed_form_profile_integral", counted)
        tup = z.coefficient_tuple([1, 1, -2])
        report = z.build_report(weight_default, tup, 30.0, tiny_zeros, mangoldt_medium)
        assert len(calls) == 1
        value, claimed, n_cut = z.main_term(weight_default, tup, 30.0, mangoldt_medium)
        assert report.main_term == value
        assert report.diagnostics["main_term_claimed_error"] == claimed
        assert report.diagnostics["main_term_terms"] == n_cut
        assert "accuracy_warning" not in report.diagnostics

    def test_report_below_first_zero(
        self, weight_default, tiny_zeros, mangoldt_medium
    ):
        tup = z.coefficient_tuple([1, 1, -2])
        report = z.build_report(
            weight_default, tup, 10.0, tiny_zeros, mangoldt_medium
        )
        assert report.h_direct == 0.0
        assert report.h_spectral == 0.0
        assert report.main_term != 0.0
        assert abs(report.main_term) < 1.0
