import math
import tracemalloc
from decimal import Decimal, localcontext
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import zetacorr as z
from zetacorr import series
from zetacorr.quadrature import adaptive_integrate
from zetacorr.rounding import TRIG_ABS, U, gamma
from zetacorr.series import (
    CHUNK,
    PROXY_SPAN,
    PROXY_TOL_SHARE,
    ROW,
    _chebyshev_error,
    _gamma_integral,
    choose_truncation,
    kernel_profile_evaluator,
    phase_sums,
    profile_proxies,
    profile_terms,
    psi_tail_bound,
    sieve_limit,
    transform_truncation,
)

from oracles import (
    dense_profile,
    integral_tail_bound,
    kernel_expansion_residual,
    log_derivative_series,
    prime_tail_estimate,
    proxy_weights_loop,
)

TOL = 1e-6
LOOSE = 1e-3
LD = np.longdouble
needs_extended = pytest.mark.skipif(
    np.finfo(np.longdouble).eps > 2.0**-60, reason="long double is not extended"
)


@pytest.mark.parametrize("tol", [math.inf, math.nan, 0.0, -1.0])
def test_every_cut_rejects_a_tolerance_not_finite_and_positive(mangoldt_small, tol):
    h = z.gaussian_triplet(20.0, 2.0)
    for cut in (
        lambda: sieve_limit(2.0, 3, tol),
        lambda: choose_truncation(2.0, 3, mangoldt_small, tol),
        lambda: transform_truncation(h, 2.0, 3, tol, 10**6),
    ):
        with pytest.raises(ValueError, match="tolerance must be finite and positive"):
            cut()


# (S, m) of the measured-tail check; no tuple has m > 2 S, so not (2, 6)
CUT_GRID = [(s, m) for s in (2.0, 3.0, 5.0, 8.0) for m in (3, 4, 6) if m <= 2 * s]


def _gamma_integral_exact(m: int, sigma: float, ln_n: float) -> Decimal:
    """Gamma(m, z) / (sigma-1)^m at z = (sigma-1) ln_n, to 60 digits, from its finite sum."""
    with localcontext() as ctx:
        ctx.prec = 60
        z = Decimal(sigma - 1.0) * Decimal(ln_n)
        terms = [z**j / math.factorial(j) for j in range(m)]
        return math.factorial(m - 1) * (-z).exp() * sum(terms) / Decimal(sigma - 1.0) ** m


class TestTailBounds:
    def test_upper_gamma_closed_form(self):
        # at sigma = 2 the integral is Gamma(m, log N): Gamma(1, z) = e^-z,
        # Gamma(2, z) = e^-z (1 + z)
        assert _gamma_integral(1, 2.0, 2.0) == pytest.approx(math.exp(-2.0))
        assert _gamma_integral(2, 2.0, 3.0) == pytest.approx(math.exp(-3.0) * 4.0)

    def test_upper_gamma_vs_quadrature(self):
        # Gamma(k, z) = integral over [z, inf) of t^(k-1) e^-t
        for k, zz in [(3, 2.0), (4, 5.0), (5, 1.0)]:
            quad = adaptive_integrate(
                lambda t: t ** (k - 1) * np.exp(-t), zz, zz + 60.0, 1e-12
            )
            assert _gamma_integral(k, 2.0, zz) == pytest.approx(quad.value, rel=1e-10)

    @pytest.mark.parametrize("m, sigma, ln_n", [
        (2, 1.5, 1.1), (3, 2.0, 8.0), (4, 3.0, 0.7), (6, 2.5, 30.0), (40, 20.0, 1.3),
        (170, 85.0, 1.1), (172, 86.0, 2.0), (400, 200.0, 1.1), (400, 1.5, 7600.0),
    ])
    def test_gamma_integral_is_rounded_up_and_does_not_overflow(self, m, sigma, ln_n):
        # (m - 1)! and (sigma - 1)^m or e^z overflow float64 for the last four
        exact = _gamma_integral_exact(m, sigma, ln_n)
        value = Decimal(_gamma_integral(m, sigma, ln_n))
        assert exact <= value <= exact * Decimal(1.0 + 1e-10)

    def test_gamma_integral_past_float64_is_inf(self):
        assert _gamma_integral_exact(400, 1.5, 400.0) > Decimal("1e900")
        assert _gamma_integral(400, 1.5, 400.0) == math.inf

    @pytest.mark.parametrize("sigma", [2.0, 2.5, 3.0])
    @pytest.mark.parametrize("m", [3, 4])
    def test_bound_covers_measured_tail(self, sigma, m, mangoldt_small):
        # actual tail measured by extending the truncation tenfold
        n_cut = 5_000
        view = mangoldt_small.prime_powers
        mask = (view > n_cut) & (view <= 10 * n_cut)
        logs = mangoldt_small.base_log[mask]
        tail = math.fsum((logs**m * view[mask].astype(float) ** (-sigma)).tolist())
        assert psi_tail_bound(n_cut, sigma, m) >= tail
        assert psi_tail_bound(n_cut, sigma, m, mangoldt_small) >= tail

    @pytest.mark.parametrize("sigma, m", CUT_GRID)
    def test_psi_bound_covers_both_tails_at_the_chosen_cuts(
        self, sigma, m, mangoldt_small, weight_default
    ):
        # the tails are measured up to the table's limit, 100,000
        t, h = mangoldt_small, weight_default
        log_n = t.power_index * t.base_log
        terms = t.base_log**m * np.exp(-sigma * log_n)
        tol = 1e-1 if sigma == 2.0 else 1e-3
        n_cut = choose_truncation(sigma, m, t, tol)
        tail = math.fsum(terms[t.prime_powers > n_cut].tolist())
        assert 0.0 < tail <= psi_tail_bound(n_cut, sigma, m, t) <= tol
        n_cut, bound = transform_truncation(h, sigma, m, 1e-6, t.limit)
        weighted = terms * np.abs(h.hat(log_n / (2.0 * math.pi)))
        tail = 2.0 * math.fsum(weighted[t.prime_powers > n_cut].tolist())
        assert 0.0 < tail <= bound <= 1e-6

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
        n_cut = choose_truncation(2.5, 3, mangoldt_small, 1e-4)
        assert psi_tail_bound(n_cut, 2.5, 3, mangoldt_small) <= 1e-4

    def test_resource_error_names_needed_limit(self, mangoldt_small):
        need = sieve_limit(2.0, 3, 1e-5)
        assert need > mangoldt_small.limit
        with pytest.raises(z.ResourceError, match=f"above 100000; a sieve limit of {need} suffices"):
            choose_truncation(2.0, 3, mangoldt_small, 1e-5)
        with pytest.raises(z.ResourceError, match="needs a limit above 100000000$"):
            choose_truncation(2.0, 3, mangoldt_small, 1e-9)


# tuples whose sieve limit at the tolerance stays below about 400k
SIZED = [
    (entries, tol)
    for tol in (1e-2, 1e-3)
    for entries in [
        (1, 1, -2), (1, 1, -1, -1), (1, 2, -3), (1, 1, 1, -3), (2, 2, -1, -3),
        (1, 1, 1, -1, -1, -1),
    ]
    if (entries, tol) != ((1, 1, -1, -1), 1e-3)
]


class TestSieveLimit:
    def test_psi_lower_bound_at_every_step(self, mangoldt_small):
        # psi is constant on [n_j, n_(j+1)) and x (1 - 1/log x) increases,
        # so each step is checked at its right end (the limit for the last);
        # on (1, 2), psi = 0 and the bound is negative
        t = mangoldt_small
        right = np.append(t.prime_powers[1:], t.limit).astype(float)
        assert np.all(t.psi >= right * (1.0 - 1.0 / np.log(right)))
        # below 41, where Rosser and Schoenfeld's theorem does not reach
        for x in range(2, 41):
            assert t.psi_at(x) >= x * (1.0 - 1.0 / math.log(x))

    @pytest.mark.parametrize("sigma, m", [(2.0, 3), (2.0, 4), (3.0, 6)])
    def test_table_free_bound_covers_table_bound(self, mangoldt_small, sigma, m):
        # the table's bound peaks just before psi steps up, at n_j - 1
        pp = mangoldt_small.prime_powers
        for n in np.concatenate([pp[pp > 3] - 1, pp[::16], [mangoldt_small.limit]]).tolist():
            free = psi_tail_bound(n, sigma, m)
            assert free >= psi_tail_bound(n, sigma, m, mangoldt_small)

    @pytest.mark.parametrize("entries, tol", SIZED)
    def test_cut_fits_the_sieve_and_matches_a_larger_one(self, entries, tol):
        tup = z.coefficient_tuple(list(entries))
        sigma = float(tup.positive_sum)
        limit = sieve_limit(sigma, tup.m, tol)
        cut = choose_truncation(sigma, tup.m, z.sieve_mangoldt(limit), tol)
        assert cut == choose_truncation(sigma, tup.m, z.sieve_mangoldt(2 * limit), tol)

    # pinned: these set the kfun and dips sieve, and so their peak memory
    def test_quartic_limits(self):
        assert sieve_limit(2.0, 4, 1e-2) == 287_467
        assert sieve_limit(2.0, 4, 1e-3) == 5_044_949

    def test_cubic_limits(self):
        assert sieve_limit(2.0, 3, 1e-2) == 12_748
        assert sieve_limit(2.0, 3, 1e-3) == 200_238

    def test_a_cut_the_integer_majorant_set_grows_by_one(self, mangoldt_small):
        # the all-integer majorant, no longer a package bound, certified N = 3
        assert integral_tail_bound(3, 5.0, 3) <= 1e-2 < psi_tail_bound(3, 5.0, 3, mangoldt_small)
        assert choose_truncation(5.0, 3, mangoldt_small, 1e-2) == 4


class TestKernelSeries:
    def test_real_argument_real_value(self, mangoldt_medium):
        val = z.correlation_kernel(2.5, 3, mangoldt_medium, TOL)
        assert val.imag == 0.0
        assert val.real > 0.0

    def test_conjugate_symmetry_exact(self, mangoldt_medium):
        s = complex(2.5, 11.7)
        a = z.correlation_kernel(s, 3, mangoldt_medium, TOL)
        b = z.correlation_kernel(s.conjugate(), 3, mangoldt_medium, TOL)
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
        full = z.correlation_kernel(2.5, 3, mangoldt_medium, TOL).real
        remainder = full - brute
        # engine includes every brute term plus a positive certified tail
        assert remainder >= 0.0
        assert remainder <= psi_tail_bound(10_000, 2.5, 3)

    def test_domain_floor(self, mangoldt_small):
        with pytest.raises(z.DomainError):
            z.correlation_kernel(1.2, 3, mangoldt_small, TOL)

    def test_m_validation(self, mangoldt_small):
        with pytest.raises(ValueError):
            z.correlation_kernel(2.5, 1, mangoldt_small, TOL)

    def test_monotone_decrease_in_sigma(self, mangoldt_medium):
        k2 = abs(z.correlation_kernel(complex(2.0, 5.0), 3, mangoldt_medium, LOOSE))
        k0 = z.correlation_kernel(2.0, 3, mangoldt_medium, LOOSE).real
        assert k2 <= k0 + LOOSE
        k3 = abs(z.correlation_kernel(complex(3.0, 5.0), 3, mangoldt_medium, LOOSE))
        assert k3 <= k0


class TestLogDerivativeSeries:
    def test_matches_zeta_log_derivative_at_2(self, mangoldt_large):
        # frozen high-precision reference for the series value at s = 2
        val = log_derivative_series(2.0, 1, mangoldt_large, 1e-7).real
        reference = 0.5699609930945328
        # truncation sits below the limit value by at most the tolerance
        assert reference - 1e-7 <= val <= reference + 1e-12

    def test_real_for_real_sigma(self, mangoldt_small):
        assert log_derivative_series(4.0, 3, mangoldt_small, TOL).imag == 0.0

    def test_dominated_by_first_term_at_large_sigma(self, mangoldt_small):
        sigma = 40.0
        val = log_derivative_series(sigma, 2, mangoldt_small, TOL).real
        first = math.log(2) ** 2 * 2.0**-sigma
        assert val == pytest.approx(first, rel=1e-5)


class TestProfile:
    def test_even_in_t(self, mangoldt_medium):
        tup = z.coefficient_tuple([1, 1, -2])
        left, right = dense_profile(tup, mangoldt_medium, LOOSE)(np.array([-17.3, 17.3]))
        assert left == right

    def test_positive_at_origin(self, mangoldt_medium):
        tup = z.coefficient_tuple([1, 1, -2])
        y0 = dense_profile(tup, mangoldt_medium, LOOSE)(np.array([0.0]))[0]
        k0 = z.correlation_kernel(2.0, 3, mangoldt_medium, LOOSE).real
        assert y0 == pytest.approx(2.0 * k0, rel=1e-14)
        assert y0 > 0.0

    def test_balanced_positive_at_origin(self, mangoldt_medium):
        # the grid t_grid(0, 0.5, 0.5) of kfun: t = 0 and 0.5, t_max = 1
        profile = kernel_profile_evaluator(
            z.coefficient_tuple([1, 1, -1, -1]), mangoldt_medium, LOOSE, 1.0
        )
        assert profile(np.array([0.0, 0.5]))[0] > 0.0

    def test_grid_matches_scalar(self, mangoldt_medium):
        # the evaluator's proxies are certified to PROXY_TOL_SHARE * tolerance;
        # (1,2,-3) has fewer terms than proxies, (1,1,-2) uses proxies
        ts = np.array([0.0, 3.7, 14.1, 25.0])
        for entries in ([1, 2, -3], [1, 1, -2]):
            tup = z.coefficient_tuple(entries)
            grid = kernel_profile_evaluator(tup, mangoldt_medium, LOOSE, 25.0)(ts)
            dense = dense_profile(tup, mangoldt_medium, LOOSE)(ts)
            assert np.all(np.abs(grid - dense) <= PROXY_TOL_SHARE * LOOSE)


T_MAX = 40.0
_PROFILES = {}


def _proxied(entries, tol, table, t_max):
    """The evaluator at t_max, and the proxies X_j, a_j and certified bound it built."""
    built = []

    def recorded(*args):
        built.append(profile_proxies(*args))
        return built[-1]

    with patch.object(series, "profile_proxies", recorded):
        profile = kernel_profile_evaluator(z.coefficient_tuple(list(entries)), table, tol, t_max)
    ((x, a, bound),) = built
    return profile, x, a, bound


def _blocks(x, w, size=None):
    """x and w as `profile_proxies` reads them: `size` terms at a time, else all at once."""
    size = size or x.size
    return lambda: ((x[k : k + size], w[k : k + size]) for k in range(0, x.size, size))


def _profiles(entries, tol, table):
    """Proxy evaluator, dense oracle and certified proxy bound at |t| <= T_MAX."""
    if (entries, tol) not in _PROFILES:
        profile, _, _, bound = _proxied(entries, tol, table, T_MAX)
        tup = z.coefficient_tuple(list(entries))
        _PROFILES[entries, tol] = (profile, dense_profile(tup, table, tol), bound)
    return _PROFILES[entries, tol]


class TestProfileProxies:
    @pytest.mark.parametrize("tol", [1e-2, 1e-3])
    @pytest.mark.parametrize("entries", [(1, 1, -2), (1, 1, -1, -1), (1, 2, -3)])
    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(min_value=-T_MAX, max_value=T_MAX))
    def test_within_certified_bound_of_dense_sum(self, mangoldt_medium, entries, tol, t):
        proxy, dense, bound = _profiles(entries, tol, mangoldt_medium)
        assert bound <= PROXY_TOL_SHARE * tol
        # the bound is for exact arithmetic; 1e-12 leaves room for rounding
        ts = np.array([t, -t, T_MAX])
        assert np.all(np.abs(proxy(ts) - dense(ts)) <= bound + 1e-12)

    def test_rejects_t_outside_range(self, mangoldt_medium):
        proxy, _, _ = _profiles((1, 1, -2), 1e-2, mangoldt_medium)
        proxy(np.array([-T_MAX, T_MAX]))
        for bad in (np.nextafter(T_MAX, np.inf), -41.0, np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="outside"):
                proxy(np.array([0.0, bad]))

    @pytest.mark.parametrize("t_max", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_bad_range(self, mangoldt_small, t_max):
        with pytest.raises(ValueError, match="t_max"):
            kernel_profile_evaluator(
                z.coefficient_tuple([1, 1, -2]), mangoldt_small, LOOSE, t_max
            )

    def test_huge_range_falls_back_to_terms(self, mangoldt_medium):
        tup = z.coefficient_tuple([1, 1, -2])
        n_cut = choose_truncation(2.0, 3, mangoldt_medium, 1e-2)
        log_n, w = profile_terms(2.0, 3, mangoldt_medium, n_cut)
        proxy, nodes, weights, bound = _proxied((1, 1, -2), 1e-2, mangoldt_medium, 1e6)
        assert bound == 0.0
        assert np.array_equal(nodes, log_n) and np.array_equal(weights, 2.0 * w)
        ts = np.array([-1e6, -123456.789, 0.0, 31.4, 999999.5, 1e6])
        dense = dense_profile(tup, mangoldt_medium, 1e-2)
        assert np.all(np.abs(proxy(ts) - dense(ts)) <= 1e-12)

    def test_degree_is_the_smallest_certified(self):
        # x in [0, 1] fills one bin at t_max = 1, so every node is one
        # of that bin's p Chebyshev points; the bin spans 16 blocks
        x = np.linspace(0.0, 1.0, 1000)
        w = np.full(x.size, 1e-3)
        tol = 1e-9
        nodes, weights, bound = profile_proxies(_blocks(x, w, 64), 1.0, tol)
        p = nodes.size
        weight = math.fsum(w.tolist())
        assert bound == weight * _chebyshev_error(p - 1) <= tol
        assert weight * _chebyshev_error(p - 2) > tol
        centre = 2.0  # bin [0, 4) of half-width PROXY_SPAN / t_max
        chebyshev = centre + 2.0 * np.cos(np.pi * np.arange(p) / (p - 1))
        assert np.allclose(nodes, chebyshev, rtol=0.0, atol=1e-15)
        assert math.fsum(weights.tolist()) == pytest.approx(weight, rel=1e-14)
        ts = np.linspace(-1.0, 1.0, 201)
        direct = (np.cos(ts[:, None] * x) * w).sum(axis=1)
        proxied = (np.cos(ts[:, None] * nodes) * weights).sum(axis=1)
        assert np.abs(direct - proxied).max() <= bound + 1e-15

    def test_term_on_a_node(self):
        # x = 0 is the bin's node u = -1, where the barycentric formula is 0/0
        x = np.repeat([0.0, 1.0], 30)
        w = np.ones(x.size)
        nodes, weights, bound = profile_proxies(_blocks(x, w), 1.0, 1e-3)
        assert nodes.size < x.size and nodes[-1] == 0.0
        assert np.all(np.isfinite(weights))
        assert math.fsum(weights.tolist()) == pytest.approx(60.0, rel=1e-14)
        ts = np.linspace(-1.0, 1.0, 201)
        direct = np.cos(ts[:, None] * x).sum(axis=1)
        proxied = (np.cos(ts[:, None] * nodes) * weights).sum(axis=1)
        assert np.abs(direct - proxied).max() <= bound + 1e-12


def _same_bits(got, want) -> bool:
    return all(np.asarray(g).tobytes() == np.asarray(v).tobytes() for g, v in zip(got, want))


class TestProxyBuffers:
    @pytest.mark.parametrize("t_max", [1.02, 40.02, 1000.0, 1e6])
    @pytest.mark.parametrize("tol", [1e-2, 1e-3])
    def test_bits_of_the_per_node_loop(self, mangoldt_medium, tol, t_max):
        # the evaluator reads its terms PIECE at a time; at t_max = 1.02 one
        # bin spans many blocks ((1,1,-1,-1) at 1e-3: 332,986 terms), and at
        # 1e6 the proxies would not be fewer than the terms
        for entries in ((1, 1, -2), (1, 1, -1, -1), (1, 2, -3)):
            tup = z.coefficient_tuple(list(entries))
            sigma = float(tup.positive_sum)
            n_cut = choose_truncation(sigma, tup.m, mangoldt_medium, tol)
            log_n, w = profile_terms(sigma, tup.m, mangoldt_medium, n_cut)
            got = _proxied(entries, tol, mangoldt_medium, t_max)[1:]
            want = proxy_weights_loop(log_n, 2.0 * w, t_max, PROXY_TOL_SHARE * tol)
            assert _same_bits(got, want), entries
            if t_max == 1.02:
                assert got[2] > 0.0  # proxies, not the terms
            if t_max == 1e6:
                assert got[2] == 0.0 and got[0].size == log_n.size

    @settings(max_examples=60, deadline=None)
    @example(x0=3.118, edges=[(1, -np.inf)] * 60, w=1.0, size=100)  # u rounds past 1: clipped
    @given(
        x0=st.floats(min_value=0.0, max_value=10.0),
        edges=st.lists(
            st.tuples(st.integers(1, 4), st.sampled_from([-np.inf, 0.0, np.inf])),
            min_size=60, max_size=100,
        ),
        w=st.floats(min_value=1e-3, max_value=1.0),
        size=st.integers(min_value=1, max_value=101),
    )
    def test_bits_with_terms_clipped_onto_end_nodes(self, x0, edges, w, size):
        # terms at, or one float either side of, the edges of bins of width
        # 2 PROXY_SPAN (t_max = 1) round or clip to u = +-1, nodes 0 and p - 1,
        # where the barycentric formula is inf / inf; read `size` at a time,
        # so that bins span blocks
        x = np.sort([x0] + [np.nextafter(x0 + 2.0 * PROXY_SPAN * k, d) for k, d in edges])
        bins = np.floor((x - x[0]) / (2.0 * PROXY_SPAN))
        u = (x - (x[0] + (2.0 * bins + 1.0) * PROXY_SPAN)) / PROXY_SPAN
        assume(np.any(np.abs(u) >= 1.0))
        weights = np.full(x.size, w)
        got = profile_proxies(_blocks(x, weights, size), 1.0, 0.1)
        assert got[0].size < x.size and np.all(np.isfinite(got[1]))
        assert _same_bits(got, proxy_weights_loop(x, weights, 1.0, 0.1))

    def test_evaluator_working_set_does_not_grow_with_the_terms(self, mangoldt_medium):
        # the default dips terms: 332,986 at tolerance 1e-3, 2.5 MB per
        # term-length array; the proxies are read from the table in blocks
        n_cut = choose_truncation(2.0, 4, mangoldt_medium, 1e-3)
        assert np.searchsorted(mangoldt_medium.prime_powers, n_cut, side="right") == 332_986
        tup = z.coefficient_tuple([1, 1, -1, -1])
        tracemalloc.start()
        try:
            kernel_profile_evaluator(tup, mangoldt_medium, 1e-3, 40.02)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 3 * 2**20


def _grid_with_bound(profile, ts):
    """The profile's grid path at ts, and the bound its call of `phase_sums` returned."""
    calls = []

    def recorded(*args):
        calls.append(phase_sums(*args))
        return calls[-1]

    with patch.object(series, "phase_sums", recorded):
        grid = profile(ts)
    ((_, bound),) = calls
    return grid, bound


def _point_bound(x, a, ts):
    """A bound on the point path's rounding at each t: sum_j a_j cos(fl(t X_j)), any order.

    The argument is off by U |t| X_j, the cosine by TRIG_ABS, the product
    by U, and a sum of P terms adds gamma_(P - 1) of their moduli.
    """
    weight = math.fsum(np.abs(a).tolist())
    moment = math.fsum((np.abs(a) * x).tolist())
    return U * np.abs(ts) * moment + (2.0 * TRIG_ABS + gamma(x.size + 1)) * weight


class TestProfileGridPath:
    @pytest.mark.parametrize("entries", [(1, 1, -2), (1, 1, -1, -1), (1, 2, -3)])
    @settings(max_examples=8, deadline=None)
    @given(
        where=st.floats(min_value=0.0, max_value=1.0),
        step=st.floats(min_value=1e-3, max_value=0.05),
        points=st.integers(min_value=140, max_value=600),
    )
    def test_within_bounds_of_point_path_and_dense_sum(
        self, mangoldt_medium, entries, where, step, points
    ):
        span = (points - 1) * step
        t_lo = -T_MAX + where * (2.0 * T_MAX - span)
        ts, t_max = z.t_grid(t_lo, min(t_lo + span, T_MAX), step)
        assume(ts.size > 2 * (ROW + -(-ts.size // ROW)))  # the grid path's size
        profile, x, a, proxy_bound = _proxied(entries, 1e-2, mangoldt_medium, t_max)
        grid, grid_bound = _grid_with_bound(profile, ts)
        # a permuted grid is no progression, so it takes the point path
        perm = np.random.default_rng(0).permutation(ts.size)
        point = np.empty_like(ts)
        point[perm] = profile(ts[perm])
        gap = grid_bound + _point_bound(x, a, ts)
        assert np.all(np.abs(grid - point) <= gap)
        # the dense sum's terms round no worse than the proxies' point path
        tup = z.coefficient_tuple(list(entries))
        dense = dense_profile(tup, mangoldt_medium, 1e-2)(ts)
        assert np.all(np.abs(grid - dense) <= proxy_bound + gap)

    def test_progression_and_not_give_the_same_values(self, mangoldt_medium):
        ts, t_max = z.t_grid(10.0, 40.0, 0.02)
        profile, x, a, _ = _proxied((1, 1, -1, -1), 1e-2, mangoldt_medium, t_max)
        nudged = ts.copy()
        nudged[-1] = np.nextafter(ts[-1], 0.0)  # no longer a progression
        (grid, grid_bound), point = _grid_with_bound(profile, ts), profile(nudged)
        assert not np.array_equal(grid[:-1], point[:-1])  # two paths
        gap = grid_bound + _point_bound(x, a, ts)
        assert np.all(np.abs(grid - point)[:-1] <= gap[:-1])
        alone = [profile(nudged[i : i + 1])[0] for i in range(0, ts.size, 50)]
        assert np.array_equal(point[::50], alone)

    @needs_extended
    @pytest.mark.parametrize("tol", [1e-2, 1e-3])
    def test_grid_within_its_bound_of_long_double_sum(self, mangoldt_medium, tol):
        # the dips-quartic grid; the oracle sums the same proxies at the same float t
        ts, t_max = z.t_grid(10.0, 40.0, 0.02)
        profile, x, a, _ = _proxied((1, 1, -1, -1), tol, mangoldt_medium, t_max)
        grid, bound = _grid_with_bound(profile, ts)
        exact = (np.cos(np.outer(ts.astype(LD), x.astype(LD))) * a.astype(LD)).sum(axis=1)
        miss = np.abs(grid.astype(LD) - exact).astype(np.float64)
        assert np.all(miss <= bound)
        assert np.max(bound) <= 1e3 * np.max(miss)

    def test_phase_sums_peak_is_one_block_and_one_chunk(self, mangoldt_medium):
        # the dips-quartic grid call: the (ROW x n) complex block and one chunk
        # of CHUNK rows of complex phases, within 10 %
        ts, t_max = z.t_grid(10.0, 40.0, 0.02)
        _, x, a, _ = _proxied((1, 1, -1, -1), 1e-2, mangoldt_medium, t_max)
        g, phi = (ts[1] - ts[0]) * x, ts[0] * x
        tracemalloc.start()
        try:
            phase_sums(g, ts.size, gamma(3), a, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.1 * 16 * (ROW + CHUNK) * x.size


class TestKernelExpansion:
    def test_identity_residual_moderate(self, mangoldt_medium):
        res = kernel_expansion_residual(2.5, 3, 40, mangoldt_medium, 1e-4)
        assert res <= 1e-4

    def test_identity_residual_fourth_power(self, mangoldt_medium):
        res = kernel_expansion_residual(3.0, 4, 40, mangoldt_medium, 1e-8)
        assert res <= 1e-8

    def test_single_term_is_worse(self, mangoldt_medium):
        coarse = abs(
            z.correlation_kernel(2.5, 3, mangoldt_medium, 1e-5)
            - log_derivative_series(2.5, 3, mangoldt_medium, 1e-5)
        )
        fine = kernel_expansion_residual(2.5, 3, 40, mangoldt_medium, 1e-5)
        assert coarse > fine

    def test_domain_floor(self, mangoldt_small):
        with pytest.raises(z.DomainError):
            kernel_expansion_residual(1.8, 3, 10, mangoldt_small, TOL)


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
