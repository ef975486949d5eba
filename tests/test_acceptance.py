"""End-to-end acceptance suite: one test per shipped criterion.

Each test prints a PASS line with its measured quantities (run with -s
to see them).  Criterion 8 is a deliberately loose trend check of the
correlation sum against its leading asymptotic; at desk scale the
neglected lower-order terms are known to push one grid point outside
the stated band - the test states the band verbatim and reports every
measured point, so a failure there is fully quantified.
"""
import math
import time
from fractions import Fraction

import numpy as np
import pytest

import zetacorr as z
from zetacorr.dips import deep_minima
from zetacorr.quadrature import adaptive_integrate, sinc_product
from zetacorr.series import choose_truncation

from identities import run_identity_suite
from oracles import (
    Unpruned,
    kernel_expansion_residual,
    naive_correlation_sum,
    prime_tail_estimate,
)

FIRST_SIX = [14.134725, 21.022040, 25.010858, 30.424876, 32.935062, 37.586178]


def _report(num: int, ok: bool, detail: str, elapsed: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status} ({elapsed:.2f}s): {detail}")


def test_criterion_1_exact_coefficient_table():
    start = time.monotonic()
    expected = {
        1: Fraction(1, 4),
        2: Fraction(1, 24),
        3: Fraction(11, 1280),
        4: Fraction(151, 80640),
        5: Fraction(15619, 37158912),
    }
    got = {r: z.balanced_coefficient(r) for r in range(1, 6)}
    elapsed = time.monotonic() - start
    ok = got == expected and elapsed < 1.0
    _report(1, ok, f"exact rationals {[str(v) for v in got.values()]}", elapsed)
    assert got == expected
    assert elapsed < 1.0


def _oscillatory_tail(x: float) -> float:
    """integral of sin(u)/u over [x, inf), asymptotic series for large x."""
    inv = 1.0 / x
    f = inv * (1.0 - 2.0 * inv**2 + 24.0 * inv**4)
    g = inv * inv * (1.0 - 6.0 * inv**2 + 120.0 * inv**4)
    return math.cos(x) * f + math.sin(x) * g


def test_criterion_2_sinc_power_rationals_vs_quadrature():
    start = time.monotonic()
    worst = 0.0
    for n in range(1, 7):
        exact = math.pi * float(z.sinc_product_exact((1,) * n + (-1,) * n))
        if n == 1:
            width = 2000.0
            inner = adaptive_integrate(
                lambda w: sinc_product((1, 1), w), 0.0, width, 1e-10
            )
            tail = math.sin(width) ** 2 / width + _oscillatory_tail(2.0 * width)
            numeric = 2.0 * (inner.value + tail)
        else:
            width = (1.0 / ((2 * n - 1) * 2.5e-9)) ** (1.0 / (2 * n - 1))
            inner = adaptive_integrate(
                lambda w: sinc_product((1,) * (2 * n), w), 0.0, width, 1e-10
            )
            numeric = 2.0 * inner.value
        worst = max(worst, abs(numeric - exact))
        assert abs(numeric - exact) <= 1e-8, f"n={n}: |{numeric} - {exact}|"
    elapsed = time.monotonic() - start
    _report(2, elapsed < 10.0, f"max |quadrature - exact| = {worst:.3e}", elapsed)
    assert elapsed < 10.0


def test_criterion_3_identity_suite():
    start = time.monotonic()
    result = run_identity_suite(seed=20240809, iterations=100, b_limit=10**4)
    elapsed = time.monotonic() - start
    detail = (
        f"scaled residuals {result.max_scaled_residual_multinomial:.2e} / "
        f"{result.max_scaled_residual_power:.2e}, cosh gap "
        f"{result.max_relative_gap_cosh:.2e}, {result.b_inverse_checked} exact "
        "convolution values"
    )
    _report(3, result.ok and elapsed < 30.0, detail, elapsed)
    assert result.ok, result.violations
    assert result.max_scaled_residual_multinomial <= 1e-9
    assert result.max_scaled_residual_power <= 1e-9
    assert result.max_relative_gap_cosh <= 1e-12
    assert elapsed < 30.0


def test_criterion_4_series_cross_checks(mangoldt_large):
    start = time.monotonic()
    residual = kernel_expansion_residual(2.5, 3, 40, mangoldt_large, 1e-8)
    assert residual <= 1e-8, residual

    # independent oracle: classic boolean sieve re-derived here, prime
    # powers walked explicitly, truncated at 1e7 with the analytic tail
    limit = 10**7
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if flags[i]:
            flags[i * i :: i] = False
    primes = np.nonzero(flags)[0]
    logs = np.log(primes.astype(np.float64))
    partial = math.fsum((logs**3 / primes.astype(np.float64) ** 2).tolist())
    extra = []
    for p in primes[primes <= math.isqrt(limit)]:
        pk, lp3 = int(p) * int(p), math.log(int(p)) ** 3
        while pk <= limit:
            extra.append(lp3 / pk**2)
            pk *= int(p)
    oracle = partial + math.fsum(extra) + prime_tail_estimate(limit, 2.0, 3)

    n_used = choose_truncation(2.0, 3, mangoldt_large, 1e-5)
    engine = (
        z.correlation_kernel(2.0, 3, mangoldt_large, 1e-5).real
        + prime_tail_estimate(n_used, 2.0, 3)
    )
    gap = abs(engine - oracle)
    elapsed = time.monotonic() - start
    _report(
        4,
        gap <= 1e-6 and elapsed < 30.0,
        f"expansion residual {residual:.2e}; kernel-vs-oracle gap {gap:.2e}",
        elapsed,
    )
    assert gap <= 1e-6
    assert elapsed < 30.0


def test_criterion_5_route_agreement(weight_default, zero_table):
    start = time.monotonic()
    margins = []
    for entries in ([1, 1, -2], [1, 1, -1, -1]):
        tup = z.coefficient_tuple(entries)
        for t_max in (100.0, 250.0):
            direct, ddiag = z.direct_correlation_sum(
                weight_default, tup, t_max, zero_table
            )
            spectral, sdiag = z.spectral_correlation_sum(
                weight_default, tup, t_max, zero_table
            )
            gap = abs(direct - spectral)
            budget = ddiag.claimed_error + sdiag.claimed_error
            margins.append((str(tup), t_max, gap, budget))
            assert gap <= budget, (tup, t_max, gap, budget)
    elapsed = time.monotonic() - start
    detail = "; ".join(f"{t}@T={T:g}: gap {g:.1e} <= {b:.1e}" for t, T, g, b in margins)
    _report(5, elapsed < 300.0, detail, elapsed)
    assert elapsed < 300.0


def test_criterion_6_profile_dip_reproduction(mangoldt_medium, zero_table):
    start = time.monotonic()
    cases = {
        (1, 1, -2): -1.18,
        (1, 1, -1, -1): -2.37,
        (1, 2, -3): -0.26,
    }
    summary = []
    for entries, quoted_depth in cases.items():
        tup = z.coefficient_tuple(list(entries))
        records = z.scan_minima(  # the grid's range is max |t| + step
            tup,
            z.scan_grid(10.0, 40.0, 0.02, 0.5)[0],
            z.series.kernel_profile_evaluator(tup, mangoldt_medium, 1e-3, 40.0 + 0.02),
        )
        dips = z.match_to_zeros(deep_minima(records), zero_table, window=0.5)
        assert len(dips) == 6, (entries, [r.t_min for r in dips])
        for rec, gamma in zip(dips, FIRST_SIX):
            assert rec.matched_gamma is not None and abs(rec.t_min - gamma) < 0.5
        deepest = min(rec.y_min for rec in dips)
        rel = abs(deepest - quoted_depth) / abs(quoted_depth)
        assert rel <= 0.30, (entries, deepest, quoted_depth)
        summary.append(f"{tup}: 6 dips, deepest {deepest:.3f} vs {quoted_depth}")
    elapsed = time.monotonic() - start
    _report(6, elapsed < 120.0, "; ".join(summary), elapsed)
    assert elapsed < 120.0


def test_criterion_7_zero_table_validation(zero_table):
    start = time.monotonic()
    report = z.validate_zero_table(zero_table, checkpoints=(100.0, 500.0, 1000.0))
    devs = {c["T"]: c["deviation"] for c in report.checkpoints}
    count_100 = z.zeros_up_to(zero_table, 100.0).size
    elapsed = time.monotonic() - start
    ok = all(devs[t] < 3.0 for t in (100.0, 500.0, 1000.0)) and count_100 == 29
    _report(
        7,
        ok and elapsed < 1.0,
        f"count(100)={count_100}, deviations "
        + ", ".join(f"T={t:g}: {devs[t]:.3f}" for t in (100.0, 500.0, 1000.0)),
        elapsed,
    )
    assert count_100 == 29
    for t in (100.0, 500.0, 1000.0):
        assert devs[t] < 3.0
    assert elapsed < 1.0


def test_criterion_8_trend_against_main_term(
    weight_default, zero_table, mangoldt_medium
):
    start = time.monotonic()
    rows = []
    violations = []
    for entries in ([1, 1, -2], [1, 1, -1, -1]):
        tup = z.coefficient_tuple(entries)
        scale_free = z.main_term(weight_default, tup, 1.0, mangoldt_medium, tol=1e-6)[0]
        for t_max in (100.0, 150.0, 200.0, 250.0, 300.0):
            direct, _ = z.direct_correlation_sum(weight_default, tup, t_max, zero_table)
            main = scale_free * t_max ** (tup.m - 1)
            ratio = direct / main
            rows.append((str(tup), t_max, direct, main, ratio))
            if not (math.copysign(1, direct) == math.copysign(1, main) and 0.2 <= ratio <= 5.0):
                violations.append((str(tup), t_max, ratio))
    elapsed = time.monotonic() - start
    detail = "; ".join(f"{t}@T={T:g}: ratio {r:.3f}" for t, T, _, _, r in rows)
    _report(8, not violations and elapsed < 600.0, detail, elapsed)
    assert elapsed < 600.0
    assert not violations, (
        "trend band [0.2, 5] violated at: "
        + ", ".join(f"{t} T={T:g} ratio={r:.3f}" for t, T, r in violations)
        + " - the lower-order repeated-ordinate tuples dominate the gap at this scale"
    )


def test_criterion_9_pruning_soundness(weight_default, zero_table):
    start = time.monotonic()
    checked = 0
    for k in range(1, 11):
        prefix = z.ZeroTable(
            ordinates=zero_table.ordinates[:k].copy(),
            source="prefix",
            precision_digits=zero_table.precision_digits,
        )
        t_max = float(prefix.ordinates[-1])
        for entries in ([1, 1, -2], [1, 1, -1, -1], [1, 2, -3]):
            tup = z.coefficient_tuple(entries)
            naive = naive_correlation_sum(weight_default, tup, t_max, prefix)
            pruned, _ = z.direct_correlation_sum(Unpruned(weight_default), tup, t_max, prefix)
            assert naive == pruned, (entries, k, naive, pruned)
            checked += 1
    elapsed = time.monotonic() - start
    _report(
        9, elapsed < 1.0, f"{checked} instances bit-identical to naive loops", elapsed
    )
    assert elapsed < 1.0
