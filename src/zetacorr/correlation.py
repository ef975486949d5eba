"""The correlation sum over zero ordinates, by two independent routes.

Direct route: sum h(a_1 g_1 + ... + a_m g_m) over all m-tuples of
ordinates up to T, as h(P - N) over index multisets of the positive and
negative halves, meeting in the middle (Horowitz and Sahni, J. ACM 21,
1974): only the window of the sorted half where |Delta| stays below the
weight's support cutoff contributes, found by binary search, and an
analytic bound on the rest joins the claimed error.  The result is the
correctly rounded sum of all terms (`rounding.exact_sum`).

Spectral route: the same sum as a trapezoid sum of hhat(xi) times the
product of geometric zero sums Q(a_k xi), at exact nodes j dx just
finer than the aliasing limit, whose error Poisson summation bounds in
closed form; the zero sums are `series.phase_sums`.  The claimed error
bounds the aliases, the tail and every rounding, and the result is
deterministic.
"""
from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction

import numpy as np

from .combinatorics import sinc_product_exact
from .errors import BudgetError, DomainError
from .rounding import ELEM_REL, MARGIN, U, exact_sum, gamma
from .series import SQRT2, closed_form_profile_integral, phase_sums
from .tuples import CoefficientTuple, coefficient_tuple
from .weights import SQRT_PI, TWO_PI, GaussianTriplet
from .zeros import ZeroTable, zeros_up_to

DIRECT_HALF_BUDGET = 80_000_000  # bound on n^(m-1), the index tuples of the longer half
# the direct route's steps; small, so that its arrays (32 KB at BLOCK) do not raise peak memory
PREFIXES = 2**11  # index tuples, or sorted multisets, of the streamed half per step
BLOCK = 2**12  # pairs of half values per call of h.value, plus at most one row
SAMPLES_PER_PERIOD = 16  # cap on the spectral rate, per period of the fastest phase
ALIAS_TARGET = 1e-16  # the alias bound the spectral rate aims for
MAIN_TERM_TOL = 1e-6  # default tolerance of the main term's certified tail


@dataclass(frozen=True)
class DirectDiagnostics:
    tuple_count: int
    pruned_fraction: float
    claimed_error: float
    cutoff: float
    h_evals: int


@dataclass(frozen=True)
class SpectralDiagnostics:
    grid_points: int
    xi_max: float
    dx: float
    alias_error: float
    tail_bound: float
    rounding_error: float
    claimed_error: float


def _multisets(gammas: np.ndarray, coeffs: list[int]):
    """Sum and multiplicity of each index multiset of a half, PREFIXES index tuples a step.

    Indices are nondecreasing within runs of equal coefficients (coeffs: |a|,
    ascending); sums run left to right from 0.0; multiplicities count index tuples.
    """
    n, k = gammas.size, len(coeffs)
    runs = [c for c in range(1, k) if coeffs[c - 1] == coeffs[c]]
    for start in range(0, n**k, PREFIXES):
        flat = np.arange(start, min(start + PREFIXES, n**k))
        d = [flat // n ** (k - 1 - c) % n for c in range(k)]  # np.unravel_index takes k <= 64
        keep = np.ones(d[0].size, bool)
        for c in runs:
            keep &= d[c - 1] <= d[c]
        d = [idx[keep] for idx in d]
        total, weight, j, tie = 0.0, 1.0, 1, 1
        for c, coeff in enumerate(coeffs):  # weight: j!/prod repeats! of the run so far, exact
            j, tie = (j + 1, np.where(d[c - 1] == d[c], tie + 1, 1)) if c in runs else (1, 1)
            weight = weight * j / tie
            total = total + coeff * gammas[d[c]]
        yield total, np.broadcast_to(weight, total.shape)


def direct_correlation_sum(
    h: GaussianTriplet,
    tup: CoefficientTuple,
    t_max: float,
    zeros: ZeroTable,
) -> tuple[float, DirectDiagnostics]:
    """Pruned exact enumeration of sum h(Delta) over ordinate m-tuples.

    Only tuples with |Delta| <= h.support_cutoff() are summed, and the
    claimed error bounds the rest.  A weight whose cutoff is inf prunes
    nothing and reproduces a naive full enumeration bit for bit
    (`Unpruned` and `naive_correlation_sum` in tests/oracles.py).

    Delta = P - N over the halves' multisets (`_multisets`).  The half with
    fewer is sorted; each value x of the other, streamed, takes its window
    of sorted values y by binary search, and h.value about BLOCK pairs a
    call.  As fl(x - y) = -fl(y - x) and h is even, a balanced tuple, with
    alike halves, walks only pairs p <= q of the sorted half.  Each h value
    enters exact_sum times its count of tuples, in power-of-two parts.

    Raises:
        DataError: T above the zero table's last ordinate (`zeros_up_to`).
        BudgetError: n^(m-1), which bounds the index tuples either half
            enumerates, would exceed the budget; the message names the
            ordinate below which T fits it.
    """
    gammas = zeros_up_to(zeros, t_max)
    n = gammas.size
    m = tup.m
    if n == 0:
        return 0.0, DirectDiagnostics(0, 0.0, 0.0, math.inf, 0)
    if n ** (m - 1) > DIRECT_HALF_BUDGET:
        fit = next(k for k in range(n) if (k + 1) ** (m - 1) > DIRECT_HALF_BUDGET)
        raise BudgetError(
            f"{n}^{m - 1} index tuples of a half exceed the direct-route budget of "
            f"{DIRECT_HALF_BUDGET:,}; T below {float(gammas[fit])!r} (ordinate {fit + 1}) fits"
        )
    cutoff = h.support_cutoff()
    claimed = float(n) ** m * h.value_bound_beyond(cutoff)
    size = lambda half: math.prod(math.comb(n + r - 1, r) for r in Counter(half).values())
    halves = [sorted(a for a in tup.entries if a > 0), sorted(-a for a in tup.entries if a < 0)]
    built, streamed = sorted(halves, key=size)
    sums, weights = map(np.concatenate, zip(*_multisets(gammas, built)))
    sums, weights = sums[order := np.argsort(sums, kind="stable")], weights[order]
    mirror = tup.is_balanced  # coprime values: alike halves only for all +-1
    if mirror:  # a pair p < q stands for (q, p) too
        steps = range(0, sums.size, PREFIXES)
        stream = ((sums[p : p + PREFIXES], 2.0 * weights[p : p + PREFIXES], p) for p in steps)
    else:
        stream = ((x, wx, None) for x, wx in _multisets(gammas, streamed) if x.size)
    hits = evals = 0

    def terms():
        nonlocal hits, evals
        for x, wx, first in stream:  # a mirror row starts at its own position
            lo = np.arange(first, first + x.size) if mirror else np.searchsorted(sums, x - cutoff)
            counts = np.maximum(np.searchsorted(sums, x + cutoff, side="right") - lo, 0)
            ends = np.cumsum(counts)
            evals += int(ends[-1])
            # runs of rows holding about BLOCK pairs each
            cuts = np.searchsorted(ends, np.arange(BLOCK, ends[-1] + BLOCK, BLOCK), "right")
            for r0, r1 in zip([0, *cuts], cuts):
                if r0 == r1:
                    continue
                rows, start = counts[r0:r1], ends[r0:r1] - counts[r0:r1]
                pos = np.arange(start[0], ends[r1 - 1]) + np.repeat(lo[r0:r1] - start, rows)
                values = h.value(np.repeat(x[r0:r1], rows) - sums[pos])
                weight = np.repeat(wx[r0:r1], rows)
                weight *= weights[pos]
                if mirror:  # p = q, the first pair of its row, counts once
                    weight[start - start[0]] *= 0.5
                hits += int(weight.sum())
                while values.size:  # in power-of-two parts, each product exact
                    # the largest power of two in weight: its mantissa bits cleared
                    top = (weight.view(np.int64) & -(2**52)).view(np.float64)
                    rest = weight > top
                    part, values, weight = values, values[rest], weight[rest] - top[rest]
                    part *= top
                    del top, rest  # before exact_sum's temporaries, which set peak memory
                    yield part

    value = exact_sum(terms())
    return value, DirectDiagnostics(
        tuple_count=hits,
        pruned_fraction=1.0 - hits / float(n) ** m,
        claimed_error=claimed,
        cutoff=cutoff,
        h_evals=evals,
    )


def _zero_sums(gammas: np.ndarray, a: int, dx: float, count: int):
    """Q(a j dx) = sum over ordinates of e^(2 pi i a j dx gamma) for j < count, and a bound.

    Q is `phase_sums` of g = fl(fl(fl(2 pi) a) dx) gamma, four roundings and so
    within gamma_4 |g| of 2 pi a dx gamma; the nodes j dx are exact.
    """
    return phase_sums((TWO_PI * a * dx) * gammas, count, gamma(4))


def _alias_bound(h: GaussianTriplet, amp: float, delta_max: float, rate: float) -> float:
    """Bound on the sum over k != 0 and amp tuples of |h(Delta - k rate)|.

    |Delta - k rate| >= |k| rate - delta_max: below k0, |h| <= 3; beyond x0
    >= c, `value_bound_beyond` decreases, so its sum over k >= k0 is at most
    its value at x0 plus its integral beyond x0 over rate.  8U covers roundings.
    """
    c, s = h.center, h.width
    k0 = max(1.0, float(np.ceil((delta_max + c) * (1.0 + 8.0 * U) / rate)))
    x0 = max(c, (k0 * rate - delta_max) - 8.0 * U * (k0 * rate + delta_max))
    tail = 1.5 * s / rate * math.erfc(SQRT_PI * (x0 - c) / s)
    return 2.0 * amp * (3.0 * (k0 - 1.0) + h.value_bound_beyond(x0) + tail)


def spectral_correlation_sum(
    h: GaussianTriplet,
    tup: CoefficientTuple,
    t_max: float,
    zeros: ZeroTable,
) -> tuple[float, SpectralDiagnostics]:
    """Correlation sum as the trapezoid sum 2 dx Re sum_(j >= 0) F(j dx).

    F(xi) = hhat(xi) prod_k Q(a_k xi), Q the geometric sum over ordinates
    up to T (its conjugate for a_k < 0); F(-xi) = conj F(xi), and F(0) = 0
    makes the weight 1/2 of j = 0 moot.  By Poisson summation the sum over
    all j is H plus the aliases h(Delta - k / dx), k != 0 (`_alias_bound`).
    With the a_k summing to 0, |Delta| <= Delta_max = (sum of positive a_k)
    (gamma_n - gamma_1), and the rate 1/dx = min(Delta_max + X,
    SAMPLES_PER_PERIOD sum|a_k| T), X = c + s sqrt(ln(6 N^m / ALIAS_TARGET)
    / pi), keeps them near ALIAS_TARGET (Trefethen and Weideman, SIAM
    Review 56, 2014).  J dx >= xi_max, and as |hhat|'s envelope decreases,
    the terms beyond J, amplified by |Q|^m <= N^m, stay below `tail_bound`.

    The claimed error adds `rounding_error`, a bound on |full - S| for the
    exact trapezoid sum S, in the floating-point model of `rounding`:
    - zero sums: each Q~ is within e of Q, the bound of `phase_sums` given
      the error of forming its phases (`_zero_sums`);
    - product: with U_l = |Q~_l| + e_l >= |Q_l|, |prod Q~ - prod Q| <= sum_k
      e_k prod_(l!=k) U_l (telescoping), and the m - 1 complex products and
      the real product by hhat add expm1((m-1) sqrt2 gamma_2 + U) |hhat~| prod |Q~|;
    - hhat: off by `GaussianTriplet.hat_rounding_bound`, times prod U_l;
    - sum: exact_sum and the scaling by 2 dx add expm1(2U) |full|.
    """
    gammas = zeros_up_to(zeros, t_max)
    n = gammas.size
    if n == 0:
        return 0.0, SpectralDiagnostics(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    amp = float(n) ** tup.m
    xi_max = 0.5
    while 2.0 * amp * h.hat_tail_integral(xi_max) > 1e-10 and xi_max < 50.0:
        xi_max *= 1.25
    tail = 2.0 * amp * h.hat_tail_integral(xi_max)
    delta_max = tup.positive_sum * float(gammas[-1] - gammas[0])
    reach = h.center + h.width * math.sqrt(math.log(6.0 * amp / ALIAS_TARGET) / math.pi)
    rate = min(delta_max + reach, SAMPLES_PER_PERIOD * 2 * tup.positive_sum * t_max)
    # dx >= 1/rate, rounded up to so few bits that every node j dx is exact
    top = math.ceil(xi_max * rate) + 1  # J = ceil(xi_max / dx) <= top
    exp = math.frexp(1.0 / rate)[1] - (53 - top.bit_length())
    dx = math.ldexp(math.ceil(1 / (Fraction(rate) * Fraction(2) ** exp)), exp)
    points = math.ceil(Fraction(xi_max) / Fraction(dx)) + 1
    xi = np.arange(points, dtype=np.float64) * dx
    counts = Counter(sorted(abs(a) for a in tup.entries))
    q, abs_prod, upper, spread = {}, 1.0, 1.0, 0.0
    for a, count in counts.items():
        q[a], e = _zero_sums(gammas, a, dx, points)
        mag = np.abs(q[a])
        abs_prod = abs_prod * mag**count
        upper = upper * (mag + e) ** count
        spread = spread + count * e / (mag + e)
    prod = math.prod(q[a] if a > 0 else np.conj(q[-a]) for a in tup.entries)
    hat = h.hat(xi)
    product_rel = math.expm1((tup.m - 1) * SQRT2 * gamma(2) + U)
    err = np.abs(hat) * (product_rel * abs_prod + upper * spread) + h.hat_rounding_bound(xi) * upper
    full = 2.0 * dx * exact_sum((hat * prod.real,))
    alias = _alias_bound(h, amp, delta_max, 1.0 / dx)
    rounding = MARGIN * (2.0 * dx * exact_sum((err,)) + math.expm1(2.0 * U) * abs(full))
    return full, SpectralDiagnostics(
        grid_points=points,
        xi_max=xi_max,
        dx=dx,
        alias_error=alias,
        tail_bound=tail,
        rounding_error=rounding,
        claimed_error=alias + tail + rounding,
    )


def leading_constant(tup: CoefficientTuple) -> tuple[float, Fraction]:
    """D = (-1)^m C / (2 pi)^m, and C, the exact rational `sinc_product_exact`.

    Raises:
        DomainError: (2 pi)^m overflows float64 (m above 386), checked
            before C is computed.
    """
    try:
        scale = TWO_PI**tup.m
    except OverflowError:
        raise DomainError(f"(2 pi)^{tup.m} overflows float64") from None
    c = sinc_product_exact(tup.entries)
    return (-1.0) ** tup.m * float(c) / scale, c


def main_term(
    h: GaussianTriplet,
    tup: CoefficientTuple,
    t_max: float,
    table,
    tol: float = MAIN_TERM_TOL,
) -> tuple[float, float, int]:
    """Leading asymptotic D * T^(m-1) * integral of h(t) y(t) dt.

    D is `leading_constant`'s first value.  The integral is the closed-form sum
    2 sum_{n<=N} Lambda(n)^m n^(-S) hhat(log n / 2 pi), its truncated
    tail certified below tol (`closed_form_profile_integral`).  Returns
    the value, its claimed error and N.  The claimed error is the sum's
    tail and rounding bound scaled by |D| T^(m-1), plus the rounding of
    that scale and of the product: m + 4 roundings and two powers.
    """
    integral, rounding, tail, n_cut = closed_form_profile_integral(h, tup, table, tol)
    scale = leading_constant(tup)[0] * t_max ** (tup.m - 1)
    value = scale * integral
    claimed = abs(scale) * (rounding + tail) + math.expm1(
        (tup.m + 4) * U + 2.0 * ELEM_REL
    ) * abs(value)
    return value, MARGIN * claimed, n_cut


@dataclass
class CorrelationReport:
    """Both route values, the predicted main term, and diagnostics."""

    tuple_entries: tuple[int, ...]
    t_max: float
    h_params: dict
    h_direct: float
    h_spectral: float
    main_term: float
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["tuple_entries"] = list(self.tuple_entries)
        return json.dumps(payload, indent=2)

    def csv_row(self) -> dict:
        return {
            "tuple": CoefficientTuple(self.tuple_entries).compact,
            "T": self.t_max,
            "H_direct": self.h_direct,
            "H_spectral": self.h_spectral,
            "main_term": self.main_term,
            "H_direct_scaled": self.diagnostics.get("h_direct_scaled"),
            "main_term_scaled": self.diagnostics.get("main_term_scaled"),
        }


def build_report(
    h: GaussianTriplet,
    tup: CoefficientTuple,
    t_max: float,
    zeros: ZeroTable,
    table,
    tol: float = MAIN_TERM_TOL,
) -> CorrelationReport:
    """Run both routes plus the main term and assemble the report.

    Raises:
        DomainError: T^(m-1) overflows float64 (checked first), or a value
            of the report is nan or infinite, which strict JSON cannot hold
            (a weight too wide or too far out for double precision).
    """
    try:
        scale = t_max ** (tup.m - 1)
    except OverflowError:
        raise DomainError(f"T^(m-1) = {t_max:g}^{tup.m - 1} overflows float64") from None
    h_direct, ddiag = direct_correlation_sum(h, tup, t_max, zeros)
    h_spectral, sdiag = spectral_correlation_sum(h, tup, t_max, zeros)
    main, main_claimed, n_cut = main_term(h, tup, t_max, table, tol=tol)
    diagnostics = {
        "tuple_count": ddiag.tuple_count,
        "pruned_fraction": ddiag.pruned_fraction,
        "direct_h_evals": ddiag.h_evals,
        "spectral_grid": sdiag.grid_points,
        "claimed_errors": {
            "direct": ddiag.claimed_error,
            "spectral": sdiag.claimed_error,
        },
        "h_direct_scaled": h_direct / scale,
        "h_spectral_scaled": h_spectral / scale,
        "main_term_scaled": main / scale,
        "main_term_claimed_error": main_claimed,
        "main_term_terms": n_cut,
        "route_gap": abs(h_direct - h_spectral),
        "spectral_alias_error": sdiag.alias_error,
        "spectral_tail_bound": sdiag.tail_bound,
        "spectral_rounding_error": sdiag.rounding_error,
        "spectral_xi_max": sdiag.xi_max,
    }
    report = CorrelationReport(
        tuple_entries=tup.entries,
        t_max=t_max,
        h_params=h.to_config_dict(),
        h_direct=h_direct,
        h_spectral=h_spectral,
        main_term=main,
        diagnostics=diagnostics,
    )
    bad = _non_finite(asdict(report))
    if bad:
        raise DomainError(
            f"{tup} at T={t_max:g} with c={h.center:g}, s={h.width:g}: "
            f"not finite: {', '.join(bad)}"
        )
    return report


def _non_finite(values: dict, prefix: str = "") -> list[str]:
    """Dotted keys of the floats in a nested dict that are nan or infinite."""
    found = []
    for key, value in values.items():
        if isinstance(value, dict):
            found += _non_finite(value, f"{prefix}{key}.")
        elif isinstance(value, float) and not math.isfinite(value):
            found.append(prefix + key)
    return found


def routes_agree(report: CorrelationReport) -> bool:
    """Check the cross-route invariant |direct - spectral| <= claimed sum."""
    claimed = report.diagnostics["claimed_errors"]
    return report.diagnostics["route_gap"] <= claimed["direct"] + claimed["spectral"]


def parse_tuple_text(text: str) -> CoefficientTuple:
    """Parse '1,1,-2' into a validated coefficient tuple."""
    try:
        entries = [int(part) for part in text.replace(" ", "").split(",") if part]
    except ValueError as exc:
        raise ValueError(f"cannot parse tuple {text!r}: {exc}") from exc
    return coefficient_tuple(entries)
