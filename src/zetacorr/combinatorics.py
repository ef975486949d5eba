"""Exact rational constants and the cancellation identities behind them.

Everything rational here runs on ``fractions.Fraction`` (arbitrary
precision, always in lowest terms), so the table of leading correlation
coefficients reproduces exactly.  The two alternating-sum evaluators
exist as numeric oracles: they evaluate sums whose theoretical value is
zero by catastrophic cancellation, returning the float residual together
with the scale of the largest intermediate term so callers can assert
scale-relative smallness.

All functions are pure and safe to call concurrently.
"""
from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, product

from .errors import BudgetError

COSH_ARG_LIMIT = 30.0
MAX_CANCELLATION_ORDER = 8  # subset enumeration is exponential beyond this
MAX_SIGN_CLASSES = 2**20  # sign classes sinc_product_exact may enumerate


def multinomial(top: int, parts: list[int] | tuple[int, ...]) -> int:
    """Exact multinomial coefficient top! / (parts[0]! * parts[1]! * ...).

    Raises:
        ValueError: parts do not sum to top, or a part is negative.
    """
    if top < 0 or any(p < 0 for p in parts):
        raise ValueError("multinomial arguments must be nonnegative")
    if sum(parts) != top:
        raise ValueError(f"parts sum to {sum(parts)}, expected {top}")
    out, rem = 1, top
    for p in parts:
        out *= math.comb(rem, p)
        rem -= p
    return out


def _cancellation_order(values: list[complex], r: int) -> int:
    """q = len(values), with 2 <= q <= MAX_CANCELLATION_ORDER and 1 <= r < q checked."""
    q = len(values)
    if not 2 <= q <= MAX_CANCELLATION_ORDER:
        raise ValueError(f"need 2 <= q <= {MAX_CANCELLATION_ORDER}, got q={q}")
    if not 1 <= r < q:
        raise ValueError(f"require 1 <= r < q, got r={r}, q={q}")
    return q


@lru_cache(maxsize=None)
def _compositions(total: int, slots: int) -> tuple[tuple[int, ...], ...]:
    """All tuples of `slots` nonnegative integers summing to `total`."""
    if slots == 1:
        return ((total,),)
    out = []
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            out.append((first,) + rest)
    return tuple(out)


def alternating_multinomial_sum_scaled(
    x: list[complex], r: int
) -> tuple[complex, float]:
    """Residual of the alternating subset/multinomial cancellation sum.

    Evaluates, literally, the sign-alternating sum over nonempty subsets
    {k_1 < ... < k_s} of indices and nonnegative exponent splits
    j_{k_1} + ... + j_{k_s} = r of

        (-1)^(s-1) * (2r)! / ((2 j_{k_1})! ... (2 j_{k_s})!) * prod x_k^(j_k).

    The theoretical value is 0 for 1 <= r < len(x).

    Returns:
        (residual, scale): the floating-point residual left after
        cancellation, and the largest |term| encountered; suitable for
        asserting |residual| <= tol * scale.
    """
    q = _cancellation_order(x, r)
    # per-index power tables x_k^j for j <= r
    powers = [[complex(1.0)] * (r + 1) for _ in range(q)]
    for k in range(q):
        for j in range(1, r + 1):
            powers[k][j] = powers[k][j - 1] * x[k]
    total = complex(0.0)
    scale = 0.0
    for s in range(1, q + 1):
        sign = -1.0 if (s - 1) % 2 else 1.0
        for subset in combinations(range(q), s):
            for js in _compositions(r, s):
                coeff = multinomial(2 * r, tuple(2 * j for j in js))
                mono = complex(1.0)
                for k, j in zip(subset, js):
                    mono *= powers[k][j]
                term = sign * coeff * mono
                total += term
                scale = max(scale, abs(term))
    return total, scale


def signed_power_sum_scaled(alpha: list[complex], r: int) -> tuple[complex, float]:
    """Residual of the signed even-power cancellation sum, and its term scale.

    Evaluates the sum over nonempty subsets {k_1 < ... < k_s} and sign
    vectors (eps_2, ..., eps_s) in {-1,+1} of

        2^(q-s) * (-1)^(s-1) * (a_{k_1} + eps_2 a_{k_2} + ... + eps_s a_{k_s})^(2r),

    which is 0 in exact arithmetic for 1 <= r < q.  Returns the residual
    and the largest |term|, as `alternating_multinomial_sum_scaled`.
    """
    q = _cancellation_order(alpha, r)
    total = complex(0.0)
    scale = 0.0
    for s in range(1, q + 1):
        pref = float(2 ** (q - s)) * (-1.0 if (s - 1) % 2 else 1.0)
        for subset in combinations(range(q), s):
            base = alpha[subset[0]]
            for signs in product((1.0, -1.0), repeat=s - 1):
                acc = base
                for eps, k in zip(signs, subset[1:]):
                    acc += eps * alpha[k]
                term = pref * acc ** (2 * r)
                total += term
                scale = max(scale, abs(term))
    return total, scale


def cosh_product_identity(a_values: list[float]) -> tuple[float, float]:
    """Both sides of the cosh product-to-sum expansion, evaluated literally.

    lhs = prod 2*cosh(A_l); rhs = sum over sign vectors (eps_2..eps_s) of
    2*cosh(A_1 + eps_2 A_2 + ... + eps_s A_s).  Caller asserts agreement.

    Raises:
        ValueError: fewer than two values, or |A_l| beyond the overflow guard.
    """
    s = len(a_values)
    if s < 2:
        raise ValueError("need at least two values")
    if any(abs(a) > COSH_ARG_LIMIT for a in a_values):
        raise ValueError(f"|A| must be <= {COSH_ARG_LIMIT} to avoid overflow")
    lhs = 1.0
    for a in a_values:
        lhs *= 2.0 * math.cosh(a)
    rhs = 0.0
    for signs in product((1.0, -1.0), repeat=s - 1):
        acc = a_values[0]
        for eps, a in zip(signs, a_values[1:]):
            acc += eps * a
        rhs += 2.0 * math.cosh(acc)
    return lhs, rhs


def balanced_coefficient(r: int) -> Fraction:
    """Exact value of c(r) * pi^(2r) for the balanced +-1 tuple of length 2r.

    c(r) is the leading coefficient of the correlation asymptotic for the
    tuple of r entries +1 and r entries -1; the pi power is folded in so
    the result is rational: c(r) * pi^(2r) = C / 4^r, with C the
    :func:`sinc_product_exact` of that tuple.

    Raises:
        ValueError: r < 1.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    return sinc_product_exact((1,) * r + (-1,) * r) / 4**r


def balanced_sinc_constant(r: int) -> Fraction:
    """Exact C constant for the balanced +-1 tuple of length m = 2r.

    Raises:
        ValueError: r < 2 (the balanced tuple needs m = 2r >= 4).
    """
    if r < 2:
        raise ValueError("balanced tuple needs r >= 2")
    return sinc_product_exact((1,) * r + (-1,) * r)


def sinc_product_exact(entries: tuple[int, ...]) -> Fraction:
    """Exact C = (1/pi) * integral over R of prod_k sin(a_k w)/(a_k w) dw.

    The product of sines is a signed sum of sin((eps . a) w) over sign
    vectors eps, and the integral of sin(b w)/w^m follows from b^(m-1)
    sgn(b), which gives

        C = sum_eps (prod eps) sgn(eps . a) (eps . a)^(m-1) / (2^m (m-1)! prod |a_k|).

    Depends only on the multiset of |a_k|, so the sign vectors are taken
    by class: for a value v held k times, the comb(k, j) vectors giving
    j of its copies a plus sign each add (2j - k) v to eps . a and
    (-1)^(k-j) to prod eps.  That is prod (k + 1) classes, where the
    vectors number 2^m.

    Raises:
        ValueError: fewer than two entries, or a zero entry.
        BudgetError: more than MAX_SIGN_CLASSES classes (checked
            before any is enumerated).
    """
    abs_a = [abs(int(a)) for a in entries]
    m = len(abs_a)
    if m < 2 or 0 in abs_a:
        raise ValueError("need at least two nonzero entries")
    counts = Counter(abs_a)
    classes = math.prod(k + 1 for k in counts.values())
    if classes > MAX_SIGN_CLASSES:
        raise BudgetError(
            f"{classes} sign classes of {len(counts)} distinct |a_k| exceed "
            f"the budget of {MAX_SIGN_CLASSES}"
        )
    signed = {0: 1}  # eps . a -> sum of prod eps over the vectors so far
    for v, k in counts.items():
        grown = defaultdict(int)
        for b, weight in signed.items():
            for j in range(k + 1):
                grown[b + (2 * j - k) * v] += weight * math.comb(k, j) * (-1) ** (k - j)
        signed = grown
    total = sum(w * (1 if b > 0 else -1) * b ** (m - 1) for b, w in signed.items() if b)
    return Fraction(total, 2**m * math.factorial(m - 1) * math.prod(abs_a))


def sinc_product_digits(entries: tuple[int, ...]) -> float:
    """A bound on the digits of `sinc_product_exact(entries)`'s numerator and denominator.

    The denominator divides 2^m (m-1)! prod |a_k|, and 2 (m-1)! prod |a_k|
    when sum |a_k| is even: every eps . a then is, and 2^(m-1) divides
    (eps . a)^(m-1).  |C| <= 1, so the numerator is no longer.
    """
    abs_a = [abs(int(a)) for a in entries]
    twos = 1 if sum(abs_a) % 2 == 0 else len(abs_a)
    log_den = twos * math.log(2) + math.lgamma(len(abs_a)) + sum(map(math.log, abs_a))
    return 1.0 + log_den / math.log(10) * (1.0 + 1e-9)  # 1e-9 covers the logs' roundings


def dip_depth_prediction(m: int, s_plus: int) -> float:
    """Predicted depth -2*(m-1)!/(s_plus - 1/2)^m of the profile dips.

    ``s_plus`` is the sum of the positive tuple entries.

    Raises:
        ValueError: m < 2 or s_plus < 1.
    """
    if m < 2 or s_plus < 1:
        raise ValueError("require m >= 2 and s_plus >= 1")
    return -2.0 * math.factorial(m - 1) / (s_plus - 0.5) ** m
