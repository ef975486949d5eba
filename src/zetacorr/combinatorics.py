"""Exact constants: the sinc-product constant C, the balanced coefficients, the dip depth.

Everything rational here runs on ``fractions.Fraction`` (arbitrary
precision, always in lowest terms), so the table of leading correlation
coefficients reproduces exactly.

All functions are pure and safe to call concurrently.
"""
from __future__ import annotations

import math
from collections import Counter, defaultdict
from fractions import Fraction

from .errors import BudgetError

MAX_SIGN_CLASSES = 2**20  # sign classes sinc_product_exact may enumerate


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

    ``s_plus`` is the sum of the positive tuple entries.  One correctly
    rounded quotient of integers, so no factor overflows float64 alone.

    Raises:
        ValueError: m < 2 or s_plus < 1.
    """
    if m < 2 or s_plus < 1:
        raise ValueError("require m >= 2 and s_plus >= 1")
    return -(2 ** (m + 1) * math.factorial(m - 1)) / (2 * s_plus - 1) ** m
