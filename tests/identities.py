"""Randomized verification suite for the exact cancellation identities.

The paper's proof rests on sums whose exact value is known: the
alternating multinomial and signed even-power sums (0 for 1 <= r < q),
the cosh product-to-sum expansion, and the Euler-product coefficients
b_m that invert n^(m-1) under Dirichlet convolution.  The evaluators
here compute them literally, in floats for the first three, returning
the residual left by cancellation with the scale of the largest
intermediate term, so callers can assert scale-relative smallness; the
convolution is checked exactly in Python integers.  Acceptance
criterion 3 runs `run_identity_suite`; `test_combinatorics.py` checks
the evaluators one at a time.
"""
from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations, product

from oracles import b_coefficients

COSH_ARG_LIMIT = 30.0
MAX_CANCELLATION_ORDER = 8  # subset enumeration is exponential beyond this
SCALED_RESIDUAL_TOL = 1e-9
COSH_RELATIVE_TOL = 1e-12
MAX_ORDER = 6  # the largest q of the cancellation sums and s of the cosh expansion
B_INVERSE_LIMIT = 10**4
B_INVERSE_MAX_POWER = 6


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


@dataclass
class IdentitySuiteResult:
    seed: int
    iterations: int
    max_scaled_residual_multinomial: float = 0.0
    max_scaled_residual_power: float = 0.0
    max_relative_gap_cosh: float = 0.0
    b_inverse_checked: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def _random_complex(rng: random.Random) -> complex:
    return complex(rng.uniform(-1.0, 1.0), rng.uniform(-1.0, 1.0))


def b_inverse_convolution(limit: int, m: int) -> list[int]:
    """sum_{d e = k} d^(m-1) b_m(e) for every k <= limit, exactly.

    The expected value is 1 for all k; b_m is the Euler product from
    `oracles.b_coefficients`, and the convolution is a divisor-sieve
    pass in Python integers.
    """
    b = b_coefficients(m, limit)
    acc = [0] * (limit + 1)
    for d in range(1, limit + 1):
        weight = d ** (m - 1)
        for k in range(d, limit + 1, d):
            acc[k] += weight * b[k // d]
    return acc[1:]


def run_identity_suite(
    seed: int = 0,
    iterations: int = 100,
    b_limit: int = B_INVERSE_LIMIT,
) -> IdentitySuiteResult:
    """Execute the full randomized suite; collect max residuals and violations."""
    rng = random.Random(seed)
    result = IdentitySuiteResult(seed=seed, iterations=iterations)
    sums = (
        ("multinomial", alternating_multinomial_sum_scaled, "max_scaled_residual_multinomial"),
        ("signed-power", signed_power_sum_scaled, "max_scaled_residual_power"),
    )
    for q in range(2, MAX_ORDER + 1):
        for r in range(1, q):
            for _ in range(iterations):
                for label, evaluate, worst in sums:
                    residual, scale = evaluate([_random_complex(rng) for _ in range(q)], r)
                    scaled = abs(residual) / max(scale, 1.0)
                    setattr(result, worst, max(getattr(result, worst), scaled))
                    if scaled > SCALED_RESIDUAL_TOL:
                        result.violations.append(
                            f"{label} q={q} r={r}: scaled residual {scaled:.3e}"
                        )
    for s in range(2, MAX_ORDER + 1):
        for _ in range(iterations):
            a_vals = [rng.uniform(-3.0, 3.0) for _ in range(s)]
            lhs, rhs = cosh_product_identity(a_vals)
            rel = abs(lhs - rhs) / abs(lhs)
            result.max_relative_gap_cosh = max(result.max_relative_gap_cosh, rel)
            if rel > COSH_RELATIVE_TOL:
                result.violations.append(f"cosh s={s}: relative gap {rel:.3e}")
    for m in range(2, B_INVERSE_MAX_POWER + 1):
        conv = b_inverse_convolution(b_limit, m)
        bad = [k + 1 for k, v in enumerate(conv) if v != 1]
        result.b_inverse_checked += len(conv)
        if bad:
            result.violations.append(
                f"inverse convolution m={m}: first failure at k={bad[0]}"
            )
    return result
