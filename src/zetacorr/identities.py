"""Randomized verification suite for the exact cancellation identities.

Runs the two alternating-sum evaluators over random complex inputs for
all orders up to 6, the cosh product-to-sum expansion over random real
inputs, and the exact integer check that the Euler-product coefficients
b_m invert n^(m-1) under Dirichlet convolution.  Residual thresholds are
scale-relative where the identities cancel catastrophically by design.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field

from .arithmetic import b_coefficients
from .combinatorics import (
    alternating_multinomial_sum_scaled,
    cosh_product_identity,
    signed_power_sum_scaled,
)
from .errors import BudgetError

SCALED_RESIDUAL_TOL = 1e-9
COSH_RELATIVE_TOL = 1e-12
MAX_ORDER = 6  # the largest q of the cancellation sums and s of the cosh expansion
B_INVERSE_LIMIT = 10**4
B_INVERSE_MAX_POWER = 6
# the largest b_limit checked; its run takes about 13 s (2-CPU Xeon),
# and each of its Python-integer lists holds limit + 1 entries
B_INVERSE_BUDGET = 5 * 10**5
ITERATIONS_BUDGET = 2000  # the most iterations run, about 0.035 s each (2-CPU Xeon)


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
    `arithmetic.b_coefficients`, and the convolution is a divisor-sieve
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
    """Execute the full randomized suite; collect max residuals and violations.

    Raises:
        ValueError: iterations below 1, which would check no random case,
            or b_limit below 1, which would sieve nothing.
        BudgetError: b_limit above B_INVERSE_BUDGET, or iterations above
            ITERATIONS_BUDGET (checked before any work).
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    if b_limit < 1:
        raise ValueError(f"b_limit must be >= 1, got {b_limit}")
    if iterations > ITERATIONS_BUDGET:
        raise BudgetError(
            f"iterations {iterations} exceed the budget of {ITERATIONS_BUDGET}; "
            f"each takes about 0.035 s, so {ITERATIONS_BUDGET} run for about 70 s"
        )
    if b_limit > B_INVERSE_BUDGET:
        raise BudgetError(f"b_limit {b_limit} exceeds the budget of {B_INVERSE_BUDGET}")
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
