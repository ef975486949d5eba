"""Integer coefficient tuples for correlation sums.

A valid tuple has length >= 3, only nonzero entries, zero sum, and any
two distinct values coprime.  Derived quantity: the positive-part sum S
(the height at which the series kernel is evaluated); by the zero sum,
the absolute values sum to 2S.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

MAX_VALUE_BITS = 2**17  # of all distinct values: the coprimality check takes time ~ its square


@dataclass(frozen=True)
class CoefficientTuple:
    """Validated correlation-sum coefficients.

    Build through :func:`coefficient_tuple`, which raises ValueError
    naming the violated invariant.
    """

    entries: tuple[int, ...]

    @property
    def m(self) -> int:
        return len(self.entries)

    @property
    def positive_sum(self) -> int:
        """Sum of the positive entries; the kernel evaluation height."""
        return sum(a for a in self.entries if a > 0)

    @property
    def is_balanced(self) -> bool:
        """True when the tuple is all +-1 (equal counts, by zero sum)."""
        return all(abs(a) == 1 for a in self.entries)

    def __str__(self) -> str:
        return "(" + ",".join(str(a) for a in self.entries) + ")"

    @property
    def compact(self) -> str:
        """Comma-free display form, e.g. '+1+1-2' (safe in CSV headers)."""
        return "".join(("+" if a > 0 else "") + str(a) for a in self.entries)


def coefficient_tuple(entries) -> CoefficientTuple:
    """Validate and freeze a coefficient tuple.

    Raises:
        ValueError: with the violated invariant named, if the length is
            below 3, an entry is zero, the sum is nonzero, the distinct
            values take more than MAX_VALUE_BITS bits, or two of them
            share a factor.
    """
    tup = tuple(int(a) for a in entries)
    if len(tup) < 3:
        raise ValueError(f"tuple length must be >= 3, got {len(tup)}")
    if any(a == 0 for a in tup):
        raise ValueError("tuple entries must be nonzero")
    if sum(tup) != 0:
        raise ValueError(f"tuple entries must sum to 0, got {sum(tup)}")
    values = sorted(set(tup))
    bits = sum(a.bit_length() for a in values)
    if bits > MAX_VALUE_BITS:
        raise ValueError(f"distinct tuple values take {bits} bits, over the budget {MAX_VALUE_BITS}")
    product = 1  # of the values so far: one gcd a value
    for i, b in enumerate(values):
        if math.gcd(product, b) != 1:
            a = next(a for a in values[:i] if math.gcd(a, b) != 1)
            raise ValueError(f"distinct tuple values {a} and {b} must be coprime")
        product *= b
    return CoefficientTuple(entries=tup)
