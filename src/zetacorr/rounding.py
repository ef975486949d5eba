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

Sums of many terms are correctly rounded (`exact_sum`): they add one
rounding, of at most U |sum|, whatever the order or partition of the
terms.
"""
from __future__ import annotations

import math

import numpy as np

U = 2.0**-53  # unit roundoff of float64
TRIG_ABS = 2.0 * U
ELEM_REL = 4.0 * U
MARGIN = 1.0 + 2.0**-40

_BINS = 2098  # frexp exponents of finite nonzero float64: -1073 ... 1024
_FLUSH = 2**24  # terms per flush: bin sums of 27-bit halves stay below 2^51
_PIECE = 2**12  # terms binned at once: each temporary is 32 KB, the direct route's BLOCK


def gamma(k: int) -> float:
    """Higham's gamma_k = k U / (1 - k U): k roundings, or an n = k + 1 term sum."""
    return k * U / (1.0 - k * U)


def exact_sum(arrays) -> float:
    """Correctly rounded sum of every value in a stream of float64 arrays.

    Equals math.fsum (Shewchuk 1997) over the same values in any order
    or split, except that fsum raises OverflowError when a partial sum
    overflows, while this raises it only when the rounded total does.
    With non-finite values it is math.fsum over those alone: nan, an
    infinity, or ValueError for both infinities.

    A superaccumulator (Neal 2015, arXiv:1505.05571): x = M 2^(e-53)
    with M = frexp mantissa * 2^53; M's 27-bit high and 26-bit low
    halves are binned by e, exactly in float64 while a flush holds at
    most _FLUSH terms (bin sums < 2^51); the bins add up as Python ints
    to K 2^-1126, and Python rounds K / 2^1126 correctly.
    """
    total, pending, specials = 0, 0, []
    hi_bins, lo_bins = np.zeros(_BINS), np.zeros(_BINS)
    only_negative_zeros, seen = True, False
    for array in arrays:
        flat = np.asarray(array, dtype=np.float64).ravel()
        for start in range(0, flat.size, _PIECE):
            chunk = flat[start : start + _PIECE]
            frac, exp = np.frexp(chunk)  # frexp passes inf and nan through; |frac| < 1 else
            if not math.isfinite(np.add.reduce(frac)):
                finite = np.isfinite(frac)
                specials.append(chunk[~finite])
                chunk, frac, exp = chunk[finite], frac[finite], exp[finite]
            if only_negative_zeros and chunk.size:
                seen = True
                only_negative_zeros = not chunk.any() and bool(np.signbit(chunk).all())
            if pending + chunk.size > _FLUSH:
                total += _bins_to_int(hi_bins, lo_bins)
                hi_bins[:], lo_bins[:], pending = 0.0, 0.0, 0
            pending += chunk.size
            mant = np.multiply(frac, 2.0**53, out=frac)
            hi = mant * 2.0**-26
            np.floor(hi, out=hi)
            index = np.add(exp, 1073, dtype=np.intp)  # bincount's index type, cast once
            hi_bins += np.bincount(index, hi, _BINS)
            hi *= 2.0**26
            lo_bins += np.bincount(index, np.subtract(mant, hi, out=mant), _BINS)  # low halves
    if specials:
        return math.fsum(np.concatenate(specials).tolist())
    total += _bins_to_int(hi_bins, lo_bins)
    if total == 0:
        # +0.0, unless every term was -0.0: then fsum's sign, which
        # depends on the Python version
        return math.fsum((-0.0,)) if seen and only_negative_zeros else 0.0
    return total / (1 << 1126)


def _bins_to_int(hi_bins: np.ndarray, lo_bins: np.ndarray) -> int:
    """Sum over bins b of (hi_b 2^26 + lo_b) 2^b, exactly."""
    total = 0
    for b in np.flatnonzero((hi_bins != 0.0) | (lo_bins != 0.0)).tolist():
        total += ((int(hi_bins[b]) << 26) + int(lo_bins[b])) << b
    return total
