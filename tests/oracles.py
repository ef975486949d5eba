"""Reference computations that the package is tested against."""
import math
from fractions import Fraction
from itertools import product

import numpy as np

from zetacorr.correlation import _ordinates_for
from zetacorr.series import choose_truncation, profile_terms


def naive_correlation_sum(h, tup, t_max, zeros) -> float:
    """Unpruned enumeration of sum h(Delta) over ordinate m-tuples (n <= 40).

    Nested loops in ascending index order, the innermost coordinate
    evaluated as one row; all terms go to one math.fsum, so the result
    is their correctly rounded sum, which is what the direct route
    returns with an infinite cutoff.
    """
    gammas = _ordinates_for(zeros, t_max)
    n = gammas.size
    if n > 40:
        raise ValueError("naive enumeration is intended for tiny instances")
    *heads, a_mid, a_last = tup.entries
    terms = []
    for prefix in product(range(n), repeat=tup.m - 2):
        base = 0.0
        for coeff, idx in zip(heads, prefix):
            base = base + coeff * gammas[idx]
        for j in range(n):
            terms.extend(h.value(base + a_mid * gammas[j] + a_last * gammas).tolist())
    return math.fsum(terms)


def tuple_count_naive(tup, t_max, zeros, cutoff) -> int:
    """Number of ordinate m-tuples with |Delta| <= cutoff, from all n^m of them.

    Delta is summed left to right from 0.0, as in the naive loops, on
    one broadcast array of n^m entries (small tables only).
    """
    gammas = _ordinates_for(zeros, t_max)
    delta = 0.0
    for axis, a in enumerate(tup.entries):
        shape = [1] * tup.m
        shape[axis] = gammas.size
        delta = delta + a * gammas.reshape(shape)
    return int(np.count_nonzero(np.abs(delta) <= cutoff))


def triplet_value_unmasked(h, x):
    """h(x) of the Gaussian triplet with np.exp on every argument.

    The formula and order of operations of `GaussianTriplet.value`,
    which skips the arguments whose exp underflows to 0.
    """
    x = np.asarray(x, dtype=np.float64)
    c, s = h.center, h.width
    g = lambda u: np.exp(-math.pi * u * u)
    with np.errstate(over="ignore"):
        return g((x - c) / s) + g((x + c) / s) - 2.0 * g(x / s)


def dense_profile(tup, table, cfg):
    """y(t) = 2 sum_n w_n cos(t log n) with one cosine per truncation term.

    The same terms as `kernel_profile_evaluator` (w_n = Lambda(n)^m n^(-S),
    n <= the certified truncation for cfg.tolerance), summed directly at
    every t in blocks of 256, with numpy's pairwise sum over ascending n.
    """
    n_cut = choose_truncation(float(tup.positive_sum), tup.m, table, cfg)
    log_n, amp = profile_terms(tup, table, n_cut)

    def evaluate(ts):
        ts = np.asarray(ts, dtype=np.float64)
        out = np.empty_like(ts)
        for start in range(0, ts.size, 256):
            tb = ts[start : start + 256]
            out[start : start + 256] = 2.0 * (
                np.cos(tb[:, None] * log_n[None, :]) * amp[None, :]
            ).sum(axis=1)
        return out

    return evaluate


def sinc_product_naive(entries):
    """C of `sinc_product_exact` summed over all 2^m sign vectors, one by one."""
    abs_a = [abs(int(a)) for a in entries]
    m = len(abs_a)
    total = 0
    for eps in product((1, -1), repeat=m):
        b = sum(e * a for e, a in zip(eps, abs_a))
        if b:
            total += math.prod(eps) * (1 if b > 0 else -1) * b ** (m - 1)
    return Fraction(total, 2**m * math.factorial(m - 1) * math.prod(abs_a))
