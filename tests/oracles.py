"""Reference computations that the package is tested against."""
import math
from itertools import product

from zetacorr.correlation import _ordinates_for


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
