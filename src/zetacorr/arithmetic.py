"""Integer-arithmetic substrate: the prime-power sieve.

The von Mangoldt table lists the prime powers n = p^k up to a limit,
ascending, each with its base prime p.  Lambda(n) = log(p) is therefore
always computed from the exact integer p, never stored rounded, and
Lambda(n)^m = (log p)^m costs one pow per use at full double precision.

Tables are immutable after construction and safe for concurrent reads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SIEVE_LIMIT_CAP = 10**8


def _odd_sieve(limit: int) -> np.ndarray:
    """Eratosthenes over the odd numbers up to limit: entry i marks 2 i + 1, but entry 0 marks 2."""
    odd = np.ones((limit + 1) // 2, dtype=bool)
    odd[0] = limit >= 2
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:  # cross out the odd multiples of p = 2 i + 1 from p^2 = 2 (2 i (i + 1)) + 1
            odd[2 * i * (i + 1) :: 2 * i + 1] = False
    return odd


def _listed(odd: np.ndarray) -> np.ndarray:
    """The numbers an `_odd_sieve` bitmap (or a head of one) marks, ascending."""
    n = np.flatnonzero(odd)
    n *= 2
    n += 1
    return np.maximum(n, 2, out=n)  # entry 0 stands for 2


@dataclass(frozen=True)
class MangoldtTable:
    """The prime powers n_j = p^k <= limit, ascending, and their base primes.

    Entry j of every array belongs to the j-th prime power: ``prime_powers``
    holds n_j, ``base_prime`` its prime p, ``base_log`` log(p) and
    ``power_index`` the exponent k.  ``psi`` is the cumulative Chebyshev sum:
    psi[j] = sum of log(p) over the first j+1 prime powers.
    """

    limit: int
    base_prime: np.ndarray = field(repr=False)
    prime_powers: np.ndarray = field(repr=False)
    base_log: np.ndarray = field(repr=False)
    power_index: np.ndarray = field(repr=False)
    psi: np.ndarray = field(repr=False)

    def psi_at(self, x: float) -> float:
        """Chebyshev psi(x) = sum of Lambda(n) for n <= x, exact from the table."""
        if x > self.limit:
            raise ValueError(f"x={x} beyond sieve limit {self.limit}")
        j = int(np.searchsorted(self.prime_powers, x, side="right"))
        return float(self.psi[j - 1]) if j else 0.0


def sieve_mangoldt(limit: int) -> MangoldtTable:
    """Sieve the prime powers up to limit, ascending, from one odd-only bitmap and the powers of 2.

    Raises:
        ValueError: limit < 1 or above the configured cap.
    """
    if limit < 1:
        raise ValueError("sieve limit must be >= 1")
    if limit > SIEVE_LIMIT_CAP:
        raise ValueError(f"sieve limit {limit} exceeds cap {SIEVE_LIMIT_CAP}")
    odd = _odd_sieve(limit)
    p = _listed(odd[: (math.isqrt(limit) + 1) // 2])  # the primes up to sqrt(limit)
    pk, k, powers = p, 1, [(p[:0],) * 3]
    while (p := p[keep := pk <= limit // p]).size:
        pk, k = pk[keep] * p, k + 1
        powers.append((pk, p, np.full(p.size, k)))
    n, base, exponent = map(np.concatenate, zip(*powers))
    # the odd p^k join the primes in the bitmap; the powers of two go in by position
    odd[n[base > 2] // 2] = True
    listed = _listed(odd)
    del odd
    twos = n[base == 2]
    at = np.searchsorted(listed, twos) + np.arange(twos.size)
    prime_powers = np.empty(listed.size + twos.size, dtype=np.int64)
    prime_powers[at] = twos
    odd_at = np.ones(prime_powers.size, dtype=bool)
    odd_at[at] = False
    prime_powers[odd_at] = listed
    del listed, odd_at
    at = np.searchsorted(prime_powers, n)
    base_prime, power_index = prime_powers.copy(), np.ones_like(prime_powers)
    base_prime[at], power_index[at] = base, exponent
    base_log = np.log(base_prime, dtype=np.float64)
    return MangoldtTable(limit, base_prime, prime_powers, base_log, power_index, base_log.cumsum())
