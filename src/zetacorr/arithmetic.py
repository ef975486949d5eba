"""Integer-arithmetic substrate: the prime-power sieve, and b_m(k) as an Euler product.

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


def _primes(limit: int) -> np.ndarray:
    """The primes up to limit, ascending: an Eratosthenes sieve over the odd numbers."""
    odd = np.ones((limit + 1) // 2, dtype=bool)  # entry i stands for 2 i + 1, but entry 0 for 2
    odd[0] = limit >= 2
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:  # cross out the odd multiples of p = 2 i + 1 from p^2 = 2 (2 i (i + 1)) + 1
            odd[2 * i * (i + 1) :: 2 * i + 1] = False
    return np.maximum(2 * np.flatnonzero(odd) + 1, 2)


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
    """Sieve the prime powers up to limit: the primes, then p^k (k >= 2) for p <= sqrt(limit).

    Raises:
        ValueError: limit < 1 or above the configured cap.
    """
    if limit < 1:
        raise ValueError("sieve limit must be >= 1")
    if limit > SIEVE_LIMIT_CAP:
        raise ValueError(f"sieve limit {limit} exceeds cap {SIEVE_LIMIT_CAP}")
    primes = _primes(limit)
    p = primes[: np.searchsorted(primes, math.isqrt(limit), side="right")]
    pk, k, parts = p * p, 2, [(primes[:0],) * 3]
    while pk.size:
        parts.append((pk, p, np.full(pk.size, k)))
        p, pk, k = p[keep := pk <= limit // p], pk[keep] * p[keep], k + 1
    # the few higher powers, sorted, go in among the primes
    n, base, exponent = map(np.concatenate, zip(*parts))
    order = np.argsort(n)
    at = np.searchsorted(primes, n[order])
    base_prime = np.insert(primes, at, base[order])
    base_log = np.log(base_prime.astype(np.float64))
    return MangoldtTable(
        limit=limit,
        base_prime=base_prime,
        prime_powers=np.insert(primes, at, n[order]),
        base_log=base_log,
        power_index=np.insert(np.ones_like(primes), at, exponent[order]),
        psi=np.cumsum(base_log),
    )


def b_coefficients(m: int, limit: int) -> list[int]:
    """b[k] = sum of mu(d) * d^(m-1) over the divisors d of k, for k <= limit.

    These are the Dirichlet-inverse coefficients of n^(m-1): convolving
    them back against d^(m-1) gives the constant 1 (see `identities`).
    As d -> d^(m-1) is completely multiplicative, b[k] is the Euler
    product of (1 - p^(m-1)) over the primes p dividing k: one pass over
    the primes in Python integers, exact for every m; b[0] = 0.

    Raises:
        ValueError: m < 2, or limit < 1 or above the configured cap.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    if limit < 1:
        raise ValueError("sieve limit must be >= 1")
    if limit > SIEVE_LIMIT_CAP:
        raise ValueError(f"sieve limit {limit} exceeds cap {SIEVE_LIMIT_CAP}")
    b = [0] + [1] * limit
    for p in _primes(limit).tolist():
        factor = 1 - p ** (m - 1)
        b[p::p] = [v * factor for v in b[p::p]]
    return b
