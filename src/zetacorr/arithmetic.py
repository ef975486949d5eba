"""Integer-arithmetic substrate: the prime-power sieve, and b_m(k) as an Euler product.

The von Mangoldt table stores, for every n up to a limit, the base prime
p when n = p^k and zero otherwise.  Lambda(n) = log(p) is therefore
always recomputed from the exact integer p, never stored rounded, and
Lambda(n)^m = (log p)^m costs one pow per use at full double precision.

Tables are immutable after construction and safe for concurrent reads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

SIEVE_LIMIT_CAP = 10**8


def _prime_sieve(limit: int) -> np.ndarray:
    """Boolean Eratosthenes sieve; index n is True iff n is prime."""
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for i in range(2, math.isqrt(limit) + 1):
        if is_prime[i]:
            is_prime[i * i :: i] = False
    return is_prime


@dataclass(frozen=True)
class MangoldtTable:
    """Prime-power table: base_prime[n] = p if n = p^k (k >= 1), else 0.

    ``prime_powers``, ``base_log`` and ``power_index`` are the compressed
    ascending view used by series evaluation: entry j is the j-th prime
    power n_j with its log(p) and exponent k.  ``psi`` is the cumulative
    Chebyshev sum over that view: psi[j] = sum of log(p) for the first
    j+1 prime powers.
    """

    limit: int
    base_prime: np.ndarray
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
    """Sieve the von Mangoldt base-prime table for all n <= limit.

    Raises:
        ValueError: limit < 1 or above the configured cap.
    """
    if limit < 1:
        raise ValueError("sieve limit must be >= 1")
    if limit > SIEVE_LIMIT_CAP:
        raise ValueError(f"sieve limit {limit} exceeds cap {SIEVE_LIMIT_CAP}")
    base = np.zeros(limit + 1, dtype=np.int32)
    if limit >= 2:
        primes = np.nonzero(_prime_sieve(limit))[0].astype(np.int64)
        pk = primes.copy()
        while pk.size:
            base[pk] = primes[: pk.size].astype(np.int32)
            # next power; the mask is a prefix because pk grows while
            # limit // p shrinks along the ascending prime list
            keep = pk <= limit // primes[: pk.size]
            pk = pk[keep] * primes[: pk.size][keep]
    pp = np.nonzero(base)[0].astype(np.int64)
    base_log = np.log(base[pp].astype(np.float64))
    # exponent k of n = p^k, recovered by rounding log n / log p
    power_index = np.rint(np.log(pp.astype(np.float64)) / base_log).astype(np.int64)
    psi = np.cumsum(base_log)
    return MangoldtTable(
        limit=limit,
        base_prime=base,
        prime_powers=pp,
        base_log=base_log,
        power_index=power_index,
        psi=psi,
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
    for p in np.nonzero(_prime_sieve(limit))[0].tolist():
        factor = 1 - p ** (m - 1)
        b[p::p] = [v * factor for v in b[p::p]]
    return b
