"""Reference computations that the package is tested against."""
import math
from fractions import Fraction
from itertools import product

import numpy as np

from zetacorr.arithmetic import MangoldtTable, sieve_mangoldt
from zetacorr.dips import GOLDEN
from zetacorr.errors import DomainError
from zetacorr.rounding import exact_sum
from zetacorr.series import (
    PROXY_SPAN,
    SIGMA_FLOOR,
    _chebyshev_error,
    choose_truncation,
    correlation_kernel,
    profile_terms,
)
from zetacorr.zeros import zeros_up_to


def _halves(tup, n: int) -> list[list]:
    """Each half's (coefficient, index row) pairs over all n^m ordinate tuples.

    The positive half holds a, the negative half |a|, in (coefficient,
    ordinate index) order: the index rows of a run of equal coefficients
    sorted tuple by tuple.  Rows run over the tuples in C index order.
    """
    idx = np.indices((n,) * tup.m).reshape(tup.m, -1)
    halves = []
    for sign in (1, -1):
        half = []
        for coeff in sorted({sign * a for a in tup.entries if sign * a > 0}):
            cols = [k for k, a in enumerate(tup.entries) if sign * a == coeff]
            half += [(coeff, row) for row in np.sort(idx[cols], axis=0)]
        halves.append(half)
    return halves


def delta_by_halves(tup, gammas) -> np.ndarray:
    """Delta = P - N of every ordinate m-tuple, as one array of n^m entries.

    P and N sum coefficient * gamma over the positive and the negative
    half (`_halves`), each left to right from 0.0.
    """
    sums = []
    for half in _halves(tup, gammas.size):
        total = 0.0
        for coeff, row in half:
            total = total + coeff * gammas[row]
        sums.append(total)
    return sums[0] - sums[1]


def canonical_pair_count(tup, t_max, zeros, cutoff) -> int:
    """Number of distinct (positive, negative) index multisets with |Delta| <= cutoff.

    Tuples that differ by permuting equal coefficients are one pair; for
    a balanced tuple, whose halves are alike, so are (A, B) and (B, A).
    """
    gammas = zeros_up_to(zeros, t_max)
    kept = np.abs(delta_by_halves(tup, gammas)) <= cutoff
    keys = [zip(*(row[kept].tolist() for _, row in half)) for half in _halves(tup, gammas.size)]
    pairs = zip(*keys)
    if tup.is_balanced:
        pairs = (tuple(sorted(pair)) for pair in pairs)
    return len(set(pairs))


class Unpruned:
    """A weight h whose support cutoff is inf, so the direct route prunes nothing."""

    def __init__(self, inner):
        self.inner, self.center, self.width = inner, inner.center, inner.width

    def value(self, x):
        return self.inner.value(x)

    def value_bound_beyond(self, x):
        return self.inner.value_bound_beyond(x)

    def support_cutoff(self):
        return math.inf


def naive_correlation_sum(h, tup, t_max, zeros) -> float:
    """Unpruned enumeration of sum h(Delta) over ordinate m-tuples (n <= 40).

    Every tuple's Delta from `delta_by_halves`, all terms to one
    math.fsum, so the result is their correctly rounded sum, which is
    what the direct route returns for the weight `Unpruned(h)`.
    """
    gammas = zeros_up_to(zeros, t_max)
    if gammas.size > 40:
        raise ValueError("naive enumeration is intended for tiny instances")
    return math.fsum(h.value(delta_by_halves(tup, gammas)).tolist())


def tuple_count_naive(tup, t_max, zeros, cutoff) -> int:
    """Number of ordinate m-tuples with |Delta| <= cutoff, from all n^m of them.

    Delta from `delta_by_halves` (small tables only).
    """
    gammas = zeros_up_to(zeros, t_max)
    return int(np.count_nonzero(np.abs(delta_by_halves(tup, gammas)) <= cutoff))


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


def grid_sup_norm(h) -> float:
    """sup |h| measured on 20,001 points of [0, c + 6 s] (h is even)."""
    xs = np.linspace(0.0, h.center + 6.0 * h.width, 20001)
    return float(np.abs(h.value(xs)).max())


def dense_profile(tup, table, tol):
    """y(t) = 2 sum_n w_n cos(t log n) with one cosine per truncation term.

    The same terms as `kernel_profile_evaluator` (w_n = Lambda(n)^m n^(-S),
    n <= the certified truncation for tol), summed directly at
    every t in blocks of 256, with numpy's pairwise sum over ascending n.
    """
    n_cut = choose_truncation(float(tup.positive_sum), tup.m, table, tol)
    log_n, amp = profile_terms(float(tup.positive_sum), tup.m, table, n_cut)

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


def proxy_weights_loop(log_n, w, t_max, tol):
    """`series.profile_proxies` with fresh arrays for each node's weights.

    The same bins, degree and bound; the denominator is a Python sum of the
    p terms lambda_j / (u - x_j) from 0, and each l_j one `np.where`.
    """
    n = log_n.size
    weight = exact_sum((np.abs(w),))
    r = PROXY_SPAN / max(t_max, 1.0)
    bins = np.floor((log_n - log_n[0]) / (2.0 * r))
    first = np.flatnonzero(np.diff(bins, prepend=-1.0))
    occupied = first.size
    for p in range(2, -(-n // occupied)):
        bound = weight * _chebyshev_error(p - 1)
        if bound <= tol:
            break
    else:
        return log_n, w, 0.0
    centres = log_n[0] + (2.0 * bins[first] + 1.0) * r
    bin_of = np.repeat(np.arange(occupied), np.diff(np.append(first, n)))
    u = np.clip((log_n - centres[bin_of]) / r, -1.0, 1.0)
    nodes = np.cos(np.pi * np.arange(p) / (p - 1))
    lam = (-1.0) ** np.arange(p)
    lam[[0, -1]] *= 0.5
    weights = np.empty((occupied, p))
    with np.errstate(divide="ignore", invalid="ignore"):
        denom = sum(lam[j] / (u - nodes[j]) for j in range(p))
        for j in range(p):
            l_j = np.where(u == nodes[j], 1.0, lam[j] / (u - nodes[j]) / denom)
            weights[:, j] = np.bincount(bin_of, weights=w * l_j, minlength=occupied)
    return (centres[:, None] + r * nodes).ravel(), weights.ravel(), bound


def golden_minimize(f, lo: float, hi: float, tol: float = 1e-4) -> tuple[float, float]:
    """Golden-section minimum of a unimodal scalar f on [lo, hi], one search alone."""
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
    return (x1, f1) if f1 <= f2 else (x2, f2)


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


def sinc_power_integral(n: int) -> Fraction:
    """Q(n) with integral of (sin t / t)^(2n) over R = pi Q(n), by Lagrange's sum.

    Q(n) = n sum_{k=1..n} k^(2n-3) prod_{l != k} 1/(k^2 - l^2), in exact
    rationals: the C of the balanced +-1 tuple of length 2n, by a formula
    independent of `sinc_product_exact`'s sign classes.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    total = Fraction(0)
    for k in range(1, n + 1):
        term = Fraction(k) ** (2 * n - 3)
        for ell in range(1, n + 1):
            if ell != k:
                term /= k * k - ell * ell
        total += term
    return n * total


def sieve_mangoldt_by_insert(limit: int) -> MangoldtTable:
    """The `sieve_mangoldt` table by a second route: the primes, then the higher powers sorted in.

    The primes from an odd-only Eratosthenes sieve; p^k (k >= 2) for the
    p <= sqrt(limit), ordered by `np.argsort` and put among the primes by
    `np.insert`, one insert for each of n, p and k.
    """
    odd = np.ones((limit + 1) // 2, dtype=bool)  # entry i stands for 2 i + 1, but entry 0 for 2
    odd[0] = limit >= 2
    for i in range(1, (math.isqrt(limit) + 1) // 2):
        if odd[i]:
            odd[2 * i * (i + 1) :: 2 * i + 1] = False
    primes = np.maximum(2 * np.flatnonzero(odd) + 1, 2)
    p = primes[: np.searchsorted(primes, math.isqrt(limit), side="right")]
    pk, k, parts = p * p, 2, [(primes[:0],) * 3]
    while pk.size:
        parts.append((pk, p, np.full(pk.size, k)))
        p, pk, k = p[keep := pk <= limit // p], pk[keep] * p[keep], k + 1
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


def lambda_value(table, n: int) -> float:
    """Lambda(n) read off a Mangoldt table: log of n's base prime, found by binary search, or 0."""
    if not 1 <= n <= table.limit:
        raise ValueError(f"n={n} outside table range [1, {table.limit}]")
    j = int(np.searchsorted(table.prime_powers, n))
    listed = j < table.prime_powers.size and table.prime_powers[j] == n
    return math.log(int(table.base_prime[j])) if listed else 0.0


def prime_power_entries(limit: int) -> list[tuple[int, int, int]]:
    """(n, p, k) for every prime power n = p^k <= limit, ascending, by trial division."""
    entries = []
    for n in range(2, limit + 1):
        p = next((d for d in range(2, math.isqrt(n) + 1) if n % d == 0), n)
        rest, k = n, 0
        while rest % p == 0:
            rest, k = rest // p, k + 1
        if rest == 1:
            entries.append((n, p, k))
    return entries


def divisors(k: int) -> list[int]:
    """All positive divisors of k, ascending, by trial division up to sqrt(k)."""
    small, large = [], []
    d = 1
    while d * d <= k:
        if k % d == 0:
            small.append(d)
            if d != k // d:
                large.append(k // d)
        d += 1
    return small + large[::-1]


def mobius(n: int) -> int:
    """mu(n) by trial division: 0 if a square divides n, else (-1)^(number of primes)."""
    if n < 1:
        raise ValueError("mu is defined for n >= 1")
    sign, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            sign = -sign
        p += 1
    return -sign if n > 1 else sign


def b_coefficient_naive(k: int, m: int) -> int:
    """b_m(k) = sum of mu(d) d^(m-1) over the divisors d of k, one k at a time."""
    return sum(mobius(d) * d ** (m - 1) for d in divisors(k))


def b_coefficients(m: int, limit: int) -> list[int]:
    """b[k] = sum of mu(d) * d^(m-1) over the divisors d of k, for k <= limit.

    These are the Dirichlet-inverse coefficients of n^(m-1): convolving
    them back against d^(m-1) gives the constant 1 (see `identities`).
    As d -> d^(m-1) is completely multiplicative, b[k] is the Euler
    product of (1 - p^(m-1)) over the primes p dividing k: one pass over
    the primes of `sieve_mangoldt(limit)` in Python integers, exact for
    every m; b[0] = 0.

    Raises:
        ValueError: m < 2, or a limit `sieve_mangoldt` refuses.
    """
    if m < 2:
        raise ValueError("m must be >= 2")
    table = sieve_mangoldt(limit)
    b = [0] + [1] * limit
    for p in table.prime_powers[table.power_index == 1].tolist():
        factor = 1 - p ** (m - 1)
        b[p::p] = [v * factor for v in b[p::p]]
    return b


def upper_gamma_int(k: int, z: float) -> float:
    """Upper incomplete gamma Gamma(k, z) = (k-1)! e^(-z) sum_{j<k} z^j / j!, integer k >= 1.

    In float64 as written, so it overflows past k of about 170.
    """
    acc, term = 1.0, 1.0
    for j in range(1, k):
        term *= z / j
        acc += term
    return math.factorial(k - 1) * math.exp(-z) * acc


def integral_tail_bound(n_cut: int, sigma: float, m: int) -> float:
    """The all-integer majorant of sum_{n>N} (log n)^m n^(-sigma), or +inf.

    Gamma(m+1, (sigma-1) log N) / (sigma-1)^(m+1), the integral of
    (log x)^m x^(-sigma) over x > N; it bounds the sum while that
    integrand decreases at N (log N >= m / sigma).
    """
    if sigma <= 1 or math.log(n_cut) * sigma < m:
        return math.inf
    return upper_gamma_int(m + 1, (sigma - 1.0) * math.log(n_cut)) / (sigma - 1.0) ** (m + 1)


def prime_tail_estimate(n_cut: int, sigma: float, m: int) -> float:
    """Density estimate (not a bound) of the tail sum_{n>N} Lambda(n)^m n^(-sigma).

    Integrates (log x)^(m-1) x^(-sigma) for the primes plus the square
    prime-power correction; accurate to prime-counting quality, which is
    far below the rigorous bounds at the truncation points in use.
    """
    z = (sigma - 1.0) * math.log(n_cut)
    primes = upper_gamma_int(m, z) / (sigma - 1.0) ** m
    z2 = (2.0 * sigma - 1.0) * 0.5 * math.log(n_cut)
    squares = upper_gamma_int(m, z2) / (2.0 * sigma - 1.0) ** m
    return primes + squares


def log_derivative_series(s, m, table, tol) -> complex:
    """Truncated sum of Lambda(n) (log n)^(m-1) / n^s, certified like the kernel.

    For m = 1 this is the logarithmic-derivative series of the zeta
    function (with positive sign); higher m are its derivative family.
    The kernel's tail bounds cover it, since Lambda(n) (log n)^(m-1)
    <= (log n)^m.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    s = complex(s)
    if s.real < SIGMA_FLOOR:
        raise DomainError(f"Re(s)={s.real} below evaluation floor {SIGMA_FLOOR}")
    n_cut = choose_truncation(s.real, m, table, tol)
    idx = int(np.searchsorted(table.prime_powers, n_cut, side="right"))
    base_log, k = table.base_log[:idx], table.power_index[:idx]
    log_n = k * base_log
    weights = (k ** (m - 1)).astype(np.float64) * base_log**m
    amp = weights * np.exp(-s.real * log_n)
    if s.imag == 0.0:
        return complex(exact_sum((amp,)), 0.0)
    phase = s.imag * log_n
    re = exact_sum((amp * np.cos(phase),))
    im = -exact_sum((amp * np.sin(phase),))
    return complex(re, im)


def kernel_expansion_residual(s, m, delta_max, table, tol) -> float:
    """|K_m(s) - sum_{d <= delta_max} b_m(d) L_m(d s)|, L_m the log-weighted series.

    The kernel expands over the log-weighted series at dilated arguments
    d*s with integer weights b_m(d); the infinite expansion is an exact
    identity, so the residual measures only truncation and roundoff.
    Per-d tolerances shrink geometrically so the weighted error sum
    stays below tol.

    Raises:
        DomainError: Re(s) < 2 (dilated-argument convergence floor).
        ValueError: delta_max < 2.
    """
    s = complex(s)
    if s.real < 2.0:
        raise DomainError("expansion cross-check requires Re(s) >= 2")
    if delta_max < 2:
        raise ValueError("delta_max must be >= 2")
    kernel = correlation_kernel(s, m, table, tol / 2.0)
    b_m = b_coefficients(m, delta_max)
    acc = complex(0.0)
    for delta in range(1, delta_max + 1):
        b = b_m[delta]
        if b == 0:
            continue
        # geometric split keeps sum_d |b_d| tol_d <= tol / 2
        tol_d = tol / (4.0 * abs(b) * 2.0 ** (delta - 1))
        acc += b * log_derivative_series(delta * s, m, table, tol_d)
    return abs(kernel - acc)


def kernel_pole_expansion(s, m, expansion_order, zeros, trivial_cutoff=50) -> complex:
    """Kernel value from the truncated pole expansion over dilations.

    Evaluates

        (m-1)! sum_{d <= order} b_m(d)/d^m [ (s - 1/d)^(-m)
            - sum_rho (s - rho/d)^(-m) ]

    with rho running over 1/2 +- i gamma for every tabulated ordinate
    plus the real points -2k, k <= trivial_cutoff.  The free constant of
    the underlying logarithmic-derivative expansion is annihilated by
    the (m-1)-fold differentiation, so none remains for m >= 2.

    Raises:
        DomainError: m < 2 (the free constant would survive) or
            Re(s) < 2.
        ValueError: empty zero table or expansion_order < 2.
    """
    if m < 2:
        raise DomainError("pole expansion needs m >= 2")
    s = complex(s)
    if s.real < 2.0:
        raise DomainError("pole expansion evaluated only for Re(s) >= 2")
    if expansion_order < 2:
        raise ValueError("expansion_order must be >= 2")
    if len(zeros) == 0:
        raise ValueError("pole expansion needs a nonempty zero table")
    gammas = zeros.ordinates
    trivial = -2.0 * np.arange(1, trivial_cutoff + 1, dtype=np.float64)
    prefactor = float(math.factorial(m - 1))
    b_m = b_coefficients(m, expansion_order)
    total = complex(0.0)
    for d in range(1, expansion_order + 1):
        b = b_m[d]
        if b == 0:
            continue
        pole = (s - 1.0 / d) ** (-m)
        zu = s - (0.5 + 1j * gammas) / d
        zl = s - (0.5 - 1j * gammas) / d
        zt = s - trivial / d
        powers = [zu**-m, zl**-m, zt**-m]
        rho_sum = complex(
            exact_sum(p.real for p in powers), exact_sum(p.imag for p in powers)
        )
        # midpoint-rule tail of the trivial-zero sum; the dilation packs
        # those poles toward s, so the fixed cutoff alone is too crude
        rho_sum += (
            (d / 2.0)
            * (s + (2.0 * trivial_cutoff + 1.0) / d) ** (1 - m)
            / (m - 1)
        )
        total += (b / float(d) ** m) * (pole - rho_sum)
    return prefactor * total
