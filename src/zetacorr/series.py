"""The correlation kernel's Dirichlet series, with certified truncation error.

The kernel K(s) = sum Lambda(n)^m / n^s (Re s > 1) and its profile
y(t) = 2 Re K(S + it) are evaluated over the prime powers up to a
truncation point chosen so a rigorous tail bound falls below the
configured tolerance.  There is one bound, `psi_tail_bound`: partial
summation against Chebyshev's psi, with psi(x) < 1.03883 x (valid for
all x > 0).  From the sieve's exact psi(N) it cuts the profile and the
kernel (`choose_truncation`); from a lower bound for psi(N) it needs no
table, and it sizes the sieve (`sieve_limit`) and cuts the main term.

The main term's integral of h(t) y(t) is a closed-form sum over the same
terms (`closed_form_profile_integral`, truncated by `transform_truncation`).

The log-weighted series sum Lambda(n) (log n)^(m-1) / n^s, the
expansion of K over it, and the density estimate of the tail are test
cross-checks in tests/oracles.py.

Sums are correctly rounded (`rounding.exact_sum`), so equal inputs give
bit-identical results whatever the order of the terms.
"""
from __future__ import annotations

import math

import numpy as np

from .arithmetic import SIEVE_LIMIT_CAP, MangoldtTable
from .errors import DomainError, ResourceError
from .rounding import ELEM_REL, MARGIN, TRIG_ABS, U, exact_sum, gamma
from .tuples import CoefficientTuple

CHEBYSHEV_UPPER = 1.03883  # psi(x) < 1.03883 x for all x > 0
PROXY_SPAN = 2.0  # t_max times the proxy bins' half-width
PROXY_TOL_SHARE = 1e-3  # the profile's proxy error, as a share of its tolerance
PROFILE_BLOCK = 256  # t values per block of the profile's point path
ROW = 64  # terms' column factors per row of the factored phase sums
CHUNK = 8  # rows per contraction of the phase sums
PIECE = 8192  # terms per np.vecdot: OpenBLAS threads zdotc above 10,000
SIGMA_FLOOR = 1.5  # smallest Re(s) the series are evaluated at
SQRT2 = math.sqrt(2.0)


def _exp_up(x: float, size: float) -> float:
    """e^x rounded up, for an x formed from logs of total magnitude `size`; +inf past float64.

    Each log is within a few ELEM_REL of its magnitude, so raising x by
    8 ELEM_REL (1 + size) covers their rounding and exp's own.
    """
    x += 8.0 * ELEM_REL * (1.0 + size)
    return math.exp(x) if x < 709.0 else math.inf


def _gamma_integral(m: int, sigma: float, ln_n: float) -> float:
    """integral_N^inf (log x)^(m-1) x^(-sigma) dx = Gamma(m, z) / (sigma-1)^m, z = (sigma-1) log N.

    Taken from its log, rounded up (`_exp_up`), so that no power or
    factorial overflows: Gamma(m, z) = e^(-z) sum_{j<m} e^(l_j), with
    l_j = log((m-1)! z^j / j!).  Needs sigma > 1, ln_n = log N > 0.
    """
    z = (sigma - 1.0) * ln_n
    log_z, log_s, lg = math.log(z), math.log(sigma - 1.0), math.lgamma(m)
    logs = [lg - math.lgamma(j + 1) + j * log_z for j in range(m)]
    top = max(logs)
    log_sum = top + math.log(math.fsum(math.exp(v - top) for v in logs))
    size = 2.0 * lg + m * (abs(log_z) + abs(log_s)) + math.log(m) + z
    return _exp_up(log_sum - z - m * log_s, size)


def psi_tail_bound(n_cut: int, sigma: float, m: int, table: MangoldtTable | None = None) -> float:
    """Chebyshev-weighted tail bound for sum_{n>N} Lambda(n) (log n)^(m-1) n^(-sigma).

    Partial summation against psi gives

        (1.03883 N - psi(N)) phi(N) + 1.03883 * Gamma(m, (sigma-1) log N) / (sigma-1)^m

    with phi(x) = (log x)^(m-1) x^(-sigma), valid while phi is
    decreasing (log N >= (m-1)/sigma).  psi(N) is read from the table,
    for N within the sieve; without a table it is the lower bound
    N (1 - 1/log N), from theta(x) > x (1 - 1/log x) for x >= 41
    (Rosser and Schoenfeld, Illinois J. Math. 6, 1962) and a check of
    psi's steps below 41.  Returns +inf outside those conditions.  It
    bounds the smaller tail of sum Lambda(n)^m n^(-sigma) too.  phi(N) and
    the Gamma term (`_gamma_integral`) are taken from logs, rounded up.
    """
    if sigma <= 1 or (table is not None and n_cut > table.limit):
        return math.inf
    ln_n = math.log(n_cut)
    if ln_n * sigma < m - 1:
        return math.inf
    psi = n_cut * (1.0 - 1.0 / ln_n) if table is None else table.psi_at(n_cut)
    log_ln = math.log(ln_n)
    phi = _exp_up((m - 1) * log_ln - sigma * ln_n, (m - 1) * abs(log_ln) + sigma * ln_n)
    return (CHEBYSHEV_UPPER * n_cut - psi) * phi + CHEBYSHEV_UPPER * _gamma_integral(m, sigma, ln_n)


def _smallest_cut(bound, sigma: float, m: int, cap: int, tol: float, what: str) -> int:
    """An N <= cap with bound(N) <= tol < bound(N - 1).

    Bisects over [max(3, exp(m / sigma) + 1), cap], returning the lower
    end if it meets tol.  The psi bound drops at every prime power, so
    it is not decreasing; on every (sigma, m, tol) checked, the N
    returned was still the smallest that a full scan found.

    Raises:
        ValueError: tol not finite and positive.
        ResourceError: bound(cap) > tol; the message starts with `what`.
    """
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tolerance must be finite and positive")
    if not bound(cap) <= tol:
        raise ResourceError(f"{what} tolerance {tol:.3g} at sigma={sigma} needs a limit above {cap}")
    lo = max(3, int(math.exp(m / sigma)) + 1)
    if bound(lo) <= tol:
        return lo
    hi = cap
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) <= tol:
            hi = mid
        else:
            lo = mid
    return hi


def sieve_limit(sigma: float, m: int, tol: float) -> int:
    """A sieve limit N <= SIEVE_LIMIT_CAP on which `choose_truncation` certifies tol.

    N is `_smallest_cut` of the table-free `psi_tail_bound`, which is at
    least the bound of the table sieved to N.
    """
    bound = lambda n: psi_tail_bound(n, sigma, m)
    return _smallest_cut(bound, sigma, m, SIEVE_LIMIT_CAP, tol, "series")


def choose_truncation(sigma: float, m: int, table: MangoldtTable, tol: float) -> int:
    """The `_smallest_cut` of the table's `psi_tail_bound` at tol.

    Raises:
        ResourceError: no admissible N within the sieve limit; the
            message names the `sieve_limit` that suffices.
    """
    bound = lambda n: psi_tail_bound(n, sigma, m, table)
    try:
        return _smallest_cut(bound, sigma, m, table.limit, tol, "series")
    except ResourceError as exc:
        need = sieve_limit(sigma, m, tol)
        raise ResourceError(f"{exc}; a sieve limit of {need} suffices") from None


def transform_truncation(
    h, sigma: float, m: int, tol: float, cap: int
) -> tuple[int, float]:
    """Smallest N <= cap certifying the sum 2 sum_n w_n hhat(log n / 2 pi).

    Here w_n = Lambda(n)^m n^(-sigma).  The envelope of |hhat(log n / 2 pi)|
    decreases in n, so the tail over n > N is at most 2 envelope(log N / 2 pi)
    times the table-free `psi_tail_bound` on sum_{n>N} w_n.  Needs no sieve
    table.  Returns N and its tail bound.

    Raises:
        ResourceError: the tail bound at the cap is still above tol.
    """
    tail = lambda n: 2.0 * h.hat_envelope(math.log(n) / (2.0 * math.pi)) * (
        psi_tail_bound(n, sigma, m)
    )
    n_cut = _smallest_cut(tail, sigma, m, cap, tol, "main-term")
    return n_cut, tail(n_cut)


def profile_terms(
    sigma: float, m: int, table: MangoldtTable, n_cut: int, start: int = 0, stop: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """log n and w_n = Lambda(n)^m n^(-sigma) over the prime powers n <= N, ascending.

    Entries start:stop of them (all by default), with the same bits in any
    slice.  The kernel, the profile and the main term take them from here.
    """
    idx = int(np.searchsorted(table.prime_powers, n_cut, side="right"))
    part = slice(start, idx if stop is None else min(stop, idx))
    base_log = table.base_log[part]
    log_n = table.power_index[part] * base_log
    w = -sigma * log_n
    return log_n, np.multiply(base_log**m, np.exp(w, out=w), out=w)


def closed_form_profile_integral(
    h, tup: CoefficientTuple, table: MangoldtTable, tol: float
) -> tuple[float, float, float, int]:
    """integral of h(t) * y(t) over R as 2 sum_{n<=N} w_n hhat(log n / 2 pi).

    y(t) = 2 sum_n w_n cos(t log n) with w_n = Lambda(n)^m n^(-S) and h
    is even, so each term integrates to w_n hhat(log n / 2 pi): the
    spectral side of the explicit formula.  N is `transform_truncation`'s
    for tol, capped at table.limit; the terms are summed exactly in
    ascending n.  Returns (value, rounding, tail, N): tail certifies the
    truncation at N, and rounding bounds the rounding of the value.

    rounding is in the model of `rounding`:
    - xi_n = fl(fl(k fl(log p)) / fl(2 pi)) is within relative
      xi_rel = expm1(ELEM_REL + 3U) of log n / 2 pi, and hhat(xi_n) within
      `hat_rounding_bound(xi_n, xi_rel)` of hhat(log n / 2 pi); its cos
      argument error grows like c log n U, so a large center c makes
      this bound, and the certificate, vacuous;
    - w_n = fl(log p)^m exp(-S fl(k fl(log p))) is within relative
      w_rel = expm1((m + 2) ELEM_REL + S log n expm1(ELEM_REL + 2U) + U);
    - a term w~ hhat~ is off by w~/(1 - w_rel) (w_rel |hhat~| + hat bound)
      plus U |term|, and the correctly rounded sum adds one rounding.

    Raises:
        ResourceError: N would exceed the cap.
    """
    sigma = float(tup.positive_sum)
    n_cut, tail = transform_truncation(h, sigma, tup.m, tol, table.limit)
    log_n, w = profile_terms(sigma, tup.m, table, n_cut)
    xi = log_n / (2.0 * math.pi)
    hat = h.hat(xi)
    terms = w * hat
    total = exact_sum((terms,))
    xi_rel = math.expm1(ELEM_REL + 3.0 * U)
    w_rel = np.expm1(
        (tup.m + 2) * ELEM_REL + sigma * log_n * math.expm1(ELEM_REL + 2.0 * U) + U
    )
    per_term = w / (1.0 - w_rel) * (
        w_rel * np.abs(hat) + h.hat_rounding_bound(xi, xi_rel)
    ) + U * np.abs(terms)
    rounding = 2.0 * MARGIN * (exact_sum((per_term,)) + U * abs(total))
    return 2.0 * total, rounding, tail, n_cut


def correlation_kernel(s: complex, m: int, table: MangoldtTable, tol: float) -> complex:
    """Truncated sum of Lambda(n)^m / n^s with certified tail <= tol.

    Only prime powers contribute.  The amplitudes are `profile_terms` at
    sigma = Re s, and the phases Im(s) log n, log n = k log p from the
    exact base prime.  Real s gives imaginary part exactly 0.

    Raises:
        DomainError: Re(s) below SIGMA_FLOOR.
        ResourceError: certified truncation not reachable within limits.
    """
    if m < 2:
        raise ValueError("kernel power m must be >= 2")
    s = complex(s)
    if s.real < SIGMA_FLOOR:
        raise DomainError(f"Re(s)={s.real} below evaluation floor {SIGMA_FLOOR}")
    n_cut = choose_truncation(s.real, m, table, tol)
    log_n, amp = profile_terms(s.real, m, table, n_cut)
    if s.imag == 0.0:
        return complex(exact_sum((amp,)), 0.0)
    phase = s.imag * log_n
    re = exact_sum((amp * np.cos(phase),))
    im = -exact_sum((amp * np.sin(phase),))
    return complex(re, im)


def _chebyshev_error(degree: int) -> float:
    """sup over |u| <= 1, |tau| <= PROXY_SPAN of |e^(i tau u) - I e^(i tau u)|.

    I is the degree-`degree` interpolant in the Chebyshev points of the
    second kind.  e^(i tau u) is entire, and on the Bernstein ellipse
    E_rho its modulus is at most M = exp(tau (rho - 1/rho) / 2), since
    |Im u| <= (rho - 1/rho) / 2 there; ATAP Thm 8.2 (Trefethen 2013)
    then bounds the error by 4 M rho^(-degree) / (rho - 1) for every
    rho > 1.  The minimum is taken over a fixed grid of rho, so it is
    one of those bounds, not an estimate of the optimum.
    """
    rho = np.geomspace(1.0 + 2.0**-10, 2.0**12, 2048)
    log_bound = (
        math.log(4.0)
        + PROXY_SPAN * (rho - 1.0 / rho) / 2.0
        - degree * np.log(rho)
        - np.log(rho - 1.0)
    )
    return math.exp(float(log_bound.min()))


def profile_proxies(blocks, t_max: float, tol: float) -> tuple[np.ndarray, np.ndarray, float]:
    """Proxy points X_j and weights W_j for sum_n w_n cos(t x_n), the terms read in blocks.

    blocks() yields the terms as (x, w) pairs of nonempty arrays, x_n
    ascending across them; it is called once per pass over the terms.
    For every |t| <= t_max, sum_j W_j cos(t X_j) is within the returned
    bound of sum_n w_n cos(t x_n), and the bound is at most tol.

    The x_n fall into bins of half-width r = PROXY_SPAN / max(t_max, 1),
    counted from x_0.  A term at x_n = c + r u, c its bin's centre,
    spreads w_n onto the p Chebyshev points X_j = c + r u_j of the second
    kind with the barycentric Lagrange weights l_j(u).  As the l_j are
    real, cos(t x_n) - sum_j l_j(u) cos(t X_j) is the real part of
    e^(i t c) (e^(i t r u) - I e^(i t r u)), where |t r| <= PROXY_SPAN,
    so the error is at most sum_n |w_n| `_chebyshev_error`(p - 1); p is
    the smallest value for which that is at most tol.  When p times the
    occupied bins would reach the term count, the proxies are the terms
    themselves and the bound is 0.

    The bound is for exact arithmetic; `phase_sums` bounds the rounding of
    the profile's grid path.

    Pass 1 finds the occupied bins and sum_n |w_n| (one `exact_sum` over
    the blocks), pass 2 spreads each block onto its bins: besides the P
    proxies, no array longer than a block is held.  Each block's sum for its
    first bin starts from that bin's sum so far, so every W_j is summed in
    ascending n, with the bits of one np.bincount over all the terms.
    """
    x0, n, last, seen = None, 0, -1.0, []

    def magnitudes():  # pass 1: each block's |w_n|, noting the bins that open in it
        nonlocal x0, n, last
        for x, w in blocks():
            x0 = x[0] if x0 is None else x0
            b = bin_at(x)
            seen.append(b[np.diff(b, prepend=last) != 0])
            n, last = n + x.size, b[-1]
            yield np.abs(w)

    r = PROXY_SPAN / max(t_max, 1.0)
    bin_at = lambda x: np.floor((x - x0) / (2.0 * r))
    weight = exact_sum(magnitudes())
    opened = np.concatenate(seen)
    occupied = opened.size
    for p in range(2, -(-n // occupied)):
        bound = weight * _chebyshev_error(p - 1)
        if bound <= tol:
            break
    else:
        x, w = map(np.concatenate, zip(*blocks()))
        return x, w, 0.0
    centres = x0 + (2.0 * opened + 1.0) * r
    nodes = np.cos(np.pi * np.arange(p) / (p - 1))
    lam = (-1.0) ** np.arange(p)
    lam[[0, -1]] *= 0.5
    weights = np.zeros((occupied, p))
    with np.errstate(divide="ignore", invalid="ignore"):
        for x, w in blocks():  # pass 2
            b = bin_at(x)
            k = int(np.searchsorted(opened, b[0]))  # the block's first bin
            # entry 0 of `at` and `spread` carries bin k's sum so far
            at = np.zeros(x.size + 1, np.intp)
            np.cumsum(np.diff(b) != 0, out=at[2:])
            u = np.clip((x - centres[k + at[1:]]) / r, -1.0, 1.0)
            spread, denom = np.empty(x.size + 1), np.zeros(x.size)
            l_j = spread[1:]
            term = lambda j: np.divide(lam[j], np.subtract(u, nodes[j], out=l_j), out=l_j)
            for j in range(p):
                np.add(denom, term(j), out=denom)
            for j in range(p):
                np.divide(term(j), denom, out=l_j)
                # a term on node j has l_j = 1 (inf / inf here) and l_k = 0
                np.copyto(l_j, 1.0, where=u == nodes[j])
                np.multiply(w, l_j, out=l_j)
                spread[0] = weights[k, j]
                weights[k : k + at[-1] + 1, j] = np.bincount(at, spread, at[-1] + 1)
    return (centres[:, None] + r * nodes).ravel(), weights.ravel(), bound


def phase_sums(g: np.ndarray, count: int, rel: float, w=1.0, phi=0.0):
    """sum_j w_j e^(i (phi_j + k g_j)) for k = 0 ... count - 1, with real w, and a bound.

    k = r ROW + q splits each term into e^(i (phi_j + r ROW g_j)) and
    w_j e^(i q g_j), exactly (Dutt and Rokhlin, SIAM J. Sci. Comput. 14,
    1993): 2 (ROW + ceil(count / ROW)) cosines and sines per term, not
    count.  The (ROW x n) block of the second factor is computed once; the
    first factor is formed CHUNK rows at a time, in one reused (CHUNK x n)
    array, and contracted with it by np.vecdot, which conjugates its first
    argument, PIECE terms at a time, so that each dot product runs in one
    BLAS thread.  The bound is formed first, so its temporaries are freed
    before the block is made.  w = 1 and phi = 0 change no bit.

    bound[k] bounds the error from sum_j w_j e^(i theta_kj), for any phases
    within rel (|phi_j| + k |g_j|) of phi_j + k g_j: rel is the caller's
    error in forming g and phi.  In the model of `rounding`, per term:
    - phases: fl(q g) and fl(-r ROW g) add U k |g|, and subtracting a
      nonzero phi adds U ((1 + U) k |g| + |phi|);
    - factors: the row factor x is within eta = sqrt2 TRIG_ABS of e^(i alpha)
      at its float phase alpha; the column factor y, rounded once more by w,
      is within (eta + U (1 + eta)) |w| of w e^(i beta), and |y| <= (1 + eta)
      (1 + U) |w|;
    - contraction: Re and Im of sum x y are dot products of 2n real terms, in
      an order np.vecdot does not fix, with or without fused multiply-adds,
      so each is within gamma_(2n) of sum |x| |y| (Higham, section 3.1).
    The bound is evaluated in float64 without MARGIN, which a certificate applies.
    """
    aw = np.abs(np.broadcast_to(w, g.shape))
    weight, offset, moment = (exact_sum((v,)) for v in (aw, aw * abs(phi), aw * abs(g)))
    eta, sub = SQRT2 * TRIG_ABS, U if np.any(phi) else 0.0
    x_err = eta + SQRT2 * gamma(2 * g.size) * (1.0 + eta)  # x and the contraction, per |y|
    factors = x_err * (1.0 + eta) * (1.0 + U) + eta + U * (1.0 + eta)
    arg = rel + U + (1.0 + U) * sub
    bound = factors * weight + arg * (offset + np.arange(count) * moment)
    block = np.zeros((ROW, g.size), np.complex128)  # formed in place: one (ROW x n) array
    np.multiply.outer(np.arange(ROW, dtype=np.float64), g, out=block.imag)
    np.multiply(np.exp(block, out=block), w, out=block)
    rows = -(-count // ROW)
    out = np.empty(rows * ROW, np.complex128)
    chunk = np.empty((min(rows, CHUNK), g.size), np.complex128)  # reused by every chunk
    for r0 in range(0, rows, CHUNK):
        conj = chunk[: rows - r0]
        theta = conj.imag  # the row phases, then their sines, in place
        for r, row in enumerate(theta, r0):  # by rows: a broadcast would take ufunc buffers
            np.multiply(g, r * -float(ROW), out=row)
            row -= phi
        np.cos(theta, out=conj.real)
        np.sin(theta, out=theta)
        out[r0 * ROW : (r0 + CHUNK) * ROW] = sum(
            np.vecdot(conj[:, None, k : k + PIECE], block[None, :, k : k + PIECE])
            for k in range(0, g.size, PIECE)
        ).ravel()
    return out[:count], bound


def kernel_profile_evaluator(
    tup: CoefficientTuple, table: MangoldtTable, tol: float, t_max: float
):
    """Vectorized profile y(t) = 2 sum_n w_n cos(t log n) for |t| <= t_max.

    Here w_n = Lambda(n)^m n^(-S), and n runs over the prime powers up
    to the certified truncation for tol.  The sum is taken over the P
    `profile_proxies` X_j, a_j, so it is within PROXY_TOL_SHARE * tol of
    the sum over the terms at every |t| <= t_max.
    Returns a callable mapping a 1-d float64 array ts to y.  If ts is
    exactly ts[0] + arange(n) d, d = ts[1] - ts[0] (as every `t_grid` is),
    and 2 (ROW + ceil(n / ROW)) < n, y is Re `phase_sums`(d X, n, gamma_3,
    a, ts[0] X), within its bound of y at each float t_k: t_k = fl(t_0 +
    fl(k d)) has t_k X_j within gamma_3 (|fl(t_0 X_j)| + k |fl(d X_j)|) of
    fl(t_0 X_j) + k fl(d X_j), from those three roundings.  Else y is sum_j
    a_j cos(t X_j), one numpy sum per PROFILE_BLOCK t values, so a t gets
    the same bits alone or in any such batch.

    Raises:
        ValueError: t_max not finite and positive, or 4 t_max max X_j
            (a bound on every phase) overflowing; the callable raises it
            for any t that is not finite or has |t| > t_max.
    """
    if not (math.isfinite(t_max) and t_max > 0):
        raise ValueError("t_max must be finite and positive")
    sigma = float(tup.positive_sum)
    n_cut = choose_truncation(sigma, tup.m, table, tol)
    n = int(np.searchsorted(table.prime_powers, n_cut, side="right"))

    def blocks():  # y's terms, 2 w_n, PIECE at a time
        for start in range(0, n, PIECE):
            log_n, w = profile_terms(sigma, tup.m, table, n_cut, start, start + PIECE)
            yield log_n, np.multiply(w, 2.0, out=w)

    x, amp, _ = profile_proxies(blocks, t_max, PROXY_TOL_SHARE * tol)
    if not math.isfinite(4.0 * t_max * float(x.max())):
        raise ValueError(f"phases up to 4 t_max log n overflow float64 at t_max = {t_max:g}")

    def evaluate(ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=np.float64)
        if not np.all(np.abs(ts) <= t_max):
            raise ValueError(f"profile evaluated outside |t| <= {t_max:g}")
        grid = ts.size > 2 * (ROW + -(-ts.size // ROW))
        if grid and np.array_equal(ts, ts[0] + np.arange(ts.size) * (d := ts[1] - ts[0])):
            return phase_sums(d * x, ts.size, gamma(3), amp, ts[0] * x)[0].real
        return np.concatenate([ts[:0]] + [
            (np.cos(ts[i : i + PROFILE_BLOCK, None] * x) * amp).sum(axis=1)
            for i in range(0, ts.size, PROFILE_BLOCK)
        ])

    return evaluate
