"""The correlation sum over zero ordinates, by two independent routes.

Direct route: sum h(a_1 g_1 + ... + a_m g_m) over all m-tuples of
ordinates up to T.  The first m-1 coordinates are enumerated; for each
prefix only the window of last ordinates where |Delta| stays below the
weight's support cutoff contributes, located by binary search.  Skipped
tuples are covered by an analytic bound added to the claimed error.

Spectral route: the same sum as 2 Re of the integral over [0, xi_max]
of hhat(xi) times the product of geometric zero sums Q(a_k xi), with
the conjugate used for negative coefficients, on a uniform grid fine
enough to sample the fastest composite phase (frequency
sum|a_k| * T) several times per period.

Both routes accumulate in a fixed order (ascending tuples; ascending
grid) with compensated/exact summation, so results are reproducible and
independent of worker partitioning.
"""
from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from itertools import product

import numpy as np

from .combinatorics import balanced_sinc_constant
from .errors import BudgetError, DataError
from .quadrature import closed_form_profile_integral, sinc_product_constant
from .series import SeriesConfig
from .tuples import CoefficientTuple, coefficient_tuple
from .weights import GaussianTriplet
from .zeros import ZeroTable, zeros_up_to

DIRECT_PREFIX_BUDGET = 80_000_000


class _Kahan:
    """Compensated scalar accumulator (fixed-order reduction)."""

    __slots__ = ("total", "comp")

    def __init__(self):
        self.total = 0.0
        self.comp = 0.0

    def add(self, x: float) -> None:
        y = x - self.comp
        t = self.total + y
        self.comp = (t - self.total) - y
        self.total = t


@dataclass(frozen=True)
class DirectDiagnostics:
    tuple_count: int
    pruned_fraction: float
    claimed_error: float
    cutoff: float


@dataclass(frozen=True)
class SpectralDiagnostics:
    grid_points: int
    xi_max: float
    quadrature_error: float
    tail_bound: float
    claimed_error: float
    accuracy_warning: bool = False


def _ordinates_for(zeros: ZeroTable, t_max: float) -> np.ndarray:
    # A complete initial segment still covers a little beyond its last
    # entry; allow ~1.5 mean gaps of slack before calling it a gap in
    # the data.
    top = zeros.max_ordinate
    if top > 0.0:
        mean_gap = 2.0 * math.pi / math.log(max(top / (2.0 * math.pi), 2.0))
        covered = top + 1.5 * mean_gap
    else:
        covered = 0.0
    if t_max > covered and len(zeros) > 0:
        raise DataError(
            f"zero table covers ordinates up to about {covered:.3f}, "
            f"below requested T={t_max}"
        )
    return zeros_up_to(zeros, t_max) if len(zeros) else zeros.ordinates


def _direct_chunk(
    h: GaussianTriplet,
    entries: tuple[int, ...],
    gammas: np.ndarray,
    prefix: tuple[int, ...],
    bound: float,
):
    """Row sums for one (m-2)-prefix, rows ascending in the (m-1)-th index.

    Returns (row_sums, hits): float list in row order and the number of
    evaluated tuples.  With bound = +inf every row spans all ordinates.
    """
    a_mid, a_last = entries[-2], entries[-1]
    base = 0.0
    for coeff, idx in zip(entries[:-2], prefix):
        base = base + coeff * gammas[idx]
    dprime = base + a_mid * gammas
    if math.isinf(bound):
        lo = np.zeros(gammas.size, dtype=np.int64)
        hi = np.full(gammas.size, gammas.size, dtype=np.int64)
    else:
        left = (-bound - dprime) / a_last
        right = (bound - dprime) / a_last
        if a_last < 0:
            left, right = right, left
        lo = np.searchsorted(gammas, left, side="left")
        hi = np.searchsorted(gammas, right, side="right")
        hi = np.maximum(hi, lo)
    counts = hi - lo
    total = int(counts.sum())
    if total == 0:
        return [0.0] * gammas.size, 0
    offsets = np.concatenate(([0], np.cumsum(counts)))
    flat_idx = np.arange(total, dtype=np.int64) - np.repeat(
        offsets[:-1], counts
    ) + np.repeat(lo, counts)
    deltas = np.repeat(dprime, counts) + a_last * gammas[flat_idx]
    values = h.value(deltas)
    rows = []
    for j in range(gammas.size):
        seg = values[offsets[j] : offsets[j + 1]]
        rows.append(math.fsum(seg.tolist()) if seg.size else 0.0)
    return rows, total


def direct_correlation_sum(
    h: GaussianTriplet,
    tup: CoefficientTuple,
    t_max: float,
    zeros: ZeroTable,
    cutoff: float | None = None,
    workers: int = 1,
) -> tuple[float, DirectDiagnostics]:
    """Pruned exact enumeration of sum h(Delta) over ordinate m-tuples.

    cutoff=None uses the weight's support cutoff (|h| below 1e-14 of its
    sup); cutoff=inf disables pruning entirely, which reproduces a naive
    full enumeration bit for bit.

    Raises:
        DataError: the zero table does not cover (0, T].
        BudgetError: prefix count would exceed the enumeration budget;
            the spectral route is suggested.
    """
    gammas = _ordinates_for(zeros, t_max)
    n = gammas.size
    m = tup.m
    if n == 0:
        return 0.0, DirectDiagnostics(0, 0.0, 0.0, cutoff or math.inf)
    if n ** (m - 1) > DIRECT_PREFIX_BUDGET:
        raise BudgetError(
            f"{n}^{m - 1} tuple prefixes exceed the direct-route budget; "
            "use the spectral route"
        )
    if cutoff is None:
        cutoff = h.support_cutoff()
    claimed = 0.0 if math.isinf(cutoff) else float(n) ** m * h.value_bound_beyond(cutoff)
    prefixes = list(product(range(n), repeat=m - 2))
    acc = _Kahan()
    hits = 0
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = pool.map(
                lambda pre: _direct_chunk(h, tup.entries, gammas, pre, cutoff),
                prefixes,
                chunksize=64,
            )
            for rows, chunk_hits in results:
                hits += chunk_hits
                for r in rows:
                    acc.add(r)
    else:
        for pre in prefixes:
            rows, chunk_hits = _direct_chunk(h, tup.entries, gammas, pre, cutoff)
            hits += chunk_hits
            for r in rows:
                acc.add(r)
    pruned = 1.0 - hits / float(n) ** m
    return acc.total, DirectDiagnostics(
        tuple_count=hits,
        pruned_fraction=pruned,
        claimed_error=claimed,
        cutoff=cutoff,
    )


def naive_correlation_sum(
    h: GaussianTriplet,
    tup: CoefficientTuple,
    t_max: float,
    zeros: ZeroTable,
) -> float:
    """Unpruned reference enumeration (small instances only).

    Triple-nested loops in ascending index order; the innermost
    coordinate is evaluated as one row and summed exactly, matching the
    engine's reduction contract so the two agree bit for bit when the
    engine's cutoff is infinite.
    """
    gammas = _ordinates_for(zeros, t_max)
    n = gammas.size
    if n == 0:
        return 0.0
    if n > 40:
        raise ValueError("naive enumeration is intended for tiny instances")
    entries = tup.entries
    a_last = entries[-1]
    acc = _Kahan()
    for prefix in product(range(n), repeat=tup.m - 2):
        base = 0.0
        for coeff, idx in zip(entries[:-2], prefix):
            base = base + coeff * gammas[idx]
        for j in range(n):
            dprime = base + entries[-2] * gammas[j]
            row = h.value(dprime + a_last * gammas)
            acc.add(math.fsum(row.tolist()))
    return acc.total


def _simpson(values: np.ndarray, dx: float) -> complex:
    """Composite Simpson on an odd-length uniform grid (exact reduction)."""
    if values.size % 2 == 0 or values.size < 3:
        raise ValueError("Simpson needs an odd number of points >= 3")
    w = np.full(values.size, 2.0)
    w[1::2] = 4.0
    w[0] = w[-1] = 1.0
    weighted = values * w
    re = math.fsum(weighted.real.tolist())
    im = math.fsum(weighted.imag.tolist())
    return complex(re, im) * (dx / 3.0)


def _zero_phase_sum(
    gammas: np.ndarray, scale: float, xi: np.ndarray, chunk: int = 65536
) -> np.ndarray:
    """Q(scale * xi) = sum over ordinates of e^(2 pi i scale xi gamma)."""
    out = np.empty(xi.size, dtype=np.complex128)
    step = max(1, chunk // max(gammas.size, 1))
    # one reused block buffer: a fresh ~1 MB temporary per block is
    # mmapped and faulted in anew unless earlier work happened to raise
    # the allocator's mmap threshold
    phase = np.empty((min(step, xi.size), gammas.size), dtype=np.complex128)
    for start in range(0, xi.size, step):
        block = xi[start : start + step]
        buf = phase[: block.size]
        np.multiply(2j * math.pi * scale * block[:, None], gammas[None, :], out=buf)
        out[start : start + step] = np.exp(buf, out=buf).sum(axis=1)
    return out


def spectral_correlation_sum(
    h: GaussianTriplet,
    tup: CoefficientTuple,
    t_max: float,
    zeros: ZeroTable,
    xi_max: float | None = None,
    grid: int | None = None,
    samples_per_period: int = 16,
    tol_hint: float | None = None,
) -> tuple[float, SpectralDiagnostics]:
    """Correlation sum as 2 Re integral of hhat(xi) prod_k Q(a_k xi) dxi.

    Q is the geometric sum over ordinates up to T; negative coefficients
    use its conjugate.  The default grid samples the fastest composite
    phase (frequency sum|a_k| * T) `samples_per_period` times per
    period; the default xi_max makes the truncated hhat tail, amplified
    by the worst-case |Q|^m = N^m, negligible.  The quadrature error is
    estimated by comparing against the half-resolution grid.
    """
    gammas = _ordinates_for(zeros, t_max)
    n = gammas.size
    if n == 0:
        return 0.0, SpectralDiagnostics(0, 0.0, 0.0, 0.0, 0.0)
    if grid is not None and grid < 2:
        raise ValueError("grid must be >= 2")
    amp = float(n) ** tup.m
    if xi_max is None:
        xi_max = 0.5
        while 2.0 * amp * h.hat_tail_integral(xi_max) > 1e-10 and xi_max < 50.0:
            xi_max *= 1.25
    tail = 2.0 * amp * h.hat_tail_integral(xi_max)
    if grid is None:
        fastest = tup.abs_sum * t_max
        points = int(math.ceil(samples_per_period * fastest * xi_max))
    else:
        points = grid
    points += (-points) % 4 + 1  # next 4k+1, so the half grid stays odd
    xi = np.linspace(0.0, xi_max, points)
    dx = xi[1] - xi[0]
    factors: dict[int, np.ndarray] = {}
    for a in sorted({abs(a) for a in tup.entries}):
        factors[a] = _zero_phase_sum(gammas, float(a), xi)
    integrand = h.hat(xi).astype(np.complex128)
    for a in tup.entries:
        integrand = integrand * (factors[abs(a)] if a > 0 else np.conj(factors[abs(a)]))
    full = 2.0 * _simpson(integrand, dx).real
    half = 2.0 * _simpson(integrand[::2], 2.0 * dx).real
    quad_err = abs(full - half)
    claimed = quad_err + tail
    warn = bool(tol_hint is not None and claimed > tol_hint)
    return full, SpectralDiagnostics(
        grid_points=points,
        xi_max=xi_max,
        quadrature_error=quad_err,
        tail_bound=tail,
        claimed_error=claimed,
        accuracy_warning=warn,
    )


def main_term(
    h: GaussianTriplet,
    tup: CoefficientTuple,
    t_max: float,
    table,
    cfg: SeriesConfig,
    tol: float = 1e-6,
) -> float:
    """Leading asymptotic D * T^(m-1) * integral of h(t) y(t) dt.

    D = (-1)^m C / (2 pi)^m with C the normalized sinc-product constant;
    for the balanced +-1 tuple C comes from the exact rational closed
    form, otherwise from adaptive quadrature.  The integral is the
    closed-form sum 2 sum_n Lambda(n)^m n^(-S) hhat(log n / 2 pi), its
    truncated tail certified below tol.
    """
    m = tup.m
    if tup.is_balanced:
        c_val = float(balanced_sinc_constant(m // 2))
    else:
        c_val = sinc_product_constant(tup, tol=min(tol, 1e-9)).value
    d_val = (-1.0) ** m * c_val / (2.0 * math.pi) ** m
    profile, _ = closed_form_profile_integral(h, tup, table, cfg, tol)
    return d_val * t_max ** (m - 1) * profile.value


@dataclass
class CorrelationReport:
    """Both route values, the predicted main term, and diagnostics."""

    tuple_entries: tuple[int, ...]
    t_max: float
    h_params: dict
    h_direct: float
    h_spectral: float
    main_term: float
    diagnostics: dict = field(default_factory=dict)

    def to_json(self) -> str:
        payload = asdict(self)
        payload["tuple_entries"] = list(self.tuple_entries)
        return json.dumps(payload, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "CorrelationReport":
        data = json.loads(text)
        data["tuple_entries"] = tuple(data["tuple_entries"])
        return cls(**data)

    def csv_row(self) -> dict:
        return {
            "tuple": "".join(
                ("+" if a > 0 else "") + str(a) for a in self.tuple_entries
            ),
            "T": self.t_max,
            "H_direct": self.h_direct,
            "H_spectral": self.h_spectral,
            "main_term": self.main_term,
            "H_direct_scaled": self.diagnostics.get("h_direct_scaled"),
            "main_term_scaled": self.diagnostics.get("main_term_scaled"),
        }


def build_report(
    h: GaussianTriplet,
    tup: CoefficientTuple,
    t_max: float,
    zeros: ZeroTable,
    table,
    cfg: SeriesConfig,
    tol: float = 1e-6,
    workers: int = 1,
) -> CorrelationReport:
    """Run both routes plus the main term and assemble the report."""
    h_direct, ddiag = direct_correlation_sum(h, tup, t_max, zeros, workers=workers)
    h_spectral, sdiag = spectral_correlation_sum(h, tup, t_max, zeros)
    main = main_term(h, tup, t_max, table, cfg, tol=tol)
    # main_term's sum again (under a millisecond) for its certificate:
    # |main / profile| is |D| T^(m-1)
    profile, n_cut = closed_form_profile_integral(h, tup, table, cfg, tol)
    scale = t_max ** (tup.m - 1)
    diagnostics = {
        "tuple_count": ddiag.tuple_count,
        "pruned_fraction": ddiag.pruned_fraction,
        "spectral_grid": sdiag.grid_points,
        "claimed_errors": {
            "direct": ddiag.claimed_error,
            "spectral": sdiag.claimed_error,
        },
        "h_direct_scaled": h_direct / scale,
        "h_spectral_scaled": h_spectral / scale,
        "main_term_scaled": main / scale,
        "main_term_claimed_error": abs(main / profile.value) * profile.tail_bound
        if profile.value
        else 0.0,
        "main_term_terms": n_cut,
        "route_gap": abs(h_direct - h_spectral),
        "accuracy_warning": sdiag.accuracy_warning,
    }
    return CorrelationReport(
        tuple_entries=tup.entries,
        t_max=t_max,
        h_params=h.to_config_dict(),
        h_direct=h_direct,
        h_spectral=h_spectral,
        main_term=main,
        diagnostics=diagnostics,
    )


def routes_agree(report: CorrelationReport) -> bool:
    """Check the cross-route invariant |direct - spectral| <= claimed sum."""
    claimed = report.diagnostics["claimed_errors"]
    return report.diagnostics["route_gap"] <= claimed["direct"] + claimed["spectral"]


def parse_tuple_text(text: str) -> CoefficientTuple:
    """Parse '1,1,-2' into a validated coefficient tuple."""
    try:
        entries = [int(part) for part in text.replace(" ", "").split(",") if part]
    except ValueError as exc:
        raise ValueError(f"cannot parse tuple {text!r}: {exc}") from exc
    return coefficient_tuple(entries)
