"""Adaptive integration and the integrals computed with it: test oracles.

No command imports this module: the tests check exact and closed forms
against it, and perfbench's tracer and reference maker name its functions.

The engine subdivides panels and estimates per-panel error from a
10-point/21-point Gauss pair (nodes from numpy's Legendre machinery, so
both rules are machine-accurate at any order).  Panels are processed in
batches with a single vectorized call to the integrand per batch;
accepted contributions are combined left-to-right with exact
summation, so results are deterministic and independent of batch size.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, DomainError
from .series import correlation_kernel, kernel_profile_evaluator
from .tuples import CoefficientTuple

_GAUSS_LO = np.polynomial.legendre.leggauss(10)
_GAUSS_HI = np.polynomial.legendre.leggauss(21)
_SINC_TAYLOR_CUT = 1e-4


@dataclass(frozen=True)
class QuadratureResult:
    """Value with split error accounting.

    ``error_estimate`` covers the adaptive panels; ``tail_bound`` is the
    analytic bound on whatever infinite part was truncated.  The total
    claimed error is their sum.
    """

    value: float
    error_estimate: float
    evaluations: int
    tail_bound: float = 0.0


def adaptive_integrate(
    f,
    lo: float,
    hi: float,
    tol: float,
    max_evals: int = 20_000_000,
    batch: int = 512,
) -> QuadratureResult:
    """Integrate a vectorized f over [lo, hi] to absolute tolerance tol.

    f must accept a float64 array and return an array of values.  Panels
    whose Gauss-pair discrepancy exceeds their proportional share of tol
    are bisected.

    Raises:
        ValueError: lo >= hi, or tol not finite and positive.
        BudgetError: the evaluation budget ran out; ``best`` carries the
            current estimate.
    """
    if not lo < hi:
        raise ValueError("need lo < hi")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    span = hi - lo
    xs_lo, ws_lo = _GAUSS_LO
    xs_hi, ws_hi = _GAUSS_HI
    n_nodes = xs_lo.size + xs_hi.size
    pending = deque([(lo, hi)])
    accepted: list[tuple[float, float, float]] = []  # (left, value, err)
    evaluations = 0
    while pending:
        chunk = [pending.popleft() for _ in range(min(batch, len(pending)))]
        a = np.array([iv[0] for iv in chunk])
        b = np.array([iv[1] for iv in chunk])
        mid, half = 0.5 * (a + b), 0.5 * (b - a)
        nodes = np.concatenate(
            [
                mid[:, None] + half[:, None] * xs_hi[None, :],
                mid[:, None] + half[:, None] * xs_lo[None, :],
            ],
            axis=1,
        )
        vals = np.asarray(f(nodes.ravel()), dtype=np.float64).reshape(nodes.shape)
        evaluations += nodes.size
        hi_vals = half * (vals[:, : xs_hi.size] @ ws_hi)
        lo_vals = half * (vals[:, xs_hi.size :] @ ws_lo)
        err = np.abs(hi_vals - lo_vals)
        for j in range(len(chunk)):
            width = b[j] - a[j]
            if err[j] <= tol * width / span or width <= 1e-14 * span:
                accepted.append((a[j], hi_vals[j], err[j]))
            else:
                m = 0.5 * (a[j] + b[j])
                pending.append((a[j], m))
                pending.append((m, b[j]))
        if evaluations + n_nodes * len(pending) > max_evals and pending:
            best = math.fsum(v for _, v, _ in accepted)
            raise BudgetError(
                f"adaptive integration exceeded {max_evals} evaluations",
                best=best,
            )
    accepted.sort(key=lambda rec: rec[0])
    value = math.fsum(rec[1] for rec in accepted)
    error = math.fsum(rec[2] for rec in accepted)
    return QuadratureResult(
        value=value, error_estimate=error, evaluations=evaluations
    )


def sinc_product(abs_coeffs: tuple[int, ...], w: np.ndarray) -> np.ndarray:
    """prod_k sin(c_k w)/(c_k w) with a Taylor guard near w = 0.

    The guard replaces sin(x)/x by 1 - x^2/6 + x^4/120 for |x| < 1e-4,
    where the removable singularity would otherwise hit 0/0.
    """
    w = np.asarray(w, dtype=np.float64)
    out = np.ones_like(w)
    for c in abs_coeffs:
        x = c * w
        small = np.abs(x) < _SINC_TAYLOR_CUT
        safe = np.where(small, 1.0, x)
        factor = np.where(
            small, 1.0 - x * x / 6.0 + x**4 / 120.0, np.sin(safe) / safe
        )
        out = out * factor
    return out


def sinc_product_constant(tup: CoefficientTuple, tol: float) -> QuadratureResult:
    """The normalized sinc-product integral C for a coefficient tuple.

    C = (1/pi) * integral over R of prod_k sin(|a_k| w)/(|a_k| w) dw,
    evaluated by even symmetry on [0, W] with the analytic bound
    (2/pi) / (prod |a_k| * (m-1) * W^(m-1)) on the discarded tail.
    The integrand depends only on the multiset of |a_k|, so the result
    is bitwise invariant under permutation and sign flips.

    Raises:
        DomainError: tuple length below 3 (tail not absolutely
            convergent under this bound).
    """
    if tup.m < 3:
        raise DomainError("sinc-product constant needs tuple length >= 3")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    abs_coeffs = tuple(sorted(abs(a) for a in tup.entries))
    prod_a = math.prod(abs_coeffs)
    m = tup.m
    # solve (2/pi)/(prod * (m-1)) * W^(1-m) = tol/2 for the cutoff W
    width = (4.0 / (math.pi * prod_a * (m - 1) * tol)) ** (1.0 / (m - 1))
    width = max(width, 10.0)
    tail = (2.0 / math.pi) / (prod_a * (m - 1) * width ** (m - 1))
    inner = adaptive_integrate(
        lambda w: sinc_product(abs_coeffs, w), 0.0, width, tol=tol * math.pi / 4.0
    )
    return QuadratureResult(
        value=(2.0 / math.pi) * inner.value,
        error_estimate=(2.0 / math.pi) * inner.error_estimate,
        evaluations=inner.evaluations,
        tail_bound=tail,
    )


def weighted_profile_integral(
    h,
    tup: CoefficientTuple,
    table,
    series_tol: float,
    tol: float,
) -> QuadratureResult:
    """integral of h(t) * y(t) over R by adaptive quadrature (an oracle).

    The window [-T, T] is chosen from the weight's Gaussian decay so
    that sup|y| times the discarded weight mass is below tol/2; the
    integrand is even, so only [0, T] is integrated and doubled.  The
    claimed error leaves out the series truncation at series_tol and
    the profile's proxy error, 1e-3 of that.

    Raises:
        ValueError: tuple's positive-part sum below 2.
    """
    if tup.positive_sum < 2:
        raise ValueError("profile integral needs positive-part sum >= 2")
    if not (math.isfinite(tol) and tol > 0):
        raise ValueError("tol must be finite and positive")
    k0 = correlation_kernel(complex(tup.positive_sum, 0.0), tup.m, table, series_tol).real
    y_bound = 2.0 * (k0 + series_tol)
    # stepped by index: at a huge center, t_edge += width would not move
    for step in range(158):
        t_edge = h.center + h.width * (1.0 + 0.25 * step)
        if 2.0 * y_bound * h.tail_weight_bound(t_edge) <= tol / 2.0:
            break
    tail = 2.0 * y_bound * h.tail_weight_bound(t_edge)
    profile = kernel_profile_evaluator(tup, table, series_tol, t_edge)
    inner = adaptive_integrate(
        lambda ts: h.value(ts) * profile(ts), 0.0, t_edge, tol=tol / 4.0
    )
    return QuadratureResult(
        value=2.0 * inner.value,
        error_estimate=2.0 * inner.error_estimate,
        evaluations=inner.evaluations,
        tail_bound=tail,
    )
