"""Locate the repulsion dips of the kernel profile and compare depths.

The profile y(t) develops local minima near zero ordinates with depth
close to -2 (m-1)! / (S - 1/2)^m.  Scanning samples y on a uniform grid
(fine enough to resolve the ~2-unit zero spacing), keeps strict local
minima, and refines each by golden-section search; minima are then
matched to the nearest ordinate within a window.

The truncated pole expansion of the kernel over the zeros, an
independent route to the same values, is a test cross-check in
tests/oracles.py.
"""
from __future__ import annotations

import csv
import json
import math
from dataclasses import asdict, dataclass, replace
from typing import Callable, Iterable, Optional

import numpy as np

from .combinatorics import dip_depth_prediction
from .errors import BudgetError
from .tuples import CoefficientTuple
from .zeros import ZeroTable

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0
MAX_SCAN_STEP = 0.05
MAX_GRID_POINTS = 10**7


@dataclass
class DipRecord:
    """One local minimum of the profile, optionally matched to an ordinate."""

    t_min: float
    y_min: float
    predicted_depth: float
    matched_gamma: Optional[float] = None
    distance: Optional[float] = None


def _golden_lockstep(profile, a: np.ndarray, b: np.ndarray, tol: float = 1e-4):
    """Golden-section minima of a unimodal profile on each [a_i, b_i], updating a and b.

    Each search takes the points it would take alone, one call of `profile` per step.
    """
    x1, x2 = b - GOLDEN * (b - a), a + GOLDEN * (b - a)
    f1, f2 = np.split(profile(np.concatenate([x1, x2])), 2)
    while (live := np.flatnonzero(b - a > tol)).size:
        left = f1[live] <= f2[live]
        l, r = live[left], live[~left]
        b[l], x2[l], f2[l], x1[l] = x2[l], x1[l], f1[l], x2[l] - GOLDEN * (x2[l] - a[l])
        a[r], x1[r], f1[r], x2[r] = x1[r], x2[r], f2[r], x1[r] + GOLDEN * (b[r] - x1[r])
        y = profile(np.where(left, x1[live], x2[live]))
        f1[l], f2[r] = y[left], y[~left]
    return np.where(pick := f1 <= f2, x1, x2), np.where(pick, f1, f2)


def t_grid(t_lo: float, t_hi: float, step: float) -> tuple[np.ndarray, float]:
    """The grid t_lo, t_lo + step, ... through t_hi, and a bound on its |t|.

    Raises:
        ValueError: step not finite and positive, t_lo or t_hi not finite,
            t_lo > t_hi, t_hi - t_lo or the bound overflowing, or a step
            too small for float64 there (the grid is empty or not increasing).
        BudgetError: more than MAX_GRID_POINTS points (checked before
            the grid is allocated).
    """
    if not (step > 0 and math.isfinite(step)):
        raise ValueError(f"step must be positive and finite, got {step:g}")
    if not (math.isfinite(t_lo) and math.isfinite(t_hi)):
        raise ValueError("t_lo and t_hi must be finite")
    if not t_lo <= t_hi:
        raise ValueError("need t_lo <= t_hi")
    t_max = max(abs(t_lo), abs(t_hi)) + step
    if not (math.isfinite(t_hi - t_lo) and math.isfinite(t_max)):
        raise ValueError(f"t grid [{t_lo:g}, {t_hi:g}] at step {step:g} overflows float64")
    if not (t_hi - t_lo) / step < MAX_GRID_POINTS:
        raise BudgetError(
            f"t grid [{t_lo:g}, {t_hi:g}] at step {step:g} exceeds "
            f"{MAX_GRID_POINTS} points"
        )
    ts = np.arange(t_lo, t_hi + step / 2.0, step)
    if ts.size == 0 or not np.all(ts[1:] > ts[:-1]):
        raise ValueError(f"step {step:g} does not advance a float64 grid at t = {t_lo:g}")
    return ts, t_max


def scan_grid(t_lo: float, t_hi: float, step: float, window: float) -> tuple[np.ndarray, float]:
    """`t_grid(t_lo, t_hi, step)` for `scan_minima`, all of a dip scan's inputs checked.

    Raises:
        ValueError: step outside (0, 0.05] (too coarse to resolve dips at
            the zero spacing), a window for `match_to_zeros` that is
            negative or not finite, or as `t_grid`.
        BudgetError: as `t_grid`.
    """
    if not 0 < step <= MAX_SCAN_STEP:
        raise ValueError(f"step must be in (0, {MAX_SCAN_STEP}]")
    grid = t_grid(t_lo, t_hi, step)
    if not (math.isfinite(window) and window >= 0):
        raise ValueError("window must be finite and >= 0")
    return grid


def scan_minima(tup: CoefficientTuple, ts: np.ndarray, profile: Callable) -> list[DipRecord]:
    """Strict local minima of tup's profile on `scan_grid`'s grid ts, golden-refined in t.

    profile is tup's `series.kernel_profile_evaluator` for the grid's range.
    The grid takes one call of it, and each golden step of all minima one more
    (`_golden_lockstep`).  Every returned record satisfies the grid certificate
    y(t_min - step) >= y_min <= y(t_min + step); fewer than 3 points give none.
    """
    ys = profile(ts)
    i = 1 + np.flatnonzero((ys[1:-1] < ys[:-2]) & (ys[1:-1] < ys[2:]))
    t_min, y_min = _golden_lockstep(profile, ts[i - 1], ts[i + 1])
    predicted = dip_depth_prediction(tup.m, tup.positive_sum)
    return [DipRecord(t, y, predicted) for t, y in zip(t_min.tolist(), y_min.tolist())]


def match_to_zeros(
    records: Iterable[DipRecord], zeros: ZeroTable, window: float = 0.5
) -> list[DipRecord]:
    """Attach the nearest ordinate within `window` to each record.

    Records farther than the window from every ordinate stay unmatched,
    so a NaN or negative window (refused by `scan_grid`) matches none.
    """
    out = []
    for rec in records:
        j = int(np.searchsorted(zeros.ordinates, rec.t_min))
        neighbours = zeros.ordinates[max(j - 1, 0) : j + 1]
        # (distance, ordinate) of the nearer neighbour, the lower one on a tie
        near = min(((abs(rec.t_min - float(g)), float(g)) for g in neighbours), default=None)
        dist, matched = near if near and near[0] < window else (None, None)
        out.append(replace(rec, matched_gamma=matched, distance=dist))
    return out


def deep_minima(records: Iterable[DipRecord]) -> list[DipRecord]:
    """Records at least half as deep as the predicted dip depth.

    Filters out shallow ripples so counts compare against the ordinate
    count in range.
    """
    return [r for r in records if r.y_min <= 0.5 * r.predicted_depth]


def records_json(records: Iterable[DipRecord]) -> str:
    return json.dumps([asdict(r) for r in records], indent=2)


def write_profile_csv(fh, ts: np.ndarray, columns: dict[str, np.ndarray]) -> None:
    """Emit the curve grid as CSV: header row, dot decimals, 17 digits."""
    writer = csv.writer(fh)
    writer.writerow(["t"] + list(columns.keys()))
    for i, t in enumerate(ts):
        writer.writerow(
            [f"{t:.17g}"] + [f"{col[i]:.17g}" for col in columns.values()]
        )
