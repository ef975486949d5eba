"""Spans around zetacorr's layers, recorded from outside the package.

Each layer is a zetacorr module.  `install` replaces the module's
public entry points -- and every copy of them bound into another
zetacorr module's namespace by a ``from .x import y`` -- with wrappers
that record one span per call: name, start, end, parent span and run
id, plus counters read off the call's arguments and result.  Spans are
kept in memory; the caller writes them out when the command ends.

`layer_metrics` turns the spans of one command into the per-layer
metrics.  Time metrics are span self time: the span's duration minus
the time its child spans cover.
"""
from __future__ import annotations

import functools
import math
import statistics
import sys
import time

import numpy as np

# rows of t the profile evaluator handles at once (its default `block`)
PROFILE_BLOCK_ROWS = 256
MB = 2.0**20


class Tracer:
    """In-memory span recorder for one single-threaded command."""

    def __init__(self, run_id: int):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def wrap(self, name: str, fn, note=None):
        """`fn` recording a span per call; `note(result, *args)` adds counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {
                "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
                "name": name,
                "start": time.perf_counter(),
            }
            self.spans.append(span)
            self._stack.append(span["id"])
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.update(note(result, *args, **kwargs))
            return result

        return traced


def _rebind(original, replacement) -> None:
    """Point every zetacorr module attribute bound to `original` at `replacement`."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "zetacorr" and not mod_name.startswith("zetacorr."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _terms(table, n_cut: int) -> int:
    return int(np.searchsorted(table.prime_powers, n_cut, side="right"))


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of an imported zetacorr package."""
    from zetacorr import arithmetic, cli, correlation, dips, quadrature, series, zeros

    def patch(module, attr, name, note=None):
        original = getattr(module, attr)
        _rebind(original, tracer.wrap(name, original, note))

    patch(
        arithmetic,
        "sieve_mangoldt",
        "arithmetic.sieve",
        lambda t, *a, **k: {
            "limit": t.limit,
            "prime_powers": int(t.prime_powers.size),
            "table_bytes": sum(
                arr.nbytes
                for arr in (t.base_prime, t.prime_powers, t.base_log, t.power_index, t.psi)
            ),
        },
    )
    patch(zeros, "load_zeros", "zeros.load", lambda z, *a, **k: {"ordinates": len(z)})
    patch(zeros, "zeros_up_to", "zeros.up_to", lambda g, *a, **k: {"ordinates": int(g.size)})
    patch(
        series,
        "choose_truncation",
        "series.truncation",
        lambda n_cut, sigma, m, table, cfg: {"terms": _terms(table, n_cut)},
    )
    patch(series, "correlation_kernel", "series.kernel")

    original_evaluator = series.kernel_profile_evaluator

    @functools.wraps(original_evaluator)
    def profile_evaluator(*args, **kwargs):
        first = len(tracer.spans)
        evaluate = original_evaluator(*args, **kwargs)
        # the evaluator picks its truncation once; its terms size every call
        terms = next(
            s["terms"] for s in tracer.spans[first:] if s["name"] == "series.truncation"
        )
        note = lambda y, ts: {"points": int(y.size), "terms": terms}
        grid = tracer.wrap("series.profile_grid", evaluate, note)
        scalar = tracer.wrap("series.profile_scalar", evaluate, note)
        return lambda ts: (scalar if np.size(ts) == 1 else grid)(ts)

    _rebind(original_evaluator, tracer.wrap("series.profile_setup", profile_evaluator))
    patch(
        quadrature,
        "weighted_profile_integral",
        "quadrature.profile_integral",
        lambda r, *a, **k: {"evals": r.evaluations},
    )
    patch(
        quadrature,
        "sinc_product_constant",
        "quadrature.sinc_constant",
        lambda r, *a, **k: {"evals": r.evaluations},
    )
    patch(
        correlation,
        "direct_correlation_sum",
        "correlation.direct",
        lambda r, h, tup, *a, **k: {"tuples": r[1].tuple_count, "m": tup.m},
    )
    patch(
        correlation,
        "spectral_correlation_sum",
        "correlation.spectral",
        lambda r, h, tup, *a, **k: {
            "grid": r[1].grid_points,
            "distinct_abs": len({abs(a) for a in tup.entries}),
        },
    )
    patch(
        correlation,
        "main_term",
        "correlation.main_term",
        lambda r, h, tup, *a, **k: {"tuple": list(tup.entries)},
    )

    def report_note(report, *args, **kwargs):
        d = report.diagnostics
        claimed = d["claimed_errors"]["direct"] + d["claimed_errors"]["spectral"]
        return {
            "route_gap_ratio": d["route_gap"] / claimed if claimed > 0 else math.inf,
            "claimed_rel_error": claimed / abs(report.h_spectral)
            if report.h_spectral
            else math.inf,
        }

    patch(correlation, "build_report", "correlation.report", report_note)
    patch(dips, "scan_minima", "dips.scan", lambda recs, *a, **k: {"minima": len(recs)})
    patch(
        dips,
        "match_to_zeros",
        "dips.match",
        lambda recs, *a, **k: {"matched": sum(r.matched_gamma is not None for r in recs)},
    )
    patch(cli, "main", "cli.command")


def _self_times(spans: list[dict]) -> list[float]:
    own = [s["end"] - s["start"] for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["end"] - s["start"]
    return own


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced command (span ids index `spans`)."""
    own = _self_times(spans)
    by_name: dict[str, list[int]] = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s["name"], []).append(i)

    def time_of(name):
        return math.fsum(own[i] for i in by_name.get(name, []))

    def calls(name):
        return len(by_name.get(name, []))

    def total(name, key):
        return sum(spans[i][key] for i in by_name.get(name, []))

    def peak(name, key, default=0):
        return max((spans[i][key] for i in by_name.get(name, [])), default=default)

    # each route span calls zeros_up_to once: its n
    route_n = {spans[i]["parent"]: spans[i]["ordinates"] for i in by_name.get("zeros.up_to", [])}
    direct = by_name.get("correlation.direct", [])
    prefixes = sum(route_n[i] ** (spans[i]["m"] - 2) for i in direct)
    full = sum(route_n[i] ** spans[i]["m"] for i in direct)
    spectral = by_name.get("correlation.spectral", [])
    phase_evals = sum(
        spans[i]["grid"] * route_n[i] * spans[i]["distinct_abs"] for i in spectral
    )
    main_calls = calls("correlation.main_term")
    distinct_tuples = len({tuple(spans[i]["tuple"]) for i in by_name.get("correlation.main_term", [])})
    points_terms = [
        (spans[i]["points"], spans[i]["terms"])
        for name in ("series.profile_grid", "series.profile_scalar")
        for i in by_name.get(name, [])
    ]
    evaluator_terms = max((t for _, t in points_terms), default=0)
    command = by_name["cli.command"][0]
    command_s = spans[command]["end"] - spans[command]["start"]
    return {
        "arithmetic.sieve_s": time_of("arithmetic.sieve"),
        "arithmetic.sieve_limit": peak("arithmetic.sieve", "limit"),
        "arithmetic.prime_powers": peak("arithmetic.sieve", "prime_powers"),
        "arithmetic.table_mb": peak("arithmetic.sieve", "table_bytes") / MB,
        "zeros.load_s": time_of("zeros.load"),
        "zeros.ordinates_used": max(route_n.values(), default=peak("zeros.load", "ordinates")),
        "series.truncation_s": time_of("series.truncation"),
        "series.truncation_calls": calls("series.truncation"),
        "series.terms": peak("series.truncation", "terms"),
        "series.kernel_s": time_of("series.kernel"),
        "series.kernel_calls": calls("series.kernel"),
        "series.profile_setup_s": time_of("series.profile_setup"),
        "series.profile_grid_s": time_of("series.profile_grid"),
        "series.profile_grid_points": total("series.profile_grid", "points"),
        "series.profile_scalar_s": time_of("series.profile_scalar"),
        "series.profile_term_evals": sum(p * t for p, t in points_terms),
        "series.profile_block_mb": PROFILE_BLOCK_ROWS * 8 * evaluator_terms / MB,
        "quadrature.profile_integral_s": time_of("quadrature.profile_integral"),
        "quadrature.profile_integral_calls": calls("quadrature.profile_integral"),
        "quadrature.evals": total("quadrature.profile_integral", "evals"),
        "quadrature.sinc_constant_s": time_of("quadrature.sinc_constant"),
        "quadrature.sinc_constant_evals": total("quadrature.sinc_constant", "evals"),
        "correlation.direct_s": time_of("correlation.direct"),
        "correlation.direct_tuples": total("correlation.direct", "tuples"),
        "correlation.direct_prefixes": prefixes,
        "correlation.direct_kept_ratio": total("correlation.direct", "tuples") / full
        if full
        else 0.0,
        "correlation.spectral_s": time_of("correlation.spectral"),
        "correlation.spectral_grid_points": total("correlation.spectral", "grid"),
        "correlation.spectral_phase_evals": phase_evals,
        "correlation.main_term_s": time_of("correlation.main_term"),
        "correlation.main_term_calls": main_calls,
        "correlation.main_term_reuse_ratio": distinct_tuples / main_calls
        if main_calls
        else 0.0,
        "correlation.report_s": time_of("correlation.report"),
        "correlation.route_gap_ratio": peak("correlation.report", "route_gap_ratio", 0.0),
        "correlation.claimed_rel_error": peak("correlation.report", "claimed_rel_error", 0.0),
        "dips.scan_s": time_of("dips.scan"),
        "dips.minima": total("dips.scan", "minima"),
        # golden refinement calls the evaluator point by point from inside the scan
        "dips.refine_evals": sum(
            spans[spans[i]["parent"]]["name"] == "dips.scan"
            for i in by_name.get("series.profile_scalar", [])
        ),
        "dips.match_s": time_of("dips.match"),
        "dips.matched": total("dips.match", "matched"),
        "cli.command_s": command_s,
        "cli.self_s": own[command],
        "trace.coverage": 1.0 - own[command] / command_s,
    }


def median_metrics(samples: list[dict[str, float]]) -> dict[str, float]:
    """Metric-wise median over the commands of one run."""
    return {key: statistics.median(s[key] for s in samples) for key in samples[0]}


def unit_of(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith(("_ratio", "_rel_error", ".coverage")):
        return "ratio"
    return "count"
