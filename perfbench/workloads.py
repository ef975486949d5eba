"""The benchmark's workloads: inputs made from a seed, and the output gate.

Every workload runs one fixed zetacorr CLI command with the bundled
1000-ordinate table and series tolerance 1e-2 (quadrature tolerance
1e-6 for ``hsum``).  Seed 0 gives the canonical inputs below; any other
seed moves the weight's centre and width and shifts the ``dips``
window, at the same amount of work.

An operation is one (tuple, T) report of ``hsum`` or one expected dip
of ``dips`` -- one per ordinate inside the scanned window.  `check`
fails an operation when the command failed, when its output breaks an
invariant, when it differs from the first command of the run with the
same inputs (identical inputs must give byte-identical outputs) or, on
seed 0, when it moved from the values recorded in reference.json.
"""
from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

SERIES_TOLERANCE = 1e-2
QUADRATURE_TOLERANCE = 1e-6
DIP_TIME_TOLERANCE = 1e-3


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str  # "hsum" or "dips"
    tuples: tuple[str, ...]
    t_list: tuple[float, ...] = ()
    t_lo: float = 0.0
    t_hi: float = 0.0
    step: float = 0.0


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hsum-cubic-tall", "hsum", ("1,1,-2",), t_list=(300.0, 500.0)),
        # main term dominates (recomputed for each T), then the direct route
        Workload("hsum-quartic", "hsum", ("1,1,-1,-1",), t_list=(100.0, 150.0)),
        # the same series profile as hsum-quartic, as one grid call plus
        # single-point refinement instead of quadrature batches
        Workload("dips-quartic", "dips", ("1,1,-1,-1",), t_lo=10.0, t_hi=40.0, step=0.02),
    )
}


@dataclass(frozen=True)
class Inputs:
    h_center: float = 20.0
    h_width: float = 2.0
    window_shift: float = 0.0


def inputs_for(seed: int) -> Inputs:
    if seed == 0:
        return Inputs()
    rng = random.Random(seed)
    # small enough that the main term's adaptive quadrature keeps its
    # evaluation count; wider moves change it by up to a fifth
    return Inputs(
        h_center=round(20.0 + rng.uniform(-0.02, 0.02), 6),
        h_width=round(2.0 + rng.uniform(-0.002, 0.002), 6),
        window_shift=round(rng.uniform(-0.5, 0.5), 6),
    )


def command(w: Workload, inputs: Inputs, out_dir: Path) -> list[str]:
    """CLI arguments of one command; an hsum config is written to out_dir."""
    if w.kind == "hsum":
        config = out_dir / "experiment.cfg"
        config.write_text(
            "\n".join(
                [
                    f"tuples = {'; '.join(w.tuples)}",
                    f"T = {', '.join(repr(t) for t in w.t_list)}",
                    f"h_center = {inputs.h_center!r}",
                    f"h_width = {inputs.h_width!r}",
                    f"series_tolerance = {SERIES_TOLERANCE!r}",
                    f"quadrature_tolerance = {QUADRATURE_TOLERANCE!r}",
                    f"output_dir = {out_dir / 'reports'}",
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        return ["hsum", "--config", str(config)]
    return [
        "dips",
        "--tuple", w.tuples[0],
        "--t-lo", repr(w.t_lo + inputs.window_shift),
        "--t-hi", repr(w.t_hi + inputs.window_shift),
        "--step", repr(w.step),
        "--tolerance", repr(SERIES_TOLERANCE),
    ]


def outputs(w: Workload, out_dir: Path) -> dict[str, bytes]:
    """The files a command wrote that must be byte-identical across runs."""
    if w.kind == "hsum":
        return {p.name: p.read_bytes() for p in sorted((out_dir / "reports").glob("*"))}
    return {"stdout": (out_dir / "stdout.txt").read_bytes()}


def expected_operations(w: Workload, inputs: Inputs, ordinates: list[float]) -> int:
    if w.kind == "hsum":
        return len(w.tuples) * len(w.t_list)
    return len(_window_ordinates(w, inputs, ordinates))


def _window_ordinates(w: Workload, inputs: Inputs, ordinates: list[float]) -> list[float]:
    lo, hi = w.t_lo + inputs.window_shift, w.t_hi + inputs.window_shift
    return [g for g in ordinates if lo < g < hi]


def check(
    w: Workload,
    inputs: Inputs,
    seed: int,
    files: dict[str, bytes],
    first: dict[str, bytes] | None,
    reference: dict,
    ordinates: list[float],
) -> tuple[int, list[str]]:
    """Failed operations of one successful command, with reasons."""
    if w.kind == "hsum":
        return _check_hsum(w, seed, files, first, reference)
    return _check_dips(w, inputs, seed, files, first, reference, ordinates)


def report_key(entries, t_max: float) -> str:
    return f"{','.join(str(a) for a in entries)}@{t_max!r}"


def _check_hsum(w, seed, files, first, reference) -> tuple[int, list[str]]:
    expected = [report_key(t.split(","), T) for t in w.tuples for T in w.t_list]
    if first is not None and first != files:
        return len(expected), ["output differs from the run's first command"]
    reports = {}
    for name, data in files.items():
        if name.startswith("report_"):
            report = json.loads(data)
            reports[report_key(report["tuple_entries"], report["t_max"])] = report
    failures = []
    for key in expected:
        if key not in reports:
            failures.append(f"{key}: report missing")
            continue
        ref = reference[w.name][key] if seed == 0 else None
        problem = _report_problem(reports[key], ref)
        if problem:
            failures.append(f"{key}: {problem}")
    return len(failures), failures


def _report_problem(report: dict, ref: dict | None) -> str | None:
    d = report["diagnostics"]
    claimed = d["claimed_errors"]
    if not all(math.isfinite(report[k]) for k in ("h_direct", "h_spectral", "main_term")):
        return "non-finite value"
    if not d["route_gap"] <= claimed["direct"] + claimed["spectral"]:
        return "routes disagree beyond their claimed errors"
    if ref is None:
        return None
    if abs(report["h_direct"] - ref["h_direct"]) > claimed["direct"]:
        return "H_direct moved beyond its claimed error"
    if abs(report["h_spectral"] - ref["h_spectral"]) > claimed["spectral"]:
        return "H_spectral moved beyond its claimed error"
    m = len(report["tuple_entries"])
    if abs(report["main_term"] - ref["main_term"]) > (
        QUADRATURE_TOLERANCE * abs(ref["d"]) * report["t_max"] ** (m - 1)
    ):
        return "main_term moved beyond the quadrature tolerance"
    return None


def _check_dips(w, inputs, seed, files, first, reference, ordinates) -> tuple[int, list[str]]:
    window = _window_ordinates(w, inputs, ordinates)
    if first is not None and first != files:
        return len(window), ["output differs from the run's first command"]
    records = json.loads(files["stdout"])
    deep_unmatched = [
        r for r in records
        if r["y_min"] <= 0.5 * r["predicted_depth"] and r["matched_gamma"] is None
    ]
    if deep_unmatched:
        return len(window), [f"deep dip at t={r['t_min']} matches no ordinate" for r in deep_unmatched]
    failures = []
    for gamma in window:
        hits = [r for r in records if r["matched_gamma"] == gamma]
        if len(hits) != 1:
            failures.append(f"ordinate {gamma}: {len(hits)} matched dips")
            continue
        dip = hits[0]
        if not dip["y_min"] <= 0.5 * dip["predicted_depth"]:
            failures.append(f"ordinate {gamma}: dip not deep")
        elif seed == 0:
            ref = reference[w.name].get(repr(gamma))
            if ref is None or abs(dip["t_min"] - ref) > DIP_TIME_TOLERANCE:
                failures.append(f"ordinate {gamma}: t_min {dip['t_min']} moved from {ref}")
    return len(failures), failures
