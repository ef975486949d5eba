"""Flat key-value experiment configuration.

Format: UTF-8 text, one `key = value` per line, '#' comments.  Keys:

    zeros                path of the ordinate table (falls back to the
                         ZETA_ZEROS_PATH env var, then the bundled table)
    tuples               semicolon-separated coefficient tuples, e.g.
                         ``1,1,-2; 1,1,-1,-1``
    T                    comma-separated list of cutoffs
    h_center, h_width    weight-function parameters (default 20, 2)
    series_tolerance     accepted and validated, but not stored: hsum
                         reads no series tolerance
    quadrature_tolerance certified tail tolerance of the closed-form
                         main-term sum, which also sizes the sieve
                         (default 1e-6)
    output_dir           where reports are written (default '.')

Every tuple is validated before any computation starts.  Unknown keys,
a tuple or T listed twice (they name one report), and T entries,
tolerances or weight parameters not finite and positive, are rejected.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

from .errors import DataError
from .tuples import CoefficientTuple
from .correlation import MAIN_TERM_TOL, parse_tuple_text
from .zeros import bundled_zeros_path

ENV_ZEROS = "ZETA_ZEROS_PATH"
KEYS = {
    "zeros", "tuples", "T", "h_center", "h_width",
    "series_tolerance", "quadrature_tolerance", "output_dir",
}
DEFAULTS = {"h_center": 20.0, "h_width": 2.0, "quadrature_tolerance": MAIN_TERM_TOL}


@dataclass
class ExperimentConfig:
    zeros_path: Path
    tuples: list[CoefficientTuple]
    t_list: list[float]
    h_center: float
    h_width: float
    quadrature_tolerance: float
    output_dir: Path


def default_zeros_path() -> Path:
    env = os.environ.get(ENV_ZEROS)
    return Path(env) if env else bundled_zeros_path()


def _positive(key: str, text: str | float) -> float:
    value = float(text)
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{key} must be finite and positive, got {text!r}")
    return value


def parse_config_text(text: str, source: str = "<config>") -> ExperimentConfig:
    """Parse config text; raises DataError naming the offending line."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise DataError(f"{source}: line {lineno}: expected 'key = value'")
        key, _, value = stripped.partition("=")
        raw[key.strip()] = value.strip()
    unknown = sorted(set(raw) - KEYS)
    if unknown:
        raise DataError(f"{source}: unknown key(s) {', '.join(unknown)}")
    try:
        tuples = [parse_tuple_text(t) for t in raw.get("tuples", "").split(";") if t.strip()]
        t_list = [_positive("T", t) for t in raw.get("T", "").split(",") if t.strip()]
        for what, items in (("tuple", tuples), ("T", t_list)):  # a (tuple, T) names a report
            if not items:
                raise ValueError(f"config must list at least one {what}")
            for i, item in enumerate(items):
                if item in items[:i]:
                    raise ValueError(f"{what} {item} given more than once")
        if "series_tolerance" in raw:
            _positive("series_tolerance", raw["series_tolerance"])
        zeros_path = Path(raw["zeros"]) if "zeros" in raw else default_zeros_path()
        return ExperimentConfig(
            zeros_path=zeros_path,
            tuples=tuples,
            t_list=t_list,
            output_dir=Path(raw.get("output_dir", ".")),
            **{key: _positive(key, raw.get(key, default)) for key, default in DEFAULTS.items()},
        )
    except (ValueError, KeyError) as exc:
        raise DataError(f"{source}: {exc}") from exc


def load_config(path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text, source=str(path))
