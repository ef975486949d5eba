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
and T entries, tolerances or weight parameters that are not finite and
positive, are rejected.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DataError
from .tuples import CoefficientTuple
from .correlation import parse_tuple_text
from .zeros import bundled_zeros_path

ENV_ZEROS = "ZETA_ZEROS_PATH"
KEYS = {
    "zeros", "tuples", "T", "h_center", "h_width",
    "series_tolerance", "quadrature_tolerance", "output_dir",
}


@dataclass
class ExperimentConfig:
    zeros_path: Path
    tuples: list[CoefficientTuple]
    t_list: list[float]
    h_center: float = 20.0
    h_width: float = 2.0
    quadrature_tolerance: float = 1e-6
    output_dir: Path = field(default_factory=lambda: Path("."))


def default_zeros_path() -> Path:
    env = os.environ.get(ENV_ZEROS)
    return Path(env) if env else bundled_zeros_path()


def _positive(key: str, text: str) -> float:
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
        tuples_text = raw.get("tuples", "")
        tuples = [
            parse_tuple_text(part)
            for part in tuples_text.split(";")
            if part.strip()
        ]
        if not tuples:
            raise ValueError("config must list at least one tuple")
        t_list = [
            _positive("T", part) for part in raw.get("T", "").split(",") if part.strip()
        ]
        if not t_list:
            raise ValueError("config must list at least one T")
        if "series_tolerance" in raw:
            _positive("series_tolerance", raw["series_tolerance"])
        zeros_path = Path(raw["zeros"]) if "zeros" in raw else default_zeros_path()
        return ExperimentConfig(
            zeros_path=zeros_path,
            tuples=tuples,
            t_list=t_list,
            h_center=_positive("h_center", raw.get("h_center", "20")),
            h_width=_positive("h_width", raw.get("h_width", "2")),
            quadrature_tolerance=_positive(
                "quadrature_tolerance", raw.get("quadrature_tolerance", "1e-6")
            ),
            output_dir=Path(raw.get("output_dir", ".")),
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
