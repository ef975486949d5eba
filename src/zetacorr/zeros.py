"""Load, validate, and query tables of Riemann zeta zero ordinates.

Tables are plain UTF-8 text: one positive decimal ordinate per line
(dot decimal separator), '#' starting a comment line.  Ordinates must be
nondecreasing; an exactly repeated value is kept and interpreted as a
declared multiplicity, with a warning, since no multiple zero is known.
Zeros are external data - nothing here computes them.

A bundled table of the first 1000 ordinates ships with the package; see
:func:`bundled_zeros_path`.
"""
from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

import numpy as np

from .errors import DataError


@dataclass(frozen=True)
class ZeroTable:
    """Ascending positive ordinates with provenance."""

    ordinates: np.ndarray
    source: str
    precision_digits: int

    def __len__(self) -> int:
        return self.ordinates.size

    @property
    def max_ordinate(self) -> float:
        return float(self.ordinates[-1]) if self.ordinates.size else 0.0


@dataclass(frozen=True)
class ValidationReport:
    """Zero-count checkpoints against the asymptotic counting formula."""

    source: str
    checkpoints: list[dict] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(not c["flagged"] for c in self.checkpoints)

    def to_json(self) -> str:
        return json.dumps({"checkpoints": self.checkpoints}, indent=2)


def bundled_zeros_path() -> Path:
    """Filesystem path of the packaged 1000-ordinate table."""
    return Path(resources.files("zetacorr").joinpath("data/zeros_1000.txt"))


def load_zeros(path) -> ZeroTable:
    """Parse an ordinate table from a text file.

    Raises:
        DataError: unreadable file, unparseable line, non-finite or
            non-positive ordinate, a line that is not ASCII digits with at
            most one dot, or a decreasing ordinate (message carries the
            line number).
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot read zeros file {path}: {exc}") from exc
    values: list[float] = []
    digits = 0
    prev = 0.0
    repeats = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = float(line)
        except ValueError as exc:
            raise DataError(f"{path}: line {lineno}: not a decimal: {line!r}") from exc
        if not math.isfinite(value):
            raise DataError(f"{path}: line {lineno}: ordinate must be finite")
        if value <= 0.0:
            raise DataError(f"{path}: line {lineno}: ordinate must be positive")
        if not (line.isascii() and line.replace(".", "", 1).isdigit()):
            raise DataError(f"{path}: line {lineno}: not a decimal: {line!r}")
        if value < prev:
            raise DataError(
                f"{path}: line {lineno}: ordinate {value} decreases below {prev}"
            )
        if value == prev:
            repeats += 1
        if "." in line:
            digits = max(digits, len(line.split(".", 1)[1].rstrip()))
        values.append(value)
        prev = value
    if repeats:
        warnings.warn(
            f"{path}: {repeats} repeated ordinate(s) kept as declared multiplicity",
            stacklevel=2,
        )
    return ZeroTable(
        ordinates=np.asarray(values, dtype=np.float64),
        source=str(path),
        precision_digits=digits,
    )


def write_zeros(table: ZeroTable, path) -> None:
    """Serialize a table at its stored precision (round-trips bit-exact)."""
    digits = max(table.precision_digits, 1)
    lines = [f"{g:.{digits}f}" for g in table.ordinates]
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def zeros_up_to(table: ZeroTable, t_max: float) -> np.ndarray:
    """All ordinates g with 0 < g <= t_max (binary-search slice view).

    Raises:
        ValueError: t_max <= 0.
        DataError: t_max above the table's last ordinate, or any t_max for
            an empty table: zeros the table lacks could lie below t_max.
    """
    if not t_max > 0:
        raise ValueError("t_max must be positive")
    if t_max > table.max_ordinate:
        held = f"ends at {table.max_ordinate!r}" if len(table) else "is empty"
        raise DataError(f"zero table {table.source} {held}, so it does not cover T={t_max!r}")
    cut = int(np.searchsorted(table.ordinates, t_max, side="right"))
    return table.ordinates[:cut]


def riemann_von_mangoldt_count(t: float) -> float:
    """Smooth zero-count approximation (T/2pi) log(T/2pi) - T/2pi + 7/8.

    Raises:
        ValueError: t < 2.
    """
    if t < 2:
        raise ValueError("counting formula needs T >= 2")
    x = t / (2.0 * math.pi)
    return x * math.log(x) - x + 7.0 / 8.0


def validate_zero_table(
    table: ZeroTable, checkpoints: tuple[float, ...] = (100.0, 500.0, 1000.0)
) -> ValidationReport:
    """Compare zero counts with the counting formula at checkpoints.

    The first checkpoint beyond the table's largest ordinate is still
    checked (it exposes a table that is shorter than it claims); later
    ones carry no further information and are skipped.  The table
    maximum itself is always checked.  A deviation above 3 + log(T) is
    flagged.

    Raises:
        ValueError: empty table.
    """
    if len(table) == 0:
        raise ValueError("cannot validate an empty table")
    inside = [t for t in sorted(checkpoints) if t <= table.max_ordinate]
    beyond = [t for t in sorted(checkpoints) if t > table.max_ordinate]
    points = inside + beyond[:1]
    if table.max_ordinate not in points:
        points.append(table.max_ordinate)
    report = ValidationReport(source=table.source)
    for t in points:
        count = int(np.searchsorted(table.ordinates, t, side="right"))
        expected = riemann_von_mangoldt_count(t)
        deviation = abs(count - expected)
        report.checkpoints.append(
            {
                "T": t,
                "count": count,
                "expected": expected,
                "deviation": deviation,
                "flagged": bool(deviation > 3.0 + math.log(t)),
            }
        )
    return report
