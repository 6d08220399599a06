"""Plain-text reporting of experiment series.

Every experiment function in :mod:`repro.bench.experiments` returns an
:class:`ExperimentSeries`; :func:`render_table` turns it into the fixed-width
table the benchmark suite prints, and :func:`save_csv` persists it for
postprocessing.  :meth:`ExperimentSeries.to_dict` /
:meth:`ExperimentSeries.from_dict` give the lossless JSON form of the
``series.json`` bundle that ``python -m repro.bench run`` writes and
``report`` re-renders.  Nothing here depends on plotting libraries — the
paper's figures are line/bar charts over exactly these rows.

Values are restricted to finite numbers and strings: :meth:`add_row` raises
on NaN/infinity instead of letting them silently corrupt CSVs (and the JSON
bundle, which cannot represent them).  An experiment that genuinely wants to
report an unbounded ratio passes the string ``"inf"``.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Union

__all__ = ["ExperimentSeries", "render_table", "save_csv"]

Value = Union[int, float, str]


@dataclass
class ExperimentSeries:
    """One experiment's output: named columns, one row per sweep point."""

    experiment: str
    title: str
    columns: List[str]
    rows: List[List[Value]] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)

    def add_row(self, *values: Value) -> None:
        """Append one sweep point (must match the column count).

        Raises :class:`ValueError` on an arity mismatch and on non-finite
        floats — NaN/inf would round-trip through CSV as unparseable
        strings and are not representable in the JSON series bundle.
        """
        if len(values) != len(self.columns):
            raise ValueError(
                f"{self.experiment}: row has {len(values)} values for "
                f"{len(self.columns)} columns"
            )
        for column, value in zip(self.columns, values):
            if isinstance(value, float) and not math.isfinite(value):
                raise ValueError(
                    f"{self.experiment}: non-finite value {value!r} for "
                    f"column {column!r} (pass the string 'inf' to report "
                    "an unbounded ratio)"
                )
        self.rows.append(list(values))

    def column(self, name: str) -> List[Value]:
        """All values of one column."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def as_dicts(self) -> List[Dict[str, Value]]:
        """Rows as dictionaries."""
        return [dict(zip(self.columns, row)) for row in self.rows]

    def to_dict(self) -> Dict[str, Any]:
        """Lossless JSON-serialisable form (see :meth:`from_dict`)."""
        return {
            "experiment": self.experiment,
            "title": self.title,
            "columns": list(self.columns),
            "rows": [list(row) for row in self.rows],
            "notes": list(self.notes),
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ExperimentSeries":
        """Rebuild a series from :meth:`to_dict` output.

        Exact for every value :meth:`add_row` accepts: JSON preserves int
        vs float, and ``repr``-based float serialisation round-trips.
        """
        return cls(
            experiment=payload["experiment"],
            title=payload["title"],
            columns=list(payload["columns"]),
            rows=[list(row) for row in payload["rows"]],
            notes=list(payload.get("notes", [])),
        )


def _format_value(value: Value) -> str:
    if isinstance(value, float):
        if value == int(value) and abs(value) < 1e15:
            return str(int(value))
        return f"{value:.3f}"
    return str(value)


def render_table(series: ExperimentSeries) -> str:
    """Fixed-width table with title and notes, ready to print.

    Column widths are the maximum of the header and every formatted cell;
    floats print with three decimals unless integral (then as integers).
    """
    cells = [[_format_value(v) for v in row] for row in series.rows]
    widths = [len(column) for column in series.columns]
    for row in cells:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [f"== {series.experiment}: {series.title} =="]
    header = "  ".join(name.rjust(widths[i]) for i, name in enumerate(series.columns))
    lines.append(header)
    lines.append("  ".join("-" * width for width in widths))
    for row in cells:
        lines.append("  ".join(cell.rjust(widths[i]) for i, cell in enumerate(row)))
    for note in series.notes:
        lines.append(f"   note: {note}")
    return "\n".join(lines)


def save_csv(series: ExperimentSeries, directory: Union[str, Path]) -> Path:
    """Write the series to ``<directory>/<experiment>.csv``; returns the path.

    The directory (including missing parents) is created on demand, so a
    fresh checkout without ``benchmarks/results/`` works.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{series.experiment}.csv"
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(series.columns)
        writer.writerows(series.rows)
    return path
