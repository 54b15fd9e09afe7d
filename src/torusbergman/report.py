"""Run reports: the RunReport that experiment.run returns, and its files.

emit_report writes one CSV per experiment and summary.json, which maps every
enabled acceptance criterion to {criterion_id, description, measured,
threshold, pass, checks}, with the run's warnings and environment.  A
pullback block's grid and field columns are IndexedColumns, formatted once
per block.  Every float cell is written as '%.17g', so reruns with the same config
and seed produce byte-identical CSV bodies.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

__all__ = ["RunReport", "IndexedColumn", "emit_report"]


class RunReport:
    def __init__(self, criteria: list[dict], tables: dict[str, tuple[list[str], list[list]]],
                 warnings: list[str], environment: dict):
        self.criteria, self.warnings, self.environment = criteria, warnings, environment
        self.tables = tables        # exp -> (header, rows); see _write_rows

    @property
    def passed(self) -> bool:
        return all(c["pass"] for c in self.criteria)


_CSV_NAME = {"dims": "dims.csv", "density": "density.csv", "offdiag": "offdiag.csv",
             "far": "far.csv", "ratio": "ratio_profile.csv", "embed": "embed_scan.csv",
             "pullback": "pullback.csv", "derivs": "derivatives.csv"}


class IndexedColumn:
    """A block column kept as values, (U,) or (U, c), and an index, line p
    reading values[index[p]]; _write_block formats its values once per block."""

    def __init__(self, values: np.ndarray, index: np.ndarray):
        self.values, self.index = values, index

    def __len__(self) -> int:
        return len(self.index)


def _cell(v) -> str:
    """The text of one CSV cell; _write_block writes a block's floats with the same bytes."""
    if isinstance(v, (float, np.floating)):
        return "%.17g" % v
    if isinstance(v, (complex, np.complexfloating)):
        return "%.17g,%.17g" % (v.real, v.imag)
    return str(v)


_CHUNK = 1024     # block lines joined together


def _texts(X: np.ndarray) -> np.ndarray:
    """The '%.17g' text of each entry of X (U,), or of each row of X (U, c) with
    its cells joined by commas: an object array of U strings."""
    return np.array([",".join(["%.17g" % x for x in r]) if isinstance(r, list) else "%.17g" % r
                     for r in X.astype(np.float64, copy=False).tolist()], dtype=object)


def _write_block(fh, row) -> None:
    """Write a block: its IndexedColumns run down P lines and its scalar cells
    repeat on each.  Each column's values are formatted once per block into a
    text table, and line p takes the column's piece from entry index[p] of it.
    The scalar cells are folded into the table of the column before them, or
    of the first one."""
    cols, lead = [], ""             # cols: [column, prefix, suffix]; a piece ends in the separator after it
    for v in row:
        if isinstance(v, IndexedColumn):
            cols.append([v, "", ","])
        elif cols:
            cols[-1][2] += _cell(v) + ","
        else:
            lead += _cell(v) + ","
    lengths = {len(c) for c, _, _ in cols}
    if len(lengths) != 1:
        raise ValueError(f"block columns have unequal lengths {sorted(lengths)}")
    cols[0][1], cols[-1][2] = lead, cols[-1][2][:-1] + "\n"
    tables = [(c.index, pre + _texts(c.values) + suf) for c, pre, suf in cols]
    P, w = lengths.pop(), len(cols)
    for lo in range(0, P, _CHUNK):
        text = [None] * (w * min(_CHUNK, P - lo))      # the chunk's pieces, line by line
        for j, (index, table) in enumerate(tables):
            text[j::w] = table[index[lo:lo + _CHUNK]].tolist()
        fh.write("".join(text))


def _write_rows(fh, rows) -> None:
    """Write rows as they come: a row holding an IndexedColumn is a block, any other one line."""
    for row in rows:
        if any(isinstance(v, IndexedColumn) for v in row):
            _write_block(fh, row)
        else:
            fh.write(",".join(map(_cell, row)) + "\n")


def emit_report(report: RunReport, out_dir) -> list[str]:
    """Write per-experiment CSVs and summary.json; returns written paths."""
    out = Path(out_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(f"cannot create output directory {out}: {exc}") from exc
    written = []
    for name, (header, rows) in report.tables.items():
        path = out / _CSV_NAME[name]
        try:
            with open(path, "w", newline="\n") as fh:
                fh.write(",".join(header) + "\n")
                _write_rows(fh, rows)
        except OSError as exc:
            raise OSError(f"writing {path} failed: {exc}") from exc
        written.append(str(path))
    summary = {"criteria": report.criteria, "warnings": report.warnings,
               "environment": report.environment, "pass": report.passed}
    path = out / "summary.json"
    try:
        with open(path, "w", newline="\n") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True, default=float)
            fh.write("\n")
    except OSError as exc:
        raise OSError(f"writing {path} failed: {exc}") from exc
    written.append(str(path))
    return written
