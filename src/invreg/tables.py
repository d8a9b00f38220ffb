"""Plot-ready CSV serialization for the experiment tables.

Floats are rendered with Python's shortest round-trip repr (``.`` decimal
separator, no locale), so rewriting the same table is byte-identical and a
parse of the emitted file reproduces the in-memory values exactly.
"""

from __future__ import annotations

import csv
import io
from pathlib import Path

import numpy as np

from .montecarlo import EfficiencyRow, RiskRow

__all__ = [
    "RISK_HEADER",
    "EFFICIENCY_HEADER",
    "SCORE_HEADER",
    "PER_REP_HEADER",
    "emit_risk_table",
    "emit_efficiency_table",
    "emit_score_curve",
    "emit_per_rep_errors",
    "parse_per_rep_errors",
]

RISK_HEADER = "sigma,R_or,se_or,R_pred,se_pred,R_LEP,se_lep"
EFFICIENCY_HEADER = "sigma,eff_pred,eff_lep"
SCORE_HEADER = "alpha,score"
PER_REP_HEADER = "sigma,replication,err_or,err_pred,err_lep"


def _fmt(x: float) -> str:
    return repr(float(x))


def _write(path, header: str, rows) -> None:
    lines = [header]
    lines.extend(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) for row in rows)
    Path(path).write_text("\n".join(lines) + "\n", encoding="ascii")


def emit_risk_table(rows: tuple[RiskRow, ...], path) -> None:
    if not rows:
        raise ValueError("refusing to emit an empty risk table")
    _write(
        path,
        RISK_HEADER,
        [
            (r.sigma, r.r_or, r.se_or, r.r_pred, r.se_pred, r.r_lep, r.se_lep)
            for r in rows
        ],
    )


def emit_efficiency_table(rows: tuple[EfficiencyRow, ...], path) -> None:
    if not rows:
        raise ValueError("refusing to emit an empty efficiency table")
    _write(path, EFFICIENCY_HEADER, [(r.sigma, r.eff_pred, r.eff_lep) for r in rows])


def emit_score_curve(pairs, path) -> None:
    pairs = list(pairs)
    if not pairs:
        raise ValueError("refusing to emit an empty score curve")
    _write(path, SCORE_HEADER, pairs)


def emit_per_rep_errors(rows: tuple[RiskRow, ...], path) -> None:
    if not rows or any(not r.per_rep for r in rows):
        raise ValueError("risk table does not retain per-replication errors")
    lines = []
    for r in rows:
        columns = (np.asarray(r.per_rep[key]).tolist() for key in ("or", "pred", "lep"))
        lines.extend((r.sigma, str(j), *errors) for j, errors in enumerate(zip(*columns)))
    _write(path, PER_REP_HEADER, lines)


def _read(path, header: str) -> list[list[float]]:
    """The rows below ``header`` as floats; a wrong header, a row with the
    wrong number of fields or a cell that is not a number raises ValueError."""
    text = Path(path).read_text(encoding="ascii")
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or ",".join(rows[0]) != header:
        raise ValueError(f"expected header {header!r} in {path}")
    width = header.count(",") + 1
    values = []
    for line, row in enumerate(rows[1:], start=2):
        if len(row) != width:
            raise ValueError(f"{path}:{line}: expected {width} fields, got {len(row)}")
        try:
            values.append([float(v) for v in row])
        except ValueError as exc:
            raise ValueError(f"{path}:{line}: {exc}") from exc
    return values


def parse_per_rep_errors(path) -> dict[float, dict[str, np.ndarray]]:
    """Per-replication errors grouped by sigma, in file order."""
    groups: dict[float, dict[str, list[float]]] = {}
    for row in _read(path, PER_REP_HEADER):
        g = groups.setdefault(row[0], {"or": [], "pred": [], "lep": []})
        g["or"].append(row[2])
        g["pred"].append(row[3])
        g["lep"].append(row[4])
    return {
        sigma: {k: np.array(v) for k, v in g.items()} for sigma, g in groups.items()
    }
