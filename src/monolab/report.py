"""Report documents and deterministic file emission.

A check's record carries the artifact tables it writes.  CSV and .dat
artifacts use full double precision (shortest round-trip repr), `.` as the
decimal separator and newline-terminated rows; writes are idempotent and
byte-identical for identical documents.
"""

from __future__ import annotations

import json
import os
import platform
from dataclasses import dataclass, field

import numpy as np

from . import __version__

__all__ = ["CheckRecord", "ReportDocument", "write_report", "environment_info"]


@dataclass
class CheckRecord:
    name: str
    passed: bool | None          # None: informational only
    values: dict = field(default_factory=dict)
    # file stem -> (columns, rows, also written as .csv); never in report.json
    tables: dict = field(default_factory=dict)


@dataclass
class ReportDocument:
    scenario_id: str
    records: list
    environment: dict = field(default_factory=dict)

    def record(self, name):
        for rec in self.records:
            if rec.name == name:
                return rec
        raise KeyError(name)


def environment_info(extra=None):
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "package": __version__,
    }
    if extra:
        info.update(extra)
    return info


def _num(x):
    """Full-precision text for CSV cells; bools as 1/0."""
    if isinstance(x, (bool, np.bool_)):
        return "1" if x else "0"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return repr(float(x))


def _jsonable(obj):
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    return obj


def _write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _table_text(head, sep, rows):
    lines = [head] + [sep.join(_num(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def write_report(doc, out_dir):
    """Emit report.json plus every table the records carry, as a plot-ready
    .dat file and, where the table asks for it, a .csv."""
    os.makedirs(out_dir, exist_ok=True)
    paths = []

    payload = {
        "scenario": doc.scenario_id,
        "environment": _jsonable(doc.environment),
        "checks": {
            rec.name: {"passed": _jsonable(rec.passed), "values": _jsonable(rec.values)}
            for rec in doc.records
        },
    }
    p = os.path.join(out_dir, "report.json")
    _write_text(p, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    paths.append(p)

    for rec in doc.records:
        for stem, (columns, rows, csv) in rec.tables.items():
            if csv:
                p = os.path.join(out_dir, stem + ".csv")
                _write_text(p, _table_text(",".join(columns), ",", rows))
                paths.append(p)
            p = os.path.join(out_dir, stem + ".dat")
            _write_text(p, _table_text("# " + " ".join(columns), " ", rows))
            paths.append(p)
    return paths
