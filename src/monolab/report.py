"""Report documents and deterministic file emission.

CSV artifacts use full double precision (shortest round-trip repr), `.` as the
decimal separator and newline-terminated rows; writes are idempotent and
byte-identical for identical documents regardless of worker count.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
from dataclasses import dataclass, field

import numpy as np

from . import __version__

__all__ = ["CheckRecord", "ReportDocument", "write_report", "environment_info"]

LADDER_HEADER = ("k,r,A_plus,A_minus,b_plus,b_minus,delta_k,phi,"
                 "prop1_ratio,prop1_pass,prop2_active,prop2_ratio")
PHI_CURVE_HEADER = "r,phi,A_plus,A_minus,err_est"


@dataclass
class CheckRecord:
    name: str
    passed: bool | None          # None: informational only
    values: dict = field(default_factory=dict)


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

    def failed_checks(self):
        return [rec.name for rec in self.records if rec.passed is False]


def environment_info(workers=1, extra=None):
    info = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "package": __version__,
        "workers": int(workers),
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
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return _jsonable(dataclasses.asdict(obj))
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


def _csv_lines(header, rows):
    lines = [header]
    for row in rows:
        lines.append(",".join(_num(v) for v in row))
    return "\n".join(lines) + "\n"


def _dat_lines(header_cols, rows):
    lines = ["# " + " ".join(header_cols)]
    for row in rows:
        lines.append(" ".join(_num(v) for v in row))
    return "\n".join(lines) + "\n"


def write_report(doc, out_dir):
    """Emit report.json plus per-check CSV and plot-ready .dat artifacts."""
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
        if rec.name == "ladder" and "rows" not in rec.values:
            continue
        if rec.name == "phi_curve" and "rows" not in rec.values:
            continue
        if rec.name in ("bkp_perturbed", "pushforward") and "records" not in rec.values:
            continue
        if rec.name == "ladder":
            rows = [
                (row["k"], row["r"], row["a_plus"], row["a_minus"], row["b_plus"],
                 row["b_minus"], row["delta_k"], row["phi"], row["prop1_ratio"],
                 row["prop1_pass"], row["prop2_active"], row["prop2_ratio"])
                for row in rec.values["rows"]
            ]
            p = os.path.join(out_dir, "ladder.csv")
            _write_text(p, _csv_lines(LADDER_HEADER, rows))
            paths.append(p)
            p = os.path.join(out_dir, "ladder.dat")
            _write_text(p, _dat_lines(LADDER_HEADER.split(","), rows))
            paths.append(p)
        elif rec.name == "phi_curve":
            rows = [(row["r"], row["phi"], row["a_plus"], row["a_minus"],
                     row["err_est"]) for row in rec.values["rows"]]
            p = os.path.join(out_dir, "phi_curve.csv")
            _write_text(p, _csv_lines(PHI_CURVE_HEADER, rows))
            paths.append(p)
            p = os.path.join(out_dir, "phi_curve.dat")
            _write_text(p, _dat_lines(PHI_CURVE_HEADER.split(","), rows))
            paths.append(p)
        elif rec.name == "bkp_perturbed":
            rows = [(r["r"], r["sum"], r["deficit"], r["negative_part"])
                    for r in rec.values["records"]]
            p = os.path.join(out_dir, "bkp_deficit.dat")
            _write_text(p, _dat_lines(["r", "sum", "deficit", "negative_part"], rows))
            paths.append(p)
        elif rec.name == "pushforward":
            rows = [(r["r"], r["sup_deviation"], r["mass"], r["mass_defect"])
                    for r in rec.values["records"]]
            p = os.path.join(out_dir, "pushforward.dat")
            _write_text(p, _dat_lines(["r", "sup_deviation", "mass", "mass_defect"], rows))
            paths.append(p)
    return paths
