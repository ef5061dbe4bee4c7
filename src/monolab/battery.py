"""The battery of checks, as one table.

``CHECKS`` maps each check name, in the order the README lists them, to the
check-specific config keys it reads and the function that runs it.  The
parser reads the keys (a default is checked only where a requested check
reads it), and the runner calls the function.  A function takes the parsed
config and the scenario's ``MonotonicityInput`` and returns ``(passed,
values, tables)``: ``passed`` is None for a check that only reports values,
and ``tables`` maps a file stem to a ``CheckRecord`` table.  Each verdict
rule sits with its check.  Numerics are looked up on their modules at call
time (``fn.dyadic_ladder``), never bound at import, so a wrapper set on a
module attribute sees every call.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from . import functional as fn
from . import gauss_transforms as gt

__all__ = ["CHECKS", "LADDER_HEADER", "PHI_CURVE_HEADER"]

# column headers of the ladder.csv and phi_curve.csv artifacts
LADDER_HEADER = ("k,r,A_plus,A_minus,b_plus,b_minus,delta_k,phi,"
                 "prop1_ratio,prop1_pass,prop2_active,prop2_ratio")
PHI_CURVE_HEADER = "r,phi,A_plus,A_minus,err_est"


def _ladder_rs(cfg):
    return [4.0 ** (-k) for k in range(cfg.k_min, cfg.k_max + 1)]


def _table(rows, header, csv=False):
    """A CheckRecord table: the columns of the comma-separated ``header``,
    the cells of ``rows`` (dicts keyed by the lower-cased column names), and
    whether a .csv is written beside the .dat."""
    columns = header.split(",")
    return columns, [tuple(row[col.lower()] for col in columns) for row in rows], csv


def _dyadic_ladder(cfg, inp):
    # repeated ladders are slice-table lookups on inp
    return fn.dyadic_ladder(inp, cfg.k_min, cfg.k_max, cfg.c0, cfg.c1)


def _phi_curve(cfg, inp):
    rows = []
    # the error estimate: phi again under a halved rule, on a copy of the
    # input with its own slice table; NaN if halving leaves the rule as is
    halved = dataclasses.replace(
        inp.quad, nodes=max(8, inp.quad.nodes // 2),
        slices_per_scale=max(4, inp.quad.slices_per_scale // 2))
    coarse = dataclasses.replace(inp, quad=halved)
    for j in range(2 * cfg.k_min, 2 * cfg.k_max + 1):
        r = 2.0 ** (-j)
        a_p, a_m = fn.phase_energy(inp, r)
        value = a_p * a_m / r ** 4
        err = (abs(value - fn.phi(coarse, r)) / 1.5 if halved != inp.quad
               else np.nan)
        rows.append({"r": r, "phi": value, "a_plus": a_p, "a_minus": a_m,
                     "err_est": err})
    return None, {"rows": rows}, {"phi_curve": _table(rows, PHI_CURVE_HEADER,
                                                      csv=True)}


def _ladder(cfg, inp):
    lad = _dyadic_ladder(cfg, inp)
    rows = [dataclasses.asdict(row) for row in lad.rows]
    return (None, {"rows": rows, "C0": lad.c0, "C1": lad.c1},
            {"ladder": _table(rows, LADDER_HEADER, csv=True)})


def _prop1(cfg, inp):
    rows = _dyadic_ladder(cfg, inp).rows
    return all(row.prop1_pass for row in rows), {
        "ratios": [row.prop1_ratio for row in rows],
        "deltas": [row.delta_k for row in rows]}, {}


def _prop2(cfg, inp):
    active = [(row.k, row.prop2_ratio) for row in _dyadic_ladder(cfg, inp).rows
              if row.prop2_active]
    ratios = [r for _, r in active if np.isfinite(r)]
    ok = all(r < 1.0 for r in ratios) if ratios else True
    fitted_eps = 1.0 - max(ratios) if ratios else None
    return ok, {"active": active, "fitted_eps": fitted_eps}, {}


def _thm1(cfg, inp):
    rec = fn.theorem1_check(inp, _ladder_rs(cfg), guard=cfg.thm1_guard)
    return rec["passed"], rec, {}


def _thm2(cfg, inp):
    rec = fn.theorem2_check(inp, cfg.thm2_eps, _ladder_rs(cfg))
    return rec["passed"], rec, {}


def _e322(cfg, inp):
    rs = _ladder_rs(cfg)
    per_r = {r: fn.energy_inequality_check(inp, r) for r in rs}
    values = {"records": {repr(r): [dataclasses.asdict(rec) for rec in pair_]
                          for r, pair_ in per_r.items()}}
    ok = True
    for attr in ("c_fixed_form", "c_inf_form", "c_annulus_form"):
        for sign in (0, 1):
            series = [getattr(per_r[r][sign], attr) for r in rs]
            ok = ok and all(np.isfinite(series)) and fn.constants_stable(series)
    values["stable"] = ok
    return ok, values, {}


def _poincare(cfg, inp):
    n, field = inp.chart.dim, gt.half_plane_field
    m1 = gt.GaussMeasure(n, 1.0)
    recs = {"half_plane": gt.gaussian_poincare_check(field(n), m1),
            "wedge_3_2": gt.gaussian_poincare_check(field(n, power=1.5), m1)}
    return all(r["passed"] for r in recs.values() if r["passed"] is not None), recs, {}


def _bkp(cfg, inp):
    n, field = inp.chart.dim, gt.half_plane_field
    m2 = gt.GaussMeasure(n, 2.0)
    recs = {"equality_pair": gt.bkp_sum(field(n, +1), field(n, -1), m2),
            "squared_pair": gt.bkp_sum(field(n, +1, power=2), field(n, -1, power=2),
                                       m2)}
    return all(r["passed"] for r in recs.values()), recs, {}


def _bkp_perturbed(cfg, inp):
    rec = gt.bkp_deficit_ladder(inp, cfg.bkp_rs)
    ok = rec["all_nonnegative"] or rec["negative_part_slope"] >= 1.8
    return ok, rec, {"bkp_deficit": _table(rec["records"],
                                           "r,sum,deficit,negative_part")}


def _pushforward(cfg, inp):
    rec = gt.pushforward_ladder(cfg.chart, cfg.bkp_rs, cfg.kernel_kind, s=-0.5,
                                cfg=cfg.quad)
    # an exact reduction (a flat chart) leaves no deviation above the fit's
    # floor, and so no slope to fit
    ok = (all(r["sup_deviation"] <= gt.PUSHFORWARD_FLOOR for r in rec["records"])
          or rec["sup_slope"] >= 1.8) and np.isfinite(rec["fitted_mass_constant"])
    return ok, rec, {"pushforward": _table(rec["records"],
                                           "r,sup_deviation,mass,mass_defect")}


def _scale_derivative(cfg, inp):
    rec = fn.scale_derivative(inp, cfg.sd_r)
    gap = abs(rec.direct - rec.finite_difference)
    return gap <= 0.02 * max(rec.term_scale, 1e-300), dataclasses.asdict(rec), {}


def _positivity(cfg, inp):
    return None, fn.positivity_measure(inp, cfg.positivity_r), {}


_RANGE = ("ladder.k_min", "ladder.k_max")
_LADDER = _RANGE + ("ladder.C0", "ladder.C1")

# check name -> (the check-specific config keys it reads, its function)
CHECKS = {
    "phi_curve": (_RANGE, _phi_curve),
    "ladder": (_LADDER, _ladder),
    "prop1": (_LADDER, _prop1),
    "prop2": (_LADDER, _prop2),
    "thm1": (_RANGE + ("thm1.guard",), _thm1),
    "thm2": (_RANGE + ("thm2.eps",), _thm2),
    "e322": (_RANGE, _e322),
    "poincare": ((), _poincare),
    "bkp": ((), _bkp),
    "bkp_perturbed": (("bkp.rs",), _bkp_perturbed),
    "pushforward": (("bkp.rs",), _pushforward),
    "scale_derivative": (("sd.r",), _scale_derivative),
    "positivity": (("positivity.r",), _positivity),
}
