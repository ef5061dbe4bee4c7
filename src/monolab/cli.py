"""Scenario runner: build the pair and the monotonicity input from a config,
gate on both admissibility certificates, execute the requested checks, write
reports, return machine-readable pass/fail.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 invalid
configuration / unusable arguments.  A check that raises a ValueError or
NumericalError is recorded as failed with the error and the scenario goes on.
Every setting comes from the config; the suite runs its scenarios one after
another in the calling thread.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import os
import sys

import numpy as np

from . import functional as fn
from . import gauss_transforms as gt
from .config import parse_config
from .errors import ConfigError, NumericalError
from .report import CheckRecord, ReportDocument, environment_info, write_report
from .solutions import (make_family, pair_validity_check, sample_pair,
                        supercaloric_residual_check)

__all__ = ["run_scenario", "check_suite", "write_report", "main",
           "shipped_scenario_paths"]

# column headers of the ladder.csv and phi_curve.csv artifacts
LADDER_HEADER = ("k,r,A_plus,A_minus,b_plus,b_minus,delta_k,phi,"
                 "prop1_ratio,prop1_pass,prop2_active,prop2_ratio")
PHI_CURVE_HEADER = "r,phi,A_plus,A_minus,err_est"


def shipped_scenario_paths():
    """The six shipped scenario configs, sorted by name."""
    base = os.path.join(os.path.dirname(__file__), "scenarios")
    return sorted(glob.glob(os.path.join(base, "*.cfg")))


def _ladder_rs(cfg):
    return [4.0 ** (-k) for k in range(cfg.k_min, cfg.k_max + 1)]


def _table(rows, header, csv=False):
    """A CheckRecord table: the columns of the comma-separated ``header``,
    the cells of ``rows`` (dicts keyed by the lower-cased column names), and
    whether a .csv is written beside the .dat."""
    columns = header.split(",")
    return columns, [tuple(row[col.lower()] for col in columns) for row in rows], csv


def run_scenario(cfg):
    """Gate on both admissibility certificates, then execute every requested
    check; failures are recorded, never fatal."""
    chart, grid = cfg.chart, cfg.grid
    pair = make_family(cfg.pair_family, cfg.pair_params, chart=chart, grid=grid)
    inp = fn.MonotonicityInput(chart=chart, pair=pair, kernel_kind=cfg.kernel_kind,
                               quad=cfg.quad)

    records = []

    frames = sample_pair(pair, grid)
    validity = pair_validity_check(pair, grid, frames)
    residual = supercaloric_residual_check(chart, grid, frames)
    admissible = bool(validity.passed and residual.passed)
    records.append(CheckRecord(
        name="admissibility",
        passed=admissible,
        values={"validity": validity, "residual": residual}))

    if admissible:
        for check in cfg.checks:
            try:
                rec = _run_check(check, cfg, inp)
            except ConfigError:
                raise
            except (ValueError, NumericalError) as exc:
                rec = CheckRecord(name=check, passed=False, values={
                    "error": f"{type(exc).__name__}: {exc}"})
            records.append(rec)
    else:
        for check in cfg.checks:
            records.append(CheckRecord(
                name=check, passed=False,
                values={"note": "pair failed admissibility; check not run"}))

    doc = ReportDocument(
        scenario_id=cfg.scenario_id,
        records=records,
        environment=environment_info(extra={
            "kernel": cfg.kernel_kind,
            "pair": cfg.pair_family,
            "manifold": cfg.chart.family,
            # check constants depend on the cutoff profile; record its bounds
            "cutoff_grad_bound": inp.profile.grad_bound,
            "cutoff_laplace_bound": inp.profile.laplace_bound,
        }),
    )
    return doc


def _run_check(check, cfg, inp):
    rs = _ladder_rs(cfg)
    chart = cfg.chart
    if check in ("ladder", "prop1", "prop2"):
        # repeated ladders are slice-table lookups on inp
        lad = fn.dyadic_ladder(inp, cfg.k_min, cfg.k_max, cfg.c0, cfg.c1)
    if check == "phi_curve":
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
        return CheckRecord(name=check, passed=None, values={"rows": rows},
                           tables={"phi_curve": _table(rows, PHI_CURVE_HEADER,
                                                       csv=True)})
    if check == "ladder":
        rows = [dataclasses.asdict(row) for row in lad.rows]
        return CheckRecord(name=check, passed=None,
                           values={"rows": rows, "C0": lad.c0, "C1": lad.c1},
                           tables={"ladder": _table(rows, LADDER_HEADER, csv=True)})
    if check == "prop1":
        ok = all(row.prop1_pass for row in lad.rows)
        return CheckRecord(name=check, passed=bool(ok), values={
            "ratios": [row.prop1_ratio for row in lad.rows],
            "deltas": [row.delta_k for row in lad.rows]})
    if check == "prop2":
        active = [(row.k, row.prop2_ratio) for row in lad.rows if row.prop2_active]
        ratios = [r for _, r in active if np.isfinite(r)]
        ok = all(r < 1.0 for r in ratios) if ratios else True
        fitted_eps = 1.0 - max(ratios) if ratios else None
        return CheckRecord(name=check, passed=bool(ok), values={
            "active": active, "fitted_eps": fitted_eps})
    if check == "thm1":
        rec = fn.theorem1_check(inp, rs, guard=cfg.thm1_guard)
        return CheckRecord(name=check, passed=bool(rec["passed"]), values=rec)
    if check == "thm2":
        rec = fn.theorem2_check(inp, cfg.thm2_eps, rs)
        return CheckRecord(name=check, passed=bool(rec["passed"]), values=rec)
    if check == "e322":
        per_r = {r: fn.energy_inequality_check(inp, r) for r in rs}
        values = {"records": {repr(r): [dataclasses.asdict(rec) for rec in pair_]
                              for r, pair_ in per_r.items()}}
        ok = True
        for attr in ("c_fixed_form", "c_inf_form", "c_annulus_form"):
            for sign in (0, 1):
                series = [getattr(per_r[r][sign], attr) for r in rs]
                ok = ok and all(np.isfinite(series)) and fn.constants_stable(series)
        values["stable"] = ok
        return CheckRecord(name=check, passed=bool(ok), values=values)
    if check == "poincare":
        m1 = gt.GaussMeasure(inp.chart.dim, 1.0)
        recs = {
            "half_plane": gt.gaussian_poincare_check(
                gt.half_plane_field(inp.chart.dim), m1),
            "wedge_3_2": gt.gaussian_poincare_check(
                gt.half_plane_field(inp.chart.dim, power=1.5), m1),
        }
        ok = all(r["passed"] for r in recs.values() if r["passed"] is not None)
        return CheckRecord(name=check, passed=bool(ok), values=recs)
    if check == "bkp":
        m2 = gt.GaussMeasure(inp.chart.dim, 2.0)
        recs = {
            "equality_pair": gt.bkp_sum(gt.half_plane_field(inp.chart.dim, +1),
                                        gt.half_plane_field(inp.chart.dim, -1), m2),
            "squared_pair": gt.bkp_sum(gt.half_plane_field(inp.chart.dim, +1, power=2),
                                       gt.half_plane_field(inp.chart.dim, -1, power=2),
                                       m2),
        }
        ok = all(r["passed"] for r in recs.values())
        return CheckRecord(name=check, passed=bool(ok), values=recs)
    if check == "bkp_perturbed":
        rec = gt.bkp_deficit_ladder(inp, cfg.bkp_rs)
        ok = rec["all_nonnegative"] or rec["negative_part_slope"] >= 1.8
        return CheckRecord(name=check, passed=bool(ok), values=rec,
                           tables={"bkp_deficit": _table(
                               rec["records"], "r,sum,deficit,negative_part")})
    if check == "pushforward":
        rec = gt.pushforward_ladder(chart, cfg.bkp_rs, cfg.kernel_kind, s=-0.5,
                                    cfg=cfg.quad)
        ok = (rec["sup_slope"] >= 1.8 and np.isfinite(rec["fitted_mass_constant"]))
        return CheckRecord(name=check, passed=bool(ok), values=rec,
                           tables={"pushforward": _table(
                               rec["records"], "r,sup_deviation,mass,mass_defect")})
    if check == "scale_derivative":
        rec = fn.scale_derivative(inp, cfg.sd_r)
        gap = abs(rec.direct - rec.finite_difference)
        ok = gap <= 0.02 * max(rec.term_scale, 1e-300)
        return CheckRecord(name=check, passed=bool(ok),
                           values=dataclasses.asdict(rec))
    if check == "positivity":
        return CheckRecord(name=check, passed=None,
                           values=fn.positivity_measure(inp, cfg.positivity_r))
    raise ConfigError(f"unknown check {check!r}", key="checks")


def check_suite(config_paths, out_root, workers=1, stream=None):
    """Run every config in order; write each report; exit 0 iff every check
    passes.  Two configs with one ``scenario.id`` raise ConfigError before
    any scenario runs.  ``workers`` is unused: the scenarios run one after
    another in the calling thread."""
    stream = stream or sys.stdout
    if not config_paths:
        raise ConfigError("empty scenario suite")
    cfgs = [parse_config(p) for p in config_paths]
    owners = {}
    for path, cfg in zip(config_paths, cfgs):
        if owners.setdefault(cfg.scenario_id, path) != path:
            raise ConfigError(f"scenario.id {cfg.scenario_id!r} is also the id of "
                              f"{owners[cfg.scenario_id]}", key="scenario.id", source=path)
    any_failed = False
    for cfg in cfgs:
        doc = run_scenario(cfg)
        write_report(doc, os.path.join(out_root, cfg.scenario_id))
        for rec in doc.records:
            status = ("INFO" if rec.passed is None
                      else "PASS" if rec.passed else "FAIL")
            if rec.passed is False:
                any_failed = True
            print(f"[{doc.scenario_id}:{rec.name}] {status}", file=stream)
    return 1 if any_failed else 0


def _default_out():
    return os.environ.get("MONOLAB_OUT", "monolab_out")


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="monolab",
        description="two-phase parabolic monotonicity laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario config")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--out", default=None)

    p_suite = sub.add_parser("suite", help="run a glob of scenario configs")
    p_suite.add_argument("--glob", required=True)
    p_suite.add_argument("--out", default=None)

    args = parser.parse_args(argv)
    out_root = args.out or _default_out()

    try:
        paths = ([args.config] if args.command == "run"
                 else sorted(glob.glob(args.glob)))
        return check_suite(paths, out_root)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
