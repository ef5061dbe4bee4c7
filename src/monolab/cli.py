"""Scenario runner: build the chart/pair/kernel from a config, execute the
requested checks, write reports, return machine-readable pass/fail.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 invalid
configuration / unusable arguments.  A check that raises a ValueError or
NumericalError is recorded as failed with the error and the scenario goes on.
Worker parallelism spans scenarios; each scenario computes serially in a
fixed order, so its artifacts are byte-identical for any worker count.
"""

from __future__ import annotations

import argparse
import dataclasses
import glob
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import functional as fn
from . import gauss_transforms as gt
from . import geometry, kernels, quadrature
from .config import ScenarioConfig, parse_config
from .cutoff import build_cutoff
from .errors import ConfigError, NumericalError
from .report import CheckRecord, ReportDocument, environment_info, write_report
from .solutions import (SpaceTimeGrid, make_family, pair_validity_check,
                        sample_pair, supercaloric_residual_check)

__all__ = ["run_scenario", "check_suite", "write_report", "main",
           "shipped_scenario_paths"]


def shipped_scenario_paths():
    """The six shipped scenario configs, sorted by name."""
    base = os.path.join(os.path.dirname(__file__), "scenarios")
    return sorted(glob.glob(os.path.join(base, "*.cfg")))


def _build_chart(cfg):
    if cfg.manifold_family == "euclidean":
        return geometry.euclidean_chart(cfg.n, cfg.delta_p)
    if cfg.manifold_family == "const_curvature":
        return geometry.constant_curvature_chart(cfg.n, cfg.curvature, cfg.delta_p)
    return geometry.perturbed_chart(cfg.n, cfg.epsilon, cfg.shape, cfg.delta_p)


def _build_grid(cfg):
    return SpaceTimeGrid.geometric(cfg.n, cfg.delta_p, cfg.grid_h,
                                   ratio=cfg.grid_q, dt0=cfg.grid_dt0)


def _quad_config(cfg):
    base = quadrature.default_config(cfg.n)
    nodes = cfg.quad_nodes if cfg.quad_nodes else base.nodes
    return dataclasses.replace(
        base, r_tail=cfg.quad_r_tail, nodes=nodes,
        slices_per_scale=cfg.quad_slices_per_scale,
        time_blocks=cfg.quad_time_blocks)


def _ladder_rs(cfg):
    return [4.0 ** (-k) for k in range(cfg.k_min, cfg.k_max + 1)]


def run_scenario(cfg, kernel_override=None, tol_scale=None, workers=1):
    """Execute every requested check; failures are recorded, never fatal.

    ``workers`` is the suite's worker count, recorded in the environment."""
    tol_scale = (tol_scale if tol_scale is not None else cfg.tol_scale)
    kind = kernel_override or cfg.kernel_kind
    chart = _build_chart(cfg)
    qcfg = _quad_config(cfg)
    profile = build_cutoff(chart)
    kernel = kernels.KernelSpec(kind, chart)
    grid = _build_grid(cfg)
    pair = make_family(cfg.pair_family, cfg.pair_params, chart=chart, grid=grid)

    records = []

    frames = sample_pair(pair, grid)
    validity = pair_validity_check(pair, grid, tol=1e-10 * tol_scale,
                                   frames=frames)
    residual = supercaloric_residual_check(pair, chart, grid,
                                           tol=1e-8 * tol_scale, frames=frames)
    admissible = bool(validity.passed and residual.passed)
    records.append(CheckRecord(
        name="admissibility",
        passed=admissible,
        values={"validity": validity, "residual": residual}))

    if admissible:
        inp = fn.MonotonicityInput(chart=chart, pair=pair, profile=profile,
                                   kernel=kernel, quad=qcfg)
        for check in cfg.checks:
            try:
                rec = _run_check(check, cfg, inp, chart, kind, qcfg, tol_scale)
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
        environment=environment_info(workers=workers, extra={
            "kernel": kind,
            "pair": cfg.pair_family,
            "manifold": cfg.manifold_family,
            # check constants depend on the cutoff profile; record its bounds
            "cutoff_grad_bound": profile.grad_bound,
            "cutoff_laplace_bound": profile.laplace_bound,
        }),
    )
    return doc


def _run_check(check, cfg, inp, chart, kind, qcfg, tol_scale):
    rs = _ladder_rs(cfg)
    if check in ("ladder", "prop1", "prop2"):
        # repeated ladders are slice-table lookups on inp
        lad = fn.dyadic_ladder(inp, cfg.k_min, cfg.k_max, cfg.c0, cfg.c1)
    if check == "phi_curve":
        rows = []
        coarse = dataclasses.replace(
            qcfg, nodes=max(8, qcfg.nodes // 2),
            slices_per_scale=max(4, qcfg.slices_per_scale // 2))
        for j in range(2 * cfg.k_min, 2 * cfg.k_max + 1):
            r = 2.0 ** (-j)
            a_p = fn.phase_energy(inp, r, +1)
            a_m = fn.phase_energy(inp, r, -1)
            value = a_p * a_m / r ** 4
            rough = fn.phi(inp, r, cfg=coarse)
            rows.append({"r": r, "phi": value, "a_plus": a_p, "a_minus": a_m,
                         "err_est": abs(value - rough) / 1.5})
        return CheckRecord(name=check, passed=None, values={"rows": rows})
    if check == "ladder":
        rows = [dataclasses.asdict(row) for row in lad.rows]
        return CheckRecord(name=check, passed=None,
                           values={"rows": rows, "C0": lad.c0, "C1": lad.c1})
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
                ok = ok and all(np.isfinite(series)) and fn.constants_stable(
                    series, floor=1e-3 * tol_scale)
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
        tol = 1e-3 * tol_scale
        recs = {
            "equality_pair": gt.bkp_sum(gt.half_plane_field(inp.chart.dim, +1),
                                        gt.half_plane_field(inp.chart.dim, -1),
                                        m2, tol=tol),
            "squared_pair": gt.bkp_sum(gt.half_plane_field(inp.chart.dim, +1, power=2),
                                       gt.half_plane_field(inp.chart.dim, -1, power=2),
                                       m2, tol=tol),
        }
        ok = all(r["passed"] for r in recs.values())
        return CheckRecord(name=check, passed=bool(ok), values=recs)
    if check == "bkp_perturbed":
        usable = [r for r in cfg.bkp_rs if r <= chart.radius / 4.0]
        rec = gt.bkp_deficit_ladder(inp, usable)
        ok = rec["all_nonnegative"] or rec["negative_part_slope"] >= 1.8
        return CheckRecord(name=check, passed=bool(ok), values=rec)
    if check == "pushforward":
        usable = [r for r in cfg.bkp_rs if r <= chart.radius / 4.0]
        rec = gt.pushforward_ladder(chart, usable, kind, s=-0.5, cfg=qcfg)
        ok = (rec["sup_slope"] >= 1.8 and np.isfinite(rec["fitted_mass_constant"]))
        return CheckRecord(name=check, passed=bool(ok), values=rec)
    if check == "scale_derivative":
        rec = fn.scale_derivative(inp, cfg.sd_r)
        gap = abs(rec.direct - rec.finite_difference)
        ok = gap <= 0.02 * tol_scale * max(rec.term_scale, 1e-300)
        return CheckRecord(name=check, passed=bool(ok),
                           values=dataclasses.asdict(rec))
    if check == "positivity":
        recs = {
            "plus": fn.positivity_measure(inp, cfg.positivity_r, +1),
            "minus": fn.positivity_measure(inp, cfg.positivity_r, -1),
        }
        return CheckRecord(name=check, passed=None, values=recs)
    raise ConfigError(f"unknown check {check!r}", key="checks")


def check_suite(config_paths, out_root, workers=1, tol_scale=None,
                kernel_override=None, stream=None):
    """Run every config; write each report; exit 0 iff every check passes."""
    stream = stream or sys.stdout
    if not config_paths:
        raise ConfigError("empty scenario suite")
    configs = [parse_config(p) for p in config_paths]
    workers = max(1, min(workers, len(configs)))

    def one(cfg):
        doc = run_scenario(cfg, kernel_override=kernel_override,
                           tol_scale=tol_scale, workers=workers)
        write_report(doc, os.path.join(out_root, cfg.scenario_id))
        return doc

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            docs = list(pool.map(one, configs))
    else:
        docs = [one(cfg) for cfg in configs]

    any_failed = False
    for doc in docs:
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
    p_run.add_argument("--tol-scale", type=float, default=None)
    p_run.add_argument("--kernel", choices=["gauss", "parametrix0"], default=None)

    p_suite = sub.add_parser("suite", help="run a glob of scenario configs")
    p_suite.add_argument("--glob", required=True)
    p_suite.add_argument("--out", default=None)
    p_suite.add_argument("--workers", type=int, default=1)
    p_suite.add_argument("--tol-scale", type=float, default=None)
    p_suite.add_argument("--kernel", choices=["gauss", "parametrix0"], default=None)

    args = parser.parse_args(argv)
    out_root = args.out or _default_out()

    try:
        if args.command == "run":
            paths, workers = [args.config], 1
        else:
            paths, workers = sorted(glob.glob(args.glob)), args.workers
        return check_suite(paths, out_root, workers=workers,
                           tol_scale=args.tol_scale,
                           kernel_override=args.kernel)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
