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
import glob
import os
import sys

from . import functional as fn
from .battery import CHECKS
from .config import parse_config
from .errors import ConfigError, NumericalError
from .report import CheckRecord, ReportDocument, environment_info, write_report
from .solutions import (make_family, pair_validity_check, sample_pair,
                        supercaloric_residual_check)

__all__ = ["run_scenario", "check_suite", "write_report", "main",
           "shipped_scenario_paths"]


def shipped_scenario_paths():
    """The six shipped scenario configs, sorted by name."""
    base = os.path.join(os.path.dirname(__file__), "scenarios")
    return sorted(glob.glob(os.path.join(base, "*.cfg")))


def run_scenario(cfg):
    """Gate on both admissibility certificates, then run every requested
    check from ``battery.CHECKS``; failures are recorded, never fatal."""
    chart, grid = cfg.chart, cfg.grid
    pair = make_family(cfg.pair_family, cfg.pair_params, chart=chart, grid=grid)
    inp = fn.MonotonicityInput(chart=chart, pair=pair, kernel_kind=cfg.kernel_kind,
                               quad=cfg.quad)

    records = []

    frames = sample_pair(pair, grid)
    validity = pair_validity_check(pair, grid, frames)
    residual = supercaloric_residual_check(chart, grid, frames)
    admissible = bool(validity["passed"] and residual["passed"])
    records.append(CheckRecord(
        name="admissibility",
        passed=admissible,
        values={"validity": validity, "residual": residual}))

    if admissible:
        for check in cfg.checks:
            try:
                passed, values, tables = CHECKS[check][1](cfg, inp)
                rec = CheckRecord(name=check, values=values, tables=tables,
                                  passed=None if passed is None else bool(passed))
            except (ValueError, NumericalError) as exc:
                rec = CheckRecord(name=check, passed=False, values={
                    "error": f"{type(exc).__name__}: {exc}"})
            records.append(rec)
    else:
        for check in cfg.checks:
            records.append(CheckRecord(
                name=check, passed=False,
                values={"note": "pair failed admissibility; check not run"}))

    return ReportDocument(
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
