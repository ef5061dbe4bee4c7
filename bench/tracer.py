"""Outside-in tracing of monolab's layers for the benchmark's traced passes.

Each traced name is wrapped from outside the program: the wrapper replaces
the function (or method) on its defining module or class and on every
``monolab`` module that bound the same object with ``from ... import``, so the
caller's own name lookup reaches the wrapper.  A wrapper records one span per
call (name, start, end, parent span, trace id, points) in memory; the trace id
is the scenario id of the enclosing ``run_scenario`` call.

A traced name that no longer exists is recorded in ``Tracer.missing`` with a
reason, and every metric derived from it is reported as missing, never as 0.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from collections import defaultdict

import numpy as np

SUITE_TRACE = "suite"

# Metric prefix -> (module, attribute path, index of the point-carrying
# argument or None).  The prefix is the layer's module name and the callable.
TARGETS = {
    "cli.check_suite": ("monolab.cli", "check_suite", None),
    "cli.run_scenario": ("monolab.cli", "run_scenario", None),
    "config.parse_config": ("monolab.config", "parse_config", None),
    "report.write_report": ("monolab.report", "write_report", None),
    "functional.phase_energy": ("monolab.functional", "phase_energy", None),
    "functional.boundary_energy": ("monolab.functional", "boundary_energy", None),
    "functional.slice_mass": ("monolab.functional", "slice_mass", None),
    "functional.dyadic_ladder": ("monolab.functional", "dyadic_ladder", None),
    "functional.theorem1_check": ("monolab.functional", "theorem1_check", None),
    "functional.theorem2_check": ("monolab.functional", "theorem2_check", None),
    "functional.energy_inequality_check": (
        "monolab.functional", "energy_inequality_check", None),
    "functional.scale_derivative": ("monolab.functional", "scale_derivative", None),
    "functional.positivity_measure": (
        "monolab.functional", "positivity_measure", None),
    "quadrature.slice_integral": ("monolab.quadrature", "slice_integral", None),
    "quadrature.spacetime_integral": (
        "monolab.quadrature", "spacetime_integral", None),
    "quadrature.time_range_integral": (
        "monolab.quadrature", "time_range_integral", None),
    "quadrature.plain_spacetime_integral": (
        "monolab.quadrature", "plain_spacetime_integral", None),
    "quadrature.gauss_weighted_integral": (
        "monolab.quadrature", "gauss_weighted_integral", None),
    "geometry.inverse_metric_and_density": (
        "monolab.geometry", "inverse_metric_and_density", 1),
    "geometry.metric_fields": ("monolab.geometry", "metric_fields", 1),
    "kernels.kernel_values": ("monolab.kernels", "kernel_values", 1),
    "cutoff.chi": ("monolab.cutoff", "chi", 1),
    "cutoff.dchi": ("monolab.cutoff", "dchi", 1),
    "cutoff.smoothstep": ("monolab.cutoff", "smoothstep", 0),
    "cutoff.build_cutoff": ("monolab.cutoff", "build_cutoff", None),
    "solutions.make_family": ("monolab.solutions.families", "make_family", None),
    "solutions.solve_heat": ("monolab.solutions.solver", "solve_heat", None),
    "solutions.assemble_laplacian": (
        "monolab.solutions.solver", "assemble_laplacian", None),
    "solutions.pair_validity_check": (
        "monolab.solutions.checks", "pair_validity_check", None),
    "solutions.supercaloric_residual_check": (
        "monolab.solutions.checks", "supercaloric_residual_check", None),
    "solutions.GridPhaseSampler.value": (
        "monolab.solutions.grids", "GridPhaseSampler.value", 1),
    "gauss_transforms.pushforward_ladder": (
        "monolab.gauss_transforms", "pushforward_ladder", None),
    "gauss_transforms.pushforward_deviation": (
        "monolab.gauss_transforms", "pushforward_deviation", None),
    "gauss_transforms.bkp_deficit_ladder": (
        "monolab.gauss_transforms", "bkp_deficit_ladder", None),
    "gauss_transforms.gaussian_poincare_check": (
        "monolab.gauss_transforms", "gaussian_poincare_check", None),
    "gauss_transforms.bkp_sum": ("monolab.gauss_transforms", "bkp_sum", None),
    "gauss_transforms.RayTransform.forward": (
        "monolab.gauss_transforms", "RayTransform.forward", 1),
    "gauss_transforms.RayTransform.inverse": (
        "monolab.gauss_transforms", "RayTransform.inverse", 1),
    "gauss_transforms.PsiMap.forward": (
        "monolab.gauss_transforms", "PsiMap.forward", 1),
}

# Spans made by wrapping callables at run time rather than module names.
INTEGRAND = "functional.integrand"          # the f handed to slice_integral
PHASE_VALUE = "solutions.phase.value"       # Phase callables from make_family
PHASE_GRAD = "solutions.phase.grad"

# (metric, unit, kind, source); kind says how the metric is derived.
PER_LAYER = [
    ("cli.check_suite.total_s", "s", "total", "cli.check_suite"),
    ("cli.run_scenario.total_s", "s", "total", "cli.run_scenario"),
    ("cli.worker_utilization", "ratio", "utilization", "cli.run_scenario"),
    ("config.parse_config.total_s", "s", "total", "config.parse_config"),
    ("report.write_report.total_s", "s", "total", "report.write_report"),
    ("report.bytes_written", "bytes", "bytes", "report.write_report"),
    ("functional.phase_energy.calls", "count", "calls", "functional.phase_energy"),
    ("functional.phase_energy.distinct", "count", "distinct",
     "functional.phase_energy"),
    ("functional.phase_energy.distinct_ratio", "ratio", "distinct_ratio",
     "functional.phase_energy"),
    ("functional.phase_energy.total_s", "s", "total", "functional.phase_energy"),
    ("functional.boundary_energy.calls", "count", "calls",
     "functional.boundary_energy"),
    ("functional.slice_mass.calls", "count", "calls", "functional.slice_mass"),
    ("functional.dyadic_ladder.total_s", "s", "total", "functional.dyadic_ladder"),
    ("functional.theorem1_check.total_s", "s", "total",
     "functional.theorem1_check"),
    ("functional.theorem2_check.total_s", "s", "total",
     "functional.theorem2_check"),
    ("functional.energy_inequality_check.total_s", "s", "total",
     "functional.energy_inequality_check"),
    ("functional.scale_derivative.total_s", "s", "total",
     "functional.scale_derivative"),
    ("functional.positivity_measure.total_s", "s", "total",
     "functional.positivity_measure"),
    ("functional.integrand.calls", "count", "calls", INTEGRAND),
    ("functional.integrand.points", "count", "points", INTEGRAND),
    ("functional.integrand.self_s", "s", "self", INTEGRAND),
    ("quadrature.slice_integral.calls", "count", "calls",
     "quadrature.slice_integral"),
    ("quadrature.slice_integral.self_s", "s", "self", "quadrature.slice_integral"),
    ("quadrature.slice_integral.total_s", "s", "total",
     "quadrature.slice_integral"),
    ("quadrature.slice_integral.points_per_s", "1/s", "points_per_s",
     "quadrature.slice_integral"),
    ("quadrature.spacetime_integral.calls", "count", "calls",
     "quadrature.spacetime_integral"),
    ("quadrature.spacetime_integral.total_s", "s", "total",
     "quadrature.spacetime_integral"),
    ("quadrature.time_range_integral.calls", "count", "calls",
     "quadrature.time_range_integral"),
    ("quadrature.plain_spacetime_integral.total_s", "s", "total",
     "quadrature.plain_spacetime_integral"),
    ("quadrature.gauss_weighted_integral.calls", "count", "calls",
     "quadrature.gauss_weighted_integral"),
    ("quadrature.gauss_weighted_integral.self_s", "s", "self",
     "quadrature.gauss_weighted_integral"),
    ("geometry.inverse_metric_and_density.calls", "count", "calls",
     "geometry.inverse_metric_and_density"),
    ("geometry.inverse_metric_and_density.points", "count", "points",
     "geometry.inverse_metric_and_density"),
    ("geometry.inverse_metric_and_density.self_s", "s", "self",
     "geometry.inverse_metric_and_density"),
    ("geometry.metric_fields.calls", "count", "calls", "geometry.metric_fields"),
    ("geometry.metric_fields.points", "count", "points", "geometry.metric_fields"),
    ("geometry.metric_fields.self_s", "s", "self", "geometry.metric_fields"),
    ("kernels.kernel_values.calls", "count", "calls", "kernels.kernel_values"),
    ("kernels.kernel_values.points", "count", "points", "kernels.kernel_values"),
    ("kernels.kernel_values.self_s", "s", "self", "kernels.kernel_values"),
    ("cutoff.chi.points", "count", "points", "cutoff.chi"),
    ("cutoff.chi.self_s", "s", "self", "cutoff.chi"),
    ("cutoff.dchi.points", "count", "points", "cutoff.dchi"),
    ("cutoff.dchi.self_s", "s", "self", "cutoff.dchi"),
    ("cutoff.smoothstep.points", "count", "points", "cutoff.smoothstep"),
    ("cutoff.smoothstep.self_s", "s", "self", "cutoff.smoothstep"),
    ("cutoff.build_cutoff.total_s", "s", "total", "cutoff.build_cutoff"),
    ("solutions.make_family.total_s", "s", "total", "solutions.make_family"),
    ("solutions.solve_heat.calls", "count", "calls", "solutions.solve_heat"),
    ("solutions.solve_heat.total_s", "s", "total", "solutions.solve_heat"),
    ("solutions.solve_heat.self_s", "s", "self", "solutions.solve_heat"),
    ("solutions.assemble_laplacian.calls", "count", "calls",
     "solutions.assemble_laplacian"),
    ("solutions.assemble_laplacian.total_s", "s", "total",
     "solutions.assemble_laplacian"),
    ("solutions.pair_validity_check.total_s", "s", "total",
     "solutions.pair_validity_check"),
    ("solutions.supercaloric_residual_check.total_s", "s", "total",
     "solutions.supercaloric_residual_check"),
    ("solutions.phase.value.points", "count", "points", PHASE_VALUE),
    ("solutions.phase.value.self_s", "s", "self", PHASE_VALUE),
    ("solutions.phase.grad.points", "count", "points", PHASE_GRAD),
    ("solutions.phase.grad.self_s", "s", "self", PHASE_GRAD),
    ("solutions.GridPhaseSampler.value.points", "count", "points",
     "solutions.GridPhaseSampler.value"),
    ("solutions.GridPhaseSampler.value.self_s", "s", "self",
     "solutions.GridPhaseSampler.value"),
    ("solutions.GridPhaseSampler.stencil_ratio", "ratio", "stencil_ratio",
     "solutions.GridPhaseSampler.value"),
    ("gauss_transforms.pushforward_ladder.total_s", "s", "total",
     "gauss_transforms.pushforward_ladder"),
    ("gauss_transforms.bkp_deficit_ladder.total_s", "s", "total",
     "gauss_transforms.bkp_deficit_ladder"),
    ("gauss_transforms.gaussian_poincare_check.total_s", "s", "total",
     "gauss_transforms.gaussian_poincare_check"),
    ("gauss_transforms.bkp_sum.total_s", "s", "total", "gauss_transforms.bkp_sum"),
    ("gauss_transforms.pushforward_deviation.calls", "count", "calls",
     "gauss_transforms.pushforward_deviation"),
    ("gauss_transforms.RayTransform.forward.calls", "count", "calls",
     "gauss_transforms.RayTransform.forward"),
    ("gauss_transforms.RayTransform.forward.points", "count", "points",
     "gauss_transforms.RayTransform.forward"),
    ("gauss_transforms.RayTransform.forward.self_s", "s", "self",
     "gauss_transforms.RayTransform.forward"),
    ("gauss_transforms.RayTransform.inverse.total_s", "s", "total",
     "gauss_transforms.RayTransform.inverse"),
    ("gauss_transforms.PsiMap.forward.self_s", "s", "self",
     "gauss_transforms.PsiMap.forward"),
]

# Counts that must repeat exactly between two traced passes of one workload.
EXACT_KINDS = ("calls", "points", "distinct")


def _points(value):
    shape = np.shape(value)
    return int(shape[0]) if shape else 1


class Tracer:
    """In-memory span recorder; one instance per traced pass."""

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, trace_id, points)
        self.missing = {}        # span name -> reason
        self.extra = defaultdict(float)
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._distinct = set()
        self._keep = []          # inputs held so their ids stay unique
        self.phase_energy_calls = 0

    def _state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.trace_id = SUITE_TRACE
        return local

    def wrap(self, name, fn, point_arg=None):
        """A transparent wrapper recording one span per call of ``fn``."""
        spans = self.spans
        ids = self._ids
        state = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            local = state()
            stack = local.stack
            points = (_points(args[point_arg])
                      if point_arg is not None and len(args) > point_arg else None)
            sid = next(ids)
            parent = stack[-1] if stack else None
            stack.append(sid)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, name, start, end, parent, local.trace_id, points))

        return traced

    # -- hooks for spans that need more than a plain wrapper ---------------

    def _scenario_hook(self, name, fn):
        inner = self.wrap(name, fn)
        state = self._state

        @functools.wraps(fn)
        def run_scenario(cfg, *args, **kwargs):
            local = state()
            outer = local.trace_id
            local.trace_id = getattr(cfg, "scenario_id", outer)
            cpu0 = time.thread_time()
            try:
                return inner(cfg, *args, **kwargs)
            finally:
                used = time.thread_time() - cpu0
                with self._lock:
                    self.extra["scenario_cpu_s"] += used
                local.trace_id = outer

        return run_scenario

    def _suite_hook(self, name, fn):
        inner = self.wrap(name, fn)

        @functools.wraps(fn)
        def check_suite(*args, **kwargs):
            workers = kwargs.get("workers", args[2] if len(args) > 2 else 1)
            self.extra["workers"] = max(1, int(workers))
            return inner(*args, **kwargs)

        return check_suite

    def _slice_hook(self, name, fn):
        inner = self.wrap(name, fn)

        @functools.wraps(fn)
        def slice_integral(f, *args, **kwargs):
            return inner(self.wrap(INTEGRAND, f, 0), *args, **kwargs)

        return slice_integral

    def _energy_hook(self, name, fn):
        inner = self.wrap(name, fn)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def phase_energy(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            values = list(bound.arguments.values())
            input_, r, sign, cfg = (values + [None] * 4)[:4]
            key = (id(input_), sign, float(r), cfg or getattr(input_, "quad", None))
            with self._lock:
                self.phase_energy_calls += 1
                self._keep.append(input_)
                self._distinct.add(key)
            return inner(*args, **kwargs)

        return phase_energy

    def _family_hook(self, name, fn):
        inner = self.wrap(name, fn)

        @functools.wraps(fn)
        def make_family(*args, **kwargs):
            pair = inner(*args, **kwargs)
            for side in ("plus", "minus"):
                phase = getattr(pair, side, None)
                if not (hasattr(phase, "value") and hasattr(phase, "grad")):
                    self.missing[PHASE_VALUE] = self.missing[PHASE_GRAD] = (
                        f"pair from make_family has no {side}.value/.grad")
                    continue
                phase.value = self.wrap(PHASE_VALUE, phase.value, 0)
                phase.grad = self.wrap(PHASE_GRAD, phase.grad, 0)
            return pair

        return make_family

    # ----------------------------------------------------------------------

    def install(self, targets=None):
        """Wrap every target; return the (owner, attribute, original) undo list."""
        targets = TARGETS if targets is None else targets
        hooks = {
            "cli.check_suite": self._suite_hook,
            "cli.run_scenario": self._scenario_hook,
            "quadrature.slice_integral": self._slice_hook,
            "functional.phase_energy": self._energy_hook,
            "solutions.make_family": self._family_hook,
        }
        undo = []
        for name, (module_name, attr_path, point_arg) in targets.items():
            try:
                owner = importlib.import_module(module_name)
            except ImportError as exc:
                self.missing[name] = f"module {module_name} not importable: {exc}"
                continue
            *owner_path, attr = attr_path.split(".")
            try:
                for part in owner_path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except AttributeError:
                self.missing[name] = f"{module_name}.{attr_path} not found"
                continue
            hook = hooks.get(name)
            wrapper = hook(name, original) if hook else self.wrap(name, original,
                                                                  point_arg)
            setattr(owner, attr, wrapper)
            undo.append((owner, attr, original))
            if owner_path:
                continue
            # names bound by `from ... import` elsewhere in the package
            for mod_name, mod in list(sys.modules.items()):
                if not (mod_name == "monolab" or mod_name.startswith("monolab.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        undo.append((mod, key, original))
        # spans made inside a wrapped name vanish with it
        for derived, source in ((INTEGRAND, "quadrature.slice_integral"),
                                (PHASE_VALUE, "solutions.make_family"),
                                (PHASE_GRAD, "solutions.make_family")):
            if source in self.missing:
                self.missing.setdefault(derived, f"needs {source}: "
                                        + self.missing[source])
        return undo

    def mark_untraced(self, reason):
        """Scenarios ran where the wrappers are not installed (worker
        processes): everything below check_suite is missing, not zero."""
        for _, _, _, source in PER_LAYER:
            if source not in ("cli.check_suite", "config.parse_config"):
                self.missing.setdefault(source, reason)

    # -- derived metrics ---------------------------------------------------

    def metrics(self, bytes_written=None):
        return derive_metrics(self.spans, self.missing, self.extra,
                              calls=self.phase_energy_calls,
                              distinct=len(self._distinct),
                              bytes_written=bytes_written)


def uninstall(undo):
    for owner, attr, original in reversed(undo):
        setattr(owner, attr, original)


def self_times(spans):
    """Per span id: duration minus the part of it covered by child spans."""
    children = defaultdict(list)
    for sid, _, start, end, parent, _, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    out = {}
    for sid, _, start, end, _, _, _ in spans:
        covered = 0.0
        cur_lo = cur_hi = None
        for lo, hi in sorted(children.get(sid, ())):
            lo, hi = max(lo, start), min(hi, end)
            if hi <= lo:
                continue
            if cur_hi is None or lo > cur_hi:
                if cur_hi is not None:
                    covered += cur_hi - cur_lo
                cur_lo, cur_hi = lo, hi
            else:
                cur_hi = max(cur_hi, hi)
        if cur_hi is not None:
            covered += cur_hi - cur_lo
        out[sid] = (end - start) - covered
    return out


def outermost_totals(spans):
    """Per name: summed duration of spans with no ancestor of the same name."""
    by_id = {s[0]: s for s in spans}
    totals = defaultdict(float)
    for sid, name, start, end, parent, _, _ in spans:
        p = parent
        nested = False
        while p is not None and p in by_id:
            if by_id[p][1] == name:
                nested = True
                break
            p = by_id[p][4]
        if not nested:
            totals[name] += end - start
    return totals


def derive_metrics(spans, missing, extra, calls=0, distinct=0, bytes_written=None):
    """{metric: {"value", "unit"}} for every PER_LAYER metric; a metric whose
    span name is missing gets value None and the reason under "missing"."""
    selfs = self_times(spans)
    totals = outermost_totals(spans)
    count = defaultdict(int)
    points = defaultdict(int)
    self_s = defaultdict(float)
    for sid, name, _, _, _, _, pts in spans:
        count[name] += 1
        points[name] += pts or 0
        self_s[name] += selfs[sid]
    out = {}
    for metric, unit, kind, source in PER_LAYER:
        if source in missing:
            out[metric] = {"value": None, "unit": unit, "missing": missing[source]}
            continue
        if kind == "total":
            value = totals[source]
        elif kind == "self":
            value = self_s[source]
        elif kind == "calls":
            value = count[source]
        elif kind == "points":
            value = points[source]
        elif kind == "distinct":
            value = distinct
        elif kind == "distinct_ratio":
            value = distinct / calls if calls else 0.0
        elif kind == "points_per_s":
            busy = totals[source]
            value = points[INTEGRAND] / busy if busy > 0 else 0.0
        elif kind == "utilization":
            busy = extra.get("workers", 1) * totals["cli.check_suite"]
            value = extra.get("scenario_cpu_s", 0.0) / busy if busy > 0 else 0.0
        elif kind == "bytes":
            value = int(bytes_written or 0)
        elif kind == "stencil_ratio":
            base = points[PHASE_VALUE] + points[PHASE_GRAD]
            value = points[source] / base if base else 0.0
        else:
            raise ValueError(f"unknown metric kind {kind!r}")
        out[metric] = {"value": value, "unit": unit}
    return out
