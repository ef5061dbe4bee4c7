"""monolab's benchmark: scenario workloads through ``monolab.cli.check_suite``.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout (the program is imported from
``src/``; nothing is built).  Each pass runs ``check_suite`` over the
workload's configs into a fresh directory, in a fresh interpreter started by
this script, one pass at a time, so every pass pays what a CLI user
pays on each ``monolab run``/``suite``: interpreter start, imports and every
``lru_cache`` filled from empty.  Passes repeat until ``--seconds`` is spent
(at least three), and each metric is the median over the passes.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics, derived from
spans recorded by wrappers installed from ``bench/tracer.py``, with the
tracing overhead.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

One operation is one (scenario, check) record of one pass, ``admissibility``
included.  It fails when the check raised or was not run, returned
``passed=False``, or produced an artifact that fails the correctness gate:
no matching reference under ``bench/reference/`` within ``RTOL``, or not
byte-identical to the run's first pass (an untimed serial pass, for a
workload with more than one worker; the untraced pass, for traced passes).
``passed=None`` is not a failure.

Seeds: a config with ``pair.seed`` gets ``pair.seed + (--seed mod
SEED_VARIANTS)``; variant 0 is the shipped seed.  Configs without ``pair.seed``
take no seed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from tracer import EXACT_KINDS, PER_LAYER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
CONFIGS = BENCH / "configs"
REFERENCE = BENCH / "reference"

SEED_VARIANTS = 8       # pair.seed variants with a stored reference
RTOL = 1e-8             # relative tolerance of the artifact gate
ATOL_FRACTION = 1e-14   # absolute floor, as a fraction of the column's largest value
MIN_PASSES = 3
MIN_TRACED_PAIRS = 2   # two traced passes, so their counts can be compared
PASS_TIMEOUT_S = 120
MAX_MEASURE_S = 140     # keeps a run under the 180 s a run may take

END_TO_END = [          # (name, unit, key in a pass result)
    ("wall_s", "s", "wall_s"),
    ("setup_s", "s", "setup_s"),
    ("cpu_s", "s", "cpu_s"),
    ("peak_rss_mb", "MB", "peak_rss_mb"),
]

TRACING_METRICS = ("tracing.overhead_s",      # traced minus untraced wall_s
                   "tracing.traced_wall_s", "tracing.untraced_wall_s")

# artifact file -> the check whose record it comes from
ARTIFACT_CHECK = {
    "ladder.csv": "ladder", "ladder.dat": "ladder",
    "phi_curve.csv": "phi_curve", "phi_curve.dat": "phi_curve",
    "bkp_deficit.dat": "bkp_perturbed", "pushforward.dat": "pushforward",
}
REPORT = "report.json"


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


def load_spec():
    with open(BENCH / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# inputs


def _cfg_value(text, key):
    for line in text.splitlines():
        line = line.split("#", 1)[0]
        if "=" in line and line.split("=", 1)[0].strip() == key:
            return line.split("=", 1)[1].strip()
    return None


def is_seeded(name):
    text = (CONFIGS / f"{name}.cfg").read_text(encoding="utf-8")
    return _cfg_value(text, "pair.seed") is not None


def write_configs(names, variant, dest):
    """Copy the named configs into dest with pair.seed shifted by variant.

    Returns [(path, scenario_id, checks, name, variant used)]; a config
    without pair.seed keeps variant 0."""
    out = []
    for name in names:
        text = (CONFIGS / f"{name}.cfg").read_text(encoding="utf-8")
        base = _cfg_value(text, "pair.seed")
        used = 0
        if base is not None:
            used = variant
            lines = [f"pair.seed = {int(base) + variant}"
                     if line.split("=", 1)[0].strip() == "pair.seed" else line
                     for line in text.splitlines()]
            text = "\n".join(lines) + "\n"
        path = Path(dest) / f"{name}.cfg"
        path.write_text(text, encoding="utf-8")
        checks = [c.strip() for c in (_cfg_value(text, "checks") or "").split(",")
                  if c.strip()]
        out.append((path, _cfg_value(text, "scenario.id"), checks, name, used))
    return out


# ---------------------------------------------------------------------------
# one pass


def run_pass(config_paths, out_dir, workers=1, trace=False, spans=None):
    """Run bench/one_pass.py in a fresh interpreter; its result plus setup_s."""
    cmd = [sys.executable, str(BENCH / "one_pass.py"), "--out", str(out_dir),
           "--workers", str(workers)]
    if trace:
        cmd.append("--trace")
        if spans:
            cmd += ["--spans", str(spans)]
    cmd += [str(p) for p in config_paths]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"pass timed out after {PASS_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"pass exited {proc.returncode}: " + " | ".join(tail)}
    result = json.loads(lines[-1])
    result["setup_s"] = result["ready"] - spawned
    return result


# ---------------------------------------------------------------------------
# correctness gate


def read_table(path):
    """(header line, rows of cells) of a ladder/phi_curve CSV or a .dat file."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    sep = "," if str(path).endswith(".csv") else " "
    return lines[0], [line.split(sep) for line in lines[1:]]


def _rel_dev(a, b):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if math.isinf(a) or math.isinf(b) or math.isnan(a) or math.isnan(b):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b))


def compare_table(path, ref_path):
    """(ok, max relative deviation) of one artifact against its reference.

    Cells match when |a - b| <= RTOL max(|a|, |b|), or when |a - b| is below
    ATOL_FRACTION of the largest magnitude in the reference column (values
    that are zero up to rounding); NaN matches NaN."""
    head, rows = read_table(path)
    ref_head, ref_rows = read_table(ref_path)
    if head != ref_head or [len(r) for r in rows] != [len(r) for r in ref_rows]:
        return False, math.inf
    ref_vals = [[float(c) for c in row] for row in ref_rows]
    ok, worst = True, 0.0
    for col in range(len(ref_vals[0]) if ref_vals else 0):
        finite = [abs(row[col]) for row in ref_vals if math.isfinite(row[col])]
        floor = ATOL_FRACTION * max(finite, default=0.0)
        for row, ref_row in zip(rows, ref_vals):
            a, b = float(row[col]), ref_row[col]
            dev = _rel_dev(a, b)
            if dev <= RTOL or (math.isfinite(a) and math.isfinite(b)
                               and abs(a - b) <= floor):
                worst = max(worst, dev if dev <= RTOL else 0.0)
                continue
            ok = False
            worst = max(worst, dev)
    return ok, worst


def _artifacts(directory):
    d = Path(directory)
    return {p.name for p in d.iterdir() if p.is_file() and p.name != REPORT} \
        if d.is_dir() else set()


def gate_pass(scenarios, out_root, baseline_root=None):
    """Operations of one finished pass and which of them failed.

    Returns (attempted, failed set of (scenario, check, reason), identical to
    the references, max relative deviation from them)."""
    attempted = 0
    failed = set()
    identical = True
    worst = 0.0
    for _, scenario, checks, name, variant in scenarios:
        ops = ["admissibility"] + list(checks)
        attempted += len(ops)
        out_dir = Path(out_root) / scenario
        try:
            report = json.loads((out_dir / REPORT).read_text(encoding="utf-8"))
            records = report["checks"]
        except (OSError, ValueError, KeyError):
            records = {}
        for op in ops:
            rec = records.get(op)
            if rec is None:
                failed.add((scenario, op, "not reported (raised or not run)"))
            elif rec.get("passed") is False:
                failed.add((scenario, op, "passed=False"))

        ref_dir = REFERENCE / name / f"v{variant}"
        for fname in sorted(_artifacts(out_dir) | _artifacts(ref_dir)):
            op = ARTIFACT_CHECK.get(fname, "admissibility")
            mine, ref = out_dir / fname, ref_dir / fname
            if not mine.is_file() or not ref.is_file():
                failed.add((scenario, op, f"{fname} missing on one side of the reference"))
                identical = False
                continue
            if mine.read_bytes() == ref.read_bytes():
                continue
            identical = False
            ok, dev = compare_table(mine, ref)
            worst = max(worst, dev)
            if not ok:
                failed.add((scenario, op, f"{fname} differs from its reference"))
        if baseline_root is not None:
            base_dir = Path(baseline_root) / scenario
            for fname in sorted(_artifacts(out_dir) | _artifacts(base_dir)):
                a, b = out_dir / fname, base_dir / fname
                if not (a.is_file() and b.is_file() and a.read_bytes() == b.read_bytes()):
                    failed.add((scenario, ARTIFACT_CHECK.get(fname, "admissibility"),
                                f"{fname} not byte-identical to the run's first pass"))
    return attempted, failed, identical, worst


# ---------------------------------------------------------------------------
# statistics and output


def highest_percentile(values):
    """(p, value) for the highest percentile with at least ten samples beyond
    it, or None when there are fewer than twenty samples."""
    n = len(values)
    if n < 20:
        return None
    p = math.floor(100.0 * (1.0 - 10.0 / n))
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return p, cuts[p - 1]


def result_line(correct, attempted, failed, metrics):
    return json.dumps({"correct": bool(correct), "attempted": int(attempted),
                       "failed": int(failed), "metrics": metrics})


# ---------------------------------------------------------------------------
# the run


class Run:
    """One run of a workload: its passes, their gate and the counts."""

    def __init__(self, workload, spec, seed, seconds, workdir, out=sys.stdout):
        self.name = workload
        self.wl = spec["workloads"][workload]
        self.seconds = seconds
        self.workdir = Path(workdir)
        self.out = out
        self.scenarios = write_configs(self.wl["configs"], seed % SEED_VARIANTS,
                                       self.workdir)
        self.variant = max(s[4] for s in self.scenarios)
        self.paths = [s[0] for s in self.scenarios]
        self.attempted = 0
        self.failures = []      # (pass, scenario, check, reason)
        self.problems = []      # run-level faults that are not operations
        self.identical = True
        self.max_rel_dev = 0.0
        self.baseline = None
        self._count = 0

    def one(self, workers, trace=False, spans=None):
        self._count += 1
        out_root = self.workdir / f"pass{self._count}"
        res = run_pass(self.paths, out_root, workers, trace, spans)
        if "wall_s" not in res:                 # the pass process itself failed
            raise BenchError(res["error"])
        if res.get("error"):
            print(f"pass {self._count}: check_suite raised {res['error']}", file=self.out)
        attempted, failed, identical, dev = gate_pass(
            self.scenarios, out_root, self.baseline)
        self.attempted += attempted
        self.failures += [(self._count,) + f for f in sorted(failed)]
        self.identical &= identical
        self.max_rel_dev = max(self.max_rel_dev, dev)
        if self.baseline is None:
            self.baseline = out_root
        else:
            shutil.rmtree(out_root, ignore_errors=True)
        return res

    def _loop(self, body, at_least):
        """Call body() until the time is spent, at least ``at_least`` times."""
        start = time.perf_counter()
        took = []
        while True:
            elapsed = time.perf_counter() - start
            if took and (elapsed > MAX_MEASURE_S or (
                    len(took) >= at_least
                    and elapsed + statistics.median(took) > self.seconds)):
                return
            t0 = time.perf_counter()
            body()
            took.append(time.perf_counter() - t0)

    def workers(self):
        return max(1, min(int(self.wl["workers"]), os.cpu_count() or 1))

    def end_to_end(self):
        passes = []
        if self.workers() > 1:
            self.one(1)     # untimed serial twin; the timed passes' byte baseline
        self._loop(lambda: passes.append(self.one(self.workers())), MIN_PASSES)
        metrics = {name: {"value": statistics.median(p[key] for p in passes),
                          "unit": unit}
                   for name, unit, key in END_TO_END}
        walls = [p["wall_s"] for p in passes]
        top = highest_percentile(walls)
        print(f"workload {self.name}: {len(passes)} timed passes, workers "
              f"{self.workers()}, seed variant {self.variant}", file=self.out)
        for name, _, _ in END_TO_END:
            m = metrics[name]
            print(f"  {name:<12} {m['value']:.4f} {m['unit']}", file=self.out)
        print("  wall_s percentile: " + (f"p{top[0]} = {top[1]:.4f} s" if top else
              f"median only ({len(walls)} passes; a higher percentile needs 20)"),
              file=self.out)
        return metrics

    def per_layer(self, spans_file):
        untraced, traced = [], []

        def pair():
            untraced.append(self.one(self.workers()))
            traced.append(self.one(self.workers(), trace=True, spans=spans_file))

        self._loop(pair, MIN_TRACED_PAIRS)
        metrics = {}
        for name, unit, kind, _ in PER_LAYER:
            values = [t["layers"][name]["value"] for t in traced]
            entry = dict(traced[0]["layers"][name])
            if entry.get("value") is None:
                metrics[name] = entry
                continue
            if kind in EXACT_KINDS and len(set(values)) > 1:
                self.problems.append(f"{name} differs between traced passes: {values}")
            entry["value"] = values[0] if kind in EXACT_KINDS else statistics.median(values)
            metrics[name] = entry
        t_wall = statistics.median([t["wall_s"] for t in traced])
        u_wall = statistics.median([u["wall_s"] for u in untraced])
        for name, value in zip(TRACING_METRICS, (t_wall - u_wall, t_wall, u_wall)):
            metrics[name] = {"value": value, "unit": "s"}
        missing = traced[0].get("missing", {})
        print(f"workload {self.name}: {len(traced)} traced and {len(untraced)} "
              f"untraced passes; tracing overhead {t_wall - u_wall:.4f} s", file=self.out)
        for name, reason in sorted(missing.items()):
            print(f"  missing {name}: {reason}", file=self.out)
        return metrics

    def failed_ops(self):
        return len({f[:3] for f in self.failures})

    def report_gate(self):
        print(f"  operations: attempted {self.attempted}, failed "
              f"{self.failed_ops()}", file=self.out)
        for problem in self.problems:
            print(f"  PROBLEM {problem}", file=self.out)
        for failure in self.failures[:20]:
            print(f"  FAILED pass {failure[0]}: {failure[1]}:{failure[2]} ({failure[3]})",
                  file=self.out)
        print(f"  artifacts_identical {str(self.identical).lower()}, "
              f"artifact_max_rel_dev {self.max_rel_dev:.3g}", file=self.out)


def main(argv=None):
    parser = argparse.ArgumentParser(description="monolab benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "monolab" / "cli.py").is_file():
        print(f"no monolab source tree under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    if args.workload not in spec["workloads"]:
        print(f"unknown workload {args.workload!r}; known: "
              f"{sorted(spec['workloads'])}", file=sys.stderr)
        return 2

    WORK.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK)
    try:
        run = Run(args.workload, spec, args.seed, args.seconds, workdir)
        if args.trace:
            metrics = run.per_layer(WORK / f"spans_{args.workload}.json")
        else:
            metrics = run.end_to_end()
        run.report_gate()
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    failed = run.failed_ops()
    print(result_line(failed == 0 and not run.problems, run.attempted, failed,
                      metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
