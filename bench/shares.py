"""Per-layer time shares of each benchmark config at full and at reduced size.

    python3 bench/shares.py [--json FILE] [--min-share 0.02]

Makes one traced serial pass of every config the workloads use, once as
shipped (``src/monolab/scenarios/<name>.cfg``) and once as the benchmark's
reduced copy (``bench/configs/<name>.cfg``, shipped seed).  For each span name
it prints the self time and the total time as a share of the scenario's
``cli.run_scenario`` time, so one can see which layers the reduction shifts.
Names below ``--min-share`` at both sizes are left out.
"""

import argparse
import json
import shutil
import sys
import tempfile
from collections import defaultdict
from pathlib import Path

from run import ROOT, WORK, BenchError, load_spec, run_pass, write_configs
from tracer import outermost_totals, self_times

SHIPPED = ROOT / "src" / "monolab" / "scenarios"


def layer_shares(spans):
    """(run_scenario seconds, {name: (self share, total share)}) of one
    scenario's spans."""
    selfs = self_times(spans)
    totals = outermost_totals(spans)
    scenario_s = totals["cli.run_scenario"]
    self_s = defaultdict(float)
    for span in spans:
        self_s[span[1]] += selfs[span[0]]
    return scenario_s, {name: (self_s[name] / scenario_s, totals[name] / scenario_s)
                        for name in totals}


def traced_pass(config, tmp):
    spans_file = tmp / "spans.json"
    res = run_pass([config], tmp / "out", trace=True, spans=spans_file)
    if "wall_s" not in res or res.get("error"):
        raise BenchError(f"{config}: {res.get('error')}")
    spans = json.loads(spans_file.read_text(encoding="utf-8"))["spans"]
    return layer_shares([s for s in spans if s[5] != "suite"])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--json", default=None)
    parser.add_argument("--min-share", type=float, default=0.02)
    args = parser.parse_args(argv)

    names = sorted({name for wl in load_spec()["workloads"].values()
                    for name in wl["configs"]})
    WORK.mkdir(exist_ok=True)
    out = {}
    for name in names:
        tmp = Path(tempfile.mkdtemp(prefix="shares-", dir=WORK))
        try:
            (reduced, *_), = write_configs([name], 0, tmp)
            full_s, full = traced_pass(SHIPPED / f"{name}.cfg", tmp / "full")
            red_s, red = traced_pass(reduced, tmp / "reduced")
        finally:
            shutil.rmtree(tmp, ignore_errors=True)
        keep = sorted((n for n in set(full) | set(red)
                       if max(full.get(n, (0, 0)) + red.get(n, (0, 0))) >= args.min_share),
                      key=lambda n: -full.get(n, (0, 0))[0])
        out[name] = {"full_s": full_s, "reduced_s": red_s, "shares": {
            n: {"full_self": full.get(n, (0, 0))[0], "reduced_self": red.get(n, (0, 0))[0],
                "full_total": full.get(n, (0, 0))[1],
                "reduced_total": red.get(n, (0, 0))[1]} for n in keep}}
        print(f"{name}: run_scenario {full_s:.2f} s full, {red_s:.2f} s reduced")
        print(f"  {'span':<45} {'self full':>9} {'reduced':>8} {'total full':>10} "
              f"{'reduced':>8}")
        for n, s in out[name]["shares"].items():
            print(f"  {n:<45} {s['full_self']:9.3f} {s['reduced_self']:8.3f} "
                  f"{s['full_total']:10.3f} {s['reduced_total']:8.3f}", flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
