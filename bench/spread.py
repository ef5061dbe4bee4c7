"""Run the benchmark several times on one workload and summarise its spread.

    python3 bench/spread.py --workload NAME [--runs 10] [--first-seed 1]
                            [--seconds S] [--json FILE]

Each run is ``bench/run.py`` with the next seed.  For every end-to-end metric
this prints the median, the quartiles (``statistics.quantiles(values, n=4)``)
and the spread, the distance between the quartiles as a share of the median,
next to the metric's bound from BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def summarise(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / statistics.median(values), "values": values}


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--json", default=None)
    args = parser.parse_args(argv)

    results = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              check=True)
        doc = json.loads(proc.stdout.strip().splitlines()[-1])
        results.append(doc)
        values = " ".join(f"{k}={v['value']:.4f}" for k, v in doc["metrics"].items())
        print(f"seed {seed}: correct={doc['correct']} attempted={doc['attempted']} "
              f"failed={doc['failed']} {values}", flush=True)

    summary = {}
    for metric in spec["end_to_end"]:
        name = metric["name"]
        s = summarise([r["metrics"][name]["value"] for r in results])
        summary[name] = s
        print(f"{name:<12} median {s['median']:.4f} {metric['unit']}  quartiles "
              f"{s['q1']:.4f}..{s['q3']:.4f}  spread {s['spread']:.3f} "
              f"(bound {metric['bound']})")
    if args.json:
        Path(args.json).write_text(json.dumps(
            {"workload": args.workload, "runs": results, "summary": summary},
            indent=1) + "\n", encoding="utf-8")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
