"""One pass of a benchmark workload, in a fresh interpreter.

    python3 bench/one_pass.py --out DIR [--workers N] [--trace] [--spans FILE] CFG...

Imports ``monolab.cli`` from the ``src/`` tree beside this directory, parses the
configs (the end of set-up), then times ``check_suite`` over them into DIR.
Prints one JSON object: ``ready`` (``time.perf_counter()`` at the end of
set-up, comparable with the parent's clock on Linux), ``wall_s``, ``cpu_s``
(user+sys of this process and reaped children during ``check_suite``),
``peak_rss_mb``, ``exit_code`` and ``error``; with ``--trace`` also the
per-layer metrics and the names that could not be traced.
"""

import time  # noqa: I001  (first, so set-up is timed from the earliest point)

import argparse
import io
import json
import os
import resource
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _bytes_under(path):
    return sum(f.stat().st_size for f in Path(path).rglob("*") if f.is_file())


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("configs", nargs="+")
    parser.add_argument("--out", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None)
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "src"))
    import monolab.cli as cli
    from monolab.config import parse_config

    expected = ROOT / "src" / "monolab"
    if Path(cli.__file__).resolve().parent != expected.resolve():
        print(f"monolab imported from {cli.__file__}, not {expected}", file=sys.stderr)
        return 2
    for path in args.configs:
        parse_config(path)
    ready = time.perf_counter()

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    error = None
    exit_code = None
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    try:
        exit_code = cli.check_suite(args.configs, args.out, workers=args.workers,
                                    stream=io.StringIO())
    except Exception as exc:  # a raising check is a failed operation, not a crash
        error = f"{type(exc).__name__}: {exc}"
    t1 = time.perf_counter()
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    result = {
        "ready": ready,
        "wall_s": t1 - t0,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux; children: the largest reaped child
        "peak_rss_mb": (self1.ru_maxrss + kids1.ru_maxrss) / 1024.0,
        "exit_code": exit_code,
        "error": error,
    }
    if tracer is not None:
        ran = sum(1 for span in tracer.spans if span[1] == "cli.run_scenario")
        if error is None and ran < len(args.configs):
            tracer.mark_untraced(f"{ran} of {len(args.configs)} scenarios ran in "
                                 "the traced process")
        result["layers"] = tracer.metrics(bytes_written=_bytes_under(args.out))
        result["missing"] = dict(tracer.missing)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"fields": ["id", "name", "start", "end", "parent",
                                      "trace_id", "points"],
                           "spans": tracer.spans}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
