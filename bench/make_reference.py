"""Regenerate the artifact references under bench/reference/.

    python3 bench/make_reference.py

Runs every benchmark config serially, once per seed variant for configs
with ``pair.seed``, and stores its CSV and .dat artifacts as
``reference/<config>/v<variant>/``.  Run it only at a commit whose outputs are
known good: the benchmark gates every later pass against these files.
"""

import shutil
import sys
import tempfile
from pathlib import Path

from run import (REFERENCE, REPORT, SEED_VARIANTS, WORK, is_seeded, load_spec,
                 run_pass, write_configs)


def main():
    names = sorted({name for wl in load_spec()["workloads"].values()
                    for name in wl["configs"]})
    WORK.mkdir(exist_ok=True)
    for name in names:
        for variant in range(SEED_VARIANTS if is_seeded(name) else 1):
            tmp = Path(tempfile.mkdtemp(prefix="reference-", dir=WORK))
            try:
                (path, scenario, *_), = write_configs([name], variant, tmp)
                res = run_pass([path], tmp / "out")
                if res.get("error") or res.get("exit_code") != 0:
                    print(f"{name} v{variant}: pass failed: {res}", file=sys.stderr)
                    return 1
                dest = REFERENCE / name / f"v{variant}"
                shutil.rmtree(dest, ignore_errors=True)
                dest.mkdir(parents=True)
                for f in sorted((tmp / "out" / scenario).iterdir()):
                    if f.name != REPORT:
                        shutil.copyfile(f, dest / f.name)
                print(f"{name} v{variant}: {res['wall_s']:.2f} s", flush=True)
            finally:
                shutil.rmtree(tmp, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
