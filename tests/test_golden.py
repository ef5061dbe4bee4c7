"""Golden record: the CSV and .dat artifacts and the admissibility
certificates of the six shipped scenarios.

A numerical refactor is gated against the numbers from before it.  Each
file the shipped suite writes is compared with its copy under
``tests/golden/<scenario>/``: the same header and rows, integer cells
exact, NaN equal to NaN, and float cells within a relative tolerance of
``RTOL``.  report.json itself stays out, since it records the numpy and
Python versions; its ``checks.admissibility`` record, the certificates'
verdict and values, is compared with ``admissibility.json`` by the same
rules: booleans and integers exact, NaN and inf equal to themselves, floats
within ``RTOL``.

A change that moves the shipped numbers on purpose regenerates the record
in a commit of its own and lists each moved value in CHANGES.md::

    python -m monolab suite --glob 'src/monolab/scenarios/*.cfg' --out DIR

then copy each ``DIR/<scenario>/*.csv`` and ``*.dat`` file (not report.json)
over ``tests/golden/<scenario>/``, and write each scenario's admissibility
record with::

    python -c "import json, sys; print(json.dumps(json.load(open(sys.argv[1]))\\
['checks']['admissibility'], indent=2, sort_keys=True))" \\
        DIR/<scenario>/report.json > tests/golden/<scenario>/admissibility.json
"""

import json
import math
import pathlib

GOLDEN = pathlib.Path(__file__).parent / "golden"
RTOL = 1e-12


def _artifacts(root):
    """The scenario/file names of the CSV and .dat files under ``root``."""
    return sorted(str(p.relative_to(root)) for p in root.glob("*/*")
                  if p.suffix in (".csv", ".dat"))


def _cells(line, suffix):
    return line.split(",") if suffix == ".csv" else line.split()


def _cell_matches(got, want):
    if want.lstrip("-").isdigit():
        return got == want
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if math.isnan(b):
        return math.isnan(a)
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=0.0)


def mismatches(got_text, want_text, suffix):
    """(row, column, got, want) of each cell of ``got_text`` that differs
    from ``want_text``; a header or shape difference is one entry."""
    got, want = got_text.splitlines(), want_text.splitlines()
    if len(got) != len(want) or got[:1] != want[:1]:
        return [("shape", None, got[:1], want[:1])]
    found = []
    for row, (g_line, w_line) in enumerate(zip(got[1:], want[1:]), start=1):
        g_cells, w_cells = _cells(g_line, suffix), _cells(w_line, suffix)
        if len(g_cells) != len(w_cells):
            found.append((row, None, g_line, w_line))
            continue
        found.extend((row, col, g, w) for col, (g, w) in enumerate(zip(g_cells, w_cells))
                     if not _cell_matches(g, w))
    return found


def record_mismatches(got, want, path=""):
    """(path, got, want) of each leaf of the JSON value ``got`` that differs
    from ``want``; a key or type difference is one entry."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or got.keys() != want.keys():
            return [(path, got, want)]
        return [m for key in sorted(want)
                for m in record_mismatches(got[key], want[key], f"{path}/{key}")]
    if type(got) is not type(want):
        return [(path, got, want)]
    if isinstance(want, float):
        same = math.isnan(got) if math.isnan(want) else math.isclose(
            got, want, rel_tol=RTOL, abs_tol=0.0)
    else:
        same = got == want
    return [] if same else [(path, got, want)]


def test_shipped_artifacts_match_the_golden_record(suite_runs):
    root, _, _ = suite_runs
    run = root / "run1"
    names = _artifacts(GOLDEN)
    assert len(names) == 16
    assert _artifacts(run) == names
    moved = {}
    for name in names:
        found = mismatches((run / name).read_text(), (GOLDEN / name).read_text(),
                           pathlib.Path(name).suffix)
        if found:
            moved[name] = found[:3]
    assert not moved, moved


def test_shipped_certificates_match_the_golden_record(suite_runs):
    root, _, _ = suite_runs
    run = root / "run1"
    names = sorted(p.parent.name for p in GOLDEN.glob("*/admissibility.json"))
    assert len(names) == 6
    assert sorted(p.name for p in run.iterdir() if p.is_dir()) == names
    moved = {}
    for name in names:
        got = json.loads((run / name / "report.json").read_text())
        want = json.loads((GOLDEN / name / "admissibility.json").read_text())
        found = record_mismatches(got["checks"]["admissibility"], want)
        if found:
            moved[name] = found[:3]
    assert not moved, moved


def test_comparison_rules():
    """Integers exact, NaN equal to NaN, floats within RTOL, headers exact."""
    want = "k,r,x\n2,0.5,nan\n"
    assert mismatches(want, want, ".csv") == []
    assert mismatches("k,r,x\n2,0.5000000000001,nan\n", want, ".csv") == []
    assert mismatches("k,r,x\n2,0.50000000001,nan\n", want, ".csv") != []
    assert mismatches("k,r,x\n2.0,0.5,nan\n", want, ".csv") != []
    assert mismatches("k,r,x\n2,0.5,0.0\n", want, ".csv") != []
    assert mismatches("k,r,y\n2,0.5,nan\n", want, ".csv") != []
    assert mismatches("# k r\n3 0.0\n", "# k r\n3 0.0\n", ".dat") == []
    assert mismatches("# k r\n3 1e-300\n", "# k r\n3 0.0\n", ".dat") != []


def test_record_comparison_rules():
    """Booleans and integers exact, NaN and inf equal to themselves, floats
    within RTOL, keys and types exact."""
    want = {"passed": True, "n": 3, "x": 0.5, "w": float("nan"), "v": float("inf")}
    assert record_mismatches(dict(want), want) == []
    assert record_mismatches(dict(want, x=0.5000000000001), want) == []
    assert record_mismatches(dict(want, x=0.50000000001), want) == [("/x", 0.50000000001, 0.5)]
    assert record_mismatches(dict(want, n=3.0), want) != []
    assert record_mismatches(dict(want, passed=1), want) != []
    assert record_mismatches(dict(want, passed=False), want) != []
    assert record_mismatches(dict(want, w=1.0), want) != []
    assert record_mismatches(dict(want, v=1e308), want) != []
    assert record_mismatches(dict(want, v=float("-inf")), want) != []
    assert record_mismatches({"nested": {"x": 0.5}}, {"nested": {"x": 0.5}}) == []
    assert record_mismatches({"nested": {"y": 0.5}}, {"nested": {"x": 0.5}}) != []
