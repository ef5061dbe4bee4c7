"""Golden record: the CSV and .dat artifacts of the six shipped scenarios.

A numerical refactor is gated against the numbers from before it.  Each
file the shipped suite writes is compared with its copy under
``tests/golden/<scenario>/``: the same header and rows, integer cells
exact, NaN equal to NaN, and float cells within a relative tolerance of
``RTOL``.  report.json stays out: it records the numpy and Python versions.

A change that moves the shipped numbers on purpose regenerates the record
in a commit of its own and lists each moved value in CHANGES.md::

    python -m monolab suite --glob 'src/monolab/scenarios/*.cfg' --out DIR

then copy each ``DIR/<scenario>/*.csv`` and ``*.dat`` file (not report.json)
over ``tests/golden/<scenario>/``.
"""

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
