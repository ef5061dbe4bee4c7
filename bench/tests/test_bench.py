"""Fast tests of the benchmark's own code.

    python3 -m pytest -q bench/tests
"""

import json
import math
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402

TINY = """\
scenario.id = tiny_caloric
manifold.family = euclidean
manifold.n = 2
pair.family = TwoPlaneCaloric
pair.alpha = 1.0
pair.beta = 1.0
kernel.kind = gauss
grid.h = 0.25
quad.nodes = 16
quad.slices_per_scale = 4
quad.time_blocks = 6
ladder.k_min = 2
ladder.k_max = 3
checks = ladder, prop1, thm1
"""

TINY_OVERLAP = """\
scenario.id = tiny_overlap
manifold.family = euclidean
manifold.n = 2
pair.family = NumericPair
pair.seed = 3
pair.overlap = true
kernel.kind = gauss
grid.h = 0.25
quad.nodes = 16
quad.slices_per_scale = 4
quad.time_blocks = 6
ladder.k_min = 2
ladder.k_max = 2
checks = ladder
"""


def span(sid, name, start, end, parent=None, points=None):
    return (sid, name, start, end, parent, "t", points)


# ---------------------------------------------------------------------------
# span arithmetic


def test_self_time_subtracts_union_of_children():
    spans = [
        span(1, "root", 0.0, 10.0),
        span(2, "a", 1.0, 4.0, parent=1),
        span(3, "b", 3.0, 6.0, parent=1),      # overlaps a: counted once
        span(4, "leaf", 2.0, 3.0, parent=2),
        span(5, "c", 8.0, 12.0, parent=1),     # clipped to the parent's end
    ]
    selfs = tracer.self_times(spans)
    assert selfs[1] == pytest.approx(10.0 - 5.0 - 2.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[3] == pytest.approx(3.0)
    assert selfs[4] == pytest.approx(1.0)


def test_total_counts_outermost_span_of_a_name_once():
    spans = [
        span(1, "f", 0.0, 4.0),
        span(2, "f", 1.0, 2.0, parent=1),      # recursion: inside f already
        span(3, "g", 2.0, 3.0, parent=1),
        span(4, "f", 5.0, 6.0),
    ]
    totals = tracer.outermost_totals(spans)
    assert totals["f"] == pytest.approx(5.0)
    assert totals["g"] == pytest.approx(1.0)


def test_derived_metrics_count_calls_points_and_self_time():
    spans = [
        span(1, "quadrature.slice_integral", 0.0, 2.0),
        span(2, tracer.INTEGRAND, 0.5, 1.5, parent=1, points=100),
        span(3, "quadrature.slice_integral", 3.0, 4.0),
        span(4, tracer.INTEGRAND, 3.0, 3.5, parent=3, points=50),
    ]
    m = tracer.derive_metrics(spans, {}, {})
    assert m["quadrature.slice_integral.calls"]["value"] == 2
    assert m["quadrature.slice_integral.total_s"]["value"] == pytest.approx(3.0)
    assert m["quadrature.slice_integral.self_s"]["value"] == pytest.approx(1.5)
    assert m["functional.integrand.points"]["value"] == 150
    assert m["quadrature.slice_integral.points_per_s"]["value"] == pytest.approx(50.0)


def test_missing_name_is_reported_missing_never_zero():
    m = tracer.derive_metrics([], {"cutoff.chi": "monolab.cutoff.chi not found"}, {})
    for name in ("cutoff.chi.points", "cutoff.chi.self_s"):
        assert m[name]["value"] is None
        assert "not found" in m[name]["missing"]
    assert m["cutoff.dchi.points"]["value"] == 0


def test_install_reports_a_vanished_name_and_undo_restores():
    import monolab.geometry as geometry

    t = tracer.Tracer()
    original = geometry.metric_fields
    undo = t.install({
        "geometry.gone": ("monolab.geometry", "no_such_function", None),
        "quadrature.slice_integral": ("monolab.quadrature", "no_such_rule", None),
        "geometry.metric_fields": ("monolab.geometry", "metric_fields", 1),
    })
    try:
        assert "no_such_function" in t.missing["geometry.gone"]
        assert tracer.INTEGRAND in t.missing      # made inside the vanished name
        assert geometry.metric_fields is not original
    finally:
        tracer.uninstall(undo)
    assert geometry.metric_fields is original


# ---------------------------------------------------------------------------
# printer and BENCHMARK.json


def test_printed_names_and_units_match_benchmark_json():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == {name: unit for name, unit, _ in run.END_TO_END}
    layers = {m["name"]: m["unit"] for m in spec["per_layer"]}
    printed = {name: unit for name, unit, _, _ in tracer.PER_LAYER}
    printed.update({n: "s" for n in run.TRACING_METRICS})
    assert layers == printed
    assert {w["name"] for w in spec["workloads"]} == set(run.load_spec()["workloads"])


def test_result_line_has_exactly_the_contract_keys():
    line = run.result_line(True, 4, 0, {"wall_s": {"value": 1.5, "unit": "s"}})
    doc = json.loads(line)
    assert set(doc) == {"correct", "attempted", "failed", "metrics"}
    assert doc["metrics"]["wall_s"] == {"value": 1.5, "unit": "s"}


def test_highest_percentile_needs_ten_samples_beyond_it():
    assert run.highest_percentile(list(range(19))) is None
    p, _ = run.highest_percentile([float(i) for i in range(100)])
    assert p == 90


# ---------------------------------------------------------------------------
# correctness gate


def _write(path, text):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return path


def test_compare_table_tolerance_and_nan(tmp_path):
    ref = _write(tmp_path / "ref" / "ladder.csv", "k,r,x\n2,0.25,nan\n3,0.0625,1.0\n")
    near = _write(tmp_path / "a" / "ladder.csv",
                  "k,r,x\n2,0.25,nan\n3,0.0625,1.000000000001\n")
    far = _write(tmp_path / "b" / "ladder.csv", "k,r,x\n2,0.25,nan\n3,0.0625,1.000001\n")
    shape = _write(tmp_path / "c" / "ladder.csv", "k,r,x\n2,0.25,nan\n")
    ok, dev = run.compare_table(near, ref)
    assert ok and 0 < dev <= run.RTOL
    ok, dev = run.compare_table(far, ref)
    assert not ok and dev > run.RTOL
    assert run.compare_table(shape, ref) == (False, math.inf)


def test_seed_variant_shifts_only_seeded_configs(tmp_path):
    (path, scenario, checks, _, used), (_, _, _, _, unseeded) = run.write_configs(
        ["numeric_pair_a", "wedge_half"], 3, tmp_path)
    assert scenario == "numeric_pair_a" and checks == ["ladder", "prop1", "thm1"]
    assert run._cfg_value(path.read_text(), "pair.seed") == "14"
    assert (used, unseeded) == (3, 0)
    assert run.is_seeded("numeric_pair_a") and not run.is_seeded("wedge_half")


def test_config_headers_list_the_keys_changed_from_the_shipped_configs():
    shipped_dir = BENCH.parent / "src" / "monolab" / "scenarios"
    for cfg in sorted(run.CONFIGS.glob("*.cfg")):
        text = cfg.read_text()
        shipped = (shipped_dir / cfg.name).read_text()
        claimed = {}
        for line in text.splitlines():
            if line.startswith("#   ") and " -> " in line:
                key, rest = line[4:].split(" ", 1)
                claimed[key] = tuple(v.strip() for v in rest.split(" -> "))
        keys = {line.split("=", 1)[0].strip() for line in shipped.splitlines()
                if "=" in line and not line.startswith("#")}
        actual = {k: (run._cfg_value(shipped, k), run._cfg_value(text, k))
                  for k in keys if run._cfg_value(shipped, k) != run._cfg_value(text, k)}
        assert claimed == actual, cfg.name


def test_tiny_configs_through_run_py(tmp_path, monkeypatch):
    configs = tmp_path / "configs"
    _write(configs / "tiny.cfg", TINY)
    _write(configs / "tiny_overlap.cfg", TINY_OVERLAP)
    monkeypatch.setattr(run, "CONFIGS", configs)
    monkeypatch.setattr(run, "REFERENCE", tmp_path / "reference")
    spec = {"workloads": {
        "tiny": {"configs": ["tiny"], "workers": 2},
        "overlap": {"configs": ["tiny_overlap"], "workers": 1},
    }}

    # the reference is this commit's own output
    (path, scenario, *_), = run.write_configs(["tiny"], 0, tmp_path)
    first = run.run_pass([path], tmp_path / "ref_out")
    assert first["exit_code"] == 0 and first["setup_s"] > 0
    ref = tmp_path / "reference" / "tiny" / "v0"
    ref.mkdir(parents=True)
    for f in (tmp_path / "ref_out" / scenario).iterdir():
        if f.name != run.REPORT:
            (ref / f.name).write_bytes(f.read_bytes())

    work = tmp_path / "work"
    work.mkdir()
    r = run.Run("tiny", spec, seed=5, seconds=0, workdir=work, out=sys.stderr)
    metrics = r.end_to_end()
    assert set(metrics) == {name for name, _, _ in run.END_TO_END}
    assert all(m["value"] > 0 for m in metrics.values())
    passes = run.MIN_PASSES + (r.workers() > 1)     # the serial twin is untimed
    assert r.attempted == (1 + 3) * passes and r.failed_ops() == 0 and r.identical

    layers = r.per_layer(tmp_path / "spans.json")
    assert not r.problems and r.failed_ops() == 0
    assert layers["functional.phase_energy.calls"]["value"] > 0
    assert layers["functional.phase_energy.distinct"]["value"] <= \
        layers["functional.phase_energy.calls"]["value"]
    assert all(m["value"] is not None for m in layers.values())
    spans = json.loads((tmp_path / "spans.json").read_text())["spans"]
    assert {s[5] for s in spans} >= {"tiny_caloric", "suite"}

    # an inadmissible pair: every operation fails, and without a reference
    work2 = tmp_path / "work2"
    work2.mkdir()
    bad = run.Run("overlap", spec, seed=0, seconds=0, workdir=work2, out=sys.stderr)
    bad.one(1)
    assert bad.attempted == 2 and bad.failed_ops() == 2
