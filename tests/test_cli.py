import dataclasses
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import monolab
from monolab import cli, config
from monolab.battery import CHECKS, LADDER_HEADER, PHI_CURVE_HEADER
from monolab.config import ScenarioConfig, parse_config, parse_config_text
from monolab.errors import ConfigError
from monolab.report import write_report

FAST_NULL = """
scenario.id = tiny_null
manifold.family = euclidean
manifold.n = 2
pair.family = Null
kernel.kind = gauss
grid.h = 0.25
quad.nodes = 16
quad.slices_per_scale = 6
quad.time_blocks = 8
ladder.k_min = 2
ladder.k_max = 3
checks = phi_curve, ladder, prop1, prop2, thm1
"""

FAST_CALORIC = """
scenario.id = tiny_caloric
manifold.family = euclidean
manifold.n = 2
pair.family = TwoPlaneCaloric
pair.alpha = 1.0
pair.beta = 1.0
kernel.kind = gauss
grid.h = 0.25
quad.nodes = 32
quad.slices_per_scale = 10
quad.time_blocks = 10
ladder.k_min = 2
ladder.k_max = 3
checks = ladder, prop1, thm1
"""

FAST_OVERLAP = """
scenario.id = tiny_overlap
manifold.family = euclidean
manifold.n = 2
pair.family = NumericPair
pair.seed = 3
pair.overlap = true
kernel.kind = gauss
grid.h = 0.25
quad.nodes = 16
quad.slices_per_scale = 6
quad.time_blocks = 8
ladder.k_min = 2
ladder.k_max = 2
checks = ladder
"""


# ---------------------------------------------------------------------------
# config parsing


def test_parse_roundtrip():
    cfg = parse_config_text(FAST_CALORIC)
    assert cfg.scenario_id == "tiny_caloric"
    assert cfg.pair_family == "TwoPlaneCaloric"
    assert cfg.pair_params == {"alpha": 1.0, "beta": 1.0}
    assert cfg.checks == ("ladder", "prop1", "thm1")
    assert cfg.quad.nodes == 32


def test_config_is_frozen_and_only_built_by_the_parser():
    cfg = parse_config_text(FAST_CALORIC)
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.k_min = 3
    with pytest.raises(TypeError):
        ScenarioConfig()        # no field has a default


def test_parse_comments_and_blank_lines():
    cfg = parse_config_text("# comment\n\nscenario.id = x  # trailing\n")
    assert cfg.scenario_id == "x"


def test_parse_unknown_key_has_line_number():
    with pytest.raises(ConfigError) as err:
        parse_config_text("scenario.id = a\nbogus.key = 1\n")
    assert "line 2" in str(err.value)


def test_parse_bad_value_and_missing_equals():
    with pytest.raises(ConfigError):
        parse_config_text("manifold.n = soup\n")
    with pytest.raises(ConfigError):
        parse_config_text("just a line\n")


def test_parse_validation_errors():
    with pytest.raises(ConfigError):
        parse_config_text("pair.family = Unknown\n")
    with pytest.raises(ConfigError):
        parse_config_text("ladder.k_min = 0\n")   # 4^0 > delta_p / 2
    with pytest.raises(ConfigError):
        parse_config_text("checks = ladder, bogus\n")
    with pytest.raises(ConfigError):
        parse_config_text("thm2.eps = 2.0\n")


@pytest.mark.parametrize("text, key", [
    ("quad.nodes = 4\n", "quad.nodes"),
    ("quad.r_tail = 2.0\n", "quad.r_tail"),
    ("grid.q = 1.0\n", "grid.q"),
    ("manifold.family = perturbed\nmanifold.epsilon = 0.5\n", "manifold.epsilon"),
    ("manifold.family = const_curvature\nmanifold.K = 20\n", "manifold.K"),
    ("manifold.family = const_curvature\nmanifold.K = -50\n", "manifold.K"),
    ("manifold.family = perturbed\nmanifold.shape = zigzag\n", "manifold.shape"),
    ("grid.h = 0\n", "grid.h"),
    ("grid.h = -0.1\n", "grid.h"),
    ("grid.dt0 = 0\n", "grid.dt0"),
    ("quad.levels = 2\n", "quad.levels"),   # deleted key: unknown now
    ("checks =\n", "checks"),
    ("quad.slices_per_scale = 0\n", "quad.slices_per_scale"),
    ("quad.time_blocks = 0\n", "quad.time_blocks"),
    ("grid.h = 5.0\n", "grid.h"),
    ("pair.family = NumericPair\npair.n_bumps = 0\n", "pair.n_bumps"),
    ("pair.family = TwoPlaneCaloric\npair.alpha = -1\n", "pair.alpha"),
    ("pair.family = NumericPair\npair.source_depth = -1\n", "pair.source_depth"),
    ("manifold.n = 4\n", "manifold.n"),    # no polar annulus rule beyond n = 3
    ("manifold.n = 0\n", "manifold.n"),
    ("grid.dt0 = 0.15\n", "grid.dt0"),     # = delta_p^2 (1 - q): never reaches 0
    # |K| delta_p^2 = 21, but the grid cube's corners have |K| |x|^2 = 42
    ("manifold.family = const_curvature\nmanifold.K = -21\n", "manifold.K"),
    ("output.dir = x\n", "output.dir"),    # deleted key: unknown now
    ("pair.family = PowerWedge\npair.alpha = 2\n", "pair.alpha"),  # not read
    ("quad.r_tail = inf\n", "quad.r_tail"),
    ("tol.scale = nan\n", "tol.scale"),
    ("grid.h = 0.0001\n", "grid.h"),        # size budget: 20001^2 nodes
    ("quad.nodes = 100000\n", "quad.nodes"),  # size budget: 10^10 points a slice
    # manifold keys the chart family does not read
    ("manifold.K = 99\n", "manifold.K"),
    ("manifold.epsilon = 0.1\n", "manifold.epsilon"),
    ("manifold.family = const_curvature\nmanifold.shape = wave\n", "manifold.shape"),
    ("manifold.family = perturbed\nmanifold.K = 1.0\n", "manifold.K"),
    # scales outside (0, delta_p/4] and a guard that no ratio can pass
    ("sd.r = -1\n", "sd.r"),
    ("sd.r = 0.5\n", "sd.r"),
    ("positivity.r = 0\n", "positivity.r"),
    ("bkp.rs = -0.1, 0.05\n", "bkp.rs"),
    ("bkp.rs = 0.9\n", "bkp.rs"),          # emptied both ladders before
    ("bkp.rs =\n", "bkp.rs"),              # no scale: empty ladders, NaN slopes
    # one scale, or one scale twice: the pushforward's slope was NaN, or a
    # least-squares fit through a single point (a PASS at 2.13)
    ("bkp.rs = 0.1\n", "bkp.rs"),
    ("bkp.rs = 0.1, 0.1\n", "bkp.rs"),
    ("thm1.guard = -1\n", "thm1.guard"),
    # scales whose square underflows: the time mesh from -r^2 never ends
    ("sd.r = 1e-170\n", "sd.r"),
    ("positivity.r = 1e-320\n", "positivity.r"),
    ("bkp.rs = 0.1, 1e-320\n", "bkp.rs"),
    # values that parsed and then raised a traceback
    ("grid.h = 1e-320\n", "grid.h"),       # L / h overflows to inf
    ("pair.family = NumericPair\npair.seed = -1\n", "pair.seed"),
    # 3 nodes per axis: no interior node on either half-cube
    ("pair.family = NumericPair\ngrid.h = 0.999\n", "grid.h"),
    # values that parsed and then failed at run time: a ladder scale below
    # 1e-6 (k_max = 300 underflowed the mesh's last slice time to -0.0), a
    # time mesh of 10^9 slice times (MemoryError) and 10^8 blocks (no end)
    ("ladder.k_max = 300\n", "ladder.k_max"),
    ("ladder.k_max = 10\n", "ladder.k_max"),   # 4^-10 < 1e-6 <= 4^-9
    # ladder indices whose 4^-k overflowed the float power or the integer's
    # conversion to float: an OverflowError traceback
    ("ladder.k_min = -10000\n", "ladder.k_min"),
    ("ladder.k_min = -600\nchecks = poincare\n", "ladder.k_min"),
    ("ladder.k_max = 1" + "0" * 400 + "\n", "ladder.k_max"),
    ("quad.slices_per_scale = 99999999\n", "quad.slices_per_scale"),
    ("quad.time_blocks = 99999999\n", "quad.time_blocks"),
    # report directories that are not one plain name under --out: the report
    # went to <out>/../escape, or straight into <out>
    ("scenario.id = ../escape\n", "scenario.id"),
    ("scenario.id =\n", "scenario.id"),
    ("scenario.id = .\n", "scenario.id"),
    ("scenario.id = ..\n", "scenario.id"),
    ("scenario.id = a/b\n", "scenario.id"),
    ("scenario.id = a\\b\n", "scenario.id"),
    # a NUL in the report directory's name: os.makedirs raised ValueError
    # after the scenario ran, and the suite stopped
    ("scenario.id = nul\x00\n", "scenario.id"),
    # a repeated check ran twice and wrote its artifacts twice
    ("checks = ladder, prop1, ladder\n", "checks"),
    # a time mesh of two frames, -T and 0: the weak certificate checked
    # nothing, and every check was recorded failed (exit 1)
    ("manifold.delta_p = 0.5\ngrid.dt0 = 0.2\n", "grid.dt0"),
])
def test_constructor_limits_exit_2(tmp_path, capsys, text, key):
    """Values the quadrature, grid or chart constructors reject, and keys
    that no longer exist, are config errors naming their key and the line
    that sets it, not tracebacks.  Each is caught by the parser, before any
    array of the scenario exists."""
    with pytest.raises(ConfigError) as err:
        parse_config_text(text)
    assert err.value.key == key
    setters = [i for i, line in enumerate(text.splitlines(), start=1)
               if line.partition("=")[0].strip() == key]
    assert err.value.line == setters[-1]
    bad = tmp_path / "bad.cfg"
    bad.write_text(FAST_NULL + text)
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    assert repr(key) in capsys.readouterr().err


# a chart with delta_p = 0.1 on a grid fine enough for the residual
# certificate: 10 time frames and 324 checkable nodes per phase
SMALL_CHART = "manifold.delta_p = 0.1\ngrid.h = 0.02\ngrid.dt0 = 0.002\n"


def test_unset_scale_read_by_no_check_leaves_a_small_chart_alone(tmp_path, capsys):
    """On a chart with delta_p = 0.1 the default scales (1/16 and up) exceed
    delta_p/4, but a scale the text does not set is checked only when a
    requested check reads it: a ladder runs (it exited 2 naming sd.r, with
    no line), and the scale derivative is still refused."""
    small = SMALL_CHART + "ladder.k_min = 3\n"
    cfg = tmp_path / "small.cfg"
    cfg.write_text(small + "checks = ladder\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    with pytest.raises(ConfigError) as err:
        parse_config_text(small + "checks = scale_derivative\n")
    assert (err.value.key, err.value.line) == ("sd.r", None)


def test_unset_ladder_range_read_by_no_check_leaves_a_small_chart_alone(tmp_path,
                                                                      capsys):
    """The default ladder.k_min = 2 puts 4^-2 above delta_p/2 on a chart with
    delta_p = 0.1, but it is checked only when a requested check reads the
    ladder range: a Poincare check runs (it exited 2 naming ladder.k_min),
    and a k_min that the text sets keeps its check and its line."""
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL_CHART + "checks = poincare\n")
    assert cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 0
    capsys.readouterr()
    with pytest.raises(ConfigError) as err:
        parse_config_text(SMALL_CHART + "checks = ladder\n")
    assert (err.value.key, err.value.line) == ("ladder.k_min", None)
    with pytest.raises(ConfigError) as err:
        parse_config_text(SMALL_CHART + "ladder.k_min = 2\nchecks = poincare\n")
    assert (err.value.key, err.value.line) == ("ladder.k_min", 4)


@pytest.mark.parametrize("text, key, default", [
    ("ladder.k_min = 3\nchecks = scale_derivative\n", "sd.r", "0.0625"),
    ("ladder.k_min = 3\nchecks = positivity\n", "positivity.r", "0.0625"),
    ("ladder.k_min = 3\nchecks = pushforward\n", "bkp.rs", "0.2, 0.1, 0.05, 0.025"),
    ("checks = ladder\n", "ladder.k_min", "2"),
    ("ladder.k_min = 6\n", "ladder.k_max", "5"),
])
def test_a_refused_default_names_itself_and_the_key_to_set(text, key, default):
    """A default value a requested check reads and refuses is named in the
    error, with the key to set; the same refusal of a value that the text
    sets keeps its message."""
    with pytest.raises(ConfigError) as err:
        parse_config_text(SMALL_CHART + text)
    assert err.value.key == key and err.value.line is None
    assert err.value.message.endswith(f" (the default {key} = {default}; set {key})")
    with pytest.raises(ConfigError) as err:
        parse_config_text(SMALL_CHART + text + f"{key} = {default}\n")
    assert (err.value.key, err.value.line) == (key, (SMALL_CHART + text).count("\n") + 1)
    assert "default" not in err.value.message


@pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
@pytest.mark.parametrize("key", ["alpha", "beta"])
def test_huge_amplitude_fails_admissibility_with_a_report(key):
    """An amplitude whose square overflows is a pair the certificates reject,
    not an OverflowError out of the validity check's tolerance."""
    doc = cli.run_scenario(parse_config_text(FAST_CALORIC + f"pair.{key} = 1e308\n"))
    assert doc.record("admissibility").passed is False
    assert [rec.name for rec in doc.records[1:]] == ["ladder", "prop1", "thm1"]


def test_parse_builds_chart_grid_and_rule():
    cfg = parse_config_text(FAST_CALORIC)
    assert (cfg.chart.family, cfg.chart.dim, cfg.chart.radius) == ("euclidean", 2, 1.0)
    assert cfg.grid.h == 0.25
    assert (cfg.quad.nodes, cfg.quad.slices_per_scale, cfg.quad.time_blocks) == (32, 10, 10)
    assert parse_config_text("manifold.n = 3\nquad.nodes = 0\n").quad.nodes == 24


def test_readme_lists_every_config_key():
    """The README's key table and the parser know the same keys, and its
    checks row the battery's checks."""
    from monolab.solutions.families import FAMILY_NAMES, param_types

    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as fh:
        text = fh.read()
    section = text.split("## Scenario configs", 1)[1]
    table = next(block for block in section.split("\n\n")
                 if block.startswith("| key |"))
    documented = set()
    for row in table.splitlines()[2:]:
        first = row.split("|")[1]
        documented.update(first.replace("`", "").replace("/", ",").split(","))
    documented = {key.strip() for key in documented}
    parsed = set(config._KEYS) | {f"pair.{p}" for family in FAMILY_NAMES
                                  for p in param_types(family)}
    assert documented == parsed
    # the checks row names the battery's checks, in the table's order
    checks_row = next(row for row in table.splitlines() if row.startswith("| `checks` |"))
    assert checks_row.split("`")[3].split(", ") == list(CHECKS)


def test_all_checks_known():
    cfg = parse_config_text("checks = " + ", ".join(CHECKS) + "\n")
    assert cfg.checks == tuple(CHECKS)


# the ScenarioConfig attribute of every key some check of the table reads
CHECK_ATTRS = {key: config._KEYS[key][0] for reads, _ in CHECKS.values()
               for key in reads}
_UNCHECKED = FAST_CALORIC.replace("checks = ladder, prop1, thm1\n", "")
TABLE_TEXTS = {
    "flat": _UNCHECKED,
    "curved": _UNCHECKED.replace("manifold.family = euclidean",
                                 "manifold.family = const_curvature\nmanifold.K = 1.0"),
}


@pytest.mark.parametrize("chart", sorted(TABLE_TEXTS))
def test_each_check_reads_only_the_keys_of_its_table_row(chart):
    """Each check, run with every check-specific setting its row of
    ``CHECKS`` does not name set to None, records what it records in a run
    of all the checks on the unchanged config."""
    cfg = parse_config_text(TABLE_TEXTS[chart] + "checks = " + ", ".join(CHECKS) + "\n")
    full = cli.run_scenario(cfg)
    assert full.record("admissibility").passed
    for name, (reads, _) in CHECKS.items():
        unread = {attr: None for key, attr in CHECK_ATTRS.items() if key not in reads}
        doc = cli.run_scenario(dataclasses.replace(cfg, checks=(name,), **unread))
        # repr: a NaN value equals itself only as text
        assert repr(doc.records[1]) == repr(full.record(name)), name


# ---------------------------------------------------------------------------
# scenario runs and reports


@pytest.fixture(scope="module")
def null_doc():
    return cli.run_scenario(parse_config_text(FAST_NULL))


def test_null_scenario_all_zero_and_pass(null_doc):
    assert all(rec.passed is not False for rec in null_doc.records)
    curve = null_doc.record("phi_curve").values["rows"]
    assert all(row["phi"] == 0.0 for row in curve)
    ladder = null_doc.record("ladder").values["rows"]
    assert all(row["a_plus"] == 0.0 for row in ladder)
    assert null_doc.record("thm1").values["ratio"] == 0.0


def test_informational_checks_report_none(tmp_path):
    text = FAST_NULL.replace("checks = phi_curve, ladder, prop1, prop2, thm1",
                             "checks = phi_curve, ladder, positivity, prop1")
    doc = cli.run_scenario(parse_config_text(text))
    for name in ("phi_curve", "ladder", "positivity"):
        assert doc.record(name).passed is None
    assert doc.record("prop1").passed is True
    write_report(doc, str(tmp_path / "rep"))
    payload = json.loads((tmp_path / "rep" / "report.json").read_text())
    assert payload["checks"]["ladder"]["passed"] is None
    assert payload["checks"]["prop1"]["passed"] is True


def test_raising_check_is_recorded_not_fatal(tmp_path, capsys):
    """A Null pair has no s = -1 slice mass, so bkp_perturbed raises
    DegenerateInputError; the suite still reports every check."""
    text = FAST_NULL.replace("checks = phi_curve, ladder, prop1, prop2, thm1",
                             "checks = ladder, bkp_perturbed")
    paths = _write_cfgs(tmp_path, text)
    out = tmp_path / "out"
    assert cli.check_suite(paths, str(out)) == 1
    assert "[tiny_null:bkp_perturbed] FAIL" in capsys.readouterr().out
    payload = json.loads((out / "tiny_null" / "report.json").read_text())
    assert set(payload["checks"]) == {"admissibility", "ladder", "bkp_perturbed"}
    failed = payload["checks"]["bkp_perturbed"]
    assert failed["passed"] is False
    assert failed["values"]["error"].startswith("DegenerateInputError: ")
    assert (out / "tiny_null" / "ladder.csv").exists()
    assert not (out / "tiny_null" / "bkp_deficit.dat").exists()


def test_every_requested_check_reported_once(null_doc):
    cfg = parse_config_text(FAST_NULL)
    names = [rec.name for rec in null_doc.records]
    for check in cfg.checks:
        assert names.count(check) == 1
    assert names.count("admissibility") == 1


def test_write_report_files_and_headers(null_doc, tmp_path):
    out = tmp_path / "null"
    paths = write_report(null_doc, str(out))
    assert (out / "report.json").exists()
    ladder_csv = (out / "ladder.csv").read_text()
    assert ladder_csv.splitlines()[0] == LADDER_HEADER
    assert ladder_csv.endswith("\n")
    curve_csv = (out / "phi_curve.csv").read_text()
    assert curve_csv.splitlines()[0] == PHI_CURVE_HEADER
    payload = json.loads((out / "report.json").read_text())
    assert payload["scenario"] == "tiny_null"
    assert set(payload["checks"]) >= set(parse_config_text(FAST_NULL).checks)
    assert "numpy" in payload["environment"]


def test_write_report_idempotent(null_doc, tmp_path):
    out = str(tmp_path / "twice")
    write_report(null_doc, out)
    first = (tmp_path / "twice" / "ladder.csv").read_bytes()
    write_report(null_doc, out)
    assert (tmp_path / "twice" / "ladder.csv").read_bytes() == first


def test_flat_pushforward_passes_on_an_exact_reduction(tmp_path, capsys):
    """On the flat chart of caloric_euclid the reduction to Gauss measure is
    exact: every sup deviation lies at the slope fit's floor, so there is no
    slope to fit (NaN), and the check passes (it failed)."""
    from monolab import gauss_transforms as gt

    path = next(p for p in cli.shipped_scenario_paths()
                if os.path.basename(p) == "caloric_euclid.cfg")
    with open(path, encoding="utf-8") as fh:
        text = _mutate(fh.read(), "checks", "pushforward")
    cfg = tmp_path / "push.cfg"
    cfg.write_text(text)
    out = tmp_path / "o"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    assert "[caloric_euclid:pushforward] PASS" in capsys.readouterr().out
    values = json.loads((out / "caloric_euclid" / "report.json").read_text())[
        "checks"]["pushforward"]["values"]
    assert values["sup_slope"] == "nan"
    assert all(0.0 < rec["sup_deviation"] <= gt.PUSHFORWARD_FLOOR
               for rec in values["records"])


def test_caloric_scenario_values():
    doc = cli.run_scenario(parse_config_text(FAST_CALORIC))
    assert all(rec.passed is not False for rec in doc.records)
    rows = doc.record("ladder").values["rows"]
    for row in rows:
        assert row["phi"] == pytest.approx(0.25, rel=0.03)


def test_phi_curve_err_est_pinned():
    """phi_curve's rows, the error estimate from the input's copy under the
    halved rule included, pinned exactly (recorded with numpy 2 on x86-64)."""
    text = FAST_CALORIC.replace("checks = ladder, prop1, thm1", "checks = phi_curve")
    rows = cli.run_scenario(parse_config_text(text)).record("phi_curve").values["rows"]
    assert [tuple(row[col] for col in ("r", "phi", "a_plus", "a_minus", "err_est"))
            for row in rows] == [
        (0.0625, 0.24973485844924923, 0.0019520890160621236,
         0.0019520890160621236, 8.995527863079703e-06),
        (0.03125, 0.24999998690571001, 0.0004882812372126073,
         0.0004882812372126073, 3.234723933154271e-09),
        (0.015625, 0.2499999869699466, 0.00012207030931883459,
         0.00012207030931883457, 3.245185435189294e-09),
    ]


def test_phi_curve_err_est_nan_when_the_halved_rule_is_the_rule(tmp_path):
    """At 8 nodes and 4 slices per scale, halving the rule leaves it as it
    is: there is nothing to compare, so err_est is NaN in every row (it read
    0.0), in the record and in phi_curve.csv."""
    text = (FAST_CALORIC.replace("checks = ladder, prop1, thm1", "checks = phi_curve")
            .replace("quad.nodes = 32", "quad.nodes = 8")
            .replace("quad.slices_per_scale = 10", "quad.slices_per_scale = 4"))
    doc = cli.run_scenario(parse_config_text(text))
    rows = doc.record("phi_curve").values["rows"]
    assert len(rows) == 3
    assert all(row["phi"] > 0.0 and math.isnan(row["err_est"]) for row in rows)
    write_report(doc, str(tmp_path / "rep"))
    csv_rows = (tmp_path / "rep" / "phi_curve.csv").read_text().splitlines()[1:]
    assert [line.rsplit(",", 1)[1] for line in csv_rows] == ["nan"] * 3


def test_report_carries_fitted_constants(tmp_path):
    text = FAST_CALORIC.replace("checks = ladder, prop1, thm1",
                                "checks = thm1, thm2, e322")
    doc = cli.run_scenario(parse_config_text(text))
    out = tmp_path / "rep"
    write_report(doc, str(out))
    payload = json.loads((out / "report.json").read_text())
    assert "ratio" in payload["checks"]["thm1"]["values"]
    assert "c_m" in payload["checks"]["thm2"]["values"]
    e322 = payload["checks"]["e322"]["values"]["records"]
    some_r = next(iter(e322.values()))
    assert "c_fixed_form" in some_r[0] and "c_annulus_form" in some_r[0]


# ---------------------------------------------------------------------------
# suite behavior


def _write_cfgs(tmp_path, *texts):
    paths = []
    for i, text in enumerate(texts):
        p = tmp_path / f"s{i}.cfg"
        p.write_text(text)
        paths.append(str(p))
    return paths


def test_suite_exit_zero(tmp_path, capsys):
    paths = _write_cfgs(tmp_path, FAST_NULL, FAST_CALORIC)
    code = cli.check_suite(paths, str(tmp_path / "out"))
    out = capsys.readouterr().out
    assert code == 0
    assert "[tiny_null:ladder] INFO" in out     # informational: passed is None
    assert "[tiny_null:prop1] PASS" in out


def test_suite_overlap_fails(tmp_path, capsys):
    paths = _write_cfgs(tmp_path, FAST_NULL, FAST_OVERLAP)
    code = cli.check_suite(paths, str(tmp_path / "out"))
    out = capsys.readouterr().out
    assert code == 1
    assert "[tiny_overlap:admissibility] FAIL" in out


def test_suite_empty_is_config_error():
    with pytest.raises(ConfigError):
        cli.check_suite([], "out")


def test_suite_runs_serially_in_config_order(tmp_path, monkeypatch):
    """check_suite runs each scenario in the calling thread, in the order of
    its configs."""
    import io
    import threading

    calls = []
    run = cli.run_scenario
    monkeypatch.setattr(cli, "run_scenario", lambda cfg: calls.append(
        (threading.get_ident(), cfg.scenario_id)) or run(cfg))
    paths = _write_cfgs(tmp_path, FAST_CALORIC, FAST_NULL)
    assert cli.check_suite(paths, str(tmp_path / "out"), stream=io.StringIO()) == 0
    assert calls == [(threading.get_ident(), "tiny_caloric"),
                     (threading.get_ident(), "tiny_null")]


def test_suite_config_error_names_file(tmp_path, capsys):
    """A config error in a suite names the file, the line and the key, and
    no scenario runs."""
    bad = FAST_NULL.replace("scenario.id = tiny_null", "scenario.id = bad") \
        + "grid.h = 0\n"
    paths = _write_cfgs(tmp_path, FAST_CALORIC, bad)
    out = tmp_path / "out"
    assert cli.main(["suite", "--glob", str(tmp_path / "s*.cfg"),
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    line = len(bad.splitlines())
    assert f"[{paths[1]}, line {line}, key 'grid.h']" in captured.err
    assert captured.out == "" and not out.exists()


def test_suite_refuses_a_repeated_scenario_id(tmp_path, capsys):
    """Two configs with one scenario.id would write one report directory, the
    second report over the first: the suite exits 2 naming both files, and
    no scenario runs."""
    paths = _write_cfgs(tmp_path, FAST_NULL, FAST_CALORIC, FAST_NULL)
    out = tmp_path / "out"
    assert cli.main(["suite", "--glob", str(tmp_path / "s*.cfg"),
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"[{paths[2]}, key 'scenario.id']" in captured.err
    assert f"also the id of {paths[0]}" in captured.err
    assert captured.out == "" and not out.exists()


def test_main_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense.key = 1\n")
    assert cli.main(["run", "--config", str(bad), "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()
    assert cli.main(["suite", "--glob", str(tmp_path / "missing*.cfg"),
                     "--out", str(tmp_path / "o")]) == 2
    capsys.readouterr()
    good = tmp_path / "good.cfg"
    good.write_text(FAST_NULL)
    assert cli.main(["run", "--config", str(good), "--out", str(tmp_path / "o")]) == 0
    # settings come from the config only: no override flags, no worker count
    for argv in (["run", "--config", str(good), "--tol-scale", "nan"],
                 ["run", "--config", str(good), "--kernel", "gauss"],
                 ["run", "--config", str(good), "--workers", "2"],
                 ["suite", "--glob", str(good), "--tol-scale", "1"],
                 ["suite", "--glob", str(good), "--kernel", "gauss"],
                 ["suite", "--glob", str(good), "--workers", "2"]):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2


def test_non_utf8_config_exits_2_naming_file_and_line(tmp_path, capsys):
    """A config byte that is not UTF-8 is a config error naming the file and
    the line of the first such byte, not a UnicodeDecodeError; in a suite,
    no scenario runs."""
    bad = tmp_path / "s1.cfg"
    bad.write_bytes(b"scenario.id = x\n\xff\xfe bad = 1\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(bad), "--out", str(out)]) == 2
    assert f"[{bad}, line 2]" in capsys.readouterr().err
    _write_cfgs(tmp_path, FAST_NULL)
    assert cli.main(["suite", "--glob", str(tmp_path / "s*.cfg"),
                     "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert f"[{bad}, line 2]" in captured.err
    assert captured.out == "" and not out.exists()


def test_bom_config_parses_like_one_without(tmp_path):
    """A UTF-8 byte-order mark before the first key is dropped, not read as
    part of the key."""
    text = FAST_CALORIC.lstrip("\n").encode("utf-8")
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_bytes(text)
    bom.write_bytes(b"\xef\xbb\xbf" + text)
    a, b = parse_config(plain), parse_config(bom)
    assert (dataclasses.replace(a, chart=None, grid=None)
            == dataclasses.replace(b, chart=None, grid=None))
    assert vars(a.chart) == vars(b.chart)
    assert repr(a.grid) == repr(b.grid)


def test_bom_config_errors_name_their_line(tmp_path):
    """After a byte-order mark an unknown key and a byte that is not UTF-8
    are both reported on their own line, 2."""
    cfg = tmp_path / "bom.cfg"
    for body, key in ((b"mystery.key = 1\n", "mystery.key"),
                      (b"\xff\xfe bad = 1\n", None)):
        cfg.write_bytes(b"\xef\xbb\xbfscenario.id = x\n" + body)
        with pytest.raises(ConfigError) as err:
            parse_config(cfg)
        assert (err.value.line, err.value.key) == (2, key)
        assert f"[{cfg}, line 2" in str(err.value)


def test_main_unwritable_output(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x")
    good = tmp_path / "good.cfg"
    good.write_text(FAST_NULL)
    code = cli.main(["run", "--config", str(good),
                     "--out", str(blocker / "sub")])
    assert code == 2


def test_env_default_output(tmp_path, monkeypatch):
    monkeypatch.setenv("MONOLAB_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    good = tmp_path / "good.cfg"
    good.write_text(FAST_NULL)
    assert cli.main(["run", "--config", str(good)]) == 0
    assert (tmp_path / "envout" / "tiny_null" / "report.json").exists()


def test_repeated_suite_gives_the_same_bytes(tmp_path):
    paths = _write_cfgs(tmp_path, FAST_NULL, FAST_CALORIC)
    import io

    cli.check_suite(paths, str(tmp_path / "run1"), stream=io.StringIO())
    cli.check_suite(paths, str(tmp_path / "run2"), stream=io.StringIO())
    for sid in ("tiny_null", "tiny_caloric"):
        a = tmp_path / "run1" / sid / "ladder.csv"
        b = tmp_path / "run2" / sid / "ladder.csv"
        assert a.read_bytes() == b.read_bytes()


def test_python_m_monolab_run(tmp_path):
    good = tmp_path / "good.cfg"
    good.write_text(FAST_NULL.replace("checks = phi_curve, ladder, prop1, prop2, thm1",
                                      "checks = ladder"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(monolab.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "monolab", "run", "--config", str(good),
         "--out", str(tmp_path / "o")],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert "[tiny_null:ladder]" in proc.stdout
    assert (tmp_path / "o" / "tiny_null" / "ladder.csv").exists()


def test_validity_gate(monkeypatch):
    """The runner is the one admissibility gate: for an overlapping pair it
    records admissibility as failed and every requested check as failed and
    not run, and integrates nothing."""
    from monolab import quadrature

    calls = []
    monkeypatch.setattr(quadrature, "slice_integral",
                        lambda *args, **kwargs: calls.append(args))
    checks = ("phi_curve", "ladder", "thm1", "positivity")
    doc = cli.run_scenario(parse_config_text(
        FAST_OVERLAP + f"checks = {', '.join(checks)}\n"))
    assert doc.record("admissibility").passed is False
    assert not doc.record("admissibility").values["validity"].passed
    assert [rec.name for rec in doc.records[1:]] == list(checks)
    for rec in doc.records[1:]:
        assert rec.passed is False
        assert rec.values == {"note": "pair failed admissibility; check not run"}
    assert calls == []


def test_each_phase_sampled_once_per_scenario(monkeypatch):
    """Both admissibility certificates read one sampling of both phases."""
    from monolab.solutions import checks

    calls = []
    sample = checks.sample_pair
    counted = lambda pair, grid: calls.append(pair) or sample(pair, grid)
    monkeypatch.setattr(checks, "sample_pair", counted)
    monkeypatch.setattr(cli, "sample_pair", counted)
    doc = cli.run_scenario(parse_config_text(FAST_NULL + "checks = ladder\n"))
    assert doc.record("admissibility").passed
    assert len(calls) == 1


@pytest.mark.parametrize("preset", [None, "3"])
def test_import_leaves_scipy_out_and_pins_blas_threads(preset):
    """``import monolab.cli`` loads no scipy module, and sets
    OPENBLAS_NUM_THREADS to 1 only when the user has not set it."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(monolab.__file__)))
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    probe = ("import json, os, sys; import monolab.cli; "
             "print(json.dumps([sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
             " os.environ.get('OPENBLAS_NUM_THREADS')]))")
    proc = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    scipy_modules, threads = json.loads(proc.stdout)
    assert scipy_modules == []
    assert threads == (preset or "1")


def test_shipped_scenarios_present_and_parse():
    paths = cli.shipped_scenario_paths()
    assert len(paths) == 6
    ids = []
    for p in paths:
        cfg = parse_config(p)
        ids.append(cfg.scenario_id)
    assert "drift_plane" in ids
    assert sum("numeric_pair" in s for s in ids) == 2



# Values no shipped key should take; each either parses or is a ConfigError.
HOSTILE = ("nan", "inf", "-1", "0", "1e308", "", "abc", "3.5", "1e-320", "2",
           "99999999", "-0", "1,2", "0.3, nan")


def _mutate(text, key, value):
    """``text`` with the line setting ``key`` set to ``value``."""
    return "".join(f"{key} = {value}\n" if _line_key(line) == key else line
                   for line in text.splitlines(keepends=True))


def _line_key(line):
    key, eq, _ = line.split("#", 1)[0].partition("=")
    return key.strip() if eq else None


def _set_keys(text):
    return {_line_key(line) for line in text.splitlines()} - {None}


def _escape(text, run=False):
    """None if ``text`` parses (and, with ``run``, runs to a report without a
    warning) or raises a ConfigError naming a key the text sets and a line;
    else what escaped."""
    try:
        cfg = parse_config_text(text)
        if run:
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                cli.run_scenario(cfg)
    except ConfigError as exc:
        if exc.key in _set_keys(text) and exc.line is not None:
            return None
        return f"ConfigError key {exc.key!r} line {exc.line}"
    except Exception as exc:  # noqa: BLE001  (what the sweep looks for)
        return repr(exc)
    return None


# (scenario, key, value) mutations that are also run: each runs to a report
# or is a ConfigError at parse time
RUNTIME_ROWS = [
    ("numeric_pair_a", "grid.h", "0.999"),   # no interior node on a half-cube
    ("caloric_euclid", "pair.alpha", "1e308"),   # margins overflow: a FAIL report
]


def test_hostile_values_parse_or_name_their_key():
    """Every key of the six shipped configs, set in turn to each hostile
    value, parses or raises a ConfigError that names a key the text sets and
    its line: never another exception.  The runtime rows also run."""
    texts = {}
    for path in cli.shipped_scenario_paths():
        with open(path, encoding="utf-8") as fh:
            texts[os.path.splitext(os.path.basename(path))[0]] = fh.read()
    rows = [(scenario, key, value, False) for scenario, text in texts.items()
            for key in sorted(_set_keys(text)) for value in HOSTILE]
    assert len(rows) == 1512
    escapes = []
    for scenario, key, value, run in rows + [r + (True,) for r in RUNTIME_ROWS]:
        what = _escape(_mutate(texts[scenario], key, value), run)
        if what is not None:
            escapes.append((scenario, key, value, what))
    assert not escapes, escapes[:10]
