"""Flat-key scenario configuration (`section.key = value` text files).

The format is deliberately diff-friendly: UTF-8, one key per line, `#`
comments, case-sensitive keys, commas for lists.  Unknown keys, undecodable
bytes and malformed values are reported with their line number.  Parsing
builds the scenario's chart, solver grid and quadrature rule through their
own constructors, which hold the limits on their keys; an error names its
file, its key, and the line that sets it.  A pair parameter or a manifold key
that the chosen family does not read is an error too.  A default ladder
range or scale is checked only where a requested check reads it (its row of
``battery.CHECKS`` names the key), and its refusal names the default and
the key to set.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import geometry, kernels, quadrature
from .battery import CHECKS
from .errors import ConfigError
from .solutions.families import family_params, param_types
from .solutions.grids import SpaceTimeGrid

__all__ = ["ScenarioConfig", "parse_config", "parse_config_text"]


@dataclass(frozen=True)
class ScenarioConfig:
    """A parsed scenario: the chart, grid and rule built from the manifold.*,
    grid.* and quad.* keys, and the other settings the runner reads."""
    scenario_id: str
    pair_family: str
    pair_params: dict
    kernel_kind: str
    k_min: int
    k_max: int
    c0: float
    c1: float
    checks: tuple
    thm1_guard: float
    thm2_eps: float
    sd_r: float
    positivity_r: float
    bkp_rs: tuple
    chart: geometry.NormalChart
    grid: SpaceTimeGrid
    quad: quadrature.QuadratureConfig


def _parse_float(raw):
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("not a finite number")
    return value


def _parse_bool(raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float_list(raw):
    return tuple(_parse_float(tok) for tok in raw.split(",") if tok.strip())


def _parse_str_list(raw):
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


# The smallest scale sd.r, positivity.r, bkp.rs and 4^-k_max accept.  The
# checks integrate over (-r^2, 0) on a time mesh that starts at -r^2, so r^2 must
# be a positive normal float; 1e-6 keeps it at 1e-12 or above, far from
# underflow, and far below any scale the default rules resolve.
_MIN_SCALE = 1e-6

# key -> (the ScenarioConfig attribute it sets, or None for a key that only
# builds the chart, the grid or the rule; its converter; its default).
# pair.* keys are collected into pair_params.
_KEYS = {
    "scenario.id": ("scenario_id", str, "scenario"),
    "manifold.family": (None, str, "euclidean"),
    "manifold.n": (None, int, 2),
    "manifold.delta_p": (None, _parse_float, 1.0),
    "manifold.K": (None, _parse_float, 1.0),
    "manifold.epsilon": (None, _parse_float, 0.05),
    "manifold.shape": (None, str, "wave"),
    "pair.family": ("pair_family", str, "TwoPlaneCaloric"),
    "kernel.kind": ("kernel_kind", str, "gauss"),
    "grid.h": (None, _parse_float, 0.1),
    "grid.q": (None, _parse_float, 0.85),
    "grid.dt0": (None, _parse_float, 0.2),
    "quad.nodes": (None, int, 0),           # 0: pick the per-dimension default
    "quad.slices_per_scale": (None, int, 40),
    "quad.time_blocks": (None, int, 16),
    "ladder.k_min": ("k_min", int, 2),
    "ladder.k_max": ("k_max", int, 5),
    "ladder.C0": ("c0", _parse_float, 10.0),
    "ladder.C1": ("c1", _parse_float, 1.0),
    "checks": ("checks", _parse_str_list, ("ladder",)),
    "thm1.guard": ("thm1_guard", _parse_float, 100.0),
    "thm2.eps": ("thm2_eps", _parse_float, 1.0),
    "sd.r": ("sd_r", _parse_float, 0.0625),
    "positivity.r": ("positivity_r", _parse_float, 0.0625),
    "bkp.rs": ("bkp_rs", _parse_float_list, (0.2, 0.1, 0.05, 0.025)),
}

# pair parameter type (families.param_types) -> its text converter
_PAIR_PARSERS = {float: _parse_float, int: int, bool: _parse_bool}

# manifold.family -> (the manifold keys it reads beyond manifold.n and
# manifold.delta_p, its chart constructor, which takes n, those keys' values
# in that order and delta_p)
_CHARTS = {
    "euclidean": ((), geometry.euclidean_chart),
    "const_curvature": (("manifold.K",), geometry.constant_curvature_chart),
    "perturbed": (("manifold.epsilon", "manifold.shape"), geometry.perturbed_chart),
}
_CHART_KEYS = {key for reads, _ in _CHARTS.values() for key in reads}


def _convert(conv, raw, line=None, key=None):
    try:
        return conv(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad value {raw!r}: {exc}", line=line, key=key)


def parse_config_text(text, name=None):
    """The scenario config in ``text``; an error names ``name`` (the file the
    text came from), the line and the key."""
    values = {key: default for key, (_, _, default) in _KEYS.items()}
    lines, pair_text = {}, {}
    try:
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError("expected 'key = value'", line=lineno)
            key, _, raw_val = line.partition("=")
            key = key.strip()
            raw_val = raw_val.strip()
            if key in _KEYS:
                values[key] = _convert(_KEYS[key][1], raw_val, line=lineno, key=key)
            elif key.startswith("pair."):
                pair_text[key[len("pair."):]] = raw_val
            else:
                raise ConfigError("unknown key", line=lineno, key=key)
            lines[key] = lineno
        family = values["pair.family"]
        types = param_types(family)
        pair_params = {}
        for sub, raw_val in pair_text.items():
            if sub not in types:
                raise ConfigError(f"pair family {family} reads no "
                                  f"parameter {sub!r}", key=f"pair.{sub}")
            pair_params[sub] = _convert(_PAIR_PARSERS[types[sub]], raw_val,
                                        key=f"pair.{sub}")
        return _build(values, pair_params, set_keys=lines)
    except ConfigError as exc:
        line = exc.line if exc.line is not None else lines.get(exc.key)
        raise ConfigError(exc.message, line=line, key=exc.key, source=name) from None


def parse_config(path):
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    try:
        text = data.decode("utf-8-sig")     # a leading byte-order mark is dropped
    except UnicodeDecodeError as exc:
        # the offsets count from exc.object, the bytes after any byte-order mark
        body = exc.object
        line = len((body[:exc.start] + b".").decode("utf-8").splitlines())
        raise ConfigError(f"not UTF-8: byte 0x{body[exc.start]:02x} does not decode",
                          line=line, source=str(path)) from None
    return parse_config_text(text, name=str(path))


def _build(values, pair_params, set_keys):
    """The ScenarioConfig of the parsed key ``values``: check the limits no
    constructor holds and build the chart, the grid and the quadrature rule,
    whose constructors hold the rest.  ``set_keys`` are the keys the text
    sets."""
    sid = values["scenario.id"]
    if sid in ("", ".", "..") or any(c in sid for c in "/\\\0"):
        raise ConfigError(f"scenario.id {sid!r} must be a plain directory name",
                          key="scenario.id")
    if not values["manifold.n"] <= 3:
        # the annulus rule of the quadrature has polar rules for n <= 3 only
        raise ConfigError("manifold.n must lie in 1..3", key="manifold.n")
    family = values["manifold.family"]
    if family not in _CHARTS:
        raise ConfigError(f"unknown manifold family {family!r} "
                          f"(known: {', '.join(_CHARTS)})", key="manifold.family")
    reads, build_chart = _CHARTS[family]
    unread = sorted(_CHART_KEYS.difference(reads).intersection(set_keys),
                    key=set_keys.get)
    if unread:
        raise ConfigError(f"manifold family {family} reads no {unread[0]}",
                          key=unread[0])
    chart = build_chart(values["manifold.n"], *(values[key] for key in reads),
                        values["manifold.delta_p"])
    grid = SpaceTimeGrid.geometric(chart.dim, chart.radius, values["grid.h"],
                                   ratio=values["grid.q"], dt0=values["grid.dt0"])
    quad = quadrature.default_config(
        chart.dim, nodes=values["quad.nodes"],
        slices_per_scale=values["quad.slices_per_scale"],
        time_blocks=values["quad.time_blocks"])
    if values["kernel.kind"] not in kernels.KINDS:
        raise ConfigError(f"unknown kernel kind {values['kernel.kind']!r} "
                          f"(known: {', '.join(kernels.KINDS)})", key="kernel.kind")
    family_params(values["pair.family"], pair_params, grid)
    checks = values["checks"]
    if not checks:
        raise ConfigError("no checks requested", key="checks")
    unknown = [c for c in checks if c not in CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks {unknown} (known: {list(CHECKS)})",
                          key="checks")
    if len(set(checks)) < len(checks):
        raise ConfigError(f"checks repeats a name: {list(checks)}", key="checks")

    def limit(key, ok, message):
        """Refuse ``key`` unless ``ok``, if the text sets it or a requested
        check reads it (``battery.CHECKS``); a refused default is named, with
        the key to set."""
        if ok or key not in set_keys and not any(key in CHECKS[c][0] for c in checks):
            return
        if key not in set_keys:
            shown = values[key] if key == "bkp.rs" else (values[key],)
            message += (f" (the default {key} = "
                        f"{', '.join(f'{v:g}' for v in shown)}; set {key})")
        raise ConfigError(message, key=key)

    limit("thm2.eps", 0.0 < values["thm2.eps"] <= 1.0, "thm2.eps must lie in (0, 1]")
    limit("thm1.guard", values["thm1.guard"] > 0.0, "thm1.guard must be positive")
    limit("bkp.rs", len(set(values["bkp.rs"])) >= 2,
          "bkp.rs must list at least two distinct scales to fit a slope through")
    k_min, k_max = values["ladder.k_min"], values["ladder.k_max"]
    # the ladder's end scales 4^-k, k clamped to [-500, 600]: beyond it the
    # power overflows or the integer does not convert, and 4^-k lies far
    # outside both limits either way
    r_min, r_max = (4.0 ** -min(max(k, -500), 600) for k in (k_max, k_min))
    limit("ladder.k_max", k_min <= k_max, "k range is empty")
    limit("ladder.k_max", r_min >= _MIN_SCALE, f"4^-k_max must be >= {_MIN_SCALE:g}")
    limit("ladder.k_min", r_max <= chart.radius / 2.0,
          "4^{-k_min} must not exceed delta_p/2")
    for key in ("sd.r", "positivity.r", "bkp.rs"):
        scales = values[key] if key == "bkp.rs" else (values[key],)
        limit(key, all(_MIN_SCALE <= r <= chart.radius / 4.0 for r in scales),
              f"{key} must lie in [{_MIN_SCALE:g}, delta_p/4]")
    return ScenarioConfig(
        **{attr: values[key] for key, (attr, _, _) in _KEYS.items() if attr},
        pair_params=pair_params, chart=chart, grid=grid, quad=quad)
