"""Flat-key scenario configuration (`section.key = value` text files).

The format is deliberately diff-friendly: UTF-8, one key per line, `#`
comments, case-sensitive keys, commas for lists.  Unknown keys, undecodable
bytes and malformed values are reported with their line number.  Parsing
builds the scenario's chart, solver grid and quadrature rule through their
own constructors, which hold the limits on their keys; an error names its
file, its key, and the line that sets it.  A pair parameter or a manifold key
that the chosen family does not read is an error too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import geometry, kernels, quadrature
from .errors import ConfigError
from .solutions.families import family_params, param_types
from .solutions.grids import SpaceTimeGrid

__all__ = ["ScenarioConfig", "parse_config", "parse_config_text", "ALL_CHECKS"]

ALL_CHECKS = (
    "phi_curve", "ladder", "prop1", "prop2", "thm1", "thm2", "e322",
    "poincare", "bkp", "bkp_perturbed", "pushforward", "scale_derivative",
    "positivity",
)


@dataclass
class ScenarioConfig:
    scenario_id: str = "scenario"
    manifold_family: str = "euclidean"
    n: int = 2
    delta_p: float = 1.0
    curvature: float = 1.0
    epsilon: float = 0.05
    shape: str = "wave"
    pair_family: str = "TwoPlaneCaloric"
    pair_params: dict = field(default_factory=dict)
    kernel_kind: str = "gauss"
    grid_h: float = 0.1
    grid_q: float = 0.85
    grid_dt0: float = 0.2
    quad_nodes: int = 0              # 0: pick the per-dimension default
    quad_slices_per_scale: int = 40
    quad_time_blocks: int = 16
    k_min: int = 2
    k_max: int = 5
    c0: float = 10.0
    c1: float = 1.0
    checks: tuple = ("ladder",)
    thm1_guard: float = 100.0
    thm2_eps: float = 1.0
    sd_r: float = 0.0625
    positivity_r: float = 0.0625
    bkp_rs: tuple = (0.2, 0.1, 0.05, 0.025)
    # built from the keys above by parse_config_text
    chart: geometry.NormalChart | None = None
    grid: SpaceTimeGrid | None = None
    quad: quadrature.QuadratureConfig | None = None


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

# key -> (attribute, converter); pair.* keys are collected into pair_params
_KEYS = {
    "scenario.id": ("scenario_id", str),
    "manifold.family": ("manifold_family", str),
    "manifold.n": ("n", int),
    "manifold.delta_p": ("delta_p", _parse_float),
    "manifold.K": ("curvature", _parse_float),
    "manifold.epsilon": ("epsilon", _parse_float),
    "manifold.shape": ("shape", str),
    "pair.family": ("pair_family", str),
    "kernel.kind": ("kernel_kind", str),
    "grid.h": ("grid_h", _parse_float),
    "grid.q": ("grid_q", _parse_float),
    "grid.dt0": ("grid_dt0", _parse_float),
    "quad.nodes": ("quad_nodes", int),
    "quad.slices_per_scale": ("quad_slices_per_scale", int),
    "quad.time_blocks": ("quad_time_blocks", int),
    "ladder.k_min": ("k_min", int),
    "ladder.k_max": ("k_max", int),
    "ladder.C0": ("c0", _parse_float),
    "ladder.C1": ("c1", _parse_float),
    "checks": ("checks", _parse_str_list),
    "thm1.guard": ("thm1_guard", _parse_float),
    "thm2.eps": ("thm2_eps", _parse_float),
    "sd.r": ("sd_r", _parse_float),
    "positivity.r": ("positivity_r", _parse_float),
    "bkp.rs": ("bkp_rs", _parse_float_list),
}

# pair parameter type (families.param_types) -> its text converter
_PAIR_PARSERS = {float: _parse_float, int: int, bool: _parse_bool}

# manifold.family -> (the manifold keys it reads beyond manifold.n and
# manifold.delta_p, its chart through the family's constructor)
_CHARTS = {
    "euclidean": ((), lambda cfg: geometry.euclidean_chart(cfg.n, cfg.delta_p)),
    "const_curvature": (("manifold.K",), lambda cfg: geometry.constant_curvature_chart(
        cfg.n, cfg.curvature, cfg.delta_p)),
    "perturbed": (("manifold.epsilon", "manifold.shape"),
                  lambda cfg: geometry.perturbed_chart(
                      cfg.n, cfg.epsilon, cfg.shape, cfg.delta_p)),
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
    cfg = ScenarioConfig()
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
                attr, conv = _KEYS[key]
                setattr(cfg, attr, _convert(conv, raw_val, line=lineno, key=key))
            elif key.startswith("pair."):
                pair_text[key[len("pair."):]] = raw_val
            else:
                raise ConfigError("unknown key", line=lineno, key=key)
            lines[key] = lineno
        types = param_types(cfg.pair_family)
        for sub, raw_val in pair_text.items():
            if sub not in types:
                raise ConfigError(f"pair family {cfg.pair_family} reads no "
                                  f"parameter {sub!r}", key=f"pair.{sub}")
            cfg.pair_params[sub] = _convert(_PAIR_PARSERS[types[sub]], raw_val,
                                            key=f"pair.{sub}")
        _validate(cfg, set_keys=lines)
    except ConfigError as exc:
        line = exc.line if exc.line is not None else lines.get(exc.key)
        raise ConfigError(exc.message, line=line, key=exc.key, source=name) from None
    return cfg


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


def _validate(cfg, set_keys):
    """Check the limits no constructor holds and build the chart, the grid
    and the quadrature rule, whose constructors hold the rest.  ``set_keys``
    are the keys the text sets."""
    if cfg.scenario_id in ("", ".", "..") or any(c in cfg.scenario_id for c in "/\\\0"):
        raise ConfigError(f"scenario.id {cfg.scenario_id!r} must be a plain directory "
                          "name", key="scenario.id")
    if not cfg.n <= 3:
        # the annulus rule of the quadrature has polar rules for n <= 3 only
        raise ConfigError("manifold.n must lie in 1..3", key="manifold.n")
    if cfg.manifold_family not in _CHARTS:
        raise ConfigError(f"unknown manifold family {cfg.manifold_family!r} "
                          f"(known: {', '.join(_CHARTS)})", key="manifold.family")
    reads, build_chart = _CHARTS[cfg.manifold_family]
    unread = sorted(_CHART_KEYS.difference(reads).intersection(set_keys),
                    key=set_keys.get)
    if unread:
        raise ConfigError(f"manifold family {cfg.manifold_family} reads no "
                          f"{unread[0]}", key=unread[0])
    cfg.chart = build_chart(cfg)
    cfg.grid = SpaceTimeGrid.geometric(cfg.n, cfg.delta_p, cfg.grid_h,
                                       ratio=cfg.grid_q, dt0=cfg.grid_dt0)
    cfg.quad = quadrature.default_config(
        cfg.n, nodes=cfg.quad_nodes, slices_per_scale=cfg.quad_slices_per_scale,
        time_blocks=cfg.quad_time_blocks)
    if cfg.kernel_kind not in kernels.KINDS:
        raise ConfigError(f"unknown kernel kind {cfg.kernel_kind!r} "
                          f"(known: {', '.join(kernels.KINDS)})", key="kernel.kind")
    family_params(cfg.pair_family, cfg.pair_params, cfg.grid)
    if cfg.k_max < cfg.k_min:
        raise ConfigError("k range is empty", key="ladder.k_max")
    if 4.0 ** (-cfg.k_max) < _MIN_SCALE:
        raise ConfigError(f"4^-k_max must be >= {_MIN_SCALE:g}", key="ladder.k_max")
    if 4.0 ** (-cfg.k_min) > cfg.delta_p / 2.0:
        raise ConfigError("4^{-k_min} must not exceed delta_p/2", key="ladder.k_min")
    if not cfg.checks:
        raise ConfigError("no checks requested", key="checks")
    unknown = [c for c in cfg.checks if c not in ALL_CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks {unknown} (known: {list(ALL_CHECKS)})",
                          key="checks")
    if len(set(cfg.checks)) < len(cfg.checks):
        raise ConfigError(f"checks repeats a name: {list(cfg.checks)}", key="checks")
    if not 0.0 < cfg.thm2_eps <= 1.0:
        raise ConfigError("thm2.eps must lie in (0, 1]", key="thm2.eps")
    if not cfg.thm1_guard > 0.0:
        raise ConfigError("thm1.guard must be positive", key="thm1.guard")
    if len(set(cfg.bkp_rs)) < 2:
        raise ConfigError("bkp.rs must list at least two distinct scales to fit "
                          "a slope through", key="bkp.rs")
    for key, value in ([("sd.r", cfg.sd_r), ("positivity.r", cfg.positivity_r)]
                       + [("bkp.rs", r) for r in cfg.bkp_rs]):
        if not _MIN_SCALE <= value <= cfg.delta_p / 4.0:
            raise ConfigError(f"{key} must lie in [{_MIN_SCALE:g}, delta_p/4]",
                              key=key)
