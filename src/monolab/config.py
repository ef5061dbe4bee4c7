"""Flat-key scenario configuration (`section.key = value` text files).

The format is deliberately diff-friendly: one key per line, `#` comments,
case-sensitive keys, commas for lists.  Unknown keys and malformed values are
reported with their line number.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

from .errors import ConfigError
from .solutions.families import family_params

__all__ = ["ScenarioConfig", "parse_config", "parse_config_text", "ALL_CHECKS"]

ALL_CHECKS = (
    "phi_curve", "ladder", "prop1", "prop2", "thm1", "thm2", "e322",
    "poincare", "bkp", "bkp_perturbed", "pushforward", "scale_derivative",
    "positivity",
)

_MANIFOLDS = ("euclidean", "const_curvature", "perturbed")
_PAIRS = ("Null", "TwoPlaneCaloric", "PowerWedge", "DriftTwoPlane", "NumericPair")
_KERNELS = ("gauss", "parametrix0")
_SHAPES = ("const", "radial", "wave")


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
    quad_r_tail: float = 8.0
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
    out_dir: str = ""
    tol_scale: float = 1.0


def _parse_bool(raw):
    low = raw.strip().lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_float_list(raw):
    return tuple(float(tok) for tok in raw.split(",") if tok.strip())


def _parse_str_list(raw):
    return tuple(tok.strip() for tok in raw.split(",") if tok.strip())


# key -> (attribute, converter); pair.* keys are collected into pair_params
_KEYS = {
    "scenario.id": ("scenario_id", str),
    "manifold.family": ("manifold_family", str),
    "manifold.n": ("n", int),
    "manifold.delta_p": ("delta_p", float),
    "manifold.K": ("curvature", float),
    "manifold.epsilon": ("epsilon", float),
    "manifold.shape": ("shape", str),
    "pair.family": ("pair_family", str),
    "kernel.kind": ("kernel_kind", str),
    "grid.h": ("grid_h", float),
    "grid.q": ("grid_q", float),
    "grid.dt0": ("grid_dt0", float),
    "quad.r_tail": ("quad_r_tail", float),
    "quad.nodes": ("quad_nodes", int),
    "quad.slices_per_scale": ("quad_slices_per_scale", int),
    "quad.time_blocks": ("quad_time_blocks", int),
    "ladder.k_min": ("k_min", int),
    "ladder.k_max": ("k_max", int),
    "ladder.C0": ("c0", float),
    "ladder.C1": ("c1", float),
    "checks": ("checks", _parse_str_list),
    "thm1.guard": ("thm1_guard", float),
    "thm2.eps": ("thm2_eps", float),
    "sd.r": ("sd_r", float),
    "positivity.r": ("positivity_r", float),
    "bkp.rs": ("bkp_rs", _parse_float_list),
    "output.dir": ("out_dir", str),
    "tol.scale": ("tol_scale", float),
}

_PAIR_PARAM_TYPES = {
    "alpha": float, "beta": float, "c": float, "seed": int,
    "source_depth": float, "n_bumps": int, "overlap": _parse_bool,
}


def parse_config_text(text, name="<config>"):
    cfg = ScenarioConfig()
    pair_params = {}
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
            try:
                setattr(cfg, attr, conv(raw_val))
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value {raw_val!r}: {exc}", line=lineno, key=key)
        elif key.startswith("pair."):
            sub = key[len("pair."):]
            if sub not in _PAIR_PARAM_TYPES:
                raise ConfigError("unknown pair parameter", line=lineno, key=key)
            try:
                pair_params[sub] = _PAIR_PARAM_TYPES[sub](raw_val)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"bad value {raw_val!r}: {exc}", line=lineno, key=key)
        else:
            raise ConfigError("unknown key", line=lineno, key=key)
    cfg.pair_params = pair_params
    _validate(cfg, name)
    return cfg


def parse_config(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    cfg = parse_config_text(text, name=str(path))
    return cfg


def _validate(cfg, name):
    if cfg.manifold_family not in _MANIFOLDS:
        raise ConfigError(f"unknown manifold family {cfg.manifold_family!r} "
                          f"(known: {_MANIFOLDS})", key="manifold.family")
    if cfg.pair_family not in _PAIRS:
        raise ConfigError(f"unknown pair family {cfg.pair_family!r} "
                          f"(known: {_PAIRS})", key="pair.family")
    if cfg.kernel_kind not in _KERNELS:
        raise ConfigError(f"unknown kernel kind {cfg.kernel_kind!r}", key="kernel.kind")
    if not 0 < cfg.delta_p <= 1.0:
        raise ConfigError("delta_p must lie in (0, 1]", key="manifold.delta_p")
    if not 1 <= cfg.n <= 3:
        # the annulus rule of the quadrature has polar rules for n <= 3 only
        raise ConfigError("manifold.n must lie in 1..3", key="manifold.n")
    if cfg.k_max < cfg.k_min:
        raise ConfigError("k range is empty", key="ladder.k_max")
    if 4.0 ** (-cfg.k_min) > cfg.delta_p / 2.0:
        raise ConfigError("4^{-k_min} must not exceed delta_p/2", key="ladder.k_min")
    if not cfg.checks:
        raise ConfigError("no checks requested", key="checks")
    unknown = [c for c in cfg.checks if c not in ALL_CHECKS]
    if unknown:
        raise ConfigError(f"unknown checks {unknown} (known: {list(ALL_CHECKS)})",
                          key="checks")
    if not 0.0 < cfg.thm2_eps <= 1.0:
        raise ConfigError("thm2.eps must lie in (0, 1]", key="thm2.eps")
    if cfg.tol_scale <= 0:
        raise ConfigError("tol.scale must be positive", key="tol.scale")
    # values the quadrature, grid and chart constructors would reject later
    if cfg.quad_nodes != 0 and cfg.quad_nodes < 8:
        raise ConfigError("quad.nodes must be >= 8 (0 picks the default)",
                          key="quad.nodes")
    for key, count in (("quad.slices_per_scale", cfg.quad_slices_per_scale),
                       ("quad.time_blocks", cfg.quad_time_blocks)):
        if count < 1:
            raise ConfigError(f"{key} must be >= 1", key=key)
    if cfg.quad_r_tail < 4.0:
        raise ConfigError("quad.r_tail must be >= 4", key="quad.r_tail")
    if not 0.0 < cfg.grid_q < 1.0:
        raise ConfigError("grid.q must lie in (0, 1)", key="grid.q")
    if not cfg.grid_h > 0.0 or round(cfg.delta_p / cfg.grid_h) < 1:
        raise ConfigError("grid.h must be positive with round(delta_p / h) >= 1",
                          key="grid.h")
    if not cfg.grid_dt0 > 0.0:
        raise ConfigError("grid.dt0 must be positive", key="grid.dt0")
    if cfg.shape not in _SHAPES:
        raise ConfigError(f"unknown perturbation shape {cfg.shape!r} "
                          f"(known: {_SHAPES})", key="manifold.shape")
    if cfg.manifold_family == "const_curvature":
        K = cfg.curvature
        if K > 0 and cfg.delta_p >= math.pi / math.sqrt(K):
            raise ConfigError("delta_p must stay below the conjugate radius "
                              "pi/sqrt(K)", key="manifold.K")
        # the curvature series in geometry holds for |K| rho^2 <= 40
        if abs(K) * cfg.delta_p ** 2 > 40.0:
            raise ConfigError("|K| delta_p^2 must not exceed 40", key="manifold.K")
    family_params(cfg.pair_family, cfg.pair_params)
    if cfg.manifold_family == "perturbed" and not 0.0 <= cfg.epsilon <= 0.1:
        raise ConfigError("manifold.epsilon must lie in [0, 0.1]",
                          key="manifold.epsilon")
