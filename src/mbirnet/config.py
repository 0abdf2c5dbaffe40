"""Strict structured-text configuration.

Configs are YAML with an explicit schema version.  Unknown keys are errors,
not warnings: silent config drift is the main reproducibility hazard, so every
key must be declared below and written once in its mapping.
"""

from __future__ import annotations

import re
from typing import Any

import yaml

from .imaging import CtGeometry, binomial_kernel, build_blur, build_radon
from .linops import FeasibleSet
from .solver import MomentumNetConfig
from .training import RefinerArch, TrainConfig

SCHEMA_VERSION = 1


class ConfigError(ValueError):
    """Malformed, unknown, or out-of-range configuration content."""


_REQUIRED = object()

_PROBLEM_KEYS = {
    "kind": (str, _REQUIRED),
    "n": (int, _REQUIRED),
    "n_views": (int, 23),
    "n_detectors": (int, None),
    "pitch": (float, None),
    "incident": (float, 1e5),
    "sigma2": (float, 25.0),
    "noiseless": (bool, False),
    "kernel_mix": (float, 0.3),
    "noise_sigma": (float, 0.0),
}

_SOLVER_KEYS = {
    "kind": (str, "momentum"),
    "n_iter": (int, 30),
    "rho": (float, MomentumNetConfig.rho),
    "delta": (float, MomentumNetConfig.delta),
    "lam": (float, MomentumNetConfig.lam),
    "chi": (float, None),
    "gamma": (float, None),
    "inner_iters": (int, 10),
    "feasible": (str, "nonneg"),
    "box_lo": (float, 0.0),
    "box_hi": (float, 1.0),
}

# a training manifest sets chi or gamma at its top level only, and trains no
# BCD inner loop
_MANIFEST_SOLVER_KEYS = {k: v for k, v in _SOLVER_KEYS.items()
                         if k not in ("chi", "gamma", "inner_iters")}

_ARCH_KEYS = {
    "type": (str, "scnn"),
    "n_filters": (int, 25),
    "filter_size": (int, 25),
    "n_layers": (int, RefinerArch.n_layers),
    "residual": (bool, RefinerArch.residual),
}

_TRAIN_KEYS = {
    "arch": (_ARCH_KEYS, None),
    "epochs": (int, 50),
    "batch_size": (int, 10),
    "lr_filters": (float, TrainConfig.lr_filters),
    "lr_thresholds": (float, TrainConfig.lr_thresholds),
    "lr_decay": (float, TrainConfig.lr_decay),
    "n_iter": (int, 10),
}

_SAMPLE_KEYS = {
    "truth": (str, _REQUIRED),
    "measurements": (str, _REQUIRED),
    "weights": (str, _REQUIRED),
    "operator": (str, _REQUIRED),
}

_CONFIG_KEYS = {
    "schema": (int, _REQUIRED),
    "seed": (int, 0),
    "problem": (_PROBLEM_KEYS, _REQUIRED),
    "solver": (_SOLVER_KEYS, {}),
}

_MANIFEST_KEYS = {
    "schema": (int, _REQUIRED),
    "seed": (int, 0),
    "chi": (float, None),
    "gamma": (float, None),
    "solver": (_MANIFEST_SOLVER_KEYS, {}),
    "train": (_TRAIN_KEYS, {}),
    "samples": (list, _REQUIRED),
}


# a decimal float literal with an exponent, which PyYAML reads as a string
# unless its mantissa has a dot (3e-4, 1E5, .5e1)
_EXPONENT_FLOAT = re.compile(r"[+-]?(\d+\.?\d*|\.\d+)[eE][+-]?\d+")


def _coerce(value, expected, where: str):
    if expected is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{where}: expected a boolean, got {value!r}")
        return value
    if expected is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{where}: expected an integer, got {value!r}")
        return value
    if expected is float:
        if isinstance(value, str) and _EXPONENT_FLOAT.fullmatch(value):
            return float(value)
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{where}: expected a number, got {value!r}")
        return float(value)
    if expected is str:
        if not isinstance(value, str):
            raise ConfigError(f"{where}: expected a string, got {value!r}")
        return value
    if expected is list:
        if not isinstance(value, list):
            raise ConfigError(f"{where}: expected a list, got {value!r}")
        return value
    raise AssertionError(f"unhandled schema type {expected}")


def _validate(data: Any, keys: dict, where: str) -> dict:
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unknown = set(data) - set(keys)
    if unknown:
        raise ConfigError(f"{where}: unknown key(s) {sorted(unknown, key=str)}")
    out = {}
    for key, (expected, default) in keys.items():
        if key in data and data[key] is not None:
            value = data[key]
            if isinstance(expected, dict):
                out[key] = _validate(value, expected, f"{where}.{key}")
            else:
                out[key] = _coerce(value, expected, f"{where}.{key}")
        else:
            if default is _REQUIRED:
                raise ConfigError(f"{where}: missing required key {key!r}")
            if isinstance(expected, dict):
                out[key] = _validate(default or {}, expected, f"{where}.{key}")
            else:
                out[key] = default
    return out


class _StrictLoader(yaml.SafeLoader):
    """The safe loader, rejecting a key written twice in one mapping."""

    def construct_mapping(self, node, deep=False):
        seen = []  # a list, since a key need not be hashable
        for key_node, _ in node.value:
            if key_node.tag != "tag:yaml.org,2002:merge":  # a `<<` merge may be overridden
                key = self.construct_object(key_node, deep=True)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        None, None, f"found key {key!r} written twice", key_node.start_mark)
                seen.append(key)
        return super().construct_mapping(node, deep)


def _read(path, keys: dict) -> dict:
    """YAML file validated against `keys`, at the supported schema version."""
    try:
        with open(path) as fh:
            data = yaml.load(fh, Loader=_StrictLoader)
    except yaml.YAMLError as exc:  # its message spans lines; the CLI prints one
        raise ConfigError(f"{path}: invalid YAML ({' '.join(str(exc).split())})") from exc
    cfg = _validate(data, keys, str(path))
    if cfg["schema"] != SCHEMA_VERSION:
        raise ConfigError(f"{path}: unsupported schema version {cfg['schema']}")
    return cfg


def load_config(path) -> dict:
    """Load and validate a problem/solver config file."""
    cfg = _read(path, _CONFIG_KEYS)
    if cfg["problem"]["kind"] not in ("ct", "blur"):
        raise ConfigError(f"{path}: problem.kind must be 'ct' or 'blur'")
    return cfg


def load_training_manifest(path) -> dict:
    """Load and validate a training-set manifest; sample paths stay relative.
    Its top-level chi or gamma moves into the solver block, as a problem
    config holds it."""
    cfg = _read(path, _MANIFEST_KEYS)
    if cfg["solver"]["kind"] not in TRAINED_KINDS:
        raise ConfigError(f"{path}: solver.kind must be {' or '.join(TRAINED_KINDS)} in a "
                          f"training manifest, got {cfg['solver']['kind']!r}")
    if (cfg["chi"] is None) == (cfg["gamma"] is None):
        raise ConfigError(f"{path}: training manifest must set exactly one of chi or gamma")
    cfg["solver"].update(chi=cfg["chi"], gamma=cfg["gamma"])
    cfg["samples"] = [_validate(s, _SAMPLE_KEYS, f"{path}.samples[{i}]")
                      for i, s in enumerate(cfg["samples"])]
    if not cfg["samples"]:
        raise ConfigError(f"{path}: manifest lists no samples")
    return cfg


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_feasible(solver: dict) -> FeasibleSet:
    kind, lo, hi = solver["feasible"], solver["box_lo"], solver["box_hi"]
    if kind == "all":
        return FeasibleSet.all()
    if kind == "nonneg":
        return FeasibleSet.nonneg()
    if kind == "box" and lo <= hi:  # a NaN bound fails this
        return FeasibleSet.box(lo, hi)
    if kind == "box":
        raise ConfigError(f"solver.box_lo = {lo} must be <= solver.box_hi = {hi}")
    raise ConfigError(f"solver.feasible must be all|nonneg|box, got {kind!r}")


SOLVER_KINDS = ("momentum", "momentum-noextrap", "bcd")
# the kinds whose trajectory `train` follows (`greedy_train` takes momentum steps)
TRAINED_KINDS = ("momentum", "momentum-noextrap")


def build_solver_config(solver: dict) -> MomentumNetConfig:
    kind = solver["kind"]
    if kind not in SOLVER_KINDS:
        raise ConfigError(f"unknown solver {kind!r}; valid choices: {', '.join(SOLVER_KINDS)}")
    chi, gamma = solver["chi"], solver["gamma"]
    if chi is None and gamma is None:
        chi = 30.0
    return MomentumNetConfig(n_iter=solver["n_iter"], rho=solver["rho"], gamma=gamma, chi=chi,
                             delta=solver["delta"], lam=solver["lam"],
                             extrapolate=(kind != "momentum-noextrap"))


def build_arch(train: dict) -> RefinerArch:
    arch = train["arch"]
    return RefinerArch(arch["type"], arch["n_filters"], arch["filter_size"],
                       arch["n_layers"], arch["residual"])


def build_train_config(train: dict, seed: int) -> TrainConfig:
    return TrainConfig(batch_size=train["batch_size"], epochs=train["epochs"],
                       lr_filters=train["lr_filters"],
                       lr_thresholds=train["lr_thresholds"],
                       lr_decay=train["lr_decay"], seed=seed)


def build_operator(problem: dict):
    """Forward operator described by the problem block."""
    n = problem["n"]
    if problem["kind"] == "ct":
        return build_radon(CtGeometry(n, problem["n_views"], problem["n_detectors"],
                                      problem["pitch"]))
    kernel = binomial_kernel(problem["kernel_mix"])
    return build_blur(kernel, (n, n))
