"""Run configuration: structured YAML with validation and a stable hash.

Runs are archived artifacts; every report embeds the SHA-256 of the
canonical (sorted-key JSON) form of the parsed configuration so outputs can
be traced back to exact inputs.  The config holds the model, the physics,
the numerics and the run's thresholds, grid and work target; the output
directory and the prefactor and Monte Carlo options come from the command
line alone, and the artifacts record the prefactor and Monte Carlo options
they used.

A key's type is its default's in ``_DEFAULTS``.  Types are checked first,
in ``_DEFAULTS`` order, then the single-key ranges in ``_RANGES``, then the
cross-key rules and each object's own checks; the first failure is the
error reported.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from functools import reduce
from pathlib import Path

import numpy as np
import yaml

from .dynamics import IntegratorSettings
from .errors import ConfigError
from .jarzynski import QuadratureDomain
from .models import (MODEL_KINDS, PROTOCOL_SHAPES, FrequencyProtocol,
                     HamiltonianModel)

SCHEMA_VERSION = 1

_DEFAULTS: dict = {
    "schema_version": SCHEMA_VERSION,
    "model": {
        "kind": "harmonic",
        "mass": 1.0,
        "quartic_lambda": 0.0,
        "protocol": {
            "shape": "linear",
            "omega_initial": 1.0,
            "omega_final": 2.0,
            "t_initial": 0.0,
            "t_final": 1.0,
        },
    },
    "physics": {"beta": 1.0, "hbar": 1.0},
    "numerics": {
        "n_sigma_steps": 64,
        "n_time_steps": 64,
        "richardson_check": False,
        "tolerance": 1e-8,
        "domain": {
            "p_max": 10.5,
            "q_max": 10.5,
            "n_p": 64,
            "n_q": 64,
            "boundary_weight_tol": 1e-10,
        },
        "fock_n_max": 128,
        "wigner_n_q": 512,
        "wigner_q_max": 10.0,
    },
    "run": {
        "residual_threshold": 1e-3,
        "grid": {
            "p_min": -2.0, "p_max": 2.0, "n_p": 21,
            "q_min": -2.0, "q_max": 2.0, "n_q": 21,
        },
        "work_target": [0.0, 1.0],
    },
}


def _merge(base: dict, override: dict, path: str) -> dict:
    out = dict(base)
    for key, val in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            raise ConfigError(f"unknown configuration key: {here}")
        if isinstance(base[key], dict):
            if not isinstance(val, dict):
                raise ConfigError(f"{here}: expected a mapping")
            out[key] = _merge(base[key], val, here)
        else:
            out[key] = val
    return out


def _integer(value) -> int:
    """int() that refuses booleans, strings ("64" is quoted, not an
    integer) and non-integral floats (no truncation); 64.0 reads as 64."""
    if isinstance(value, (bool, str)) or (isinstance(value, float)
                                          and not value.is_integer()):
        raise TypeError(value)
    return int(value)


def _real(value) -> float:
    """float() that refuses booleans, NaN and +-inf.  It reads an integer
    and a string: PyYAML loads a plain 1e-8 (no dot) as the string
    '1e-8'."""
    if isinstance(value, bool):
        raise TypeError(value)
    value = float(value)
    if not math.isfinite(value):
        raise ValueError(value)
    return value


def _boolean(value) -> bool:
    """Only a YAML boolean: bool('false') is True."""
    if not isinstance(value, bool):
        raise TypeError(value)
    return value


def _pair(value) -> tuple:
    """A [p, q] pair of finite reals."""
    if not isinstance(value, (list, tuple)) or len(value) != 2:
        raise TypeError(value)
    return _real(value[0]), _real(value[1])


# a key's converter is picked by the type of its default
_CONVERTERS = {bool: _boolean, int: _integer, float: _real, str: str,
               list: _pair}

_POSITIVE = (lambda v: v > 0, "must be positive")
_NONEMPTY = (lambda v: v >= 1, "must be >= 1 (empty grid)")

# every single-key range, in _DEFAULTS order: (predicate, wording)
_RANGES = {
    "schema_version": (lambda v: v == SCHEMA_VERSION,
                       f"must be {SCHEMA_VERSION}"),
    "model.kind": (lambda v: v in MODEL_KINDS,
                   f"must be one of {MODEL_KINDS}"),
    "model.mass": _POSITIVE,
    "model.quartic_lambda": (lambda v: v >= 0, "must be >= 0"),
    "model.protocol.shape": (lambda v: v in PROTOCOL_SHAPES,
                             f"must be one of {PROTOCOL_SHAPES}"),
    "model.protocol.omega_initial": _POSITIVE,
    "model.protocol.omega_final": _POSITIVE,
    "physics.beta": _POSITIVE,
    "physics.hbar": _POSITIVE,
    "numerics.fock_n_max": (lambda v: 2 <= v <= 4096,
                            "must be in [2, 4096]"),
    "numerics.wigner_n_q": (lambda v: v >= 8 and v % 2 == 0,
                            "must be an even integer >= 8"),
    "numerics.wigner_q_max": _POSITIVE,
    "run.residual_threshold": _POSITIVE,
    "run.grid.n_p": _NONEMPTY,
    "run.grid.n_q": _NONEMPTY,
}


def _typed(default, value, path: str):
    """``value`` converted to its default's type, mapping by mapping, in
    ``_DEFAULTS`` order; a value that does not convert names its path."""
    if isinstance(default, dict):
        return {key: _typed(sub, value[key], f"{path}.{key}" if path else key)
                for key, sub in default.items()}
    try:
        return _CONVERTERS[type(default)](value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: cannot interpret {value!r}") from None


@dataclass(frozen=True)
class GridSpec:
    """Rectangular scan grid for the gibbs command (q outer, p inner)."""

    p_min: float
    p_max: float
    n_p: int
    q_min: float
    q_max: float
    n_q: int

    def points(self):
        q = np.linspace(self.q_min, self.q_max, self.n_q)
        p = np.linspace(self.p_min, self.p_max, self.n_p)
        Q = np.repeat(q, self.n_p)
        P = np.tile(p, self.n_q)
        return P, Q


@dataclass(frozen=True)
class RunConfig:
    """Validated configuration for one CLI run: what the config file sets.

    ``--out``, ``--prefactor``, ``--mc``, ``--samples`` and ``--seed`` are
    flags only, so the hash names no option the run did not use.
    """

    raw: dict = field(repr=False)
    model: HamiltonianModel
    beta: float
    hbar: float
    settings: IntegratorSettings
    domain: QuadratureDomain
    fock_n_max: int
    wigner_n_q: int
    wigner_q_max: float
    residual_threshold: float
    grid: GridSpec
    work_target: tuple[float, float]

    @property
    def hbar_beta(self) -> float:
        return self.beta * self.hbar

    def config_hash(self) -> str:
        return config_hash(self.raw)


def config_hash(normalized: dict) -> str:
    canon = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _build(raw: dict, values: dict) -> RunConfig:
    """The run's objects from the typed ``values``: the two cross-key
    rules, then each object's own checks, reported under its group."""
    m, pr = values["model"], values["model"]["protocol"]
    if m["kind"] == "harmonic" and m["quartic_lambda"] != 0.0:
        raise ConfigError("model.quartic_lambda: must be 0 for harmonic kind")
    if pr["t_final"] < pr["t_initial"]:
        raise ConfigError(f"model.protocol.t_final: {pr['t_final']!r} "
                          "must be >= t_initial")
    try:
        protocol = FrequencyProtocol(pr["t_initial"], pr["t_final"],
                                     pr["omega_initial"], pr["omega_final"],
                                     pr["shape"])
        model = HamiltonianModel(m["kind"], m["mass"], protocol,
                                 m["quartic_lambda"])
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None
    nm = values["numerics"]
    try:
        settings = IntegratorSettings(
            nm["n_sigma_steps"], nm["n_time_steps"], nm["richardson_check"],
            nm["tolerance"])
    except ValueError as exc:
        raise ConfigError(f"numerics: {exc}") from None
    try:
        domain = QuadratureDomain(**nm["domain"])
    except ValueError as exc:
        raise ConfigError(f"numerics.domain: {exc}") from None
    rn = values["run"]
    return RunConfig(
        raw=raw,
        model=model,
        beta=values["physics"]["beta"],
        hbar=values["physics"]["hbar"],
        settings=settings,
        domain=domain,
        fock_n_max=nm["fock_n_max"],
        wigner_n_q=nm["wigner_n_q"],
        wigner_q_max=nm["wigner_q_max"],
        residual_threshold=rn["residual_threshold"],
        grid=GridSpec(**rn["grid"]),
        work_target=rn["work_target"],
    )


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a YAML configuration file."""
    text = Path(path).read_text()
    return parse_config(text)


def parse_config(text: str) -> RunConfig:
    try:
        data = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"invalid YAML: {exc}") from None
    if data is None:
        data = {}
    if not isinstance(data, dict):
        raise ConfigError("top level must be a mapping")
    if "schema_version" not in data:
        raise ConfigError("schema_version: required field is missing")
    merged = _merge(_DEFAULTS, data, "")
    values = _typed(_DEFAULTS, merged, "")
    for path, (ok, what) in _RANGES.items():
        value = reduce(dict.__getitem__, path.split("."), values)
        if not ok(value):
            raise ConfigError(f"{path}: {value!r} {what}")
    return _build(merged, values)

