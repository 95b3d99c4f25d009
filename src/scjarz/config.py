"""Run configuration: structured YAML with validation and a stable hash.

Runs are archived artifacts; every report embeds the SHA-256 of the
canonical (sorted-key JSON) form of the parsed configuration so outputs can
be traced back to exact inputs.  The config holds the model, the physics,
the numerics and the run's thresholds, grid and work target; the output
directory and the prefactor and Monte Carlo options come from the command
line alone, and the artifacts record the prefactor and Monte Carlo options
they used.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
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
    """int() that refuses booleans and non-integral floats (no truncation)."""
    if isinstance(value, bool) or (isinstance(value, float)
                                   and not value.is_integer()):
        raise TypeError(value)
    return int(value)


def _real(value) -> float:
    """float() that refuses booleans, NaN and +-inf."""
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


def _require(conv, value, path, predicate=None, what=""):
    try:
        value = conv(value)
    except (TypeError, ValueError):
        raise ConfigError(f"{path}: cannot interpret {value!r}") from None
    if predicate is not None and not predicate(value):
        raise ConfigError(f"{path}: {value!r} {what}")
    return value


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

    def to_yaml(self) -> str:
        return yaml.safe_dump(self.raw, sort_keys=True)


def config_hash(normalized: dict) -> str:
    canon = json.dumps(normalized, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()


def _build(data: dict) -> RunConfig:
    version = _require(_integer, data["schema_version"], "schema_version",
                       lambda v: v == SCHEMA_VERSION,
                       f"must be {SCHEMA_VERSION}")
    m = data["model"]
    kind = _require(str, m["kind"], "model.kind",
                    lambda v: v in MODEL_KINDS, f"must be one of {MODEL_KINDS}")
    mass = _require(_real, m["mass"], "model.mass", lambda v: v > 0,
                    "must be positive")
    lam = _require(_real, m["quartic_lambda"], "model.quartic_lambda",
                   lambda v: v >= 0, "must be >= 0")
    if kind == "harmonic" and lam != 0.0:
        raise ConfigError("model.quartic_lambda: must be 0 for harmonic kind")
    pr = m["protocol"]
    shape = _require(str, pr["shape"], "model.protocol.shape",
                     lambda v: v in PROTOCOL_SHAPES,
                     f"must be one of {PROTOCOL_SHAPES}")
    w_i = _require(_real, pr["omega_initial"], "model.protocol.omega_initial",
                   lambda v: v > 0, "must be positive")
    w_f = _require(_real, pr["omega_final"], "model.protocol.omega_final",
                   lambda v: v > 0, "must be positive")
    t_i = _require(_real, pr["t_initial"], "model.protocol.t_initial")
    t_f = _require(_real, pr["t_final"], "model.protocol.t_final",
                   lambda v: v >= t_i, "must be >= t_initial")
    try:
        protocol = FrequencyProtocol(t_i, t_f, w_i, w_f, shape)
        model = HamiltonianModel(kind, mass, protocol, lam)
    except ValueError as exc:
        raise ConfigError(f"model: {exc}") from None

    ph = data["physics"]
    beta = _require(_real, ph["beta"], "physics.beta", lambda v: v > 0,
                    "must be positive")
    hbar = _require(_real, ph["hbar"], "physics.hbar", lambda v: v > 0,
                    "must be positive")

    nm = data["numerics"]
    try:
        settings = IntegratorSettings(
            n_sigma_steps=_require(_integer, nm["n_sigma_steps"],
                                   "numerics.n_sigma_steps"),
            n_time_steps=_require(_integer, nm["n_time_steps"],
                                  "numerics.n_time_steps"),
            richardson_check=_require(_boolean, nm["richardson_check"],
                                      "numerics.richardson_check"),
            tolerance=_require(_real, nm["tolerance"], "numerics.tolerance"),
        )
    except ValueError as exc:
        raise ConfigError(f"numerics: {exc}") from None
    dom = nm["domain"]
    try:
        domain = QuadratureDomain(
            p_max=_require(_real, dom["p_max"], "numerics.domain.p_max"),
            q_max=_require(_real, dom["q_max"], "numerics.domain.q_max"),
            n_p=_require(_integer, dom["n_p"], "numerics.domain.n_p"),
            n_q=_require(_integer, dom["n_q"], "numerics.domain.n_q"),
            boundary_weight_tol=_require(_real, dom["boundary_weight_tol"],
                                         "numerics.domain.boundary_weight_tol"),
        )
    except ValueError as exc:
        raise ConfigError(f"numerics.domain: {exc}") from None
    fock_n_max = _require(_integer, nm["fock_n_max"], "numerics.fock_n_max",
                          lambda v: 2 <= v <= 4096, "must be in [2, 4096]")
    wigner_n_q = _require(_integer, nm["wigner_n_q"], "numerics.wigner_n_q",
                          lambda v: v >= 8 and v % 2 == 0,
                          "must be an even integer >= 8")
    wigner_q_max = _require(_real, nm["wigner_q_max"],
                            "numerics.wigner_q_max", lambda v: v > 0,
                            "must be positive")

    rn = data["run"]
    gr = rn["grid"]
    grid = GridSpec(
        p_min=_require(_real, gr["p_min"], "run.grid.p_min"),
        p_max=_require(_real, gr["p_max"], "run.grid.p_max"),
        n_p=_require(_integer, gr["n_p"], "run.grid.n_p", lambda v: v >= 1,
                     "must be >= 1 (empty grid)"),
        q_min=_require(_real, gr["q_min"], "run.grid.q_min"),
        q_max=_require(_real, gr["q_max"], "run.grid.q_max"),
        n_q=_require(_integer, gr["n_q"], "run.grid.n_q", lambda v: v >= 1,
                     "must be >= 1 (empty grid)"),
    )
    target = rn["work_target"]
    if (not isinstance(target, (list, tuple)) or len(target) != 2):
        raise ConfigError("run.work_target: expected [p, q]")
    work_target = (_require(_real, target[0], "run.work_target[0]"),
                   _require(_real, target[1], "run.work_target[1]"))

    return RunConfig(
        raw=data,
        model=model,
        beta=beta,
        hbar=hbar,
        settings=settings,
        domain=domain,
        fock_n_max=fock_n_max,
        wigner_n_q=wigner_n_q,
        wigner_q_max=wigner_q_max,
        residual_threshold=_require(_real, rn["residual_threshold"],
                                    "run.residual_threshold",
                                    lambda v: v > 0, "must be positive"),
        grid=grid,
        work_target=work_target,
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
    return _build(merged)

