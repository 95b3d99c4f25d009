"""The run layer's config schema: every key's type, every range, the
cross-key rules, the order they are checked in, and the shipped hashes."""

import math
from pathlib import Path

import pytest
import yaml

from scjarz.cli import main
from scjarz.config import _DEFAULTS, _RANGES, load_config, parse_config

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _leaves(tree, path=""):
    for key, value in tree.items():
        here = f"{path}.{key}" if path else key
        if isinstance(value, dict):
            yield from _leaves(value, here)
        else:
            yield here, value


def _document(edits: dict) -> dict:
    """A config setting each dotted key of ``edits``, schema_version 1
    unless an edit sets it."""
    doc = {"schema_version": 1}
    for path, value in edits.items():
        *parents, key = path.split(".")
        node = doc
        for name in parents:
            node = node.setdefault(name, {})
        node[key] = value
    return doc


def _config_error(tmp_path, capsys, edits: dict) -> str:
    """The one stderr line of ``scjarz gibbs`` on the edited config, which
    must exit 2 and make no output directory."""
    path = tmp_path / "bad.yaml"
    path.write_text(yaml.safe_dump(_document(edits)))
    out = tmp_path / "out"
    assert main(["gibbs", "--config", str(path), "--out", str(out)]) == 2
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.count("\n") == 1, err
    return err[len("config error: "):-1]


# values not of each default type's kind: an integer refuses booleans,
# fractions and strings, a float booleans and non-finite values, a boolean
# anything but a YAML boolean, a pair anything but two finite reals; a
# string key's converter takes any value, so a non-string fails its range
WRONG_TYPED = {
    bool: ["false", 1, None],
    int: [64.9, True, "x", "64", " 96 ", [8]],
    float: [True, "x", math.nan, math.inf, None],
    str: [3, [1]],
    list: ["x", [1.0], [1.0, 2.0, 3.0], [1.0, True], [math.nan, 0.0]],
}


@pytest.mark.parametrize("path,default", list(_leaves(_DEFAULTS)),
                         ids=[path for path, _ in _leaves(_DEFAULTS)])
def test_every_key_refuses_a_value_not_of_its_defaults_type(
        path, default, tmp_path, capsys):
    for value in WRONG_TYPED[type(default)]:
        message = _config_error(tmp_path, capsys, {path: value})
        assert message.startswith(f"{path}: "), (value, message)


# each single-key range, with the message it exits with
RANGE_ERRORS = [
    ({"schema_version": 2}, "schema_version: 2 must be 1"),
    ({"model.kind": "cubic"},
     "model.kind: 'cubic' must be one of ('harmonic', 'quartic')"),
    ({"model.mass": 0.0}, "model.mass: 0.0 must be positive"),
    ({"model.quartic_lambda": -0.1},
     "model.quartic_lambda: -0.1 must be >= 0"),
    ({"model.protocol.shape": "step"},
     "model.protocol.shape: 'step' must be one of "
     "('constant', 'linear', 'smoothstep')"),
    ({"model.protocol.omega_initial": -1.0},
     "model.protocol.omega_initial: -1.0 must be positive"),
    ({"model.protocol.omega_final": 0},
     "model.protocol.omega_final: 0.0 must be positive"),
    ({"physics.beta": -2.0}, "physics.beta: -2.0 must be positive"),
    ({"physics.hbar": 0.0}, "physics.hbar: 0.0 must be positive"),
    ({"numerics.fock_n_max": 1},
     "numerics.fock_n_max: 1 must be in [2, 4096]"),
    ({"numerics.fock_n_max": 4097},
     "numerics.fock_n_max: 4097 must be in [2, 4096]"),
    ({"numerics.wigner_n_q": 6},
     "numerics.wigner_n_q: 6 must be an even integer >= 8"),
    ({"numerics.wigner_n_q": 9},
     "numerics.wigner_n_q: 9 must be an even integer >= 8"),
    ({"numerics.wigner_q_max": -1.0},
     "numerics.wigner_q_max: -1.0 must be positive"),
    ({"run.residual_threshold": 0.0},
     "run.residual_threshold: 0.0 must be positive"),
    ({"run.grid.n_p": 0}, "run.grid.n_p: 0 must be >= 1 (empty grid)"),
    ({"run.grid.n_q": -3}, "run.grid.n_q: -3 must be >= 1 (empty grid)"),
]
CROSS_KEY_ERRORS = [
    ({"model.quartic_lambda": 0.1},
     "model.quartic_lambda: must be 0 for harmonic kind"),
    ({"model.protocol.t_initial": 1.0, "model.protocol.t_final": 0.5},
     "model.protocol.t_final: 0.5 must be >= t_initial"),
]


def test_every_range_has_a_case():
    assert {path for edits, _ in RANGE_ERRORS
            for path in edits} == set(_RANGES)


@pytest.mark.parametrize("edits,message", RANGE_ERRORS + CROSS_KEY_ERRORS,
                         ids=lambda case: "+".join(
                             f"{k}={v}" for k, v in case.items())
                         if isinstance(case, dict) else "")
def test_every_range_and_cross_key_rule_exits_2(edits, message, tmp_path,
                                                capsys):
    assert _config_error(tmp_path, capsys, edits) == message


@pytest.mark.parametrize("edits,message", [
    # every type before any range, in _DEFAULTS order
    ({"model.kind": "cubic", "physics.beta": "x"},
     "physics.beta: cannot interpret 'x'"),
    ({"run.grid.n_p": 0, "model.mass": True},
     "model.mass: cannot interpret True"),
    # the ranges in _DEFAULTS order
    ({"numerics.fock_n_max": 1, "physics.beta": -1.0},
     "physics.beta: -1.0 must be positive"),
    # every range before the cross-key rules
    ({"model.quartic_lambda": 0.1, "run.grid.n_p": 0},
     "run.grid.n_p: 0 must be >= 1 (empty grid)"),
    ({"model.protocol.t_final": -1.0, "physics.beta": -1.0},
     "physics.beta: -1.0 must be positive"),
    # the cross-key rules before each object's own checks
    ({"model.protocol.t_final": -1.0, "numerics.n_time_steps": 7},
     "model.protocol.t_final: -1.0 must be >= t_initial"),
    ({"model.protocol.shape": "constant", "numerics.n_time_steps": 7},
     "model: constant protocol requires omega_i == omega_f"),
    ({"numerics.n_time_steps": 7, "numerics.domain.n_p": 1},
     "numerics: n_time_steps must be a positive even integer"),
    ({"numerics.domain.n_p": 1}, "numerics.domain: node counts must be >= 2"),
])
def test_the_first_failing_check_is_reported(edits, message, tmp_path,
                                             capsys):
    assert _config_error(tmp_path, capsys, edits) == message


def test_a_float_key_still_reads_yaml_s_dotless_exponent():
    # PyYAML loads a plain 1e-8 (no dot) as the string '1e-8', so a float
    # key must still convert a string; an integral float is an integer
    text = ("schema_version: 1\n"
            "numerics: {tolerance: 1e-8, n_sigma_steps: 32.0}\n"
            "physics: {beta: 2, hbar: 5e-1}\n")
    loaded = yaml.safe_load(text)
    assert loaded["numerics"]["tolerance"] == "1e-8"
    assert loaded["physics"]["hbar"] == "5e-1"
    cfg = parse_config(text)
    assert type(cfg.settings.tolerance) is float
    assert cfg.settings.tolerance == 1e-8
    assert cfg.hbar == 0.5
    assert type(cfg.settings.n_sigma_steps) is int
    assert cfg.settings.n_sigma_steps == 32
    assert type(cfg.beta) is float and cfg.beta == 2.0


def _static_quartic() -> str:
    """configs/quartic_ramp.yaml with the 81x81 scan over [-3, 3]^2."""
    data = yaml.safe_load((CONFIGS / "quartic_ramp.yaml").read_text())
    data["run"]["grid"] = {"p_min": -3.0, "p_max": 3.0, "n_p": 81,
                           "q_min": -3.0, "q_max": 3.0, "n_q": 81}
    return yaml.safe_dump(data, sort_keys=True)


def test_shipped_config_hashes_are_pinned():
    # every artifact names its inputs by this hash; a schema or default
    # change that moves it orphans the archived runs
    assert load_config(CONFIGS / "harmonic_ramp.yaml").config_hash() == (
        "7919a3a69734e642535d2c81f0cd09f2d92fba3bc0e574a2db364a3707e90ab9")
    assert load_config(CONFIGS / "quartic_ramp.yaml").config_hash() == (
        "b65ccf2cbbc85da1cdb75cb0e041efd34f56d2424eb0b5146a05af42e85bfcc2")
    assert parse_config(_static_quartic()).config_hash() == (
        "b057acbc8fb3e2b74117d07bd31fea18d68463bec24531280f5766f1c402c770")
