import inspect
import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml

import scjarz.cli
import scjarz.dynamics
import scjarz.oracle
from scjarz.cli import build_parser, main
from scjarz.config import config_hash, load_config, parse_config
from scjarz.jarzynski import verify_identity
from scjarz.pseudowork import _WORK_NODES

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
QUARTIC_RAMP = ROOT / "configs" / "quartic_ramp.yaml"
HARMONIC_RAMP = ROOT / "configs" / "harmonic_ramp.yaml"

BASE_CONFIG = """
schema_version: 1
model:
  kind: harmonic
  protocol: {shape: linear, omega_initial: 1.0, omega_final: 2.0,
             t_initial: 0.0, t_final: 1.0}
physics: {beta: 1.0, hbar: 1.0}
numerics:
  n_sigma_steps: 64
  n_time_steps: 32
  domain: {p_max: 10.5, q_max: 10.5, n_p: 24, n_q: 24}
  wigner_n_q: 256
run:
  grid: {p_min: -1.0, p_max: 1.0, n_p: 5, q_min: -1.0, q_max: 1.0, n_q: 5}
  residual_threshold: 1.0e-3
"""


def _refuse_constant(name):
    raise ValueError(f"{name} is not RFC 8259 JSON")


@pytest.fixture(autouse=True)
def strict_json_artifacts(tmp_path):
    """Every ``*.json`` a test writes must parse as strict JSON: no NaN,
    Infinity or -Infinity token."""
    yield
    for path in tmp_path.rglob("*.json"):
        json.loads(path.read_text(), parse_constant=_refuse_constant)


@pytest.fixture()
def config_path(tmp_path):
    path = tmp_path / "run.yaml"
    path.write_text(BASE_CONFIG)
    return path


def read_csv(path):
    lines = path.read_text().strip().splitlines()
    assert lines[0].startswith("# config_sha256=")
    header = lines[1].split(",")
    rows = [line.split(",") for line in lines[2:]]
    return lines[0], header, rows


def test_config_parsing_and_hash_round_trip(config_path):
    cfg = load_config(config_path)
    assert cfg.model.kind == "harmonic"
    assert cfg.settings.n_sigma_steps == 64
    h1 = cfg.config_hash()
    # re-parse the canonical dump; the hash must be stable
    cfg2 = parse_config(yaml.safe_dump(cfg.raw, sort_keys=True))
    assert cfg2.config_hash() == h1
    assert config_hash(cfg.raw) == h1


@pytest.mark.parametrize("snippet,field", [
    ("run:\n  grid: {n_p: 0}", "run.grid.n_p"),
    ("model:\n  kind: cubic", "model.kind"),
    ("numerics:\n  n_time_steps: 7", "numerics"),
    ("physics: {beta: -2.0}", "physics.beta"),
    ("model:\n  unknown_knob: 3", "model.unknown_knob"),
    # a value that is not of its key's type is refused, not coerced
    ("numerics: {n_sigma_steps: 64.9}", "numerics.n_sigma_steps"),
    ("run:\n  grid: {n_p: true}", "run.grid.n_p"),
    ("physics: {beta: true}", "physics.beta"),
    ("numerics: {richardson_check: 'false'}", "numerics.richardson_check"),
    # a float key refuses NaN and +-inf
    ("physics: {beta: .inf}", "physics.beta"),
    ("run:\n  grid: {p_min: .nan}", "run.grid.p_min"),
    ("numerics:\n  domain: {p_max: .inf}", "numerics.domain.p_max"),
    ("model:\n  protocol: {t_final: .inf}", "model.protocol.t_final"),
    # the subcommand and the run options come from argv alone; the config
    # has no key for them, even with a well-typed value
    ("run: {command: work}", "run.command"),
    ("run: {prefactor: true}", "run.prefactor"),
    ("run: {monte_carlo: true}", "run.monte_carlo"),
    ("run: {mc_samples: 10}", "run.mc_samples"),
    ("run: {seed: 3}", "run.seed"),
    ("run: {output_dir: out}", "run.output_dir"),
    # Gauss-Legendre is the one phase-space rule, so it has no key
    ("numerics: {domain: {rule: gauss-legendre}}", "numerics.domain.rule"),
    # the Newton tolerance and the continuation ladder are the solver's
    # own constants (stationary._NEWTON_TOL, _CONTINUATION_STAGES)
    ("numerics: {newton_tol: 1.0e-11}", "numerics.newton_tol"),
    ("numerics: {continuation_stages: 4}", "numerics.continuation_stages"),
])
def test_config_validation_errors_carry_field_paths(tmp_path, snippet, field,
                                                    capsys):
    path = tmp_path / "bad.yaml"
    path.write_text("schema_version: 1\n" + snippet + "\n")
    rc = main(["gibbs", "--config", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("under", [False, True])
def test_out_that_names_a_file_is_a_usage_error(config_path, tmp_path, capsys,
                                                under):
    # --out naming an existing file, or a path under one, cannot be made a
    # directory: exit 2 with one line naming the path, and nothing written
    blocker = tmp_path / "taken"
    blocker.write_text("keep\n")
    out = blocker / "run" if under else blocker
    before = sorted(p.name for p in tmp_path.iterdir())
    assert main(["oracle", "--config", str(config_path),
                 "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and str(out) in err
    assert "Traceback" not in err
    assert blocker.read_text() == "keep\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_parser_defaults_match_verify_identity():
    # the flags are the run options' one source; --samples and --seed
    # default to verify_identity's own defaults
    args = build_parser().parse_args(["jarzynski", "--config", "c.yaml"])
    assert args.out == "."
    params = inspect.signature(verify_identity).parameters
    assert args.samples == params["mc_samples"].default == 2000
    assert args.seed == params["seed"].default == 0
    assert args.prefactor is False and args.mc is False


def test_gibbs_without_out_writes_to_working_directory(config_path, tmp_path,
                                                       monkeypatch):
    run_dir = tmp_path / "cwd"
    run_dir.mkdir()
    monkeypatch.chdir(run_dir)
    assert main(["gibbs", "--config", str(config_path)]) == 0
    assert sorted(p.name for p in run_dir.iterdir()) == ["gibbs.csv"]


def test_missing_schema_version_rejected(tmp_path):
    path = tmp_path / "bad.yaml"
    path.write_text("model: {kind: harmonic}\n")
    assert main(["gibbs", "--config", str(path),
                 "--out", str(tmp_path)]) == 2


def test_a_yaml_syntax_error_is_a_config_error(tmp_path, capsys):
    # the parser's own error (here an unclosed flow mapping) is reported
    # as a config error, before any output directory is made
    path = tmp_path / "bad.yaml"
    path.write_text("schema_version: 1\nmodel: {kind: harmonic\n")
    out = tmp_path / "out"
    assert main(["gibbs", "--config", str(path), "--out", str(out)]) == 2
    assert "invalid YAML" in capsys.readouterr().err
    assert not out.exists()


def test_missing_config_file(tmp_path):
    assert main(["gibbs", "--config", str(tmp_path / "nope.yaml"),
                 "--out", str(tmp_path)]) == 2


def test_gibbs_csv_matches_closed_form(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["gibbs", "--config", str(config_path),
                 "--out", str(out)]) == 0
    hash_line, header, rows = read_csv(out / "gibbs.csv")
    assert header == ["q", "p", "G", "G_from_total_action", "z_c_p", "z_c_q",
                      "jacobian_det", "area_A", "status"]
    assert len(rows) == 25
    c = 2.0 * np.tanh(0.5)  # G = 2 tanh(1/2) H at unit scales
    for row in rows:
        q, p, g = float(row[0]), float(row[1]), float(row[2])
        assert row[-1] == "ok"
        assert g == pytest.approx(c * 0.5 * (p * p + q * q), abs=1e-9)
    # q is the outer loop
    assert float(rows[0][0]) == -1.0 and float(rows[4][0]) == -1.0
    assert float(rows[5][0]) == -0.5


def test_gibbs_prefactor_column(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["gibbs", "--config", str(config_path), "--out", str(out),
                 "--prefactor"]) == 0
    _, header, rows = read_csv(out / "gibbs.csv")
    assert "prefactor" in header
    n_exact = 1.0 / (2 * np.pi * np.cosh(0.5))
    col = header.index("prefactor")
    for row in rows:
        assert float(row[col]) == pytest.approx(n_exact, rel=1e-4)


def test_gibbs_failure_markers_and_exit_code(tmp_path):
    # quartic targets beyond the arc blow-up boundary at large hbar*beta
    # must be marked, with a numerics exit code
    path = tmp_path / "quartic.yaml"
    path.write_text("""
schema_version: 1
model:
  kind: quartic
  quartic_lambda: 0.1
  protocol: {shape: constant, omega_initial: 1.0, omega_final: 1.0,
             t_initial: 0.0, t_final: 1.0}
physics: {beta: 6.0, hbar: 1.0}
numerics:
  n_sigma_steps: 96
run:
  grid: {p_min: 0.0, p_max: 0.0, n_p: 1, q_min: 30.0, q_max: 60.0, n_q: 4}
""")
    out = tmp_path / "out"
    rc = main(["gibbs", "--config", str(path), "--out", str(out)])
    assert rc == 3
    _, header, rows = read_csv(out / "gibbs.csv")
    markers = {row[-1] for row in rows}
    assert markers <= {"CAUSTIC", "DIVERGED"}
    assert len(markers) >= 1


def test_gibbs_non_finite_prefactor_marks_its_rows(tmp_path, capsys,
                                                   monkeypatch):
    # quartic_ramp physics at hbar = 3 on nodes of the 13x13 grid over
    # [-6, 6]^2: (0, +-6) do not solve, and the solved corners (+-5, +-6),
    # whose end-to-end flows overflow, get finite prefactors from the
    # solve's half-flow monodromy
    cfg = yaml.safe_load(QUARTIC_RAMP.read_text())
    cfg["physics"]["hbar"] = 3.0
    cfg["run"]["grid"] = {"p_min": -5.0, "p_max": 5.0, "n_p": 3,
                          "q_min": -6.0, "q_max": 6.0, "n_q": 3}
    path = tmp_path / "quartic_hbar3.yaml"
    path.write_text(yaml.safe_dump(cfg))

    def scan(out):
        assert main(["gibbs", "--config", str(path), "--out", str(out),
                     "--prefactor"]) == 3
        _, header, rows = read_csv(out / "gibbs.csv")
        g, pref = header.index("G"), header.index("prefactor")
        return {(float(row[1]), float(row[0])): (row[g] != "nan", row[pref],
                                                 row[-1]) for row in rows}

    kinds = scan(tmp_path / "out")
    assert "gibbs: 2 of 9 grid nodes failed" in capsys.readouterr().err
    assert len(kinds) == 9
    for (p, q), (solved, prefactor, status) in kinds.items():
        if p == 0.0 and abs(q) == 6.0:
            assert (solved, prefactor, status) == (False, "nan",
                                                   "DIVERGED"), (p, q)
        else:
            assert solved and status == "ok", (p, q)
            assert np.isfinite(float(prefactor)) and float(prefactor) > 0.0
    # a solved row whose prefactor is not finite (stood in for by a NaN
    # in the first solved column) keeps its solved cells, gets a nan
    # prefactor and DIVERGED, and the scan goes on to write every row
    formula = scjarz.dynamics.ImaginaryArc.prefactor.func

    def first_nan(arcs):
        geom = formula(arcs)
        geom[0] = np.nan
        return geom

    monkeypatch.setattr(scjarz.dynamics.ImaginaryArc, "prefactor",
                        property(first_nan))
    marked = scan(tmp_path / "marked")
    assert "gibbs: 3 of 9 grid nodes failed" in capsys.readouterr().err
    first = next(k for k, v in kinds.items() if v[0])
    assert marked[first] == (True, "nan", "DIVERGED")
    assert {k: v for k, v in marked.items() if k != first} == \
        {k: v for k, v in kinds.items() if k != first}


def test_gibbs_rerun_is_byte_identical(config_path, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["gibbs", "--config", str(config_path),
                 "--out", str(out1)]) == 0
    assert main(["gibbs", "--config", str(config_path),
                 "--out", str(out2)]) == 0
    assert (out2 / "gibbs.csv").read_bytes() == \
        (out1 / "gibbs.csv").read_bytes()


def test_gibbs_threads_1_is_parse_only(config_path, tmp_path):
    # the flag is still accepted with its one value, and changes nothing
    plain, flagged = tmp_path / "plain", tmp_path / "flagged"
    assert main(["gibbs", "--config", str(config_path),
                 "--out", str(plain)]) == 0
    assert main(["gibbs", "--config", str(config_path), "--out",
                 str(flagged), "--threads", "1"]) == 0
    assert (flagged / "gibbs.csv").read_bytes() == \
        (plain / "gibbs.csv").read_bytes()


def test_gibbs_threads_other_than_1_is_a_usage_error(config_path, tmp_path):
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["gibbs", "--config", str(config_path), "--out", str(out),
              "--threads", "2"])
    assert exc.value.code == scjarz.cli.EXIT_CONFIG
    assert not (out / "gibbs.csv").exists()


def test_work_command_outputs(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["work", "--config", str(config_path),
                 "--out", str(out)]) == 0
    _, header, rows = read_csv(out / "work.csv")
    assert header == ["t", "check_p", "check_q", "z_c_p", "z_c_q",
                      "pseudo_power"]
    # the march nodes: t_i, the _WORK_NODES Gauss-Legendre times and t_f
    assert len(rows) == _WORK_NODES + 2
    assert [float(r[0]) for r in (rows[0], rows[-1])] == [0.0, 1.0]
    summary = json.loads((out / "work_summary.json").read_text())
    assert set(summary) >= {"W", "W_endpoint", "mismatch", "schema_version",
                            "config_sha256"}
    assert summary["mismatch"] <= 1e-6 * (1.0 + abs(summary["W"]))
    # default target (0, 1): power at t=0 equals the arc-average closed form
    assert float(rows[0][5]) == pytest.approx(
        (np.sinh(1.0) + 1.0) / (1.0 + np.cosh(1.0)), rel=1e-6)


def test_work_mismatch_writes_both_files_and_exits_3(tmp_path, capsys):
    # two real-time steps per protocol leave the path work 6.7e-2 off the
    # endpoint one: the verdict is the exit code, and both artifacts are
    # still written, one row per march node
    path = tmp_path / "coarse.yaml"
    path.write_text(BASE_CONFIG.replace("n_time_steps: 32",
                                        "n_time_steps: 2"))
    out = tmp_path / "out"
    assert main(["work", "--config", str(path), "--out", str(out)]) \
        == scjarz.cli.EXIT_NUMERICS
    assert "path/endpoint mismatch" in capsys.readouterr().err
    _, _, rows = read_csv(out / "work.csv")
    assert len(rows) == _WORK_NODES + 2
    summary = json.loads((out / "work_summary.json").read_text())
    assert summary["mismatch"] > 1e-6 * (1.0 + abs(summary["W"]))


def test_work_failure_names_the_failing_node(tmp_path, capsys):
    # at hbar = 3 the quartic ramp's start (-4, -1) loses its solve at
    # march node 7 of the 14, t = 0.562617; the report names that node
    # with its residual and |det|, in the library's wording, and writes no
    # artifact
    data = yaml.safe_load(QUARTIC_RAMP.read_text())
    data["physics"]["hbar"] = 3.0
    data["run"]["work_target"] = [-4.0, -1.0]
    path = tmp_path / "quartic_hbar3.yaml"
    path.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    assert main(["work", "--config", str(path), "--out", str(out)]) \
        == scjarz.cli.EXIT_NUMERICS
    err = capsys.readouterr().err
    assert re.search(r"midpoint inversion stalled at t=0\.562617 "
                     r"\(residual \d\.\d{3}e[+-]\d\d, \|det\|=\d\.\d{3}e", err), err
    assert not (out / "work.csv").exists()


def test_jarzynski_command_report(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["jarzynski", "--config", str(config_path),
                 "--out", str(out)]) == 0
    rep = json.loads((out / "jarzynski.json").read_text())
    assert set(rep) == {"schema_version", "config_sha256", "Z_i", "Z_f",
                        "lhs", "rhs", "residual", "prefactor_on", "failures",
                        "diagnostics", "monte_carlo", "n_nodes"}
    assert rep["failures"] == []
    assert rep["residual"] < 1e-6
    assert rep["prefactor_on"] is None and rep["monte_carlo"] is None
    # a linear flow starts every node solve at its exact solution; the
    # Gauss-Legendre grid is point-symmetric, so half its nodes are marched
    # and the other half filled from their partners
    assert rep["diagnostics"]["node_solves"] == (_WORK_NODES + 2) * 288
    assert rep["diagnostics"]["newton_iters"] == 0
    assert rep["diagnostics"]["mirrored_nodes"] == 288


QUARTIC_RAMP_CONFIG = """
schema_version: 1
model:
  kind: quartic
  quartic_lambda: 0.1
  protocol: {shape: linear, omega_initial: 1.0, omega_final: 2.0,
             t_initial: 0.0, t_final: 1.0}
physics: {beta: 1.0, hbar: 0.5}
numerics:
  n_sigma_steps: 32
  n_time_steps: 16
  domain: {p_max: 7.5, q_max: 4.5, n_p: 12, n_q: 12}
"""


MARCH_KEYS = {"work_nodes", "node_solves", "newton_iters", "work_gap_mean",
              "work_gap_max"}
DIAGNOSTICS_KEYS = MARCH_KEYS | {"mirrored_nodes"}


def test_jarzynski_diagnostics_block(tmp_path):
    # solver counts of the work march: one solve per (marched node, time
    # node), half the grid's nodes being filled from their partners, and
    # its path/endpoint gap; no timings, so the block is byte-identical
    # across reruns
    path = tmp_path / "quartic.yaml"
    path.write_text(QUARTIC_RAMP_CONFIG)
    out1, out2 = tmp_path / "d1", tmp_path / "d2"
    for out in (out1, out2):
        assert main(["jarzynski", "--config", str(path),
                     "--out", str(out)]) == 0
    b1 = (out1 / "jarzynski.json").read_bytes()
    assert b1 == (out2 / "jarzynski.json").read_bytes()
    diag = json.loads(b1)["diagnostics"]
    assert set(diag) == DIAGNOSTICS_KEYS
    assert diag["work_nodes"] == _WORK_NODES + 2
    assert diag["node_solves"] == (_WORK_NODES + 2) * 72
    assert diag["newton_iters"] == 2699
    assert diag["mirrored_nodes"] == 72
    assert 0.0 < diag["work_gap_mean"] < diag["work_gap_max"]


def test_jarzynski_threshold_exit_code(tmp_path, config_path):
    strict = tmp_path / "strict.yaml"
    strict.write_text(BASE_CONFIG.replace("residual_threshold: 1.0e-3",
                                          "residual_threshold: 1.0e-12"))
    out = tmp_path / "out"
    assert main(["jarzynski", "--config", str(strict),
                 "--out", str(out)]) == 3


@pytest.mark.parametrize("command, message", [
    ("jarzynski", "numerical failure: 144 of 144 quadrature nodes failed "
                  "(> 1% budget): 144 non_finite\n"),
    ("work", "numerical failure: non-finite power or work at t=0 ("),
], ids=["jarzynski", "work"])
def test_subnormal_window_fails_closed(tmp_path, capsys, command, message):
    # the quartic ramp over [0, 5e-324]: the drive's rate overflows and
    # the power at t_i is not finite, so every start fails there.  `work`
    # names that node; `jarzynski` passes the t_i domain check and then
    # refuses on the failure budget, naming the reason, before the t_f
    # check can blame the domain.  Both exit 3 with one line on stderr,
    # no warning, and write nothing
    data = yaml.safe_load(QUARTIC_RAMP.read_text())
    data["model"]["protocol"]["t_final"] = 5e-324
    data["numerics"]["domain"].update(n_p=12, n_q=12)
    path = tmp_path / "subnormal.yaml"
    path.write_text(yaml.safe_dump(data))
    code = main([command, "--config", str(path),
                 "--out", str(tmp_path / "out")])
    assert code == scjarz.cli.EXIT_NUMERICS
    err = capsys.readouterr().err
    assert err.startswith(message) and err.count("\n") == 1, err
    assert "Traceback" not in err
    assert not any((tmp_path / "out").iterdir())


def test_overflowing_harmonic_start_fails_closed(tmp_path):
    # a harmonic start at p = 1e155 solves, but its power (and its G) at
    # t_i overflow, so `work` fails there: exit 3 with one line on stderr
    # and no numpy warning, and no artifact.  A fresh interpreter runs it,
    # so a warning would reach stderr as it does for a user
    data = yaml.safe_load(HARMONIC_RAMP.read_text())
    data["run"]["work_target"] = [1.0e155, 0.0]
    path = tmp_path / "overflow.yaml"
    path.write_text(yaml.safe_dump(data))
    out = tmp_path / "out"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    proc = subprocess.run(
        [sys.executable, "-m", "scjarz.cli", "work", "--config", str(path),
         "--out", str(out)], capture_output=True, text=True, env=env)
    assert proc.returncode == scjarz.cli.EXIT_NUMERICS
    assert proc.stderr.startswith(
        "numerical failure: non-finite power or work at t=0 (")
    assert proc.stderr.count("\n") == 1, proc.stderr
    assert not out.exists() or not any(out.iterdir())


def test_non_finite_json_is_a_numerical_failure(config_path, tmp_path,
                                                capsys, monkeypatch):
    # a report holding NaN or infinity is not written: strict JSON has no
    # token for it, so the run exits 3 naming the file
    report = scjarz.cli.verify_identity

    def infinite_lhs(*args, **kwargs):
        out = report(*args, **kwargs)
        out.lhs = float("inf")
        return out

    monkeypatch.setattr(scjarz.cli, "verify_identity", infinite_lhs)
    out = tmp_path / "out"
    assert main(["jarzynski", "--config", str(config_path),
                 "--out", str(out)]) == scjarz.cli.EXIT_NUMERICS
    err = capsys.readouterr().err
    assert err == (f"numerical failure: {out / 'jarzynski.json'} would hold "
                   "NaN or infinity\n")
    assert not (out / "jarzynski.json").exists()


def test_jarzynski_monte_carlo_deterministic(config_path, tmp_path):
    out1, out2 = tmp_path / "m1", tmp_path / "m2"
    args = ["jarzynski", "--config", str(config_path), "--mc",
            "--samples", "64", "--seed", "7"]
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    b1 = (out1 / "jarzynski.json").read_bytes()
    assert b1 == (out2 / "jarzynski.json").read_bytes()
    rep = json.loads(b1)
    assert rep["monte_carlo"]["samples"] == 64
    assert rep["monte_carlo"]["seed"] == 7
    # the sample march reports its own counts; harmonic solves take no
    # Newton step
    diag = rep["monte_carlo"]["diagnostics"]
    assert set(diag) == MARCH_KEYS
    assert diag["node_solves"] == (_WORK_NODES + 2) * 64
    assert diag["newton_iters"] == 0


def test_jarzynski_zero_length_window_marches_one_node(tmp_path):
    # a constant protocol with t_final == t_initial does no work: the
    # march visits the single node t_i once per marched quadrature node
    # (half of the point-symmetric grid) and once per Monte Carlo sample,
    # and every exp(-beta W) is exactly 1
    path = tmp_path / "still.yaml"
    path.write_text(BASE_CONFIG.replace(
        "{shape: linear, omega_initial: 1.0, omega_final: 2.0,\n"
        "             t_initial: 0.0, t_final: 1.0}",
        "{shape: constant, omega_initial: 1.0, omega_final: 1.0,\n"
        "             t_initial: 0.0, t_final: 0.0}").replace(
        "n_p: 24, n_q: 24", "n_p: 16, n_q: 16"))
    out = tmp_path / "out"
    assert main(["jarzynski", "--config", str(path), "--out", str(out),
                 "--mc", "--samples", "32"]) == 0
    rep = json.loads((out / "jarzynski.json").read_text())
    assert rep["n_nodes"] == 256 and rep["lhs"] == 1.0
    for diag, solves in ((rep["diagnostics"], 128),
                         (rep["monte_carlo"]["diagnostics"], 32)):
        assert diag["work_nodes"] == 1
        assert diag["node_solves"] == solves


@pytest.mark.parametrize("flag, value", [("--seed", "-1"),
                                         ("--samples", "0")])
def test_jarzynski_monte_carlo_bounds_are_usage_errors(config_path, tmp_path,
                                                       capsys, flag, value):
    # the flags carry their own bounds: --seed >= 0 and --samples >= 1
    out = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        main(["jarzynski", "--config", str(config_path), "--out", str(out),
              "--mc", flag, value])
    assert exc.value.code == scjarz.cli.EXIT_CONFIG
    assert f"argument {flag}: must be >= " in capsys.readouterr().err
    assert not (out / "jarzynski.json").exists()


def test_oracle_command_harmonic(config_path, tmp_path):
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(config_path),
                 "--out", str(out)]) == 0
    rep = json.loads((out / "oracle.json").read_text())
    assert rep["kind"] == "harmonic"
    assert rep["wigner_max_abs_dev"] < 1e-6
    assert rep["convention_constant"] == pytest.approx(2 * np.pi, rel=1e-6)
    assert rep["ordering_deviation"] < 1e-10
    lines = (out / "wigner.csv").read_text().strip().splitlines()
    assert lines[:2] == [f"# config_sha256={load_config(config_path).config_hash()}",
                         "q,p,W"]
    assert len(lines) == 2 + 256 * 256
    q0, p0, w0 = (float(x) for x in lines[2].split(","))
    assert q0 == -10.0 and w0 == pytest.approx(0.0, abs=1e-12)


QUARTIC_ORACLE_CONFIG = """
schema_version: 1
model:
  kind: quartic
  quartic_lambda: 0.1
  protocol: {shape: constant, omega_initial: 1.0, omega_final: 1.0,
             t_initial: 0.0, t_final: 1.0}
physics: {beta: 1.0, hbar: 0.5}
numerics:
  n_sigma_steps: 64
  domain: {p_max: 7.5, q_max: 4.5, n_p: 48, n_q: 48}
  fock_n_max: 96
  wigner_n_q: 256
  wigner_q_max: 8.0
"""


def test_oracle_command_quartic(tmp_path):
    path = tmp_path / "quartic.yaml"
    path.write_text(QUARTIC_ORACLE_CONFIG)
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(path), "--out", str(out)]) == 0
    rep = json.loads((out / "oracle.json").read_text())
    assert rep["kind"] == "quartic"
    assert rep["density_linf_gap"] < 0.2
    assert rep["pseudo_hamiltonian_gap"] < 0.2


@pytest.mark.parametrize("kind", ["harmonic", "quartic"])
def test_oracle_builds_one_operator_and_one_grid(kind, config_path, tmp_path,
                                                 monkeypatch):
    # the thermal operator is built and transformed once; the only other
    # transform is the ordering check's test state
    if kind == "quartic":
        config_path = tmp_path / "quartic.yaml"
        config_path.write_text(QUARTIC_ORACLE_CONFIG)
    counts = {"transform": 0, "thermal": 0}
    raw, thermal = scjarz.oracle._wigner_raw, scjarz.cli.thermal_fock

    def counted_raw(*args, **kwargs):
        counts["transform"] += 1
        return raw(*args, **kwargs)

    def counted_thermal(*args, **kwargs):
        counts["thermal"] += 1
        return thermal(*args, **kwargs)

    monkeypatch.setattr(scjarz.oracle, "_wigner_raw", counted_raw)
    monkeypatch.setattr(scjarz.cli, "thermal_fock", counted_thermal)
    assert main(["oracle", "--config", str(config_path),
                 "--out", str(tmp_path / "out")]) == 0
    assert counts == {"transform": 2, "thermal": 1}


def test_oracle_audits_its_one_grid(config_path, tmp_path, monkeypatch):
    # scjarz oracle runs the public convention audit once, with its one
    # thermal operator and that operator's one Wigner grid as both factors
    built, audits = {}, []
    audit = scjarz.cli.weyl_convention_audit

    def kept(name, fn):
        def call(*args):
            built[name] = fn(*args)
            return built[name]
        return call

    def recorded(*args):
        audits.append(args)
        return audit(*args)

    for name, attr in (("op", "thermal_fock"), ("grid", "wigner_transform")):
        monkeypatch.setattr(scjarz.cli, attr,
                            kept(name, getattr(scjarz.cli, attr)))
    monkeypatch.setattr(scjarz.cli, "weyl_convention_audit", recorded)
    assert main(["oracle", "--config", str(config_path),
                 "--out", str(tmp_path / "out")]) == 0
    op, grid = built["op"], built["grid"]
    assert [[id(x) for x in args] for args in audits] == [
        [id(op), id(op), id(grid), id(grid)]]


def test_oracle_holds_about_one_real_grid_at_a_time(tmp_path):
    # the ordering check's grid is gone before the thermal grid exists,
    # and each transform writes only its real grid: scjarz oracle on
    # configs/quartic_ramp.yaml peaks at 2.40 real (n_q, n_q) grids of
    # traced memory, in the thermal grid's transform (4.25 with a complex
    # grid per transform and the ordering check run last)
    n = load_config(QUARTIC_RAMP).wigner_n_q
    tracemalloc.start()
    try:
        code = main(["oracle", "--config", str(QUARTIC_RAMP),
                     "--out", str(tmp_path / "out")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak <= 2.6 * n * n * 8, peak / (n * n * 8)


@pytest.mark.parametrize("edits, message", [
    ({"wigner_q_max: 8.0": "wigner_q_max: 3.0"}, "at the grid edge"),
    ({"fock_n_max: 96": "fock_n_max: 8"}, "raise the cutoff"),
    # the thermal operator is built before either transform, so its
    # truncation failure is the one reported
    ({"wigner_q_max: 8.0": "wigner_q_max: 3.0",
      "fock_n_max: 96": "fock_n_max: 8"}, "raise the cutoff"),
])
def test_oracle_failure_writes_no_artifact(edits, message, tmp_path, capsys):
    text = QUARTIC_RAMP.read_text()
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    path = tmp_path / "bad.yaml"
    path.write_text(text)
    out = tmp_path / "out"
    assert main(["oracle", "--config", str(path), "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert message in err and err.count("\n") == 1, err
    assert not (out / "wigner.csv").exists()
    assert not (out / "oracle.json").exists()


def test_every_command_runs_with_scipy_blocked(config_path, tmp_path):
    # the package depends on numpy and PyYAML only: with scipy made
    # unimportable, the package and a config load, and every command runs
    # to exit 0 (the quartic oracle's Z is a ``partition``)
    quartic = tmp_path / "quartic.yaml"
    quartic.write_text(QUARTIC_ORACLE_CONFIG.replace(
        "n_p: 48, n_q: 48", "n_p: 16, n_q: 16"))
    runs = [["gibbs", "--prefactor", "--config", str(config_path)],
            ["work", "--config", str(config_path)],
            ["jarzynski", "--prefactor", "--mc", "--samples", "50",
             "--config", str(config_path)],
            ["oracle", "--config", str(config_path)],
            ["oracle", "--config", str(quartic)]]
    runs = [argv + ["--out", str(tmp_path / f"out{k}")]
            for k, argv in enumerate(runs)]
    code = ("import json, sys\n"
            "sys.modules['scipy'] = None\n"
            "import scjarz\n"
            "from scjarz.cli import main\n"
            "from scjarz.config import load_config\n"
            f"load_config({str(QUARTIC_RAMP)!r})\n"
            "runs = json.loads(sys.argv[1])\n"
            "print(json.dumps([main(argv) for argv in runs]))\n")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(runs)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == [0] * len(runs)


def test_console_entry_point(config_path, tmp_path):
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "scjarz.cli", "gibbs", "--config",
         str(config_path), "--out", str(out)],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert (out / "gibbs.csv").exists()
