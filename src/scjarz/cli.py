"""Batch driver: grid scans, work protocols, identity checks, oracle reports.

Outputs are deterministic: CSV numbers carry 17 significant digits, strict
JSON is sorted, and every artifact embeds the configuration hash.  Exit codes:
0 success, 2 configuration problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .config import SCHEMA_VERSION, RunConfig, load_config
from .errors import ConfigError, ScjarzError
from .jarzynski import partition, verify_identity
from .models import ComplexPoint
from .oracle import (harmonic_closed_forms, ordering_pairing_check,
                     thermal_fock, weyl_convention_audit, wigner_transform)
from .pseudowork import pseudo_work
from .stationary import (DIVERGED, OK, STATUS_NAMES,
                         _pseudo_hamiltonian_batch)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


def _write_json(path: Path, cfg: RunConfig, payload: dict) -> None:
    """Strict JSON of ``payload`` under the artifact header; a NaN or
    infinity raises ScjarzError, writing nothing."""
    payload = {"schema_version": SCHEMA_VERSION,
               "config_sha256": cfg.config_hash(), **payload}
    try:
        text = json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)
    except ValueError:
        raise ScjarzError(f"{path} would hold NaN or infinity") from None
    path.write_text(text + "\n")


def _write_csv(path: Path, cfg: RunConfig, header: str, rows) -> None:
    """``# config_sha256=<hash>``, the column ``header``, then the lines of
    ``rows`` as they come: an iterator's are written as they are made."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_sha256={cfg.config_hash()}\n{header}\n")
        fh.writelines(rows)


def _csv_rows(columns, markers=None) -> list:
    """CSV lines of float columns, each number as ``.17g`` (nan, inf, -0
    too), then ``markers`` if given; one ``%`` pass of a line template."""
    cells = [np.asarray(c).tolist() for c in columns]
    template = ",".join(["%.17g"] * len(cells))
    if markers is not None:
        template += ",%s"
        cells.append(markers)
    template += "\n"
    return [template % row for row in zip(*cells)]


def _status_marker(code: int) -> str:
    """Status name as written to artifacts: failures upper-cased."""
    name = STATUS_NAMES[int(code)]
    return name if code == OK else name.upper()


def cmd_gibbs(cfg: RunConfig, out_dir: Path, prefactor: bool) -> int:
    P, Q = cfg.grid.points()
    solve, g, g_fta = _pseudo_hamiltonian_batch(
        cfg.model, cfg.model.protocol.t_i, P, Q, cfg.hbar_beta, cfg.settings)
    ok = solve.status == OK
    area = np.full(P.size, np.nan)
    area[ok] = solve.arcs.area
    status = solve.status
    header = ["q", "p", "G", "G_from_total_action", "z_c_p", "z_c_q",
              "jacobian_det", "area_A"]
    columns = [Q, P, g, g_fta, solve.zc_p, solve.zc_q, solve.det, area]
    if prefactor:
        pref = np.full(P.size, np.nan)
        pref[ok] = solve.arcs.prefactor / (2.0 * np.pi * cfg.hbar)
        # a solved row whose monodromy is not finite is marked, not
        # dropped, and the scan goes on
        status = np.where(ok & np.isnan(pref), DIVERGED, status)
        header.append("prefactor")
        columns.append(pref)
    header.append("status")
    markers = [_status_marker(code) for code in status.tolist()]
    _write_csv(out_dir / "gibbs.csv", cfg, ",".join(header),
               _csv_rows(columns, markers))
    n_failed = int(np.count_nonzero(status != OK))
    if n_failed:
        print(f"gibbs: {n_failed} of {P.size} grid nodes failed",
              file=sys.stderr)
        return EXIT_NUMERICS
    return EXIT_OK


def cmd_work(cfg: RunConfig, out_dir: Path) -> int:
    # both files are written whatever the mismatch; the verdict is the exit
    model = cfg.model
    res = pseudo_work(model, model.protocol.t_i, model.protocol.t_f,
                      ComplexPoint(*cfg.work_target), cfg.hbar_beta,
                      cfg.settings, work_tol=math.inf)
    traj = res.trajectory
    _write_csv(out_dir / "work.csv", cfg,
               "t,check_p,check_q,z_c_p,z_c_q,pseudo_power",
               _csv_rows([traj.times, traj.check_p, traj.check_q,
                          traj.center_p, traj.center_q, traj.power]))
    _write_json(out_dir / "work_summary.json", cfg, {
        "W": res.W, "W_endpoint": res.W_endpoint, "mismatch": res.mismatch})
    if not (res.mismatch <= res.mismatch_tol):
        print(f"work: path/endpoint mismatch {res.mismatch:.3e}",
              file=sys.stderr)
        return EXIT_NUMERICS
    return EXIT_OK


def cmd_jarzynski(cfg: RunConfig, out_dir: Path, prefactor: bool,
                  monte_carlo: bool, mc_samples: int, seed: int) -> int:
    report = verify_identity(cfg.model, cfg.beta, cfg.hbar, cfg.domain,
                             cfg.settings, with_prefactor=prefactor,
                             monte_carlo=monte_carlo,
                             mc_samples=mc_samples, seed=seed)
    _write_json(out_dir / "jarzynski.json", cfg, report.to_dict())
    if not (report.residual <= cfg.residual_threshold):
        print(f"jarzynski: residual {report.residual:.3e} above threshold "
              f"{cfg.residual_threshold:.3e}", file=sys.stderr)
        return EXIT_NUMERICS
    return EXIT_OK


def _oracle_harmonic(cfg: RunConfig, op, grid) -> dict:
    model = cfg.model
    omega = model.protocol.omega(model.protocol.t_i)
    forms = harmonic_closed_forms(cfg.beta, cfg.hbar, model.mass, omega)
    interior_q = np.abs(grid.q) <= 0.5 * cfg.wigner_q_max
    interior_p = np.abs(grid.p) <= 0.5 * np.max(np.abs(grid.p))
    pp, qq = np.meshgrid(grid.p[interior_p], grid.q[interior_q])
    exact = forms.weyl_symbol(pp, qq)
    gap = float(np.max(np.abs(
        grid.values[np.ix_(interior_q, interior_p)] - exact)))
    return {"kind": "harmonic", "wigner_max_abs_dev": gap,
            "wigner_norm": grid.norm, "trace": op.trace().real}


def _oracle_quartic(cfg: RunConfig, op, grid) -> dict:
    """Compare the normalized Wigner density with exp(-beta G) / Z_G on a
    sample of the thermal bulk; no normalized copy of the grid is made."""
    model = cfg.model
    t = model.protocol.t_i
    omega = model.protocol.omega(t)
    # compare on the thermal bulk (~2.5 sigma); the far tail only probes
    # the transform's noise floor
    width_q = 2.5 / (np.sqrt(cfg.beta * model.mass) * omega)
    width_p = 2.5 * np.sqrt(model.mass / cfg.beta)
    qi = np.flatnonzero(np.abs(grid.q) <= width_q)[::8]
    pi = np.flatnonzero(np.abs(grid.p) <= width_p)[::8]
    qq, pp = np.meshgrid(grid.q[qi], grid.p[pi], indexing="ij")
    solve, g, _ = _pseudo_hamiltonian_batch(
        model, t, pp.ravel(), qq.ravel(), cfg.hbar_beta, cfg.settings)
    z_g = partition(model, t, cfg.beta, cfg.hbar, cfg.domain, cfg.settings)
    rho_g = np.exp(-cfg.beta * g) / z_g
    # the density W / norm is read only where it is sampled; its peak is
    # max(W) / norm, since dividing by the positive norm keeps the order
    w_vals = grid.values[np.ix_(qi, pi)].ravel() / grid.norm
    peak = np.max(grid.values) / grid.norm
    density_gap = float(np.max(np.abs(w_vals - rho_g)) / peak)
    diff = -np.log(w_vals) / cfg.beta + np.log(rho_g) / cfg.beta
    log_gap = float(np.max(np.abs(diff - np.mean(diff))))
    return {"kind": "quartic",
            "density_linf_gap": density_gap,
            "pseudo_hamiltonian_gap": log_gap,
            "wigner_norm": grid.norm, "trace": op.trace().real}


def cmd_oracle(cfg: RunConfig, out_dir: Path) -> int:
    # one thermal operator and one Wigner grid serve the CSV, the
    # model-specific comparison and both factors of the convention audit.
    # The operator comes first, so a truncation failure is the first error;
    # the ordering check's own grid is gone before the thermal grid exists
    model = cfg.model
    omega = model.protocol.omega(model.protocol.t_i)
    op = thermal_fock(model.kind, model.mass, omega, model.quartic_lambda,
                      cfg.beta, cfg.hbar, cfg.fock_n_max)
    ordering = ordering_pairing_check(
        min(cfg.fock_n_max, 64), cfg.hbar, model.mass, omega,
        cfg.wigner_q_max, cfg.wigner_n_q)
    grid = wigner_transform(op, cfg.wigner_q_max, cfg.wigner_n_q)
    audit = weyl_convention_audit(op, op, grid, grid)
    _write_csv(out_dir / "wigner.csv", cfg, "q,p,W", grid.csv_rows())
    body = (_oracle_harmonic(cfg, op, grid) if model.kind == "harmonic"
            else _oracle_quartic(cfg, op, grid))
    _write_json(out_dir / "oracle.json", cfg, {
        **body,
        "convention_constant": audit.measured_constant,
        "convention_expected": audit.two_pi_hbar,
        "ordering_deviation": ordering["deviation"],
    })
    return EXIT_OK


def _int_at_least(lower: int):
    """argparse type: an integer >= ``lower``, so a value out of range is
    a usage error (exit 2) before any config is read."""
    def parse(text: str) -> int:
        value = int(text)
        if value < lower:
            raise argparse.ArgumentTypeError(f"must be >= {lower}, got {value}")
        return value
    parse.__name__ = "int"
    return parse


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scjarz",
        description="semi-classical thermal symbols, pseudo-work, and "
                    "work-identity checks")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
            ("gibbs", "scan the pseudo-Hamiltonian over a phase-space grid"),
            ("work", "pseudo-work along one protocol"),
            ("jarzynski", "verify the work identity over a thermal ensemble"),
            ("oracle", "compare against quantum-exact references")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("--config", required=True, help="YAML config path")
        cmd.add_argument("--out", default=".",
                         help="output directory (default: .)")
        # parse-only: the benchmark's job runner still passes --threads 1
        cmd.add_argument("--threads", type=int, choices=(1,), default=1,
                         help=argparse.SUPPRESS)
        if name == "gibbs":
            cmd.add_argument("--prefactor", action="store_true",
                             help="add the stationary-phase prefactor column")
        if name == "jarzynski":
            cmd.add_argument("--prefactor", action="store_true",
                             help="also report prefactor-corrected partitions")
            cmd.add_argument("--mc", action="store_true",
                             help="add a seeded Monte Carlo estimate")
            cmd.add_argument("--samples", type=_int_at_least(1),
                             default=2000,
                             help="Monte Carlo sample count (default: 2000)")
            cmd.add_argument("--seed", type=_int_at_least(0), default=0,
                             help="Monte Carlo seed (default: 0)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        print(f"output error: --out {out_dir} is not a usable directory "
              f"({exc.strerror})", file=sys.stderr)
        return EXIT_CONFIG
    try:
        if args.command == "gibbs":
            return cmd_gibbs(cfg, out_dir, args.prefactor)
        if args.command == "work":
            return cmd_work(cfg, out_dir)
        if args.command == "jarzynski":
            return cmd_jarzynski(cfg, out_dir, prefactor=args.prefactor,
                                 monte_carlo=args.mc,
                                 mc_samples=args.samples, seed=args.seed)
        if args.command == "oracle":
            return cmd_oracle(cfg, out_dir)
    except ScjarzError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
