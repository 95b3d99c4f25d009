"""Batch driver: grid scans, work protocols, identity checks, oracle reports.

Outputs are deterministic: CSV numbers carry 17 significant digits, JSON is
sorted, and every artifact embeds the configuration hash.  Exit codes:
0 success, 2 configuration problem, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from .config import SCHEMA_VERSION, RunConfig, load_config
from .errors import ConfigError, ScjarzError
from .jarzynski import partition, verify_identity
from .oracle import (_convention_audit, harmonic_closed_forms,
                     ordering_pairing_check, thermal_fock, wigner_transform)
from .pseudowork import _pseudo_work_batch
from .stationary import (OK, STATUS_NAMES, _prefactor_batch,
                         _pseudo_hamiltonian_batch)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICS = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _chunk_indices(n: int, chunks: int):
    bounds = np.linspace(0, n, chunks + 1).astype(int)
    return [(bounds[i], bounds[i + 1]) for i in range(chunks)
            if bounds[i + 1] > bounds[i]]


def _run_chunked(worker, n_rows: int, threads: int):
    """Run ``worker(lo, hi)`` over row chunks, in order, optionally threaded."""
    if threads <= 1 or n_rows < 2 * threads:
        return [worker(0, n_rows)]
    spans = _chunk_indices(n_rows, threads)
    with ThreadPoolExecutor(max_workers=threads) as pool:
        futures = [pool.submit(worker, lo, hi) for lo, hi in spans]
        return [f.result() for f in futures]


def _status_marker(code: int) -> str:
    """Status name as written to artifacts: failures upper-cased."""
    name = STATUS_NAMES[int(code)]
    return name if code == OK else name.upper()


def cmd_gibbs(cfg: RunConfig, out_dir: Path, threads: int,
              prefactor: bool) -> int:
    P, Q = cfg.grid.points()
    model, t = cfg.model, cfg.model.protocol.t_i
    hb = cfg.hbar_beta

    def worker(lo, hi):
        solve, arcs, g, g_fta, _ = _pseudo_hamiltonian_batch(
            model, t, P[lo:hi], Q[lo:hi], hb, cfg.settings)
        ok = solve.status == OK
        area = np.full(hi - lo, np.nan)
        area[ok] = arcs.area
        pref = None
        if prefactor:
            pref = np.full(hi - lo, np.nan)
            pref[ok] = _prefactor_batch(model, arcs, cfg.settings) \
                / (2.0 * np.pi * cfg.hbar)
        return solve, g, g_fta, area, pref

    results = _run_chunked(worker, P.size, threads)
    header = ["q", "p", "G", "G_from_total_action", "z_c_p", "z_c_q",
              "jacobian_det", "area_A"]
    if prefactor:
        header.append("prefactor")
    header.append("status")
    lines = [f"# config_sha256={cfg.config_hash()}", ",".join(header)]
    n_failed = 0
    row = 0
    for solve, g, g_fta, area, pref in results:
        for i in range(g.shape[0]):
            status = _status_marker(solve.status[i])
            if solve.status[i] != OK:
                n_failed += 1
            cells = [_fmt(Q[row]), _fmt(P[row]), _fmt(g[i]), _fmt(g_fta[i]),
                     _fmt(solve.zc_p[i]), _fmt(solve.zc_q[i]),
                     _fmt(solve.det[i]), _fmt(area[i])]
            if prefactor:
                cells.append(_fmt(pref[i]))
            cells.append(status)
            lines.append(",".join(cells))
            row += 1
    (out_dir / "gibbs.csv").write_text("\n".join(lines) + "\n")
    if n_failed:
        print(f"gibbs: {n_failed} of {P.size} grid nodes failed",
              file=sys.stderr)
        return EXIT_NUMERICS
    return EXIT_OK


def cmd_work(cfg: RunConfig, out_dir: Path) -> int:
    model = cfg.model
    t_i, t_f = model.protocol.t_i, model.protocol.t_f
    tp = np.array([cfg.work_target[0]])
    tq = np.array([cfg.work_target[1]])
    out = _pseudo_work_batch(model, t_i, t_f, tp, tq, cfg.hbar_beta,
                             cfg.settings)
    if out["status"][0] != OK:
        print(f"work: solve failed ({_status_marker(out['status'][0])})",
              file=sys.stderr)
        return EXIT_NUMERICS
    lines = [f"# config_sha256={cfg.config_hash()}",
             "t,check_p,check_q,z_c_p,z_c_q,pseudo_power"]
    for j, tj in enumerate(out["times"]):
        lines.append(",".join(_fmt(v) for v in (
            tj, out["check_p"][j, 0], out["check_q"][j, 0],
            out["center_p"][j, 0], out["center_q"][j, 0],
            out["power"][j, 0])))
    (out_dir / "work.csv").write_text("\n".join(lines) + "\n")
    w = float(out["W"][0])
    w_end = float(out["W_endpoint"][0])
    mismatch = abs(w - w_end)
    _write_json(out_dir / "work_summary.json", {
        "schema_version": SCHEMA_VERSION,
        "config_sha256": cfg.config_hash(),
        "W": w,
        "W_endpoint": w_end,
        "mismatch": mismatch,
    })
    if mismatch > 1e-6 * (1.0 + abs(w)):
        print(f"work: path/endpoint mismatch {mismatch:.3e}", file=sys.stderr)
        return EXIT_NUMERICS
    return EXIT_OK


def cmd_jarzynski(cfg: RunConfig, out_dir: Path, prefactor: bool,
                  monte_carlo: bool, mc_samples: int, seed: int) -> int:
    report = verify_identity(cfg.model, cfg.beta, cfg.hbar, cfg.domain,
                             cfg.settings, with_prefactor=prefactor,
                             monte_carlo=monte_carlo,
                             mc_samples=mc_samples, seed=seed)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config_sha256": cfg.config_hash(),
        **report.to_dict(),
        "monte_carlo": report.monte_carlo,
        "n_nodes": report.n_nodes,
    }
    _write_json(out_dir / "jarzynski.json", payload)
    if report.residual > cfg.residual_threshold:
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
    model = cfg.model
    t = model.protocol.t_i
    omega = model.protocol.omega(t)
    rho_w = grid.values / grid.norm
    # compare on the thermal bulk (~2.5 sigma); the far tail only probes
    # the transform's noise floor
    width_q = 2.5 / (np.sqrt(cfg.beta * model.mass) * omega)
    width_p = 2.5 * np.sqrt(model.mass / cfg.beta)
    qi = np.flatnonzero(np.abs(grid.q) <= width_q)[::8]
    pi = np.flatnonzero(np.abs(grid.p) <= width_p)[::8]
    qq, pp = np.meshgrid(grid.q[qi], grid.p[pi], indexing="ij")
    solve, _, g, _, _ = _pseudo_hamiltonian_batch(
        model, t, pp.ravel(), qq.ravel(), cfg.hbar_beta, cfg.settings)
    z_g = partition(model, t, cfg.beta, cfg.hbar, cfg.domain, cfg.settings)
    rho_g = np.exp(-cfg.beta * g) / z_g
    w_vals = rho_w[np.ix_(qi, pi)].ravel()
    density_gap = float(np.max(np.abs(w_vals - rho_g)) / np.max(rho_w))
    diff = -np.log(w_vals) / cfg.beta + np.log(rho_g) / cfg.beta
    log_gap = float(np.max(np.abs(diff - np.mean(diff))))
    return {"kind": "quartic",
            "density_linf_gap": density_gap,
            "pseudo_hamiltonian_gap": log_gap,
            "wigner_norm": grid.norm, "trace": op.trace().real}


def cmd_oracle(cfg: RunConfig, out_dir: Path) -> int:
    # one thermal operator and one Wigner grid serve the CSV, the
    # model-specific comparison and both factors of the convention audit
    model = cfg.model
    omega = model.protocol.omega(model.protocol.t_i)
    op = thermal_fock(model.kind, model.mass, omega, model.quartic_lambda,
                      cfg.beta, cfg.hbar, cfg.fock_n_max)
    grid = wigner_transform(op, cfg.wigner_q_max, cfg.wigner_n_q)
    grid.write_csv(out_dir / "wigner.csv")
    body = (_oracle_harmonic(cfg, op, grid) if model.kind == "harmonic"
            else _oracle_quartic(cfg, op, grid))
    audit = _convention_audit(op, op, grid, grid)
    ordering = ordering_pairing_check(
        min(cfg.fock_n_max, 64), cfg.hbar, model.mass, omega,
        cfg.wigner_q_max, cfg.wigner_n_q)
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config_sha256": cfg.config_hash(),
        **body,
        "convention_constant": audit.measured_constant,
        "convention_expected": audit.two_pi_hbar,
        "ordering_deviation": ordering["deviation"],
    }
    _write_json(out_dir / "oracle.json", payload)
    return EXIT_OK


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
        cmd.add_argument("--out", default=None, help="output directory")
        cmd.add_argument("--threads", type=int, default=None,
                         help="row-chunk parallelism (default 1 or "
                              "SCJARZ_THREADS)")
        if name == "gibbs":
            cmd.add_argument("--prefactor", action="store_true",
                             help="add the stationary-phase prefactor column")
        if name == "jarzynski":
            cmd.add_argument("--prefactor", action="store_true",
                             help="also report prefactor-corrected partitions")
            cmd.add_argument("--mc", action="store_true",
                             help="add a seeded Monte Carlo estimate")
            cmd.add_argument("--samples", type=int, default=None,
                             help="Monte Carlo sample count")
            cmd.add_argument("--seed", type=int, default=None,
                             help="Monte Carlo seed")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    threads = args.threads
    if threads is None:
        threads = int(os.environ.get("SCJARZ_THREADS", "1"))
    out_dir = Path(args.out if args.out is not None else cfg.output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.command == "gibbs":
            return cmd_gibbs(cfg, out_dir, threads,
                             args.prefactor or cfg.prefactor)
        if args.command == "work":
            return cmd_work(cfg, out_dir)
        if args.command == "jarzynski":
            return cmd_jarzynski(
                cfg, out_dir,
                prefactor=args.prefactor or cfg.prefactor,
                monte_carlo=args.mc or cfg.monte_carlo,
                mc_samples=args.samples if args.samples is not None
                else cfg.mc_samples,
                seed=args.seed if args.seed is not None else cfg.seed)
        if args.command == "oracle":
            return cmd_oracle(cfg, out_dir)
    except ScjarzError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICS
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())
