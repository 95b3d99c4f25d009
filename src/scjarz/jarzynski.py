"""Semi-classical partition functions and the pseudo-work identity check.

The left side averages exp(-beta * W) over initial conditions drawn from the
semi-classical thermal weight exp(-beta * G_initial); the right side is the
ratio of the propagated and initial partition functions.  Both sides share
one deterministic tensor-product quadrature, so the reported residual
isolates the path-versus-endpoint work error rather than quadrature noise.
The work integrates the arc-averaged power with a fixed Gauss-Legendre rule
in time (``pseudowork._gauss_legendre_nodes``).  The Simpson sums over arc
samples and the Gauss-Legendre sum over time nodes accumulate row by row
in a fixed order (``dynamics.weighted_sum``), so every node's values are
the same whatever the batch width, row chunking or BLAS threading; the
sums over quadrature nodes then run once over the full node set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .dynamics import DEFAULT_SETTINGS, IntegratorSettings, _build_arc_batch
from .errors import DomainTooSmall, NewtonDiverged
from .models import HamiltonianModel
from .pseudowork import (_gauss_legendre_nodes, _march, _propagated_g_batch,
                         _pseudo_work_batch)
from .stationary import (OK, STATUS_NAMES, _prefactor_batch,
                         _pseudo_hamiltonian_batch)

QUADRATURE_RULES = ("gauss-legendre", "trapezoid")
_MARCH_STAGES = 8


@dataclass(frozen=True)
class QuadratureDomain:
    """Rectangular phase-space domain with a tensor-product rule.

    boundary_weight_tol bounds the edge-to-peak thermal weight ratio the
    domain must reach.  The 1e-10 default suits harmonic runs; anharmonic
    models can hit their first caustic before the weight drops that far,
    in which case the domain must stop inside the solvable region and the
    tolerance records the looser truncation certificate.
    """

    p_max: float
    q_max: float
    n_p: int = 48
    n_q: int = 48
    rule: str = "gauss-legendre"
    boundary_weight_tol: float = 1e-10

    def __post_init__(self):
        if not (self.p_max > 0.0 and self.q_max > 0.0):
            raise ValueError("domain half-widths must be positive")
        if self.n_p < 2 or self.n_q < 2:
            raise ValueError("node counts must be >= 2")
        if self.rule not in QUADRATURE_RULES:
            raise ValueError(f"unknown quadrature rule {self.rule!r}")
        if not 0.0 < self.boundary_weight_tol < 1.0:
            raise ValueError("boundary_weight_tol must be in (0, 1)")

    def axis(self, half_width: float, n: int):
        if self.rule == "gauss-legendre":
            x, w = leggauss(n)
            return half_width * x, half_width * w
        x = np.linspace(-half_width, half_width, n)
        w = np.full(n, 2.0 * half_width / (n - 1))
        w[0] *= 0.5
        w[-1] *= 0.5
        return x, w

    def nodes(self):
        """Flattened (P, Q, weight) arrays for the tensor grid."""
        xp, wp = self.axis(self.p_max, self.n_p)
        xq, wq = self.axis(self.q_max, self.n_q)
        P = np.repeat(xp, self.n_q)
        Q = np.tile(xq, self.n_p)
        W = np.outer(wp, wq).ravel()
        return P, Q, W

    def boundary_probes(self):
        p, q = self.p_max, self.q_max
        return (np.array([p, -p, 0.0, 0.0, p, p, -p, -p]),
                np.array([0.0, 0.0, q, -q, q, -q, q, -q]))


@dataclass
class JarzynskiReport:
    """Both sides of the semi-classical work identity plus diagnostics."""

    Z_i: float
    Z_f: float
    lhs: float
    rhs: float
    residual: float
    failures: list = field(default_factory=list)
    n_nodes: int = 0
    prefactor_on: Optional[dict] = None
    monte_carlo: Optional[dict] = None
    diagnostics: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "Z_i": self.Z_i,
            "Z_f": self.Z_f,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "prefactor_on": self.prefactor_on,
            "failures": self.failures,
            "diagnostics": self.diagnostics,
        }


def _collect_failures(P, Q, status) -> list:
    bad = np.flatnonzero(status != OK)
    return [{"p": float(P[i]), "q": float(Q[i]),
             "reason": STATUS_NAMES[int(status[i])]} for i in bad]


def _check_domain(model, t, beta, hbar, domain, settings) -> None:
    """Boundary weight must be below the domain's edge-to-peak tolerance."""
    hbar_beta = beta * hbar
    pp, qq = domain.boundary_probes()
    tp = np.concatenate([pp, [0.0]])
    tq = np.concatenate([qq, [0.0]])
    _, _, g, _, _ = _pseudo_hamiltonian_batch(model, t, tp, tq, hbar_beta,
                                              settings)
    if np.any(np.isnan(g)):
        raise DomainTooSmall(
            "boundary probe solve failed (first caustic reached); shrink "
            "the domain or hbar*beta")
    g_peak = g[-1]
    drop = beta * (g[:-1] - g_peak)
    tol = domain.boundary_weight_tol
    if np.min(drop) < -np.log(tol):
        raise DomainTooSmall(
            f"boundary weight ratio {np.exp(-np.min(drop)):.3e} exceeds "
            f"{tol:.1e}; enlarge the quadrature domain")


def partition(model: HamiltonianModel, t: float, beta: float, hbar: float,
              domain: QuadratureDomain,
              settings: IntegratorSettings = DEFAULT_SETTINGS,
              check_domain: bool = True,
              with_prefactor: bool = False) -> float:
    """Phase-space integral of exp(-beta * G_t) over the domain."""
    if check_domain:
        _check_domain(model, t, beta, hbar, domain, settings)
    hbar_beta = beta * hbar
    P, Q, W = domain.nodes()
    solve, arcs, g, _, _ = _pseudo_hamiltonian_batch(
        model, t, P, Q, hbar_beta, settings)
    if np.any(solve.status != OK):
        failures = _collect_failures(P, Q, solve.status)
        raise NewtonDiverged(
            f"partition lost {len(failures)} node(s); first: {failures[0]}")
    weight = np.exp(-beta * g)
    if with_prefactor:
        geom = _prefactor_batch(model, arcs, settings)
        weight = weight * geom / (2.0 * np.pi * hbar)
    return float(np.sum(W * weight))


def propagated_partition(model: HamiltonianModel, t_i: float, t_f: float,
                         beta: float, hbar: float, domain: QuadratureDomain,
                         settings: IntegratorSettings = DEFAULT_SETTINGS,
                         check_domain: bool = True) -> float:
    """Partition integral of the propagated pseudo-energy exp(-beta G_prop).

    The t_f solve is reached by one ``pseudowork._march`` over
    ``_MARCH_STAGES + 1`` equal stage times from t_i, with the work march's
    predicted warm starts, so it tracks the physical stationary branch; a
    cold solve at the full span can converge onto a spurious one.  The last
    stage's solve and arcs give G_prop.  Raises ``NewtonDiverged`` if any
    node fails at any stage.
    """
    if check_domain:
        _check_domain(model, t_i, beta, hbar, domain, settings)
    hbar_beta = beta * hbar
    P, Q, W = domain.nodes()
    stages = (np.linspace(t_i, t_f, _MARCH_STAGES + 1) if t_f > t_i
              else np.array([t_i]))
    status = np.full(P.size, OK, dtype=np.int8)
    for live, solve in _march(model, t_i, stages, P, Q, hbar_beta, settings):
        status[live] = solve.status
    if np.any(status != OK):
        failures = _collect_failures(P, Q, status)
        raise NewtonDiverged(
            f"propagated partition lost {len(failures)} node(s); "
            f"first: {failures[0]}")
    arcs = _build_arc_batch(model, t_f, solve.zc_p, solve.zc_q, hbar_beta,
                            settings)
    g_prop, _, _ = _propagated_g_batch(
        model, t_i, t_f, P, Q, hbar_beta, settings, solve, arcs)
    return float(np.sum(W * np.exp(-beta * g_prop)))


def _monte_carlo_lhs(model, t_i, t_f, beta, hbar, domain, settings,
                     n_samples: int, seed: int) -> dict:
    """Rejection-sample the initial thermal weight, then average exp(-bW)."""
    hbar_beta = beta * hbar
    rng = np.random.default_rng(seed)
    # peak estimate for the acceptance bound from a coarse grid scan
    coarse = QuadratureDomain(domain.p_max, domain.q_max, 17, 17, "trapezoid")
    cp, cq, _ = coarse.nodes()
    _, _, g_coarse, _, _ = _pseudo_hamiltonian_batch(
        model, t_i, cp, cq, hbar_beta, settings)
    g_min = float(np.nanmin(g_coarse))
    bound = np.exp(-beta * g_min) * 1.05
    accepted_p, accepted_q = [], []
    proposals = 0
    while sum(len(a) for a in accepted_p) < n_samples and proposals < 400 * n_samples:
        m = max(4 * n_samples, 256)
        pp = rng.uniform(-domain.p_max, domain.p_max, m)
        qq = rng.uniform(-domain.q_max, domain.q_max, m)
        uu = rng.uniform(0.0, 1.0, m)
        proposals += m
        solve, _, g, _, _ = _pseudo_hamiltonian_batch(
            model, t_i, pp, qq, hbar_beta, settings)
        okm = (solve.status == OK) & (uu * bound < np.exp(-beta * g))
        accepted_p.append(pp[okm])
        accepted_q.append(qq[okm])
    P = np.concatenate(accepted_p)[:n_samples]
    Q = np.concatenate(accepted_q)[:n_samples]
    out = _pseudo_work_batch(model, t_i, t_f, P, Q, hbar_beta, settings,
                             nodes=_gauss_legendre_nodes(t_i, t_f))
    ok = out["status"] == OK
    lhs = float(np.mean(np.exp(-beta * out["W"][ok])))
    return {
        "lhs": lhs,
        "samples": int(np.sum(ok)),
        "requested_samples": int(n_samples),
        "seed": int(seed),
        "acceptance_rate": float(P.size / max(proposals, 1)),
    }


def _march_diagnostics(out: dict, ok: np.ndarray) -> dict:
    """Deterministic solver counts and consistency residuals of the march.

    work_nodes is the number of time nodes the march visited; node_solves
    and newton_iters cover every (quadrature node, time node) solve it ran
    (a node is not solved again after a failed time node); max_g_imag
    (|Im G_prop|) and max_chord_gap (distance of the reconstructed t_i
    chord midpoint from its node) cover the OK nodes.
    """
    return {
        "work_nodes": int(out["times"].size),
        "node_solves": int(out["node_solves"]),
        "newton_iters": int(np.sum(out["newton_iters"])),
        "max_g_imag": float(np.max(out["g_imag"][ok], initial=0.0)),
        "max_chord_gap": float(np.max(out["chord_gap"][ok], initial=0.0)),
    }


def verify_identity(model: HamiltonianModel, beta: float, hbar: float,
                    domain: QuadratureDomain,
                    settings: IntegratorSettings = DEFAULT_SETTINGS,
                    with_prefactor: bool = False,
                    monte_carlo: bool = False,
                    mc_samples: int = 2000,
                    seed: int = 0,
                    failure_budget: float = 0.01) -> JarzynskiReport:
    """Check lhs = <exp(-beta W)> against rhs = Z_prop / Z_i numerically.

    The protocol window [t_i, t_f] is taken from the model; the work march
    visits t_i, the Gauss-Legendre times of ``_gauss_legendre_nodes`` and
    t_f.  Node solves that fail are reported with coordinates; more than
    ``failure_budget`` of them aborts the report.
    """
    t_i, t_f = model.protocol.t_i, model.protocol.t_f
    _check_domain(model, t_i, beta, hbar, domain, settings)
    hbar_beta = beta * hbar
    P, Q, W = domain.nodes()
    out = _pseudo_work_batch(model, t_i, t_f, P, Q, hbar_beta, settings,
                             with_prefactor=with_prefactor,
                             nodes=_gauss_legendre_nodes(t_i, t_f))
    failures = _collect_failures(P, Q, out["status"])
    if len(failures) > failure_budget * P.size:
        raise NewtonDiverged(
            f"{len(failures)} of {P.size} quadrature nodes failed "
            f"(> {100 * failure_budget:.0f}% budget)")
    ok = out["status"] == OK
    w_quad = W[ok]
    g_i = out["g_initial"][ok]
    g_prop = out["g_propagated"][ok]
    work = out["W"][ok]
    z_i = float(np.sum(w_quad * np.exp(-beta * g_i)))
    z_f = float(np.sum(w_quad * np.exp(-beta * g_prop)))
    lhs = float(np.sum(w_quad * np.exp(-beta * (g_i + work))) / z_i)
    rhs = z_f / z_i
    report = JarzynskiReport(
        Z_i=z_i, Z_f=z_f, lhs=lhs, rhs=rhs,
        residual=abs(lhs - rhs) / abs(rhs),
        failures=failures, n_nodes=int(P.size),
        diagnostics=_march_diagnostics(out, ok))

    if with_prefactor:
        # static partitions at both protocol ends with the geometric
        # prefactor restored, to expose the next-order correction; the t_i
        # side reuses the work march's first-node solves and prefactors
        geom = out["prefactor_initial"][ok]
        zn_i = float(np.sum(w_quad * (np.exp(-beta * g_i) * geom
                                      / (2.0 * np.pi * hbar))))
        zn_f = partition(model, t_f, beta, hbar, domain, settings,
                         check_domain=False, with_prefactor=True)
        n_weight = geom / (2.0 * np.pi * hbar)
        lhs_n = float(np.sum(w_quad * n_weight * np.exp(-beta * (g_i + work)))
                      / zn_i)
        rhs_n = zn_f / zn_i
        report.prefactor_on = {
            "Z_i": zn_i, "Z_f": zn_f, "lhs": lhs_n, "rhs": rhs_n,
            "residual": abs(lhs_n - rhs_n) / abs(rhs_n),
        }
    if monte_carlo:
        report.monte_carlo = _monte_carlo_lhs(
            model, t_i, t_f, beta, hbar, domain, settings, mc_samples, seed)
    return report
