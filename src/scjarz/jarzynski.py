"""Semi-classical partition functions and the pseudo-work identity check.

The left side averages exp(-beta * W) over initial conditions drawn from the
semi-classical thermal weight exp(-beta * G_initial); the right side is the
ratio of the propagated and initial partition functions.  Both sides share
one deterministic tensor-product quadrature, so the reported residual
isolates the path-versus-endpoint work error rather than quadrature noise.
The Simpson sums over arc and time samples accumulate row by row in a fixed
order (``dynamics.weighted_sum``), so every node's values are the same
whatever the batch width, row chunking or BLAS threading; the sums over
quadrature nodes then run once over the full node set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .dynamics import DEFAULT_SETTINGS, IntegratorSettings
from .errors import DomainTooSmall, NewtonDiverged
from .models import HamiltonianModel
from .pseudowork import _propagated_g_batch, _pseudo_work_batch
from .stationary import (CAUSTIC, OK, _prefactor_batch,
                         _pseudo_hamiltonian_batch)

QUADRATURE_RULES = ("gauss-legendre", "trapezoid")


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

    def to_dict(self) -> dict:
        return {
            "Z_i": self.Z_i,
            "Z_f": self.Z_f,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "residual": self.residual,
            "prefactor_on": self.prefactor_on,
            "failures": self.failures,
        }


def _status_name(code: int) -> str:
    return {OK: "ok", CAUSTIC: "caustic"}.get(int(code), "diverged")


def _collect_failures(P, Q, status) -> list:
    bad = np.flatnonzero(status != OK)
    return [{"p": float(P[i]), "q": float(Q[i]),
             "reason": _status_name(status[i])} for i in bad]


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
        geom = _prefactor_batch(model, t, arcs, hbar_beta, settings)
        weight = weight * geom / (2.0 * np.pi * hbar)
    return float(np.sum(W * weight))


def propagated_partition(model: HamiltonianModel, t_i: float, t_f: float,
                         beta: float, hbar: float, domain: QuadratureDomain,
                         settings: IntegratorSettings = DEFAULT_SETTINGS,
                         check_domain: bool = True) -> float:
    """Partition integral of the propagated pseudo-energy exp(-beta G_prop)."""
    if check_domain:
        _check_domain(model, t_i, beta, hbar, domain, settings)
    hbar_beta = beta * hbar
    P, Q, W = domain.nodes()
    solve, g_prop, _, _ = _propagated_g_batch(
        model, t_i, t_f, P, Q, hbar_beta, settings)
    if np.any(solve.status != OK):
        failures = _collect_failures(P, Q, solve.status)
        raise NewtonDiverged(
            f"propagated partition lost {len(failures)} node(s); "
            f"first: {failures[0]}")
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
    out = _pseudo_work_batch(model, t_i, t_f, P, Q, hbar_beta, settings)
    ok = out["status"] == OK
    lhs = float(np.mean(np.exp(-beta * out["W"][ok])))
    return {
        "lhs": lhs,
        "samples": int(np.sum(ok)),
        "requested_samples": int(n_samples),
        "seed": int(seed),
        "acceptance_rate": float(P.size / max(proposals, 1)),
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

    The protocol window [t_i, t_f] is taken from the model.  Node solves
    that fail are reported with coordinates; more than ``failure_budget``
    of them aborts the report.
    """
    t_i, t_f = model.protocol.t_i, model.protocol.t_f
    _check_domain(model, t_i, beta, hbar, domain, settings)
    hbar_beta = beta * hbar
    P, Q, W = domain.nodes()
    out = _pseudo_work_batch(model, t_i, t_f, P, Q, hbar_beta, settings)
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
        failures=failures, n_nodes=int(P.size))

    if with_prefactor:
        # static partitions at both protocol ends with the geometric
        # prefactor restored, to expose the next-order correction
        zn_i = partition(model, t_i, beta, hbar, domain, settings,
                         check_domain=False, with_prefactor=True)
        zn_f = partition(model, t_f, beta, hbar, domain, settings,
                         check_domain=False, with_prefactor=True)
        solve0, arcs0, _, _, _ = _pseudo_hamiltonian_batch(
            model, t_i, P[ok], Q[ok], hbar_beta, settings)
        geom = _prefactor_batch(model, t_i, arcs0, hbar_beta, settings)
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
