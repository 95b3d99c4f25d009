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
the same whatever the batch width or BLAS threading.  Both model families
are even in z = (p, q), so a node's march or static solve is its point
reflection's with the centers negated: the Gauss-Legendre grid is
point-symmetric bit for bit, so the identity's march and ``partition``
each solve half its nodes and fill the other half from their partners
(``_mirror``).  The sums over quadrature nodes then run once over the
full node set.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .dynamics import DEFAULT_SETTINGS, IntegratorSettings, weighted_sum
from .errors import DomainTooSmall, NewtonDiverged
from .models import HamiltonianModel
from .pseudowork import _pseudo_work_batch
from .stationary import (OK, STATUS_NAMES, _finite_prefactors,
                         _pseudo_hamiltonian_batch)


@dataclass(frozen=True)
class QuadratureDomain:
    """Rectangular phase-space domain with a tensor Gauss-Legendre rule.

    boundary_weight_tol bounds the ratio of the largest thermal weight on
    the outermost ring of nodes (``ring()``) to the peak, for each weight a
    sum covers (``_check_domain``).  The 1e-10 default suits harmonic runs;
    anharmonic models can hit their first caustic before the weight drops
    that far, in which case the domain must stop inside the solvable region
    and the tolerance records the looser truncation certificate.
    """

    p_max: float
    q_max: float
    n_p: int = 48
    n_q: int = 48
    boundary_weight_tol: float = 1e-10

    def __post_init__(self):
        if not (self.p_max > 0.0 and self.q_max > 0.0):
            raise ValueError("domain half-widths must be positive")
        if self.n_p < 2 or self.n_q < 2:
            raise ValueError("node counts must be >= 2")
        if not 0.0 < self.boundary_weight_tol < 1.0:
            raise ValueError("boundary_weight_tol must be in (0, 1)")

    def nodes(self):
        """Flattened (P, Q, weight) arrays for the tensor grid.

        Node k's point reflection (-P[k], -Q[k]) is node N-1-k, bit for
        bit: ``leggauss`` symmetrizes its nodes, scaling by a half-width
        keeps signs symmetric, and the repeat/tile order maps node k to
        node N-1-k under reversal.  ``verify_identity`` and ``partition``
        solve the ``_half`` and ``_mirror`` the rest.  Each distinct node
        count's rule is computed once: a square grid shares one.
        """
        rules = {n: leggauss(n) for n in {self.n_p, self.n_q}}
        xp, wp = (self.p_max * a for a in rules[self.n_p])
        xq, wq = (self.q_max * a for a in rules[self.n_q])
        P = np.repeat(xp, self.n_q)
        Q = np.tile(xq, self.n_p)
        W = np.outer(wp, wq).ravel()
        return P, Q, W

    def ring(self):
        """Mask of the outermost ring of nodes, in the order of ``nodes()``."""
        edge_p, edge_q = np.zeros(self.n_p, bool), np.zeros(self.n_q, bool)
        edge_p[[0, -1]] = edge_q[[0, -1]] = True
        return np.logical_or.outer(edge_p, edge_q).ravel()


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
        """Every field, as ``jarzynski.json`` records it."""
        return asdict(self)


def _collect_failures(P, Q, status, t) -> list:
    """Failed nodes with their t_i coordinates, reason and the time ``t``
    of the solve that failed (a scalar, or one per node)."""
    bad = np.flatnonzero(status != OK)
    t = np.broadcast_to(t, status.shape)
    return [{"p": float(P[i]), "q": float(Q[i]), "t": float(t[i]),
             "reason": STATUS_NAMES[int(status[i])]} for i in bad]


def _check_domain(domain, g, beta, end) -> None:
    """Certify the truncation of the weight exp(-beta g) at one end.

    ``g`` holds the pseudo-energy at every node of ``domain.nodes()``, NaN
    where the node did not solve.  Raises DomainTooSmall, naming ``end``,
    if a node on the outermost ring did not solve or the ring's largest
    weight exceeds ``boundary_weight_tol`` times the largest one.
    """
    g_ring = g[domain.ring()]
    lost = int(np.count_nonzero(np.isnan(g_ring)))
    if lost:
        raise DomainTooSmall(f"{lost} outermost node(s) failed at {end}; "
                             "shrink the domain or hbar*beta")
    ratio = np.exp(-beta * (np.min(g_ring) - np.nanmin(g)))
    tol = domain.boundary_weight_tol
    if ratio > tol:
        raise DomainTooSmall(f"boundary weight ratio {ratio:.3e} at {end} "
                             f"exceeds {tol:.1e}; enlarge the domain")


def partition(model: HamiltonianModel, t: float, beta: float, hbar: float,
              domain: QuadratureDomain,
              settings: IntegratorSettings = DEFAULT_SETTINGS,
              with_prefactor: bool = False) -> float:
    """Phase-space integral of exp(-beta * G_t), its domain certified.

    H is even in z = (p, q) (``HamiltonianModel``), so the static solve
    covers the ``_half`` of the grid and ``_mirror`` fills the rest.  The
    fill comes first, so the domain check, the count of lost nodes and
    the prefactor check each read all N nodes.
    """
    P, Q, W = domain.nodes()
    half = _half(P.size)
    solve, g, _ = _pseudo_hamiltonian_batch(
        model, t, P[half], Q[half], beta * hbar, settings)
    g, status = _mirror(P.size, g, solve.status)
    _check_domain(domain, g, beta, f"t={t:g}")
    if np.any(status != OK):
        failures = _collect_failures(P, Q, status, t)
        raise NewtonDiverged(
            f"partition lost {len(failures)} node(s); first: {failures[0]}")
    weight = np.exp(-beta * g)
    if with_prefactor:
        geom = _finite_prefactors(*_mirror(P.size, solve.arcs.prefactor))
        weight = weight * geom / (2.0 * np.pi * hbar)
    return float(np.sum(W * weight))


def _monte_carlo_lhs(model, t_i, t_f, beta, hbar, P, Q, weight, settings,
                     n_samples: int, seed: int) -> dict:
    """Self-normalized importance sampling of <exp(-beta W)> (Owen, Monte
    Carlo theory, methods and examples, 2013, ch. 9), one march per sample.

    The proposal q is the Gaussian with the mean and covariance of the
    quadrature's t_i weight ``weight`` at its nodes ``P``, ``Q``.  Sample k
    weighs exp(-beta G_initial) / q(z_k), G_initial from the march's t_i
    node; failed samples are counted and left out of the sums.  The
    sample march's solver counts and its path/endpoint gap, the mean
    weighted by the normalized sample weights, are its ``diagnostics``.
    """
    wn = weight / np.sum(weight)
    mp, mq = weighted_sum(wn, np.stack([P, Q], axis=1))
    dp, dq = P - mp, Q - mq
    cpp, cpq, cqq = weighted_sum(wn, np.stack([dp * dp, dp * dq, dq * dq], 1))
    # explicit Cholesky factor [[a, 0], [b, c]] of the covariance
    a, b = np.sqrt(cpp), cpq / np.sqrt(cpp)
    c = np.sqrt(cqq - b * b)
    x = np.random.default_rng(seed).standard_normal((2, n_samples))
    out = _pseudo_work_batch(model, t_i, t_f, mp + a * x[0],
                             mq + b * x[0] + c * x[1], beta * hbar, settings)
    ok = out["status"] == OK
    if not np.any(ok):
        raise NewtonDiverged(f"all {n_samples} Monte Carlo samples failed")
    # log w up to the constant log(2 pi a c) of q, which cancels
    log_w = (-beta * out["g_initial"] + 0.5 * (x[0] ** 2 + x[1] ** 2))[ok]
    w = np.exp(log_w - np.max(log_w))
    w /= np.sum(w)
    f = np.exp(-beta * out["W"][ok])
    lhs = float(np.sum(w * f))
    return {"lhs": lhs,
            "std_error": float(np.sqrt(np.sum(w * w * (f - lhs) ** 2))),
            "ess": float(1.0 / np.sum(w * w)),
            "samples": int(w.size), "failed": int(n_samples - w.size),
            "requested_samples": int(n_samples), "seed": int(seed),
            "diagnostics": _march_diagnostics(out) | _work_gap(out, ok, w)}


def _march_diagnostics(out: dict) -> dict:
    """Deterministic solver counts of the march ``out``.

    work_nodes is the number of time nodes the march visited; node_solves
    and newton_iters cover every (column, time node) solve it ran (a column
    is not solved again after a failed time node).  For the identity's
    march these are the counts of the marched half (``_mirrored_march``).
    """
    return {
        "work_nodes": int(out["times"].size),
        "node_solves": int(out["node_solves"]),
        "newton_iters": int(np.sum(out["newton_iters"])),
    }


def _work_gap(out: dict, ok, weight) -> dict:
    """The path/endpoint gap |W - W_endpoint| / (1 + |W|) of the OK columns
    ``ok``: its mean weighted by ``weight`` (one per OK column) and its
    maximum."""
    work = out["W"][ok]
    gap = np.abs(work - out["W_endpoint"][ok]) / (1.0 + np.abs(work))
    return {"work_gap_mean": float(np.sum(weight * gap) / np.sum(weight)),
            "work_gap_max": float(np.max(gap))}


def _half(n: int) -> slice:
    """The nodes of an N-node Gauss-Legendre grid that are solved: the
    first ceil(N/2).  Node k's point reflection is node N-1-k
    (``QuadratureDomain.nodes``), so ``_mirror`` fills the others; an odd
    grid's middle node is its own partner."""
    return slice((n + 1) // 2)


def _mirror(n: int, *half) -> tuple:
    """Each array of ``half``, whose last axis holds the ``_half(n)``
    nodes, filled out to all ``n``: node k >= ceil(N/2) is a copy of its
    partner N-1-k."""
    h = _half(n).stop
    partner = np.concatenate([np.arange(h), np.arange(n - h)[::-1]])
    return tuple(x[..., partner] for x in half)


# The per-start results of a ``_pseudo_work_batch`` march that the
# identity reads; the point reflection z -> -z of a start leaves each one
# as it is
_PER_START = ("W", "W_endpoint", "g_initial", "g_propagated",
              "prefactor_initial", "status", "last_node")


def _mirrored_march(model, t_i, t_f, P, Q, hbar_beta, settings):
    """The identity's march of the quadrature nodes ``P``, ``Q`` and its
    counts.

    H is even in z = (p, q) (``HamiltonianModel``), so the march of -z is
    the march of z, bit for bit, with its centers negated.  Only the
    ``_half`` of the nodes is marched, with no node hook, so the march
    holds one value per column and no per-node array; the result holds
    its ``times`` and its ``_PER_START`` results, which ``_mirror`` fills
    out to every node from its partner's.  The counts are those of the march
    run (``_march_diagnostics``), and mirrored_nodes is the number of
    columns filled from a partner.
    """
    n = P.size
    half = _half(n)
    out = _pseudo_work_batch(model, t_i, t_f, P[half], Q[half], hbar_beta,
                             settings)
    counts = _march_diagnostics(out) | {"mirrored_nodes": n - half.stop}
    full = _mirror(n, *(out[key] for key in _PER_START))
    return {"times": out["times"], **dict(zip(_PER_START, full))}, counts


# Share of the quadrature nodes whose solves may fail before
# ``verify_identity`` refuses to report
_FAILURE_BUDGET = 0.01


def verify_identity(model: HamiltonianModel, beta: float, hbar: float,
                    domain: QuadratureDomain,
                    settings: IntegratorSettings = DEFAULT_SETTINGS,
                    with_prefactor: bool = False,
                    monte_carlo: bool = False,
                    mc_samples: int = 2000,
                    seed: int = 0) -> JarzynskiReport:
    """Check lhs = <exp(-beta W)> against rhs = Z_prop / Z_i numerically.

    The protocol window [t_i, t_f] is taken from the model; the work march
    visits t_i, the Gauss-Legendre times of ``_gauss_legendre_nodes`` and
    t_f, and its weights certify the domain at both ends (DomainTooSmall
    names t_i or t_f).  The grid's first half is marched and its other
    half filled by the point reflection (``_mirrored_march``).  Node solves
    that fail are reported with coordinates; more than ``_FAILURE_BUDGET``
    of them aborts the report, counting them by reason.  The budget is
    checked after the t_i certificate and before the t_f one: a start lost
    in the march has no t_f weight, so the t_f check would otherwise blame
    the domain for a failure with another cause.
    ``diagnostics`` holds the march's solver counts and its path/endpoint
    gap |W - W_endpoint| / (1 + |W|) over the OK nodes: the mean weighted
    by W exp(-beta G_initial) and the maximum.
    """
    t_i, t_f = model.protocol.t_i, model.protocol.t_f
    P, Q, W = domain.nodes()
    out, counts = _mirrored_march(model, t_i, t_f, P, Q, beta * hbar,
                                  settings)
    _check_domain(domain, out["g_initial"], beta, "t_i")
    failures = _collect_failures(P, Q, out["status"],
                                 out["times"][out["last_node"]])
    if len(failures) > _FAILURE_BUDGET * P.size:
        reasons = [f["reason"] for f in failures]
        by_reason = ", ".join(f"{reasons.count(name)} {name}"
                              for name in STATUS_NAMES.values()
                              if name in reasons)
        raise NewtonDiverged(
            f"{len(failures)} of {P.size} quadrature nodes failed "
            f"(> {100 * _FAILURE_BUDGET:.0f}% budget): {by_reason}")
    _check_domain(domain, out["g_propagated"], beta, "t_f")
    ok = out["status"] == OK
    w_quad = W[ok]
    g_i = out["g_initial"][ok]
    g_prop = out["g_propagated"][ok]
    work = out["W"][ok]
    weight_i = w_quad * np.exp(-beta * g_i)
    z_i = float(np.sum(weight_i))
    z_f = float(np.sum(w_quad * np.exp(-beta * g_prop)))
    lhs = float(np.sum(w_quad * np.exp(-beta * (g_i + work))) / z_i)
    rhs = z_f / z_i
    report = JarzynskiReport(
        Z_i=z_i, Z_f=z_f, lhs=lhs, rhs=rhs,
        residual=abs(lhs - rhs) / abs(rhs),
        failures=failures, n_nodes=int(P.size),
        diagnostics=counts | _work_gap(out, ok, weight_i))

    if with_prefactor:
        # static partitions at both protocol ends with the geometric
        # prefactor restored, to expose the next-order correction; the t_i
        # side reuses the work march's first-node solves and prefactors
        geom = _finite_prefactors(out["prefactor_initial"][ok])
        zn_i = float(np.sum(w_quad * (np.exp(-beta * g_i) * geom
                                      / (2.0 * np.pi * hbar))))
        zn_f = partition(model, t_f, beta, hbar, domain, settings,
                         with_prefactor=True)
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
            model, t_i, t_f, beta, hbar, P[ok], Q[ok], weight_i, settings,
            mc_samples, seed)
    return report
