"""Driven-system construction: composite map, pseudo-trajectory, pseudo-work.

For a drive ending at time T, the composite map sends a real center through
the frozen-T imaginary half-flow and then backwards in real time to t_i.
Inverting it anchors a triple of trajectories (two conjugate real-time
branches joined by a frozen-T thermal arc) to the requested initial point.
The chord midpoint of that arc traces the pseudo-trajectory as T sweeps the
protocol, and the arc-averaged explicit power integrates to the pseudo-work.
The same work must equal the difference of propagated and initial
pseudo-energies; both evaluations are produced and compared.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.polynomial.legendre import leggauss

from .dynamics import (DEFAULT_SETTINGS, ImaginaryArc, IntegratorSettings,
                       _ArcBatch, _build_arc_batch, _flow_real_batch,
                       _real_step_count, simpson_weights, weighted_sum)
from .errors import ToleranceExceeded, WorkMismatch
from .models import ComplexPoint, HamiltonianModel
from .stationary import (OK, SolveBatch, _composite_map_batch,
                         _invert_map_batch, _prefactor_batch, _raise_failed)


@dataclass(frozen=True)
class PseudoState:
    """Stationary construction for one initial point and final time."""

    z_c: ComplexPoint
    arc: ImaginaryArc
    check: ComplexPoint
    residual: float
    jacobian_det: float
    newton_iters: int


@dataclass(frozen=True)
class PseudoTrajectory:
    """Time-indexed record of one pseudo-trajectory.

    plus/minus are the frozen-time arc endpoints at each node (conjugate
    pair for a real center); check is the real chord midpoint.
    """

    target: ComplexPoint
    times: np.ndarray
    center_p: np.ndarray
    center_q: np.ndarray
    plus_p: np.ndarray
    plus_q: np.ndarray
    minus_p: np.ndarray
    minus_q: np.ndarray
    check_p: np.ndarray
    check_q: np.ndarray
    power: np.ndarray
    solve_residual: np.ndarray


@dataclass(frozen=True)
class WorkResult:
    """Pseudo-work from the power quadrature and from the endpoint identity."""

    W: float
    W_endpoint: float
    g_initial: float
    g_propagated: float
    trajectory: PseudoTrajectory


def composite_map(model: HamiltonianModel, t_i: float, t_f: float,
                  z_real: ComplexPoint, hbar_beta: float,
                  settings: IntegratorSettings = DEFAULT_SETTINGS) -> ComplexPoint:
    """Image of a real center under the propagated-construction map."""
    if t_f < t_i:
        raise ValueError("composite map requires t_i <= t_f")
    mp, mq, _ = _composite_map_batch(model, t_i, t_f, np.array([z_real.p]),
                                     np.array([z_real.q]), hbar_beta, settings)
    return ComplexPoint(float(mp[0]), float(mq[0]))


def solve_pseudo_state(model: HamiltonianModel, t_i: float, t_f: float,
                       target: ComplexPoint, hbar_beta: float,
                       settings: IntegratorSettings = DEFAULT_SETTINGS,
                       warm_start: Optional[ComplexPoint] = None) -> PseudoState:
    """Invert the composite map for one real target and build the t_f arc.

    At t_f == t_i this is the static chord-midpoint solve: the returned
    ``z_c`` is the real center whose frozen-t_i arc has its chord midpoint
    at the target.  Raises ValueError for a non-real target,
    CausticEncountered or NewtonDiverged if the solve fails.
    """
    if target.p.imag != 0.0 or target.q.imag != 0.0:
        raise ValueError("midpoint inversion expects a real target point")
    tp = np.array([target.p.real])
    tq = np.array([target.q.real])
    wp = None if warm_start is None else np.array([warm_start.p.real])
    wq = None if warm_start is None else np.array([warm_start.q.real])
    solve = _invert_map_batch(model, t_i, t_f, tp, tq, hbar_beta, settings,
                              warm_p=wp, warm_q=wq)
    _raise_failed(t_f, solve.status, solve.det, solve.residual)
    arcs = _build_arc_batch(model, t_f, solve.zc_p.astype(complex),
                            solve.zc_q.astype(complex), hbar_beta, settings)
    arc = arcs.single(0)
    mid = arc.chord_midpoint
    return PseudoState(
        z_c=ComplexPoint(float(solve.zc_p[0]), float(solve.zc_q[0])),
        arc=arc,
        check=ComplexPoint(mid.p.real, mid.q.real),
        residual=float(solve.residual[0]),
        jacobian_det=float(solve.det[0]),
        newton_iters=int(solve.iters[0]),
    )


def _pseudo_power_batch(model, arcs: _ArcBatch):
    """Arc-averaged explicit power (1/hbar*beta) int dH/dt dsigma."""
    n_samples = arcs.sigma.shape[0]
    h = (arcs.sigma[-1] - arcs.sigma[0]) / (n_samples - 1)
    w = simpson_weights(n_samples, h)
    dth = model.dt(arcs.t, arcs.p, arcs.q)
    integral = weighted_sum(w, dth)
    power = integral.real / arcs.hbar_beta
    imag = np.abs(integral.imag) / arcs.hbar_beta
    return power, imag


def pseudo_power(model: HamiltonianModel, arc: ImaginaryArc,
                 settings: IntegratorSettings = DEFAULT_SETTINGS) -> float:
    """Explicit-power average over one frozen-time arc.

    The drive is taken at the arc's frozen time ``arc.t`` and the average
    over its span ``arc.hbar_beta``.  Raises ToleranceExceeded if the
    average's imaginary part exceeds ``settings.tolerance`` times
    1 + |power|.
    """
    power, imag = _pseudo_power_batch(model, _ArcBatch.of(arc))
    scale = 1.0 + abs(float(power[0]))
    if float(imag[0]) > settings.tolerance * scale:
        raise ToleranceExceeded(
            f"pseudo-power imaginary residue {float(imag[0]):.3e}")
    return float(power[0])


def _branch_legs(model, t_i, t_f, arcs: _ArcBatch, settings):
    """Backward real-time branch legs from the arc endpoints to t_i.

    Returns branch endpoints at t_i and the forward-oriented actions
    (S_plus along the branch joined to the sigma=-hb/2 arc endpoint,
    S_minus along the branch joined to sigma=+hb/2).
    """
    b = arcs.center_p.shape[0]
    p0 = np.concatenate([arcs.p[0], arcs.p[-1]])   # [plus-branch, minus-branch]
    q0 = np.concatenate([arcs.q[0], arcs.q[-1]])
    if t_f == t_i:
        action = np.zeros(2 * b, dtype=complex)
        pe, qe = p0, q0
    else:
        n = _real_step_count(model, settings, t_f - t_i)
        pe, qe, acc = _flow_real_batch(model, t_f, t_i, p0, q0, n,
                                       with_action=True)
        action = -acc  # accumulated backwards; forward action flips sign
    plus_end = (pe[:b], qe[:b])
    minus_end = (pe[b:], qe[b:])
    return plus_end, minus_end, action[:b], action[b:]


def _propagated_g_batch(model, t_i, t_f, tp, tq, hbar_beta, settings,
                        solve: SolveBatch, arcs: _ArcBatch):
    """Endpoint evaluation of the propagated pseudo-energy G_prop.

    ``solve`` is the composite-map solve at t_f for the targets (tp, tq)
    and ``arcs`` the frozen-t_f arcs of its OK columns, in column order;
    only the backward branch legs to t_i are integrated here.  Returns
    (g_prop, imag_residual, chord_gap), NaN in the columns that are not
    OK; imag_residual is |Im G_prop| and chord_gap is the distance between
    the reconstructed t_i chord midpoint and the target.
    """
    good = solve.status == OK
    plus_end, minus_end, s_plus, s_minus = _branch_legs(
        model, t_i, t_f, arcs, settings)
    chord = minus_end[1] - plus_end[1]
    tpg = np.asarray(tp, dtype=float)[good]
    tqg = np.asarray(tq, dtype=float)[good]
    s_tot = -(tpg + 0j) * chord + s_plus + arcs.action - s_minus
    g = s_tot / (1j * hbar_beta)
    mid_p = 0.5 * (plus_end[0] + minus_end[0])
    mid_q = 0.5 * (plus_end[1] + minus_end[1])
    gap = np.hypot(np.abs(mid_p - tpg), np.abs(mid_q - tqg))

    g_prop = np.full(np.shape(tp), np.nan)
    imag = np.full(np.shape(tp), np.nan)
    chord_gap = np.full(np.shape(tp), np.nan)
    g_prop[good] = g.real
    imag[good] = np.abs(g.imag)
    chord_gap[good] = gap
    return g_prop, imag, chord_gap


# The warm start of time node j extrapolates the converged centers at up to
# this many preceding nodes with the polynomial through them.  The quartic
# rule (five nodes) is the measured choice: on configs/quartic_ramp.yaml,
# on the uniform grid, the Newton iterations per node solve are 3.08 with
# the last center alone and 2.03 / 1.83 / 1.32 / 1.14 with the quadratic /
# cubic / quartic / quintic rule; the quintic rule's few saved iterations
# did not make the march faster.
_PREDICTOR_NODES = 5

# Gauss-Legendre nodes of the identity's work integral over [t_i, t_f].
# 16 nodes keep every accuracy figure of both shipped configs at or below
# the 65-node Simpson rule's: with 8 nodes the all-node path/endpoint
# mismatch of quartic_ramp rises from 2.1e-5 to 3.1e-5.
_WORK_NODES = 16


def _gauss_legendre_nodes(t_i, t_f):
    """Time nodes and work weights of the identity's march.

    The nodes are t_i, the ``_WORK_NODES`` Gauss-Legendre times of
    [t_i, t_f] and t_f.  The end nodes carry zero weight: they are marched
    for G_initial (and the prefactor) and for G_prop.
    """
    x, w = leggauss(_WORK_NODES)
    half = 0.5 * (t_f - t_i)
    times = np.concatenate([[t_i], t_i + half * (x + 1.0), [t_f]])
    weights = np.concatenate([[0.0], half * w, [0.0]])
    return times, weights


def _lagrange_weights(t_next, hist_t):
    """Weights at ``t_next`` of the polynomial through the nodes ``hist_t``.

    Numerator and denominator products are formed separately, so on a
    uniform dyadic grid (every shipped one) both are exact and the weights
    are exactly the binomial ones (1; 2, -1; 3, -3, 1; ...).
    """
    weights = []
    for j, tj in enumerate(hist_t):
        num = den = 1.0
        for m, tm in enumerate(hist_t):
            if m != j:
                num *= t_next - tm
                den *= tj - tm
        weights.append(num / den)
    return weights


def _predicted_centers(t_next, hist_t, hist_p, hist_q):
    """Warm start for the node at ``t_next`` from the centers of earlier ones.

    ``hist_t`` holds up to ``_PREDICTOR_NODES`` distinct preceding node
    times, newest first, and ``hist_p``/``hist_q`` the converged centers of
    the marched columns there; the centers are extrapolated with the
    polynomial through all of them.  Every column is extrapolated on its
    own, in a fixed expression order, so the prediction does not depend on
    the batch width.
    """
    weights = _lagrange_weights(t_next, hist_t)
    pred_p = weights[0] * hist_p[0]
    pred_q = weights[0] * hist_q[0]
    for w, cp, cq in zip(weights[1:], hist_p[1:], hist_q[1:]):
        pred_p = pred_p + w * cp
        pred_q = pred_q + w * cq
    return pred_p, pred_q


def _march(model, t_i, times, tp, tq, hbar_beta, settings):
    """Composite-map solves of a batch of targets at each node of ``times``.

    Yields ``(live, solve)`` per node, ``solve`` covering the columns
    ``live`` (indices into tp, tq).  The first node is solved from the
    targets and every later one from the centers predicted by the nodes
    before it (``_predicted_centers``).  A column is final at its first
    failed node and is not solved again, so every marched column was OK at
    every earlier node.  A node time equal to the one before (a zero-length
    window) replaces that node in the history, so the extrapolation nodes
    stay distinct.
    """
    live = np.arange(tp.shape[0])
    hist_t, hist_p, hist_q = [], [], []
    for tj in times:
        warm_p, warm_q = (_predicted_centers(tj, hist_t, hist_p, hist_q)
                          if hist_t else (None, None))
        solve = _invert_map_batch(model, t_i, tj, tp[live], tq[live],
                                  hbar_beta, settings,
                                  warm_p=warm_p, warm_q=warm_q)
        yield live, solve
        ok = solve.status == OK
        live = live[ok]
        older = slice(1 if hist_t and tj == hist_t[0] else 0,
                      _PREDICTOR_NODES - 1)
        hist_t = [tj] + hist_t[older]
        hist_p = [solve.zc_p[ok]] + [c[ok] for c in hist_p[older]]
        hist_q = [solve.zc_q[ok]] + [c[ok] for c in hist_q[older]]


def _pseudo_work_batch(model, t_i, t_f, tp, tq, hbar_beta, settings,
                       with_prefactor=False, nodes=None):
    """Work along the pseudo-trajectory for a batch of initial points.

    One ``_march`` over the time nodes: at most one composite-map solve per
    column and node, and the t_f node's solve and arcs also give the
    endpoint G_prop.  ``nodes`` is a ``(times, weights)`` pair running from
    t_i to t_f, the work being ``weighted_sum(weights, power)``; by default
    it is the uniform grid of n_time_steps + 1 nodes with composite Simpson
    weights (the trajectory of ``scjarz work`` and ``pseudo_work``), or the
    single node t_i when t_f == t_i.  ``_gauss_legendre_nodes`` gives the
    identity's rule.  Returns a dict of arrays; a column whose solve fails
    at a node carries that solve's status and NaN work values.  Per-node
    entries are NaN where a column was not solved (the centers, residuals
    and Jacobian determinants "det") or not OK (the arc quantities).
    "newton_iters" counts each column's Newton iterations over the march,
    "node_solves" the column solves run.
    ``with_prefactor`` adds the geometric prefactor of the t_i arcs
    ("prefactor_initial").
    """
    tp = np.asarray(tp, dtype=float)
    tq = np.asarray(tq, dtype=float)
    b = tp.shape[0]
    if nodes is None and t_f == t_i:
        nodes = (np.array([t_i]), np.array([0.0]))
    elif nodes is None:
        n_t = settings.n_time_steps
        nodes = (np.linspace(t_i, t_f, n_t + 1),
                 simpson_weights(n_t + 1, (t_f - t_i) / n_t))
    times, weights = nodes

    def per_node(dtype=float):
        return np.full((times.size, b), np.nan, dtype=dtype)

    power, center_p, center_q, check_p, check_q, residual, det = (
        per_node() for _ in range(7))
    plus_p, plus_q, minus_p, minus_q = (per_node(complex) for _ in range(4))
    status = np.full(b, OK, dtype=np.int8)
    newton_iters = np.zeros(b, dtype=int)
    node_solves = 0
    g_initial = np.full(b, np.nan)
    prefactor_initial = np.full(b, np.nan)

    march = _march(model, t_i, times, tp, tq, hbar_beta, settings)
    for j, (live, solve) in enumerate(march):
        tj = times[j]
        ok = solve.status == OK
        good = live[ok]
        status[live] = solve.status
        newton_iters[live] += solve.iters
        node_solves += live.size
        center_p[j, live], center_q[j, live] = solve.zc_p, solve.zc_q
        residual[j, live], det[j, live] = solve.residual, solve.det
        arcs = _build_arc_batch(model, tj, solve.zc_p[ok], solve.zc_q[ok],
                                hbar_beta, settings)
        power[j, good], _ = _pseudo_power_batch(model, arcs)
        plus_p[j, good], plus_q[j, good] = arcs.p[-1], arcs.q[-1]
        minus_p[j, good], minus_q[j, good] = arcs.p[0], arcs.q[0]
        check_p[j, good] = arcs.mid_p.real
        check_q[j, good] = arcs.mid_q.real
        if j == 0:
            h_center = model.value(tj, arcs.center_p, arcs.center_q).real
            g_initial[good] = h_center - arcs.area / hbar_beta
            if with_prefactor:
                prefactor_initial[good] = _prefactor_batch(model, arcs,
                                                           settings)

    if t_f > t_i:
        work = weighted_sum(weights, power)
    else:
        work = np.zeros(b)

    # the march ends at t_f: its last solve and arcs are the endpoint's
    g_prop, g_imag, chord_gap = (np.full(b, np.nan) for _ in range(3))
    g_prop[live], g_imag[live], chord_gap[live] = _propagated_g_batch(
        model, t_i, t_f, tp[live], tq[live], hbar_beta, settings, solve, arcs)

    return {
        "times": times,
        "power": power,
        "center_p": center_p, "center_q": center_q,
        "plus_p": plus_p, "plus_q": plus_q,
        "minus_p": minus_p, "minus_q": minus_q,
        "check_p": check_p, "check_q": check_q,
        "residual": residual,
        "det": det,
        "status": status,
        "newton_iters": newton_iters,
        "node_solves": node_solves,
        "W": work,
        "g_initial": g_initial,
        "prefactor_initial": prefactor_initial,
        "g_propagated": g_prop,
        "g_imag": g_imag,
        "chord_gap": chord_gap,
        "W_endpoint": g_prop - g_initial,
    }


def pseudo_work(model: HamiltonianModel, t_i: float, t_f: float,
                target: ComplexPoint, hbar_beta: float,
                settings: IntegratorSettings = DEFAULT_SETTINGS,
                work_tol: Optional[float] = None) -> WorkResult:
    """Pseudo-work for one initial point, with the endpoint cross-check."""
    if t_f < t_i:
        raise ValueError("pseudo_work requires t_i <= t_f")
    out = _pseudo_work_batch(model, t_i, t_f, np.array([target.p.real]),
                             np.array([target.q.real]), hbar_beta, settings)
    if out["status"][0] != OK:
        # the march stops a start at its first failed node, its last solved
        j = np.flatnonzero(~np.isnan(out["center_p"][:, 0]))[-1]
        _raise_failed(out["times"][j], out["status"][:1], out["det"][j],
                      out["residual"][j])
    w = float(out["W"][0])
    w_end = float(out["W_endpoint"][0])
    tol = work_tol if work_tol is not None else 1e-6 * (1.0 + abs(w))
    if abs(w - w_end) > tol:
        raise WorkMismatch(
            f"path work {w:.12e} vs endpoint work {w_end:.12e} "
            f"differ by {abs(w - w_end):.3e} > {tol:.3e}")
    traj = PseudoTrajectory(
        target=target,
        times=out["times"],
        center_p=out["center_p"][:, 0], center_q=out["center_q"][:, 0],
        plus_p=out["plus_p"][:, 0], plus_q=out["plus_q"][:, 0],
        minus_p=out["minus_p"][:, 0], minus_q=out["minus_q"][:, 0],
        check_p=out["check_p"][:, 0], check_q=out["check_q"][:, 0],
        power=out["power"][:, 0],
        solve_residual=out["residual"][:, 0],
    )
    return WorkResult(W=w, W_endpoint=w_end,
                      g_initial=float(out["g_initial"][0]),
                      g_propagated=float(out["g_propagated"][0]),
                      trajectory=traj)
