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
                       simpson_weights, weighted_sum)
from .errors import WorkMismatch
from .models import ComplexPoint, HamiltonianModel
from .stationary import (OK, _composite_map_batch, _invert_map_batch,
                         _propagated_g_batch, _raise_failed)


@dataclass(frozen=True)
class PseudoState:
    """Stationary construction for one initial point and final time; ``arc``
    is the solve's own width-1 arc at t_f."""

    z_c: ComplexPoint
    arc: ImaginaryArc
    check: ComplexPoint
    residual: float
    jacobian_det: float
    newton_iters: int


@dataclass(frozen=True)
class PseudoTrajectory:
    """Time-indexed record of one pseudo-trajectory.

    plus/minus are the frozen-time arc endpoints at each node; the center
    is real, so minus is the conjugate of plus, formed on read as the arc
    record forms its minus half.  check is the real chord midpoint.
    """

    target: ComplexPoint
    times: np.ndarray
    center_p: np.ndarray
    center_q: np.ndarray
    plus_p: np.ndarray
    plus_q: np.ndarray
    check_p: np.ndarray
    check_q: np.ndarray
    power: np.ndarray
    solve_residual: np.ndarray

    @property
    def minus_p(self) -> np.ndarray:
        return np.conjugate(self.plus_p)

    @property
    def minus_q(self) -> np.ndarray:
        return np.conjugate(self.plus_q)


@dataclass(frozen=True)
class WorkResult:
    """Pseudo-work from the power quadrature and from the endpoint identity."""

    W: float
    W_endpoint: float
    g_initial: float
    g_propagated: float
    trajectory: PseudoTrajectory

    @property
    def mismatch(self) -> float:
        """|W - W_endpoint|, the path/endpoint cross-check."""
        return abs(self.W - self.W_endpoint)

    @property
    def mismatch_tol(self) -> float:
        """The path/endpoint gate, 1e-6 (1 + |W|)."""
        return 1e-6 * (1.0 + abs(self.W))


def composite_map(model: HamiltonianModel, t_i: float, t_f: float,
                  z_real: ComplexPoint, hbar_beta: float,
                  settings: IntegratorSettings = DEFAULT_SETTINGS) -> ComplexPoint:
    """Image of a real center under the propagated-construction map."""
    if t_f < t_i:
        raise ValueError("composite map requires t_i <= t_f")
    mp, mq, _, _ = _composite_map_batch(
        model, t_i, t_f, np.array([z_real.p]), np.array([z_real.q]),
        hbar_beta, settings)
    return ComplexPoint(float(mp[0]), float(mq[0]))


def solve_pseudo_state(model: HamiltonianModel, t_i: float, t_f: float,
                       target: ComplexPoint, hbar_beta: float,
                       settings: IntegratorSettings = DEFAULT_SETTINGS,
                       warm_start: Optional[ComplexPoint] = None) -> PseudoState:
    """Invert the composite map for one real target and build the t_f arc.

    At t_f == t_i this is the static chord-midpoint solve: the returned
    ``z_c`` is the real center whose frozen-t_i arc has its chord midpoint
    at the target.  A warm-started solve climbs no continuation ladder.
    A linear flow (quartic_lambda == 0) ignores ``warm_start``: it starts
    at the exact solution J^-1 target of its linear map.
    Raises ValueError for a non-real target, CausticEncountered or
    NewtonDiverged if the solve fails.
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
    arc = solve.arcs
    return PseudoState(
        z_c=ComplexPoint(float(solve.zc_p[0]), float(solve.zc_q[0])),
        arc=arc,
        check=ComplexPoint(float(arc.mid_p[0].real), float(arc.mid_q[0].real)),
        residual=float(solve.residual[0]),
        jacobian_det=float(solve.det[0]),
        newton_iters=int(solve.iters[0]),
    )


def _pseudo_power_batch(model, arcs: ImaginaryArc):
    """Arc-averaged explicit power (1/hbar*beta) int dH/dt dsigma; dH/dt
    at the conjugate point is the conjugate, so the integral is 2 Re S
    (``ImaginaryArc.half_weights``)."""
    dth = model.dt(arcs.t, arcs.p, arcs.q)
    half = weighted_sum(arcs.half_weights, dth)
    return 2.0 * half.real / arcs.hbar_beta


def pseudo_power(model: HamiltonianModel, arc: ImaginaryArc) -> float:
    """Explicit-power average over one frozen-time arc (a width-1 batch).

    The drive is taken at the arc's frozen time ``arc.t`` and the average
    over its span ``arc.hbar_beta``.  Raises ValueError for a batch of
    more than one arc.
    """
    if arc.p.shape[1] != 1:
        raise ValueError(f"pseudo_power takes one arc, got {arc.p.shape[1]}")
    return float(_pseudo_power_batch(model, arc)[0])


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
    for G_initial (and the prefactor) and for G_prop.  A zero-length
    window (t_f == t_i) is the single node t_i with weight 0.
    """
    if t_f == t_i:
        return np.array([t_i]), np.array([0.0])
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
                       nodes=None):
    """Work along the pseudo-trajectory for a batch of initial points.

    One ``_march`` over the time nodes: at most one composite-map solve per
    column and node.  Each solve hands over its arcs (``SolveBatch.arcs``):
    the power is read from every node's, G_initial (the area form,
    ``ImaginaryArc.g``) and the prefactor ("prefactor_initial", NaN where it
    is not finite) from the first node's, and the t_f node's solve gives
    the endpoint G_prop (``_propagated_g_batch``).
    ``nodes`` is a ``(times, weights)`` pair running from t_i to t_f, the
    work being ``weighted_sum(weights, power)``; by default it is the
    uniform grid of n_time_steps + 1 nodes with composite Simpson weights
    (the trajectory of ``scjarz work`` and ``pseudo_work``), or the single
    node t_i when t_f == t_i.  ``_gauss_legendre_nodes`` gives the
    identity's rule.  Returns a dict of arrays; a column whose solve fails
    at a node carries that solve's status and NaN work values.  Per-node
    entries are NaN where a column was not solved (the centers, residuals
    and Jacobian determinants "det") or not OK (the arc quantities).
    "newton_iters" counts each column's Newton iterations over the march,
    "node_solves" the column solves run.
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
    plus_p, plus_q = per_node(complex), per_node(complex)
    status = np.full(b, OK, dtype=np.int8)
    newton_iters = np.zeros(b, dtype=int)
    node_solves = 0
    g_initial, prefactor_initial = (np.full(b, np.nan) for _ in range(2))

    march = _march(model, t_i, times, tp, tq, hbar_beta, settings)
    for j, (live, solve) in enumerate(march):
        ok = solve.status == OK
        good = live[ok]
        status[live] = solve.status
        newton_iters[live] += solve.iters
        node_solves += live.size
        center_p[j, live], center_q[j, live] = solve.zc_p, solve.zc_q
        residual[j, live], det[j, live] = solve.residual, solve.det
        arcs = solve.arcs
        power[j, good] = _pseudo_power_batch(model, arcs)
        plus_p[j, good], plus_q[j, good] = arcs.p[-1], arcs.q[-1]
        check_p[j, good] = arcs.mid_p.real
        check_q[j, good] = arcs.mid_q.real
        if j == 0:
            g_initial[good] = arcs.g
            prefactor_initial[good] = arcs.prefactor

    if t_f > t_i:
        work = weighted_sum(weights, power)
    else:
        work = np.zeros(b)

    # the march ends at t_f: its last solve is the endpoint's
    g_prop = np.full(b, np.nan)
    g_prop[live] = _propagated_g_batch(model, t_i, tp[live], tq[live],
                                       settings, solve)

    return {
        "times": times,
        "power": power,
        "center_p": center_p, "center_q": center_q,
        "plus_p": plus_p, "plus_q": plus_q,
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
        "W_endpoint": g_prop - g_initial,
    }


def _last_solved_node(out) -> np.ndarray:
    """Per column of a ``_pseudo_work_batch`` result, the last node index
    solved: a failed start's failed node (the march stops a start there)."""
    return np.count_nonzero(~np.isnan(out["center_p"]), axis=0) - 1


def pseudo_work(model: HamiltonianModel, t_i: float, t_f: float,
                target: ComplexPoint, hbar_beta: float,
                settings: IntegratorSettings = DEFAULT_SETTINGS,
                work_tol: Optional[float] = None) -> WorkResult:
    """Pseudo-work for one initial point, with the endpoint cross-check.

    The march runs on the uniform grid of n_time_steps + 1 nodes.  Raises
    CausticEncountered or NewtonDiverged, naming the failed node's time,
    if the start fails, and WorkMismatch if |W - W_endpoint| exceeds
    ``work_tol`` (by default ``WorkResult.mismatch_tol``, 1e-6 (1 + |W|));
    ``work_tol=math.inf`` returns the result whatever the mismatch.
    """
    if t_f < t_i:
        raise ValueError("pseudo_work requires t_i <= t_f")
    out = _pseudo_work_batch(model, t_i, t_f, np.array([target.p.real]),
                             np.array([target.q.real]), hbar_beta, settings)
    if out["status"][0] != OK:
        # the march stops a failed start at its failed node: name that
        # node's time, residual and |det J|
        j = _last_solved_node(out)[0]
        _raise_failed(out["times"][j], out["status"], out["det"][j],
                      out["residual"][j])
    traj = PseudoTrajectory(
        target=target,
        times=out["times"],
        center_p=out["center_p"][:, 0], center_q=out["center_q"][:, 0],
        plus_p=out["plus_p"][:, 0], plus_q=out["plus_q"][:, 0],
        check_p=out["check_p"][:, 0], check_q=out["check_q"][:, 0],
        power=out["power"][:, 0],
        solve_residual=out["residual"][:, 0],
    )
    res = WorkResult(W=float(out["W"][0]),
                     W_endpoint=float(out["W_endpoint"][0]),
                     g_initial=float(out["g_initial"][0]),
                     g_propagated=float(out["g_propagated"][0]),
                     trajectory=traj)
    tol = work_tol if work_tol is not None else res.mismatch_tol
    if res.mismatch > tol:
        raise WorkMismatch(
            f"path work {res.W:.12e} vs endpoint work {res.W_endpoint:.12e} "
            f"differ by {res.mismatch:.3e} > {tol:.3e}")
    return res
