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

from .dynamics import (DEFAULT_SETTINGS, ImaginaryArc, IntegratorSettings,
                       _ArcBatch, _build_arc_batch, _flow_imaginary_batch,
                       _flow_real_batch, _real_step_count, simpson_weights,
                       weighted_sum)
from .errors import ToleranceExceeded, WorkMismatch
from .models import ComplexPoint, HamiltonianModel
from .stationary import OK, SolveBatch, _invert_map_batch


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


def _composite_map_batch(model, t_i, t_f, P, Q, hbar_beta, settings):
    """Frozen-t_f half-flow followed by backward real-time flow, real part."""
    p = np.asarray(P, dtype=complex)
    q = np.asarray(Q, dtype=complex)
    if hbar_beta > 0.0:
        p, q = _flow_imaginary_batch(
            model, t_f, p, q, 0.0, 0.5 * hbar_beta, settings.n_sigma_steps)
    if t_f != t_i:
        n = _real_step_count(model, settings, t_f - t_i)
        p, q = _flow_real_batch(model, t_f, t_i, p, q, n)
    return p.real, q.real


def composite_map(model: HamiltonianModel, t_i: float, t_f: float,
                  z_real: ComplexPoint, hbar_beta: float,
                  settings: IntegratorSettings = DEFAULT_SETTINGS) -> ComplexPoint:
    """Image of a real center under the propagated-construction map."""
    if t_f < t_i:
        raise ValueError("composite map requires t_i <= t_f")
    mp, mq = _composite_map_batch(model, t_i, t_f, np.array([z_real.p]),
                                  np.array([z_real.q]), hbar_beta, settings)
    return ComplexPoint(float(mp[0]), float(mq[0]))


def _solve_pseudo_state_batch(model, t_i, t_f, tp, tq, hbar_beta, settings,
                              warm_p=None, warm_q=None) -> SolveBatch:
    def the_map(P, Q):
        return _composite_map_batch(model, t_i, t_f, P, Q, hbar_beta, settings)

    def scaled(scale):
        def m(P, Q):
            return _composite_map_batch(model, t_i, t_f, P, Q,
                                        scale * hbar_beta, settings)
        return m

    return _invert_map_batch(the_map, tp, tq, settings, warm_p, warm_q,
                             continuation=scaled)


def solve_pseudo_state(model: HamiltonianModel, t_i: float, t_f: float,
                       target: ComplexPoint, hbar_beta: float,
                       settings: IntegratorSettings = DEFAULT_SETTINGS,
                       warm_start: Optional[ComplexPoint] = None) -> PseudoState:
    """Invert the composite map and assemble the frozen-t_f arc."""
    tp = np.array([target.p.real])
    tq = np.array([target.q.real])
    wp = None if warm_start is None else np.array([warm_start.p.real])
    wq = None if warm_start is None else np.array([warm_start.q.real])
    solve = _solve_pseudo_state_batch(model, t_i, t_f, tp, tq, hbar_beta,
                                      settings, warm_p=wp, warm_q=wq)
    solve.raise_on_failure()
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


def pseudo_power(model: HamiltonianModel, t: float, arc: ImaginaryArc,
                 settings: IntegratorSettings = DEFAULT_SETTINGS) -> float:
    """Explicit-power average over one frozen-time arc."""
    batch = _ArcBatch(t=t, hbar_beta=arc.hbar_beta, sigma=arc.sigma,
                      p=arc.p_samples[:, None], q=arc.q_samples[:, None],
                      center_p=np.array([arc.center.p]),
                      center_q=np.array([arc.center.q]))
    batch.finalize(model)
    power, imag = _pseudo_power_batch(model, batch)
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
                        warm_p=None, warm_q=None, march_stages: int = 8):
    """Endpoint evaluation of the propagated pseudo-energy G_prop.

    Without a caller-supplied warm start the solve marches the final time
    from t_i to t_f, tracking the physical stationary branch continuously;
    a cold solve at the full span can converge onto a spurious branch.
    Returns (solve, g_prop, imag_residual, chord_gap); chord_gap is the
    distance between the reconstructed t_i chord midpoint and the target.
    """
    if warm_p is None and t_f > t_i and march_stages > 1:
        warm_p = np.asarray(tp, dtype=float).copy()
        warm_q = np.asarray(tq, dtype=float).copy()
        for t_stage in np.linspace(t_i, t_f, march_stages + 1)[1:-1]:
            stage = _solve_pseudo_state_batch(
                model, t_i, t_stage, tp, tq, hbar_beta, settings,
                warm_p=warm_p, warm_q=warm_q)
            good = stage.status == OK
            warm_p[good] = stage.zc_p[good]
            warm_q[good] = stage.zc_q[good]
    solve = _solve_pseudo_state_batch(model, t_i, t_f, tp, tq, hbar_beta,
                                      settings, warm_p=warm_p, warm_q=warm_q)
    good = solve.status == OK
    arcs = _build_arc_batch(model, t_f, solve.zc_p[good].astype(complex),
                            solve.zc_q[good].astype(complex),
                            hbar_beta, settings)
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
    return solve, g_prop, imag, chord_gap


def _pseudo_work_batch(model, t_i, t_f, tp, tq, hbar_beta, settings):
    """Work along the pseudo-trajectory for a batch of initial points.

    Returns a dict of arrays; columns whose solves fail at any node carry
    status != OK and NaN work values.
    """
    tp = np.asarray(tp, dtype=float)
    tq = np.asarray(tq, dtype=float)
    b = tp.shape[0]
    n_t = settings.n_time_steps
    times = np.linspace(t_i, t_f, n_t + 1)
    power = np.zeros((n_t + 1, b))
    center_p = np.zeros((n_t + 1, b))
    center_q = np.zeros((n_t + 1, b))
    plus_p = np.zeros((n_t + 1, b), dtype=complex)
    plus_q = np.zeros((n_t + 1, b), dtype=complex)
    minus_p = np.zeros((n_t + 1, b), dtype=complex)
    minus_q = np.zeros((n_t + 1, b), dtype=complex)
    check_p = np.zeros((n_t + 1, b))
    check_q = np.zeros((n_t + 1, b))
    residual = np.zeros((n_t + 1, b))
    status = np.zeros(b, dtype=np.int8)
    g_initial = np.full(b, np.nan)

    warm_p, warm_q = tp.copy(), tq.copy()
    for j, tj in enumerate(times):
        solve = _solve_pseudo_state_batch(model, t_i, tj, tp, tq, hbar_beta,
                                          settings, warm_p=warm_p, warm_q=warm_q)
        bad = solve.status != OK
        status[bad & (status == OK)] = solve.status[bad & (status == OK)]
        good = solve.status == OK
        arcs = _build_arc_batch(model, tj, solve.zc_p[good].astype(complex),
                                solve.zc_q[good].astype(complex),
                                hbar_beta, settings)
        pw, _ = _pseudo_power_batch(model, arcs)
        power[j, good] = pw
        power[j, ~good] = np.nan
        center_p[j], center_q[j] = solve.zc_p, solve.zc_q
        plus_p[j, good], plus_q[j, good] = arcs.p[-1], arcs.q[-1]
        minus_p[j, good], minus_q[j, good] = arcs.p[0], arcs.q[0]
        check_p[j, good] = arcs.mid_p.real
        check_q[j, good] = arcs.mid_q.real
        residual[j] = solve.residual
        if j == 0:
            h_center = model.value(tj, arcs.center_p, arcs.center_q).real
            g_initial[good] = h_center - arcs.area / hbar_beta
        warm_p, warm_q = solve.zc_p.copy(), solve.zc_q.copy()

    if t_f > t_i:
        work = weighted_sum(simpson_weights(n_t + 1, (t_f - t_i) / n_t), power)
    else:
        work = np.zeros(b)

    final_solve, g_prop, g_imag, chord_gap = _propagated_g_batch(
        model, t_i, t_f, tp, tq, hbar_beta, settings,
        warm_p=center_p[-1], warm_q=center_q[-1])
    bad = final_solve.status != OK
    status[bad & (status == OK)] = final_solve.status[bad & (status == OK)]

    return {
        "times": times,
        "power": power,
        "center_p": center_p, "center_q": center_q,
        "plus_p": plus_p, "plus_q": plus_q,
        "minus_p": minus_p, "minus_q": minus_q,
        "check_p": check_p, "check_q": check_q,
        "residual": residual,
        "status": status,
        "W": work,
        "g_initial": g_initial,
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
        SolveBatch(np.zeros(1), np.zeros(1), np.zeros(1),
                   np.zeros(1, dtype=int), np.zeros(1),
                   out["status"][:1], []).raise_on_failure()
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
