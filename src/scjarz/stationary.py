"""Inversion of the chord-midpoint map and the pseudo-Hamiltonian G.

The half-arc flow sends a real center to the real midpoint of the arc's
chord; inverting that map selects, for a requested real phase-space point,
the unique thermal arc whose chord is centered there.  The map is the
composite map of the driven construction (frozen-t_f half-flow, then
backward real-time flow to t_i) at t_f = t_i, so one map and one Newton
engine serve both.  G is then the center energy minus the enclosed area
per unit imaginary time,

    G(p, q) = H_t(center) - A / (hbar*beta),

cross-checked against the total-action evaluation of the same quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

import numpy as np

from .dynamics import (DEFAULT_SETTINGS, ImaginaryArc, IntegratorSettings,
                       _ArcBatch, _build_arc_batch, _check_finite,
                       _flow_imaginary_batch, _flow_real_batch,
                       _real_step_count)
from .errors import CausticEncountered, NewtonDiverged
from .models import ComplexPoint, HamiltonianModel

# status codes for batched solves
OK = 0
CAUSTIC = 1
DIVERGED = 2
STATUS_NAMES = {OK: "ok", CAUSTIC: "caustic", DIVERGED: "diverged"}

# map(P, Q) -> (mp, mq, J) with the real 2x2 Jacobians J of shape (2, 2, B)
MapFn = Callable[[np.ndarray, np.ndarray],
                 tuple[np.ndarray, np.ndarray, np.ndarray]]


def _quiet():
    """Fresh errstate: blown-up trial flows must not spam warnings."""
    return np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class PseudoHamiltonianValue:
    """G evaluated two ways, with the solved arc attached."""

    G: float
    G_from_total_action: float
    z_c: ComplexPoint
    arc: ImaginaryArc
    jacobian_det: float
    imag_residual: float
    prefactor: Optional[float] = None


@dataclass
class SolveBatch:
    """Vectorized solve record; one entry per target point."""

    zc_p: np.ndarray
    zc_q: np.ndarray
    det: np.ndarray
    iters: np.ndarray
    residual: np.ndarray
    status: np.ndarray              # OK / CAUSTIC / DIVERGED
    stage_residuals: list           # per continuation stage, max over batch


def _raise_failed(t, status, det, residual) -> None:
    """Raise for the first failed column of a solve at time ``t``.

    A caustic column takes precedence over a stalled one; the message
    names the time, the column's residual and its |det J|.
    """
    for code, error, what in (
            (CAUSTIC, CausticEncountered, "stationary-phase Jacobian degenerate"),
            (DIVERGED, NewtonDiverged, "midpoint inversion stalled")):
        if np.any(status == code):
            idx = int(np.argmax(status == code))
            raise error(f"{what} at t={t:g} (residual {residual[idx]:.3e}, "
                        f"|det|={abs(det[idx]):.3e})")


def _composite_map_batch(model, t_i, t_f, P, Q, hbar_beta, settings):
    """Frozen-t_f half-flow followed by backward real-time flow, real part.

    Also returns the Jacobian Re(M_real @ M_imag) of shape (2, 2, B): the
    map is holomorphic in a real center, so it is the real part of the
    chained monodromy of the two flows.  At t_f == t_i the real-time leg
    is skipped and this is the chord-midpoint map of the static arc.
    """
    p, q, jac = _flow_imaginary_batch(
        model, t_f, np.asarray(P, dtype=complex), np.asarray(Q, dtype=complex),
        0.0, 0.5 * hbar_beta, settings.n_sigma_steps, tangent=True)
    if t_f != t_i:
        n = _real_step_count(model, settings, t_f - t_i)
        p, q, m_real = _flow_real_batch(model, t_f, t_i, p, q, n, tangent=True)
        jac = m_real[:, 0, None] * jac[0] + m_real[:, 1, None] * jac[1]
    return p.real, q.real, jac.real


def _newton_stage(map_fn: MapFn, tp, tq, gp, gq, settings):
    """Damped Newton on F(z) = map(z) - target for one batch.

    Each step inverts the Jacobian that came with the last accepted map
    evaluation, so an iteration costs one map evaluation per trial.
    Returns (gp, gq, det, iters, residual, status), det taken at the final
    point; points whose Jacobian there (or at any iterate) is near-singular
    are flagged CAUSTIC, stalled ones DIVERGED.  Trial points whose flows
    blow up yield NaN residuals, which the damping logic rejects like any
    non-improving step.
    """
    b = tp.shape[0]
    gp = np.array(gp, dtype=float, copy=True)
    gq = np.array(gq, dtype=float, copy=True)
    status = np.full(b, DIVERGED, dtype=np.int8)
    iters = np.zeros(b, dtype=int)
    with _quiet():
        mp, mq, jac = map_fn(gp, gq)
        jac = np.array(jac, dtype=float)
        fp, fq = mp - tp, mq - tq
        resid = np.maximum(np.abs(fp), np.abs(fq))
    tol = settings.newton_tol
    converged = resid <= tol          # NaN residuals stay active
    active = ~converged
    status[converged] = OK

    def jac_det(j):
        return j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]

    for it in range(settings.newton_max_iter):
        if not np.any(active):
            break
        idx = np.flatnonzero(active)
        with _quiet():
            det = jac_det(jac[:, :, idx])
        caustic = np.abs(det) < settings.caustic_floor
        if np.any(caustic):
            c_idx = idx[caustic]
            status[c_idx] = CAUSTIC
            active[c_idx] = False
            idx = idx[~caustic]
            if idx.size == 0:
                continue
            det = det[~caustic]
        (j00, j01), (j10, j11) = jac[:, :, idx]
        with _quiet():
            dp = (-j11 * fp[idx] + j01 * fq[idx]) / det
            dq = (j10 * fp[idx] - j00 * fq[idx]) / det

        # damping: halve per-point step while the residual does not decrease
        lam = np.ones(idx.size)
        pending = np.ones(idx.size, dtype=bool)
        while np.any(pending):
            sub = np.flatnonzero(pending)
            rows = idx[sub]
            with _quiet():
                trial_p = gp[rows] + lam[sub] * dp[sub]
                trial_q = gq[rows] + lam[sub] * dq[sub]
                mp_t, mq_t, jac_t = map_fn(trial_p, trial_q)
                fp_t, fq_t = mp_t - tp[rows], mq_t - tq[rows]
                res_t = np.maximum(np.abs(fp_t), np.abs(fq_t))
            improved = res_t < resid[rows]
            acc = sub[improved]
            rows_acc = idx[acc]
            gp[rows_acc] = gp[rows_acc] + lam[acc] * dp[acc]
            gq[rows_acc] = gq[rows_acc] + lam[acc] * dq[acc]
            fp[rows_acc], fq[rows_acc] = fp_t[improved], fq_t[improved]
            resid[rows_acc] = res_t[improved]
            jac[:, :, rows_acc] = jac_t[:, :, improved]
            pending[acc] = False
            rej = sub[~improved]
            lam[rej] *= 0.5
            floored = rej[lam[rej] < settings.damping_floor]
            if floored.size:
                # damping floor hit with no decrease: the stage has failed
                # for these points, stop iterating them
                pending[floored] = False
                active[idx[floored]] = False
        iters[idx] += 1
        newly_done = active & (resid <= tol)
        status[newly_done] = OK
        active &= ~newly_done
    with _quiet():
        det_out = jac_det(jac)
    # the verdict also covers points that converged without a step
    status[np.abs(det_out) < settings.caustic_floor] = CAUSTIC
    return gp, gq, det_out, iters, resid, status


def _invert_map_batch(model, t_i, t_f, tp, tq, hbar_beta, settings,
                      warm_p=None, warm_q=None) -> SolveBatch:
    """Invert the composite map at (t_i, t_f) for a batch of real targets.

    One damped Newton stage from the warm start (the targets by default);
    the points it leaves DIVERGED are re-solved along a ladder that starts
    at the span hbar_beta / 2**continuation_stages and doubles it up to
    hbar_beta, each rung warm-started from the last.  The static midpoint
    solve is the case t_f == t_i.  ``stage_residuals`` records the ladder's
    largest residual per rung.
    """
    tp = np.asarray(tp, dtype=float)
    tq = np.asarray(tq, dtype=float)
    gp = tp.copy() if warm_p is None else np.asarray(warm_p, dtype=float).copy()
    gq = tq.copy() if warm_q is None else np.asarray(warm_q, dtype=float).copy()
    stage_residuals: list = []
    gp, gq, det, iters, resid, status = _newton_stage(
        partial(_composite_map_batch, model, t_i, t_f, hbar_beta=hbar_beta,
                settings=settings),
        tp, tq, gp, gq, settings)

    idx = np.flatnonzero(status == DIVERGED)
    if idx.size and settings.continuation_stages > 0:
        sp, sq = tp[idx].copy(), tq[idx].copy()
        for k in range(settings.continuation_stages, -1, -1):
            stage_map = partial(_composite_map_batch, model, t_i, t_f,
                                hbar_beta=0.5 ** k * hbar_beta,
                                settings=settings)
            sp, sq, det_s, it_s, res_s, st_s = _newton_stage(
                stage_map, tp[idx], tq[idx], sp, sq, settings)
            stage_residuals.append(float(np.max(res_s)))
            det[idx], resid[idx] = det_s, res_s
            iters[idx] += it_s
            # status of the final (full span) stage is the verdict
            status[idx] = st_s
        gp[idx], gq[idx] = sp, sq
    return SolveBatch(gp, gq, det, iters, resid, status, stage_residuals)


def _g_values(model, t, arcs: _ArcBatch, tp, tq):
    """Both G evaluations from solved arcs; targets are the chord midpoints."""
    hb = arcs.hbar_beta
    h_center = model.value(t, arcs.center_p, arcs.center_q).real
    g_area = h_center - arcs.area / hb
    s_tot = -(tp + 0j) * arcs.chord + arcs.action
    g_fta = s_tot / (1j * hb)
    return g_area, g_fta.real, np.abs(g_fta.imag)


def _pseudo_hamiltonian_batch(model, t, tp, tq, hbar_beta, settings):
    """Batched G over targets; returns (solve, arcs, G, G_fta, imag_resid)."""
    solve = _invert_map_batch(model, t, t, tp, tq, hbar_beta, settings)
    good = solve.status == OK
    arcs = _build_arc_batch(model, t, solve.zc_p[good].astype(complex),
                            solve.zc_q[good].astype(complex),
                            hbar_beta, settings)
    g_area = np.full(tp.shape, np.nan)
    g_fta = np.full(tp.shape, np.nan)
    imag_res = np.full(tp.shape, np.nan)
    ga, gf, ir = _g_values(model, t, arcs, np.asarray(tp)[good], np.asarray(tq)[good])
    g_area[good], g_fta[good], imag_res[good] = ga, gf, ir
    return solve, arcs, g_area, g_fta, imag_res


def pseudo_hamiltonian(model: HamiltonianModel, t: float, target: ComplexPoint,
                       hbar_beta: float,
                       settings: IntegratorSettings = DEFAULT_SETTINGS,
                       with_prefactor: bool = False) -> PseudoHamiltonianValue:
    """Stationary-phase pseudo-Hamiltonian at one real target point."""
    if target.p.imag != 0.0 or target.q.imag != 0.0:
        raise ValueError("midpoint inversion expects a real target point")
    solve, arcs, g_area, g_fta, imag_res = _pseudo_hamiltonian_batch(
        model, t, np.array([target.p.real]), np.array([target.q.real]),
        hbar_beta, settings)
    _raise_failed(t, solve.status, solve.det, solve.residual)
    pref = None
    if with_prefactor:
        pref = float(_prefactor_batch(model, arcs, settings)[0])
    return PseudoHamiltonianValue(
        G=float(g_area[0]),
        G_from_total_action=float(g_fta[0]),
        z_c=ComplexPoint(float(solve.zc_p[0]), float(solve.zc_q[0])),
        arc=arcs.single(0),
        jacobian_det=float(solve.det[0]),
        imag_residual=float(imag_res[0]),
        prefactor=pref,
    )


def _prefactor_batch(model, arcs: _ArcBatch, settings) -> np.ndarray:
    """Geometric prefactor 2 / sqrt|2 + tr M| per arc.

    M = [[A, B], [C, D]] = d(p, q)_end / d(p, q)_start is the monodromy
    of the whole arc, flowed from its sigma = -hbar*beta/2 endpoint over
    2 * n_sigma_steps RK4 steps.  At fixed endpoints q0, q1 the initial
    momentum obeys dq1 = C dp0 + D dq0, so with det M = 1 the endpoint
    action S(q0, q1) has the Hessian

        S_aa = D / C,   S_bb = A / C,   S_ab = -1 / C

    (up to an overall sign that cancels below).  Substituted into the
    stationary-phase factor sqrt(2 |S_ab| / |S_ab - (S_aa + S_bb) / 2|)
    this gives 2 / sqrt|2 + A + D|.  For the harmonic oscillator
    tr M = 2 cosh(beta hbar w), which returns exactly
    1 / cosh(beta hbar w / 2).  The frozen time and the span are the arcs'.
    """
    s_half = 0.5 * arcs.hbar_beta
    pe, qe, jac = _flow_imaginary_batch(
        model, arcs.t, arcs.p[0], arcs.q[0], -s_half, +s_half,
        2 * settings.n_sigma_steps, tangent=True)
    _check_finite(jac, np.stack([pe, qe]), "prefactor flow")
    return 2.0 / np.sqrt(np.abs(2.0 + jac[0, 0] + jac[1, 1]))


def endpoint_action_prefactor(model: HamiltonianModel, arc: ImaginaryArc,
                              settings: IntegratorSettings,
                              hbar: Optional[float] = None) -> float:
    """Stationary-phase prefactor from the monodromy trace of one arc.

    The arc is flowed end to end at its own frozen time ``arc.t`` over its
    own span ``arc.hbar_beta``.  Returns the purely geometric factor when
    ``hbar`` is None, otherwise the full prefactor
    geometric_factor / (2 pi hbar).
    """
    geom = float(_prefactor_batch(model, _ArcBatch.of(arc), settings)[0])
    if hbar is None:
        return geom
    return geom / (2.0 * np.pi * hbar)
