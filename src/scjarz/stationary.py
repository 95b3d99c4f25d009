"""Inversion of the chord-midpoint map and the pseudo-Hamiltonian G.

The half-arc flow sends a real center to the real midpoint of the arc's
chord; inverting that map selects, for a requested real phase-space point,
the unique thermal arc whose chord is centered there.  G is then the center
energy minus the enclosed area per unit imaginary time,

    G(p, q) = H_t(center) - A / (hbar*beta),

cross-checked against the total-action evaluation of the same quantity.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .dynamics import (DEFAULT_SETTINGS, ImaginaryArc, IntegratorSettings,
                       _ArcBatch, _build_arc_batch, _check_finite,
                       _flow_imaginary_batch)
from .errors import CausticEncountered, NewtonDiverged
from .models import ComplexPoint, HamiltonianModel

# status codes for batched solves
OK = 0
CAUSTIC = 1
DIVERGED = 2

MapFn = Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]


def _quiet():
    """Fresh errstate: blown-up trial flows must not spam warnings."""
    return np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class MidpointSolve:
    """Result of inverting the midpoint map for one real target point."""

    target: ComplexPoint
    z_c: ComplexPoint
    arc: ImaginaryArc
    newton_iters: int
    jacobian_det: float
    residual: float
    continuation_residuals: tuple[float, ...] = ()


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

    def raise_on_failure(self) -> None:
        if np.any(self.status == CAUSTIC):
            idx = int(np.argmax(self.status == CAUSTIC))
            raise CausticEncountered(
                f"stationary-phase Jacobian degenerate (|det|={self.det[idx]:.3e})")
        if np.any(self.status == DIVERGED):
            idx = int(np.argmax(self.status == DIVERGED))
            raise NewtonDiverged(
                f"midpoint inversion stalled (residual {self.residual[idx]:.3e})")


def _midpoint_map_batch(model, t, P, Q, hbar_beta, settings):
    """Real map: half-arc endpoint real part, vectorized over points."""
    p = np.asarray(P, dtype=complex)
    q = np.asarray(Q, dtype=complex)
    if hbar_beta == 0.0:
        return p.real.copy(), q.real.copy()
    pe, qe = _flow_imaginary_batch(
        model, t, p, q, 0.0, 0.5 * hbar_beta, settings.n_sigma_steps)
    return pe.real, qe.real


def midpoint_map(model: HamiltonianModel, t: float, z_real: ComplexPoint,
                 hbar_beta: float,
                 settings: IntegratorSettings = DEFAULT_SETTINGS) -> ComplexPoint:
    """Image of a real point under the half-arc chord-midpoint map."""
    mp, mq = _midpoint_map_batch(
        model, t, np.array([z_real.p]), np.array([z_real.q]),
        hbar_beta, settings)
    return ComplexPoint(float(mp[0]), float(mq[0]))


def _map_jacobian(map_fn: MapFn, gp, gq):
    """Central-difference 2x2 Jacobians, one stacked map call per batch."""
    eps = 1e-6 * (1.0 + np.hypot(gp, gq))
    P = np.concatenate([gp + eps, gp - eps, gp, gp])
    Q = np.concatenate([gq, gq, gq + eps, gq - eps])
    MP, MQ = map_fn(P, Q)
    b = gp.shape[0]
    j00 = (MP[0:b] - MP[b:2 * b]) / (2.0 * eps)       # dMp/dp
    j10 = (MQ[0:b] - MQ[b:2 * b]) / (2.0 * eps)       # dMq/dp
    j01 = (MP[2 * b:3 * b] - MP[3 * b:]) / (2.0 * eps)  # dMp/dq
    j11 = (MQ[2 * b:3 * b] - MQ[3 * b:]) / (2.0 * eps)  # dMq/dq
    det = j00 * j11 - j01 * j10
    return j00, j01, j10, j11, det


def _newton_stage(map_fn: MapFn, tp, tq, gp, gq, settings):
    """Damped Newton on F(z) = map(z) - target for one batch.

    Returns (gp, gq, det, iters, residual, status); points that hit a
    near-singular Jacobian are flagged CAUSTIC, stalled ones DIVERGED.
    Trial points whose flows blow up yield NaN residuals, which the
    damping logic rejects like any non-improving step.
    """
    b = tp.shape[0]
    gp = np.array(gp, dtype=float, copy=True)
    gq = np.array(gq, dtype=float, copy=True)
    status = np.full(b, DIVERGED, dtype=np.int8)
    det_out = np.zeros(b)
    iters = np.zeros(b, dtype=int)
    with _quiet():
        mp, mq = map_fn(gp, gq)
        fp, fq = mp - tp, mq - tq
        resid = np.maximum(np.abs(fp), np.abs(fq))
    tol = settings.newton_tol
    converged = resid <= tol          # NaN residuals stay active
    active = ~converged
    status[converged] = OK

    for it in range(settings.newton_max_iter):
        if not np.any(active):
            break
        idx = np.flatnonzero(active)
        with _quiet():
            j00, j01, j10, j11, det = _map_jacobian(map_fn, gp[idx], gq[idx])
        det_out[idx] = det
        caustic = np.abs(det) < settings.caustic_floor
        if np.any(caustic):
            c_idx = idx[caustic]
            status[c_idx] = CAUSTIC
            active[c_idx] = False
            idx = idx[~caustic]
            if idx.size == 0:
                continue
            keep = ~caustic
            j00, j01, j10, j11, det = (a[keep] for a in (j00, j01, j10, j11, det))
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
                mp_t, mq_t = map_fn(trial_p, trial_q)
                fp_t, fq_t = mp_t - tp[rows], mq_t - tq[rows]
                res_t = np.maximum(np.abs(fp_t), np.abs(fq_t))
            improved = res_t < resid[rows]
            acc = sub[improved]
            rows_acc = idx[acc]
            gp[rows_acc] = gp[rows_acc] + lam[acc] * dp[acc]
            gq[rows_acc] = gq[rows_acc] + lam[acc] * dq[acc]
            fp[rows_acc], fq[rows_acc] = fp_t[improved], fq_t[improved]
            resid[rows_acc] = res_t[improved]
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
    return gp, gq, det_out, iters, resid, status


def _invert_map_batch(map_fn: MapFn, tp, tq, settings,
                      warm_p=None, warm_q=None,
                      continuation: Optional[Callable[[float], MapFn]] = None,
                      force_continuation: bool = False) -> SolveBatch:
    """Invert a real 2-plane map for a batch of targets.

    ``continuation(scale)`` must return the map with the imaginary span
    scaled by ``scale``; it is engaged for points the direct solve loses
    (or for all points when force_continuation is set).
    """
    tp = np.asarray(tp, dtype=float)
    tq = np.asarray(tq, dtype=float)
    gp = tp.copy() if warm_p is None else np.asarray(warm_p, dtype=float).copy()
    gq = tq.copy() if warm_q is None else np.asarray(warm_q, dtype=float).copy()
    stage_residuals: list = []

    if not force_continuation:
        gp, gq, det, iters, resid, status = _newton_stage(
            map_fn, tp, tq, gp, gq, settings)
    else:
        status = np.full(tp.shape[0], DIVERGED, dtype=np.int8)
        det = np.zeros(tp.shape[0])
        iters = np.zeros(tp.shape[0], dtype=int)
        resid = np.full(tp.shape[0], np.inf)

    retry = status == DIVERGED
    if np.any(retry) and continuation is not None and settings.continuation_stages > 0:
        idx = np.flatnonzero(retry)
        sp, sq = tp[idx].copy(), tq[idx].copy()
        for k in range(settings.continuation_stages, -1, -1):
            stage_map = continuation(0.5 ** k)
            sp, sq, det_s, it_s, res_s, st_s = _newton_stage(
                stage_map, tp[idx], tq[idx], sp, sq, settings)
            stage_residuals.append(float(np.max(res_s)))
            det[idx], resid[idx] = det_s, res_s
            iters[idx] += it_s
            # status of the final (scale = 1) stage is the verdict
            status[idx] = st_s
        gp[idx], gq[idx] = sp, sq
    return SolveBatch(gp, gq, det, iters, resid, status, stage_residuals)


def _invert_midpoint_batch(model, t, tp, tq, hbar_beta, settings,
                           warm_p=None, warm_q=None,
                           force_continuation=False) -> SolveBatch:
    def the_map(P, Q):
        return _midpoint_map_batch(model, t, P, Q, hbar_beta, settings)

    def scaled(scale):
        def m(P, Q):
            return _midpoint_map_batch(model, t, P, Q, scale * hbar_beta, settings)
        return m

    return _invert_map_batch(the_map, tp, tq, settings, warm_p, warm_q,
                             continuation=scaled,
                             force_continuation=force_continuation)


def invert_midpoint(model: HamiltonianModel, t: float, target: ComplexPoint,
                    hbar_beta: float,
                    settings: IntegratorSettings = DEFAULT_SETTINGS,
                    warm_start: Optional[ComplexPoint] = None) -> MidpointSolve:
    """Find the real arc center whose chord midpoint is the target."""
    if target.p.imag != 0.0 or target.q.imag != 0.0:
        raise ValueError("midpoint inversion expects a real target point")
    tp = np.array([target.p.real])
    tq = np.array([target.q.real])
    wp = None if warm_start is None else np.array([warm_start.p.real])
    wq = None if warm_start is None else np.array([warm_start.q.real])
    solve = _invert_midpoint_batch(model, t, tp, tq, hbar_beta, settings,
                                   warm_p=wp, warm_q=wq)
    solve.raise_on_failure()
    arc = _build_arc_batch(model, t, solve.zc_p.astype(complex),
                           solve.zc_q.astype(complex), hbar_beta, settings)
    return MidpointSolve(
        target=target,
        z_c=ComplexPoint(float(solve.zc_p[0]), float(solve.zc_q[0])),
        arc=arc.single(0),
        newton_iters=int(solve.iters[0]),
        jacobian_det=float(solve.det[0]),
        residual=float(solve.residual[0]),
        continuation_residuals=tuple(solve.stage_residuals),
    )


def _g_values(model, t, arcs: _ArcBatch, tp, tq):
    """Both G evaluations from solved arcs; targets are the chord midpoints."""
    hb = arcs.hbar_beta
    h_center = model.value(t, arcs.center_p, arcs.center_q).real
    g_area = h_center - arcs.area / hb
    s_tot = -(tp + 0j) * arcs.chord + arcs.action
    g_fta = s_tot / (1j * hb)
    return g_area, g_fta.real, np.abs(g_fta.imag)


def _pseudo_hamiltonian_batch(model, t, tp, tq, hbar_beta, settings,
                              warm_p=None, warm_q=None,
                              force_continuation=False):
    """Batched G over targets; returns (solve, arcs, G, G_fta, imag_resid)."""
    solve = _invert_midpoint_batch(model, t, tp, tq, hbar_beta, settings,
                                   warm_p=warm_p, warm_q=warm_q,
                                   force_continuation=force_continuation)
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
    solve.raise_on_failure()
    pref = None
    if with_prefactor:
        pref = float(_prefactor_batch(model, t, arcs, hbar_beta, settings)[0])
    return PseudoHamiltonianValue(
        G=float(g_area[0]),
        G_from_total_action=float(g_fta[0]),
        z_c=ComplexPoint(float(solve.zc_p[0]), float(solve.zc_q[0])),
        arc=arcs.single(0),
        jacobian_det=float(solve.det[0]),
        imag_residual=float(imag_res[0]),
        prefactor=pref,
    )


def _prefactor_batch(model, t, arcs: _ArcBatch, hbar_beta,
                     settings) -> np.ndarray:
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
    1 / cosh(beta hbar w / 2).
    """
    s_half = 0.5 * hbar_beta
    pe, qe, jac = _flow_imaginary_batch(
        model, t, arcs.p[0], arcs.q[0], -s_half, +s_half,
        2 * settings.n_sigma_steps, tangent=True)
    _check_finite(jac, np.stack([pe, qe]), "prefactor flow")
    return 2.0 / np.sqrt(np.abs(2.0 + jac[0, 0] + jac[1, 1]))


def endpoint_action_prefactor(model: HamiltonianModel, t: float,
                              arc: ImaginaryArc, hbar_beta: float,
                              settings: IntegratorSettings,
                              hbar: Optional[float] = None) -> float:
    """Stationary-phase prefactor from the monodromy trace of one arc.

    Returns the purely geometric factor when ``hbar`` is None, otherwise
    the full prefactor geometric_factor / (2 pi hbar).
    """
    batch = _ArcBatch(t=t, hbar_beta=arc.hbar_beta, sigma=arc.sigma,
                      p=arc.p_samples[:, None], q=arc.q_samples[:, None],
                      center_p=np.array([arc.center.p]),
                      center_q=np.array([arc.center.q]))
    geom = float(_prefactor_batch(model, t, batch, hbar_beta, settings)[0])
    if hbar is None:
        return geom
    return geom / (2.0 * np.pi * hbar)
