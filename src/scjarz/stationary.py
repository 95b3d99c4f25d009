"""Inversion of the chord-midpoint map and the pseudo-Hamiltonian G.

The half-arc flow sends a real center to the real midpoint of the arc's
chord; inverting that map selects, for a requested real phase-space point,
the unique thermal arc whose chord is centered there.  The map is the
composite map of the driven construction (frozen-t_f half-flow, then
backward real-time flow to t_i) at t_f = t_i, so one map and one Newton
engine serve both, and the solve hands over the arcs through its solved
centers.  G is then the center energy minus the enclosed area per unit
imaginary time,

    G(p, q) = H_t(center) - A / (hbar*beta),

cross-checked against the total-action evaluation of the same quantity,
which is the propagated pseudo-energy at t_f = t_i (branch legs of zero
length).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

import numpy as np

from .dynamics import (DEFAULT_SETTINGS, ImaginaryArc, IntegratorSettings,
                       _build_arc_batch, _flow_imaginary_batch,
                       _flow_real_batch, _real_step_count)
from .errors import CausticEncountered, IntegratorDiverged, NewtonDiverged
from .models import ComplexPoint, HamiltonianModel

# status codes for batched solves; the work march sets NON_FINITE
OK = 0
CAUSTIC = 1
DIVERGED = 2
NON_FINITE = 3
STATUS_NAMES = {OK: "ok", CAUSTIC: "caustic", DIVERGED: "diverged",
                NON_FINITE: "non_finite"}


def _quiet():
    """Fresh errstate: blown-up trial flows must not spam warnings."""
    return np.errstate(over="ignore", invalid="ignore")


@dataclass(frozen=True)
class PseudoHamiltonianValue:
    """G evaluated two ways, with the solve's own width-1 arc attached
    (its ``prefactor`` is the geometric stationary-phase factor)."""

    G: float
    G_from_total_action: float
    z_c: ComplexPoint
    arc: ImaginaryArc
    jacobian_det: float


@dataclass
class SolveBatch:
    """Vectorized solve record; one entry per target point.

    ``status`` is OK, CAUSTIC or DIVERGED (``_pseudo_work_batch`` marks
    a column NON_FINITE).  ``arcs`` holds the frozen-t_f arcs of the OK
    columns, in column order, with the solve's t_f and hbar*beta:
    assembled from the half-flow endpoints and monodromies of each
    column's last accepted map evaluation (``_build_arc_batch``).
    """

    zc_p: np.ndarray
    zc_q: np.ndarray
    det: np.ndarray
    iters: np.ndarray
    residual: np.ndarray
    status: np.ndarray
    arcs: ImaginaryArc


def _raise_failed(t, status, det, residual) -> None:
    """Raise for the first failed column of a solve at time ``t``.

    Caustic columns come first, then stalled ones, then NON_FINITE ones;
    the message names the time, the column's residual and its |det J|.
    """
    for code, error, what in (
            (CAUSTIC, CausticEncountered, "stationary-phase Jacobian degenerate"),
            (DIVERGED, NewtonDiverged, "midpoint inversion stalled"),
            (NON_FINITE, IntegratorDiverged, "non-finite power or work")):
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
    The fourth value is the half-flow (end_p, end_q, m_plus) of the plus
    half of the frozen-t_f arc through each center, bitwise what
    ``_build_arc_batch`` would integrate: endpoints (B,) and complex
    monodromy (2, 2, B), and no path (an arc runs its own state row from
    the solved centers when its sums or path are read).  Every view of
    the map (the scalar map, the solve and the work march) reaches this
    function, and a window with t_f < t_i raises ValueError here.
    """
    if t_f < t_i:
        raise ValueError("composite map requires t_i <= t_f")
    p, q, jac = half = _flow_imaginary_batch(
        model, t_f, np.asarray(P, dtype=complex), np.asarray(Q, dtype=complex),
        0.0, 0.5 * hbar_beta, settings.n_sigma_steps, tangent=True)
    if t_f != t_i:
        n = _real_step_count(model, settings, t_f - t_i)
        p, q, m_real = _flow_real_batch(model, t_f, t_i, p, q, n, tangent=True)
        jac = m_real[:, 0, None] * jac[0] + m_real[:, 1, None] * jac[1]
    return p.real, q.real, jac.real, half


# Newton: a column converges at a residual max(|F_p|, |F_q|) of at most
# _NEWTON_TOL; a stage runs up to _NEWTON_MAX_ITER iterations; a |det J|
# below _CAUSTIC_FLOOR is a caustic; a step halved below _DAMPING_FLOOR
# without a residual decrease ends the stage for its column.  A cold
# solve re-solves the columns it leaves DIVERGED along a ladder of
# _CONTINUATION_STAGES + 1 rungs, hbar_beta / 2**_CONTINUATION_STAGES
# doubled up to hbar_beta
_NEWTON_TOL = 1e-11
_NEWTON_MAX_ITER = 50
_CAUSTIC_FLOOR = 1e-10
_DAMPING_FLOOR = 2.0 ** -10
_CONTINUATION_STAGES = 4


def _jac_det(j):
    """Determinant of a (2, 2, ...) stack of Jacobians."""
    return j[0, 0] * j[1, 1] - j[0, 1] * j[1, 0]


def _newton_stage(map_fn, tp, tq, gp, gq):
    """Damped Newton on F(z) = map(z) - target for one batch.

    ``map_fn(P, Q)`` returns (mp, mq, J, half) as ``_composite_map_batch``
    does.  Each step inverts the Jacobian J that came with the last
    accepted map evaluation, so an iteration costs one map evaluation per
    trial.  A column's half-flow, its endpoints and monodromy, is copied
    once, from the evaluation it converges at (it is never tried again).
    Returns (gp, gq, det, iters, residual, status, half), det and a
    converged column's half-flow taken at the final point; points whose
    Jacobian there (or at any iterate) is near-singular are flagged
    CAUSTIC, stalled ones DIVERGED.  Trial points whose flows blow up
    yield NaN residuals, which the damping logic rejects like any
    non-improving step.
    """
    b = tp.shape[0]
    gp = np.array(gp, dtype=float, copy=True)
    gq = np.array(gq, dtype=float, copy=True)
    status = np.full(b, DIVERGED, dtype=np.int8)
    iters = np.zeros(b, dtype=int)
    with _quiet():
        mp, mq, jac, half = map_fn(gp, gq)
        jac = np.array(jac, dtype=float)
        fp, fq = mp - tp, mq - tq
        resid = np.maximum(np.abs(fp), np.abs(fq))
    converged = resid <= _NEWTON_TOL   # NaN residuals stay active
    active = ~converged
    status[converged] = OK

    for _ in range(_NEWTON_MAX_ITER):
        if not np.any(active):
            break
        idx = np.flatnonzero(active)
        with _quiet():
            det = _jac_det(jac[:, :, idx])
        caustic = np.abs(det) < _CAUSTIC_FLOOR
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
                mp_t, mq_t, jac_t, half_t = map_fn(trial_p, trial_q)
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
            done = improved & (res_t <= _NEWTON_TOL)
            for x, x_t in zip(half, half_t):
                x[..., rows[done]] = x_t[..., done]
            pending[acc] = False
            rej = sub[~improved]
            lam[rej] *= 0.5
            floored = rej[lam[rej] < _DAMPING_FLOOR]
            if floored.size:
                # damping floor hit with no decrease: the stage has failed
                # for these points, stop iterating them
                pending[floored] = False
                active[idx[floored]] = False
        iters[idx] += 1
        newly_done = active & (resid <= _NEWTON_TOL)
        status[newly_done] = OK
        active &= ~newly_done
    with _quiet():
        det_out = _jac_det(jac)
    # the verdict also covers points that converged without a step
    status[np.abs(det_out) < _CAUSTIC_FLOOR] = CAUSTIC
    return gp, gq, det_out, iters, resid, status, half


def _invert_map_batch(model, t_i, t_f, tp, tq, hbar_beta, settings,
                      warm_p=None, warm_q=None) -> SolveBatch:
    """Invert the composite map at (t_i, t_f) for a batch of real targets.

    One damped Newton stage from the warm start (the targets by default).
    A linear flow (quartic_lambda == 0) ignores the warm start: its map is
    J z with one J for every center, so each column starts at the exact
    solution J^-1 target, J from one width-1 map evaluation at the origin
    (bitwise every column's J, so the start does not depend on the batch
    width), and Newton converges at its first evaluation.  Both
    evaluations read the same memoized width-1 flows of the identity
    (``dynamics._linear_monodromy``), so each leg is integrated once per
    solve, at width 1, and Newton's evaluation applies them to its
    columns.  No evaluation of either family stores a state path.
    In a cold solve the points it leaves DIVERGED are re-solved along a
    ladder of spans hbar_beta / 2**_CONTINUATION_STAGES, doubled up to
    hbar_beta, each rung warm-started from the last.  A warm-started
    solve's DIVERGED column is final: a ladder from the targets can jump
    to another branch than the warm start's.  The static midpoint
    solve is the case t_f == t_i.  The OK columns' arcs are assembled once,
    from the full-span half-flows (the first stage's, and for re-solved
    points the last rung's), and returned as ``SolveBatch.arcs`` with
    their plus-half monodromies.  The solve steps no state path: an arc
    runs its own from its centers when its sums or path are first read
    (``ImaginaryArc.square_sum``, ``ImaginaryArc.p``).
    The Newton policy is the module's constants (``_NEWTON_TOL`` and the
    rest); ``settings`` sets the flows' step counts and the arcs' halving
    check.
    """
    tp = np.asarray(tp, dtype=float)
    tq = np.asarray(tq, dtype=float)
    if model.quartic_lambda == 0.0:
        zero = np.zeros(1)
        jac = _composite_map_batch(model, t_i, t_f, zero, zero, hbar_beta,
                                   settings)[2][..., 0]
        (j00, j01), (j10, j11) = jac
        det = _jac_det(jac)
        with _quiet():
            gp = (j11 * tp - j01 * tq) / det
            gq = (j00 * tq - j10 * tp) / det
    else:
        gp = tp if warm_p is None else np.asarray(warm_p, dtype=float)
        gq = tq if warm_q is None else np.asarray(warm_q, dtype=float)
    gp, gq, det, iters, resid, status, half = _newton_stage(
        partial(_composite_map_batch, model, t_i, t_f, hbar_beta=hbar_beta,
                settings=settings),
        tp, tq, gp, gq)

    idx = np.flatnonzero(status == DIVERGED)
    if idx.size and warm_p is None:
        sp, sq = tp[idx].copy(), tq[idx].copy()
        for k in range(_CONTINUATION_STAGES, -1, -1):
            stage_map = partial(_composite_map_batch, model, t_i, t_f,
                                hbar_beta=0.5 ** k * hbar_beta,
                                settings=settings)
            sp, sq, det_s, it_s, res_s, st_s, half_s = _newton_stage(
                stage_map, tp[idx], tq[idx], sp, sq)
            det[idx], resid[idx] = det_s, res_s
            iters[idx] += it_s
            # status of the final (full span) stage is the verdict
            status[idx] = st_s
        gp[idx], gq[idx] = sp, sq
        for x, x_s in zip(half, half_s):
            x[..., idx] = x_s
    ok = status == OK
    if not np.all(ok):
        half = tuple(x[..., ok] for x in half)
    arcs = _build_arc_batch(model, t_f, gp[ok], gq[ok], hbar_beta, settings,
                            half=half)
    return SolveBatch(gp, gq, det, iters, resid, status, arcs)


def _propagated_g_batch(t_i, tp, settings, solve: SolveBatch):
    """Total-action evaluation of the pseudo-energy G_prop.

    ``solve`` is the composite-map solve at (t_i, t_f) for targets whose
    momenta are ``tp``; the model, t_f, hbar*beta and the frozen-t_f arcs
    of its OK columns are read from ``solve.arcs``.  Only the backward
    branch leg from each arc's sigma = +hbar*beta/2 endpoint to t_i is
    integrated here: the other starts at the conjugate endpoint, and the
    real-time flow has real coefficients, so its endpoint and action are
    the conjugates of this one's (bit for bit, up to the sign of a zero).
    A quartic leg's action is summed as the kernel steps, and a linear
    leg's is a quadratic form in its start, the arc's endpoint
    (``dynamics._action_moments``), so no leg path is written.
    The total action along branch, arc and branch, less target p times
    the t_i chord, over i hbar*beta is G_prop; at t_f == t_i the legs
    vanish and this is the static G from the total action.  Every term of
    that total is a difference of conjugates, so G_prop is real.  Returns
    G_prop, NaN in the columns that are not OK.  The leg is the one the
    solve's accepted map evaluation integrated (same start, same drive
    table), so the t_i chord midpoint misses the target by the solve's
    own residual, which is not measured again here.
    """
    arcs = solve.arcs
    good = solve.status == OK
    # the leg joined to sigma = +hb/2; the action is accumulated backwards,
    # so the forward action flips its sign
    pe, qe = arcs.end_p, arcs.end_q
    s_minus = np.zeros(pe.shape, dtype=complex)
    if arcs.t != t_i:
        n = _real_step_count(arcs.model, settings, arcs.t - t_i)
        _, qe, acc = _flow_real_batch(arcs.model, arcs.t, t_i, pe, qe, n,
                                      with_action=True)
        s_minus = -acc
    chord = qe - np.conjugate(qe)
    tpg = np.asarray(tp, dtype=float)[good]
    s_tot = -(tpg + 0j) * chord + np.conjugate(s_minus) + arcs.action - s_minus
    g_prop = np.full(np.shape(tp), np.nan)
    g_prop[good] = (s_tot / (1j * arcs.hbar_beta)).real
    return g_prop


def _pseudo_hamiltonian_batch(model, t, tp, tq, hbar_beta, settings):
    """Batched G over real targets at frozen time t.

    Returns (solve, G, G_fta): G is the area form of the solved arcs
    (``ImaginaryArc.g``) and G_fta the total-action form, which is
    ``_propagated_g_batch`` at t_f = t_i.  Columns that are not OK carry
    NaN; the OK columns' arcs are ``solve.arcs``.
    """
    solve = _invert_map_batch(model, t, t, tp, tq, hbar_beta, settings)
    g_fta = _propagated_g_batch(t, tp, settings, solve)
    g = np.full(np.shape(tp), np.nan)
    g[solve.status == OK] = solve.arcs.g
    return solve, g, g_fta


def _width1(z: ComplexPoint):
    """The real point ``z`` as the width-1 batch (p, q) of a scalar view;
    a point with an imaginary part raises ValueError."""
    if z.p.imag != 0.0 or z.q.imag != 0.0:
        raise ValueError(f"expected a real phase-space point, got {z}")
    return np.array([z.p.real]), np.array([z.q.real])


def pseudo_hamiltonian(model: HamiltonianModel, t: float, target: ComplexPoint,
                       hbar_beta: float,
                       settings: IntegratorSettings = DEFAULT_SETTINGS
                       ) -> PseudoHamiltonianValue:
    """Stationary-phase pseudo-Hamiltonian at one real target point; a
    non-real one raises ValueError."""
    solve, g_area, g_fta = _pseudo_hamiltonian_batch(
        model, t, *_width1(target), hbar_beta, settings)
    _raise_failed(t, solve.status, solve.det, solve.residual)
    return PseudoHamiltonianValue(
        G=float(g_area[0]),
        G_from_total_action=float(g_fta[0]),
        z_c=ComplexPoint(float(solve.zc_p[0]), float(solve.zc_q[0])),
        arc=solve.arcs,
        jacobian_det=float(solve.det[0]),
    )


def _finite_prefactors(geom: np.ndarray) -> np.ndarray:
    """``geom`` itself if every prefactor is finite; otherwise raise
    IntegratorDiverged naming how many columns are not."""
    bad = int(np.count_nonzero(np.isnan(geom)))
    if bad:
        raise IntegratorDiverged(
            f"non-finite prefactor in {bad} of {geom.size} column(s)")
    return geom
