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
                       _accumulator)
from .errors import WorkMismatch
from .models import ComplexPoint, HamiltonianModel
from .stationary import (NON_FINITE, OK, _composite_map_batch,
                         _invert_map_batch, _propagated_g_batch, _quiet,
                         _raise_failed, _width1)


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
    """Image of a real center under the propagated-construction map; a
    non-real center or a window with t_f < t_i raises ValueError."""
    mp, mq, _, _ = _composite_map_batch(model, t_i, t_f, *_width1(z_real),
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
    Raises ValueError for a non-real target or warm start or for
    t_f < t_i, CausticEncountered or NewtonDiverged if the solve fails.
    """
    tp, tq = _width1(target)
    wp, wq = (None, None) if warm_start is None else _width1(warm_start)
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


def _pseudo_power_batch(arcs: ImaginaryArc):
    """Arc-averaged explicit power (1/hbar*beta) int dH/dt dsigma of the
    arcs' model; dH/dt at the conjugate point is the conjugate, so the
    integral is 2 Re S over the plus half.  dH/dt is (m w wdot q) q, so S
    is the arc's q^2 sum with that rate m w wdot
    (``ImaginaryArc.square_sum(1)``)."""
    return 2.0 * arcs.square_sum(1).real / arcs.hbar_beta


def pseudo_power(arc: ImaginaryArc) -> float:
    """Explicit-power average over one frozen-time arc (a width-1 batch).

    The model is the arc's own (``arc.model``), the drive is taken at its
    frozen time ``arc.t`` and the average over its span ``arc.hbar_beta``.
    Raises ValueError for a batch of more than one arc.
    """
    width = arc.center_p.shape[0]
    if width != 1:
        raise ValueError(f"pseudo_power takes one arc, got {width}")
    return float(_pseudo_power_batch(arc)[0])


# The warm start of time node j extrapolates the converged centers at up to
# this many preceding nodes with the polynomial through them.  The quartic
# rule (five nodes) is the measured choice: over the 16,128 node solves of
# the identity march of configs/quartic_ramp.yaml, the Newton iterations
# per node solve are 3.791 with the last center alone and 3.206 / 2.858 /
# 2.746 / 2.686 / 2.675 with the polynomial through 2 / 3 / 4 / 5 / 6
# centers; the sixth center saves 0.4% of the iterations.
_PREDICTOR_NODES = 5

# Gauss-Legendre nodes of the work integral over [t_i, t_f]: of the
# identity, of pseudo_work and of scjarz work, whose work.csv has a row for
# each of the _WORK_NODES + 2 march nodes.  The arc-averaged power is
# analytic in t on the shipped ramps, so the rule converges geometrically
# until W meets the floor that the sigma and real-time steps set.  Measured
# with `scjarz jarzynski` on configs/harmonic_ramp.yaml (h) and
# configs/quartic_ramp.yaml (q): identity residual, all-node path/endpoint
# mismatch work_gap_max, node solves and quartic Newton iterations:
#
#   nodes  residual h / q       work_gap_max h / q     solves h / q    iters q
#     16   3.592e-10/2.1549e-10  1.81996e-6/2.10039e-5  36,864/20,736   49,660
#     12   3.596e-10/2.1536e-10  1.81987e-6/2.10040e-5  28,672/16,128   43,323
#     10   3.586e-10/2.1189e-10  1.82061e-6/2.10200e-5  24,576/13,824   39,975
#      8   3.579e-10/2.1240e-10  1.82005e-6/3.10733e-5  20,480/11,520   35,711
#
# Every figure must stay at or below the 65-node Simpson rule's (residual
# 2.43e-9 / 2.18e-9, work_gap_max 2.233e-6 / 2.1050e-5).  12 nodes match
# 16 to four digits; 10 raise quartic's work_gap_max by 0.08%, to within
# 0.14% of that bound, and 8 by 48%, past it.
_WORK_NODES = 12


def _gauss_legendre_nodes(t_i, t_f):
    """Time nodes and work weights of the work march.

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

    Numerator and denominator products are formed separately; on a uniform
    dyadic grid both are exact and the weights are exactly the binomial
    ones (1; 2, -1; 3, -3, 1; ...).  The march's Gauss-Legendre times are
    not uniform, and the weights are exact only to rounding.
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
                       node=None):
    """Work along the pseudo-trajectory for a batch of initial points.

    One ``_march`` over the time nodes of ``_gauss_legendre_nodes``: at
    most one composite-map solve per column and node, the work being the
    Gauss-Legendre sum of the power.  A column's march does not depend on
    the batch it is in.  Each solve hands over its arcs
    (``SolveBatch.arcs``): the power is read from every node's, G_initial
    (the area form, ``ImaginaryArc.g``) and the prefactor
    ("prefactor_initial", NaN where it is not finite) from the first
    node's, and the t_f node's solve gives the endpoint G_prop
    (``_propagated_g_batch``).  A solved column whose power at a node is
    not finite is NON_FINITE there, and the march stops it as it stops a
    failed solve; one whose W is not finite is NON_FINITE at t_f.

    The march holds O(B) state: each node's power row, NaN outside the
    node's OK columns, is added into W as soon as the node is solved
    (``_accumulator``, ``weighted_sum``'s order, so W is bitwise the sum
    over a stored (nodes, B) power array), and nothing per node is kept.
    ``node(j, live, solve, power)``, if given, is called once per node
    with its index, the columns it solved (indices into tp, tq), their
    solve and the node's (B,) power row, before a power that is not
    finite changes the solve's status; ``_node_recorder`` is such a hook.

    Returns "times" and "node_solves" (the column solves run) and (B,)
    arrays: a failed column carries its status and a W that is not
    finite.  "last_node" is the index of each column's last solved node:
    a failed column's failed node, since the march stops it there.
    "newton_iters" counts each column's Newton iterations over the march.
    """
    tp = np.asarray(tp, dtype=float)
    tq = np.asarray(tq, dtype=float)
    b = tp.shape[0]
    times, weights = _gauss_legendre_nodes(t_i, t_f)
    status = np.full(b, OK, dtype=np.int8)
    last_node = np.zeros(b, dtype=int)
    newton_iters = np.zeros(b, dtype=int)
    node_solves = 0
    g_initial, prefactor_initial, g_prop = np.full((3, b), np.nan)
    sums, add = _accumulator(weights, (lambda j, power, _: power,))

    march = _march(model, t_i, times, tp, tq, hbar_beta, settings)
    for j, (live, solve) in enumerate(march):
        ok = solve.status == OK
        good = live[ok]
        last_node[live] = j
        newton_iters[live] += solve.iters
        node_solves += live.size
        arcs = solve.arcs
        power = np.full(b, np.nan)
        with _quiet():
            # a power, G or prefactor that is not finite is a column
            # status (below) or a NaN entry, and a weight meets a power
            # that is not finite in a failed column: neither is a warning
            power[good] = _pseudo_power_batch(arcs)
            if j == 0:
                g_initial[good] = arcs.g
                prefactor_initial[good] = arcs.prefactor
            add(j, power, None)
        if node is not None:
            node(j, live, solve, power)
        if j == times.size - 1:
            # the march ends at t_f: its last solve is the endpoint's
            g_prop[live] = _propagated_g_batch(t_i, tp[live], settings,
                                               solve)
        # a power that is not finite fails its column here: set before the
        # march resumes, so that it stops the column
        solve.status[ok & ~np.isfinite(power[live])] = NON_FINITE
        status[live] = solve.status

    work = sums[0] if t_f > t_i else np.zeros(b)
    # finite powers can still sum to a W that is not finite: fails at t_f
    status[(status == OK) & ~np.isfinite(work)] = NON_FINITE

    return {
        "times": times,
        "status": status,
        "last_node": last_node,
        "newton_iters": newton_iters,
        "node_solves": node_solves,
        "W": work,
        "g_initial": g_initial,
        "prefactor_initial": prefactor_initial,
        "g_propagated": g_prop,
        "W_endpoint": g_prop - g_initial,
    }


def _node_recorder(n_nodes, width):
    """A node hook for ``_pseudo_work_batch`` that records the march's
    per-node trajectory, and that record: a dict of (n_nodes, width)
    arrays, filled as the march hands over each node.  "center_p",
    "center_q", "residual" and "det" (the Jacobian determinant) are NaN
    where a column was not solved at a node, and "power", the complex
    endpoints "plus_p" and "plus_q" and the real chord midpoints "check_p"
    and "check_q" where it was not OK."""
    track = {name: np.full((n_nodes, width), np.nan)
             for name in ("power", "center_p", "center_q", "check_p",
                          "check_q", "residual", "det")}
    track["plus_p"], track["plus_q"] = np.full((2, n_nodes, width), np.nan,
                                               dtype=complex)

    def record(j, live, solve, power):
        good = live[solve.status == OK]
        arcs = solve.arcs
        track["power"][j] = power
        track["center_p"][j, live] = solve.zc_p
        track["center_q"][j, live] = solve.zc_q
        track["residual"][j, live] = solve.residual
        track["det"][j, live] = solve.det
        track["plus_p"][j, good] = arcs.end_p
        track["plus_q"][j, good] = arcs.end_q
        track["check_p"][j, good] = arcs.mid_p.real
        track["check_q"][j, good] = arcs.mid_q.real
    return track, record


def pseudo_work(model: HamiltonianModel, t_i: float, t_f: float,
                target: ComplexPoint, hbar_beta: float,
                settings: IntegratorSettings = DEFAULT_SETTINGS,
                work_tol: Optional[float] = None) -> WorkResult:
    """Pseudo-work for one initial point, with the endpoint cross-check.

    The width-1 march of the identity (``_pseudo_work_batch``): the
    trajectory's times are its nodes, and W and W_endpoint are the
    identity's for this start, bit for bit.  The trajectory, and the
    failed node's residual and |det J|, come from the march's node hook
    (``_node_recorder``), the one caller that records per node: the
    identity's marches keep no per-node array.  Raises ValueError for a
    non-real target or for t_f < t_i; CausticEncountered, NewtonDiverged
    or (for a power or W that is not finite) IntegratorDiverged, naming
    the failed node's time, if the start fails; and WorkMismatch unless
    |W - W_endpoint| is at most ``work_tol`` (by default
    ``WorkResult.mismatch_tol``, 1e-6 (1 + |W|)), so a NaN mismatch
    raises; ``work_tol=math.inf`` returns any result whose mismatch is a
    number.
    """
    track, record = _node_recorder(_gauss_legendre_nodes(t_i, t_f)[0].size,
                                   1)
    out = _pseudo_work_batch(model, t_i, t_f, *_width1(target), hbar_beta,
                             settings, node=record)
    if out["status"][0] != OK:
        # the march stops a failed start at its failed node: name that
        # node's time, residual and |det J|
        j = out["last_node"][0]
        _raise_failed(out["times"][j], out["status"], track["det"][j],
                      track["residual"][j])
    traj = PseudoTrajectory(
        target=target,
        times=out["times"],
        center_p=track["center_p"][:, 0], center_q=track["center_q"][:, 0],
        plus_p=track["plus_p"][:, 0], plus_q=track["plus_q"][:, 0],
        check_p=track["check_p"][:, 0], check_q=track["check_q"][:, 0],
        power=track["power"][:, 0],
        solve_residual=track["residual"][:, 0],
    )
    res = WorkResult(W=float(out["W"][0]),
                     W_endpoint=float(out["W_endpoint"][0]),
                     g_initial=float(out["g_initial"][0]),
                     g_propagated=float(out["g_propagated"][0]),
                     trajectory=traj)
    tol = work_tol if work_tol is not None else res.mismatch_tol
    if not (res.mismatch <= tol):
        raise WorkMismatch(
            f"path work {res.W:.12e} vs endpoint work {res.W_endpoint:.12e} "
            f"differ by {res.mismatch:.3e} > {tol:.3e}")
    return res
