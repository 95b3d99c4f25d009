"""Hamiltonian flows in imaginary time (frozen drive) and real time.

Imaginary-time arcs are parametrized by the real variable sigma in
[-hbar*beta/2, +hbar*beta/2]; the integrated ODE is

    dp/dsigma = +i dH_t/dq,   dq/dsigma = -i dH_t/dp,

with the drive held fixed at t.  Real-time flows solve the usual
dp/dt = -dH_t/dq, dq/dt = +dH_t/dp with complex state and running drive.

Everything is a fixed-step classical RK4 so that the samples line up
with the composite-Simpson grids used for actions and powers.  The private
``*_batch`` functions operate on 1-D complex arrays (one entry per phase
point) and are what the grid scans build on; the public operations wrap a
batch of size one around them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import IntegratorDiverged, ToleranceExceeded
from .models import ComplexPoint, HamiltonianModel


@dataclass(frozen=True)
class IntegratorSettings:
    """The integrator's step counts and its Richardson check.

    n_sigma_steps counts RK4 steps per half-arc (center to one endpoint);
    n_time_steps sets only the real-time step density (steps per full
    protocol duration).  With richardson_check, an arc's endpoint and
    monodromy must agree with twice the steps within ``tolerance``.  The
    work's time nodes are a fixed Gauss-Legendre rule
    (``pseudowork._gauss_legendre_nodes``); the Newton policy (tolerance,
    budget, floors and continuation ladder) is module constants of
    ``stationary``.
    """

    n_sigma_steps: int = 64
    n_time_steps: int = 64
    richardson_check: bool = False
    tolerance: float = 1e-8

    def __post_init__(self):
        if self.n_sigma_steps < 8:
            raise ValueError("n_sigma_steps must be >= 8")
        if self.n_time_steps < 2 or self.n_time_steps % 2 != 0:
            raise ValueError("n_time_steps must be a positive even integer")
        if not self.tolerance > 0.0:
            raise ValueError("tolerance must be positive")


DEFAULT_SETTINGS = IntegratorSettings()


@dataclass(frozen=True)
class SampledPath:
    """Uniformly sampled trajectory of one phase point."""

    sigma: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def endpoint(self) -> ComplexPoint:
        return ComplexPoint(complex(self.p[-1]), complex(self.q[-1]))


def simpson_weights(n_samples: int, h: float) -> np.ndarray:
    """Composite Simpson weights for an odd number of uniform samples."""
    if n_samples < 3 or n_samples % 2 == 0:
        raise ValueError("Simpson rule needs an odd sample count >= 3")
    w = np.ones(n_samples)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def weighted_sum(w: np.ndarray, rows) -> np.ndarray:
    """sum_k w[k] * rows[k], accumulated in index order; ``rows`` is an
    array (over its leading axis) or an iterable of as many rows, such as
    a generator that forms each row as it is added.

    Each column's result depends on that column alone, so it is bitwise
    the same whatever the batch width or BLAS threading (a ``w @ x``
    matrix-vector product blocks differently in each case).  A sum over a
    flow's samples runs the same loop as the kernel steps
    (``_accumulator``), so it needs no stored path.
    """
    terms = (wk * x for wk, x in zip(w, rows, strict=True))
    acc = next(terms)
    for term in terms:
        acc += term
    return acc


def _recorder(n_steps, shape):
    """A sample hook that records a run's state path, and that path:
    (2, n_steps + 1) + shape complex, its p and q, filled as the kernel
    hands over each sample."""
    path = np.empty((2, n_steps + 1) + shape, dtype=complex)

    def record(k, p, q):
        path[0, k], path[1, k] = p, q
    return path, record


def _accumulator(w, terms):
    """A sample hook that forms the sums sum_k w[k] * term(k, p_k, q_k),
    one per term, as the kernel hands over each sample, and the list that
    holds them (filled once the run is over).  The work march hands it
    each time node's power row the same way
    (``pseudowork._pseudo_work_batch``), so W is summed as it goes.

    Each sum is ``weighted_sum``'s loop: w[0] times the first term, then
    w[k] times each term added in index order, so it is bitwise the
    weighted sum of the terms over a stored path, and the run keeps no
    (n_steps + 1, B) stack.
    """
    sums = [None] * len(terms)

    def add(k, p, q):
        for i, term in enumerate(terms):
            x = w[k] * term(k, p, q)
            if k:
                sums[i] += x
            else:
                sums[i] = x
    return sums, add


def _check_finite(p: np.ndarray, q: np.ndarray, what: str) -> None:
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise IntegratorDiverged(f"non-finite state during {what}")


def _rk4(model, c, d, t0, dt, p0, q0, h, n_steps, tangent=False, sample=None):
    """Classical RK4 for dp = c H_q(q), dq = d p from the (B,) starts p0, q0.

    Returns the final (rows, B) complex stacks P and Q.  Row 0 is the
    state; with ``tangent``, rows 1 and 2 are the tangent columns d/dp0
    and d/dq0, which obey dp' = c H_qq(q) dq', dq' = d p' (the exact
    derivative of the discrete map: Hairer, Norsett and Wanner, *Solving
    Ordinary Differential Equations I*, variational equations).  The state
    is bitwise the same with or without the tangent.  ``sample(k, p, q)``,
    if given, is called with the state row at each sample k = 0 ..
    n_steps, in order; p and q are (B,) views valid during the call only.
    A hook records the path (``_recorder``) or sums over it as the run
    goes (``_accumulator``); the final stacks are the same with or
    without one.

    A quartic flow steps the stack at the batch width (``_rk4_steps``).
    A linear flow (quartic_lambda == 0) does not: H_qq = m w(t)^2 does not
    depend on the state, so each RK4 step is one 2x2 matrix, the same for
    every column, and the discrete state after k steps is the product M_k
    of those matrices applied to the start,

        p_k = A_k p0 + B_k q0,   q_k = C_k p0 + D_k q0,

    M_k = [[A_k, B_k], [C_k, D_k]] being the tangent rows after k steps.
    Only the width-1 run from the identity is integrated, as a recurrence
    on Python complex scalars (``_linear_steps``), and memoized with its
    path (``_linear_monodromy``), so a map evaluation at the origin, the
    Newton evaluation that follows it and the endpoint action's leg share
    one run per leg; the array kernel steps only quartic stacks.  The
    final states are M_n applied to the starts, and the tangent rows are
    M_n copied out to every column.  Only a hook makes the samples
    M_k (p0, q0), one at a time: the march never asks for them, since
    every sum it reads of a linear path is a quadratic form in the start
    (``_arc_moments``, ``_action_moments``).  This runs at every width,
    width 1 included, and every operation is elementwise, so each column
    is its own width-1 result bit for bit.
    """
    if model.quartic_lambda != 0.0:
        rows = 3 if tangent else 1
        P = np.zeros((rows,) + np.shape(p0), dtype=complex)
        Q = np.zeros_like(P)
        P[0], Q[0] = p0, q0
        if tangent:
            P[1] = Q[2] = 1.0
        _rk4_steps(model, c, d, t0, dt, P, Q, h, n_steps, sample)
        return P, Q
    m_path = _linear_monodromy(model, c, d, t0, dt, h, n_steps)
    m_p, m_q = m_path[:, -1]
    p0 = np.asarray(p0, dtype=complex)
    q0 = np.asarray(q0, dtype=complex)
    P = np.empty((3 if tangent else 1,) + p0.shape, dtype=complex)
    Q = np.empty_like(P)
    with np.errstate(over="ignore", invalid="ignore"):
        if sample is not None:
            p, q = np.empty_like(p0), np.empty_like(q0)
            for k, (m_pk, m_qk) in enumerate(zip(*m_path)):
                _apply_monodromy(m_pk, m_qk, p0, q0, p, q)
                sample(k, p, q)
        _apply_monodromy(m_p, m_q, p0, q0, P[0], Q[0])
    if tangent:
        P[1:], Q[1:] = m_p, m_q
    return P, Q


def _apply_monodromy(m_p, m_q, p0, q0, p, q):
    """p = A p0 + B q0 and q = C p0 + D q0, written into p and q.

    m_p and m_q are (2, 1) stacks whose rows are d/dp0 and d/dq0 of a
    width-1 linear flow's p and q at one sample: m_p = (A, B),
    m_q = (C, D), broadcast against the (B,) starts.  Each product is
    written into the output or into one scratch buffer, so no temporary
    is allocated per product.
    """
    tmp = np.empty_like(p)
    for m, out in ((m_p, p), (m_q, q)):
        np.multiply(m[0], p0, out=out)
        np.add(out, np.multiply(m[1], q0, out=tmp), out=out)


# 32 entries hold every leg of one identity march (its _WORK_NODES + 2
# nodes, at most two legs each), so a second march over the same nodes,
# such as the Monte Carlo samples', integrates none of them again
@lru_cache(maxsize=32)
def _linear_monodromy(model, c, d, t0, dt, h, n_steps):
    """The linear flow's tangent rows, integrated once at width 1.

    Returns the path (2, n_steps + 1, 2, 1) of the p and q stacks from
    the identity (row 0 started at (p, q) = (1, 0), row 1 at (0, 1)),
    stepped by the scalar recurrence ``_linear_steps``; its last sample
    is the final stacks.  The path is always recorded (4 KB at 64 steps),
    so runs of one leg with and without a sample hook share an entry, and
    the leg's Simpson moments are reduced from it (``_arc_moments``,
    ``_action_moments``, memoized on the same leg).  The array is
    read-only: every caller of the memo shares it.  The key is every
    input of the run, and the model (its mass and drive) is part of it,
    so two ramps never share an entry.
    """
    path = _linear_steps(model, c, d, t0, dt, h, n_steps)
    path.flags.writeable = False
    return path


def _linear_steps(model, c, d, t0, dt, h, n_steps):
    """Step the identity's two tangent rows of a linear flow n_steps times
    on Python complex scalars; returns their path (2, n_steps + 1, 2, 1).

    The force m w^2 q is linear in each row, so each row is a flow of its
    own, and each runs ``_rk4_steps``'s Nystrom stage sequence: the same
    operations in the same order, on the same drive table and stage
    constants (``_nystrom_table``).  So the path is bit for bit what the
    array stages would give a (2, 1) stack, at a fraction of the cost: at
    width 1 a numpy call costs more than its arithmetic.  Python complex
    multiplication and addition raise nothing on overflow, so a sample
    that is not finite propagates as it would in the array stages.
    """
    drive, (hd, hd2, hc6, hchd2, hchd4, hchd6) = _nystrom_table(
        model, c, d, t0, dt, h, n_steps)
    path = np.empty((2, n_steps + 1, 2, 1), dtype=complex)
    for row, (p, q) in enumerate(((1 + 0j, 0j), (0j, 1 + 0j))):
        ps, qs = [p], [q]
        for m_start, m_mid, m_end in drive:
            k1 = q * m_start
            q2 = q + p * hd2
            q = q + p * hd                  # the base of Q4 and Q'
            k2 = q2 * m_mid
            k3 = (q2 + k1 * hchd4) * m_mid  # at Q3
            k4 = (q + k2 * hchd2) * m_end   # at Q4
            s = (k1 + k2) + k3
            q = q + s * hchd6
            p = p + ((s + (k2 + k3)) + k4) * hc6
            ps.append(p)
            qs.append(q)
        path[0, :, row, 0] = ps
        path[1, :, row, 0] = qs
    return path


def _square_terms(rows):
    """(a^2, 2 a b, b^2) at each sample, (n + 1, 3), of one coordinate's
    width-1 tangent rows (n + 1, 2, 1), a = d/dp0 and b = d/dq0: their
    weighted sums are the coefficients of sum_k w_k x_k^2, x_k =
    a_k p0 + b_k q0, as a quadratic form in the start
    (``_quadratic_form``)."""
    a, b = rows[:, 0], rows[:, 1]
    return np.concatenate([a * a, 2.0 * a * b, b * b], axis=1)


def _quadratic_form(mom, p0, q0):
    """mom[0] p0^2 + mom[1] p0 q0 + mom[2] q0^2 for the (B,) starts.

    The coefficients are width-1 data and every operation is
    elementwise, so each column's value is its width-1 value bit for bit.
    """
    return (mom[0] * p0 + mom[1] * q0) * p0 + mom[2] * (q0 * q0)


@lru_cache(maxsize=32)
def _arc_moments(model, t, h, n_steps):
    """The Simpson sums over a linear arc's plus half, as moments.

    The plus half is the imaginary flow frozen at t from sigma = 0 in
    n_steps steps of h; its p_k and q_k are linear in the center, so
    sum_k w_k p_k^2 and sum_k w_k q_k^2 (w the arc's half weights,
    ``_arc_half_weights``) are quadratic forms in it.  Returns their
    coefficients, read-only (2, 3) complex: row 0 for p^2, row 1 for q^2.
    Reduced once per leg from the memo's path (same leg, same entry).
    """
    path = _linear_monodromy(model, 1j, -1j / model.mass, t, 0.0, h, n_steps)
    terms = np.concatenate([_square_terms(path[0]), _square_terms(path[1])],
                           axis=1)
    mom = weighted_sum(_arc_half_weights(n_steps, h), terms).reshape(2, 3)
    mom.flags.writeable = False
    return mom


@lru_cache(maxsize=32)
def _action_moments(model, t_from, h, n_steps):
    """The Simpson sum of the Lagrangian over a linear real leg, as moments.

    The leg is the real flow from t_from in n_steps steps of h, and its
    Lagrangian p^2/2m - m w(t)^2 q^2/2 is a quadratic form in the start at
    each sample, so the composite Simpson sum is one: each sample's
    p terms carry 1/2m and its q terms its own m w(t_k)^2 / 2.  Returns
    the (3,) read-only coefficients (``_quadratic_form``).
    """
    path = _linear_monodromy(model, -1.0, 1.0 / model.mass, t_from, h, h,
                             n_steps)
    omega = model.protocol.omega(t_from + np.arange(n_steps + 1) * h)
    stiffness = (model.mass * omega * omega)[:, None]
    terms = (_square_terms(path[0]) / (2.0 * model.mass)
             - 0.5 * stiffness * _square_terms(path[1]))
    mom = weighted_sum(simpson_weights(n_steps + 1, h), terms)
    mom.flags.writeable = False
    return mom


def _nystrom_table(model, c, d, t0, dt, h, n_steps):
    """The drive table and stage constants of an RK4 run in Nystrom form.

    The drive is a list of the stiffness m w(t)^2 at each step's start,
    midpoint and end, formed for the whole run in one vectorized pass
    with the times t0 + k dt, t + dt/2 and t + dt of step k (so an
    out-of-range time anywhere raises before the first step); dt = 0
    freezes the drive, and its stiffness is evaluated once.  The
    constants are (hd, hd/2, hc/6, hc hd/2, hc hd/4, hc hd/6) with
    hc = h c and hd = h d.  Both steppers (``_rk4_steps``,
    ``_linear_steps``) read their numbers from here.
    """
    # the scalars are complex: numpy promotes a float operand of a complex
    # array to complex anyway, bit for bit, but the promotion costs more
    # than the whole product of a narrow batch
    def stiffness(t):
        w = model.protocol.omega(t)
        return model.mass * w * w

    if not n_steps:
        drive = []
    elif dt == 0.0:
        drive = [(complex(stiffness(t0)),) * 3] * n_steps
    else:
        t = t0 + np.arange(n_steps) * dt
        drive = list(zip(*(stiffness(x).astype(complex).tolist()
                           for x in (t, t + 0.5 * dt, t + dt))))
    hc, hd = complex(h * c), complex(h * d)
    hchd = hc * hd
    return drive, (hd, 0.5 * hd, hc / 6.0, 0.5 * hchd, 0.25 * hchd,
                   hchd / 6.0)


def _rk4_steps(model, c, d, t0, dt, P, Q, h, n_steps, sample=None):
    """Step a quartic model's (rows, B) complex stacks P and Q in place,
    n_steps times.

    Row 0 is the state and, in a 3-row stack, rows 1 and 2 are the
    tangent columns, with H_qq at each stage state.  A linear model never
    comes here: its flow is the scalar recurrence ``_linear_steps``.
    Each stage is one array operation over the stack.  ``sample(k, p, q)``,
    if given, is handed row 0 at each sample k = 0 .. n_steps, before
    step k + 1 and after the last step; p and q are views of the live
    stack, valid during the call only.  No path is kept here: a hook
    that needs one records it (``_recorder``), and a sum over the samples
    accumulates as the run goes (``_accumulator``).

    The step is in Nystrom form (Hairer, Norsett and Wanner, *Solving
    Ordinary Differential Equations I*, sec. II.14): stage forces k_j at
    Q2 = Q + (hd/2) P, Q3 = Q2 + (hc hd/4) k1, Q4 = Q + hd P + (hc hd/2) k2,
    then P' = P + (hc/6)(k1 + 2 k2 + 2 k3 + k4) and
    Q' = Q + hd P + (hc hd/6)(k1 + k2 + k3).  The flow is separable, so
    this is classical RK4 in exact arithmetic without the stage momenta,
    and the tangent rows are still the exact derivative of the discrete
    map.  hc hd is real for both flows, so every operation commutes
    exactly with conjugation.  The quartic force q (m w^2 + 4 lam q^2) and
    the tangent stiffness m w^2 + 12 lam q^2 come from one coefficient
    stack.  The drive table and stage constants are ``_nystrom_table``'s.
    Every stage writes into buffers allocated once per run.
    """
    drive, (hd, hd2, hc6, hchd2, hchd4, hchd6) = _nystrom_table(
        model, c, d, t0, dt, h, n_steps)
    tangent = P.shape[0] > 1
    # stage buffers: the stage position, the stage forces (k1 then k3,
    # k2 then k4), their sum and a scratch stack; q^2, and the force and
    # stiffness coefficients m w^2 + 4 lam q^2 and m w^2 + 12 lam q^2
    Qs, Ka, Kb, S, tmp = (np.empty_like(P) for _ in range(5))
    qq, coef = np.empty_like(P[0]), np.empty_like(P[:1 + tangent])
    lam = model.quartic_lambda * np.array([[4], [12]][:1 + tangent]) + 0j
    coef_f, coef_s = coef[0], coef[1:]
    q_rows, qs_rows, ka_rows, kb_rows = (
        (X[0], X[1:]) for X in (Q, Qs, Ka, Kb))
    p_state, q_state = P[0], Q[0]

    def force(x_rows, k_rows, mw2):
        """k = (H_q(q), H_qq(q) dq rows) at the state row q of x, given
        as (state row, tangent rows) views like k."""
        (q, dq), (f, df) = x_rows, k_rows
        np.multiply(q, q, out=qq)
        np.add(np.multiply(lam, qq, out=coef), mw2, out=coef)
        np.multiply(q, coef_f, out=f)
        if tangent:
            np.multiply(dq, coef_s, out=df)

    with np.errstate(over="ignore", invalid="ignore"):
        for k, (m_start, m_mid, m_end) in enumerate(drive):
            if sample is not None:
                sample(k, p_state, q_state)
            # once Q2 is formed, Q holds Q + hd P, the base of Q4 and Q'
            force(q_rows, ka_rows, m_start)                 # k1
            np.add(Q, np.multiply(P, hd2, out=Qs), out=Qs)  # Q2
            np.add(Q, np.multiply(P, hd, out=tmp), out=Q)
            force(qs_rows, kb_rows, m_mid)                  # k2
            np.add(Qs, np.multiply(Ka, hchd4, out=tmp), out=Qs)  # Q3
            np.add(Ka, Kb, out=S)
            force(qs_rows, ka_rows, m_mid)                  # k3
            np.add(Q, np.multiply(Kb, hchd2, out=tmp), out=Qs)   # Q4
            np.add(Kb, Ka, out=Kb)                          # k2 + k3
            np.add(S, Ka, out=S)                            # k1 + k2 + k3
            force(qs_rows, ka_rows, m_end)                  # k4
            np.add(Q, np.multiply(S, hchd6, out=tmp), out=Q)     # Q'
            np.add(S, Kb, out=S)
            np.add(S, Ka, out=S)                # k1 + 2 k2 + 2 k3 + k4
            np.add(P, np.multiply(S, hc6, out=S), out=P)         # P'
        if sample is not None:
            sample(n_steps, p_state, q_state)


def _flow_imaginary_batch(model, t, p0, q0, s_from, s_to, n_steps,
                          sample=None, tangent=False):
    """RK4 for the frozen-time arc ODE; returns the endpoints (p, q).

    The arc ODE is the kernel's c = i, d = -i/m with the drive frozen at t.
    ``sample`` is the kernel's per-sample hook (``_rk4``): a recorder for
    the state path, or an accumulator of sums over it.  With ``tangent``
    set, a third value is returned: the monodromy matrix
    M = d(p, q)_end / d(p0, q0) of shape (2, 2) + p0.shape, rows (p, q),
    columns (p0, q0); the state is unchanged by either option.

    States that leave the representable range propagate as non-finite
    values; callers decide whether that is an error (public wrappers) or a
    rejected trial point (the Newton engine).
    """
    if s_to == s_from:
        n_steps = 0
    h = (s_to - s_from) / n_steps if n_steps else 0.0
    P, Q = _rk4(model, 1j, -1j / model.mass, t, 0.0, p0, q0, h, n_steps,
                tangent, sample)
    return (P[0], Q[0], np.stack([P[1:], Q[1:]])) if tangent else (P[0], Q[0])


def _real_step_count(model: HamiltonianModel, settings: IntegratorSettings,
                     span: float) -> int:
    """Even step count matching the protocol-wide step density."""
    ref = model.protocol.duration
    if ref <= 0.0:
        ref = max(abs(span), 1.0)
    n = math.ceil(settings.n_time_steps * abs(span) / ref)
    n = max(n, 2)
    return n + (n % 2)


def _flow_real_batch(model, t_from, t_to, p0, q0, n_steps,
                     with_action=False, tangent=False):
    """RK4 real-time propagation; optionally accumulates int (p dq - H dt).

    The real-time ODE is the kernel's c = -1, d = 1/m with a running
    drive; ``tangent`` appends the monodromy as in _flow_imaginary_batch.
    The action is accumulated with the composite Simpson pattern on the
    step grid (n_steps must be even when with_action is set) and is signed
    with the integration direction: integrating backwards returns the
    negative of the forward action.  A quartic leg sums its Lagrangian
    p (p/m) - H(t_k) at t_k = t_from + k h as the kernel steps
    (``_accumulator``), so no path of the leg is stored; a linear leg's
    sum is a quadratic form in the start (``_action_moments``).
    """
    if t_to == t_from:
        n_steps = 0
    elif with_action and n_steps % 2 != 0:
        raise ValueError("action accumulation requires an even step count")
    h = (t_to - t_from) / n_steps if n_steps else 0.0
    linear = model.quartic_lambda == 0.0
    sums = sample = None
    if with_action and n_steps and not linear:
        t = t_from + np.arange(n_steps + 1) * h
        sums, sample = _accumulator(
            simpson_weights(n_steps + 1, h),
            (lambda k, p, q: p * (p / model.mass) - model.value(t[k], p, q),))
    P, Q = _rk4(model, -1.0, 1.0 / model.mass, t_from, h, p0, q0, h,
                n_steps, tangent, sample)
    out = (P[0], Q[0])
    if with_action:
        if sums is not None:
            action = sums[0]
        elif n_steps:
            with np.errstate(over="ignore", invalid="ignore"):
                action = _quadratic_form(
                    _action_moments(model, t_from, h, n_steps),
                    np.asarray(p0, dtype=complex),
                    np.asarray(q0, dtype=complex))
        else:
            action = np.zeros(P.shape[1:], dtype=complex)
        out += (action,)
    return out + (np.stack([P[1:], Q[1:]]),) if tangent else out


def _check_halving(settings, coarse, refine, what) -> None:
    """With ``richardson_check`` set, compare the coarse endpoint (p, q),
    and an arc's monodromy M_+ if given as a third value, with
    ``refine()``, the same flow at twice the steps; raise
    ToleranceExceeded if either gap, relative to its own scale
    1 + max |coarse|, exceeds ``tolerance``."""
    if not settings.richardson_check:
        return
    fine = refine()
    for part, c, f in ((what, coarse[:2], fine[:2]),
                       (f"{what} monodromy", coarse[2:], fine[2:])):
        # initial=0: a solve whose every column failed checks an empty batch
        scale = 1.0 + max((np.max(np.abs(x), initial=0.0) for x in c),
                          default=0.0)
        gap = max((np.max(np.abs(x - y), initial=0.0) for x, y in zip(c, f)),
                  default=0.0) / scale
        if gap > settings.tolerance:
            raise ToleranceExceeded(
                f"{part} halving gap {gap:.3e} > {settings.tolerance:.3e}")


def flow_imaginary(model: HamiltonianModel, t: float, z0: ComplexPoint,
                   sigma_from: float, sigma_to: float,
                   settings: IntegratorSettings = DEFAULT_SETTINGS) -> SampledPath:
    """Frozen-time arc flow from sigma_from to sigma_to with stored samples."""
    p0 = np.array([z0.p], dtype=complex)
    q0 = np.array([z0.q], dtype=complex)
    if sigma_to == sigma_from:
        return SampledPath(np.array([sigma_from]), p0, q0)
    n = settings.n_sigma_steps
    (p_path, q_path), record = _recorder(n, p0.shape)
    _flow_imaginary_batch(model, t, p0, q0, sigma_from, sigma_to, n, record)
    _check_finite(p_path, q_path, "imaginary-time flow")
    _check_halving(settings, (p_path[-1], q_path[-1]),
                   lambda: _flow_imaginary_batch(model, t, p0, q0, sigma_from,
                                                 sigma_to, 2 * n),
                   "imaginary flow")
    sigma = np.linspace(sigma_from, sigma_to, n + 1)
    return SampledPath(sigma, p_path[:, 0], q_path[:, 0])


def flow_real(model: HamiltonianModel, t_from: float, t_to: float,
              z: ComplexPoint,
              settings: IntegratorSettings = DEFAULT_SETTINGS) -> ComplexPoint:
    """Real-time propagation of one complex phase point (backwards allowed)."""
    model.protocol._check_time(t_from)
    model.protocol._check_time(t_to)
    if t_to == t_from:
        return z
    p0 = np.array([z.p], dtype=complex)
    q0 = np.array([z.q], dtype=complex)
    n = _real_step_count(model, settings, t_to - t_from)
    p, q = _flow_real_batch(model, t_from, t_to, p0, q0, n)
    _check_finite(p, q, "real-time flow")
    _check_halving(settings, (p, q),
                   lambda: _flow_real_batch(model, t_from, t_to, p0, q0, 2 * n),
                   "real flow")
    return ComplexPoint(complex(p[0]), complex(q[0]))


def _arc_half_weights(n_steps, h):
    """The plus half's share of the whole arc's composite Simpson rule.

    Rows n..2n of ``simpson_weights(2n + 1, h)``, the center's weight
    halved, so any n is valid.  With S this sum of f over the plus half,
    the whole-arc sum is S + conj(S) where f at the conjugate point is
    conj(f), and S - conj(S) where it is -conj(f).
    """
    w = simpson_weights(2 * n_steps + 1, h)[n_steps:]
    w[0] *= 0.5
    return w


@dataclass
class ImaginaryArc:
    """Frozen-time thermal arcs sharing one sigma grid, one column per
    real center; the width-1 views (``build_arc``, ``pseudo_hamiltonian``,
    ``solve_pseudo_state``) hand over a batch of one column.

    Each arc is its plus half, from the center (sample 0) to
    sigma = +hbar*beta/2 (sample -1); the center is real, so the sample at
    -sigma is the conjugate of the one at +sigma.  An arc of either family
    keeps its centers, its endpoints and the plus halves' monodromy
    ``m_plus``, and nothing else of its flow.  Every run over the plus
    halves is one state-only ``_flow_imaginary_batch`` call from the
    centers (``_step``), and what the run keeps is its sample hook's
    choice: the state paths ``p`` and ``q`` are recorded on first read
    (``_recorder``), and a quartic arc's Simpson sums are accumulated as
    the kernel steps (``_accumulator``), with no path stored.  The sums
    over the plus half are ``square_sum``, the one place that knows which
    of the two families an arc is: a linear arc's is a quadratic form in
    the center and steps nothing, and a quartic arc forms both of the sums
    its readers take (p dq's and the power's) in its one accumulating run,
    never from a recorded path.  The center energy ``h_center``, ``pdq``,
    ``action`` and the ``prefactor`` are formed on first read and cached:
    a march reads them at two of its time nodes.  ``action`` and the area form of G (``g``) share the one
    center energy.
    """

    model: HamiltonianModel
    t: float
    hbar_beta: float
    sigma: np.ndarray        # (n+1,), 0 to +hbar*beta/2
    center_p: np.ndarray     # (B,) complex, zero imaginary parts
    center_q: np.ndarray     # (B,)
    end_p: np.ndarray        # (B,) complex, at sigma = +hbar*beta/2
    end_q: np.ndarray        # (B,)
    m_plus: np.ndarray       # (2, 2, B) complex

    @property
    def p(self) -> np.ndarray:
        """The plus halves' momenta, (n+1, B) complex, center first."""
        return self._states[0]

    @property
    def q(self) -> np.ndarray:
        """The plus halves' positions, (n+1, B) complex."""
        return self._states[1]

    def _step(self, sample):
        """Step the plus halves from the centers, state row only, handing
        each sample to the hook ``sample``: bitwise the state of the flow
        that integrated the endpoints."""
        _flow_imaginary_batch(self.model, self.t, self.center_p,
                              self.center_q, 0.0, 0.5 * self.hbar_beta,
                              self.sigma.shape[0] - 1, sample)

    @cached_property
    def _states(self):
        """(p, q), the plus halves' state paths, recorded from one run."""
        path, record = _recorder(self.sigma.shape[0] - 1,
                                 self.center_p.shape)
        self._step(record)
        return path

    @cached_property
    def half_weights(self) -> np.ndarray:
        """The plus half's share of the whole arc's Simpson rule
        (``_arc_half_weights``)."""
        n = self.sigma.shape[0] - 1
        return _arc_half_weights(n, self.sigma[-1] / n)

    @cached_property
    def _square_coefs(self) -> tuple:
        """The coefficient of each row's square sum, the one place it is
        defined: -i/m for p (``pdq``) and dH/dt's rate m w wdot for q (the
        pseudo-power, ``pseudowork._pseudo_power_batch``)."""
        return -1j / self.model.mass, self.model.dt(self.t, 0.0, 1.0)

    @cached_property
    def _square_sums(self) -> list:
        """A quartic arc's two square sums at ``_square_coefs``, both
        accumulated in one state-only run as the kernel steps."""
        c_p, c_q = self._square_coefs
        sums, add = _accumulator(self.half_weights,
                                 (lambda k, p, q: (c_p * p) * p,
                                  lambda k, p, q: (c_q * q) * q))
        self._step(add)
        return sums

    def square_sum(self, row: int) -> np.ndarray:
        """sum_k w_k (c x_k) x_k over each arc's plus half, (B,) complex:
        x = p for row 0, q for row 1, w the half weights and c the row's
        coefficient in ``_square_coefs``.

        A linear arc's is c times a quadratic form in the center with the
        memo's moments (``_arc_moments``), O(1) per column.  A quartic
        arc's is one of ``_square_sums``, both formed in one state-only
        run that stores no path, whether or not ``p`` or ``q`` was read:
        ``weighted_sum``'s loop over the (c x) x rows, so it is the sum
        over a recorded path bit for bit.
        """
        if self.model.quartic_lambda == 0.0:
            n = self.sigma.shape[0] - 1
            mom = _arc_moments(self.model, self.t, self.sigma[-1] / n, n)
            return self._square_coefs[row] * _quadratic_form(
                mom[row], self.center_p, self.center_q)
        return self._square_sums[row]

    @cached_property
    def pdq(self) -> np.ndarray:
        """int p dq along each whole arc, (B,) complex, purely imaginary:
        dq/dsigma = -i p / m, so the plus half's share is the p^2 sum."""
        half = self.square_sum(0)
        return half - np.conjugate(half)

    @cached_property
    def h_center(self) -> np.ndarray:
        """H_t at each center, (B,) complex."""
        return self.model.value(self.t, self.center_p, self.center_q)

    @cached_property
    def action(self) -> np.ndarray:
        """S = int p dq - du H(center), du = -i hbar*beta."""
        du = -1j * self.hbar_beta
        return self.pdq - du * self.h_center

    @property
    def g(self) -> np.ndarray:
        """Area form of the pseudo-Hamiltonian, H_t(center) - A / hbar*beta."""
        return self.h_center.real - self.area / self.hbar_beta

    @cached_property
    def prefactor(self) -> np.ndarray:
        """Geometric prefactor 2 / sqrt|2 + tr M| per arc, (B,) real.

        M = [[A, B], [C, D]] = d(p, q)_end / d(p, q)_start is the monodromy
        of the whole arc.  Its minus half is the conjugate flow of its plus
        half, so M = M_+ conj(M_+)^-1, with the true inverse (RK4 is not
        symplectic: det M_+ is not exactly 1).  At fixed endpoints q0, q1
        the initial momentum obeys dq1 = C dp0 + D dq0, so with det M = 1
        the endpoint action S(q0, q1) has the Hessian

            S_aa = D / C,   S_bb = A / C,   S_ab = -1 / C

        (up to an overall sign that cancels below).  Substituted into the
        stationary-phase factor sqrt(2 |S_ab| / |S_ab - (S_aa + S_bb) / 2|)
        this gives 2 / sqrt|2 + A + D|, which for the harmonic oscillator
        (tr M = 2 cosh(beta hbar w)) is exactly 1 / cosh(beta hbar w / 2).
        NaN where M_+ is not finite; ``stationary._finite_prefactors``
        raises for the callers that cannot mark a column.
        """
        (a, b), (c, d) = m = self.m_plus
        (ca, cb), (cc, cd) = np.conjugate(m)
        with np.errstate(over="ignore", invalid="ignore"):
            trace = (a * cd - b * cc - c * cb + d * ca) / (ca * cd - cb * cc)
            geom = 2.0 / np.sqrt(np.abs(2.0 + trace))
        geom[~np.all(np.isfinite(m), axis=(0, 1))] = np.nan
        return geom

    @property
    def area(self) -> np.ndarray:
        """Enclosed area Re[i (int p dq - p_mid * chord)], (B,) real."""
        return (1j * (self.pdq - self.mid_p * self.chord)).real

    @property
    def chord(self) -> np.ndarray:
        return self.end_q - np.conjugate(self.end_q)

    @property
    def mid_p(self) -> np.ndarray:
        return 0.5 * (np.conjugate(self.end_p) + self.end_p)

    @property
    def mid_q(self) -> np.ndarray:
        return 0.5 * (np.conjugate(self.end_q) + self.end_q)


def _build_arc_batch(model, t, center_p, center_q, hbar_beta, settings,
                     half=None) -> ImaginaryArc:
    """Record the symmetric arcs by their center -> +hbar*beta/2 halves.

    ``half`` is the plus halves' (B,) endpoints and monodromy M_+
    (2, 2, B), as the solve that found the centers integrated them
    (``stationary._invert_map_batch`` passes it); without it they are
    integrated here.  Nothing is stepped here from the centers: a quartic
    arc runs its state row once when its sums are first read, summing as
    the kernel steps (``ImaginaryArc.square_sum``), and records a path
    only if ``p`` or ``q`` is read, so no Newton trial and no arc of the
    march stores one.  The endpoints are checked for
    finite values (a sample that is not finite stays so to the end of a
    quartic path; a linear arc's sums are forms that carry it) and, with
    ``richardson_check``, the endpoints and M_+ against the same flow at
    twice the steps (M_+ on its own scale: at a center at the origin the
    state is 0 at every step count).

    Centers must be real (a complex dtype with zero imaginary parts is
    accepted); a non-real center raises ValueError.  For a real center the
    minus half (center -> -hbar*beta/2) is the complex conjugate of the
    plus half, and bitwise so: the two RK4 runs differ only in the sign of
    the imaginary step factor, and every stage operation commutes exactly
    with conjugation.  So only the plus half is integrated and recorded.
    """
    if not hbar_beta > 0.0:
        raise ValueError("hbar_beta must be positive")
    n = settings.n_sigma_steps
    s = 0.5 * hbar_beta
    cp = np.asarray(center_p, dtype=complex)
    cq = np.asarray(center_q, dtype=complex)
    if np.any(cp.imag != 0.0) or np.any(cq.imag != 0.0):
        raise ValueError("arc assembly expects real centers")
    if half is None:
        half = _flow_imaginary_batch(model, t, cp, cq, 0.0, +s, n,
                                     tangent=True)
    end_p, end_q, m_plus = half
    _check_finite(end_p, end_q, "arc integration")
    _check_halving(settings, (end_p, end_q, m_plus),
                   lambda: _flow_imaginary_batch(model, t, cp, cq, 0.0, +s,
                                                 2 * n, tangent=True),
                   "arc")
    sigma = np.linspace(0.0, s, n + 1)
    return ImaginaryArc(model=model, t=t, hbar_beta=hbar_beta, sigma=sigma,
                        center_p=cp, center_q=cq, end_p=end_p, end_q=end_q,
                        m_plus=m_plus)


def build_arc(model: HamiltonianModel, t: float, z_c: ComplexPoint,
              hbar_beta: float,
              settings: IntegratorSettings = DEFAULT_SETTINGS) -> ImaginaryArc:
    """Thermal arc through the real center z_c at frozen time t, a width-1
    batch whose plus half and monodromy are integrated here."""
    return _build_arc_batch(
        model, t, np.array([z_c.p], dtype=complex),
        np.array([z_c.q], dtype=complex), hbar_beta, settings)
