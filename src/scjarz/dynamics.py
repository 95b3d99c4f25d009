"""Hamiltonian flows in imaginary time (frozen drive) and real time.

Imaginary-time arcs are parametrized by the real variable sigma in
[-hbar*beta/2, +hbar*beta/2]; the integrated ODE is

    dp/dsigma = +i dH_t/dq,   dq/dsigma = -i dH_t/dp,

with the drive held fixed at t.  Real-time flows solve the usual
dp/dt = -dH_t/dq, dq/dt = +dH_t/dp with complex state and running drive.

Everything is a fixed-step classical RK4 so that the stored samples line up
with the composite-Simpson grids used for actions and powers.  The private
``*_batch`` functions operate on 1-D complex arrays (one entry per phase
point) and are what the grid scans build on; the public operations wrap a
batch of size one around them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import IntegratorDiverged, ToleranceExceeded
from .models import ComplexPoint, HamiltonianModel


@dataclass(frozen=True)
class IntegratorSettings:
    """Step counts and tolerances shared by the integrator and the solvers.

    n_sigma_steps counts RK4 steps per half-arc (center to one endpoint);
    n_time_steps sets the real-time step density (steps per full protocol
    duration) and the uniform trajectory grid of ``pseudo_work`` and
    ``scjarz work`` (n_time_steps + 1 nodes, Simpson work sum).  The
    identity's work integral uses a fixed Gauss-Legendre rule in time
    (``pseudowork._gauss_legendre_nodes``) instead.
    """

    n_sigma_steps: int = 64
    n_time_steps: int = 64
    richardson_check: bool = False
    tolerance: float = 1e-8
    newton_tol: float = 1e-11
    newton_max_iter: int = 50
    continuation_stages: int = 4
    caustic_floor: float = 1e-10
    damping_floor: float = 2.0 ** -10

    def __post_init__(self):
        if self.n_sigma_steps < 8:
            raise ValueError("n_sigma_steps must be >= 8")
        if self.n_time_steps < 2 or self.n_time_steps % 2 != 0:
            raise ValueError("n_time_steps must be a positive even integer")
        for name in ("tolerance", "newton_tol", "caustic_floor", "damping_floor"):
            if not getattr(self, name) > 0.0:
                raise ValueError(f"{name} must be positive")
        if self.newton_max_iter < 1 or self.continuation_stages < 0:
            raise ValueError("iteration budgets must be positive")


DEFAULT_SETTINGS = IntegratorSettings()


@dataclass(frozen=True)
class SampledPath:
    """Uniformly sampled trajectory of one phase point."""

    sigma: np.ndarray
    p: np.ndarray
    q: np.ndarray

    def endpoint(self) -> ComplexPoint:
        return ComplexPoint(complex(self.p[-1]), complex(self.q[-1]))


@dataclass(frozen=True)
class ImaginaryArc:
    """A frozen-time thermal arc built symmetrically about its real center.

    The chord is q_plus - q_minus; the enclosed area A is
    Re[i (int p dq - p_mid * chord)] and is real for a real center.
    """

    t: float
    hbar_beta: float
    sigma: np.ndarray
    p_samples: np.ndarray
    q_samples: np.ndarray
    center: ComplexPoint
    action: complex
    area: float
    area_imag: float

    @property
    def z_minus(self) -> ComplexPoint:
        return ComplexPoint(complex(self.p_samples[0]), complex(self.q_samples[0]))

    @property
    def z_plus(self) -> ComplexPoint:
        return ComplexPoint(complex(self.p_samples[-1]), complex(self.q_samples[-1]))

    @property
    def chord(self) -> complex:
        return complex(self.q_samples[-1] - self.q_samples[0])

    @property
    def chord_midpoint(self) -> ComplexPoint:
        return ComplexPoint(
            complex(0.5 * (self.p_samples[0] + self.p_samples[-1])),
            complex(0.5 * (self.q_samples[0] + self.q_samples[-1])),
        )


def simpson_weights(n_samples: int, h: float) -> np.ndarray:
    """Composite Simpson weights for an odd number of uniform samples."""
    if n_samples < 3 or n_samples % 2 == 0:
        raise ValueError("Simpson rule needs an odd sample count >= 3")
    w = np.ones(n_samples)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w * (h / 3.0)


def weighted_sum(w: np.ndarray, x: np.ndarray) -> np.ndarray:
    """sum_k w[k] * x[k] over the leading axis, accumulated in index order.

    Each column's result depends on that column alone, so it is bitwise
    the same whatever the batch width, row chunking or BLAS threading
    (a ``w @ x`` matrix-vector product blocks differently in each case).
    """
    acc = w[0] * x[0]
    for k in range(1, w.shape[0]):
        acc += w[k] * x[k]
    return acc


def _check_finite(p: np.ndarray, q: np.ndarray, what: str) -> None:
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise IntegratorDiverged(f"non-finite state during {what}")


def _rk4(model, c, d, t0, dt, p0, q0, h, n_steps, tangent=False, store=False):
    """Classical RK4 for dp = c H_q(q), dq = d p on a stacked state.

    P and Q are (rows, B) complex stacks.  Row 0 is the state; with
    ``tangent``, rows 1 and 2 are the tangent columns d/dp0 and d/dq0.
    They obey dp' = c H_qq(q) dq', dq' = d p' with H_qq at each stage
    state, so they are the exact derivative of the discrete RK4 map
    (Hairer, Lubich and Wanner, variational equations).  Each stage is one
    array operation over the stack, and row 0 is the same elementwise
    formula either way, so the state is bitwise the same with or without
    the tangent.  The drive is taken at t0 + k dt in step k (dt = 0
    freezes it).
    Returns the final stacks and, with ``store``, the state path
    (n_steps + 1, B) of p and q.
    """
    rows = 3 if tangent else 1
    P = np.zeros((rows,) + np.shape(p0), dtype=complex)
    Q = np.zeros_like(P)
    P[0], Q[0] = p0, q0
    if tangent:
        P[1] = Q[2] = 1.0
    path = (np.empty((2, n_steps + 1) + P.shape[1:], dtype=complex)
            if store else None)
    lam4, lam12 = 4.0 * model.quartic_lambda, 12.0 * model.quartic_lambda
    hc, hd = h * c, h * d
    # stage buffers: force rows, stage state, and the weighted sums of the
    # stage forces (p increment) and stage momenta (q increment)
    F, Ps, Qs, acc_f, acc_p = (np.empty_like(P) for _ in range(5))

    def stiffness(t):
        w = model.protocol.omega(t)
        return model.mass * w * w

    def force(Q, mw2):
        """F = (H_q(q), H_qq(q) dq rows) at the state row q = Q[0]."""
        if lam4 == 0.0:
            np.multiply(Q, mw2, out=F)
            return
        q = Q[0]
        qq = q * q
        np.multiply(q, mw2, out=F[0])
        F[0] += lam4 * (qq * q)
        if tangent:
            np.multiply(Q[1:], mw2 + lam12 * qq, out=F[1:])

    def stage(a_p, a_q, p_from):
        """Ps, Qs = P + a_p F, Q + a_q p_from (p_from may be Ps itself)."""
        np.add(Q, np.multiply(p_from, a_q, out=Qs), out=Qs)
        np.add(P, np.multiply(F, a_p, out=Ps), out=Ps)

    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            if store:
                path[0, k], path[1, k] = P[0], Q[0]
            t = t0 + k * dt
            m_mid = stiffness(t + 0.5 * dt)
            force(Q, stiffness(t))
            np.copyto(acc_f, F)
            np.copyto(acc_p, P)
            stage(0.5 * hc, 0.5 * hd, P)
            force(Qs, m_mid)
            acc_f += 2.0 * F
            acc_p += 2.0 * Ps
            stage(0.5 * hc, 0.5 * hd, Ps)
            force(Qs, m_mid)
            acc_f += 2.0 * F
            acc_p += 2.0 * Ps
            stage(hc, hd, Ps)
            force(Qs, stiffness(t + dt))
            P += (hc / 6.0) * (acc_f + F)
            Q += (hd / 6.0) * (acc_p + Ps)
        if store:
            path[0, n_steps], path[1, n_steps] = P[0], Q[0]
    return P, Q, path


def _flow_imaginary_batch(model, t, p0, q0, s_from, s_to, n_steps,
                          store=False, tangent=False):
    """RK4 for the frozen-time arc ODE; returns endpoints or full paths.

    The arc ODE is the kernel's c = i, d = -i/m with the drive frozen at t.
    With ``tangent`` set, a third value is returned: the monodromy matrix
    M = d(p, q)_end / d(p0, q0) of shape (2, 2) + p0.shape, rows (p, q),
    columns (p0, q0); the state path is unchanged by the option.

    States that leave the representable range propagate as non-finite
    values; callers decide whether that is an error (public wrappers) or a
    rejected trial point (the Newton engine).
    """
    if s_to == s_from:
        n_steps = 0
    h = (s_to - s_from) / n_steps if n_steps else 0.0
    P, Q, path = _rk4(model, 1j, -1j / model.mass, t, 0.0, p0, q0, h,
                      n_steps, tangent, store)
    p, q = path if store else (P[0], Q[0])
    return (p, q, np.stack([P[1:], Q[1:]])) if tangent else (p, q)


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
    negative of the forward action.
    """
    if t_to == t_from:
        n_steps = 0
    elif with_action and n_steps % 2 != 0:
        raise ValueError("action accumulation requires an even step count")
    h = (t_to - t_from) / n_steps if n_steps else 0.0
    P, Q, path = _rk4(model, -1.0, 1.0 / model.mass, t_from, h, p0, q0, h,
                      n_steps, tangent, store=with_action and n_steps > 0)
    out = (P[0], Q[0])
    if with_action:
        action = np.zeros(P.shape[1:], dtype=complex)
        if n_steps:
            with np.errstate(over="ignore", invalid="ignore"):
                lagrangian = np.stack([
                    p * (p / model.mass) - model.value(t_from + k * h, p, q)
                    for k, (p, q) in enumerate(zip(*path))])
                action = weighted_sum(simpson_weights(n_steps + 1, h),
                                      lagrangian)
        out += (action,)
    return out + (np.stack([P[1:], Q[1:]]),) if tangent else out


def _check_halving(settings, coarse, refine, what) -> None:
    """With ``richardson_check`` set, compare the coarse endpoint (p, q)
    with ``refine()``, the same flow at twice the steps; raise
    ToleranceExceeded if their relative gap exceeds ``tolerance``."""
    if not settings.richardson_check:
        return
    fine = refine()
    scale = 1.0 + max(np.max(np.abs(coarse[0])), np.max(np.abs(coarse[1])))
    gap = max(np.max(np.abs(coarse[0] - fine[0])),
              np.max(np.abs(coarse[1] - fine[1]))) / scale
    if gap > settings.tolerance:
        raise ToleranceExceeded(
            f"{what} halving gap {gap:.3e} > {settings.tolerance:.3e}")


def flow_imaginary(model: HamiltonianModel, t: float, z0: ComplexPoint,
                   sigma_from: float, sigma_to: float,
                   settings: IntegratorSettings = DEFAULT_SETTINGS) -> SampledPath:
    """Frozen-time arc flow from sigma_from to sigma_to with stored samples."""
    p0 = np.array([z0.p], dtype=complex)
    q0 = np.array([z0.q], dtype=complex)
    if sigma_to == sigma_from:
        return SampledPath(np.array([sigma_from]), p0, q0)
    n = settings.n_sigma_steps
    p_path, q_path = _flow_imaginary_batch(
        model, t, p0, q0, sigma_from, sigma_to, n, store=True)
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


@dataclass
class _ArcBatch:
    """Vectorized arcs sharing one sigma grid (one column per phase point)."""

    t: float
    hbar_beta: float
    sigma: np.ndarray        # (2n+1,)
    p: np.ndarray            # (2n+1, B)
    q: np.ndarray            # (2n+1, B)
    center_p: np.ndarray     # (B,) complex
    center_q: np.ndarray
    pdq: np.ndarray = field(init=False, repr=False)     # int p dq (B,)
    action: np.ndarray = field(init=False, repr=False)  # S = int p dq - du H(center)
    area: np.ndarray = field(init=False, repr=False)    # real (B,)
    area_imag: np.ndarray = field(init=False, repr=False)

    def finalize(self, model: HamiltonianModel) -> None:
        n_samples = self.sigma.shape[0]
        h = (self.sigma[-1] - self.sigma[0]) / (n_samples - 1)
        integrand = self.p * (-1j) * (self.p / model.mass)   # p * dq/dsigma
        w = simpson_weights(n_samples, h)
        self.pdq = weighted_sum(w, integrand)
        du = -1j * self.hbar_beta
        h_center = model.value(self.t, self.center_p, self.center_q)
        self.action = self.pdq - du * h_center
        p_mid = 0.5 * (self.p[0] + self.p[-1])
        chord = self.q[-1] - self.q[0]
        area_c = 1j * (self.pdq - p_mid * chord)
        self.area = area_c.real.copy()
        self.area_imag = area_c.imag.copy()

    @property
    def chord(self) -> np.ndarray:
        return self.q[-1] - self.q[0]

    @property
    def mid_p(self) -> np.ndarray:
        return 0.5 * (self.p[0] + self.p[-1])

    @property
    def mid_q(self) -> np.ndarray:
        return 0.5 * (self.q[0] + self.q[-1])

    @classmethod
    def of(cls, arc: ImaginaryArc) -> "_ArcBatch":
        """Width-1 batch holding one arc's samples, not finalized: the
        power and the prefactor read only t, hbar_beta and the samples."""
        return cls(t=arc.t, hbar_beta=arc.hbar_beta, sigma=arc.sigma,
                   p=arc.p_samples[:, None], q=arc.q_samples[:, None],
                   center_p=np.array([arc.center.p]),
                   center_q=np.array([arc.center.q]))

    def single(self, index: int = 0) -> ImaginaryArc:
        z_c = ComplexPoint(complex(self.center_p[index]), complex(self.center_q[index]))
        return ImaginaryArc(
            t=self.t,
            hbar_beta=self.hbar_beta,
            sigma=self.sigma.copy(),
            p_samples=self.p[:, index].copy(),
            q_samples=self.q[:, index].copy(),
            center=z_c,
            action=complex(self.action[index]),
            area=float(self.area[index]),
            area_imag=float(self.area_imag[index]),
        )


def _build_arc_batch(model, t, center_p, center_q, hbar_beta,
                     settings) -> _ArcBatch:
    """Integrate center -> +hbar*beta/2 and assemble the symmetric arcs.

    Centers must be real (a complex dtype with zero imaginary parts is
    accepted); a non-real center raises ValueError.  For a real center the
    minus half (center -> -hbar*beta/2) is the complex conjugate of the
    plus half, and bitwise so: the two RK4 runs differ only in the sign of
    the imaginary step factor, and every stage operation commutes exactly
    with conjugation.  So only the plus half is integrated.
    """
    if not hbar_beta > 0.0:
        raise ValueError("hbar_beta must be positive")
    n = settings.n_sigma_steps
    s = 0.5 * hbar_beta
    cp = np.asarray(center_p, dtype=complex)
    cq = np.asarray(center_q, dtype=complex)
    if np.any(cp.imag != 0.0) or np.any(cq.imag != 0.0):
        raise ValueError("arc assembly expects real centers")
    plus_p, plus_q = _flow_imaginary_batch(model, t, cp, cq, 0.0, +s, n, store=True)
    _check_finite(plus_p, plus_q, "arc integration")
    minus_p, minus_q = plus_p.conj(), plus_q.conj()
    _check_halving(settings, (plus_p[-1], plus_q[-1]),
                   lambda: _flow_imaginary_batch(model, t, cp, cq, 0.0, +s, 2 * n),
                   "arc")
    # assemble sigma ascending: minus-half reversed (dropping its center) + plus-half
    p_full = np.concatenate([minus_p[:0:-1], plus_p], axis=0)
    q_full = np.concatenate([minus_q[:0:-1], plus_q], axis=0)
    sigma = np.linspace(-s, +s, 2 * n + 1)
    arc = _ArcBatch(t=t, hbar_beta=hbar_beta, sigma=sigma, p=p_full, q=q_full,
                    center_p=cp, center_q=cq)
    arc.finalize(model)
    return arc


def build_arc(model: HamiltonianModel, t: float, z_c: ComplexPoint,
              hbar_beta: float,
              settings: IntegratorSettings = DEFAULT_SETTINGS) -> ImaginaryArc:
    """Thermal arc through the real center z_c at frozen time t."""
    batch = _build_arc_batch(
        model, t, np.array([z_c.p], dtype=complex),
        np.array([z_c.q], dtype=complex), hbar_beta, settings)
    return batch.single(0)
