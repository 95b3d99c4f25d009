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
    n_time_steps sets both the work-quadrature node count and the real-time
    step density (steps per full protocol duration).
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


def _frozen_grad(model: HamiltonianModel, t: float):
    """Gradient closure with the drive frequency cached at frozen t."""
    w = model.protocol.omega(t)
    m = model.mass
    mw2 = m * w * w
    lam4 = 4.0 * model.quartic_lambda
    if lam4 == 0.0:
        def grad(p, q):
            return p / m, mw2 * q
    else:
        def grad(p, q):
            return p / m, mw2 * q + lam4 * (q * q * q)
    return grad


def _frozen_hessian(model: HamiltonianModel, t: float):
    """d2H/dq2 closure at frozen t; the other second derivatives are
    d2H/dp2 = 1/m and d2H/dpdq = 0."""
    w = model.protocol.omega(t)
    mw2 = model.mass * w * w
    lam12 = 12.0 * model.quartic_lambda
    if lam12 == 0.0:
        def hqq(q):
            return mw2
    else:
        def hqq(q):
            return mw2 + lam12 * (q * q)
    return hqq


def _check_finite(p: np.ndarray, q: np.ndarray, what: str) -> None:
    if not (np.all(np.isfinite(p)) and np.all(np.isfinite(q))):
        raise IntegratorDiverged(f"non-finite state during {what}")


def _flow_imaginary_batch(model, t, p0, q0, s_from, s_to, n_steps,
                          store=False, tangent=False):
    """RK4 for the frozen-time arc ODE; returns endpoints or full paths.

    With ``tangent`` set, a third value is returned: the monodromy matrix
    M = d(p, q)_end / d(p0, q0) of shape (2, 2) + p0.shape, rows (p, q),
    columns (p0, q0).  It is propagated through the same four RK4 stages
    with the linearized right-hand side d(dp) = i H_qq dq, d(dq) = -i dp/m,
    H_qq taken at each stage state, so it is the exact derivative of the
    discrete RK4 map; the state path is unchanged by the option.

    States that leave the representable range propagate as non-finite
    values; callers decide whether that is an error (public wrappers) or a
    rejected trial point (the Newton engine).
    """
    span = s_to - s_from
    p = np.array(p0, dtype=complex, copy=True)
    q = np.array(q0, dtype=complex, copy=True)
    if tangent:
        jp = np.zeros((2,) + p.shape, dtype=complex)    # dp / d(p0, q0)
        jq = np.zeros_like(jp)                          # dq / d(p0, q0)
        jp[0] = jq[1] = 1.0
    if span == 0.0 or n_steps == 0:
        if store:
            p, q = p[None, :].copy(), q[None, :].copy()
        return (p, q, np.stack([jp, jq])) if tangent else (p, q)
    grad = _frozen_grad(model, t)
    h = span / n_steps
    if tangent:
        hqq = _frozen_hessian(model, t)
        neg_i_over_m = -1j / model.mass

        def lin(qs, dp, dq):
            return 1j * hqq(qs) * dq, neg_i_over_m * dp
    if store:
        p_path = np.empty((n_steps + 1,) + p.shape, dtype=complex)
        q_path = np.empty_like(p_path)
        p_path[0], q_path[0] = p, q
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(n_steps):
            gp, gq = grad(p, q)
            k1p, k1q = 1j * gq, -1j * gp
            q2 = q + 0.5 * h * k1q
            gp, gq = grad(p + 0.5 * h * k1p, q2)
            k2p, k2q = 1j * gq, -1j * gp
            q3 = q + 0.5 * h * k2q
            gp, gq = grad(p + 0.5 * h * k2p, q3)
            k3p, k3q = 1j * gq, -1j * gp
            q4 = q + h * k3q
            gp, gq = grad(p + h * k3p, q4)
            k4p, k4q = 1j * gq, -1j * gp
            if tangent:
                a1, b1 = lin(q, jp, jq)
                a2, b2 = lin(q2, jp + 0.5 * h * a1, jq + 0.5 * h * b1)
                a3, b3 = lin(q3, jp + 0.5 * h * a2, jq + 0.5 * h * b2)
                a4, b4 = lin(q4, jp + h * a3, jq + h * b3)
                jp = jp + (h / 6.0) * (a1 + 2.0 * a2 + 2.0 * a3 + a4)
                jq = jq + (h / 6.0) * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
            p = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            q = q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
            if store:
                p_path[k + 1], q_path[k + 1] = p, q
    if store:
        p, q = p_path, q_path
    return (p, q, np.stack([jp, jq])) if tangent else (p, q)


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
                     with_action=False):
    """RK4 real-time propagation; optionally accumulates int (p dq - H dt).

    The action is accumulated with the composite Simpson pattern on the
    step grid (n_steps must be even when with_action is set) and is signed
    with the integration direction: integrating backwards returns the
    negative of the forward action.
    """
    span = t_to - t_from
    p = np.array(p0, dtype=complex, copy=True)
    q = np.array(q0, dtype=complex, copy=True)
    action = np.zeros(p.shape, dtype=complex) if with_action else None
    if span == 0.0:
        return (p, q, action) if with_action else (p, q)
    if with_action and n_steps % 2 != 0:
        raise ValueError("action accumulation requires an even step count")
    h = span / n_steps

    def rhs(t, p, q):
        gp, gq = model.grad(t, p, q)
        return -gq, gp

    def lagrangian(t, p, q):
        gp, _ = model.grad(t, p, q)
        return p * gp - model.value(t, p, q)

    with np.errstate(over="ignore", invalid="ignore"):
        if with_action:
            weights = simpson_weights(n_steps + 1, h)
            action += weights[0] * lagrangian(t_from, p, q)
        for k in range(n_steps):
            t = t_from + k * h
            k1p, k1q = rhs(t, p, q)
            k2p, k2q = rhs(t + 0.5 * h, p + 0.5 * h * k1p, q + 0.5 * h * k1q)
            k3p, k3q = rhs(t + 0.5 * h, p + 0.5 * h * k2p, q + 0.5 * h * k2q)
            k4p, k4q = rhs(t + h, p + h * k3p, q + h * k3q)
            p = p + (h / 6.0) * (k1p + 2.0 * k2p + 2.0 * k3p + k4p)
            q = q + (h / 6.0) * (k1q + 2.0 * k2q + 2.0 * k3q + k4q)
            if with_action:
                action += weights[k + 1] * lagrangian(t_from + (k + 1) * h, p, q)
    return (p, q, action) if with_action else (p, q)


def _richardson_gap(coarse, fine) -> float:
    scale = 1.0 + max(np.max(np.abs(coarse[0])), np.max(np.abs(coarse[1])))
    gap = max(np.max(np.abs(coarse[0] - fine[0])),
              np.max(np.abs(coarse[1] - fine[1])))
    return float(gap / scale)


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
    if settings.richardson_check:
        fine = _flow_imaginary_batch(model, t, p0, q0, sigma_from, sigma_to, 2 * n)
        gap = _richardson_gap((p_path[-1], q_path[-1]), fine)
        if gap > settings.tolerance:
            raise ToleranceExceeded(
                f"imaginary flow halving gap {gap:.3e} > {settings.tolerance:.3e}")
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
    if settings.richardson_check:
        fine = _flow_real_batch(model, t_from, t_to, p0, q0, 2 * n)
        gap = _richardson_gap((p, q), fine)
        if gap > settings.tolerance:
            raise ToleranceExceeded(
                f"real flow halving gap {gap:.3e} > {settings.tolerance:.3e}")
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
        grad = _frozen_grad(model, self.t)
        gp, _ = grad(self.p, self.q)
        integrand = self.p * (-1j) * gp          # p * dq/dsigma
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
    """Integrate center -> +/- hbar*beta/2 and assemble the symmetric arcs."""
    if not hbar_beta > 0.0:
        raise ValueError("hbar_beta must be positive")
    n = settings.n_sigma_steps
    s = 0.5 * hbar_beta
    cp = np.asarray(center_p, dtype=complex)
    cq = np.asarray(center_q, dtype=complex)
    plus_p, plus_q = _flow_imaginary_batch(model, t, cp, cq, 0.0, +s, n, store=True)
    minus_p, minus_q = _flow_imaginary_batch(model, t, cp, cq, 0.0, -s, n, store=True)
    _check_finite(plus_p, plus_q, "arc integration")
    _check_finite(minus_p, minus_q, "arc integration")
    if settings.richardson_check:
        fine = _flow_imaginary_batch(model, t, cp, cq, 0.0, +s, 2 * n)
        gap = _richardson_gap((plus_p[-1], plus_q[-1]), fine)
        if gap > settings.tolerance:
            raise ToleranceExceeded(
                f"arc halving gap {gap:.3e} > {settings.tolerance:.3e}")
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
    """Thermal arc through center z_c at frozen time t."""
    batch = _build_arc_batch(
        model, t, np.array([z_c.p], dtype=complex),
        np.array([z_c.q], dtype=complex), hbar_beta, settings)
    return batch.single(0)
