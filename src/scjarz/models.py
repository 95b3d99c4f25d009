"""Time-dependent Hamiltonian families evaluated on complex phase space.

The models are polynomials in (p, q), so evaluation at complex arguments is
exact analytic continuation: H_t(p, q) = p^2/2m + m w(t)^2 q^2 / 2 + lam q^4.
The drive enters only through the frequency protocol w(t).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TimeOutOfRange

PROTOCOL_SHAPES = ("constant", "linear", "smoothstep")
MODEL_KINDS = ("harmonic", "quartic")


@dataclass(frozen=True)
class ComplexPoint:
    """One phase-space point with complex momentum and position."""

    p: complex
    q: complex

    def conjugate(self) -> "ComplexPoint":
        return ComplexPoint(np.conjugate(self.p), np.conjugate(self.q))


@dataclass(frozen=True)
class FrequencyProtocol:
    """Drive w(t) on [t_i, t_f] with an exact closed-form derivative.

    Shapes: 'constant' (w_i == w_f), 'linear' ramp, and 'smoothstep'
    (cubic 3 s^2 - 2 s^3 ramp, so dw/dt vanishes at both endpoints).
    """

    t_i: float
    t_f: float
    omega_i: float
    omega_f: float
    shape: str = "linear"

    def __post_init__(self):
        if self.shape not in PROTOCOL_SHAPES:
            raise ValueError(f"unknown protocol shape {self.shape!r}")
        if not (self.omega_i > 0.0 and self.omega_f > 0.0):
            raise ValueError("protocol frequencies must be positive")
        if not (self.t_f >= self.t_i):
            raise ValueError("protocol requires t_f >= t_i")
        if self.shape == "constant" and self.omega_i != self.omega_f:
            raise ValueError("constant protocol requires omega_i == omega_f")
        if self.shape != "constant" and self.t_f == self.t_i:
            raise ValueError("ramp protocols require t_f > t_i")

    @property
    def duration(self) -> float:
        return self.t_f - self.t_i

    def _check_time(self, t) -> None:
        """Raise TimeOutOfRange unless t, or every time of an array t, lies
        inside the protocol span (with a 1e-9 relative slack); a NaN time
        is inside no span."""
        slack = 1e-9 * max(1.0, abs(self.t_i), abs(self.t_f))
        inside = (t >= self.t_i - slack) & (t <= self.t_f + slack)
        if not np.all(inside):
            bad = t if np.ndim(t) == 0 else np.asarray(t)[~inside][0]
            raise TimeOutOfRange(f"t={float(bad)} outside protocol span "
                                 f"[{self.t_i}, {self.t_f}]")

    def _ramp_variable(self, t):
        """s = (t - t_i) / duration clamped to [0, 1]; elementwise for an
        array t, with the same operations as for a scalar."""
        s = (t - self.t_i) / self.duration
        if np.ndim(s) == 0:
            return min(max(s, 0.0), 1.0)
        return np.minimum(np.maximum(s, 0.0), 1.0)

    def omega(self, t):
        """w(t) at a time or, elementwise and bit for bit the scalar
        value, at an array of times."""
        self._check_time(t)
        if self.shape == "constant":
            return self.omega_i if np.ndim(t) == 0 else \
                np.full(np.shape(t), self.omega_i)
        s = self._ramp_variable(t)
        if self.shape == "linear":
            ramp = s
        else:  # smoothstep
            ramp = s * s * (3.0 - 2.0 * s)
        return self.omega_i + (self.omega_f - self.omega_i) * ramp

    def omega_dot(self, t: float) -> float:
        self._check_time(t)
        if self.shape == "constant":
            return 0.0
        s = self._ramp_variable(t)
        if self.shape == "linear":
            dramp = 1.0
        else:
            dramp = 6.0 * s * (1.0 - s)
        return (self.omega_f - self.omega_i) * dramp / self.duration

    def reversed(self) -> "FrequencyProtocol":
        """Same time window, frequencies swapped (drive run backwards)."""
        return FrequencyProtocol(
            self.t_i, self.t_f, self.omega_f, self.omega_i, self.shape
        )


@dataclass(frozen=True)
class HamiltonianModel:
    """Oscillator family H_t = p^2/2m + m w(t)^2 q^2/2 + lam q^4.

    All evaluation methods accept scalars or numpy arrays of complex
    phase-space coordinates and are pure; a model is safe to share.
    H is even in z = (p, q), and its evaluations are sign-symmetric bit
    for bit (IEEE rounding is), so every flow and solve of -z is that of
    z negated.  Every Gauss-Legendre sum relies on it
    (``jarzynski.verify_identity`` and ``jarzynski.partition``): each
    solves half of its grid and fills the other half by the reflection
    (``jarzynski._mirror``).  A family that is not even in z would break
    that mirror.
    """

    kind: str
    mass: float
    protocol: FrequencyProtocol
    quartic_lambda: float = 0.0

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        if not self.mass > 0.0:
            raise ValueError("mass must be positive")
        if self.quartic_lambda < 0.0:
            raise ValueError("quartic coefficient must be >= 0")
        if self.kind == "harmonic" and self.quartic_lambda != 0.0:
            raise ValueError("harmonic kind requires quartic_lambda == 0")

    def value(self, t: float, p, q):
        """H_t(p, q); exact polynomial evaluation at complex arguments."""
        w = self.protocol.omega(t)
        h = p * p / (2.0 * self.mass) + 0.5 * self.mass * w * w * q * q
        if self.quartic_lambda != 0.0:
            h = h + self.quartic_lambda * q * q * q * q
        return h

    def dt(self, t: float, p, q):
        """Explicit time derivative dH/dt = m w wdot q^2 (lam term is static)."""
        w = self.protocol.omega(t)
        wdot = self.protocol.omega_dot(t)
        return self.mass * w * wdot * q * q


def harmonic_model(mass: float = 1.0, omega: float = 1.0,
                   t_i: float = 0.0, t_f: float = 1.0) -> HamiltonianModel:
    """Harmonic oscillator with a constant frequency protocol."""
    proto = FrequencyProtocol(t_i, t_f, omega, omega, "constant")
    return HamiltonianModel("harmonic", mass, proto)


def ramped_model(kind: str = "harmonic", mass: float = 1.0,
                 omega_i: float = 1.0, omega_f: float = 2.0,
                 t_i: float = 0.0, t_f: float = 1.0,
                 shape: str = "linear",
                 quartic_lambda: float = 0.0) -> HamiltonianModel:
    """Driven oscillator with a frequency ramp."""
    proto = FrequencyProtocol(t_i, t_f, omega_i, omega_f, shape)
    return HamiltonianModel(kind, mass, proto, quartic_lambda)
