"""Quantum-exact references: Fock matrices, Wigner transforms, closed forms.

Everything here is independent of the trajectory machinery.  Thermal states
are built by dense diagonalization in a truncated ladder basis; their
position-space kernels are expanded in stabilized Hermite functions and
Fourier transformed (over the offset coordinate) into phase space with the
1/(2 pi hbar) density normalization.  Closed-form oscillator expressions are
provided for pointwise comparisons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import eval_laguerre

from .errors import GridTooNarrow, TruncationInsufficient

HERMITIAN_TOL = 1e-12


@dataclass(frozen=True)
class FockOperator:
    """Dense operator in a truncated oscillator ladder basis."""

    matrix: np.ndarray
    hbar: float
    mass: float
    omega: float

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def trace(self) -> complex:
        return complex(np.trace(self.matrix))

    def is_hermitian(self, tol: float = HERMITIAN_TOL) -> bool:
        gap = np.max(np.abs(self.matrix - self.matrix.conj().T))
        scale = max(1.0, float(np.max(np.abs(self.matrix))))
        return bool(gap <= tol * scale)


@dataclass(frozen=True)
class WignerGrid:
    """Phase-space samples of a Wigner transform on an FFT-conjugate grid."""

    q: np.ndarray
    p: np.ndarray
    values: np.ndarray          # (n_q, n_p) real, W[i_q, i_p]
    imag_residual: float
    norm: float                 # sum W dp dq, compare with Tr

    def export_rows(self):
        """(q, p, W) triples in row-major order for CSV export."""
        for i, qv in enumerate(self.q):
            for j, pv in enumerate(self.p):
                yield qv, pv, self.values[i, j]

    def write_csv(self, path) -> None:
        """UTF-8 CSV of (q, p, W) triples at full precision."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("q,p,W\n")
            for qv, pv, wv in self.export_rows():
                fh.write(f"{qv:.17g},{pv:.17g},{wv:.17g}\n")


def ladder_operators(n_max: int):
    """Annihilation/creation matrices on an (n_max+1)-dim basis."""
    n = np.arange(1, n_max + 1)
    a = np.zeros((n_max + 1, n_max + 1))
    a[n - 1, n] = np.sqrt(n)
    return a, a.T.copy()


def position_momentum_matrices(n_max: int, hbar: float, mass: float,
                               omega: float):
    """q and p in the ladder basis of the reference oscillator."""
    a, adag = ladder_operators(n_max)
    q = np.sqrt(hbar / (2.0 * mass * omega)) * (a + adag)
    p = 1j * np.sqrt(hbar * mass * omega / 2.0) * (adag - a)
    return q, p.astype(complex)


def thermal_fock(kind: str, mass: float, omega: float, quartic_lambda: float,
                 beta: float, hbar: float, n_max: int,
                 enforce_truncation: bool = True) -> FockOperator:
    """Unnormalized thermal matrix exp(-beta H) in the ladder basis.

    The harmonic kind is diagonal; the quartic kind diagonalizes
    H = p^2/2m + m w^2 q^2/2 + lam q^4 built from ladder operators.
    The top-level occupation must stay below 1e-10 of the trace unless
    ``enforce_truncation`` is disabled.
    """
    if kind == "harmonic":
        energies = hbar * omega * (np.arange(n_max + 1) + 0.5)
        rho = np.diag(np.exp(-beta * energies)).astype(complex)
        top_weight = np.exp(-beta * energies[-1])
    elif kind == "quartic":
        qm, pm = position_momentum_matrices(n_max, hbar, mass, omega)
        h = pm @ pm / (2.0 * mass) + 0.5 * mass * omega**2 * (qm @ qm)
        q2 = qm @ qm
        h = h + quartic_lambda * (q2 @ q2)
        h = 0.5 * (h + h.conj().T)
        energies, vecs = np.linalg.eigh(h)
        weights = np.exp(-beta * energies)
        rho = (vecs * weights) @ vecs.conj().T
        top_weight = weights[-1]
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    z = float(np.sum(np.exp(-beta * energies)))
    if enforce_truncation and top_weight / z >= 1e-10:
        raise TruncationInsufficient(
            f"top-level occupation {top_weight / z:.3e} >= 1e-10 at "
            f"n_max={n_max}; raise the cutoff")
    return FockOperator(matrix=rho, hbar=hbar, mass=mass, omega=omega)


def hermite_functions(n_max: int, x: np.ndarray) -> np.ndarray:
    """Orthonormal oscillator eigenfunctions on a dimensionless grid.

    Row n holds phi_n(x) with the stabilized recurrence
    phi_{n+1} = sqrt(2/(n+1)) x phi_n - sqrt(n/(n+1)) phi_{n-1},
    which keeps values bounded up to n of several hundred.
    """
    x = np.asarray(x, dtype=float)
    out = np.zeros((n_max + 1, x.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = np.sqrt(2.0) * x * out[0]
    for n in range(1, n_max):
        out[n + 1] = (np.sqrt(2.0 / (n + 1)) * x * out[n]
                      - np.sqrt(n / (n + 1.0)) * out[n - 1])
    return out


def _wigner_raw(op: FockOperator, q_max: float, n_q: int) -> tuple:
    """Complex Wigner values on the FFT grid, plus the q and p axes.

    The offset grid spacing is twice the position spacing, so every matrix
    element argument q +/- Q/2 lands on one shared Hermite evaluation grid.
    """
    n = int(n_q)
    if n < 8 or n % 2 != 0:
        raise ValueError("n_q must be an even integer >= 8")
    hbar = op.hbar
    dq = 2.0 * q_max / n
    dQ = 2.0 * dq
    q_axis = (np.arange(n) - n / 2) * dq
    dp = 2.0 * np.pi * hbar / (n * dQ)
    p_axis = (np.arange(n) - n / 2) * dp

    # shared evaluation grid x_m = (m - n) dq, m = 0 .. 2n-1
    scale = np.sqrt(op.mass * op.omega / hbar)
    x_phys = (np.arange(2 * n) - n) * dq
    n_max = op.dimension - 1
    psi = hermite_functions(n_max, scale * x_phys) * np.sqrt(scale)

    edge = max(np.max(np.abs(psi[:, 0])), np.max(np.abs(psi[:, -1])))
    if edge >= 1e-12:
        raise GridTooNarrow(
            f"basis functions reach {edge:.3e} at the grid edge; "
            "increase q_max")

    rho = op.matrix
    kernel = np.zeros((n, n), dtype=complex)   # kernel[i, j] = <q+Q/2|rho|q-Q/2>
    herm = op.is_hermitian()
    if herm:
        w, v = np.linalg.eigh(rho)
        keep = np.abs(w) > 1e-16 * np.max(np.abs(w))
        w, v = w[keep], v[:, keep]
        u = v.T @ psi                          # (K, 2n), u_k on the shared grid
        i_idx = np.arange(n)[:, None]
        j_idx = np.arange(n)[None, :]
        plus = (i_idx + j_idx)                 # x index of q + Q/2
        minus = (n + i_idx - j_idx)            # x index of q - Q/2
        for k in range(w.size):
            uk = u[k]
            kernel += w[k] * uk[plus] * uk.conj()[minus]
    else:
        for i in range(n):
            psi_plus = psi[:, i:i + n]                     # x[(i+j) ]
            psi_minus = psi[:, i + 1:n + i + 1][:, ::-1]   # x[n+i-j]
            kernel[i] = np.sum((rho.T @ psi_plus) * psi_minus, axis=0)

    j = np.arange(n)
    phase_j = np.where(j % 2 == 0, 1.0, -1.0)
    phase_k = np.where(j % 2 == 0, 1.0, -1.0) * np.exp(-0.5j * np.pi * n)
    w_vals = np.fft.fft(kernel * phase_j[None, :], axis=1)
    w_vals *= phase_k[None, :] * (dQ / (2.0 * np.pi * hbar))
    return q_axis, p_axis, w_vals, dp, dq


def wigner_transform(op: FockOperator, q_max: float, n_q: int) -> WignerGrid:
    """Wigner transform of a Hermitian operator with density normalization."""
    q_axis, p_axis, w_vals, dp, dq = _wigner_raw(op, q_max, n_q)
    imag = float(np.max(np.abs(w_vals.imag)))
    values = w_vals.real.copy()
    norm = float(np.sum(values) * dp * dq)
    return WignerGrid(q=q_axis, p=p_axis, values=values,
                      imag_residual=imag, norm=norm)


def fock_state_wigner(n: int, p, q, hbar: float, mass: float, omega: float):
    """Closed-form Wigner function of the |n><n| projector."""
    h = p * p / (2.0 * mass) + 0.5 * mass * omega**2 * q * q
    y = 4.0 * h / (hbar * omega)
    sign = -1.0 if n % 2 else 1.0
    return sign / (np.pi * hbar) * np.exp(-0.5 * y) * eval_laguerre(n, y)


@dataclass(frozen=True)
class HarmonicClosedForms:
    """Exact oscillator formulas used as oracles for the trajectory code."""

    beta: float
    hbar: float
    mass: float
    omega: float

    @property
    def half_thermal_angle(self) -> float:
        return 0.5 * self.beta * self.hbar * self.omega

    @property
    def z_quantum(self) -> float:
        """Trace of exp(-beta H) over the full spectrum."""
        return 0.5 / np.sinh(self.half_thermal_angle)

    @property
    def z_semiclassical(self) -> float:
        """Phase-space integral of exp(-beta G) (no prefactor)."""
        return np.pi * self.hbar / np.tanh(self.half_thermal_angle)

    @property
    def prefactor(self) -> float:
        return 1.0 / (2.0 * np.pi * self.hbar
                      * np.cosh(self.half_thermal_angle))

    def energy(self, p, q):
        return (p * p / (2.0 * self.mass)
                + 0.5 * self.mass * self.omega**2 * q * q)

    def g(self, p, q):
        """Pseudo-Hamiltonian (2/(beta hbar w)) tanh(beta hbar w / 2) H."""
        b = self.half_thermal_angle
        return np.tanh(b) / b * self.energy(p, q)

    def weyl_symbol(self, p, q):
        """Thermal Weyl symbol including the cosh prefactor."""
        return self.prefactor * np.exp(-self.beta * self.g(p, q))

    def pseudo_power(self, p, q, omega_dot: float):
        """Arc-averaged drive power at frequency slope omega_dot."""
        w, m = self.omega, self.mass
        x = self.beta * self.hbar * w
        ratio = np.sinh(x) / x
        return (omega_dot / w) * (2.0 / (1.0 + np.cosh(x))) * (
            0.5 * m * w * w * q * q * (ratio + 1.0)
            + p * p / (2.0 * m) * (1.0 - ratio))


def harmonic_closed_forms(beta: float, hbar: float, mass: float,
                          omega: float) -> HarmonicClosedForms:
    if min(beta, hbar, mass, omega) <= 0.0:
        raise ValueError("all scales must be positive")
    return HarmonicClosedForms(beta, hbar, mass, omega)


@dataclass(frozen=True)
class ConventionAuditReport:
    """Measured pairing constant between traces and symbol overlaps."""

    trace_product: complex
    overlap_integral: float
    measured_constant: float     # trace / overlap, expect 2 pi hbar
    mixed_constant: float        # with one unnormalized symbol, expect 1
    two_pi_hbar: float


def weyl_convention_audit(op_a: FockOperator, op_b: FockOperator,
                          q_max: float, n_q: int) -> ConventionAuditReport:
    """Pin down the trace-overlap pairing constant numerically.

    Tr(A B) is computed in the ladder basis; the overlap integral uses the
    density-normalized symbols of both operators, so the expected constant
    is 2 pi hbar (and exactly 1 when one factor drops its normalization).
    """
    if op_a.hbar != op_b.hbar:
        raise ValueError("operators must share hbar")
    tr = complex(np.trace(op_a.matrix @ op_b.matrix))
    ga = wigner_transform(op_a, q_max, n_q)
    gb = wigner_transform(op_b, q_max, n_q)
    dp = ga.p[1] - ga.p[0]
    dq = ga.q[1] - ga.q[0]
    overlap = float(np.sum(ga.values * gb.values) * dp * dq)
    measured = tr.real / overlap
    two_pi_hbar = 2.0 * np.pi * op_a.hbar
    return ConventionAuditReport(
        trace_product=tr,
        overlap_integral=overlap,
        measured_constant=measured,
        mixed_constant=measured / two_pi_hbar,
        two_pi_hbar=two_pi_hbar,
    )


def ordering_pairing_check(n_max: int, hbar: float, mass: float, omega: float,
                           q_max: float, n_q: int,
                           coefficients: Optional[np.ndarray] = None) -> dict:
    """Verify that the momentum-position product pairs like pq - i hbar/2.

    The raw symbol of the unbounded product oscillates under basis
    truncation, so the identity is checked against smooth test states:
    Tr(p q_op rho) from matrix elements must match the phase-space moment
    integral of (pq - i hbar/2) against the Wigner transform of rho.
    """
    if coefficients is None:
        coefficients = np.array([1.0, 1.0 + 1.0j, 0.5, 0.25j])
    psi = np.zeros(n_max + 1, dtype=complex)
    psi[:coefficients.size] = coefficients
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    qm, pm = position_momentum_matrices(n_max, hbar, mass, omega)
    trace_side = complex(np.trace(pm @ qm @ rho))
    grid = wigner_transform(FockOperator(rho, hbar, mass, omega), q_max, n_q)
    dp = grid.p[1] - grid.p[0]
    dq = grid.q[1] - grid.q[0]
    pp = grid.p[None, :]
    qq = grid.q[:, None]
    moment = np.sum(pp * qq * grid.values) * dp * dq
    norm = np.sum(grid.values) * dp * dq
    integral_side = complex(moment - 0.5j * hbar * norm)
    return {
        "trace_side": trace_side,
        "integral_side": integral_side,
        "deviation": abs(trace_side - integral_side),
    }


def laguerre_generating_series(x: float, y: float, n_terms: int = 61) -> float:
    """Partial sum of sum_n x^n L_n(y), for comparing with the closed form."""
    n = np.arange(n_terms)
    return float(np.sum(x ** n * eval_laguerre(n, y)))


def laguerre_generating_closed_form(x: float, y: float) -> float:
    return float(np.exp(-y * x / (1.0 - x)) / (1.0 - x))
