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

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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

    def is_hermitian(self) -> bool:
        gap = np.max(np.abs(self.matrix - self.matrix.conj().T))
        scale = max(1.0, float(np.max(np.abs(self.matrix))))
        return bool(gap <= HERMITIAN_TOL * scale)


@dataclass(frozen=True)
class WignerGrid:
    """Phase-space samples of a Wigner transform on an FFT-conjugate grid;
    ``scjarz oracle`` writes one exactly, as the float64 ``wigner.npy``
    table [[nan, p], [q, values]] of shape (n_q + 1, n_p + 1)."""

    q: np.ndarray
    p: np.ndarray
    values: np.ndarray          # (n_q, n_p) real, W[i_q, i_p]
    imag_residual: float
    norm: float                 # sum W dp dq, compare with Tr


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
                 beta: float, hbar: float, n_max: int) -> FockOperator:
    """Unnormalized thermal matrix exp(-beta H) in the ladder basis.

    The harmonic kind is diagonal; the quartic kind diagonalizes
    H = p^2/2m + m w^2 q^2/2 + lam q^4 built from ladder operators.
    The top-level occupation must stay below 1e-10 of the trace
    (TruncationInsufficient otherwise).
    """
    if kind == "harmonic":
        energies = hbar * omega * (np.arange(n_max + 1) + 0.5)
        weights = np.exp(-beta * energies)
        rho = np.diag(weights).astype(complex)
    elif kind == "quartic":
        qm, pm = position_momentum_matrices(n_max, hbar, mass, omega)
        h = pm @ pm / (2.0 * mass) + 0.5 * mass * omega**2 * (qm @ qm)
        q2 = qm @ qm
        h = h + quartic_lambda * (q2 @ q2)
        h = 0.5 * (h + h.conj().T)
        energies, vecs = np.linalg.eigh(h)
        weights = np.exp(-beta * energies)
        rho = (vecs * weights) @ vecs.conj().T
    else:
        raise ValueError(f"unknown model kind {kind!r}")
    top = weights[-1] / float(np.sum(weights))
    if top >= 1e-10:
        raise TruncationInsufficient(
            f"top-level occupation {top:.3e} >= 1e-10 at "
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


# rows of the kernel formed and transformed at a time by _wigner_raw: a
# block's accumulator and term buffer are this many rows of the n_q-point
# offset axis
_WIGNER_BLOCK_ROWS = 32


def _pairwise_total(sums: list):
    """The total of consecutive blocks from their sums, added in halves
    as np.sum adds a contiguous array, which it splits at its middle
    rounded down to a multiple of 8 elements.

    For one block, or for 2^k equal blocks, the total is np.sum's of the
    whole bit for bit: in ``_WIGNER_BLOCK_ROWS``-row blocks, that holds
    for every n_q <= 32 and every power of two.  At other n_q the total
    can differ from np.sum's in the last places.
    """
    if len(sums) == 1:
        return sums[0]
    half = len(sums) // 2
    return _pairwise_total(sums[:half]) + _pairwise_total(sums[half:])


def _wigner_raw(op: FockOperator, q_max: float, n_q: int) -> tuple:
    """Complex Wigner values on the FFT grid in row blocks, plus the axes.

    Returns (q axis, p axis, blocks, dp, dq), where ``blocks`` yields
    (row slice, complex values of those rows) in row order, blocks of
    ``_WIGNER_BLOCK_ROWS`` position rows.  The checks run before it
    returns; each block is formed only when it is read, and no (n_q, n_q)
    array is held.

    The offset grid spacing is twice the position spacing, so every matrix
    element argument q +/- Q/2 lands on one shared Hermite evaluation grid.
    The kernel is summed over the eigenvectors of the operator, which must
    be Hermitian (ValueError otherwise).  Each eigenvector's term for the
    block goes into one block-sized buffer from strided views of u_k and
    of the block's slice of conj(u_k) reversed, conjugated into one block
    buffer (conjugation is exact, so no copy of every conj(u_k) is held
    and the values are the same), and is added in
    eigenvector order to a zeroed block accumulator; the block is then
    phased, Fourier transformed over the offset and phased again.  Each
    row's transform is its own, so the blocks are an index gather's
    operations on the whole grid, bit for bit.
    """
    n = int(n_q)
    if n < 8 or n % 2 != 0:
        raise ValueError("n_q must be an even integer >= 8")
    if not op.is_hermitian():
        raise ValueError("the Wigner transform expects a Hermitian operator")
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

    w, v = np.linalg.eigh(op.matrix)
    keep = np.abs(w) > 1e-16 * np.max(np.abs(w))
    w, v = w[keep], v[:, keep]
    u = v.T @ psi                          # (K, 2n), u_k on the shared grid
    del psi
    # row i of the views is u_k[i + j] at q + Q/2; at q - Q/2 it reads
    # conj(u_k)[n + i - j], conjugated block by block below
    plus = [sliding_window_view(uk, n)[:n] for uk in u]

    j = np.arange(n)
    phase_j = np.where(j % 2 == 0, 1.0, -1.0)
    phase_k = (np.where(j % 2 == 0, 1.0, -1.0) * np.exp(-0.5j * np.pi * n)
               * (dQ / (2.0 * np.pi * hbar)))

    def blocks():
        # acc[i, j] = <q+Q/2|rho|q-Q/2> for the block's rows
        acc_buffer = np.empty((_WIGNER_BLOCK_ROWS, n), dtype=complex)
        term_buffer = np.empty_like(acc_buffer)
        conj_buffer = np.empty(n + _WIGNER_BLOCK_ROWS - 1, dtype=complex)
        for start in range(0, n, _WIGNER_BLOCK_ROWS):
            stop = min(start + _WIGNER_BLOCK_ROWS, n)
            rows = slice(start, stop)
            acc = acc_buffer[:stop - start]   # the last may be shorter
            term = term_buffer[:stop - start]
            # the block's rows read conj(u_k)[start + 1 : n + stop]; with
            # that slice reversed into r, row i is r[stop - 1 - i:][:n]
            r = conj_buffer[:n + stop - start - 1]
            minus = sliding_window_view(r, n)[::-1]
            acc.fill(0.0)
            for wk, uk, pk in zip(w, u, plus):
                np.conjugate(uk[start + 1:n + stop][::-1], out=r)
                np.multiply(wk, pk[rows], out=term)
                np.multiply(term, minus, out=term)
                acc += term
            acc *= phase_j
            block = np.fft.fft(acc, axis=1)
            block *= phase_k
            yield rows, block

    return q_axis, p_axis, blocks(), dp, dq


def wigner_transform(op: FockOperator, q_max: float, n_q: int) -> WignerGrid:
    """Wigner transform of a Hermitian operator with density normalization.

    Raises ValueError for a non-Hermitian operator.  Each complex row
    block of ``_wigner_raw`` leaves its real part in the one real
    (n_q, n_q) grid this returns and its max and min of Im W; the
    imaginary residual max |Im W| is max(max of maxes, -min of mins).
    No complex grid is held.
    """
    q_axis, p_axis, blocks, dp, dq = _wigner_raw(op, q_max, n_q)
    values = np.empty((q_axis.size, p_axis.size))
    im_max, im_min = -np.inf, np.inf
    for rows, block in blocks:
        values[rows] = block.real
        im = block.imag
        # np.maximum and np.minimum carry a NaN through, as one max would
        im_max = np.maximum(im_max, im.max())
        im_min = np.minimum(im_min, im.min())
    imag = abs(float(max(im_max, -im_min)))
    norm = float(np.sum(values) * dp * dq)
    return WignerGrid(q=q_axis, p=p_axis, values=values,
                      imag_residual=imag, norm=norm)


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
                          grid_a: WignerGrid,
                          grid_b: WignerGrid) -> ConventionAuditReport:
    """Pin down the trace-overlap pairing constant numerically.

    Tr(A B) is computed in the ladder basis; the overlap integral uses the
    density-normalized symbols ``grid_a`` and ``grid_b`` of the two
    operators (``wigner_transform``), so the expected constant is 2 pi hbar
    (and exactly 1 when one factor drops its normalization).  The sum of
    W_a W_b is taken over row blocks of one block buffer, so no
    grid-sized product is made (``_pairwise_total``).  Raises ValueError
    unless the operators share hbar and the grids their q and p axes.
    """
    if op_a.hbar != op_b.hbar:
        raise ValueError("operators must share hbar")
    if not (np.array_equal(grid_a.q, grid_b.q)
            and np.array_equal(grid_a.p, grid_b.p)):
        raise ValueError("Wigner grids must share their q and p axes")
    tr = complex(np.trace(op_a.matrix @ op_b.matrix))
    dp = grid_a.p[1] - grid_a.p[0]
    dq = grid_a.q[1] - grid_a.q[0]
    n_q = grid_a.q.size
    buffer = np.empty((_WIGNER_BLOCK_ROWS, grid_a.p.size))
    sums = []
    for start in range(0, n_q, _WIGNER_BLOCK_ROWS):
        stop = min(start + _WIGNER_BLOCK_ROWS, n_q)
        product = buffer[:stop - start]
        np.multiply(grid_a.values[start:stop], grid_b.values[start:stop],
                    out=product)
        sums.append(np.sum(product))
    overlap = float(_pairwise_total(sums) * dp * dq)
    measured = tr.real / overlap
    two_pi_hbar = 2.0 * np.pi * op_a.hbar
    return ConventionAuditReport(tr, overlap, measured,
                                 measured / two_pi_hbar, two_pi_hbar)


# unnormalized Fock amplitudes of the ordering check's smooth test state
_ORDERING_TEST_STATE = np.array([1.0, 1.0 + 1.0j, 0.5, 0.25j])


def ordering_pairing_check(n_max: int, hbar: float, mass: float, omega: float,
                           q_max: float, n_q: int) -> dict:
    """Verify that the momentum-position product pairs like pq - i hbar/2.

    The raw symbol of the unbounded product oscillates under basis
    truncation, so the identity is checked against smooth test states:
    Tr(p q_op rho) from matrix elements must match the phase-space moment
    integral of (pq - i hbar/2) against the Wigner transform of rho.  The
    norm and the moment (p q) W are summed from the transform's row
    blocks (``_wigner_raw``), each block's real part copied into one
    contiguous block buffer and its density formed there in place, so the
    check holds no grid (``_pairwise_total``).
    """
    psi = np.zeros(n_max + 1, dtype=complex)
    psi[:_ORDERING_TEST_STATE.size] = _ORDERING_TEST_STATE
    psi /= np.linalg.norm(psi)
    rho = np.outer(psi, psi.conj())
    qm, pm = position_momentum_matrices(n_max, hbar, mass, omega)
    trace_side = complex(np.trace(pm @ qm @ rho))
    q_axis, p_axis, blocks, _, _ = _wigner_raw(
        FockOperator(rho, hbar, mass, omega), q_max, n_q)
    # the spacings are read from the axes, as for a WignerGrid
    dp = p_axis[1] - p_axis[0]
    dq = q_axis[1] - q_axis[0]
    buffer = np.empty((_WIGNER_BLOCK_ROWS, p_axis.size))
    norms, moments = [], []
    for rows, block in blocks:
        density = buffer[:block.shape[0]]
        np.copyto(density, block.real)
        norms.append(np.sum(density))
        density *= p_axis[None, :] * q_axis[rows, None]
        moments.append(np.sum(density))
    norm = _pairwise_total(norms) * dp * dq
    moment = _pairwise_total(moments) * dp * dq
    integral_side = complex(moment - 0.5j * hbar * norm)
    return {
        "trace_side": trace_side,
        "integral_side": integral_side,
        "deviation": abs(trace_side - integral_side),
    }
