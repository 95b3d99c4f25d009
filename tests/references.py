"""Independent references that the tests check the package against.

The package never calls these: each is written apart from the code it
checks (a closed form, the array stepping that a scalar recurrence must
reproduce bit for bit, or the index gathers that strided views must), so
a test that compares the two compares two derivations, not one.
"""

import numpy as np
from numpy.polynomial.laguerre import lagval

from scjarz.oracle import hermite_functions


def fock_state_wigner(n, p, q, hbar, mass, omega):
    """Closed-form Wigner function of the |n><n| projector,
    W_n = (-1)^n / (pi hbar) e^(-y/2) L_n(y) with y = 4 H / (hbar omega);
    L_n is the Laguerre polynomial, a unit coefficient vector in
    numpy's Laguerre basis."""
    h = p * p / (2.0 * mass) + 0.5 * mass * omega**2 * q * q
    y = 4.0 * h / (hbar * omega)
    sign = -1.0 if n % 2 else 1.0
    laguerre = lagval(y, np.eye(n + 1)[n])
    return sign / (np.pi * hbar) * np.exp(-0.5 * y) * laguerre


def grad(model, t, p, q):
    """(dH/dp, dH/dq) of ``model`` at time t, the exact polynomial
    derivatives: the force reference for the RK4 kernel."""
    w = model.protocol.omega(t)
    dp = p / model.mass
    dq = model.mass * w * w * q
    if model.quartic_lambda != 0.0:
        dq = dq + 4.0 * model.quartic_lambda * q * q * q
    return dp, dq


def linear_flow_matrix(model, n_steps=200):
    """The 2x2 matrix of the classical flow of a linear drive from t_i to
    t_f on z = (p, q): plain RK4 on dp/dt = -m w(t)^2 q, dq/dt = p / m,
    both columns at once."""
    pr, m = model.protocol, model.mass
    h = (pr.t_f - pr.t_i) / n_steps

    def f(t, z):
        return np.array([[0.0, -m * pr.omega(t) ** 2], [1.0 / m, 0.0]]) @ z

    z, t = np.eye(2), pr.t_i
    for _ in range(n_steps):
        k1 = f(t, z)
        k2 = f(t + 0.5 * h, z + 0.5 * h * k1)
        k3 = f(t + 0.5 * h, z + 0.5 * h * k2)
        k4 = f(t + h, z + h * k3)
        z = z + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return z


def linear_monodromy_path(model, c, d, t0, dt, h, n_steps):
    """The tangent path (2, n_steps + 1, 2, 1) of a linear flow from the
    identity, stepped as arrays: the p and q stacks (2, 1), row 0 started
    at (p, q) = (1, 0) and row 1 at (0, 1), each RK4 step in Nystrom form
    one numpy operation per stage over the whole stack, with the drive
    table (the stiffness m w(t)^2 at each step's start, midpoint and end)
    formed in one vectorized pass, or once for a frozen drive (dt = 0).
    The reference for the package's scalar recurrence, which must match
    it bit for bit."""
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
    P = np.array([[1.0], [0.0]], dtype=complex)
    Q = np.array([[0.0], [1.0]], dtype=complex)
    path = np.empty((2, n_steps + 1, 2, 1), dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        for k, (m_start, m_mid, m_end) in enumerate(drive):
            path[0, k], path[1, k] = P, Q
            k1 = np.multiply(Q, m_start)
            Q2 = np.add(Q, np.multiply(P, 0.5 * hd))
            Q = np.add(Q, np.multiply(P, hd))
            k2 = np.multiply(Q2, m_mid)
            k3 = np.multiply(np.add(Q2, np.multiply(k1, 0.25 * hchd)), m_mid)
            k4 = np.multiply(np.add(Q, np.multiply(k2, 0.5 * hchd)), m_end)
            S = np.add(np.add(k1, k2), k3)
            Q = np.add(Q, np.multiply(S, hchd / 6.0))
            S = np.add(np.add(S, np.add(k2, k3)), k4)
            P = np.add(P, np.multiply(S, hc / 6.0))
        path[0, n_steps], path[1, n_steps] = P, Q
    return path


def wigner_raw_gather(op, q_max, n_q):
    """``oracle._wigner_raw`` of a Hermitian ``op`` whose basis functions
    vanish at the grid edge, with each eigenvector's kernel term gathered
    by index arrays: u_k[i + j] at q + Q/2 times conj(u_k)[n + i - j] at
    q - Q/2, weighted by the eigenvalue and summed in eigenvector order,
    then the kernel times the alternating phase, Fourier transformed over
    the offset.  Returns (q axis, p axis, complex values, dp, dq).  The
    reference for the package's strided kernel, which must match it bit
    for bit."""
    n = int(n_q)
    hbar = op.hbar
    dq = 2.0 * q_max / n
    dQ = 2.0 * dq
    q_axis = (np.arange(n) - n / 2) * dq
    dp = 2.0 * np.pi * hbar / (n * dQ)
    p_axis = (np.arange(n) - n / 2) * dp
    scale = np.sqrt(op.mass * op.omega / hbar)
    x_phys = (np.arange(2 * n) - n) * dq
    psi = hermite_functions(op.dimension - 1, scale * x_phys) * np.sqrt(scale)
    kernel = np.zeros((n, n), dtype=complex)
    w, v = np.linalg.eigh(op.matrix)
    keep = np.abs(w) > 1e-16 * np.max(np.abs(w))
    w, v = w[keep], v[:, keep]
    u = v.T @ psi
    i_idx = np.arange(n)[:, None]
    j_idx = np.arange(n)[None, :]
    plus = i_idx + j_idx
    minus = n + i_idx - j_idx
    for k in range(w.size):
        uk = u[k]
        kernel += w[k] * uk[plus] * uk.conj()[minus]
    j = np.arange(n)
    phase_j = np.where(j % 2 == 0, 1.0, -1.0)
    phase_k = np.where(j % 2 == 0, 1.0, -1.0) * np.exp(-0.5j * np.pi * n)
    w_vals = np.fft.fft(kernel * phase_j[None, :], axis=1)
    w_vals *= phase_k[None, :] * (dQ / (2.0 * np.pi * hbar))
    return q_axis, p_axis, w_vals, dp, dq
