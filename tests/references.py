"""Independent references that the tests check the package against.

The package never calls these: each is written apart from the code it
checks (a closed form, or the array stepping that a scalar recurrence
must reproduce bit for bit), so a test that compares the two compares two
derivations, not one.
"""

import numpy as np
from numpy.polynomial.laguerre import lagval


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
