"""Independent references that the tests check the package against.

The package never calls these: each is a closed form written apart from
the code it checks, so a test that compares the two compares two
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
