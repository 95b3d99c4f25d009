"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line so the suite doubles as a checklist:

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from scjarz.dynamics import IntegratorSettings, flow_imaginary, flow_real
from scjarz.jarzynski import QuadratureDomain, verify_identity
from scjarz.models import ComplexPoint, harmonic_model, ramped_model
from scjarz.oracle import (FockOperator, harmonic_closed_forms, thermal_fock,
                           wigner_transform)
from scjarz.pseudowork import (_pseudo_work_batch, pseudo_power,
                               pseudo_work, solve_pseudo_state)
from scjarz.stationary import (OK, _pseudo_hamiltonian_batch,
                               pseudo_hamiltonian)

from references import fock_state_wigner, grad


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:2d} FAIL  {description}")
        raise
    print(f"\nACCEPTANCE {number:2d} PASS  {description}")


def arc_steps(omega, hbar_beta):
    """Step rule calibrated so the scaled G error stays below 1e-9."""
    return max(64, int(np.ceil(120 * omega * hbar_beta / 2)))


def test_criterion_1_harmonic_symbol_exactness():
    desc = ("harmonic G matches (2/bhw) tanh(bhw/2) H to 1e-8 on a 21x21 "
            "grid for all (beta, hbar, omega, m) in {0.5,1,2}^4, under 10 s")
    with criterion(1, desc):
        grid = np.linspace(-2.0, 2.0, 21)
        tp, tq = (a.ravel() for a in np.meshgrid(grid, grid, indexing="ij"))
        vals = (0.5, 1.0, 2.0)
        t0 = time.perf_counter()
        worst = 0.0
        for beta, hbar, omega, m in itertools.product(vals, repeat=4):
            hb = beta * hbar
            model = harmonic_model(mass=m, omega=omega)
            settings = IntegratorSettings(n_sigma_steps=arc_steps(omega, hb))
            solve, g, _ = _pseudo_hamiltonian_batch(
                model, 0.0, tp, tq, hb, settings)
            assert np.all(solve.status == OK)
            h_vals = tp**2 / (2 * m) + 0.5 * m * omega**2 * tq**2
            b = 0.5 * hb * omega
            g_exact = np.tanh(b) / b * h_vals
            worst = max(worst, float(np.max(np.abs(g - g_exact)
                                            / (1.0 + np.abs(h_vals)))))
        elapsed = time.perf_counter() - t0
        assert worst <= 1e-8, f"worst scaled error {worst:.3e}"
        assert elapsed <= 10.0, f"runtime {elapsed:.1f}s over budget"


def test_criterion_2_prefactor_closed_form():
    desc = "monodromy-trace prefactor matches 1/(2 pi hbar cosh) to 1e-4"
    with criterion(2, desc):
        for beta, hbar in ((1.0, 1.0), (0.5, 2.0)):
            model = harmonic_model()
            settings = IntegratorSettings(n_sigma_steps=128)
            n_exact = 1.0 / (2.0 * np.pi * hbar
                             * np.cosh(0.5 * beta * hbar))
            for (p, q) in [(0.0, 0.0), (1.0, 0.5), (-0.7, 1.2),
                           (2.0, -1.0), (0.3, 0.3)]:
                val = pseudo_hamiltonian(model, 0.0, ComplexPoint(p, q),
                                         beta * hbar, settings)
                n_got = val.arc.prefactor[0] / (2.0 * np.pi * hbar)
                assert abs(n_got - n_exact) <= 1e-4 * n_exact


def test_criterion_3_pseudo_power_closed_form():
    desc = ("pseudo-power matches the boxed closed form to 1e-7 relative at "
            "10 points; quantum correction at (0,1) is resolved")
    with criterion(3, desc):
        model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
        settings = IntegratorSettings(n_sigma_steps=192)
        rng = np.random.default_rng(31)
        x = 1.0  # beta hbar omega at t_i
        ratio = np.sinh(x) / x
        pts = rng.uniform(0.5, 2.0, size=(10, 2))
        for p, q in pts:
            arc = pseudo_hamiltonian(model, 0.0, ComplexPoint(p, q), 1.0,
                                     settings).arc
            got = pseudo_power(arc)
            exact = (2.0 / (1.0 + np.cosh(x))) * (
                0.5 * q * q * (ratio + 1.0) + 0.5 * p * p * (1.0 - ratio))
            assert abs(got - exact) <= 1e-7 * abs(exact), (p, q)
        arc = pseudo_hamiltonian(model, 0.0, ComplexPoint(0.0, 1.0), 1.0,
                                 settings).arc
        val = pseudo_power(arc)
        exact = (np.sinh(1.0) + 1.0) / (1.0 + np.cosh(1.0))
        assert abs(val - exact) <= 1e-7 * exact
        assert exact == pytest.approx(0.8553410237, abs=1e-9)
        assert abs(val - 1.0) > 0.14  # classical value is 1.0


def test_criterion_4_classical_limits_second_order():
    desc = "G -> H and power -> dH/dt at observed order >= 2 in beta*hbar"
    with criterion(4, desc):
        model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
        settings = IntegratorSettings(n_sigma_steps=128)
        target = ComplexPoint(0.5, 1.2)
        h_val = model.value(0.0, target.p, target.q).real
        dth = model.dt(0.0, target.p, target.q).real
        g_errs, p_errs = [], []
        for hb in (0.2, 0.1, 0.05, 0.025):
            arcs_g = pseudo_hamiltonian(model, 0.0, target, hb, settings)
            g_errs.append(abs(arcs_g.G - h_val))
            p_errs.append(abs(pseudo_power(arcs_g.arc) - dth))
        for errs in (g_errs, p_errs):
            orders = [np.log2(errs[k] / errs[k + 1]) for k in range(3)]
            assert all(o >= 1.9 for o in orders), (errs, orders)


def test_criterion_5_work_path_endpoint_identity():
    desc = "|W - W_endpoint| <= 1e-6 (1 + |W|), 10 harmonic + 10 quartic runs"
    with criterion(5, desc):
        settings = IntegratorSettings(n_sigma_steps=96, n_time_steps=64)
        rng = np.random.default_rng(17)
        for kind, lam in (("harmonic", 0.0), ("quartic", 0.1)):
            model = ramped_model(kind, omega_i=1.0, omega_f=2.0,
                                 quartic_lambda=lam)
            # the 10 starts in one batch: each column is bitwise its
            # width-1 pseudo_work march
            p0, q0 = rng.uniform(-1.2, 1.2, size=(10, 2)).T
            out = _pseudo_work_batch(model, 0.0, 1.0, p0, q0, 1.0, settings)
            assert np.all(out["status"] == OK), out["status"]
            w, w_end = out["W"], out["W_endpoint"]
            assert np.all(np.abs(w - w_end) <= 1e-6 * (1 + np.abs(w))), (
                kind, np.abs(w - w_end))


def test_criterion_6_jarzynski_identity_harmonic():
    desc = ("harmonic ramp 1 -> 2 at beta = hbar = 1: <exp(-bW)> matches "
            "tanh(1/2)/tanh(1) to 1e-6 relative, under 5 min")
    with criterion(6, desc):
        model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
        domain = QuadratureDomain(p_max=10.5, q_max=10.5, n_p=64, n_q=64)
        settings = IntegratorSettings(n_sigma_steps=64, n_time_steps=64)
        t0 = time.perf_counter()
        report = verify_identity(model, 1.0, 1.0, domain, settings)
        elapsed = time.perf_counter() - t0
        rhs_exact = np.tanh(0.5) / np.tanh(1.0)
        assert report.failures == []
        assert abs(report.lhs - rhs_exact) <= 1e-6 * rhs_exact, report.lhs
        assert abs(report.rhs - rhs_exact) <= 1e-6 * rhs_exact, report.rhs
        assert elapsed <= 300.0, f"runtime {elapsed:.0f}s over budget"


def test_criterion_7_jarzynski_identity_quartic_refines():
    desc = ("quartic ramp (lam = 0.1): residual < 1e-3 and strictly "
            "decreasing under one refinement doubling")
    with criterion(7, desc):
        # hbar = 0.5: at hbar*beta = 1 the quartic composite construction
        # crosses its first caustic inside the thermal bulk
        model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                             quartic_lambda=0.1)
        domain = QuadratureDomain(p_max=7.5, q_max=4.5, n_p=48, n_q=48)
        coarse = verify_identity(
            model, 1.0, 0.5, domain,
            IntegratorSettings(n_sigma_steps=48, n_time_steps=32))
        fine = verify_identity(
            model, 1.0, 0.5, domain,
            IntegratorSettings(n_sigma_steps=96, n_time_steps=64))
        assert coarse.failures == [] and fine.failures == []
        assert coarse.residual < 1e-3, coarse.residual
        assert fine.residual < coarse.residual, (coarse.residual,
                                                 fine.residual)


def test_criterion_8_oracle_agreement():
    desc = ("FFT Wigner thermal state matches the closed-form symbol to "
            "1e-6; Fock-state Wigner functions match to 1e-8")
    with criterion(8, desc):
        forms = harmonic_closed_forms(1.0, 1.0, 1.0, 1.0)
        op = thermal_fock("harmonic", 1.0, 1.0, 0.0, 1.0, 1.0, 48)
        grid = wigner_transform(op, q_max=10.0, n_q=512)
        pp, qq = np.meshgrid(grid.p, grid.q)
        interior = (np.abs(pp) <= 5.0) & (np.abs(qq) <= 5.0)
        gap = np.max(np.abs(grid.values - forms.weyl_symbol(pp, qq))[interior])
        assert gap <= 1e-6, gap
        for n in (0, 1):
            mat = np.zeros((8, 8), dtype=complex)
            mat[n, n] = 1.0
            g = wigner_transform(FockOperator(mat, 1.0, 1.0, 1.0), 10.0, 512)
            w_exact = fock_state_wigner(n, pp, qq, 1.0, 1.0, 1.0)
            assert np.max(np.abs(g.values - w_exact)) <= 1e-8


def test_criterion_9_pseudo_trajectory_is_classical():
    desc = ("harmonic pseudo-trajectory tracks the classical trajectory "
            "to 1e-6 along a ramp, 5 initial conditions")
    with criterion(9, desc):
        model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0,
                             shape="smoothstep")
        settings = IntegratorSettings(n_sigma_steps=96, n_time_steps=64)
        rng = np.random.default_rng(13)

        def rhs(t, y):
            dp, dq = grad(model, t, y[0], y[1])
            return [-dq, dp]

        for p0, q0 in rng.uniform(-1.5, 1.5, size=(5, 2)):
            res = pseudo_work(model, 0.0, 1.0, ComplexPoint(p0, q0), 1.0,
                              settings)
            ts = res.trajectory.times
            sol = solve_ivp(rhs, (0.0, 1.0), [p0, q0], t_eval=ts,
                            rtol=1e-12, atol=1e-12)
            assert np.max(np.abs(res.trajectory.check_p - sol.y[0])) <= 1e-6
            assert np.max(np.abs(res.trajectory.check_q - sol.y[1])) <= 1e-6


def test_criterion_10_frozen_arc_is_not_analytic_continuation():
    desc = ("strong ramp: frozen-time back-propagation misses the plus "
            "branch by more than 1e-3 (the two constructions differ)")
    with criterion(10, desc):
        model = ramped_model("harmonic", omega_i=1.0, omega_f=3.0,
                             t_i=0.0, t_f=0.5)
        settings = IntegratorSettings(n_sigma_steps=96, n_time_steps=64)
        hb = 1.0
        state = solve_pseudo_state(model, 0.0, 0.5, ComplexPoint(0.4, 0.9),
                                   hb, settings)
        arc = state.arc
        z_plus = ComplexPoint(complex(arc.p[-1, 0]), complex(arc.q[-1, 0]))
        z_minus = z_plus.conjugate()
        plus_ti = flow_real(model, 0.5, 0.0, z_minus, settings)
        minus_ti = flow_real(model, 0.5, 0.0, z_plus, settings)
        wrapped = flow_imaginary(model, 0.0, minus_ti, 0.0, -hb,
                                 settings).endpoint()
        gap = max(abs(wrapped.p - plus_ti.p), abs(wrapped.q - plus_ti.q))
        assert gap > 1e-3, gap
