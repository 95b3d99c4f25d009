import numpy as np
import pytest
from scipy.integrate import simpson, solve_ivp

from scjarz.dynamics import (IntegratorSettings, _build_arc_batch,
                             flow_imaginary, flow_real)
from scjarz.errors import WorkMismatch
from scjarz.models import ComplexPoint, ramped_model
from scjarz.pseudowork import (_pseudo_power_batch, composite_map,
                               pseudo_power, pseudo_work, solve_pseudo_state)
from scjarz.stationary import invert_midpoint, midpoint_map

SET = IntegratorSettings(n_sigma_steps=96, n_time_steps=64)


def harmonic_ramp(shape="linear", omega_f=2.0, t_f=1.0):
    return ramped_model("harmonic", omega_i=1.0, omega_f=omega_f,
                        t_i=0.0, t_f=t_f, shape=shape)


def quartic_ramp(lam=0.1):
    return ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                        quartic_lambda=lam)


def classical_trajectory(model, t_eval, p0, q0):
    def rhs(t, y):
        dp, dq = model.grad(t, y[0], y[1])
        return [-dq, dp]

    sol = solve_ivp(rhs, (t_eval[0], t_eval[-1]), [p0, q0], t_eval=t_eval,
                    rtol=1e-12, atol=1e-12)
    return sol.y[0], sol.y[1]


def test_composite_map_at_equal_times_is_midpoint_map():
    model = harmonic_ramp()
    z = ComplexPoint(0.7, -0.2)
    a = composite_map(model, 0.0, 0.0, z, 1.0, SET)
    b = midpoint_map(model, 0.0, z, 1.0, SET)
    assert a.p == pytest.approx(b.p, abs=1e-12)
    assert a.q == pytest.approx(b.q, abs=1e-12)


def test_composite_map_small_span_is_backward_flow():
    model = harmonic_ramp()
    z = ComplexPoint(0.7, -0.2)
    got = composite_map(model, 0.0, 1.0, z, 1e-8, SET)
    back = flow_real(model, 1.0, 0.0, z, SET)
    assert got.p == pytest.approx(back.p.real, abs=1e-8)
    assert got.q == pytest.approx(back.q.real, abs=1e-8)


def test_composite_map_constant_protocol_closed_form():
    # rotation(t_i - t_f) composed with cosh(hb w / 2) scaling
    model = ramped_model("harmonic", omega_i=1.0, omega_f=1.0,
                         t_i=0.0, t_f=0.7, shape="constant")
    hb = 1.0
    z = ComplexPoint(0.4, -0.3)
    got = composite_map(model, 0.0, 0.7, z, hb, SET)
    c = np.cosh(hb / 2)
    th = -0.7
    assert got.p == pytest.approx(c * (0.4 * np.cos(th) + 0.3 * np.sin(th)),
                                  abs=1e-9)
    assert got.q == pytest.approx(c * (-0.3 * np.cos(th) + 0.4 * np.sin(th)),
                                  abs=1e-9)


def test_solve_pseudo_state_equal_times_matches_invert_midpoint():
    model = quartic_ramp()
    target = ComplexPoint(0.5, 0.8)
    a = solve_pseudo_state(model, 0.0, 0.0, target, 1.0, SET)
    b = invert_midpoint(model, 0.0, target, 1.0, SET)
    assert a.z_c.p == pytest.approx(b.z_c.p, abs=1e-10)
    assert a.z_c.q == pytest.approx(b.z_c.q, abs=1e-10)


def test_pseudo_state_junction_energy_matches():
    # frozen-time energy conservation makes both branch junctions isoenergetic
    model = quartic_ramp()
    state = solve_pseudo_state(model, 0.0, 1.0, ComplexPoint(0.3, 0.9),
                               1.0, SET)
    h_plus = model.value_at(1.0, state.arc.z_plus)
    h_minus = model.value_at(1.0, state.arc.z_minus)
    assert abs(h_plus - h_minus) < 1e-9


def test_pseudo_state_quartic_self_residual():
    model = quartic_ramp()
    state = solve_pseudo_state(model, 0.0, 1.0, ComplexPoint(0.3, 0.9),
                               1.0, SET)
    assert state.residual < 1e-9
    # conjugate branch symmetry at the final time
    assert state.arc.z_minus.p == pytest.approx(
        np.conj(state.arc.z_plus.p), abs=1e-10)
    assert state.arc.z_minus.q == pytest.approx(
        np.conj(state.arc.z_plus.q), abs=1e-10)


def test_pseudo_power_constant_protocol_vanishes():
    model = ramped_model("harmonic", omega_i=1.0, omega_f=1.0,
                         shape="constant")
    solve = invert_midpoint(model, 0.0, ComplexPoint(0.9, 0.4), 1.0, SET)
    assert pseudo_power(model, 0.0, solve.arc, SET) == pytest.approx(0.0,
                                                                     abs=1e-14)


def test_pseudo_power_closed_form_value():
    # (sinh 1 + 1)/(1 + cosh 1) = 0.8553410237... at (0,1), unit scales
    model = harmonic_ramp()
    solve = invert_midpoint(model, 0.0, ComplexPoint(0.0, 1.0), 1.0, SET)
    val = pseudo_power(model, 0.0, solve.arc, SET)
    exact = (np.sinh(1.0) + 1.0) / (1.0 + np.cosh(1.0))
    assert val == pytest.approx(exact, rel=1e-9)
    assert exact == pytest.approx(0.8553410237, abs=1e-9)
    # the drive correction is resolved: classical power at (0,1) is 1.0
    assert abs(val - 1.0) > 0.1


def test_pseudo_power_random_points_match_closed_form():
    model = harmonic_ramp()
    rng = np.random.default_rng(21)
    x = 1.0  # beta hbar omega at t = 0
    ratio = np.sinh(x) / x
    for _ in range(10):
        p, q = rng.uniform(-2, 2, size=2)
        solve = invert_midpoint(model, 0.0, ComplexPoint(p, q), 1.0, SET)
        got = pseudo_power(model, 0.0, solve.arc, SET)
        exact = (2.0 / (1.0 + np.cosh(x))) * (
            0.5 * q * q * (ratio + 1.0) + 0.5 * p * p * (1.0 - ratio))
        assert got == pytest.approx(exact, rel=1e-7, abs=1e-12)


def test_pseudo_power_classical_limit_quadratic_order():
    model = harmonic_ramp()
    target = ComplexPoint(0.5, 1.2)
    dth = model.dt_at(0.0, target).real  # m w wdot q^2
    errs = []
    for hb in (0.2, 0.1, 0.05, 0.025):
        solve = invert_midpoint(model, 0.0, target, hb, SET)
        errs.append(abs(pseudo_power(model, 0.0, solve.arc, SET) - dth))
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(3)]
    assert all(o > 1.9 for o in orders)


def test_pseudo_work_constant_protocol_is_zero():
    model = ramped_model("harmonic", omega_i=1.3, omega_f=1.3,
                         shape="constant")
    res = pseudo_work(model, 0.0, 1.0, ComplexPoint(0.4, 0.8), 1.0, SET)
    assert abs(res.W) < 1e-12
    assert abs(res.W_endpoint) < 1e-7


@pytest.mark.parametrize("model_fn", [harmonic_ramp, quartic_ramp])
def test_pseudo_work_path_equals_endpoint(model_fn):
    model = model_fn()
    res = pseudo_work(model, 0.0, 1.0, ComplexPoint(0.2, 0.9), 1.0, SET)
    assert abs(res.W - res.W_endpoint) <= 1e-6 * (1.0 + abs(res.W))


def test_pseudo_work_against_closed_form_power_oracle():
    # harmonic: the pseudo-trajectory is the classical one, so the work is
    # the time integral of the closed-form arc power along that trajectory
    model = harmonic_ramp()
    res = pseudo_work(model, 0.0, 1.0, ComplexPoint(0.0, 1.0), 1.0, SET)
    ts = res.trajectory.times
    p_cl, q_cl = classical_trajectory(model, ts, 0.0, 1.0)
    w_t = 1.0 + ts
    x = w_t  # beta hbar omega(t) with beta = hbar = 1
    ratio = np.sinh(x) / x
    power = (1.0 / w_t) * (2.0 / (1.0 + np.cosh(x))) * (
        0.5 * w_t**2 * q_cl**2 * (ratio + 1.0)
        + 0.5 * p_cl**2 * (1.0 - ratio))
    w_oracle = simpson(power, x=ts)
    assert res.W == pytest.approx(w_oracle, abs=5e-9)


def test_harmonic_pseudo_trajectory_is_classical():
    model = harmonic_ramp(shape="smoothstep")
    rng = np.random.default_rng(9)
    for _ in range(3):
        p0, q0 = rng.uniform(-1.5, 1.5, size=2)
        res = pseudo_work(model, 0.0, 1.0, ComplexPoint(p0, q0), 1.0, SET)
        ts = res.trajectory.times
        p_cl, q_cl = classical_trajectory(model, ts, p0, q0)
        assert np.max(np.abs(res.trajectory.check_p - p_cl)) < 1e-6
        assert np.max(np.abs(res.trajectory.check_q - q_cl)) < 1e-6


def test_pseudo_trajectory_starts_at_target_with_conjugate_branches():
    model = quartic_ramp()
    res = pseudo_work(model, 0.0, 1.0, ComplexPoint(0.3, 0.6), 1.0, SET)
    tr = res.trajectory
    assert tr.check_p[0] == pytest.approx(0.3, abs=1e-9)
    assert tr.check_q[0] == pytest.approx(0.6, abs=1e-9)
    np.testing.assert_allclose(tr.minus_p, np.conj(tr.plus_p), atol=1e-9)
    np.testing.assert_allclose(tr.minus_q, np.conj(tr.plus_q), atol=1e-9)
    assert np.all(tr.solve_residual <= SET.newton_tol)


def test_pseudo_work_classical_limit():
    # W converges to the classical work computed with an independent
    # integrator as hbar*beta -> 0
    model = harmonic_ramp()
    p0, q0 = 0.3, 1.1
    ts = np.linspace(0.0, 1.0, 129)
    p_cl, q_cl = classical_trajectory(model, ts, p0, q0)
    w_t = 1.0 + ts
    w_classical = simpson(w_t * 1.0 * q_cl**2, x=ts)  # m w wdot q^2
    errs = []
    for hb in (0.2, 0.1, 0.05):
        res = pseudo_work(model, 0.0, 1.0, ComplexPoint(p0, q0), hb, SET)
        errs.append(abs(res.W - w_classical))
    assert errs[0] > errs[1] > errs[2]
    assert np.log2(errs[0] / errs[1]) > 1.8
    assert np.log2(errs[1] / errs[2]) > 1.8


def test_frozen_backpropagation_does_not_close_the_triple():
    # propagating the minus branch by the reversed imaginary span at frozen
    # t_i must NOT recover the plus branch for a driven protocol: the
    # frozen-time arc is not an analytic continuation of the driven flow
    model = harmonic_ramp(omega_f=3.0, t_f=0.5)
    hb = 1.0
    state = solve_pseudo_state(model, 0.0, 0.5, ComplexPoint(0.4, 0.9),
                               hb, SET)
    plus_branch_ti = flow_real(model, 0.5, 0.0, state.arc.z_minus, SET)
    minus_branch_ti = flow_real(model, 0.5, 0.0, state.arc.z_plus, SET)
    path = flow_imaginary(model, 0.0, minus_branch_ti, 0.0, -hb, SET)
    wrapped = path.endpoint()
    gap = max(abs(wrapped.p - plus_branch_ti.p),
              abs(wrapped.q - plus_branch_ti.q))
    assert gap > 1e-3
    # sanity: for an undriven protocol the same construction closes exactly
    const = ramped_model("harmonic", omega_i=1.0, omega_f=1.0, t_i=0.0,
                         t_f=0.5, shape="constant")
    state0 = solve_pseudo_state(const, 0.0, 0.5, ComplexPoint(0.4, 0.9),
                                hb, SET)
    plus0 = flow_real(const, 0.5, 0.0, state0.arc.z_minus, SET)
    minus0 = flow_real(const, 0.5, 0.0, state0.arc.z_plus, SET)
    path0 = flow_imaginary(const, 0.0, minus0, 0.0, -hb, SET)
    closed = path0.endpoint()
    gap0 = max(abs(closed.p - plus0.p), abs(closed.q - plus0.q))
    assert gap0 < 1e-9


def test_work_mismatch_raises_when_forced():
    model = harmonic_ramp()
    with pytest.raises(WorkMismatch):
        pseudo_work(model, 0.0, 1.0, ComplexPoint(0.2, 0.9), 1.0, SET,
                    work_tol=1e-16)


def test_arc_reductions_are_batch_width_invariant():
    # the Simpson sums must not depend on how many points share a batch,
    # or grid scans change in the last digit with --threads
    model = quartic_ramp()
    rng = np.random.default_rng(67)
    cp = rng.uniform(-2.0, 2.0, 67).astype(complex)
    cq = rng.uniform(-2.0, 2.0, 67).astype(complex)
    whole = _build_arc_batch(model, 0.3, cp, cq, 0.5, SET)
    power, _ = _pseudo_power_batch(model, whole)
    for i in range(cp.size):
        one = _build_arc_batch(model, 0.3, cp[i:i + 1], cq[i:i + 1], 0.5, SET)
        assert one.area[0] == whole.area[i], i
        assert one.action[0] == whole.action[i], i
        assert _pseudo_power_batch(model, one)[0][0] == power[i], i
