import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import simpson, solve_ivp

from scjarz import pseudowork
from scjarz.dynamics import (IntegratorSettings, _build_arc_batch, build_arc,
                             flow_imaginary, flow_real)
from scjarz.errors import NewtonDiverged, WorkMismatch
from scjarz.models import ComplexPoint, ramped_model
from scjarz.pseudowork import (_WORK_NODES, _composite_map_batch,
                               _gauss_legendre_nodes, _lagrange_weights,
                               _predicted_centers, _pseudo_power_batch,
                               _pseudo_work_batch, composite_map,
                               pseudo_power, pseudo_work, solve_pseudo_state)
from scjarz.stationary import _invert_map_batch, endpoint_action_prefactor

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


def test_pseudo_state_junction_energy_matches():
    # frozen-time energy conservation makes both branch junctions isoenergetic
    model = quartic_ramp()
    state = solve_pseudo_state(model, 0.0, 1.0, ComplexPoint(0.3, 0.9),
                               1.0, SET)
    z_plus, z_minus = state.arc.z_plus, state.arc.z_minus
    h_plus = model.value(1.0, z_plus.p, z_plus.q)
    h_minus = model.value(1.0, z_minus.p, z_minus.q)
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
    solve = solve_pseudo_state(model, 0.0, 0.0, ComplexPoint(0.9, 0.4), 1.0,
                               SET)
    assert pseudo_power(model, solve.arc, SET) == pytest.approx(0.0, abs=1e-14)


def test_pseudo_power_closed_form_value():
    # (sinh 1 + 1)/(1 + cosh 1) = 0.8553410237... at (0,1), unit scales
    model = harmonic_ramp()
    solve = solve_pseudo_state(model, 0.0, 0.0, ComplexPoint(0.0, 1.0), 1.0,
                               SET)
    val = pseudo_power(model, solve.arc, SET)
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
        solve = solve_pseudo_state(model, 0.0, 0.0, ComplexPoint(p, q), 1.0,
                                   SET)
        got = pseudo_power(model, solve.arc, SET)
        exact = (2.0 / (1.0 + np.cosh(x))) * (
            0.5 * q * q * (ratio + 1.0) + 0.5 * p * p * (1.0 - ratio))
        assert got == pytest.approx(exact, rel=1e-7, abs=1e-12)


def test_pseudo_power_classical_limit_quadratic_order():
    model = harmonic_ramp()
    target = ComplexPoint(0.5, 1.2)
    dth = model.dt(0.0, target.p, target.q).real  # m w wdot q^2
    errs = []
    for hb in (0.2, 0.1, 0.05, 0.025):
        solve = solve_pseudo_state(model, 0.0, 0.0, target, hb, SET)
        errs.append(abs(pseudo_power(model, solve.arc, SET) - dth))
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


@pytest.mark.parametrize("t_f", [0.3, 1.0])
def test_composite_map_jacobian_matches_central_differences(t_f):
    model = quartic_ramp()
    cp = np.array([0.0, 0.8, -1.3, 2.0])
    cq = np.array([0.0, -0.6, 1.1, 0.4])
    _, _, jac = _composite_map_batch(model, 0.0, t_f, cp, cq, 0.5, SET)
    assert jac.shape == (2, 2, 4) and jac.dtype == float
    eps = 1e-5
    for col, (dp, dq) in enumerate(((eps, 0.0), (0.0, eps))):
        fp = _composite_map_batch(model, 0.0, t_f, cp + dp, cq + dq, 0.5, SET)
        fm = _composite_map_batch(model, 0.0, t_f, cp - dp, cq - dq, 0.5, SET)
        for row in range(2):
            fd = (fp[row] - fm[row]) / (2.0 * eps)
            np.testing.assert_allclose(jac[row, col], fd, rtol=1e-6,
                                       atol=1e-6 * np.max(np.abs(jac)))


HYP_SET = IntegratorSettings(n_sigma_steps=16, n_time_steps=16)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)),
                min_size=1, max_size=16))
def test_composite_inversion_is_batch_width_invariant(targets):
    # every Newton step, damping decision and verdict is per point, so a
    # point's solve must not depend on which points share its batch
    model = quartic_ramp()
    tp = np.array([t[0] for t in targets])
    tq = np.array([t[1] for t in targets])
    whole = _invert_map_batch(model, 0.0, 0.6, tp, tq, 0.5, HYP_SET)
    for i in range(tp.size):
        one = _invert_map_batch(model, 0.0, 0.6, tp[i:i + 1], tq[i:i + 1],
                                0.5, HYP_SET)
        for name in ("zc_p", "zc_q", "det", "iters", "status"):
            a, b = getattr(one, name)[0], getattr(whole, name)[i]
            assert a == b or (np.isnan(a) and np.isnan(b)), (name, i)


def test_work_march_solves_each_time_node_once(monkeypatch):
    # the t_f node's solve and arcs also serve the endpoint G_prop
    calls = []
    original = pseudowork._invert_map_batch

    def counted(model, t_i, t_f, *args, **kwargs):
        calls.append(t_f)
        return original(model, t_i, t_f, *args, **kwargs)

    monkeypatch.setattr(pseudowork, "_invert_map_batch", counted)
    model = quartic_ramp()
    out = _pseudo_work_batch(model, 0.0, 1.0, np.array([0.2, -0.7]),
                             np.array([0.9, 0.4]), 1.0, HYP_SET)
    assert len(calls) == HYP_SET.n_time_steps + 1
    assert calls == list(out["times"])
    assert np.all(out["status"] == 0)
    assert np.all(out["newton_iters"] > 0)


# at hbar*beta = 1 this quartic start solves at t_i and fails at time node
# 6 of 8; its status is then final, and nodes 7 and 8 do not solve it
MARCH_SET = IntegratorSettings(n_sigma_steps=16, n_time_steps=8)
FAILS_MID_MARCH = (-4.0, -1.0)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)),
                min_size=0, max_size=5),
       st.integers(0, 5))
def test_work_march_is_batch_width_invariant(targets, slot):
    # the predicted warm starts are per column, so a start's work and
    # endpoint energies must not depend on which starts share its batch
    model = quartic_ramp()
    targets = list(targets)
    targets.insert(min(slot, len(targets)), FAILS_MID_MARCH)
    tp = np.array([t[0] for t in targets])
    tq = np.array([t[1] for t in targets])
    whole = _pseudo_work_batch(model, 0.0, 1.0, tp, tq, 1.0, MARCH_SET)
    failing = min(slot, len(targets) - 1)
    assert whole["status"][failing] != 0
    assert np.isfinite(whole["g_initial"][failing])
    assert np.isnan(whole["power"][6, failing])
    for i in range(tp.size):
        one = _pseudo_work_batch(model, 0.0, 1.0, tp[i:i + 1], tq[i:i + 1],
                                 1.0, MARCH_SET)
        for name in ("W", "g_initial", "g_propagated", "status",
                     "newton_iters"):
            a, b = one[name][0], whole[name][i]
            assert a == b or (np.isnan(a) and np.isnan(b)), (name, i)



def test_failed_column_stops_marching(monkeypatch):
    # a start is final at its first failed node: no later node solves it,
    # its Newton count stops there, and the starts marched with it keep
    # their solo results
    solved = []    # per node: Newton iterations of each start solved there
    original = pseudowork._invert_map_batch

    def counted(model, t_i, t_f, tp, tq, *args, **kwargs):
        solve = original(model, t_i, t_f, tp, tq, *args, **kwargs)
        solved.append(dict(zip(zip(tp, tq), solve.iters)))
        return solve

    monkeypatch.setattr(pseudowork, "_invert_map_batch", counted)
    model = quartic_ramp()
    targets = [(0.2, 0.9), FAILS_MID_MARCH, (-0.7, 0.4)]
    tp = np.array([t[0] for t in targets])
    tq = np.array([t[1] for t in targets])
    whole = _pseudo_work_batch(model, 0.0, 1.0, tp, tq, 1.0, MARCH_SET)
    assert len(solved) == MARCH_SET.n_time_steps + 1
    assert [FAILS_MID_MARCH in node for node in solved] == [
        j <= 6 for j in range(MARCH_SET.n_time_steps + 1)]
    assert list(whole["status"] != 0) == [False, True, False]
    assert whole["newton_iters"][1] == sum(node[FAILS_MID_MARCH]
                                           for node in solved[:7])
    assert whole["node_solves"] == sum(len(node) for node in solved)
    assert whole["node_solves"] == 7 * 3 + 2 * 2
    assert np.all(np.isnan(whole["power"][6:, 1]))
    assert np.all(np.isnan(whole["center_p"][7:, 1]))

    monkeypatch.undo()
    for i in (0, 2):
        one = _pseudo_work_batch(model, 0.0, 1.0, tp[i:i + 1], tq[i:i + 1],
                                 1.0, MARCH_SET)
        for name in ("W", "W_endpoint", "g_initial", "g_propagated",
                     "status", "newton_iters", "power", "center_p",
                     "center_q", "residual", "check_p", "check_q"):
            np.testing.assert_array_equal(one[name][..., 0],
                                          whole[name][..., i], err_msg=name)


def test_pseudo_work_reports_the_failing_node():
    # the error names the node where the march stopped the start, with its
    # real residual and |det| there; later nodes record no solve
    model = quartic_ramp()
    with pytest.raises(NewtonDiverged,
                       match=r"at t=0\.75 \(residual 2\.830e-01, \|det\|="):
        pseudo_work(model, 0.0, 1.0, ComplexPoint(*FAILS_MID_MARCH), 1.0,
                    MARCH_SET)
    out = _pseudo_work_batch(model, 0.0, 1.0, np.array([FAILS_MID_MARCH[0]]),
                             np.array([FAILS_MID_MARCH[1]]), 1.0, MARCH_SET)
    assert out["times"][6] == 0.75
    assert out["residual"][6, 0] == pytest.approx(0.283, abs=1e-3)
    assert np.all(np.isfinite(out["det"][:7, 0]))
    assert np.all(np.isnan(out["det"][7:, 0]))


def test_scalar_power_and_prefactor_read_the_arc():
    # pseudo_power and endpoint_action_prefactor take the frozen time and
    # the span from the arc: on the march's own centers they reproduce the
    # batch's power at every node and its t_i prefactor, bitwise
    model = quartic_ramp()
    out = _pseudo_work_batch(model, 0.0, 1.0, np.array([0.3]), np.array([0.9]),
                             0.8, MARCH_SET, with_prefactor=True)
    for j, tj in enumerate(out["times"]):
        arc = build_arc(model, tj, ComplexPoint(out["center_p"][j, 0],
                                                out["center_q"][j, 0]),
                        0.8, MARCH_SET)
        assert arc.t == tj and arc.hbar_beta == 0.8
        assert pseudo_power(model, arc, MARCH_SET) == out["power"][j, 0], j
        if j == 0:
            assert (endpoint_action_prefactor(model, arc, MARCH_SET)
                    == out["prefactor_initial"][0])


@pytest.mark.parametrize("t0, h", [(0.0, 1.0 / 64), (0.3, 0.7 / 9)])
def test_lagrange_predictor_reproduces_binomial_weights(t0, h):
    # on a uniform grid the polynomial through the last k nodes has the
    # binomial extrapolation weights, newest node first
    binomial = {1: [1], 2: [2, -1], 3: [3, -3, 1], 4: [4, -6, 4, -1],
                5: [5, -10, 10, -5, 1]}
    t_next = t0 + 5 * h
    for k, expected in binomial.items():
        hist_t = [t_next - (j + 1) * h for j in range(k)]
        np.testing.assert_allclose(_lagrange_weights(t_next, hist_t),
                                   expected, rtol=0.0, atol=1e-12)


def test_lagrange_predictor_is_exact_for_quartics():
    # the march's Gauss-Legendre node times are not uniform; the five-node
    # rule must still reproduce any quartic in t
    times, _ = _gauss_legendre_nodes(0.0, 1.0)
    coef_p = np.array([[0.7, -1.3], [2.0, 0.5], [-3.0, 1.1], [0.5, -2.2],
                       [4.0, 0.9]])
    coef_q = coef_p[::-1] * 0.5

    def quartic(coef, t):
        return sum(c * t ** k for k, c in enumerate(coef))

    for j in range(5, times.size):
        hist_t = list(times[j - 5:j][::-1])
        hist_p = [quartic(coef_p, t) for t in hist_t]
        hist_q = [quartic(coef_q, t) for t in hist_t]
        pred_p, pred_q = _predicted_centers(times[j], hist_t, hist_p, hist_q)
        np.testing.assert_allclose(pred_p, quartic(coef_p, times[j]),
                                   rtol=0.0, atol=1e-12)
        np.testing.assert_allclose(pred_q, quartic(coef_q, times[j]),
                                   rtol=0.0, atol=1e-12)


def test_gauss_legendre_work_nodes():
    # t_i and t_f are marched with zero weight; the interior rule
    # integrates polynomials up to degree 2 * _WORK_NODES - 1 exactly
    times, weights = _gauss_legendre_nodes(0.25, 1.5)
    assert times.size == weights.size == _WORK_NODES + 2
    assert times[0] == 0.25 and times[-1] == 1.5
    assert np.all(np.diff(times) > 0.0)
    assert weights[0] == weights[-1] == 0.0
    f = times ** 31 - 2.0 * times ** 5
    exact = (1.5 ** 32 - 0.25 ** 32) / 32 - (1.5 ** 6 - 0.25 ** 6) / 3
    assert np.sum(weights * f) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("kind, lam", [("harmonic", 0.0), ("quartic", 0.1)])
def test_gauss_legendre_work_matches_endpoint(kind, lam):
    # criterion 5 for the identity's Gauss-Legendre rule, on 10 bulk starts
    model = ramped_model(kind, omega_i=1.0, omega_f=2.0, quartic_lambda=lam)
    settings = IntegratorSettings(n_sigma_steps=96, n_time_steps=64)
    tp, tq = np.random.default_rng(17).uniform(-1.2, 1.2, size=(2, 10))
    out = _pseudo_work_batch(model, 0.0, 1.0, tp, tq, 1.0, settings,
                             nodes=_gauss_legendre_nodes(0.0, 1.0))
    assert np.all(out["status"] == 0)
    assert out["times"].size == _WORK_NODES + 2
    w, w_end = out["W"], out["W_endpoint"]
    assert np.all(np.abs(w - w_end) <= 1e-6 * (1.0 + np.abs(w)))


def test_zero_length_window_marches_on_the_last_center():
    # t_f == t_i marches the single node t_i by default; explicit repeated
    # node times must not make the predictor divide by the zero node
    # spacing, so every node after the first starts at the converged center
    # and takes no Newton iteration
    model = ramped_model("harmonic", omega_i=1.0, omega_f=1.0,
                         shape="constant", t_f=0.0)
    tp, tq = np.array([0.3, -0.8]), np.array([0.5, 1.1])
    first = _invert_map_batch(model, 0.0, 0.0, tp, tq, 1.0, MARCH_SET)
    single = _pseudo_work_batch(model, 0.0, 0.0, tp, tq, 1.0, MARCH_SET)
    assert single["node_solves"] == tp.size
    assert single["times"].size == 1
    repeated = _pseudo_work_batch(model, 0.0, 0.0, tp, tq, 1.0, MARCH_SET,
                                  nodes=(np.zeros(9), np.zeros(9)))
    assert repeated["node_solves"] == 9 * tp.size
    for out in (single, repeated):
        assert np.all(out["status"] == 0)
        np.testing.assert_array_equal(out["newton_iters"], first.iters)
        assert np.all(out["W"] == 0.0)
        assert np.all(np.abs(out["W_endpoint"]) < 1e-9)
        assert np.all(out["center_p"] == out["center_p"][0])
