import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.integrate import simpson, solve_ivp

from scjarz import dynamics, pseudowork, stationary
from scjarz.dynamics import (IntegratorSettings, _build_arc_batch,
                             _flow_real_batch, _real_step_count, build_arc,
                             flow_imaginary, flow_real)
from scjarz.errors import IntegratorDiverged, NewtonDiverged, WorkMismatch
from scjarz.jarzynski import QuadratureDomain, _mirrored_march
from scjarz.models import ComplexPoint, ramped_model
from scjarz.pseudowork import (_WORK_NODES, _composite_map_batch,
                               _gauss_legendre_nodes, _lagrange_weights,
                               _node_recorder, _predicted_centers,
                               _propagated_g_batch, _pseudo_power_batch,
                               _pseudo_work_batch, composite_map,
                               pseudo_power, pseudo_work,
                               solve_pseudo_state)
from scjarz.stationary import DIVERGED, NON_FINITE, OK, _invert_map_batch

from references import grad

SET = IntegratorSettings(n_sigma_steps=96, n_time_steps=64)


def harmonic_ramp(shape="linear", omega_f=2.0, t_f=1.0):
    return ramped_model("harmonic", omega_i=1.0, omega_f=omega_f,
                        t_i=0.0, t_f=t_f, shape=shape)


def quartic_ramp(lam=0.1):
    return ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                        quartic_lambda=lam)


def arc_endpoint(arc, sign):
    """Endpoint of a width-1 arc at sigma = sign * hbar*beta/2; the arc
    records its plus half, and the minus endpoint is the conjugate."""
    z = ComplexPoint(complex(arc.p[-1, 0]), complex(arc.q[-1, 0]))
    return z if sign > 0 else z.conjugate()


def classical_trajectory(model, t_eval, p0, q0):
    def rhs(t, y):
        dp, dq = grad(model, t, y[0], y[1])
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
    z_plus, z_minus = arc_endpoint(state.arc, +1), arc_endpoint(state.arc, -1)
    h_plus = model.value(1.0, z_plus.p, z_plus.q)
    h_minus = model.value(1.0, z_minus.p, z_minus.q)
    assert abs(h_plus - h_minus) < 1e-9


def test_pseudo_state_quartic_self_residual():
    model = quartic_ramp()
    state = solve_pseudo_state(model, 0.0, 1.0, ComplexPoint(0.3, 0.9),
                               1.0, SET)
    assert state.residual < 1e-9
    # conjugate branch symmetry at the final time
    z_plus, z_minus = arc_endpoint(state.arc, +1), arc_endpoint(state.arc, -1)
    assert z_minus.p == pytest.approx(np.conj(z_plus.p), abs=1e-10)
    assert z_minus.q == pytest.approx(np.conj(z_plus.q), abs=1e-10)


def test_pseudo_power_constant_protocol_vanishes():
    model = ramped_model("harmonic", omega_i=1.0, omega_f=1.0,
                         shape="constant")
    solve = solve_pseudo_state(model, 0.0, 0.0, ComplexPoint(0.9, 0.4), 1.0,
                               SET)
    assert pseudo_power(solve.arc) == pytest.approx(0.0, abs=1e-14)


def test_pseudo_power_closed_form_value():
    # (sinh 1 + 1)/(1 + cosh 1) = 0.8553410237... at (0,1), unit scales
    model = harmonic_ramp()
    solve = solve_pseudo_state(model, 0.0, 0.0, ComplexPoint(0.0, 1.0), 1.0,
                               SET)
    val = pseudo_power(solve.arc)
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
        got = pseudo_power(solve.arc)
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
        errs.append(abs(pseudo_power(solve.arc) - dth))
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
    _, weights = _gauss_legendre_nodes(0.0, 1.0)
    w_oracle = np.sum(weights * power)
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
    assert np.all(tr.solve_residual <= stationary._NEWTON_TOL)


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
    plus_branch_ti = flow_real(model, 0.5, 0.0, arc_endpoint(state.arc, -1),
                               SET)
    minus_branch_ti = flow_real(model, 0.5, 0.0, arc_endpoint(state.arc, +1),
                                SET)
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
    plus0 = flow_real(const, 0.5, 0.0, arc_endpoint(state0.arc, -1), SET)
    minus0 = flow_real(const, 0.5, 0.0, arc_endpoint(state0.arc, +1), SET)
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
    # or a point's values change in the last digit with the batch it is in
    model = quartic_ramp()
    rng = np.random.default_rng(67)
    cp = rng.uniform(-2.0, 2.0, 67).astype(complex)
    cq = rng.uniform(-2.0, 2.0, 67).astype(complex)
    whole = _build_arc_batch(model, 0.3, cp, cq, 0.5, SET)
    power = _pseudo_power_batch(whole)
    for i in range(cp.size):
        one = _build_arc_batch(model, 0.3, cp[i:i + 1], cq[i:i + 1], 0.5, SET)
        assert one.area[0] == whole.area[i], i
        assert one.action[0] == whole.action[i], i
        assert _pseudo_power_batch(one)[0] == power[i], i


@pytest.mark.parametrize("mass", [1.0, 1.5])
def test_quartic_arc_sums_by_row_are_the_stacked_sums(mass):
    # p dq and the power are the arc's square_sum: the plus half's path
    # reduced one sample row at a time, each row (coef x) x with
    # coef = -i/m for p dq and m w wdot for the power.  Each row runs the
    # operations of the whole (n + 1, B) integrand, so both are its sums
    # bit for bit.  At m = 1.5, 1/m is not exact: the p^2 rows round as
    # ((-i/m) p) p, and p (-i) (p/m) gives other real parts in 4 of these
    # 30 half sums
    model = ramped_model("quartic", mass=mass, omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    rng = np.random.default_rng(5)
    cp, cq = rng.uniform(-2.0, 2.0, (2, 30))
    arcs = _build_arc_batch(model, 0.3, cp, cq, 0.5, SET)
    w, p, q = arcs.half_weights, arcs.p, arcs.q
    coef, rate = -1j / mass, model.dt(0.3, 0.0, 1.0)
    half_p = dynamics.weighted_sum(w, (coef * p) * p)
    half_q = dynamics.weighted_sum(w, (rate * q) * q)
    assert arcs.square_sum(0).tobytes() == half_p.tobytes()
    assert arcs.square_sum(1).tobytes() == half_q.tobytes()
    assert arcs.pdq.tobytes() == (half_p - np.conjugate(half_p)).tobytes()
    power = 2.0 * half_q.real / 0.5
    assert _pseudo_power_batch(arcs).tobytes() == power.tobytes()


@pytest.mark.parametrize("mass", [1.0, 1.5])
def test_quartic_arc_sums_accumulated_in_the_run_are_the_stacked_sums(mass):
    # read before the path, p dq and the power accumulate as the arc's one
    # state run steps, and no path is stored; each row runs the stacked
    # integrand's operations, so both must be the sums over a path
    # recorded afterwards bit for bit
    model = ramped_model("quartic", mass=mass, omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    rng = np.random.default_rng(5)
    cp, cq = rng.uniform(-2.0, 2.0, (2, 30))
    arcs = _build_arc_batch(model, 0.3, cp, cq, 0.5, SET)
    pdq, power = arcs.pdq, _pseudo_power_batch(arcs)
    w, p, q = arcs.half_weights, arcs.p, arcs.q
    half_p = dynamics.weighted_sum(w, ((-1j / mass) * p) * p)
    half_q = dynamics.weighted_sum(w, (model.dt(0.3, 0.0, 1.0) * q) * q)
    assert pdq.tobytes() == (half_p - np.conjugate(half_p)).tobytes()
    assert power.tobytes() == (2.0 * half_q.real / 0.5).tobytes()


ARC_READS = {"p": lambda arc: arc.p, "pdq": lambda arc: arc.pdq,
             "power": _pseudo_power_batch}


@pytest.mark.parametrize("read", sorted(ARC_READS))
@pytest.mark.parametrize("view", ["solve_pseudo_state", "build_arc"])
def test_a_quartic_arc_steps_its_path_on_first_read(kernel_runs, view,
                                                    read):
    # a width-1 view's quartic arc keeps its center, endpoint and M_+: no
    # run hands its samples to a hook until the arc's p, p dq or power is
    # read.  The first read makes one 1-row run at width 1, which records
    # the path only for p; p dq and the power sum as that run steps.  The
    # sums always come from their own accumulating run, so the other kind
    # of read adds one more 1-row run, and no later read steps again: p dq
    # and the power share one run, and p is recorded once
    calls = kernel_runs
    model = quartic_ramp()
    z = ComplexPoint(0.6, -0.4)
    if view == "build_arc":
        arc = build_arc(model, 0.3, z, 0.5, MARCH_SET)
    else:
        arc = solve_pseudo_state(model, 0.0, 0.3, z, 0.5, MARCH_SET).arc
    assert calls and all(hook is None for _, hook in calls)
    calls.clear()
    ARC_READS[read](arc)
    first = [((1, 1), read == "p")]
    assert calls == first
    expected = first + [((1, 1), read != "p")]
    for _ in range(2):
        for again in ARC_READS.values():
            again(arc)
        assert calls == expected


@pytest.mark.parametrize("t_f", [0.3, 1.0])
def test_composite_map_jacobian_matches_central_differences(t_f):
    model = quartic_ramp()
    cp = np.array([0.0, 0.8, -1.3, 2.0])
    cq = np.array([0.0, -0.6, 1.1, 0.4])
    _, _, jac, _ = _composite_map_batch(model, 0.0, t_f, cp, cq, 0.5, SET)
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


# a harmonic batch of more than one column integrates its monodromy once
# at width 1 (``dynamics._rk4``), a single column stacked with its state;
# the batch-width properties below must hold across both kernel paths
WIDTH_MODELS = {"quartic": quartic_ramp, "harmonic": harmonic_ramp}


@pytest.mark.parametrize("kind", sorted(WIDTH_MODELS))
@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)),
                min_size=1, max_size=16))
def test_composite_inversion_is_batch_width_invariant(kind, targets):
    # every Newton step, damping decision and verdict is per point, so a
    # point's solve must not depend on which points share its batch
    model = WIDTH_MODELS[kind]()
    tp = np.array([t[0] for t in targets])
    tq = np.array([t[1] for t in targets])
    whole = _invert_map_batch(model, 0.0, 0.6, tp, tq, 0.5, HYP_SET)
    for i in range(tp.size):
        one = _invert_map_batch(model, 0.0, 0.6, tp[i:i + 1], tq[i:i + 1],
                                0.5, HYP_SET)
        for name in ("zc_p", "zc_q", "det", "iters", "status"):
            a, b = getattr(one, name)[0], getattr(whole, name)[i]
            assert a == b or (np.isnan(a) and np.isnan(b)), (name, i)


@pytest.mark.parametrize("t_f", [0.0, 0.6])
@settings(max_examples=20, deadline=None)
@given(st.lists(st.tuples(st.floats(-4.5, 4.5), st.floats(-4.5, 4.5)),
                min_size=1, max_size=12),
       st.floats(0.1, 2.0))
def test_linear_solve_starts_at_its_exact_solution(t_f, targets, hb):
    # a harmonic map is J z, so every column starts at J^-1 target, cold
    # or warm-started alike, and converges at Newton's first evaluation;
    # J here is the map's image of the unit vectors
    model = harmonic_ramp()
    tp = np.array([t[0] for t in targets])
    tq = np.array([t[1] for t in targets])
    solve = _invert_map_batch(model, 0.0, t_f, tp, tq, hb, HYP_SET)
    assert np.all(solve.status == OK)
    assert np.all(solve.iters == 0)
    assert np.all(solve.residual <= stationary._NEWTON_TOL)
    mp, mq, _, _ = _composite_map_batch(model, 0.0, t_f, np.array([1.0, 0.0]),
                                        np.array([0.0, 1.0]), hb, HYP_SET)
    zc = np.linalg.solve(np.array([mp, mq]), np.array([tp, tq]))
    scale = 1e-12 * (1.0 + np.hypot(tp, tq))
    assert np.all(np.abs(solve.zc_p - zc[0]) <= scale)
    assert np.all(np.abs(solve.zc_q - zc[1]) <= scale)
    warm = _invert_map_batch(model, 0.0, t_f, tp, tq, hb, HYP_SET,
                             warm_p=tp + 0.5, warm_q=tq - 0.5)
    for name in ("zc_p", "zc_q", "det", "iters", "residual", "status"):
        assert getattr(warm, name).tobytes() == \
            getattr(solve, name).tobytes(), name


def test_linear_solve_evaluates_the_map_once_per_column(monkeypatch):
    # one width-1 evaluation at the origin gives J, and Newton's first
    # evaluation, at the exact start, converges every column
    widths = []
    original = stationary._composite_map_batch

    def recorded(model, t_i, t_f, P, *args, **kwargs):
        widths.append(np.size(P))
        return original(model, t_i, t_f, P, *args, **kwargs)

    monkeypatch.setattr(stationary, "_composite_map_batch", recorded)
    tp = np.array([0.2, -1.7, 2.5, 0.0, -0.4])
    tq = np.array([0.9, 0.4, -2.2, 1.3, 0.0])
    solve = _invert_map_batch(harmonic_ramp(), 0.0, 0.6, tp, tq, 1.0,
                              HYP_SET)
    assert widths == [1, 5]
    assert np.all(solve.status == OK) and np.all(solve.iters == 0)


def test_linear_solve_integrates_each_leg_once(monkeypatch):
    # the origin evaluation and Newton's evaluation share the memoized
    # width-1 flows: one imaginary run (c = i) and one real run (c = -1)
    # of the scalar recurrence per solve at t_f > t_i, and none at all
    # for a repeated solve
    runs = []
    recurrence = dynamics._linear_steps

    def recorded(model, c, *args):
        path = recurrence(model, c, *args)
        runs.append((c, path.shape[-1]))
        return path

    monkeypatch.setattr(dynamics, "_linear_steps", recorded)
    model = harmonic_ramp()
    tp = np.array([0.2, -1.7, 2.5, 0.0, -0.4])
    tq = np.array([0.9, 0.4, -2.2, 1.3, 0.0])
    for t_f in (0.6, 0.9):
        solve = _invert_map_batch(model, 0.0, t_f, tp, tq, 1.0, HYP_SET)
        assert np.all(solve.status == OK)
        assert runs == [(1j, 1), (-1.0, 1)], t_f
        again = _invert_map_batch(model, 0.0, t_f, tp, tq, 1.0, HYP_SET)
        assert runs == [(1j, 1), (-1.0, 1)], t_f
        assert again.zc_p.tobytes() == solve.zc_p.tobytes()
        runs.clear()


def test_linear_march_integrates_each_distinct_leg_once(monkeypatch):
    # a harmonic march of _WORK_NODES + 2 = 14 nodes has 27 distinct
    # width-1 legs: the imaginary leg at each node and the real leg back
    # to t_i at every node but t_i.  The memo records every leg's path, so
    # the t_f endpoint action's stored leg is the t_f solve's own, and no
    # leg is stepped twice by the scalar recurrence
    legs = []
    recurrence = dynamics._linear_steps

    def recorded(model, c, d, t0, dt, h, n_steps):
        legs.append((c, t0, dt, n_steps))
        return recurrence(model, c, d, t0, dt, h, n_steps)

    monkeypatch.setattr(dynamics, "_linear_steps", recorded)
    tp = np.array([0.2, -1.7, 2.5, 0.0, -0.4])
    tq = np.array([0.9, 0.4, -2.2, 1.3, 0.0])
    out = _pseudo_work_batch(harmonic_ramp(), 0.0, 1.0, tp, tq, 1.0, HYP_SET)
    assert np.all(out["status"] == OK)
    assert out["times"].size == _WORK_NODES + 2 == 14
    assert len(legs) == len(set(legs)) == 27


def test_endpoint_g_after_a_linear_solve_steps_no_kernel(monkeypatch):
    # the t_f solve's map evaluation integrated the real leg from t_f to
    # t_i, and the memo kept its path, so the endpoint action reads it
    model = harmonic_ramp()
    tp = np.array([0.2, -1.7, 2.5])
    tq = np.array([0.9, 0.4, -2.2])
    solve = _invert_map_batch(model, 0.0, 1.0, tp, tq, 1.0, HYP_SET)
    assert np.all(solve.status == OK)

    def refused(*args):
        raise AssertionError("a leg the solve had run was stepped again")

    for stepper in ("_linear_steps", "_rk4_steps"):
        monkeypatch.setattr(dynamics, stepper, refused)
    g_prop = _propagated_g_batch(0.0, tp, HYP_SET, solve)
    assert np.all(np.isfinite(g_prop))


@pytest.mark.parametrize("model", [harmonic_ramp(), quartic_ramp()],
                         ids=["harmonic", "quartic"])
@pytest.mark.parametrize("view", ["composite_map", "solve_pseudo_state",
                                  "pseudo_work"])
def test_a_reversed_window_is_refused_by_every_view(model, view):
    # the window check is the composite map's, and every view reaches it
    fn = {"composite_map": composite_map,
          "solve_pseudo_state": solve_pseudo_state,
          "pseudo_work": pseudo_work}[view]
    with pytest.raises(ValueError, match="t_i <= t_f"):
        fn(model, 1.0, 0.0, ComplexPoint(0.5, 0.5), 1.0, HYP_SET)


@pytest.mark.parametrize("kind", sorted(WIDTH_MODELS))
@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(*(st.floats(-3.0, 3.0) for _ in range(4))),
                min_size=1, max_size=8),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
def test_real_flow_of_conjugate_starts_is_conjugate(kind, starts, t_a, t_b):
    # the real-time flow has real coefficients, so conjugate starts give
    # conjugate states, actions and monodromies bit for bit, up to the
    # sign of a zero (array_equal counts +0 and -0 equal); the endpoint
    # G_prop integrates one branch leg and reads its twin this way
    model = WIDTH_MODELS[kind]()
    z = np.array(starts)
    p0, q0 = z[:, 0] + 1j * z[:, 1], z[:, 2] + 1j * z[:, 3]
    with np.errstate(over="ignore", invalid="ignore"):
        out = _flow_real_batch(model, t_a, t_b, p0, q0, 16,
                               with_action=True, tangent=True)
        twin = _flow_real_batch(model, t_a, t_b, np.conjugate(p0),
                                np.conjugate(q0), 16, with_action=True,
                                tangent=True)
    keep = np.all([np.isfinite(x).reshape(-1, z.shape[0]).all(axis=0)
                   for x in out], axis=0)
    assume(np.any(keep))
    for name, x, y in zip(("p", "q", "action", "monodromy"), out, twin):
        assert np.array_equal(np.conjugate(x[..., keep]), y[..., keep]), name


def _two_leg_g_prop(model, t_i, tp, tq, settings, solve):
    """G_prop, |Im G_prop| and chord gap (distance of the t_i chord
    midpoint from the target) with both branch legs integrated: from the
    arc's sigma = -hbar*beta/2 endpoint (the plus branch; the conjugate of
    the stored plus endpoint) and from its sigma = +hbar*beta/2 endpoint
    (the minus branch)."""
    arcs = solve.arcs
    ok = solve.status == OK
    b = arcs.center_p.shape[0]
    n = _real_step_count(model, settings, arcs.t - t_i)
    pe, qe = arcs.p[-1], arcs.q[-1]
    pe, qe, acc = _flow_real_batch(
        model, arcs.t, t_i, np.concatenate([np.conjugate(pe), pe]),
        np.concatenate([np.conjugate(qe), qe]), n, with_action=True)
    s_plus, s_minus = -acc[:b], -acc[b:]
    tpg, tqg = tp[ok], tq[ok]
    s_tot = -(tpg + 0j) * (qe[b:] - qe[:b]) + s_plus + arcs.action - s_minus
    g = s_tot / (1j * arcs.hbar_beta)
    gap = np.hypot(np.abs(0.5 * (pe[:b] + pe[b:]) - tpg),
                   np.abs(0.5 * (qe[:b] + qe[b:]) - tqg))
    out = [np.full(tp.shape, np.nan) for _ in range(3)]
    for x, v in zip(out, (g.real, np.abs(g.imag), gap)):
        x[ok] = v
    return out


@pytest.mark.parametrize("kind", sorted(WIDTH_MODELS))
@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.floats(-4.5, 4.5), st.floats(-4.5, 4.5)),
                min_size=1, max_size=12),
       st.floats(0.05, 1.0))
def test_one_leg_g_prop_is_the_two_leg_formula(kind, targets, t_f):
    # the endpoint G_prop integrates only the leg from sigma = +hbar*beta/2
    # and takes the other as its conjugate; G_prop must be that of both
    # legs integrated, which is real to roundoff.  That leg is the one the
    # solve's accepted map evaluation integrated, so the t_i chord midpoint
    # misses the target by the solve's own residual: the distance lies
    # between that max-norm residual and sqrt(2) times it
    model = WIDTH_MODELS[kind]()
    tp = np.array([t[0] for t in targets])
    tq = np.array([t[1] for t in targets])
    solve = _invert_map_batch(model, 0.0, t_f, tp, tq, 1.0, HYP_SET)
    got = _propagated_g_batch(0.0, tp, HYP_SET, solve)
    g_ref, imag_ref, gap_ref = _two_leg_g_prop(model, 0.0, tp, tq, HYP_SET,
                                               solve)
    assert np.array_equal(got, g_ref, equal_nan=True)
    ok = solve.status == OK
    assert np.all(imag_ref[ok] <= 1e-14 * (1.0 + np.abs(g_ref[ok])))
    res = solve.residual[ok]
    assert np.all(res <= gap_ref[ok])
    assert np.all(gap_ref[ok] <= np.sqrt(2.0) * res * (1.0 + 1e-15))


def test_work_march_solves_each_time_node_once(monkeypatch):
    # t_i, the Gauss-Legendre times and t_f, each solved once: the t_f
    # node's solve and arcs also serve the endpoint G_prop
    calls = []
    original = pseudowork._invert_map_batch

    def counted(model, t_i, t_f, *args, **kwargs):
        calls.append(t_f)
        return original(model, t_i, t_f, *args, **kwargs)

    monkeypatch.setattr(pseudowork, "_invert_map_batch", counted)
    model = quartic_ramp()
    out = _pseudo_work_batch(model, 0.0, 1.0, np.array([0.2, -0.7]),
                             np.array([0.9, 0.4]), 1.0, HYP_SET)
    assert len(calls) == _WORK_NODES + 2
    assert calls == list(out["times"])
    assert np.all(out["status"] == 0)
    assert np.all(out["newton_iters"] > 0)


def recorded_march(model, t_i, t_f, tp, tq, hbar_beta, settings):
    """The work march with ``_node_recorder``'s hook: its result and its
    per-node record."""
    times, _ = _gauss_legendre_nodes(t_i, t_f)
    track, record = _node_recorder(times.size, np.size(tp))
    out = _pseudo_work_batch(model, t_i, t_f, tp, tq, hbar_beta, settings,
                             node=record)
    return out, track


# at hbar*beta = 1 this quartic start solves at t_i and fails at time node
# 9 of the 14 (t = 0.794); its status is then final, and nodes 10 to 13
# do not solve it
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
    whole, track = recorded_march(model, 0.0, 1.0, tp, tq, 1.0, MARCH_SET)
    failing = min(slot, len(targets) - 1)
    assert whole["status"][failing] != 0
    assert np.isfinite(whole["g_initial"][failing])
    j = whole["last_node"][failing]
    assert np.isnan(track["power"][j, failing])
    assert np.all(np.isfinite(track["power"][:j, failing]))
    assert_march_columns_match(model, tp, tq, whole)


@settings(max_examples=10, deadline=None)
@given(st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)),
                min_size=1, max_size=6))
def test_harmonic_work_march_is_batch_width_invariant(targets):
    # a linear flow starts each solve at its exact solution, not at the
    # predicted center, so no solve of the march takes a Newton step
    model = harmonic_ramp()
    tp = np.array([t[0] for t in targets])
    tq = np.array([t[1] for t in targets])
    whole = _pseudo_work_batch(model, 0.0, 1.0, tp, tq, 1.0, MARCH_SET)
    assert np.all(whole["status"] == OK)
    assert np.all(whole["newton_iters"] == 0)
    assert_march_columns_match(model, tp, tq, whole)


def assert_march_columns_match(model, tp, tq, whole):
    """Each start marched alone gives its column of the march ``whole``."""
    for i in range(tp.size):
        one = _pseudo_work_batch(model, 0.0, 1.0, tp[i:i + 1], tq[i:i + 1],
                                 1.0, MARCH_SET)
        for name in ("W", "g_initial", "g_propagated", "status",
                     "last_node", "newton_iters"):
            a, b = one[name][0], whole[name][i]
            assert a == b or (np.isnan(a) and np.isnan(b)), (name, i)


@pytest.mark.parametrize("kind", sorted(WIDTH_MODELS))
@settings(max_examples=8, deadline=None)
@given(st.lists(st.tuples(st.floats(-4.5, 4.5), st.floats(-4.5, 4.5)),
                min_size=1, max_size=8).flatmap(
    lambda ts: st.tuples(st.just(ts), st.sets(st.integers(0, len(ts) - 1),
                                              min_size=1))))
def test_work_march_of_a_subset_is_bitwise_the_full_batch(kind, case):
    # a subset of the starts marched on its own reproduces its columns of
    # the full march bit for bit at every node: a trial at which every
    # column converges hands its half-paths over by reference, any other
    # copies in the columns that converge at it, and neither may change a
    # column's arcs
    targets, subset = case
    model = WIDTH_MODELS[kind]()
    tp = np.array([t[0] for t in targets])
    tq = np.array([t[1] for t in targets])
    cols = np.array(sorted(subset))
    whole, whole_track = recorded_march(model, 0.0, 1.0, tp, tq, 1.0,
                                        MARCH_SET)
    part, part_track = recorded_march(model, 0.0, 1.0, tp[cols], tq[cols],
                                      1.0, MARCH_SET)
    for name in ("power", "center_p", "center_q"):
        assert part_track[name].tobytes() == np.ascontiguousarray(
            whole_track[name][:, cols]).tobytes(), name
    for name in ("W", "g_initial", "g_propagated", "status"):
        assert part[name].tobytes() == whole[name][cols].tobytes(), name


@pytest.mark.parametrize("kind", sorted(WIDTH_MODELS))
def test_work_march_returns_no_per_node_array(kind):
    # W is summed as each node is solved, so the march hands back its
    # times and one value per column, and nothing per (node, column)
    model = WIDTH_MODELS[kind]()
    tp, tq = np.array([0.2, FAILS_MID_MARCH[0]]), np.array([0.9, -1.0])
    out = _pseudo_work_batch(model, 0.0, 1.0, tp, tq, 1.0, MARCH_SET)
    assert out["times"].shape == (_WORK_NODES + 2,)
    for name, value in out.items():
        assert np.ndim(value) <= 1, name
        if name not in ("times", "node_solves"):
            assert np.shape(value) == tp.shape, name


@pytest.mark.parametrize("kind", sorted(WIDTH_MODELS))
def test_recorded_power_rows_sum_to_the_march_work(kind):
    # the march adds each node's power row into W in weighted_sum's order,
    # so the recorder's rows summed with the work weights are W bit for
    # bit, NaN in a failed column included; and the hook changes nothing
    model = WIDTH_MODELS[kind]()
    tp = np.array([0.2, FAILS_MID_MARCH[0], -0.7])
    tq = np.array([0.9, FAILS_MID_MARCH[1], 0.4])
    plain = _pseudo_work_batch(model, 0.0, 1.0, tp, tq, 1.0, MARCH_SET)
    out, track = recorded_march(model, 0.0, 1.0, tp, tq, 1.0, MARCH_SET)
    # the quartic march fails the middle start at node 9; the harmonic
    # march solves it to the end
    assert (out["status"][1] == OK) == (kind == "harmonic")
    _, weights = _gauss_legendre_nodes(0.0, 1.0)
    with np.errstate(invalid="ignore"):
        summed = dynamics.weighted_sum(weights, track["power"])
    assert summed.tobytes() == out["W"].tobytes()
    assert plain.keys() == out.keys()
    for name, value in plain.items():
        assert np.asarray(value).tobytes() == \
            np.asarray(out[name]).tobytes(), name


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
    whole, track = recorded_march(model, 0.0, 1.0, tp, tq, 1.0, MARCH_SET)
    assert len(solved) == _WORK_NODES + 2
    assert [FAILS_MID_MARCH in node for node in solved] == [
        j <= 9 for j in range(_WORK_NODES + 2)]
    assert list(whole["status"] != 0) == [False, True, False]
    assert whole["newton_iters"][1] == sum(node[FAILS_MID_MARCH]
                                           for node in solved[:10])
    assert whole["node_solves"] == sum(len(node) for node in solved)
    assert whole["node_solves"] == 10 * 3 + (_WORK_NODES + 2 - 10) * 2
    j = whole["last_node"][1]
    assert j == max(k for k, node in enumerate(solved)
                    if FAILS_MID_MARCH in node)
    assert np.all(np.isnan(track["power"][j:, 1]))
    assert np.isfinite(track["center_p"][j, 1])
    assert np.all(np.isnan(track["center_p"][j + 1:, 1]))

    monkeypatch.undo()
    for i in (0, 2):
        one, one_track = recorded_march(model, 0.0, 1.0, tp[i:i + 1],
                                        tq[i:i + 1], 1.0, MARCH_SET)
        for name in ("W", "W_endpoint", "g_initial", "g_propagated",
                     "status", "last_node", "newton_iters"):
            np.testing.assert_array_equal(one[name][0], whole[name][i],
                                          err_msg=name)
        for name in ("power", "center_p", "center_q", "residual", "check_p",
                     "check_q"):
            np.testing.assert_array_equal(one_track[name][:, 0],
                                          track[name][:, i], err_msg=name)


def test_pseudo_work_reports_the_failing_node():
    # the error names the node where the march stopped the start, with its
    # real residual and |det| there; later nodes record no solve
    model = quartic_ramp()
    with pytest.raises(NewtonDiverged,
                       match=r"at t=0\.793659 \(residual 5\.048e-01, "
                             r"\|det\|="):
        pseudo_work(model, 0.0, 1.0, ComplexPoint(*FAILS_MID_MARCH), 1.0,
                    MARCH_SET)
    out, track = recorded_march(model, 0.0, 1.0,
                                np.array([FAILS_MID_MARCH[0]]),
                                np.array([FAILS_MID_MARCH[1]]), 1.0,
                                MARCH_SET)
    assert out["times"][9] == _gauss_legendre_nodes(0.0, 1.0)[0][9]
    assert track["residual"][9, 0] == pytest.approx(0.505, abs=1e-3)
    assert np.all(np.isfinite(track["det"][:10, 0]))
    assert np.all(np.isnan(track["det"][10:, 0]))


# a start whose cold t_i solve the direct Newton stage leaves DIVERGED
NEEDS_THE_LADDER_AT_T_I = (-4.5, 5.5)


def test_only_the_cold_t_i_solve_climbs_the_ladder(monkeypatch,
                                                  newton_rungs):
    # node 0 is solved from the targets, and the ladder re-solves the start
    # its direct stage loses; every later node is warm-started, so a column
    # its direct stage leaves DIVERGED (FAILS_MID_MARCH at t = 0.794) is
    # final there and no rung is climbed
    solves = []
    original = pseudowork._invert_map_batch

    def recorded(*args, warm_p=None, **kwargs):
        start = len(newton_rungs)
        solve = original(*args, warm_p=warm_p, **kwargs)
        spans = [hb for hb, _ in newton_rungs[start:]]
        solves.append((warm_p is None, solve, spans))
        return solve

    monkeypatch.setattr(pseudowork, "_invert_map_batch", recorded)
    starts = (NEEDS_THE_LADDER_AT_T_I, FAILS_MID_MARCH)
    out = _pseudo_work_batch(quartic_ramp(), 0.0, 1.0,
                             np.array([s[0] for s in starts]),
                             np.array([s[1] for s in starts]), 1.0, MARCH_SET)
    cold, first, spans = solves[0]
    assert cold and np.all(first.status == OK)
    assert spans == [1.0] + [0.5 ** k for k in
                             range(stationary._CONTINUATION_STAGES, -1, -1)]
    assert len(solves) == out["times"].size
    for warm, solve, spans in solves[1:]:
        assert not warm and spans == [1.0]
    assert solves[9][1].status.tolist() == [OK, DIVERGED]
    assert out["status"].tolist() == [OK, DIVERGED]


def test_pseudo_power_refuses_a_batch_of_arcs(monkeypatch):
    # three columns of one solve hold three different powers; the scalar
    # view takes only a width-1 arc, and each column's own width-1 solve
    # gives that column's power.  A linear arc records its path only when
    # it is read, and neither the width check nor the power reads it
    def formed(*args):
        raise AssertionError("a linear arc's path was recorded")

    monkeypatch.setattr(dynamics, "_recorder", formed)
    model = harmonic_ramp(t_f=0.5)
    tp, tq = np.array([0.0, 1.0, 2.5]), np.array([1.0, -1.5, 2.0])
    solve = _invert_map_batch(model, 0.0, 0.5, tp, tq, 1.0, MARCH_SET)
    assert np.all(solve.status == OK)
    with pytest.raises(ValueError, match="one arc, got 3"):
        pseudo_power(solve.arcs)
    power = _pseudo_power_batch(solve.arcs)
    assert np.unique(power).size == 3
    for k in range(3):
        one = solve_pseudo_state(model, 0.0, 0.5, ComplexPoint(tp[k], tq[k]),
                                 1.0, MARCH_SET)
        assert pseudo_power(one.arc) == power[k]


def test_scalar_power_and_prefactor_read_the_arc():
    # pseudo_power takes the frozen time and the span from the arc, and
    # build_arc integrates the plus half and its monodromy afresh: on the
    # march's own centers they reproduce the batch's power at every node
    # and its t_i prefactor (from the solve's M_+), bitwise
    model = quartic_ramp()
    out, track = recorded_march(model, 0.0, 1.0, np.array([0.3]),
                                np.array([0.9]), 0.8, MARCH_SET)
    for j, tj in enumerate(out["times"]):
        arc = build_arc(model, tj, ComplexPoint(track["center_p"][j, 0],
                                                track["center_q"][j, 0]),
                        0.8, MARCH_SET)
        assert arc.t == tj and arc.hbar_beta == 0.8
        assert pseudo_power(arc) == track["power"][j, 0], j
        if j == 0:
            assert arc.prefactor[0] == out["prefactor_initial"][0]


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
    degree = 2 * _WORK_NODES - 1
    f = times ** degree - 2.0 * times ** 5
    exact = ((1.5 ** (degree + 1) - 0.25 ** (degree + 1)) / (degree + 1)
             - (1.5 ** 6 - 0.25 ** 6) / 3)
    assert np.sum(weights * f) == pytest.approx(exact, rel=1e-13)


@pytest.mark.parametrize("kind, lam, p_max, q_max, hbar_beta", [
    ("harmonic", 0.0, 3.0, 3.0, 1.0),
    ("quartic", 0.1, 3.0, 2.0, 0.5),
], ids=["harmonic", "quartic"])
def test_work_rule_is_converged(monkeypatch, kind, lam, p_max, q_max,
                                hbar_beta):
    # the shipped rule's W on a 4x4 grid of starts lies within 1e-8 of a
    # 32-node rule's (1.7e-10 harmonic, 8.6e-10 quartic at 12 nodes): more
    # nodes would add solves and no accuracy
    model = ramped_model(kind, omega_i=1.0, omega_f=2.0, quartic_lambda=lam)
    settings = IntegratorSettings(n_sigma_steps=64, n_time_steps=64)
    P, Q, _ = QuadratureDomain(p_max, q_max, 4, 4).nodes()
    shipped = _pseudo_work_batch(model, 0.0, 1.0, P, Q, hbar_beta, settings)
    monkeypatch.setattr(pseudowork, "_WORK_NODES", 32)
    fine = _pseudo_work_batch(model, 0.0, 1.0, P, Q, hbar_beta, settings)
    assert shipped["times"].size == _WORK_NODES + 2 < fine["times"].size
    assert np.all(shipped["status"] == OK) and np.all(fine["status"] == OK)
    assert np.max(np.abs(shipped["W"] - fine["W"])) <= 1e-8


@pytest.mark.parametrize("kind, lam", [("harmonic", 0.0), ("quartic", 0.1)])
def test_gauss_legendre_work_matches_endpoint(kind, lam):
    # criterion 5 for the identity's Gauss-Legendre rule, on 10 bulk starts
    model = ramped_model(kind, omega_i=1.0, omega_f=2.0, quartic_lambda=lam)
    settings = IntegratorSettings(n_sigma_steps=96, n_time_steps=64)
    tp, tq = np.random.default_rng(17).uniform(-1.2, 1.2, size=(2, 10))
    out = _pseudo_work_batch(model, 0.0, 1.0, tp, tq, 1.0, settings)
    assert np.all(out["status"] == 0)
    assert out["times"].size == _WORK_NODES + 2
    w, w_end = out["W"], out["W_endpoint"]
    assert np.all(np.abs(w - w_end) <= 1e-6 * (1.0 + np.abs(w)))


@pytest.mark.parametrize("kind, lam", [("harmonic", 0.0), ("quartic", 0.1)])
def test_pseudo_work_is_one_column_of_the_identity_march(kind, lam):
    # pseudo_work (and scjarz work) march the identity's nodes with its
    # rule, and a column's march does not depend on its batch: at each
    # node of a phase-space grid, the single-start work is bit for bit
    # that column of the identity's march of the grid, the half of it
    # filled from partners included
    model = ramped_model(kind, omega_i=1.0, omega_f=2.0, quartic_lambda=lam)
    P, Q, _ = QuadratureDomain(p_max=2.0, q_max=2.0, n_p=4, n_q=4).nodes()
    whole, _ = _mirrored_march(model, 0.0, 1.0, P, Q, 1.0, MARCH_SET)
    assert np.all(whole["status"] == OK)
    for k in range(P.size):
        res = pseudo_work(model, 0.0, 1.0, ComplexPoint(P[k], Q[k]), 1.0,
                          MARCH_SET, work_tol=math.inf)
        assert res.W == whole["W"][k], k
        assert res.W_endpoint == whole["W_endpoint"][k], k
        assert np.array_equal(res.trajectory.times, whole["times"])


def test_zero_length_window_marches_on_the_last_center():
    # t_f == t_i marches the single node t_i, once per start, and does no
    # work
    model = ramped_model("harmonic", omega_i=1.0, omega_f=1.0,
                         shape="constant", t_f=0.0)
    tp, tq = np.array([0.3, -0.8]), np.array([0.5, 1.1])
    first = _invert_map_batch(model, 0.0, 0.0, tp, tq, 1.0, MARCH_SET)
    out = _pseudo_work_batch(model, 0.0, 0.0, tp, tq, 1.0, MARCH_SET)
    assert out["node_solves"] == tp.size
    assert out["times"].size == 1
    assert np.all(out["status"] == 0)
    np.testing.assert_array_equal(out["newton_iters"], first.iters)
    assert np.all(out["W"] == 0.0)
    assert np.all(np.abs(out["W_endpoint"]) < 1e-9)


def test_one_ulp_window_marches_repeated_node_times():
    # a ramp over one ulp collapses the _WORK_NODES + 2 march times to t_i
    # and t_f; each repeated time replaces its twin in the predictor's
    # history, so no extrapolation divides by a zero node spacing.  The
    # march still finishes, but Gauss-Legendre nodes on two distinct
    # times cannot integrate the sudden quench's power, and the
    # path/endpoint gate refuses the work
    t_i = 1.0
    t_f = math.nextafter(t_i, 2.0)
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0, t_i=t_i,
                         t_f=t_f, quartic_lambda=0.1)
    tp, tq = np.array([0.3, -0.8]), np.array([0.5, 1.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        out = _pseudo_work_batch(model, t_i, t_f, tp, tq, 1.0, MARCH_SET)
    assert np.unique(out["times"]).tolist() == [t_i, t_f]
    assert out["node_solves"] == (_WORK_NODES + 2) * tp.size
    assert np.all(out["status"] == OK)
    assert np.all(np.isfinite(out["W"]))
    with pytest.raises(WorkMismatch, match=r"differ by 1\.018e-02 > "):
        pseudo_work(model, t_i, t_f, ComplexPoint(0.3, 0.5), 1.0, MARCH_SET)


@pytest.mark.parametrize("work_tol", [None, math.inf])
def test_subnormal_window_nan_work_fails_closed(work_tol):
    # a ramp over [0, 5e-324] makes the drive's rate overflow, so the power
    # at t_i is not finite.  The column fails there, NON_FINITE, and the
    # march stops it, so no tolerance, not even an infinite one, is asked
    # about a NaN work: pseudo_work names t_i
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0, t_i=0.0,
                         t_f=5e-324, quartic_lambda=0.1)
    out = _pseudo_work_batch(model, 0.0, 5e-324, np.array([0.0]),
                             np.array([1.0]), 1.0, MARCH_SET)
    with pytest.raises(IntegratorDiverged,
                       match=r"^non-finite power or work at t=0 "):
        pseudo_work(model, 0.0, 5e-324, ComplexPoint(0.0, 1.0), 1.0,
                    MARCH_SET, work_tol=work_tol)
    assert out["status"].tolist() == [NON_FINITE]
    assert out["node_solves"] == 1
    assert out["last_node"].tolist() == [0]


def test_overflowing_harmonic_start_fails_without_a_warning():
    # at p = 1e155 the harmonic solve succeeds, but the power, G and the
    # arc sums at t_i overflow; the march reads them quietly and fails the
    # column NON_FINITE there, so even with RuntimeWarning an error the
    # failure is IntegratorDiverged naming t=0
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(IntegratorDiverged,
                           match=r"^non-finite power or work at t=0 "):
            pseudo_work(harmonic_ramp(), 0.0, 1.0, ComplexPoint(1e155, 0.0),
                        1.0, IntegratorSettings(16, 8))


def test_non_finite_work_fails_at_t_f(monkeypatch):
    # every power finite, but an infinite work weight makes W infinite: the
    # column is NON_FINITE at t_f, and pseudo_work names t_f
    def infinite_weight(t_i, t_f):
        times, weights = _gauss_legendre_nodes(t_i, t_f)
        weights[1] = math.inf
        return times, weights

    monkeypatch.setattr(pseudowork, "_gauss_legendre_nodes", infinite_weight)
    model = quartic_ramp()
    out, track = recorded_march(model, 0.0, 1.0, np.array([0.3]),
                                np.array([0.9]), 1.0, MARCH_SET)
    assert np.all(np.isfinite(track["power"]))
    assert out["status"].tolist() == [NON_FINITE]
    assert out["last_node"].tolist() == [_WORK_NODES + 1]
    with pytest.raises(IntegratorDiverged,
                       match=r"^non-finite power or work at t=1 "):
        pseudo_work(model, 0.0, 1.0, ComplexPoint(0.3, 0.9), 1.0, MARCH_SET)
