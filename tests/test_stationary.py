import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scjarz.dynamics import IntegratorSettings
from scjarz.errors import NewtonDiverged
from scjarz.models import ComplexPoint, harmonic_model, ramped_model
from scjarz.pseudowork import composite_map, solve_pseudo_state
from scjarz.stationary import (CAUSTIC, DIVERGED, OK, _invert_map_batch,
                               _newton_stage, _pseudo_hamiltonian_batch,
                               endpoint_action_prefactor, pseudo_hamiltonian)

SET = IntegratorSettings(n_sigma_steps=128)


def quartic(lam=0.1, omega=1.0):
    return ramped_model("quartic", omega_i=omega, omega_f=omega,
                        shape="constant", quartic_lambda=lam)


def test_midpoint_map_harmonic_is_cosh_scaling():
    model = harmonic_model(mass=1.0, omega=1.0)
    hb = 0.8
    z = ComplexPoint(1.2, -0.7)
    out = composite_map(model, 0.0, 0.0, z, hb, SET)
    c = np.cosh(hb / 2)
    assert out.p == pytest.approx(1.2 * c, abs=1e-11)
    assert out.q == pytest.approx(-0.7 * c, abs=1e-11)


def test_midpoint_map_small_span_is_identity():
    model = quartic(0.3)
    z = ComplexPoint(0.5, 0.4)
    out = composite_map(model, 0.0, 0.0, z, 1e-7, SET)
    assert out.p == pytest.approx(0.5, abs=1e-9)
    assert out.q == pytest.approx(0.4, abs=1e-9)


def test_midpoint_map_fixes_stationary_point():
    for hb in (0.5, 1.0, 2.0):
        out = composite_map(harmonic_model(), 0.0, 0.0,
                            ComplexPoint(0.0, 0.0), hb, SET)
        assert abs(out.p) < 1e-13 and abs(out.q) < 1e-13


def test_invert_midpoint_harmonic_closed_form():
    model = harmonic_model()
    hb = 1.0
    target = ComplexPoint(0.9, -1.1)
    solve = solve_pseudo_state(model, 0.0, 0.0, target, hb, SET)
    c = np.cosh(hb / 2)
    assert solve.z_c.p == pytest.approx(0.9 / c, abs=1e-10)
    assert solve.z_c.q == pytest.approx(-1.1 / c, abs=1e-10)
    assert solve.jacobian_det == pytest.approx(c * c, rel=1e-6)
    assert solve.residual <= SET.newton_tol
    # chord midpoint reproduces the target
    mid = solve.arc.chord_midpoint
    assert mid.p.real == pytest.approx(0.9, abs=1e-10)
    assert mid.q.real == pytest.approx(-1.1, abs=1e-10)


def test_invert_midpoint_small_span_returns_target():
    solve = solve_pseudo_state(quartic(0.2), 0.0, 0.0,
                               ComplexPoint(0.3, 0.7), 1e-7, SET)
    assert solve.z_c.p == pytest.approx(0.3, abs=1e-8)
    assert solve.z_c.q == pytest.approx(0.7, abs=1e-8)


def test_invert_midpoint_quartic_residual():
    solve = solve_pseudo_state(quartic(0.1), 0.0, 0.0,
                               ComplexPoint(0.3, 0.7), 0.5, SET)
    mid = solve.arc.chord_midpoint
    assert abs(mid.p.real - 0.3) < 1e-9
    assert abs(mid.q.real - 0.7) < 1e-9
    assert abs(mid.p.imag) < 1e-9 and abs(mid.q.imag) < 1e-9


def test_invert_midpoint_warm_start_converges_faster():
    model = quartic(0.15)
    target = ComplexPoint(0.4, 1.1)
    cold = solve_pseudo_state(model, 0.0, 0.0, target, 1.0, SET)
    warm = solve_pseudo_state(model, 0.0, 0.0, target, 1.0, SET,
                              warm_start=cold.z_c)
    assert warm.newton_iters <= cold.newton_iters
    assert warm.z_c.p == pytest.approx(cold.z_c.p, abs=1e-9)


def test_pseudo_hamiltonian_harmonic_value():
    # G = (2/(beta hbar w)) tanh(beta hbar w / 2) H; at beta=hbar=1,
    # (p,q)=(1,1): 2 tanh(1/2) = 0.92423431451...
    val = pseudo_hamiltonian(harmonic_model(), 0.0, ComplexPoint(1.0, 1.0),
                             1.0, SET)
    assert val.G == pytest.approx(2.0 * np.tanh(0.5), abs=1e-10)
    assert val.G_from_total_action == pytest.approx(val.G, abs=1e-10)
    assert val.imag_residual < 1e-12
    assert val.prefactor is None


def test_pseudo_hamiltonian_at_origin_vanishes():
    val = pseudo_hamiltonian(harmonic_model(), 0.0, ComplexPoint(0.0, 0.0),
                             1.0, SET)
    assert abs(val.G) < 1e-13


def test_pseudo_hamiltonian_classical_limit_quadratic_order():
    model = harmonic_model()
    target = ComplexPoint(0.8, 0.6)
    h_val = model.value(0.0, target.p, target.q).real
    errs = []
    for hb in (0.2, 0.1, 0.05, 0.025):
        val = pseudo_hamiltonian(model, 0.0, target, hb, SET)
        errs.append(abs(val.G - h_val))
    orders = [np.log2(errs[k] / errs[k + 1]) for k in range(3)]
    assert all(o > 1.9 for o in orders)


def test_pseudo_hamiltonian_exact_on_quadratics_sample():
    # small sample of the acceptance sweep: stationary phase is exact
    grid = np.linspace(-2.0, 2.0, 5)
    for (beta, hbar, omega, m) in itertools.product((0.5, 2.0), (1.0,),
                                                    (0.5, 2.0), (0.5, 2.0)):
        model = harmonic_model(mass=m, omega=omega)
        hb = beta * hbar
        n_sig = max(64, int(np.ceil(120 * omega * hb / 2)))
        settings = IntegratorSettings(n_sigma_steps=n_sig)
        tp, tq = np.meshgrid(grid, grid, indexing="ij")
        tp, tq = tp.ravel(), tq.ravel()
        solve, arcs, g, g_fta, _ = _pseudo_hamiltonian_batch(
            model, 0.0, tp, tq, hb, settings)
        assert np.all(solve.status == OK)
        h_vals = tp**2 / (2 * m) + 0.5 * m * omega**2 * tq**2
        b = hb * omega / 2
        g_exact = np.tanh(b) / b * h_vals
        err = np.max(np.abs(g - g_exact) / (1.0 + np.abs(h_vals)))
        assert err <= 1e-8


def test_two_evaluation_consistency_quartic():
    model = quartic(0.2)
    rng = np.random.default_rng(5)
    tp = rng.uniform(-1.0, 1.0, 12)
    tq = rng.uniform(-1.0, 1.0, 12)
    solve, arcs, g, g_fta, imag = _pseudo_hamiltonian_batch(
        model, 0.0, tp, tq, 1.0, SET)
    assert np.all(solve.status == OK)
    np.testing.assert_allclose(g, g_fta, atol=10 * SET.newton_tol)
    assert np.max(imag) < 1e-10


def test_prefactor_matches_harmonic_closed_form():
    # N = 1 / (2 pi hbar cosh(beta hbar w / 2)) within 1e-4
    hbar = 1.0
    model = harmonic_model()
    for (p, q) in [(0.0, 0.0), (1.0, 0.5), (-0.7, 1.2), (2.0, -1.0),
                   (0.3, 0.3)]:
        val = pseudo_hamiltonian(model, 0.0, ComplexPoint(p, q), 1.0, SET,
                                 with_prefactor=True)
        n_exact = 1.0 / (2 * np.pi * hbar * np.cosh(0.5))
        n_got = val.prefactor / (2 * np.pi * hbar)
        assert abs(n_got - n_exact) < 1e-4 * n_exact


def test_prefactor_quartic_regression():
    # geometric prefactors from second differences of the shot endpoint
    # action S(q0, q1) (step 1e-3), the construction the monodromy trace
    # replaced; quartic_ramp physics at t_i, hbar*beta = 0.5
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    settings = IntegratorSettings(n_sigma_steps=64)
    for (p, q), reference in (((0.0, 0.0), 0.9695436244502248),
                              ((1.5, -0.5), 0.9626215668527276),
                              ((-2.0, 2.5), 0.8026335171126815)):
        val = pseudo_hamiltonian(model, 0.0, ComplexPoint(p, q), 0.5,
                                 settings, with_prefactor=True)
        assert val.prefactor == pytest.approx(reference, rel=1e-6)


def test_continuation_trace_is_monotone():
    # a target the direct solve loses, so the ladder engages on its own;
    # the accepted-stage residuals must then be tame
    model = quartic(0.4)
    settings = IntegratorSettings(n_sigma_steps=96, continuation_stages=4,
                                  newton_tol=1e-11)
    tp = np.array([-2.0])
    tq = np.array([-2.5])

    direct = _invert_map_batch(
        model, 0.0, 0.0, tp, tq, 1.5,
        IntegratorSettings(n_sigma_steps=96, continuation_stages=0,
                           newton_tol=1e-11))
    assert direct.status[0] == DIVERGED
    assert direct.stage_residuals == []

    solve = _invert_map_batch(model, 0.0, 0.0, tp, tq, 1.5, settings)
    assert solve.status[0] == OK
    trace = solve.stage_residuals
    assert len(trace) == settings.continuation_stages + 1
    assert max(trace) <= settings.newton_tol
    # every accepted stage converged; the path never worsens between stages
    for r_prev, r_next in zip(trace, trace[1:]):
        assert r_next <= max(r_prev, settings.newton_tol * 1.001)


def test_caustic_floor_raises():
    # synthetic fold: map (p, q) -> (p^3, q) has the Jacobian diag(3 p^2, 1),
    # degenerate at p = 0; starting on the fold (det 3e-12) triggers the
    # caustic guard
    settings = IntegratorSettings(newton_tol=1e-13, continuation_stages=0)

    def fold_map(P, Q):
        jac = np.zeros((2, 2) + P.shape)
        jac[0, 0], jac[1, 1] = 3.0 * P**2, 1.0
        return P**3, Q.copy(), jac

    gp = np.array([1e-6])
    gq = np.array([0.0])
    _, _, _, _, _, status = _newton_stage(
        fold_map, np.array([-1e-3]), np.array([0.0]), gp, gq, settings)
    assert status[0] == CAUSTIC
    # a start that already solves the fold gets the same verdict, with
    # the determinant of its first evaluation reported
    _, _, det, iters, _, status = _newton_stage(
        fold_map, np.array([0.0]), np.array([0.0]), np.array([0.0]),
        np.array([0.0]), settings)
    assert iters[0] == 0 and det[0] == 0.0 and status[0] == CAUSTIC


def test_jacobian_det_reported_at_first_evaluation():
    # the origin is its own midpoint, so it converges without a Newton step;
    # q = 0 all along the arc makes its monodromy harmonic, cosh(hb/2) I
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    settings = IntegratorSettings(n_sigma_steps=64)
    tp = np.array([0.0, 0.01, 0.0])
    tq = np.array([0.0, 0.0, 0.01])
    solve = _invert_map_batch(model, 0.0, 0.0, tp, tq, 0.5, settings)
    assert np.all(solve.status == OK)
    assert solve.iters[0] == 0
    assert solve.det[0] == pytest.approx(np.cosh(0.25) ** 2, rel=1e-9)
    np.testing.assert_allclose(solve.det[1:], solve.det[0], rtol=1e-3)


_OFF_ORIGIN = st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)).filter(
    lambda z: z[0] * z[0] + z[1] * z[1] >= 0.25)


@settings(max_examples=10, deadline=None)
@given(st.lists(_OFF_ORIGIN, min_size=1, max_size=20))
def test_pseudo_hamiltonian_classical_limit_is_second_order(points):
    # G -> H as hbar*beta -> 0 at second order, from below, at every point
    # away from the origin (where G = H = 0)
    tp = np.array([z[0] for z in points])
    tq = np.array([z[1] for z in points])
    for model in (harmonic_model(), quartic(0.1)):
        h = model.value(0.0, tp, tq).real
        errs = []
        for hb in (0.2, 0.1, 0.05, 0.025):
            solve, _, g, _, _ = _pseudo_hamiltonian_batch(model, 0.0, tp, tq,
                                                          hb, SET)
            assert np.all(solve.status == OK)
            assert np.all(g < h)
            errs.append(h - g)
        for k in range(3):
            orders = np.log2(errs[k] / errs[k + 1])
            assert np.all(orders >= 1.9), (model.kind, k, orders)


def test_endpoint_action_prefactor_rejects_foreign_span():
    model = harmonic_model()
    val = pseudo_hamiltonian(model, 0.0, ComplexPoint(0.4, -0.3), 1.0, SET,
                             with_prefactor=True)
    geom = endpoint_action_prefactor(model, val.arc, SET)
    assert geom == val.prefactor


def test_beyond_image_target_diverges():
    # quartic arcs at large hbar*beta blow up through finite-time poles, so
    # the midpoint map has a bounded image; far targets must stall cleanly
    model = quartic(0.1)
    settings = IntegratorSettings(n_sigma_steps=192, continuation_stages=2,
                                  newton_max_iter=25)
    with pytest.raises(NewtonDiverged):
        solve_pseudo_state(model, 0.0, 0.0, ComplexPoint(0.0, 50.0), 6.0,
                           settings)


def test_non_real_target_rejected():
    with pytest.raises(ValueError):
        solve_pseudo_state(harmonic_model(), 0.0, 0.0, ComplexPoint(1j, 0.0),
                           1.0, SET)
