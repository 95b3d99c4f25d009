import functools
import itertools
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scjarz import stationary
from scjarz.dynamics import (DEFAULT_SETTINGS, ImaginaryArc,
                             IntegratorSettings, _real_step_count, build_arc)
from scjarz.errors import NewtonDiverged, ToleranceExceeded
from scjarz.models import ComplexPoint, harmonic_model, ramped_model
from scjarz.pseudowork import (_pseudo_power_batch, composite_map, pseudo_work,
                               solve_pseudo_state)
from scjarz.stationary import (_CONTINUATION_STAGES, _NEWTON_TOL, CAUSTIC,
                               DIVERGED, OK, _composite_map_batch,
                               _invert_map_batch, _newton_stage,
                               _propagated_g_batch, _pseudo_hamiltonian_batch,
                               pseudo_hamiltonian)

SET = IntegratorSettings(n_sigma_steps=128)


def quartic(lam=0.1, omega=1.0):
    return ramped_model("quartic", omega_i=omega, omega_f=omega,
                        shape="constant", quartic_lambda=lam)


def direct_stage_status(model, t_f, tp, tq, hbar_beta, settings):
    """Status of a cold nonlinear solve's first Newton stage, from the
    targets at the full span, before any continuation rung."""
    stage_map = functools.partial(_composite_map_batch, model, 0.0, t_f,
                                  hbar_beta=hbar_beta, settings=settings)
    return _newton_stage(stage_map, tp, tq, tp, tq)[5]


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
    assert solve.residual <= _NEWTON_TOL
    # chord midpoint reproduces the target
    assert solve.arc.mid_p[0].real == pytest.approx(0.9, abs=1e-10)
    assert solve.arc.mid_q[0].real == pytest.approx(-1.1, abs=1e-10)


def test_invert_midpoint_small_span_returns_target():
    solve = solve_pseudo_state(quartic(0.2), 0.0, 0.0,
                               ComplexPoint(0.3, 0.7), 1e-7, SET)
    assert solve.z_c.p == pytest.approx(0.3, abs=1e-8)
    assert solve.z_c.q == pytest.approx(0.7, abs=1e-8)


def test_invert_midpoint_quartic_residual():
    solve = solve_pseudo_state(quartic(0.1), 0.0, 0.0,
                               ComplexPoint(0.3, 0.7), 0.5, SET)
    mid_p, mid_q = solve.arc.mid_p[0], solve.arc.mid_q[0]
    assert abs(mid_p.real - 0.3) < 1e-9
    assert abs(mid_q.real - 0.7) < 1e-9
    assert abs(mid_p.imag) < 1e-9 and abs(mid_q.imag) < 1e-9


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
        solve, g, g_fta = _pseudo_hamiltonian_batch(
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
    solve, g, g_fta = _pseudo_hamiltonian_batch(
        model, 0.0, tp, tq, 1.0, SET)
    assert np.all(solve.status == OK)
    np.testing.assert_allclose(g, g_fta, atol=10 * _NEWTON_TOL)


def test_prefactor_matches_harmonic_closed_form():
    # N = 1 / (2 pi hbar cosh(beta hbar w / 2)) within 1e-4
    hbar = 1.0
    model = harmonic_model()
    for (p, q) in [(0.0, 0.0), (1.0, 0.5), (-0.7, 1.2), (2.0, -1.0),
                   (0.3, 0.3)]:
        val = pseudo_hamiltonian(model, 0.0, ComplexPoint(p, q), 1.0, SET)
        n_exact = 1.0 / (2 * np.pi * hbar * np.cosh(0.5))
        n_got = val.arc.prefactor[0] / (2 * np.pi * hbar)
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
                                 settings)
        assert val.arc.prefactor[0] == pytest.approx(reference, rel=1e-6)


def test_continuation_trace_is_monotone(newton_rungs):
    # a target the direct solve loses, so the ladder engages on its own;
    # its rungs double the span up to hbar*beta, and the accepted-stage
    # residuals must then be tame
    model = quartic(0.4)
    settings = IntegratorSettings(n_sigma_steps=96)
    tp = np.array([-2.0])
    tq = np.array([-2.5])

    assert direct_stage_status(model, 0.0, tp, tq, 1.5,
                               settings).tolist() == [DIVERGED]
    solve = _invert_map_batch(model, 0.0, 0.0, tp, tq, 1.5, settings)
    assert solve.status[0] == OK
    assert [hb for hb, _ in newton_rungs] == [1.5] + [
        0.5 ** k * 1.5 for k in range(_CONTINUATION_STAGES, -1, -1)]
    assert newton_rungs[0][1] > _NEWTON_TOL
    trace = [res for _, res in newton_rungs[1:]]
    assert max(trace) <= _NEWTON_TOL
    # every accepted stage converged; the path never worsens between stages
    for r_prev, r_next in zip(trace, trace[1:]):
        assert r_next <= max(r_prev, _NEWTON_TOL * 1.001)


def test_caustic_floor_raises(monkeypatch):
    # synthetic fold: map (p, q) -> (p^3, q) has the Jacobian diag(3 p^2, 1),
    # degenerate at p = 0; starting on the fold (det 3e-12) triggers the
    # caustic guard
    monkeypatch.setattr(stationary, "_NEWTON_TOL", 1e-13)

    def fold_map(P, Q):
        jac = np.zeros((2, 2) + P.shape)
        jac[0, 0], jac[1, 1] = 3.0 * P**2, 1.0
        return P**3, Q.copy(), jac, (P[None] + 0j, Q[None] + 0j)

    gp = np.array([1e-6])
    gq = np.array([0.0])
    _, _, _, _, _, status, _ = _newton_stage(
        fold_map, np.array([-1e-3]), np.array([0.0]), gp, gq)
    assert status[0] == CAUSTIC
    # a start that already solves the fold gets the same verdict, with
    # the determinant of its first evaluation reported
    _, _, det, iters, _, status, _ = _newton_stage(
        fold_map, np.array([0.0]), np.array([0.0]), np.array([0.0]),
        np.array([0.0]))
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
            solve, g, _ = _pseudo_hamiltonian_batch(model, 0.0, tp, tq,
                                                       hb, SET)
            assert np.all(solve.status == OK)
            assert np.all(g < h)
            errs.append(h - g)
        for k in range(3):
            orders = np.log2(errs[k] / errs[k + 1])
            assert np.all(orders >= 1.9), (model.kind, k, orders)


def test_prefactor_is_the_arcs_own_at_its_step_count():
    # an arc solved at 8 sigma steps (9 stored plus-half samples) carries
    # the prefactor of its own 8-step monodromy, 0.26581929 (256 steps
    # would give 0.26580223), bitwise the one build_arc integrates afresh
    model = harmonic_model(omega=2.0)
    coarse = IntegratorSettings(n_sigma_steps=8)
    val = pseudo_hamiltonian(model, 0.0, ComplexPoint(0.4, -0.3), 2.0, coarse)
    assert val.arc.sigma.size == 9
    assert val.arc.prefactor[0] == pytest.approx(0.26581929, abs=1e-8)
    fresh = build_arc(model, 0.0, val.z_c, 2.0, coarse)
    assert fresh.prefactor.tobytes() == val.arc.prefactor.tobytes()


@pytest.mark.parametrize("t_f", [0.0, 0.4])
def test_scalar_views_hand_over_the_solves_own_arc(t_f):
    # pseudo_hamiltonian and solve_pseudo_state return the width-1 arc of
    # their solve, not a copy or a rebuild: its samples, sums and the
    # prefactor from the solve's M_+ are bitwise the batch functions'
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    settings = IntegratorSettings(n_sigma_steps=16, n_time_steps=16)
    target = ComplexPoint(0.8, -1.3)
    tp, tq = np.array([0.8]), np.array([-1.3])
    views = [solve_pseudo_state(model, 0.0, t_f, target, 1.5, settings).arc]
    batches = [_invert_map_batch(model, 0.0, t_f, tp, tq, 1.5,
                                 settings).arcs]
    if t_f == 0.0:
        views.append(pseudo_hamiltonian(model, 0.0, target, 1.5,
                                        settings).arc)
        batches.append(_pseudo_hamiltonian_batch(model, 0.0, tp, tq, 1.5,
                                                 settings)[0].arcs)
    for view, batch in zip(views, batches):
        assert isinstance(view, ImaginaryArc) and view.p.shape == (17, 1)
        assert view.t == t_f and view.hbar_beta == 1.5
        for name in ("p", "q", "action", "area", "prefactor"):
            assert (getattr(view, name).tobytes()
                    == getattr(batch, name).tobytes()), name


def test_beyond_image_target_diverges(monkeypatch):
    # quartic arcs at large hbar*beta blow up through finite-time poles, so
    # the midpoint map has a bounded image; far targets must stall cleanly
    # (a ladder from hbar*beta / 4 keeps the failing solve short)
    monkeypatch.setattr(stationary, "_CONTINUATION_STAGES", 2)
    model = quartic(0.1)
    settings = IntegratorSettings(n_sigma_steps=192)
    with pytest.raises(NewtonDiverged):
        solve_pseudo_state(model, 0.0, 0.0, ComplexPoint(0.0, 50.0), 6.0,
                           settings)


_SCALAR_VIEWS = {
    "pseudo_hamiltonian": lambda z: pseudo_hamiltonian(
        harmonic_model(), 0.0, z, 1.0, SET),
    "solve_pseudo_state": lambda z: solve_pseudo_state(
        harmonic_model(), 0.0, 0.0, z, 1.0, SET),
    "solve_pseudo_state-warm_start": lambda z: solve_pseudo_state(
        quartic(), 0.0, 0.0, ComplexPoint(0.7, 1.0), 1.0, SET, warm_start=z),
    "composite_map": lambda z: composite_map(
        harmonic_model(), 0.0, 0.4, z, 1.0, SET),
    "pseudo_work": lambda z: pseudo_work(
        ramped_model("harmonic", omega_i=1.0, omega_f=2.0), 0.0, 1.0, z,
        1.0, SET),
}


@pytest.mark.parametrize("view", sorted(_SCALAR_VIEWS))
def test_non_real_target_rejected(view):
    # every width-1 view solves or maps real points only; an imaginary
    # part in either coordinate is refused, not dropped
    for z in (ComplexPoint(0.7j, 1.0), ComplexPoint(0.7, 1.0 + 1e-300j)):
        with pytest.raises(ValueError, match="expected a real phase-space"):
            _SCALAR_VIEWS[view](z)


@pytest.mark.parametrize("t_f, half_width, n_grid, hbar_beta, hard", [
    (0.0, 6.0, 7, 3.0, True), (0.3, 6.0, 5, 3.0, True),
    (0.6, 2.0, 4, 1.0, False)])
def test_arcs_from_the_solve_match_a_fresh_integration(t_f, half_width, n_grid,
                                                       hbar_beta, hard):
    # every OK column's arc, assembled from the half-flow that its last
    # accepted map evaluation ran, is bitwise the arc build_arc integrates
    # afresh from the solved center, and so is its prefactor, read from
    # that half-flow's monodromy.  At hbar*beta = 3 on [-6, 6]^2 some
    # columns converge only along the continuation ladder and some fail;
    # on the easy grid (without the origin, which converges at once) every
    # column converges without it, so whole trials are accepted.  The arc's
    # state path is stepped once more from the solved centers, state row
    # only, and must be the tangent run's row 0
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    settings = IntegratorSettings(n_sigma_steps=16, n_time_steps=16)
    grid = np.linspace(-half_width, half_width, n_grid)
    tp, tq = (a.ravel() for a in np.meshgrid(grid, grid))
    solve = _invert_map_batch(model, 0.0, t_f, tp, tq, hbar_beta, settings)
    direct = direct_stage_status(model, t_f, tp, tq, hbar_beta, settings)
    ok = solve.status == OK
    assert np.any(ok & (direct == DIVERGED)) == hard
    assert np.all(ok) != hard
    arcs = solve.arcs
    # an arc's center is its plus half's first sample: the solved center
    assert arcs.center_p.tobytes() == solve.zc_p[ok].astype(complex).tobytes()
    assert arcs.center_q.tobytes() == solve.zc_q[ok].astype(complex).tobytes()
    for k, i in enumerate(np.flatnonzero(ok)):
        ref = build_arc(model, t_f, ComplexPoint(solve.zc_p[i], solve.zc_q[i]),
                        hbar_beta, settings)
        assert arcs.p[:, k].tobytes() == ref.p[:, 0].tobytes(), i
        assert arcs.q[:, k].tobytes() == ref.q[:, 0].tobytes(), i
        assert arcs.action[k] == ref.action[0], i
        assert arcs.area[k] == ref.area[0], i
        assert arcs.prefactor[k] == ref.prefactor[0], i


def test_newton_trials_store_no_path(kernel_runs):
    # a trial keeps its half-flow's endpoints and monodromy only: no
    # tangent (3-row) run hands its samples to a hook, and the solve runs
    # none with a hook at all.  Reading the arcs' p dq and power then
    # makes exactly one run, state row only, at the OK columns' width,
    # whose hook sums as it steps and records no path.  Cold at
    # t_f = t_i on the hard grid (some columns climb the ladder, some
    # fail), then warm from its centers with the real-time leg to
    # t_f = 0.4
    calls = kernel_runs
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    settings = IntegratorSettings(n_sigma_steps=16, n_time_steps=16)
    grid = np.linspace(-6.0, 6.0, 7)
    tp, tq = (a.ravel() for a in np.meshgrid(grid, grid))
    cold = _invert_map_batch(model, 0.0, 0.0, tp, tq, 3.0, settings)
    ok = cold.status == OK
    assert 0 < np.count_nonzero(ok) < tp.size
    solves = [(cold, calls[:])]
    calls.clear()
    warm = _invert_map_batch(model, 0.0, 0.4, tp[ok], tq[ok], 3.0, settings,
                             warm_p=cold.zc_p[ok], warm_q=cold.zc_q[ok])
    solves.append((warm, calls[:]))
    for solve, runs in solves:
        assert any(shape[0] == 3 for shape, _ in runs)
        assert all(hook is None for _, hook in runs)
        calls.clear()
        solve.arcs.pdq
        _pseudo_power_batch(solve.arcs)
        width = np.count_nonzero(solve.status == OK)
        assert calls == [((1, width), False)]


def test_a_static_solve_holds_about_one_state_path():
    # the solve's trials write no path, and the arcs' p dq sums as their
    # one state run steps: G over a 41x41 grid of the quartic_ramp
    # domain, with the arcs' p dq read, peaks at 0.48 state path sets of
    # traced numpy memory (1.21 when the arcs stored their path and
    # reduced it row by row, 3.39 when each trial stored its path)
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    settings = IntegratorSettings(n_sigma_steps=64, n_time_steps=64)
    P, Q = np.meshgrid(np.linspace(-7.5, 7.5, 41), np.linspace(-4.5, 4.5, 41))
    tracemalloc.start()
    try:
        solve, _, _ = _pseudo_hamiltonian_batch(model, 0.0, P.ravel(),
                                                Q.ravel(), 0.5, settings)
        solve.arcs.pdq
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.all(solve.status == OK)
    path_set = 2 * (settings.n_sigma_steps + 1) * P.size * 16
    assert peak <= 0.6 * path_set, peak / path_set


def test_the_real_leg_action_holds_about_one_leg_path():
    # a quartic branch leg sums its Lagrangian as the kernel steps, so no
    # leg path is stored: G_prop over 1,156 columns of the quartic_ramp
    # domain at t_f = 1 (the arcs' action read beforehand) peaks at 0.12
    # leg path sets of traced numpy memory (1.09 when the leg stored its
    # path and reduced it row by row, 2.09 when H was formed over the
    # whole path)
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    settings = IntegratorSettings(n_sigma_steps=64, n_time_steps=64)
    grid = np.linspace(-3.0, 3.0, 34)
    tp, tq = (a.ravel() for a in np.meshgrid(grid, grid))
    solve = _invert_map_batch(model, 0.0, 1.0, tp, tq, 0.5, settings)
    assert np.all(solve.status == OK)
    solve.arcs.action
    tracemalloc.start()
    try:
        _propagated_g_batch(0.0, tp, settings, solve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    n = _real_step_count(model, settings, 1.0)
    path_set = 2 * (n + 1) * tp.size * 16
    assert peak <= 0.2 * path_set, peak / path_set


@pytest.mark.parametrize("model, half_width, n_grid, hbar_beta", [
    (harmonic_model(), 2.0, 21, 1.0),
    (ramped_model("quartic", omega_i=1.0, omega_f=2.0, quartic_lambda=0.1),
     6.0, 13, 3.0)])
def test_total_action_g_is_the_static_endpoint_formula(model, half_width,
                                                       n_grid, hbar_beta):
    # the static G from the total action is the propagated pseudo-energy at
    # t_f = t_i; its zero-length branch legs must not move a bit (signed
    # zeros included) against the formula on the arcs alone.  The harmonic
    # grid holds the origin; on the quartic one some columns fail
    grid = np.linspace(-half_width, half_width, n_grid)
    tp, tq = (a.ravel() for a in np.meshgrid(grid, grid))
    solve, _, g_fta = _pseudo_hamiltonian_batch(
        model, 0.0, tp, tq, hbar_beta, DEFAULT_SETTINGS)
    ok = solve.status == OK
    assert np.all(ok) == (model.kind == "harmonic")
    arcs = solve.arcs
    ref = (-(tp[ok] + 0j) * arcs.chord + arcs.action) / (1j * hbar_beta)
    assert g_fta[ok].tobytes() == ref.real.tobytes()
    # chord and action are differences of conjugates: G is exactly real
    assert np.all(ref.imag == 0.0)
    assert np.all(np.isnan(g_fta[~ok]))


def test_failed_solve_with_richardson_check_reports_the_solve(monkeypatch):
    # a solve with no OK column hands over an empty arc batch; the
    # halving check must pass it, so the failure is the solve's own
    monkeypatch.setattr(stationary, "_CONTINUATION_STAGES", 2)
    model = quartic(0.1)
    settings = IntegratorSettings(n_sigma_steps=192, richardson_check=True)
    with pytest.raises(NewtonDiverged):
        solve_pseudo_state(model, 0.0, 0.0, ComplexPoint(0.0, 50.0), 6.0,
                           settings)
    with pytest.raises(NewtonDiverged):
        pseudo_hamiltonian(model, 0.0, ComplexPoint(0.0, 50.0), 6.0, settings)


def test_halving_check_covers_the_arc_monodromy():
    # at the center (0, 0) the arc's state is 0 at every step count, so
    # only M_+ can show that 8 sigma steps do not resolve the prefactor
    # (8 steps give 0.26581929 against the exact 1 / cosh 2 = 0.26580223)
    model = harmonic_model(omega=2.0)
    origin = ComplexPoint(0.0, 0.0)
    coarse = IntegratorSettings(n_sigma_steps=8, richardson_check=True)
    with pytest.raises(ToleranceExceeded, match="arc monodromy halving gap"):
        pseudo_hamiltonian(model, 0.0, origin, 2.0, coarse)
    fine = IntegratorSettings(n_sigma_steps=256, richardson_check=True)
    value = pseudo_hamiltonian(model, 0.0, origin, 2.0, fine)
    assert value.arc.prefactor[0] == pytest.approx(1.0 / np.cosh(2.0),
                                                   rel=1e-9)


_WIDTH_CASES = {
    # hbar*beta = 3 on [-6, 6]^2: columns that converge at different
    # iterations, along the continuation ladder, or not at all
    "quartic-hard": (6.0, 7, 3.0),
    "quartic-easy": (3.0, 7, 0.5),
}


@functools.lru_cache(maxsize=None)
def _width_case(name):
    """Targets and full-batch columns (G, G_fta, det, prefactor) of a case."""
    half_width, n_grid, hbar_beta = _WIDTH_CASES[name]
    grid = np.linspace(-half_width, half_width, n_grid)
    tp, tq = (a.ravel() for a in np.meshgrid(grid, grid))
    return tp, tq, _static_columns(tp, tq, hbar_beta)


def _static_columns(tp, tq, hbar_beta):
    solve, g, g_fta = _pseudo_hamiltonian_batch(
        quartic(0.1), 0.0, tp, tq, hbar_beta, IntegratorSettings(
            n_sigma_steps=16))
    prefactor = np.full(tp.shape, np.nan)
    prefactor[solve.status == OK] = solve.arcs.prefactor
    return g, g_fta, solve.det, prefactor


@pytest.mark.parametrize("name", sorted(_WIDTH_CASES))
@settings(max_examples=10, deadline=None)
@given(subset=st.sets(st.integers(0, 48), min_size=1))
def test_static_solve_of_a_subset_is_bitwise_the_full_batch(name, subset):
    # the prefactor comes from the M_+ of the Newton trial that each
    # column was last accepted at, and trials run at every width; a subset
    # solved on its own must reproduce its columns of the full batch, G,
    # G from the total action, det J and the prefactor, bit for bit
    tp, tq, whole = _width_case(name)
    cols = np.array(sorted(subset))
    part = _static_columns(tp[cols], tq[cols], _WIDTH_CASES[name][2])
    for label, got, ref in zip(("G", "G_fta", "det", "prefactor"), part,
                               whole):
        assert got.tobytes() == ref[cols].tobytes(), label
