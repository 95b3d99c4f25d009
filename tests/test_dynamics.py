import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scjarz import dynamics
from scjarz.dynamics import (IntegratorSettings, _build_arc_batch,
                             _flow_imaginary_batch, _flow_real_batch,
                             _linear_monodromy, _rk4, build_arc,
                             flow_imaginary, flow_real, simpson_weights,
                             weighted_sum)
from scjarz.errors import (IntegratorDiverged, TimeOutOfRange,
                           ToleranceExceeded)
from scjarz.models import (ComplexPoint, FrequencyProtocol, harmonic_model,
                           ramped_model)
from scjarz.pseudowork import _pseudo_power_batch, _pseudo_work_batch
from scjarz.stationary import pseudo_hamiltonian

from references import grad, linear_monodromy_path

SET = IntegratorSettings(n_sigma_steps=128, n_time_steps=128)


def stored_imaginary(model, t, p0, q0, s_from, s_to, n, tangent=False):
    """An imaginary flow's state path (p, q), (n + 1, B) each, recorded by
    its sample hook, and with ``tangent`` the flow's monodromy."""
    path, record = dynamics._recorder(n, np.shape(p0))
    out = _flow_imaginary_batch(model, t, p0, q0, s_from, s_to, n, record,
                                tangent)
    return (path[0], path[1]) + out[2:]


def stored_rk4(model, c, d, t0, dt, p0, q0, h, n, tangent=False):
    """``_rk4``'s final stacks and its state path (2, n + 1, B), recorded
    by its sample hook."""
    path, record = dynamics._recorder(n, np.shape(p0))
    P, Q = _rk4(model, c, d, t0, dt, p0, q0, h, n, tangent, record)
    return P, Q, path


def full_arc_reference(model, t, cp, cq, hbar_beta, n):
    """Whole-arc pdq, action, area, G and power of the arcs through the
    real centers (cp, cq), each half integrated on its own and every sum
    taken over all 2n + 1 samples; complex, so their imaginary parts show."""
    s = 0.5 * hbar_beta
    cp, cq = cp.astype(complex), cq.astype(complex)
    plus = stored_imaginary(model, t, cp, cq, 0.0, s, n)
    minus = stored_imaginary(model, t, cp, cq, 0.0, -s, n)
    p, q = (np.concatenate([m[:0:-1], x]) for m, x in zip(minus, plus))
    w = simpson_weights(2 * n + 1, hbar_beta / (2 * n))
    pdq = weighted_sum(w, p * (-1j) * (p / model.mass))
    h_c = model.value(t, cp, cq)
    area = 1j * (pdq - 0.5 * (p[0] + p[-1]) * (q[-1] - q[0]))
    return {"pdq": pdq, "action": pdq + 1j * hbar_beta * h_c, "area": area,
            "g": h_c - area / hbar_beta,
            "power": weighted_sum(w, model.dt(t, p, q)) / hbar_beta}


def closed_form_arc_point(p_c, q_c, m, omega, sigma):
    """Frozen-time arc through a real center for the harmonic model."""
    ws = omega * sigma
    p = p_c * np.cosh(ws) + 1j * m * omega * q_c * np.sinh(ws)
    q = q_c * np.cosh(ws) - 1j * p_c / (m * omega) * np.sinh(ws)
    return p, q


def test_flow_imaginary_matches_closed_form():
    model = harmonic_model(mass=1.0, omega=1.0)
    z0 = ComplexPoint(0.9, -0.4)
    path = flow_imaginary(model, 0.0, z0, 0.0, 0.35, SET)
    pe, qe = closed_form_arc_point(0.9, -0.4, 1.0, 1.0, 0.35)
    assert path.endpoint().p == pytest.approx(pe, abs=1e-10)
    assert path.endpoint().q == pytest.approx(qe, abs=1e-10)


def test_flow_imaginary_endpoint_value():
    # m = omega = 1, hbar*beta = 0.2, center (1, 0):
    # z_plus = (cosh 0.1, -i sinh 0.1) from the closed-form arc
    model = harmonic_model()
    path = flow_imaginary(model, 0.0, ComplexPoint(1.0, 0.0), 0.0, 0.1, SET)
    z = path.endpoint()
    assert z.p == pytest.approx(np.cosh(0.1), abs=1e-12)
    assert z.q == pytest.approx(-1j * np.sinh(0.1), abs=1e-12)


def test_zero_length_flow_is_identity():
    model = harmonic_model()
    z0 = ComplexPoint(1.0 + 0.5j, -2.0)
    path = flow_imaginary(model, 0.0, z0, 0.3, 0.3, SET)
    assert path.p.shape == (1,)
    assert path.endpoint().p == z0.p and path.endpoint().q == z0.q


def test_arc_at_fixed_point_is_constant():
    model = harmonic_model()
    arc = build_arc(model, 0.0, ComplexPoint(0.0, 0.0), 1.0, SET)
    assert abs(arc.chord[0]) < 1e-14
    assert abs(arc.area[0]) < 1e-14
    assert abs(arc.action[0]) < 1e-14


def test_arc_conjugation_symmetry():
    model = ramped_model("quartic", omega_i=1.0, omega_f=1.0,
                         shape="constant", quartic_lambda=0.2)
    z_c = ComplexPoint(0.7, 0.6)
    arc = build_arc(model, 0.0, z_c, 0.8, SET)
    # real center: point(-sigma) = conj(point(sigma)), so the record holds
    # the plus half only
    minus = flow_imaginary(model, 0.0, z_c, 0.0, -0.4, SET)
    assert arc.p.shape == (SET.n_sigma_steps + 1, 1)
    np.testing.assert_allclose(minus.p, np.conj(arc.p[:, 0]), atol=1e-12)
    np.testing.assert_allclose(minus.q, np.conj(arc.q[:, 0]), atol=1e-12)
    # chord midpoint real, chord and int p dq purely imaginary
    assert arc.mid_p[0].imag == 0.0 and arc.mid_q[0].imag == 0.0
    assert arc.chord[0].real == 0.0 and arc.pdq[0].real == 0.0


def test_arc_energy_conservation_at_default_settings():
    from scjarz.dynamics import DEFAULT_SETTINGS
    model = harmonic_model()
    z_c = ComplexPoint(1.1, -0.3)
    arc = build_arc(model, 0.0, z_c, 1.0, DEFAULT_SETTINGS)
    h_ref = model.value(0.0, z_c.p, z_c.q)
    h_all = model.value(0.0, arc.p[:, 0], arc.q[:, 0])
    drift = np.max(np.abs(h_all - h_ref))
    assert drift <= 1e-8 * (1.0 + abs(h_ref))


def test_arc_closed_form_area_and_action():
    # A = H(z_c) (hbar beta - sinh(hbar beta)) for m = omega = 1;
    # S = -i (p_c^2/2m - m w^2 q_c^2 / 2) sinh(w hbar beta) / w
    model = harmonic_model()
    hb = 1.0
    z_c = ComplexPoint(1.0, 0.5)
    arc = build_arc(model, 0.0, z_c, hb, SET)
    h_c = model.value(0.0, z_c.p, z_c.q).real
    assert arc.area[0] == pytest.approx(h_c * (hb - np.sinh(hb)), abs=1e-10)
    s_exact = -1j * (0.5 * 1.0**2 - 0.5 * 0.5**2) * np.sinh(hb)
    assert arc.action[0] == pytest.approx(s_exact, abs=1e-10)


def test_area_imaginary_part_stays_at_roundoff():
    # the center-outward construction makes conjugation exact for the
    # symmetric stepper, so Im(A) of the whole arc, both halves integrated,
    # sits at machine level for every grid; the record, summing the plus
    # half and its conjugate, gives that area as a real number
    model = harmonic_model()
    cp, cq = np.array([1.0]), np.array([0.8])
    for n in (16, 32, 64, 128):
        s = IntegratorSettings(n_sigma_steps=n)
        arc = _build_arc_batch(model, 0.0, cp, cq, 1.5, s)
        ref = full_arc_reference(model, 0.0, cp, cq, 1.5, n)["area"][0]
        assert abs(ref.imag) < 1e-14
        assert arc.area.dtype == float
        assert abs(arc.area[0] - ref.real) <= 1e-14 * (1.0 + abs(ref))


def test_flow_real_identity_and_rotation():
    model = harmonic_model(t_i=0.0, t_f=2.0)
    z = ComplexPoint(0.3, -1.2)
    assert flow_real(model, 0.5, 0.5, z, SET) == z
    got = flow_real(model, 0.0, np.pi / 2, ComplexPoint(0.0, 1.0),
                    IntegratorSettings(n_time_steps=256))
    assert abs(got.p - (-1.0)) < 1e-8
    assert abs(got.q - 0.0) < 1e-8


def test_flow_real_preserves_conjugate_pairs():
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    rng = np.random.default_rng(11)
    for _ in range(20):
        z = ComplexPoint(complex(*rng.normal(size=2)),
                         complex(*rng.normal(size=2)))
        a = flow_real(model, 0.0, 1.0, z.conjugate(), SET)
        b = flow_real(model, 0.0, 1.0, z, SET)
        assert a.p == pytest.approx(np.conj(b.p), abs=1e-10)
        assert a.q == pytest.approx(np.conj(b.q), abs=1e-10)


def test_flow_real_round_trip():
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    z = ComplexPoint(0.8 + 0.1j, -0.5 - 0.2j)
    fwd = flow_real(model, 0.0, 1.0, z, SET)
    back = flow_real(model, 1.0, 0.0, fwd, SET)
    scale = max(abs(z.p), abs(z.q))
    assert abs(back.p - z.p) / scale < 1e-8
    assert abs(back.q - z.q) / scale < 1e-8


def test_flow_real_symplectic_jacobian():
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    z0 = np.array([0.4, -0.9])
    h = 1e-6
    cols = []
    for k in range(2):
        dz = np.zeros(2)
        dz[k] = h
        zp = flow_real(model, 0.0, 1.0, ComplexPoint(*(z0 + dz)), SET)
        zm = flow_real(model, 0.0, 1.0, ComplexPoint(*(z0 - dz)), SET)
        cols.append([(zp.p - zm.p).real / (2 * h), (zp.q - zm.q).real / (2 * h)])
    det = cols[0][0] * cols[1][1] - cols[0][1] * cols[1][0]
    assert det == pytest.approx(1.0, abs=1e-6)


TANGENT_MODELS = {
    "harmonic": ramped_model("harmonic", omega_i=1.0, omega_f=2.0),
    "quartic": ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                            quartic_lambda=0.1),
}


@pytest.mark.parametrize("kind", sorted(TANGENT_MODELS))
def test_flow_imaginary_tangent_is_monodromy(kind):
    model = TANGENT_MODELS[kind]
    p0 = np.array([0.7 + 0.2j, -0.4 + 0.5j, 1.5 - 0.8j])
    q0 = np.array([0.3 - 0.1j, 1.1 + 0.3j, -0.6 + 0.4j])
    grid = (-0.25, 0.25, 64)   # s_from, s_to, n_steps
    plain = _flow_imaginary_batch(model, 0.4, p0, q0, *grid)
    pe, qe, jac = _flow_imaginary_batch(model, 0.4, p0, q0, *grid,
                                        tangent=True)
    # the option leaves the state path bitwise unchanged
    assert np.array_equal(pe, plain[0]) and np.array_equal(qe, plain[1])
    assert jac.shape == (2, 2, 3)
    eps = 1e-5
    for col, (dp, dq) in enumerate(((eps, 0.0), (0.0, eps))):
        fp = _flow_imaginary_batch(model, 0.4, p0 + dp, q0 + dq, *grid)
        fm = _flow_imaginary_batch(model, 0.4, p0 - dp, q0 - dq, *grid)
        for row in range(2):
            fd = (fp[row] - fm[row]) / (2.0 * eps)
            np.testing.assert_allclose(jac[row, col], fd, rtol=1e-6,
                                       atol=1e-6 * np.max(np.abs(jac)))
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    assert np.max(np.abs(det - 1.0)) <= 1e-8
    # a zero-length flow carries the identity
    _, _, eye = _flow_imaginary_batch(model, 0.4, p0, q0, 0.1, 0.1, 64,
                                      tangent=True)
    assert np.array_equal(eye, np.repeat(np.eye(2)[:, :, None], 3, axis=2))


@pytest.mark.parametrize("kind", sorted(TANGENT_MODELS))
def test_flow_real_tangent_is_monodromy(kind):
    model = TANGENT_MODELS[kind]
    p0 = np.array([0.7 + 0.2j, -0.4 + 0.5j, 1.5 - 0.8j])
    q0 = np.array([0.3 - 0.1j, 1.1 + 0.3j, -0.6 + 0.4j])
    grid = (0.9, 0.1)   # t_from, t_to: backwards through the running drive
    plain = _flow_real_batch(model, *grid, p0, q0, 64)
    pe, qe, jac = _flow_real_batch(model, *grid, p0, q0, 64, tangent=True)
    # the option leaves the state bitwise unchanged
    assert np.array_equal(pe, plain[0]) and np.array_equal(qe, plain[1])
    assert jac.shape == (2, 2, 3)
    eps = 1e-5
    for col, (dp, dq) in enumerate(((eps, 0.0), (0.0, eps))):
        fp = _flow_real_batch(model, *grid, p0 + dp, q0 + dq, 64)
        fm = _flow_real_batch(model, *grid, p0 - dp, q0 - dq, 64)
        for row in range(2):
            fd = (fp[row] - fm[row]) / (2.0 * eps)
            np.testing.assert_allclose(jac[row, col], fd, rtol=1e-6,
                                       atol=1e-6 * np.max(np.abs(jac)))
    det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
    assert np.max(np.abs(det - 1.0)) <= 1e-8
    # a zero-length flow carries the identity
    _, _, eye = _flow_real_batch(model, 0.4, 0.4, p0, q0, 64, tangent=True)
    assert np.array_equal(eye, np.repeat(np.eye(2)[:, :, None], 3, axis=2))


@pytest.mark.parametrize("kind", sorted(TANGENT_MODELS))
def test_arc_minus_half_is_the_exact_conjugate_flow(kind):
    # the arc records the plus half and reads the minus half as its
    # conjugate; that must be an explicit integration from the center to
    # -hbar*beta/2 bit for bit
    model = TANGENT_MODELS[kind]
    rng = np.random.default_rng(17)
    cp = rng.uniform(-2.5, 2.5, 64)
    cq = rng.uniform(-2.5, 2.5, 64)
    n = SET.n_sigma_steps
    for t in (0.0, 0.37, 1.0):
        arcs = _build_arc_batch(model, t, cp, cq, 1.0, SET)
        minus_p, minus_q = stored_imaginary(
            model, t, cp.astype(complex), cq.astype(complex), 0.0, -0.5, n)
        assert arcs.p.shape == arcs.q.shape == (n + 1, 64)
        assert np.array_equal(np.conjugate(arcs.p), minus_p)
        assert np.array_equal(np.conjugate(arcs.q), minus_q)


@pytest.mark.parametrize("n", [8, 9, 64])
@pytest.mark.parametrize("kind", sorted(TANGENT_MODELS))
@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.floats(-2.5, 2.5), st.floats(-2.5, 2.5)),
                min_size=1, max_size=8),
       st.floats(0.0, 1.0), st.floats(0.1, 1.5))
def test_plus_half_sums_are_the_whole_arc_sums(kind, n, centers, t,
                                               hbar_beta):
    # the record sums the plus half with its share of the whole arc's
    # Simpson rule (center weight halved, so odd n is valid too) and reads
    # the minus half as the conjugate; every sum must be the whole-arc
    # rule over both halves integrated on their own, to roundoff
    model = TANGENT_MODELS[kind]
    cp = np.array([c[0] for c in centers])
    cq = np.array([c[1] for c in centers])
    arcs = _build_arc_batch(model, t, cp, cq, hbar_beta,
                            IntegratorSettings(n_sigma_steps=n))
    ref = full_arc_reference(model, t, cp, cq, hbar_beta, n)
    got = {"pdq": arcs.pdq, "action": arcs.action, "area": arcs.area,
           "g": arcs.g, "power": _pseudo_power_batch(arcs)}
    for name, x in got.items():
        assert np.all(np.abs(x - ref[name]) <= 1e-14 * (1.0 + np.abs(x))), \
            name


def test_arc_rejects_a_complex_center():
    model = harmonic_model()
    with pytest.raises(ValueError):
        build_arc(model, 0.0, ComplexPoint(0.5 + 1e-3j, 0.2), 1.0, SET)
    with pytest.raises(ValueError):
        build_arc(model, 0.0, ComplexPoint(0.5, 0.2 - 1e-3j), 1.0, SET)


def test_richardson_check_flags_coarse_grids():
    model = harmonic_model(omega=2.0)
    coarse = IntegratorSettings(n_sigma_steps=8, richardson_check=True,
                                tolerance=1e-12)
    with pytest.raises(ToleranceExceeded):
        flow_imaginary(model, 0.0, ComplexPoint(1.0, 1.0), 0.0, 2.0, coarse)
    fine = IntegratorSettings(n_sigma_steps=256, richardson_check=True,
                              tolerance=1e-8)
    flow_imaginary(model, 0.0, ComplexPoint(1.0, 1.0), 0.0, 2.0, fine)


def test_integrator_divergence_detected():
    model = ramped_model("quartic", omega_i=1.0, omega_f=1.0,
                         shape="constant", quartic_lambda=2.0)
    with pytest.raises(IntegratorDiverged):
        flow_imaginary(model, 0.0, ComplexPoint(0.0, 4.0), 0.0, 3.0, SET)


def test_settings_validation():
    with pytest.raises(ValueError):
        IntegratorSettings(n_sigma_steps=4)
    with pytest.raises(ValueError):
        IntegratorSettings(n_time_steps=33)
    with pytest.raises(ValueError):
        IntegratorSettings(tolerance=-1.0)


def test_simpson_weights_integrate_cubics_exactly():
    n = 9
    h = 0.25
    x = np.arange(n) * h
    w = simpson_weights(n, h)
    for k in range(4):
        exact = x[-1] ** (k + 1) / (k + 1)
        assert w @ x**k == pytest.approx(exact, rel=1e-13)
    with pytest.raises(ValueError):
        simpson_weights(4, 0.1)


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_imaginary_state_path_does_not_depend_on_the_tangent(lam):
    # the solve keeps the endpoints and monodromy of its tangent run, and
    # the arc steps its state path again without the tangent rows; so
    # row 0 must be the tangent-free flow bit for bit, at complex starts too
    model = ramped_model("quartic" if lam else "harmonic", omega_i=1.0,
                         omega_f=2.0, quartic_lambda=lam)
    rng = np.random.default_rng(11)
    p0 = rng.uniform(-3.0, 3.0, 40) + 1j * rng.uniform(-0.5, 0.5, 40)
    q0 = rng.uniform(-3.0, 3.0, 40) + 1j * rng.uniform(-0.5, 0.5, 40)
    for t, s_to in ((0.0, 0.5), (0.7, -1.5)):
        bare = stored_imaginary(model, t, p0, q0, 0.0, s_to, 32)
        with_tangent = stored_imaginary(model, t, p0, q0, 0.0, s_to, 32,
                                        tangent=True)
        assert len(with_tangent) == 3 and with_tangent[2].shape == (2, 2, 40)
        for a, b in zip(bare, with_tangent[:2]):
            assert a.shape == (33, 40)
            assert a.tobytes() == b.tobytes()


LINEAR_MODELS = {
    f"{kind}-{shape}": ramped_model(kind, omega_i=1.0, omega_f=2.0,
                                    shape=shape, quartic_lambda=0.0)
    for kind in ("harmonic", "quartic") for shape in ("linear", "smoothstep")
}


def _linear_flow(model, flow, p0, q0, tangent):
    """Imaginary (stored path) or backward real (with action) flow."""
    if flow == "imaginary":
        return stored_imaginary(model, 0.3, p0, q0, 0.0, 1.5, 16,
                                tangent=tangent)
    return _flow_real_batch(model, 0.9, 0.1, p0, q0, 12, with_action=True,
                            tangent=tangent)


@pytest.mark.parametrize("width", [0, 1, 2, 40])
@pytest.mark.parametrize("flow", ["imaginary", "real"])
@pytest.mark.parametrize("name", sorted(LINEAR_MODELS))
def test_linear_flow_monodromy_is_the_width_one_flow(name, flow, width):
    # at quartic_lambda = 0 the kernel integrates only the width-1 flow
    # of the identity and applies its monodromy to every column; each
    # column's monodromy must be its width-1 flow's and its state the
    # tangent-free flow's, bit for bit, a column that overflows must not
    # touch the others, and the monodromy must be an ordinary writable
    # array, not a view of the shared width-1 run
    model = LINEAR_MODELS[name]
    rng = np.random.default_rng(width)
    p0 = rng.uniform(-3.0, 3.0, width) + 1j * rng.uniform(-0.5, 0.5, width)
    q0 = rng.uniform(-3.0, 3.0, width) + 1j * rng.uniform(-0.5, 0.5, width)
    if width > 1:
        p0[1] = q0[1] = 1e308 + 1e308j     # this column's state overflows
    *state, jac = _linear_flow(model, flow, p0, q0, tangent=True)
    bare = _linear_flow(model, flow, p0, q0, tangent=False)
    assert len(state) == len(bare)
    for a, b in zip(bare, state):
        assert a.tobytes() == b.tobytes()
    assert jac.shape == (2, 2, width)
    for i in range(width):
        *one_state, one = _linear_flow(model, flow, p0[i:i + 1],
                                       q0[i:i + 1], tangent=True)
        assert one.shape == (2, 2, 1)
        assert jac[:, :, i].tobytes() == one[:, :, 0].tobytes(), i
        for a, b in zip(state, one_state):
            assert a[..., i].tobytes() == b[..., 0].tobytes(), i
    assert np.all(np.isfinite(jac))
    if width > 1:
        assert not np.all(np.isfinite(state[0][..., 1]))
        assert jac.flags.writeable and 0 not in jac.strides
        before = jac[:, :, 0].copy()
        jac[:, :, 1] = 0.0
        assert np.array_equal(jac[:, :, 0], before)


def test_drive_table_is_formed_once_at_the_kernel_step_times(monkeypatch):
    # one array call of omega per table column (start, midpoint, end of
    # each step), for the one width-1 run of the identity that a linear
    # flow integrates, at the times the per-step expressions t0 + k dt,
    # t + dt/2 and t + dt give, bit for bit
    seen = []
    original = FrequencyProtocol.omega

    def recording(self, t):
        seen.append(np.array(t, dtype=float))
        return original(self, t)

    monkeypatch.setattr(FrequencyProtocol, "omega", recording)
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0,
                         shape="smoothstep")
    p0 = q0 = np.array([0.5 + 0j, 1.0 + 0j])
    t_from, t_to, n = 0.9, 0.1, 12
    _flow_real_batch(model, t_from, t_to, p0, q0, n, tangent=True)
    h = (t_to - t_from) / n
    starts = [t_from + k * h for k in range(n)]
    expected = (starts, [t + 0.5 * h for t in starts],
                [t + h for t in starts])
    assert len(seen) == 3
    for got, want in zip(seen, expected):
        assert got.tobytes() == np.array(want).tobytes()


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_linear_flows_step_only_at_width_one(monkeypatch, lam):
    # a whole march over 16 starts: at quartic_lambda = 0 every RK4 step
    # runs in the scalar recurrence on the width-1 flow of the identity,
    # at any batch width, and the array kernel steps nothing; the quartic
    # control steps its starts in the kernel at the batch width
    widths = {"kernel": [], "recurrence": []}
    steps, recurrence = dynamics._rk4_steps, dynamics._linear_steps

    def recorded_steps(model, c, d, t0, dt, P, *args):
        widths["kernel"].append(P.shape[-1])
        return steps(model, c, d, t0, dt, P, *args)

    def recorded_recurrence(*args):
        path = recurrence(*args)
        widths["recurrence"].append(path.shape[-1])
        return path

    monkeypatch.setattr(dynamics, "_rk4_steps", recorded_steps)
    monkeypatch.setattr(dynamics, "_linear_steps", recorded_recurrence)
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=lam)
    rng = np.random.default_rng(5)
    tp, tq = rng.uniform(-2.0, 2.0, (2, 16))
    out = _pseudo_work_batch(model, 0.0, 1.0, tp, tq, 0.5,
                             IntegratorSettings(n_sigma_steps=16,
                                                n_time_steps=16))
    assert np.all(out["status"] == 0)
    if lam:
        assert max(widths["kernel"]) == 16
        assert widths["recurrence"] == []
    else:
        assert widths["kernel"] == []
        assert set(widths["recurrence"]) == {1}


def test_linear_memo_arrays_refuse_writes():
    # every caller of the memo shares its arrays, so none may write them;
    # what the kernel hands out is the caller's own
    model = LINEAR_MODELS["harmonic-linear"]
    path = _linear_monodromy(model, -1.0, 1.0, 0.9, -0.1, -0.1, 8)
    assert path.shape == (2, 9, 2, 1)
    m_p, m_q = path[:, -1]
    for x in (m_p, m_q, path):
        with pytest.raises(ValueError, match="read-only"):
            x[...] = 0.0
    p0 = q0 = np.array([0.5 + 0j, 1.0 + 0j])
    P, Q, state_path = stored_rk4(model, -1.0, 1.0, 0.9, -0.1, p0, q0, -0.1,
                                  8, tangent=True)
    assert dynamics._linear_monodromy.cache_info().hits == 1
    for x in (P, Q, state_path):
        assert x.flags.writeable
    assert np.array_equal(P[1:], np.broadcast_to(m_p, (2, 2)))


@pytest.mark.parametrize("c,d,t0,dt,h", [
    (1j, -1j, 0.3, 0.0, 0.05),      # an imaginary leg: the drive frozen
    (-1.0, 1.0, 0.9, -0.1, -0.1),   # a real leg, backwards
    (-1.0, 1.0, 0.1, 0.05, 0.05),   # a real leg, forwards
])
def test_a_recorded_path_leaves_the_final_stacks_unchanged(c, d, t0, dt, h):
    # a quartic flow hands its samples to a hook only when given one, and
    # the runs with and without it must step the same bits: recording row
    # 0 changes no bit of the final stacks, of a state stack (1 row) or of
    # a tangent one (3 rows)
    model = TANGENT_MODELS["quartic"]
    for rows in (1, 3):
        runs = []
        for hooked in (False, True):
            P = np.zeros((rows, 2), dtype=complex)
            Q = np.zeros_like(P)
            P[0], Q[0] = [0.7 + 0.2j, -1.5 + 0.1j], [0.3 - 0.4j, 1.1 + 0.0j]
            if rows == 3:
                P[1] = Q[2] = 1.0
            path, record = dynamics._recorder(8, (2,))
            assert dynamics._rk4_steps(model, c, d, t0, dt, P, Q, h, 8,
                                       record if hooked else None) is None
            runs.append((P, Q, path))
        (P, Q, _), (P_s, Q_s, path) = runs
        assert path.shape == (2, 9, 2)
        for x, y in ((P, P_s), (Q, Q_s), (P[0], path[0, -1]),
                     (Q[0], path[1, -1])):
            assert x.tobytes() == y.tobytes(), rows


@pytest.mark.parametrize("name", sorted(LINEAR_MODELS))
@settings(max_examples=40, deadline=None)
@given(st.sampled_from([1j, -1.0]), st.sampled_from([1.0, -1.0]),
       st.booleans(), st.sampled_from([0, 1, 2, 7, 8, 13, 16, 33]),
       st.floats(0.0, 1.0), st.floats(0.01, 1.0))
def test_linear_recurrence_is_the_array_stepping(name, c, sign, running,
                                                 n_steps, t0, fraction):
    # the scalar recurrence runs the array kernel's stage sequence on
    # Python complex scalars, so its tangent path must be the array
    # stepping of the identity stack byte for byte: imaginary (c = i) and
    # real (c = -1) coefficients, a frozen drive (dt = 0) and a running
    # one forwards and backwards (dt = h of either sign, inside the
    # protocol span), empty and odd step counts
    model = LINEAR_MODELS[name]
    d = (-1j if c == 1j else 1.0) / model.mass
    span = 1.0 - t0 if sign > 0.0 else t0
    h = sign * fraction * span / max(n_steps, 1)
    dt = h if running else 0.0
    got = dynamics._linear_steps(model, c, d, t0, dt, h, n_steps)
    want = linear_monodromy_path(model, c, d, t0, dt, h, n_steps)
    assert got.shape == want.shape == (2, n_steps + 1, 2, 1)
    assert got.tobytes() == want.tobytes()


def test_an_overflowing_linear_leg_matches_the_array_stepping():
    # a step of 1e30 overflows the tangent rows at the third step, into
    # both infinities and NaNs; the recurrence must raise nothing (no
    # warning either) and give the same non-finite samples as the array
    # stepping, and the finite ones bitwise
    model = LINEAR_MODELS["harmonic-linear"]
    args = (model, 1j, -1j / model.mass, 0.3, 0.0, 1e30, 8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = dynamics._linear_steps(*args)
    want = linear_monodromy_path(*args)
    assert np.any(np.isnan(got)) and np.any(np.isinf(got))
    for mask in (np.isnan, np.isinf):
        assert np.array_equal(mask(got), mask(want))
    finite = np.isfinite(want)
    assert np.any(finite[:, 1:])
    assert got[finite].tobytes() == want[finite].tobytes()


def test_ramps_with_different_drives_never_share_a_memo_entry():
    # the model is part of the key: a ramp run after another one, with
    # the other's entries in the memo, is its own cold run bit for bit
    ramps = [ramped_model("harmonic", omega_i=1.0, omega_f=w)
             for w in (2.0, 3.0)]
    p0 = np.array([0.7 + 0.2j, -0.4 + 0.5j, 1.5 - 0.8j])
    q0 = np.array([0.3 - 0.1j, 1.1 + 0.3j, -0.6 + 0.4j])

    def run(model):
        return _flow_real_batch(model, 0.9, 0.1, p0, q0, 12,
                                with_action=True, tangent=True)

    cold = []
    for model in ramps:
        dynamics._linear_monodromy.cache_clear()
        cold.append(run(model))
    dynamics._linear_monodromy.cache_clear()
    warm = [run(model) for model in ramps]
    assert dynamics._linear_monodromy.cache_info().currsize == 2
    for a, b in zip(cold, warm):
        for x, y in zip(a, b):
            assert x.tobytes() == y.tobytes()
    assert not np.array_equal(warm[0][0], warm[1][0])
    assert not np.array_equal(warm[0][-1], warm[1][-1])


@pytest.mark.parametrize("name", sorted(LINEAR_MODELS))
@settings(max_examples=15, deadline=None)
@given(st.lists(st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
                min_size=1, max_size=6),
       st.floats(0.25, 2.0),
       st.lists(st.tuples(*[st.floats(-3.0, 3.0)] * 4), min_size=1,
                max_size=6))
def test_linear_sums_are_quadratic_forms_of_the_path(name, centers,
                                                     hbar_beta, starts):
    # a linear arc's pdq and power and a linear real leg's action are
    # quadratic forms in the start with width-1 moments; each must be the
    # Simpson sum over the path (the arc's formed on read, the leg's
    # recorded by the kernel's hook) within 1e-12 of the sum of the
    # |terms|, and each column's form must be its width-1 form bit for bit
    model = LINEAR_MODELS[name]
    m = model.mass
    cp = np.array([c[0] for c in centers], dtype=complex)
    cq = np.array([c[1] for c in centers], dtype=complex)
    p0 = np.array([complex(a, b) for a, b, _, _ in starts])
    q0 = np.array([complex(c, d) for _, _, c, d in starts])
    t, t_from, t_to, n = 0.3, 0.9, 0.1, 12
    h = (t_to - t_from) / n
    settings = IntegratorSettings(n_sigma_steps=16, n_time_steps=16)

    def close(form, path_sum, scale):
        # plus a few subnormal spacings: products of starts near 1e-160
        # underflow, where every sum rounds in absolute, not relative, steps
        tiny = 256 * np.finfo(float).smallest_subnormal
        assert np.all(np.abs(form - path_sum) <= 1e-12 * scale + tiny)

    arcs = _build_arc_batch(model, t, cp, cq, hbar_beta, settings)
    forms = {"pdq": arcs.pdq, "power": _pseudo_power_batch(arcs)}
    w = arcs.half_weights
    p, q = arcs.p, arcs.q
    # the whole-arc sums are half - conj(half) and 2 Re(half) / hbar*beta
    terms = p * (-1j) * (p / m)
    half = weighted_sum(w, terms)
    close(forms["pdq"], half - np.conjugate(half),
          2.0 * weighted_sum(np.abs(w), np.abs(terms)))
    terms = model.dt(t, p, q)
    close(forms["power"], 2.0 * weighted_sum(w, terms).real / hbar_beta,
          2.0 * weighted_sum(np.abs(w), np.abs(terms)) / hbar_beta)

    _, _, action = _flow_real_batch(model, t_from, t_to, p0, q0, n,
                                    with_action=True)
    _, _, (lp, lq) = stored_rk4(model, -1.0, 1.0 / m, t_from, h, p0, q0, h,
                                n)
    times = t_from + np.arange(n + 1)[:, None] * h
    stiffness = m * model.protocol.omega(times) ** 2
    kinetic, potential = lp * lp / (2.0 * m), 0.5 * stiffness * lq * lq
    w = simpson_weights(n + 1, h)
    close(action, weighted_sum(w, kinetic - potential),
          weighted_sum(np.abs(w), np.abs(kinetic) + np.abs(potential)))

    for i in range(cp.size):
        one = _build_arc_batch(model, t, cp[i:i + 1], cq[i:i + 1], hbar_beta,
                               settings)
        assert one.pdq[0] == forms["pdq"][i], i
        assert _pseudo_power_batch(one)[0] == forms["power"][i], i
    for i in range(p0.size):
        one = _flow_real_batch(model, t_from, t_to, p0[i:i + 1],
                               q0[i:i + 1], n, with_action=True)[2]
        assert one.tobytes() == action[i:i + 1].tobytes(), i


def test_running_drive_checks_every_time_before_the_first_step():
    # the drive table is formed for the whole flow up front, so a flow
    # that would leave the protocol span raises before it integrates
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    p0 = q0 = np.array([0.5 + 0j, 1.0 + 0j])
    with pytest.raises(TimeOutOfRange, match="outside protocol span"):
        _flow_real_batch(model, 0.5, 1.25, p0, q0, 8, tangent=True)


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_a_nan_time_is_out_of_range(lam):
    # a NaN time is inside no span, so each public flow refuses it by name
    # before it integrates or counts steps
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=lam)
    nan, z = float("nan"), ComplexPoint(0.5, 0.5)
    for call in (lambda: flow_real(model, 0.0, nan, z),
                 lambda: build_arc(model, nan, z, 1.0),
                 lambda: pseudo_hamiltonian(model, nan, z, 1.0)):
        with pytest.raises(TimeOutOfRange, match="^t=nan outside"):
            call()


def textbook_rk4(model, c, d, t0, dt, p0, q0, h, n_steps):
    """Reference for the kernel: classical RK4 for dp = c H_q(q),
    dq = d p, stage by stage with explicit stage momenta and positions,
    and the tangent columns (d/dp0, d/dq0) from the variational equations
    dp' = c H_qq(q) dq', dq' = d p'.  Returns the state path (p, q) of
    shape (n_steps + 1, B) each and the monodromy (2, 2, B)."""
    def rhs(t, p, q, jp, jq):
        w = model.protocol.omega(t)
        stiff = model.mass * w * w + 12.0 * model.quartic_lambda * q * q
        return c * grad(model, t, p, q)[1], d * p, c * stiff * jq, d * jp

    one, zero = np.ones_like(p0), np.zeros_like(p0)
    y = (p0, q0, np.stack([one, zero]), np.stack([zero, one]))
    path = [y[:2]]
    for k in range(n_steps):
        t = t0 + k * dt
        k1 = rhs(t, *y)
        y2 = [x + (0.5 * h) * f for x, f in zip(y, k1)]     # P2, Q2
        k2 = rhs(t + 0.5 * dt, *y2)
        y3 = [x + (0.5 * h) * f for x, f in zip(y, k2)]     # P3, Q3
        k3 = rhs(t + 0.5 * dt, *y3)
        y4 = [x + h * f for x, f in zip(y, k3)]             # P4, Q4
        k4 = rhs(t + dt, *y4)
        y = tuple(x + (h / 6.0) * (a + 2.0 * b + 2.0 * e + g)
                  for x, a, b, e, g in zip(y, k1, k2, k3, k4))
        path.append(y[:2])
    p, q = (np.array(x) for x in zip(*path))
    return p, q, np.stack([y[2], y[3]])


KERNEL_MODELS = TANGENT_MODELS | LINEAR_MODELS


@pytest.mark.parametrize("width", [1, 40])
@pytest.mark.parametrize("kind", sorted(KERNEL_MODELS))
def test_kernel_is_classical_rk4(kind, width):
    # the kernel's step is RK4 rearranged without stage momenta, and a
    # linear flow's states are its width-1 monodromy applied to the
    # starts; both must be the textbook scheme to roundoff: the imaginary
    # flow's stored path and monodromy, and the backward real flow's
    # stored path, endpoint, action and monodromy
    model = KERNEL_MODELS[kind]
    rng = np.random.default_rng(23)
    p0 = rng.uniform(-2.0, 2.0, width) + 1j * rng.uniform(-0.5, 0.5, width)
    q0 = rng.uniform(-2.0, 2.0, width) + 1j * rng.uniform(-0.5, 0.5, width)

    def close(got, want):
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 1e-13 * (1.0 + np.abs(want)))

    t, s_to, n = 0.4, 0.5, 32
    got = stored_imaginary(model, t, p0, q0, 0.0, s_to, n, tangent=True)
    want = textbook_rk4(model, 1j, -1j / model.mass, t, 0.0, p0, q0,
                        s_to / n, n)
    for a, b in zip(got, want):
        close(a, b)

    t_from, t_to, n = 0.9, 0.1, 24
    h = (t_to - t_from) / n
    pe, qe, action, jac = _flow_real_batch(model, t_from, t_to, p0, q0, n,
                                           with_action=True, tangent=True)
    p, q, m = textbook_rk4(model, -1.0, 1.0 / model.mass, t_from, h, p0, q0,
                           h, n)
    lagrangian = np.stack([pk * pk / model.mass
                           - model.value(t_from + k * h, pk, qk)
                           for k, (pk, qk) in enumerate(zip(p, q))])
    close(pe, p[-1])
    close(qe, q[-1])
    close(action, simpson_weights(n + 1, h) @ lagrangian)
    close(jac, m)
    _, _, (path_p, path_q) = stored_rk4(model, -1.0, 1.0 / model.mass,
                                        t_from, h, p0, q0, h, n)
    close(path_p, p)
    close(path_q, q)


@pytest.mark.parametrize("mass", [1.0, 1.5])
def test_quartic_leg_action_by_row_is_the_stacked_sum(mass):
    # a quartic real leg sums its Lagrangian one sample row at a time, at
    # t_k = t_from + k h; each row runs the operations of the whole
    # (n + 1, B) integrand over the stored path, so the action is that
    # integrand's Simpson sum bit for bit (at m = 1.5, where p (p/m) and
    # p^2/m round differently, too)
    model = ramped_model("quartic", mass=mass, omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    rng = np.random.default_rng(29)
    p0 = rng.uniform(-2.0, 2.0, 30) + 1j * rng.uniform(-0.5, 0.5, 30)
    q0 = rng.uniform(-2.0, 2.0, 30) + 1j * rng.uniform(-0.5, 0.5, 30)
    t_from, t_to, n = 0.9, 0.1, 24
    h = (t_to - t_from) / n
    _, _, action = _flow_real_batch(model, t_from, t_to, p0, q0, n,
                                    with_action=True)
    _, _, (p, q) = stored_rk4(model, -1.0, 1.0 / mass, t_from, h, p0, q0, h,
                              n)
    t = t_from + np.arange(n + 1)[:, None] * h
    lagrangian = p * (p / mass) - model.value(t, p, q)
    want = weighted_sum(simpson_weights(n + 1, h), lagrangian)
    assert action.tobytes() == want.tobytes()


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(*[st.floats(-3.0, 3.0)] * 4), min_size=1,
                max_size=12),
       st.sampled_from(["imaginary", "real"]))
def test_kernel_columns_are_their_width_one_runs(starts, flow):
    # every operation of the step is elementwise, so each column of a
    # quartic batch, stored path and tangent rows included, is its own
    # width-1 run bit for bit
    model = TANGENT_MODELS["quartic"]
    p0 = np.array([complex(a, b) for a, b, _, _ in starts])
    q0 = np.array([complex(c, d) for _, _, c, d in starts])
    if flow == "imaginary":
        args = (1j, -1j / model.mass, 0.3, 0.0)
        h = 0.6 / 16
    else:
        args = (-1.0, 1.0 / model.mass, 0.9, -0.05)
        h = -0.05

    P, Q, path = stored_rk4(model, *args, p0, q0, h, 16, tangent=True)
    assert P.shape == Q.shape == (3, len(starts))
    for i in range(len(starts)):
        Pi, Qi, path_i = stored_rk4(model, *args, p0[i:i + 1], q0[i:i + 1],
                                    h, 16, tangent=True)
        for batch, one in ((P, Pi), (Q, Qi), (path, path_i)):
            assert batch[..., i].tobytes() == one[..., 0].tobytes(), i
