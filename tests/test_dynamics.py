import numpy as np
import pytest

from scjarz.dynamics import (IntegratorSettings, _flow_imaginary_batch,
                             build_arc, flow_imaginary, flow_real,
                             simpson_weights)
from scjarz.errors import IntegratorDiverged, ToleranceExceeded
from scjarz.models import ComplexPoint, harmonic_model, ramped_model

SET = IntegratorSettings(n_sigma_steps=128, n_time_steps=128)


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
    assert abs(arc.chord) < 1e-14
    assert abs(arc.area) < 1e-14
    assert abs(arc.action) < 1e-14


def test_arc_conjugation_symmetry():
    model = ramped_model("quartic", omega_i=1.0, omega_f=1.0,
                         shape="constant", quartic_lambda=0.2)
    arc = build_arc(model, 0.0, ComplexPoint(0.7, 0.6), 0.8, SET)
    # real center: point(-sigma) = conj(point(sigma))
    n = len(arc.sigma)
    np.testing.assert_allclose(arc.p_samples[::-1], np.conj(arc.p_samples),
                               atol=1e-12)
    np.testing.assert_allclose(arc.q_samples[::-1], np.conj(arc.q_samples),
                               atol=1e-12)
    # chord midpoint real, chord purely imaginary
    mid = arc.chord_midpoint
    assert abs(mid.p.imag) < 1e-12 and abs(mid.q.imag) < 1e-12
    assert abs(arc.chord.real) < 1e-12
    assert abs(arc.area_imag) < 1e-12


def test_arc_energy_conservation_at_default_settings():
    from scjarz.dynamics import DEFAULT_SETTINGS
    model = harmonic_model()
    z_c = ComplexPoint(1.1, -0.3)
    arc = build_arc(model, 0.0, z_c, 1.0, DEFAULT_SETTINGS)
    h_ref = model.value_at(0.0, z_c)
    h_all = model.value(0.0, arc.p_samples, arc.q_samples)
    drift = np.max(np.abs(h_all - h_ref))
    assert drift <= 1e-8 * (1.0 + abs(h_ref))


def test_arc_closed_form_area_and_action():
    # A = H(z_c) (hbar beta - sinh(hbar beta)) for m = omega = 1;
    # S = -i (p_c^2/2m - m w^2 q_c^2 / 2) sinh(w hbar beta) / w
    model = harmonic_model()
    hb = 1.0
    z_c = ComplexPoint(1.0, 0.5)
    arc = build_arc(model, 0.0, z_c, hb, SET)
    h_c = model.value_at(0.0, z_c).real
    assert arc.area == pytest.approx(h_c * (hb - np.sinh(hb)), abs=1e-10)
    s_exact = -1j * (0.5 * 1.0**2 - 0.5 * 0.5**2) * np.sinh(hb)
    assert arc.action == pytest.approx(s_exact, abs=1e-10)


def test_area_imaginary_part_stays_at_roundoff():
    # the center-outward construction makes conjugation exact for the
    # symmetric stepper, so Im(A) sits at machine level for every grid
    model = harmonic_model()
    z_c = ComplexPoint(1.0, 0.8)
    for n in (16, 32, 64, 128):
        s = IntegratorSettings(n_sigma_steps=n)
        arc = build_arc(model, 0.0, z_c, 1.5, s)
        assert abs(arc.area_imag) < 1e-14


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
