import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scjarz.errors import TimeOutOfRange
from scjarz.models import (PROTOCOL_SHAPES, ComplexPoint, FrequencyProtocol,
                           HamiltonianModel, harmonic_model, ramped_model)

from references import grad


def test_harmonic_value_examples():
    model = harmonic_model(mass=1.0, omega=1.0)
    assert model.value(0.0, 0.0, 0.0) == 0.0
    assert model.value(0.0, 1.0, 1.0) == pytest.approx(1.0)
    model2 = harmonic_model(mass=1.0, omega=2.0)
    # 0.5 * m * w^2 * (i)^2 = -2
    val = model2.value(0.0, 0.0, 1j)
    assert val == pytest.approx(-2.0 + 0.0j)


def test_harmonic_gradient_is_linear():
    model = harmonic_model(mass=1.0, omega=1.0)
    dp, dq = grad(model, 0.0, 2.0, 3.0)
    assert dp == pytest.approx(2.0)
    assert dq == pytest.approx(3.0)


def test_constant_protocol_has_zero_drive_power():
    model = harmonic_model(mass=2.0, omega=1.3)
    rng = np.random.default_rng(7)
    for _ in range(5):
        z = ComplexPoint(*(rng.normal(size=2)))
        assert model.dt(0.3, z.p, z.q) == 0.0


def test_linear_ramp_drive_power():
    # m wdot w q^2 with wdot = 1 at t = 0
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0,
                         t_i=0.0, t_f=1.0, shape="linear")
    assert model.dt(0.0, 0.0, 1.0) == pytest.approx(1.0)


def test_quartic_value_and_gradient():
    model = ramped_model("quartic", omega_i=1.0, omega_f=1.0, shape="constant",
                         quartic_lambda=0.25)
    z = ComplexPoint(0.5, 2.0)
    assert model.value(0.0, z.p, z.q) == pytest.approx(
        0.125 + 2.0 + 0.25 * 16.0)
    dp, dq = grad(model, 0.0, z.p, z.q)
    assert dp == pytest.approx(0.5)
    assert dq == pytest.approx(2.0 + 4.0 * 0.25 * 8.0)


@pytest.mark.parametrize("kind,lam", [("harmonic", 0.0), ("quartic", 0.3)])
def test_finite_difference_consistency(kind, lam):
    model = ramped_model(kind, mass=1.7, omega_i=0.8, omega_f=1.9,
                         t_i=0.0, t_f=2.0, shape="smoothstep",
                         quartic_lambda=lam)
    rng = np.random.default_rng(42)
    h = 1e-5
    for _ in range(100):
        p, q = rng.uniform(-2, 2, size=2)
        t = rng.uniform(0.0 + 2 * h, 2.0 - 2 * h)
        dp, dq = grad(model, t, p, q)
        dt = model.dt(t, p, q)
        fd_p = (model.value(t, p + h, q) - model.value(t, p - h, q)) / (2 * h)
        fd_q = (model.value(t, p, q + h) - model.value(t, p, q - h)) / (2 * h)
        fd_t = (model.value(t + h, p, q) - model.value(t - h, p, q)) / (2 * h)
        assert abs(fd_p - dp) <= 1e-6 * (1.0 + abs(dp))
        assert abs(fd_q - dq) <= 1e-6 * (1.0 + abs(dq))
        assert abs(fd_t - dt) <= 1e-6 * (1.0 + abs(dt))


def test_real_arguments_give_real_values():
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    rng = np.random.default_rng(3)
    for _ in range(20):
        p, q = rng.uniform(-3, 3, size=2)
        t = rng.uniform(0, 1)
        assert np.imag(model.value(t, complex(p), complex(q))) == 0.0
        dp, dq = grad(model, t, complex(p), complex(q))
        assert np.imag(dp) == 0.0 and np.imag(dq) == 0.0
        assert np.imag(model.dt(t, complex(p), complex(q))) == 0.0


def test_time_out_of_range_rejected():
    # a NaN time is inside no span: it is refused, not evaluated to NaN
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    for t in (1.5, -0.5, float("nan")):
        for call in (lambda: model.value(t, 0.0, 0.0),
                     lambda: model.dt(t, 0.0, 0.0),
                     lambda: model.protocol.omega(t),
                     lambda: model.protocol.omega_dot(t)):
            with pytest.raises(TimeOutOfRange, match=f"^t={t} outside"):
                call()


def test_protocol_endpoint_values_and_derivative():
    proto = FrequencyProtocol(0.0, 2.0, 1.0, 3.0, "smoothstep")
    assert proto.omega(0.0) == pytest.approx(1.0)
    assert proto.omega(2.0) == pytest.approx(3.0)
    # smoothstep has flat ends
    assert proto.omega_dot(0.0) == pytest.approx(0.0)
    assert proto.omega_dot(2.0) == pytest.approx(0.0)
    # exact derivative of the closed form
    h = 1e-6
    for t in (0.3, 1.0, 1.7):
        fd = (proto.omega(t + h) - proto.omega(t - h)) / (2 * h)
        assert proto.omega_dot(t) == pytest.approx(fd, abs=1e-8)


def test_protocol_validation():
    with pytest.raises(ValueError):
        FrequencyProtocol(0.0, 1.0, 1.0, 2.0, "constant")
    with pytest.raises(ValueError):
        FrequencyProtocol(0.0, 1.0, -1.0, 2.0, "linear")
    with pytest.raises(ValueError):
        FrequencyProtocol(1.0, 0.0, 1.0, 2.0, "linear")
    with pytest.raises(ValueError):
        HamiltonianModel("harmonic", 1.0,
                         FrequencyProtocol(0.0, 1.0, 1.0, 1.0, "constant"),
                         quartic_lambda=0.5)
    with pytest.raises(ValueError):
        HamiltonianModel("cubic", 1.0,
                         FrequencyProtocol(0.0, 1.0, 1.0, 1.0, "constant"))


def test_reversed_protocol_swaps_frequencies():
    proto = FrequencyProtocol(0.0, 1.0, 1.0, 2.0, "linear")
    rev = proto.reversed()
    assert rev.omega(0.0) == pytest.approx(2.0)
    assert rev.omega(1.0) == pytest.approx(1.0)
    for t in (0.2, 0.5, 0.9):
        assert rev.omega(t) == pytest.approx(proto.omega(1.0 - t))


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(PROTOCOL_SHAPES),
       st.floats(-2.0, 2.0), st.floats(0.1, 3.0),
       st.floats(0.2, 3.0), st.floats(0.2, 3.0),
       st.lists(st.floats(0.0, 1.0), min_size=0, max_size=12))
def test_array_omega_is_the_scalar_omega_bit_for_bit(shape, t_i, span,
                                                     w_i, w_f, fractions):
    # the RK4 kernel forms its drive table with one array call; each entry
    # must be the scalar value, bit for bit, including the clamped ends
    if shape == "constant":
        w_f = w_i
    proto = FrequencyProtocol(t_i, t_i + span, w_i, w_f, shape)
    times = np.array([t_i + f * span for f in fractions]
                     + [t_i, proto.t_f, proto.t_f + 1e-12 * span])
    values = proto.omega(times)
    assert values.shape == times.shape and values.dtype == np.float64
    scalars = np.array([proto.omega(float(t)) for t in times])
    assert values.tobytes() == scalars.tobytes()


def test_array_omega_rejects_any_time_out_of_range():
    proto = FrequencyProtocol(0.0, 1.0, 1.0, 2.0, "linear")
    with pytest.raises(TimeOutOfRange, match="t=1.5 outside"):
        proto.omega(np.array([0.0, 0.5, 1.5, 0.9]))
    with pytest.raises(TimeOutOfRange, match="t=-0.25 outside"):
        proto.omega(np.array([[0.5, -0.25]]))
    with pytest.raises(TimeOutOfRange, match="t=nan outside"):
        proto.omega(np.array([0.5, np.nan, 0.9]))
    assert proto.omega(np.array([])).shape == (0,)
