from dataclasses import replace

import numpy as np
import pytest

from scjarz import pseudowork
from scjarz.dynamics import IntegratorSettings
from scjarz.pseudowork import _gauss_legendre_nodes, _pseudo_work_batch
from scjarz.stationary import _prefactor_batch, _pseudo_hamiltonian_batch
from scjarz.errors import DomainTooSmall
from scjarz.jarzynski import (QuadratureDomain, partition,
                              propagated_partition, verify_identity)
from scjarz.models import harmonic_model, ramped_model

SET = IntegratorSettings(n_sigma_steps=64, n_time_steps=32)
DOMAIN = QuadratureDomain(p_max=10.5, q_max=10.5, n_p=64, n_q=64)


def z_harmonic(beta, hbar, omega):
    """Closed form: integral of exp(-beta G) is pi hbar / tanh(b h w / 2)."""
    return np.pi * hbar / np.tanh(0.5 * beta * hbar * omega)


def test_domain_validation():
    with pytest.raises(ValueError):
        QuadratureDomain(p_max=-1.0, q_max=1.0)
    with pytest.raises(ValueError):
        QuadratureDomain(p_max=1.0, q_max=1.0, n_p=1)
    with pytest.raises(ValueError):
        QuadratureDomain(p_max=1.0, q_max=1.0, rule="simpson")


def test_quadrature_nodes_integrate_gaussian():
    dom = QuadratureDomain(p_max=8.0, q_max=8.0, n_p=48, n_q=48)
    P, Q, W = dom.nodes()
    val = np.sum(W * np.exp(-0.5 * (P**2 + Q**2)))
    assert val == pytest.approx(2 * np.pi, rel=1e-12)
    trap = QuadratureDomain(p_max=8.0, q_max=8.0, n_p=129, n_q=129,
                            rule="trapezoid")
    P, Q, W = trap.nodes()
    val = np.sum(W * np.exp(-0.5 * (P**2 + Q**2)))
    assert val == pytest.approx(2 * np.pi, rel=1e-6)


def test_small_domain_rejected():
    model = harmonic_model()
    small = QuadratureDomain(p_max=3.0, q_max=3.0, n_p=16, n_q=16)
    with pytest.raises(DomainTooSmall):
        partition(model, 0.0, 1.0, 1.0, small, SET)


def test_partition_matches_closed_form():
    model = harmonic_model()
    z = partition(model, 0.0, 1.0, 1.0, DOMAIN, SET)
    assert z == pytest.approx(z_harmonic(1.0, 1.0, 1.0), rel=1e-8)
    # z_harmonic(1,1,1) = pi/tanh(0.5) = 6.7982601473...
    assert z_harmonic(1.0, 1.0, 1.0) == pytest.approx(6.7982601473, abs=1e-9)


def test_partition_classical_limit():
    # beta hbar -> 0: Z -> 2 pi / (beta omega), already at the permille
    # level for hbar = 0.02
    model = harmonic_model()
    z = partition(model, 0.0, 1.0, 0.02, DOMAIN, SET)
    assert z == pytest.approx(2.0 * np.pi, rel=1e-4)


def test_partition_node_doubling_is_converged():
    model = harmonic_model()
    base = partition(model, 0.0, 1.0, 1.0, DOMAIN, SET)
    double = partition(
        model, 0.0, 1.0, 1.0,
        QuadratureDomain(p_max=10.5, q_max=10.5, n_p=128, n_q=128), SET)
    assert abs(double - base) / base < 1e-8


def test_propagated_partition_at_equal_times():
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    a = propagated_partition(model, 0.0, 0.0, 1.0, 1.0, DOMAIN, SET)
    b = partition(model, 0.0, 1.0, 1.0, DOMAIN, SET)
    assert a == pytest.approx(b, rel=1e-10)


def test_propagated_partition_is_unitarily_invariant_harmonic():
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    z_prop = propagated_partition(model, 0.0, 1.0, 1.0, 1.0, DOMAIN, SET)
    z_direct = partition(model, 1.0, 1.0, 1.0, DOMAIN, SET)
    assert z_prop == pytest.approx(z_direct, rel=1e-7)
    assert z_direct == pytest.approx(z_harmonic(1.0, 1.0, 2.0), rel=1e-8)


# the quartic construction at hbar*beta = 1 hits its first caustic inside
# the thermally weighted region, so driven quartic runs use hbar = 0.5
QUARTIC_DOMAIN = QuadratureDomain(p_max=7.5, q_max=4.5, n_p=48, n_q=48)
QUARTIC_HBAR = 0.5


def test_propagated_partition_quartic_trace_identity():
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    z_prop = propagated_partition(model, 0.0, 1.0, 1.0, QUARTIC_HBAR,
                                  QUARTIC_DOMAIN, SET)
    z_direct = partition(model, 1.0, 1.0, QUARTIC_HBAR, QUARTIC_DOMAIN, SET)
    assert abs(z_prop - z_direct) / z_direct < 1e-3


def test_identity_quartic_ramp_residual_refines():
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    coarse = verify_identity(model, 1.0, QUARTIC_HBAR, QUARTIC_DOMAIN,
                             IntegratorSettings(n_sigma_steps=48,
                                                n_time_steps=32))
    assert coarse.failures == []
    assert coarse.residual < 1e-3
    fine = verify_identity(model, 1.0, QUARTIC_HBAR, QUARTIC_DOMAIN,
                           IntegratorSettings(n_sigma_steps=96,
                                              n_time_steps=64))
    assert fine.residual < coarse.residual


def test_identity_constant_protocol_is_trivial():
    model = ramped_model("harmonic", omega_i=1.0, omega_f=1.0,
                         shape="constant")
    report = verify_identity(model, 1.0, 1.0, DOMAIN, SET)
    assert report.lhs == pytest.approx(1.0, abs=1e-8)
    assert report.rhs == pytest.approx(1.0, abs=1e-8)
    assert report.failures == []


def test_identity_harmonic_ramp_closed_form():
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    report = verify_identity(model, 1.0, 1.0, DOMAIN, SET)
    rhs_exact = np.tanh(0.5) / np.tanh(1.0)
    assert report.residual < 1e-6
    assert report.rhs == pytest.approx(rhs_exact, rel=1e-6)
    assert report.lhs == pytest.approx(rhs_exact, rel=1e-6)
    assert report.Z_i == pytest.approx(z_harmonic(1.0, 1.0, 1.0), rel=1e-7)
    assert report.Z_f == pytest.approx(z_harmonic(1.0, 1.0, 2.0), rel=1e-6)


def test_identity_reversed_protocol_inverts_ratio():
    fwd = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    rev = ramped_model("harmonic", omega_i=2.0, omega_f=1.0)
    r_fwd = verify_identity(fwd, 1.0, 1.0, DOMAIN, SET)
    r_rev = verify_identity(rev, 1.0, 1.0, DOMAIN, SET)
    assert r_fwd.rhs * r_rev.rhs == pytest.approx(1.0, abs=1e-6)



# on this domain both ratios land within 2e-7 of the closed form at the
# step counts below; p_max = 8 would truncate the reversed drive's
# propagated weight at the 1e-6 level
REVERSAL_DOMAIN = QuadratureDomain(p_max=9.0, q_max=7.5, n_p=40, n_q=40)


@pytest.mark.parametrize("shape", ["linear", "smoothstep"])
def test_protocol_reversal_inverts_the_ratio(shape):
    # Z_f / Z_i depends only on the end frequencies, so running the drive
    # backwards (protocol.reversed()) must invert it, whatever the shape
    fwd = ramped_model("harmonic", omega_i=1.0, omega_f=2.0, shape=shape)
    rev = replace(fwd, protocol=fwd.protocol.reversed())
    settings = IntegratorSettings(n_sigma_steps=32, n_time_steps=8)
    r_fwd = verify_identity(fwd, 1.0, 1.0, REVERSAL_DOMAIN, settings)
    r_rev = verify_identity(rev, 1.0, 1.0, REVERSAL_DOMAIN, settings)
    ratio = np.tanh(0.5) / np.tanh(1.0)
    assert r_fwd.failures == [] and r_rev.failures == []
    assert r_fwd.rhs * r_rev.rhs == pytest.approx(1.0, abs=1e-6)
    assert r_fwd.rhs == pytest.approx(ratio, rel=1e-6)
    assert r_rev.rhs == pytest.approx(1.0 / ratio, rel=1e-6)

def test_identity_depends_only_on_beta_hbar_product():
    # same beta*hbar and frequencies leave the arc geometry unchanged, so
    # the ratio must agree between (beta, hbar) splittings
    m1 = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    r1 = verify_identity(m1, 1.0, 1.0, DOMAIN, SET)
    r2 = verify_identity(m1, 0.5, 2.0, DOMAIN, SET)
    assert r1.rhs == pytest.approx(r2.rhs, rel=1e-6)


def test_monte_carlo_mode_is_seeded_and_consistent():
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    dom = QuadratureDomain(p_max=10.5, q_max=10.5, n_p=32, n_q=32)
    settings = IntegratorSettings(n_sigma_steps=48, n_time_steps=16)
    rep1 = verify_identity(model, 1.0, 1.0, dom, settings, monte_carlo=True,
                           mc_samples=400, seed=123)
    rep2 = verify_identity(model, 1.0, 1.0, dom, settings, monte_carlo=True,
                           mc_samples=400, seed=123)
    assert rep1.monte_carlo == rep2.monte_carlo
    assert rep1.monte_carlo["samples"] == 400
    # a few-hundred-sample average lands within several percent
    assert rep1.monte_carlo["lhs"] == pytest.approx(rep1.rhs, rel=0.1)


def test_prefactor_report_exposes_correction():
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    dom = QuadratureDomain(p_max=10.5, q_max=10.5, n_p=48, n_q=48)
    settings = IntegratorSettings(n_sigma_steps=48, n_time_steps=16)
    report = verify_identity(model, 1.0, 1.0, dom, settings,
                             with_prefactor=True)
    pref = report.prefactor_on
    assert pref is not None
    # harmonic prefactor is constant in phase space, so the corrected
    # partitions are the quantum traces: Z = 1 / (2 sinh(b h w / 2))
    assert pref["Z_i"] == pytest.approx(0.5 / np.sinh(0.5), rel=1e-5)
    assert pref["Z_f"] == pytest.approx(0.5 / np.sinh(1.0), rel=1e-5)
    # the leading-order identity closes without prefactors; switching them
    # on exposes exactly the cosh ratio of the endpoint prefactors
    expected_correction = np.cosh(1.0) / np.cosh(0.5) - 1.0
    assert pref["residual"] == pytest.approx(expected_correction, abs=1e-3)
    assert report.residual < 1e-6


def test_prefactor_report_reuses_the_t_i_solves():
    # the t_i partition and weights come from the work march's first node;
    # rebuild them from separate t_i solves and compare bit for bit
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    dom = QuadratureDomain(p_max=10.5, q_max=10.5, n_p=12, n_q=12)
    settings = IntegratorSettings(n_sigma_steps=32, n_time_steps=8)
    pref = verify_identity(model, 1.0, 1.0, dom, settings,
                           with_prefactor=True).prefactor_on
    P, Q, W = dom.nodes()
    zn_i = partition(model, 0.0, 1.0, 1.0, dom, settings,
                     check_domain=False, with_prefactor=True)
    zn_f = partition(model, 1.0, 1.0, 1.0, dom, settings,
                     check_domain=False, with_prefactor=True)
    out = _pseudo_work_batch(model, 0.0, 1.0, P, Q, 1.0, settings,
                             nodes=_gauss_legendre_nodes(0.0, 1.0))
    _, arcs, _, _, _ = _pseudo_hamiltonian_batch(model, 0.0, P, Q, 1.0,
                                                 settings)
    n_weight = _prefactor_batch(model, arcs, settings) / (2 * np.pi)
    lhs = float(np.sum(W * n_weight * np.exp(-(out["g_initial"] + out["W"])))
                / zn_i)
    assert pref == {"Z_i": zn_i, "Z_f": zn_f, "lhs": lhs, "rhs": zn_f / zn_i,
                    "residual": abs(lhs - zn_f / zn_i) / abs(zn_f / zn_i)}


def test_identity_marches_t_i_gauss_legendre_times_and_t_f(monkeypatch):
    # each of the 18 work nodes is solved once, in order: t_i (G_initial),
    # the 16 Gauss-Legendre times (power) and t_f (G_prop)
    calls = []
    original = pseudowork._invert_map_batch

    def counted(model, t_i, t_f, *args, **kwargs):
        calls.append(t_f)
        return original(model, t_i, t_f, *args, **kwargs)

    monkeypatch.setattr(pseudowork, "_invert_map_batch", counted)
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    dom = QuadratureDomain(p_max=10.5, q_max=10.5, n_p=6, n_q=6)
    report = verify_identity(model, 1.0, 1.0, dom,
                             IntegratorSettings(n_sigma_steps=32,
                                                n_time_steps=8))
    times, _ = _gauss_legendre_nodes(0.0, 1.0)
    assert len(calls) == 18
    assert calls == list(times)
    assert calls[0] == 0.0 and calls[-1] == 1.0
    assert report.diagnostics["work_nodes"] == 18
    assert report.diagnostics["node_solves"] == 18 * 36


def test_report_serialization_fields():
    model = ramped_model("harmonic", omega_i=1.0, omega_f=1.0,
                         shape="constant")
    dom = QuadratureDomain(p_max=10.5, q_max=10.5, n_p=24, n_q=24)
    report = verify_identity(model, 1.0, 1.0, dom,
                             IntegratorSettings(n_sigma_steps=48,
                                                n_time_steps=8))
    d = report.to_dict()
    assert set(d) == {"Z_i", "Z_f", "lhs", "rhs", "residual",
                      "prefactor_on", "failures", "diagnostics"}
    assert d["Z_i"] > 0 and d["Z_f"] > 0 and np.isfinite(d["residual"])
