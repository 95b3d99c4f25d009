from dataclasses import replace

import numpy as np
import pytest

from scjarz import jarzynski, pseudowork, stationary
from scjarz.dynamics import ImaginaryArc, IntegratorSettings
from scjarz.pseudowork import _gauss_legendre_nodes, _pseudo_work_batch
from scjarz.stationary import _pseudo_hamiltonian_batch
from scjarz.errors import DomainTooSmall, IntegratorDiverged, NewtonDiverged
from scjarz.jarzynski import QuadratureDomain, partition, verify_identity
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


@pytest.mark.parametrize("rule", ["gauss-legendre", "trapezoid"])
def test_ring_is_the_outermost_nodes(rule):
    dom = QuadratureDomain(p_max=2.0, q_max=3.0, n_p=5, n_q=4, rule=rule)
    P, Q, _ = dom.nodes()
    ring = dom.ring()
    edge = (np.abs(P) == np.max(np.abs(P))) | (np.abs(Q) == np.max(np.abs(Q)))
    assert np.array_equal(ring, edge)
    assert np.count_nonzero(ring) == 2 * 5 + 2 * 4 - 4


def test_domain_check_reads_the_ring_of_the_given_weights():
    # a pure check: a failed ring node or a ring weight above the tolerance
    # raises, naming the end; a failed interior node is left to the caller
    dom = QuadratureDomain(p_max=1.0, q_max=1.0, n_p=3, n_q=3,
                           boundary_weight_tol=1e-4)
    g = np.full(9, 10.0)
    g[4] = 0.0                          # the center, the one interior node
    jarzynski._check_domain(dom, g, 1.0, "t_i")
    with pytest.raises(DomainTooSmall, match="ratio 6.738e-03 at t_f"):
        jarzynski._check_domain(dom, g, 0.5, "t_f")
    g[0] = np.nan
    with pytest.raises(DomainTooSmall, match="1 outermost node.* at t_f"):
        jarzynski._check_domain(dom, g, 1.0, "t_f")
    g[0], g[4] = 10.0, np.nan
    with pytest.raises(DomainTooSmall, match="ratio 1.000e\\+00 at t_i"):
        jarzynski._check_domain(dom, g, 1.0, "t_i")


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


def test_identity_z_f_at_equal_times():
    # a zero-length window marches the one node t_i: Z_f is the static
    # partition there, and Z_i to the last ulp (Z_i sums the area form of
    # G, Z_f the total-action form)
    model = harmonic_model(t_i=0.0, t_f=0.0)
    rep = verify_identity(model, 1.0, 1.0, DOMAIN, SET)
    assert not rep.failures
    b = partition(ramped_model("harmonic", omega_i=1.0, omega_f=2.0), 0.0,
                  1.0, 1.0, DOMAIN, SET)
    assert rep.Z_f == pytest.approx(b, rel=1e-10)
    assert rep.Z_f == pytest.approx(rep.Z_i, rel=1e-12)


def test_identity_z_f_is_unitarily_invariant_harmonic():
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    rep = verify_identity(model, 1.0, 1.0, DOMAIN, SET)
    assert not rep.failures
    z_direct = partition(model, 1.0, 1.0, 1.0, DOMAIN, SET)
    assert rep.Z_f == pytest.approx(z_direct, rel=1e-7)
    assert z_direct == pytest.approx(z_harmonic(1.0, 1.0, 2.0), rel=1e-8)


# the quartic construction at hbar*beta = 1 hits its first caustic inside
# the thermally weighted region, so driven quartic runs use hbar = 0.5
QUARTIC_DOMAIN = QuadratureDomain(p_max=7.5, q_max=4.5, n_p=48, n_q=48)
QUARTIC_HBAR = 0.5


def test_identity_z_f_quartic_trace_identity():
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    rep = verify_identity(model, 1.0, QUARTIC_HBAR, QUARTIC_DOMAIN, SET)
    assert not rep.failures
    z_direct = partition(model, 1.0, 1.0, QUARTIC_HBAR, QUARTIC_DOMAIN, SET)
    assert abs(rep.Z_f - z_direct) / z_direct < 1e-3


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


# the reversed drive (omega 2 -> 1) softens the oscillator, so its
# propagated weight exp(-beta G_prop) reaches further out in p than the
# t_i weight: on DOMAIN its t_f edge-to-peak ratio is 1.6e-9, on this one
# 3.5e-12
WIDE_DOMAIN = QuadratureDomain(p_max=12.0, q_max=10.5, n_p=64, n_q=64)


def test_identity_reversed_protocol_inverts_ratio():
    fwd = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    rev = ramped_model("harmonic", omega_i=2.0, omega_f=1.0)
    r_fwd = verify_identity(fwd, 1.0, 1.0, DOMAIN, SET)
    r_rev = verify_identity(rev, 1.0, 1.0, WIDE_DOMAIN, SET)
    assert r_fwd.rhs * r_rev.rhs == pytest.approx(1.0, abs=1e-6)


def test_reversed_ramp_truncation_is_caught_at_t_f():
    # at p_max = 8 the t_i weight passes (2.8e-11) but the propagated one
    # does not (8.1e-6), and its rhs would miss the closed form by 1.2e-6
    rev = ramped_model("harmonic", omega_i=2.0, omega_f=1.0)
    with pytest.raises(DomainTooSmall, match="at t_f exceeds"):
        verify_identity(rev, 1.0, 1.0, QuadratureDomain(8.0, 7.5, 48, 48),
                        SET)
    report = verify_identity(rev, 1.0, 1.0,
                             QuadratureDomain(12.0, 7.5, 48, 48), SET)
    assert abs(report.rhs - np.tanh(1.0) / np.tanh(0.5)) < 1e-6


# on this domain both ratios land within 3e-7 of the closed form at the
# step counts below; the reversed drive's t_f edge-to-peak ratio is 3.5e-12
# (linear) and 1.7e-11 (smoothstep), where p_max = 11.5 reads 1.3e-10
REVERSAL_DOMAIN = QuadratureDomain(p_max=12.0, q_max=7.5, n_p=40, n_q=40)


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
    assert_monte_carlo_agrees(rep1, 400)
    assert rep1.monte_carlo["diagnostics"]["newton_iters"] == 0


MC_KEYS = {"lhs", "std_error", "ess", "samples", "failed",
           "requested_samples", "seed", "diagnostics"}


def assert_monte_carlo_agrees(report, n_samples):
    # the importance-sampling estimate lies within 3 standard errors of the
    # quadrature lhs, with every sample marched and weighed
    mc = report.monte_carlo
    assert set(mc) == MC_KEYS
    assert abs(mc["lhs"] - report.lhs) <= 3.0 * mc["std_error"]
    assert 0.0 < mc["ess"] <= n_samples
    assert mc["failed"] == 0 and mc["samples"] == n_samples
    assert mc["requested_samples"] == n_samples
    # the sample march's own counts: one solve per (sample, time node)
    assert set(mc["diagnostics"]) == {"work_nodes", "node_solves",
                                      "newton_iters"}
    assert mc["diagnostics"]["work_nodes"] == 18
    assert mc["diagnostics"]["node_solves"] == 18 * n_samples


def test_monte_carlo_mode_quartic():
    # the proposal is fitted to the quartic t_i weight, which is not
    # Gaussian, so the sample weights vary and ess < samples
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    dom = QuadratureDomain(p_max=7.5, q_max=4.5, n_p=24, n_q=24)
    settings = IntegratorSettings(n_sigma_steps=32, n_time_steps=16)
    rep = verify_identity(model, 1.0, 0.5, dom, settings, monte_carlo=True,
                          mc_samples=300, seed=0)
    assert_monte_carlo_agrees(rep, 300)
    assert rep.monte_carlo["ess"] < 300
    assert rep.monte_carlo["lhs"] == pytest.approx(rep.rhs, rel=0.1)


def test_monte_carlo_marches_each_sample_once(monkeypatch):
    # beyond the quadrature march, --mc runs one march over the samples
    # and no other solve; the domain check reads the march's own weights
    marches, statics = [], []
    original_march = jarzynski._pseudo_work_batch
    original_static = jarzynski._pseudo_hamiltonian_batch

    def march(model, t_i, t_f, tp, *args, **kwargs):
        marches.append(tp.size)
        return original_march(model, t_i, t_f, tp, *args, **kwargs)

    def static(model, t, tp, *args, **kwargs):
        statics.append(tp.size)
        return original_static(model, t, tp, *args, **kwargs)

    monkeypatch.setattr(jarzynski, "_pseudo_work_batch", march)
    monkeypatch.setattr(jarzynski, "_pseudo_hamiltonian_batch", static)
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    dom = QuadratureDomain(p_max=10.5, q_max=10.5, n_p=6, n_q=6)
    verify_identity(model, 1.0, 1.0, dom,
                    IntegratorSettings(n_sigma_steps=32, n_time_steps=8),
                    monte_carlo=True, mc_samples=50, seed=3)
    assert marches == [36, 50]
    assert statics == []


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
                     with_prefactor=True)
    zn_f = partition(model, 1.0, 1.0, 1.0, dom, settings,
                     with_prefactor=True)
    out = _pseudo_work_batch(model, 0.0, 1.0, P, Q, 1.0, settings,
                             nodes=_gauss_legendre_nodes(0.0, 1.0))
    solve, _, _ = _pseudo_hamiltonian_batch(model, 0.0, P, Q, 1.0, settings)
    n_weight = solve.arcs.prefactor / (2 * np.pi)
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
                      "prefactor_on", "failures", "diagnostics",
                      "monte_carlo", "n_nodes"}
    assert d["Z_i"] > 0 and d["Z_f"] > 0 and np.isfinite(d["residual"])


def test_non_finite_prefactor_raises_with_its_column_count(monkeypatch):
    # at hbar*beta = 3 the quartic arcs through the targets (+-5, +-6)
    # solve, and their prefactors, taken from the solve's half-flow
    # monodromy, are finite (an end-to-end flow of these arcs overflows)
    # every node of the 2x2 corner grid is on its outermost ring, so the
    # domain check is switched off
    monkeypatch.setattr(jarzynski, "_check_domain", lambda *args: None)
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    settings = IntegratorSettings(n_sigma_steps=64, n_time_steps=64)
    corners = QuadratureDomain(5.0, 6.0, 2, 2, "trapezoid")
    z = partition(model, 0.0, 1.0, 3.0, corners, settings,
                  with_prefactor=True)
    assert np.isfinite(z) and z > 0.0
    # a partition cannot mark a column, so a non-finite prefactor raises
    # and says how many there are; neither can the identity report, whose
    # t_i prefactors come from the march.  A NaN stands in column 3 of
    # every prefactor batch
    formula = ImaginaryArc.prefactor.func

    def fourth_nan(arcs):
        geom = formula(arcs)
        geom[3] = np.nan
        return geom

    monkeypatch.setattr(ImaginaryArc, "prefactor", property(fourth_nan))
    with pytest.raises(IntegratorDiverged,
                       match="non-finite prefactor in 1 of 4 column"):
        partition(model, 0.0, 1.0, 3.0, corners, settings,
                  with_prefactor=True)
    domain = QuadratureDomain(p_max=10.5, q_max=10.5, n_p=4, n_q=4)
    with pytest.raises(IntegratorDiverged,
                       match="non-finite prefactor in 1 of 16 column"):
        verify_identity(ramped_model("harmonic", omega_i=1.0, omega_f=2.0),
                        1.0, 1.0, domain, SET, with_prefactor=True)


def test_failures_carry_the_time_of_their_failed_node(monkeypatch):
    # quartic ramp at hbar*beta = 1 on a 4x4 trapezoid grid over 6 x 4.5:
    # the starts (-6, -1.5) and (6, 1.5) solve at t_i and fail at work
    # node 9 of the 18, inside the ramp, and each failure names that
    # node's time.  Both are outermost nodes, so the domain check at t_f
    # would refuse the domain first; it is switched off
    monkeypatch.setattr(jarzynski, "_check_domain", lambda *args: None)
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    domain = QuadratureDomain(6.0, 4.5, 4, 4, "trapezoid")
    report = verify_identity(model, 1.0, 1.0, domain,
                             IntegratorSettings(n_sigma_steps=64,
                                                n_time_steps=64),
                             failure_budget=0.2)
    t_fail = float(_gauss_legendre_nodes(0.0, 1.0)[0][9])
    assert 0.0 < t_fail < 1.0
    assert report.to_dict()["failures"] == [
        {"p": -6.0, "q": -1.5, "t": t_fail, "reason": "diverged"},
        {"p": 6.0, "q": 1.5, "t": t_fail, "reason": "diverged"}]


def test_failure_budget_refuses_a_caustic_grid(monkeypatch):
    # the caustic grid (quartic ramp at hbar*beta = 1, 32 sigma and time
    # steps) shrunk to 8x8 trapezoid starts over 6 x 4.5: 8 of the 64
    # stall in the march, far more than 1%, so the budget itself raises
    # once the domain check is switched off.  With it on, the domain is
    # refused first, at t_i (edge-to-peak weight 1.8e-7)
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    domain = QuadratureDomain(6.0, 4.5, 8, 8, "trapezoid")
    settings = IntegratorSettings(n_sigma_steps=32, n_time_steps=32)
    with pytest.raises(DomainTooSmall, match="ratio 1.847e-07 at t_i"):
        verify_identity(model, 1.0, 1.0, domain, settings)
    monkeypatch.setattr(jarzynski, "_check_domain", lambda *args: None)
    with pytest.raises(NewtonDiverged,
                       match=r"^8 of 64 quadrature nodes failed "
                             r"\(> 1% budget\)$"):
        verify_identity(model, 1.0, 1.0, domain, settings)


def test_domain_check_runs_no_solve(monkeypatch):
    # the identity solves once per march node (18), --prefactor once more
    # for its static t_f partition, and a partition once
    calls = []
    original = stationary._invert_map_batch

    def counted(model, t_i, t_f, *args, **kwargs):
        calls.append(t_f)
        return original(model, t_i, t_f, *args, **kwargs)

    monkeypatch.setattr(pseudowork, "_invert_map_batch", counted)
    monkeypatch.setattr(stationary, "_invert_map_batch", counted)
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    dom = QuadratureDomain(p_max=10.5, q_max=10.5, n_p=6, n_q=6)
    settings = IntegratorSettings(n_sigma_steps=32, n_time_steps=8)
    verify_identity(model, 1.0, 1.0, dom, settings)
    assert len(calls) == 18
    calls.clear()
    verify_identity(model, 1.0, 1.0, dom, settings, with_prefactor=True)
    assert len(calls) == 19 and calls[-1] == 1.0
    calls.clear()
    partition(model, 0.0, 1.0, 1.0, dom, settings)
    assert calls == [0.0]
