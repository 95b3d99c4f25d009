import functools
import json
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scjarz import dynamics, jarzynski, oracle, pseudowork, stationary
from scjarz.config import load_config
from scjarz.dynamics import ImaginaryArc, IntegratorSettings
from scjarz.pseudowork import (_WORK_NODES, _gauss_legendre_nodes,
                               _pseudo_work_batch)
from scjarz.stationary import _pseudo_hamiltonian_batch
from scjarz.errors import DomainTooSmall, IntegratorDiverged, NewtonDiverged
from scjarz.jarzynski import QuadratureDomain, partition, verify_identity
from scjarz.models import harmonic_model, ramped_model

from references import linear_flow_matrix

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


def test_quadrature_nodes_integrate_gaussian():
    dom = QuadratureDomain(p_max=8.0, q_max=8.0, n_p=48, n_q=48)
    P, Q, W = dom.nodes()
    val = np.sum(W * np.exp(-0.5 * (P**2 + Q**2)))
    assert val == pytest.approx(2 * np.pi, rel=1e-12)


def test_nodes_compute_each_distinct_legendre_rule_once(monkeypatch):
    # a square grid shares one rule; the nodes are the per-axis rules'
    # tensor product bit for bit
    calls = []
    rule = jarzynski.leggauss
    monkeypatch.setattr(jarzynski, "leggauss",
                        lambda n: calls.append(n) or rule(n))
    for n_p, n_q, counts in ((6, 6, [6]), (6, 4, [4, 6])):
        calls.clear()
        P, Q, W = QuadratureDomain(2.0, 3.0, n_p, n_q).nodes()
        assert sorted(calls) == counts
        (xp, wp), (xq, wq) = rule(n_p), rule(n_q)
        assert P.tobytes() == np.repeat(2.0 * xp, n_q).tobytes()
        assert Q.tobytes() == np.tile(3.0 * xq, n_p).tobytes()
        assert W.tobytes() == np.outer(2.0 * wp, 3.0 * wq).ravel().tobytes()


def test_small_domain_rejected():
    model = harmonic_model()
    small = QuadratureDomain(p_max=3.0, q_max=3.0, n_p=16, n_q=16)
    with pytest.raises(DomainTooSmall):
        partition(model, 0.0, 1.0, 1.0, small, SET)


def test_ring_is_the_outermost_nodes():
    dom = QuadratureDomain(p_max=2.0, q_max=3.0, n_p=5, n_q=4)
    P, Q, _ = dom.nodes()
    ring = dom.ring()
    edge = (np.abs(P) == np.max(np.abs(P))) | (np.abs(Q) == np.max(np.abs(Q)))
    assert np.array_equal(ring, edge)
    assert np.count_nonzero(ring) == 2 * 5 + 2 * 4 - 4


def test_domain_check_reads_the_ring_of_the_given_weights():
    # a pure check: a failed ring node or a ring weight above the tolerance
    # raises, naming the end; a failed interior node is left to the caller.
    # A passing check returns its ring-to-peak weight ratio
    dom = QuadratureDomain(p_max=1.0, q_max=1.0, n_p=3, n_q=3,
                           boundary_weight_tol=1e-4)
    g = np.full(9, 10.0)
    g[4] = 0.0                          # the center, the one interior node
    assert jarzynski._check_domain(dom, g, 1.0, "t_i") == float(np.exp(-10.0))
    with pytest.raises(DomainTooSmall, match="ratio 6.738e-03 at t_f"):
        jarzynski._check_domain(dom, g, 0.5, "t_f")
    g[0] = np.nan
    with pytest.raises(DomainTooSmall, match="1 outermost node.* at t_f"):
        jarzynski._check_domain(dom, g, 1.0, "t_f")
    g[0], g[4] = 10.0, np.nan
    with pytest.raises(DomainTooSmall, match="ratio 1.000e\\+00 at t_i"):
        jarzynski._check_domain(dom, g, 1.0, "t_i")


def test_identity_report_records_its_domain_certificates():
    # diagnostics carry the ring-to-peak ratio of each certified weight,
    # exp(-beta G_initial) at t_i and the propagated exp(-beta G_prop) at
    # t_f, which a full, unmirrored march of the same nodes gives directly
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    dom = QuadratureDomain(p_max=7.5, q_max=4.5, n_p=8, n_q=8)
    settings = IntegratorSettings(n_sigma_steps=32, n_time_steps=8)
    report = verify_identity(model, 1.0, 0.5, dom, settings)
    P, Q, _ = dom.nodes()
    out = _pseudo_work_batch(model, 0.0, 1.0, P, Q, 0.5, settings)
    ring = dom.ring()
    for end, key in (("t_i", "g_initial"), ("t_f", "g_propagated")):
        weight = np.exp(-out[key])
        ratio = report.diagnostics[f"ring_ratio_{end}"]
        assert ratio == pytest.approx(np.max(weight[ring]) / np.max(weight),
                                      rel=1e-12)
        assert 0.0 < ratio <= dom.boundary_weight_tol


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


def _traced_identity(name):
    """A shipped config, its identity report and the report's traced
    peak of numpy memory."""
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs"
                      / f"{name}.yaml")
    tracemalloc.start()
    try:
        report = verify_identity(cfg.model, cfg.beta, cfg.hbar, cfg.domain,
                                 cfg.settings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.failures == []
    return cfg, peak


def test_the_quartic_identity_march_holds_no_arc_or_leg_path():
    # every sum of the march (the arcs' p dq and power, the t_f leg's
    # action, W over the nodes) accumulates as it is formed, so no arc or
    # leg stores its path and no per-node array is kept: the identity on
    # configs/quartic_ramp.yaml peaks at 0.93 sets of its arcs'
    # (2, n + 1, B) state paths, B its mirrored half of the domain's
    # columns, in traced numpy memory (1.51 when the march kept nine
    # (nodes, B) arrays, 2.90 when every arc and the t_f leg stored theirs)
    cfg, peak = _traced_identity("quartic_ramp")
    columns = cfg.domain.n_p * cfg.domain.n_q // 2
    path_set = 2 * (cfg.settings.n_sigma_steps + 1) * columns * 16
    assert peak <= 1.2 * path_set, peak / path_set


def test_the_harmonic_identity_march_keeps_no_per_node_array():
    # W is summed as each node is solved, so the march's memory does not
    # grow with its _WORK_NODES + 2 nodes: the identity on
    # configs/harmonic_ramp.yaml peaks at 10.3 (nodes, B) float arrays, B
    # its mirrored half of the domain's columns, in traced numpy memory
    # (21.2 when the march kept the power, centers, endpoints, chord
    # midpoints, residuals and determinants of every node)
    cfg, peak = _traced_identity("harmonic_ramp")
    columns = cfg.domain.n_p * cfg.domain.n_q // 2
    per_node_array = (_WORK_NODES + 2) * columns * 8
    assert peak <= 14.0 * per_node_array, peak / per_node_array


@functools.lru_cache(maxsize=None)
def _small_domain_identity(name, n_sigma_steps, n_time_steps):
    """The identity of a shipped config on a 16x16 domain over the
    config's extent, at the given step counts."""
    cfg = load_config(Path(__file__).resolve().parent.parent / "configs"
                      / f"{name}.yaml")
    domain = QuadratureDomain(cfg.domain.p_max, cfg.domain.q_max, 16, 16)
    report = verify_identity(cfg.model, cfg.beta, cfg.hbar, domain,
                             IntegratorSettings(n_sigma_steps=n_sigma_steps,
                                                n_time_steps=n_time_steps))
    assert report.failures == []
    return report


@pytest.mark.parametrize("name, gaps", [
    ("quartic_ramp", ("work_gap_mean", "work_gap_max")),
    # the harmonic max gap's ratio per doubling falls to 11.4 from 64 to
    # 128 steps, so only its mean is held to RK4's order
    ("harmonic_ramp", ("work_gap_mean",)),
])
def test_identity_path_endpoint_gap_falls_at_rk4_order(name, gaps):
    # the path/endpoint gap |W - W_endpoint| / (1 + |W|) is time-step
    # error: doubling n_time_steps from 32 to 64 divides it by 16.0-16.3
    # (observed order 4.0), RK4's order
    coarse = _small_domain_identity(name, 64, 32)
    fine = _small_domain_identity(name, 64, 64)
    for key in gaps:
        order = np.log2(coarse.diagnostics[key] / fine.diagnostics[key])
        assert order >= 3.5, (key, order)


def test_quartic_identity_step_error_is_in_the_time_steps():
    # halving n_sigma_steps moves the quartic lhs by 1.2e-10, halving
    # n_time_steps by 1.35e-9: the step budget's error is in time
    ref = _small_domain_identity("quartic_ramp", 64, 64)
    half_time = _small_domain_identity("quartic_ramp", 64, 32)
    half_sigma = _small_domain_identity("quartic_ramp", 32, 64)
    assert (abs(half_sigma.lhs - ref.lhs)
            < 0.25 * abs(half_time.lhs - ref.lhs))


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


def exact_case_domain(model, beta, hbar):
    """A quadrature domain for a harmonic protocol, sized from its three
    weights exp(-beta z^T A z / 2) on z = (p, q): the static ones at t_i
    and t_f, A = (tanh(b) / b) diag(1/m, m w^2) with b = beta hbar w / 2,
    and the propagated one, A_f carried back by the classical flow M
    (G_prop(z) = G_f(M z)).  A softening ramp shears the propagated
    weight, so it is the widest in p.  Each half-width puts every form's
    edge below the ring tolerance (the smallest G over a line p = p_max
    is p_max^2 / (2 (A^-1)_pp)), with a 5% margin; each axis gets 4 nodes
    per narrowest conditional width 1 / sqrt(beta A_jj), and at least 16."""
    def form(t):
        w = model.protocol.omega(t)
        b = 0.5 * beta * hbar * w
        return np.tanh(b) / b * np.diag([1.0 / model.mass, model.mass * w * w])

    flow = linear_flow_matrix(model)
    a_f = form(model.protocol.t_f)
    forms = [form(model.protocol.t_i), a_f, flow.T @ a_f @ flow]
    tol = QuadratureDomain(1.0, 1.0).boundary_weight_tol
    half = 1.05 * np.max([np.sqrt(-2.0 * np.log(tol) / beta
                                  * np.diag(np.linalg.inv(a)))
                          for a in forms], axis=0)
    narrow = np.max([np.sqrt(beta * np.diag(a)) for a in forms], axis=0)
    n_p, n_q = np.maximum(16, np.ceil(4.0 * half * narrow)).astype(int)
    return QuadratureDomain(p_max=float(half[0]), q_max=float(half[1]),
                            n_p=int(n_p), n_q=int(n_q))


# a sweep of 300 random protocols and the 16 corners of the ranges below
# put lhs and rhs within 8.8e-8 (relative) of the tanh ratio, worst at the
# corner 2.5 -> 0.5, hbar*beta = 2 (smoothstep), and the prefactor rhs
# within 3.1e-9 of the sinh ratio
EXACT_CASE_SET = IntegratorSettings(n_sigma_steps=128, n_time_steps=64)


@settings(max_examples=25, deadline=None)
@given(st.floats(0.5, 2.5), st.floats(0.5, 2.5), st.floats(0.25, 2.0),
       st.sampled_from(["linear", "smoothstep"]))
@example(2.5, 0.5, 2.0, "smoothstep")
def test_harmonic_identity_is_exact_over_protocols(omega_i, omega_f,
                                                   hbar_beta, shape):
    # the paper's exactly solvable case: for every harmonic protocol the
    # semi-classical lhs and rhs are tanh(b_i) / tanh(b_f), and with the
    # prefactor the static ratio is the quantum sinh(b_i) / sinh(b_f),
    # b = beta hbar w / 2; a DomainTooSmall here fails the test
    model = ramped_model("harmonic", omega_i=omega_i, omega_f=omega_f,
                         shape=shape)
    report = verify_identity(model, 1.0, hbar_beta,
                             exact_case_domain(model, 1.0, hbar_beta),
                             EXACT_CASE_SET, with_prefactor=True)
    b_i, b_f = 0.5 * hbar_beta * omega_i, 0.5 * hbar_beta * omega_f
    ratio = np.tanh(b_i) / np.tanh(b_f)
    assert report.failures == []
    assert report.lhs == pytest.approx(ratio, rel=1e-6)
    assert report.rhs == pytest.approx(ratio, rel=1e-6)
    assert report.prefactor_on["rhs"] == pytest.approx(
        np.sinh(b_i) / np.sinh(b_f), rel=3e-8)


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
    # the sample march's own counts, one solve per (sample, time node),
    # and its path/endpoint gap
    assert set(mc["diagnostics"]) == {"work_nodes", "node_solves",
                                      "newton_iters", "work_gap_mean",
                                      "work_gap_max"}
    assert mc["diagnostics"]["work_nodes"] == _WORK_NODES + 2
    assert mc["diagnostics"]["node_solves"] == (_WORK_NODES + 2) * n_samples


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
    # beyond the quadrature march (half of the point-symmetric 6x6 grid),
    # --mc runs one march over the samples and no other solve; the domain
    # check reads the march's own weights
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
    assert marches == [18, 50]
    assert statics == []


def test_quartic_identity_meets_the_quantum_ratio_at_second_order():
    # the paper's identity holds to leading order in hbar: on the quartic
    # ramp (lambda = 0.1, omega 1 -> 2, beta = 1) the lhs <exp(-beta W)>
    # misses the quantum ratio r_Q = Tr exp(-beta H_f) / Tr exp(-beta H_i)
    # by 7.80e-2, 1.98e-2 and 5.02e-3 (relative) at hbar = 0.5, 0.25 and
    # 0.125, observed orders 1.976 and 1.982; nearly all of the gap is the
    # missing prefactor
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    dom = QuadratureDomain(p_max=7.5, q_max=4.5, n_p=32, n_q=32)
    settings = IntegratorSettings(n_sigma_steps=32, n_time_steps=32)
    gaps = []
    for hbar in (0.5, 0.25, 0.125):
        report = verify_identity(model, 1.0, hbar, dom, settings)
        assert report.failures == []
        z_q = [oracle.thermal_fock("quartic", 1.0, omega, 0.1, 1.0, hbar,
                                   96).trace().real for omega in (1.0, 2.0)]
        r_q = z_q[1] / z_q[0]
        gaps.append(abs(report.lhs - r_q) / r_q)
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert np.all(orders >= 1.8), (gaps, orders)


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
    out = _pseudo_work_batch(model, 0.0, 1.0, P, Q, 1.0, settings)
    solve, _, _ = _pseudo_hamiltonian_batch(model, 0.0, P, Q, 1.0, settings)
    n_weight = solve.arcs.prefactor / (2 * np.pi)
    lhs = float(np.sum(W * n_weight * np.exp(-(out["g_initial"] + out["W"])))
                / zn_i)
    assert pref == {"Z_i": zn_i, "Z_f": zn_f, "lhs": lhs, "rhs": zn_f / zn_i,
                    "residual": abs(lhs - zn_f / zn_i) / abs(zn_f / zn_i)}


def test_identity_marches_t_i_gauss_legendre_times_and_t_f(monkeypatch):
    # each of the _WORK_NODES + 2 work nodes is solved once, in order: t_i
    # (G_initial), the _WORK_NODES Gauss-Legendre times (power) and t_f
    # (G_prop), for the 18 marched nodes of the point-symmetric 6x6 grid
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
    assert len(calls) == _WORK_NODES + 2
    assert calls == list(times)
    assert calls[0] == 0.0 and calls[-1] == 1.0
    assert report.diagnostics["work_nodes"] == _WORK_NODES + 2
    assert report.diagnostics["node_solves"] == (_WORK_NODES + 2) * 18
    assert report.diagnostics["mirrored_nodes"] == 18


def assert_mirror_is_the_full_march(model, hbar, domain, settings):
    """The identity's march of ``domain`` against a march of every node:
    the times and each per-start result bitwise equal (NaN included) and
    the same failures.  Returns the number of failed nodes."""
    P, Q, _ = domain.nodes()
    full = _pseudo_work_batch(model, 0.0, 1.0, P, Q, hbar, settings)
    mirrored_march, marched = jarzynski._mirrored_march, []

    def recorded(*args):
        marched.append(mirrored_march(*args))
        return marched[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jarzynski, "_check_domain", lambda *args: None)
        mp.setattr(jarzynski, "_mirrored_march", recorded)
        mp.setattr(jarzynski, "_FAILURE_BUDGET", 1.0)
        report = verify_identity(model, 1.0, hbar, domain, settings)
    (out, counts), = marched
    assert counts["mirrored_nodes"] == P.size // 2
    assert counts["node_solves"] < full["node_solves"]
    assert set(out) == {"times", *jarzynski._PER_START}
    for name, value in out.items():
        assert full[name].tobytes() == value.tobytes(), name
    assert report.failures == jarzynski._collect_failures(
        P, Q, full["status"], full["times"][full["last_node"]])
    return len(report.failures)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([0.0, 0.05, 0.1]), st.integers(2, 7),
       st.integers(2, 7), st.floats(2.0, 6.0), st.floats(2.0, 4.5),
       st.floats(0.25, 1.0))
def test_mirrored_march_is_the_full_march(lam, n_p, n_q, p_max, q_max,
                                          hbar):
    # both model families are even in z = (p, q), so on a point-symmetric
    # Gauss-Legendre grid the filled half is what marching it would give
    model = ramped_model("quartic" if lam else "harmonic", omega_i=1.0,
                         omega_f=2.0, quartic_lambda=lam)
    assert_mirror_is_the_full_march(
        model, hbar, QuadratureDomain(p_max, q_max, n_p, n_q),
        IntegratorSettings(n_sigma_steps=16, n_time_steps=8))


def test_mirrored_march_keeps_caustic_failures():
    # quartic ramp at hbar*beta = 1 on an odd 15x13 grid over 6 x 4.5:
    # 20 starts stall in the march, in partner pairs, and the middle node
    # is its own partner
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    assert assert_mirror_is_the_full_march(
        model, 1.0, QuadratureDomain(6.0, 4.5, 15, 13),
        IntegratorSettings(n_sigma_steps=32, n_time_steps=32)) == 20


def assert_partition_is_the_full_sum(model, t, hbar, domain, settings):
    """``partition`` against a static solve of every node, with and
    without the prefactor: the same sum to the last bit, or the same
    refusal.  Returns the number of failed nodes."""
    P, Q, W = domain.nodes()
    solve, g, _ = _pseudo_hamiltonian_batch(model, t, P, Q, hbar, settings)
    failures = jarzynski._collect_failures(P, Q, solve.status, t)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jarzynski, "_check_domain", lambda *args: None)
        for with_prefactor in (False, True):
            if failures:
                message = (f"partition lost {len(failures)} node(s); "
                           f"first: {failures[0]}")
                with pytest.raises(NewtonDiverged) as exc:
                    partition(model, t, 1.0, hbar, domain, settings,
                              with_prefactor)
                assert str(exc.value) == message
                continue
            weight = np.exp(-g)
            if with_prefactor:
                weight = weight * solve.arcs.prefactor / (2.0 * np.pi * hbar)
            z = partition(model, t, 1.0, hbar, domain, settings,
                          with_prefactor)
            assert z.hex() == float(np.sum(W * weight)).hex()
    return len(failures)


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([0.0, 0.05, 0.1]), st.integers(2, 7),
       st.integers(2, 7), st.floats(2.0, 6.0), st.floats(2.0, 4.5),
       st.floats(0.25, 1.0))
def test_mirrored_partition_is_the_full_partition(lam, n_p, n_q, p_max,
                                                  q_max, hbar):
    # the static twin of the mirrored march: partition solves half of the
    # point-symmetric grid, at either end of the ramp, and fills the rest
    model = ramped_model("quartic" if lam else "harmonic", omega_i=1.0,
                         omega_f=2.0, quartic_lambda=lam)
    for t in (0.0, 1.0):
        assert_partition_is_the_full_sum(
            model, t, hbar, QuadratureDomain(p_max, q_max, n_p, n_q),
            IntegratorSettings(n_sigma_steps=16, n_time_steps=8))


def test_mirrored_partition_counts_every_lost_node():
    # quartic at hbar*beta = 3 on a 13x13 grid over [-6, 6]^2: 108 static
    # solves fail, in partner pairs, and the refusal counts and names them
    # as a solve of every node would
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    assert assert_partition_is_the_full_sum(
        model, 0.0, 3.0, QuadratureDomain(6.0, 6.0, 13, 13),
        IntegratorSettings(n_sigma_steps=16, n_time_steps=8)) == 108


def test_gauss_legendre_grids_are_point_symmetric():
    # the identity marches half of every grid and fills the rest from
    # node N-1-k, the point reflection of node k; a numpy whose leggauss
    # lost that symmetry, or a node order that broke it on non-square
    # grids, would fill wrong columns
    shapes = [(n, n) for n in range(2, 129)] + [(48, 64), (7, 4), (2, 9)]
    for n_p, n_q in shapes:
        P, Q, _ = QuadratureDomain(p_max=7.5, q_max=4.5, n_p=n_p,
                                   n_q=n_q).nodes()
        assert np.array_equal(P[::-1], -P), (n_p, n_q)
        assert np.array_equal(Q[::-1], -Q), (n_p, n_q)


def test_work_gap_is_the_path_endpoint_gap_of_the_march():
    # the identity's own consistency residual, from every node's W and
    # W_endpoint: the Boltzmann-weighted mean over the nodes and the
    # maximum; the Monte Carlo block reports its sample march's gap
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    dom = QuadratureDomain(p_max=7.5, q_max=4.5, n_p=8, n_q=8)
    settings = IntegratorSettings(n_sigma_steps=32, n_time_steps=8)
    report = verify_identity(model, 1.0, 0.5, dom, settings,
                             monte_carlo=True, mc_samples=40, seed=0)
    P, Q, W = dom.nodes()
    out = _pseudo_work_batch(model, 0.0, 1.0, P, Q, 0.5, settings)
    gap = np.abs(out["W"] - out["W_endpoint"]) / (1.0 + np.abs(out["W"]))
    weight = W * np.exp(-out["g_initial"])
    assert report.failures == []
    assert report.diagnostics["work_gap_mean"] == float(
        np.sum(weight * gap) / np.sum(weight))
    assert report.diagnostics["work_gap_max"] == float(np.max(gap))
    mc = report.monte_carlo["diagnostics"]
    assert 0.0 < mc["work_gap_mean"] <= mc["work_gap_max"]


def test_identity_report_is_the_same_with_the_linear_memo_cold_or_warm():
    # the memo only skips integrations: a harmonic report computed with
    # every width-1 flow already in it is the cold report byte for byte
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    dom = QuadratureDomain(p_max=10.5, q_max=10.5, n_p=16, n_q=16)
    settings = IntegratorSettings(n_sigma_steps=16, n_time_steps=16)
    memo = dynamics._linear_monodromy
    cold = verify_identity(model, 1.0, 1.0, dom, settings)
    misses = memo.cache_info().misses
    warm = verify_identity(model, 1.0, 1.0, dom, settings)
    assert memo.cache_info().misses == misses
    assert json.dumps(warm.to_dict()) == json.dumps(cold.to_dict())


def test_harmonic_march_forms_no_batch_wide_path(monkeypatch):
    # every sum a linear march reads is a quadratic form in the start, so
    # no monodromy application during the identity writes a sample axis
    # wider than one column; an arc's path, formed when it is read, is
    # bitwise the path the kernel's hook records for the same centers
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    dom = QuadratureDomain(p_max=10.5, q_max=10.5, n_p=8, n_q=8)
    settings = IntegratorSettings(n_sigma_steps=16, n_time_steps=16)
    widths, arcs = [], []
    apply, power = dynamics._apply_monodromy, pseudowork._pseudo_power_batch

    def applied(m_p, m_q, p0, q0, p, q):
        widths.append(p.shape[-1] if m_p.ndim > 2 else 0)
        apply(m_p, m_q, p0, q0, p, q)

    def recorded(batch):
        arcs.append(batch)
        return power(batch)

    monkeypatch.setattr(dynamics, "_apply_monodromy", applied)
    monkeypatch.setattr(pseudowork, "_pseudo_power_batch", recorded)
    report = verify_identity(model, 1.0, 1.0, dom, settings)
    assert report.failures == []
    assert widths and max(widths) <= 1
    assert len(arcs) == _WORK_NODES + 2
    n = settings.n_sigma_steps
    for batch in (arcs[0], arcs[-1]):
        assert batch.center_p.size == dom.n_p * dom.n_q // 2
        h = 0.5 / n
        path, record = dynamics._recorder(n, batch.center_p.shape)
        dynamics._rk4(model, 1j, -1j / model.mass, batch.t, 0.0,
                      batch.center_p, batch.center_q, h, n, sample=record)
        assert batch.p.tobytes() == path[0].tobytes()
        assert batch.q.tobytes() == path[1].tobytes()


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
    # monodromy, are finite (an end-to-end flow of these arcs overflows).
    # The 2x2 Gauss-Legendre grid over half-widths sqrt(3) (5, 6) has its
    # nodes there; each is on its outermost ring, so the domain check is
    # switched off
    monkeypatch.setattr(jarzynski, "_check_domain", lambda *args: None)
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    settings = IntegratorSettings(n_sigma_steps=64, n_time_steps=64)
    corners = QuadratureDomain(5.0 * 3 ** 0.5, 6.0 * 3 ** 0.5, 2, 2)
    P, Q, _ = corners.nodes()
    assert np.abs(P) == pytest.approx(np.full(4, 5.0), rel=1e-15)
    assert np.abs(Q) == pytest.approx(np.full(4, 6.0), rel=1e-15)
    z = partition(model, 0.0, 1.0, 3.0, corners, settings,
                  with_prefactor=True)
    assert np.isfinite(z) and z > 0.0
    # a partition cannot mark a column, so a non-finite prefactor raises
    # and says how many there are; neither can the identity report, whose
    # t_i prefactors come from the march.  A NaN stands in column 1 of
    # every prefactor batch.  Both solve half of their grid, so the NaN
    # also reaches column 1's partner: column 2 of the partition's 2x2
    # grid and column 14 of the identity's 4x4 grid
    formula = ImaginaryArc.prefactor.func

    def second_nan(arcs):
        geom = formula(arcs)
        geom[1] = np.nan
        return geom

    monkeypatch.setattr(ImaginaryArc, "prefactor", property(second_nan))
    with pytest.raises(IntegratorDiverged,
                       match="non-finite prefactor in 2 of 4 column"):
        partition(model, 0.0, 1.0, 3.0, corners, settings,
                  with_prefactor=True)
    domain = QuadratureDomain(p_max=10.5, q_max=10.5, n_p=4, n_q=4)
    with pytest.raises(IntegratorDiverged,
                       match="non-finite prefactor in 2 of 16 column"):
        verify_identity(ramped_model("harmonic", omega_i=1.0, omega_f=2.0),
                        1.0, 1.0, domain, SET, with_prefactor=True)


def test_failures_carry_the_time_of_their_failed_node(monkeypatch):
    # quartic ramp at hbar*beta = 1 on a 6x6 grid over 6 x 4.5: the
    # starts 2 and 8 (p at axis nodes 0 and 1, q at axis node 2) and
    # their partners 33 and 27 solve at t_i and fail inside the ramp, at
    # work nodes 7 and 9 of the 14, and each failure names its own
    # node's time.  Starts 2 and 33 are outermost nodes, so the domain
    # check at t_f would refuse the domain first; it is switched off
    monkeypatch.setattr(jarzynski, "_check_domain", lambda *args: None)
    monkeypatch.setattr(jarzynski, "_FAILURE_BUDGET", 0.2)
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    domain = QuadratureDomain(6.0, 4.5, 6, 6)
    report = verify_identity(model, 1.0, 1.0, domain,
                             IntegratorSettings(n_sigma_steps=64,
                                                n_time_steps=64))
    times = _gauss_legendre_nodes(0.0, 1.0)[0]
    assert 0.0 < times[7] < times[9] < 1.0
    P, Q, _ = domain.nodes()
    assert report.to_dict()["failures"] == [
        {"p": float(P[k]), "q": float(Q[k]), "t": float(times[j]),
         "reason": "diverged"} for k, j in [(2, 7), (8, 9), (27, 9),
                                            (33, 7)]]


def test_subnormal_window_failures_are_non_finite(monkeypatch):
    # the quartic ramp over [0, 5e-324] on configs/quartic_ramp.yaml's
    # domain at 12x12 nodes (hbar*beta = 0.5): the drive's rate overflows,
    # so every start's power at t_i is not finite and every node fails
    # there, non_finite.  The t_i weights are those of solved arcs and pass
    # the domain check; the budget then refuses, naming the reason, before
    # the t_f check could blame the domain for the lost nodes
    collected = []
    collect = jarzynski._collect_failures

    def recorded(*args):
        collected.extend(collect(*args))
        return collected

    monkeypatch.setattr(jarzynski, "_collect_failures", recorded)
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0, t_f=5e-324,
                         quartic_lambda=0.1)
    domain = QuadratureDomain(7.5, 4.5, 12, 12)
    with pytest.raises(NewtonDiverged,
                       match=r"^144 of 144 quadrature nodes failed "
                             r"\(> 1% budget\): 144 non_finite$"):
        verify_identity(model, 1.0, 0.5, domain,
                        IntegratorSettings(n_sigma_steps=32, n_time_steps=32))
    P, Q, _ = domain.nodes()
    assert collected == [{"p": float(p), "q": float(q), "t": 0.0,
                          "reason": "non_finite"} for p, q in zip(P, Q)]


def test_failure_budget_refuses_a_caustic_grid(monkeypatch):
    # the caustic grid (quartic ramp at hbar*beta = 1, 32 sigma and time
    # steps) shrunk to 8x8 starts over 6 x 4.5: 6 of the 64 stall in the
    # march, far more than 1%, so the budget itself raises once the
    # domain check is switched off.  With it on, the domain is refused
    # first, at t_i (edge-to-peak weight 3.6e-7)
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    domain = QuadratureDomain(6.0, 4.5, 8, 8)
    settings = IntegratorSettings(n_sigma_steps=32, n_time_steps=32)
    with pytest.raises(DomainTooSmall, match="ratio 3.568e-07 at t_i"):
        verify_identity(model, 1.0, 1.0, domain, settings)
    monkeypatch.setattr(jarzynski, "_check_domain", lambda *args: None)
    with pytest.raises(NewtonDiverged,
                       match=r"^6 of 64 quadrature nodes failed "
                             r"\(> 1% budget\): 6 diverged$"):
        verify_identity(model, 1.0, 1.0, domain, settings)


def test_domain_check_runs_no_solve(monkeypatch):
    # the identity solves once per march node (_WORK_NODES + 2),
    # --prefactor once more for its static t_f partition, and a partition
    # once; each solves the first ceil(N/2) nodes of the grid and mirrors
    # the rest
    calls, widths = [], []
    original = stationary._invert_map_batch

    def counted(model, t_i, t_f, tp, *args, **kwargs):
        calls.append(t_f)
        widths.append(tp.size)
        return original(model, t_i, t_f, tp, *args, **kwargs)

    monkeypatch.setattr(pseudowork, "_invert_map_batch", counted)
    monkeypatch.setattr(stationary, "_invert_map_batch", counted)
    model = ramped_model("harmonic", omega_i=1.0, omega_f=2.0)
    dom = QuadratureDomain(p_max=10.5, q_max=10.5, n_p=6, n_q=6)
    settings = IntegratorSettings(n_sigma_steps=32, n_time_steps=8)
    verify_identity(model, 1.0, 1.0, dom, settings)
    assert len(calls) == _WORK_NODES + 2
    calls.clear()
    widths.clear()
    verify_identity(model, 1.0, 1.0, dom, settings, with_prefactor=True)
    assert len(calls) == _WORK_NODES + 3 and calls[-1] == 1.0
    assert widths == [18] * (_WORK_NODES + 3)
    for n, width in ((6, 18), (5, 13)):
        calls.clear()
        widths.clear()
        partition(model, 0.0, 1.0, 1.0,
                  QuadratureDomain(p_max=10.5, q_max=10.5, n_p=n, n_q=n),
                  settings)
        assert calls == [0.0] and widths == [width]
