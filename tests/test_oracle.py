import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from scjarz.cli import _write_wigner
from scjarz.dynamics import IntegratorSettings
from scjarz.errors import GridTooNarrow, TruncationInsufficient
from scjarz.jarzynski import QuadratureDomain, partition
from scjarz.models import ramped_model
from scjarz import oracle
from scjarz.oracle import (FockOperator, WignerGrid, harmonic_closed_forms,
                           hermite_functions, ladder_operators,
                           ordering_pairing_check,
                           position_momentum_matrices, thermal_fock,
                           weyl_convention_audit, wigner_transform)

from references import fock_state_wigner, wigner_raw_gather


def projector(n, dim=8, hbar=1.0, mass=1.0, omega=1.0):
    mat = np.zeros((dim, dim), dtype=complex)
    mat[n, n] = 1.0
    return FockOperator(mat, hbar, mass, omega)


def test_thermal_trace_closed_form():
    # geometric series: Tr exp(-beta H) = 1 / (2 sinh(beta hbar w / 2));
    # at unit scales this is 0.9595173757...
    op = thermal_fock("harmonic", 1.0, 1.0, 0.0, 1.0, 1.0, 40)
    exact = 0.5 / np.sinh(0.5)
    assert op.trace().real == pytest.approx(exact, rel=1e-12)
    assert exact == pytest.approx(0.9595173757, abs=1e-9)


def test_thermal_beta_zero_fails_the_truncation_guard():
    # at beta = 0 every level has weight 1, so the top level holds 1/13 of
    # the trace whatever the cutoff: the guard, which is always on, refuses
    with pytest.raises(TruncationInsufficient,
                       match=r"^top-level occupation 7\.692e-02 >= 1e-10"):
        thermal_fock("harmonic", 1.0, 1.0, 0.0, 0.0, 1.0, 12)


def test_truncation_guard():
    with pytest.raises(TruncationInsufficient):
        thermal_fock("harmonic", 1.0, 1.0, 0.0, 1.0, 1.0, 10)


def test_quartic_reduces_to_harmonic_at_zero_coupling():
    a = thermal_fock("harmonic", 1.0, 1.0, 0.0, 1.0, 1.0, 48)
    b = thermal_fock("quartic", 1.0, 1.0, 0.0, 1.0, 1.0, 48)
    np.testing.assert_allclose(b.matrix, a.matrix, atol=1e-8)


def test_hermite_functions_are_orthonormal():
    x = np.linspace(-12, 12, 4001)
    psi = hermite_functions(30, x)
    dx = x[1] - x[0]
    gram = psi @ psi.T * dx
    np.testing.assert_allclose(gram, np.eye(31), atol=1e-7)


def test_ladder_operator_commutator():
    a, adag = ladder_operators(20)
    comm = a @ adag - adag @ a
    # canonical commutator holds below the truncation corner
    np.testing.assert_allclose(comm[:20, :20], np.eye(20), atol=1e-13)
    q, p = position_momentum_matrices(20, 1.0, 1.0, 1.0)
    qp_comm = q @ p - p @ q
    np.testing.assert_allclose(qp_comm[:20, :20], 1j * np.eye(20), atol=1e-13)


@pytest.mark.parametrize("n,sign_at_origin", [(0, 1.0), (1, -1.0)])
def test_fock_state_wigner_closed_forms(n, sign_at_origin):
    grid = wigner_transform(projector(n), q_max=10.0, n_q=256)
    pp, qq = np.meshgrid(grid.p, grid.q)
    exact = fock_state_wigner(n, pp, qq, 1.0, 1.0, 1.0)
    assert np.max(np.abs(grid.values - exact)) < 1e-8
    center = grid.values[128, 128]
    assert center == pytest.approx(sign_at_origin / np.pi, rel=1e-10)


def test_thermal_wigner_matches_closed_form_pointwise():
    forms = harmonic_closed_forms(1.0, 1.0, 1.0, 1.0)
    op = thermal_fock("harmonic", 1.0, 1.0, 0.0, 1.0, 1.0, 48)
    grid = wigner_transform(op, q_max=10.0, n_q=256)
    pp, qq = np.meshgrid(grid.p, grid.q)
    exact = forms.weyl_symbol(pp, qq)
    interior = (np.abs(pp) < 5.0) & (np.abs(qq) < 5.0)
    assert np.max(np.abs(grid.values - exact)[interior]) < 1e-6
    assert grid.imag_residual < 1e-10
    assert abs(grid.norm - op.trace().real) < 1e-6


def test_wigner_grid_doubling_is_stable():
    op = thermal_fock("harmonic", 1.0, 1.0, 0.0, 1.0, 1.0, 40)
    g1 = wigner_transform(op, q_max=10.0, n_q=256)
    g2 = wigner_transform(op, q_max=10.0, n_q=512)
    # the two grids share every other q node and a shifted block of p nodes
    np.testing.assert_allclose(g2.q[::2], g1.q, atol=1e-12)
    np.testing.assert_allclose(g2.p[128:384], g1.p, atol=1e-12)
    gap = np.max(np.abs(g2.values[::2, 128:384] - g1.values))
    assert gap < 1e-8


def test_grid_too_narrow_guard():
    op = thermal_fock("harmonic", 1.0, 1.0, 0.0, 1.0, 1.0, 64)
    with pytest.raises(GridTooNarrow):
        wigner_transform(op, q_max=4.0, n_q=128)


def test_wigner_transform_rejects_a_non_hermitian_operator():
    a, _ = ladder_operators(8)
    with pytest.raises(ValueError, match="Hermitian"):
        wigner_transform(FockOperator(a.astype(complex), 1.0, 1.0, 1.0),
                         q_max=10.0, n_q=256)


def audit(op_a, op_b, q_max, n_q):
    """The convention audit of two operators on their own Wigner grids."""
    return weyl_convention_audit(op_a, op_b,
                                 wigner_transform(op_a, q_max, n_q),
                                 wigner_transform(op_b, q_max, n_q))


def test_convention_audit_ground_state():
    rep = audit(projector(0), projector(0), 10.0, 256)
    assert rep.trace_product.real == pytest.approx(1.0, abs=1e-12)
    assert rep.overlap_integral == pytest.approx(1.0 / (2 * np.pi), rel=1e-9)
    assert rep.measured_constant == pytest.approx(2 * np.pi, rel=1e-9)
    assert rep.mixed_constant == pytest.approx(1.0, rel=1e-9)


def test_convention_audit_identity_with_thermal():
    dim = 40
    ident = FockOperator(np.eye(dim + 1, dtype=complex), 1.0, 1.0, 1.0)
    thermal = thermal_fock("harmonic", 1.0, 1.0, 0.0, 1.0, 1.0, dim)
    rep = audit(ident, thermal, 12.0, 512)
    assert rep.trace_product.real == pytest.approx(thermal.trace().real,
                                                   rel=1e-12)
    assert rep.measured_constant == pytest.approx(2 * np.pi, rel=1e-6)


def test_convention_audit_refuses_grids_on_other_axes():
    # the overlap is a sum over grid points, so both symbols must sit on
    # the same q and p axes; so must the operators share hbar
    op = projector(0)
    grid = wigner_transform(op, 10.0, 256)
    for other in (wigner_transform(op, 10.0, 128),
                  wigner_transform(op, 12.0, 256),
                  wigner_transform(projector(0, hbar=0.5), 10.0, 256)):
        with pytest.raises(ValueError, match="share their q and p axes"):
            weyl_convention_audit(op, op, grid, other)
    with pytest.raises(ValueError, match="share hbar"):
        weyl_convention_audit(op, projector(0, hbar=0.5), grid, grid)


def test_wigner_file_is_the_exact_grid(tmp_path):
    # the grid file holds signed zeros, subnormals and non-finite values
    # bit for bit, axes included: np.load gives back the corner NaN, p in
    # row 0, q in column 0 and the values, and the streamed bytes are
    # np.save's of that table, whose sha256 the writer returns
    q = np.array([-1.5, -0.0, 0.1, 2.0 / 3.0])
    p = np.array([-3.0, 0.0, 1e-17, np.pi, 5e-324])
    values = np.random.default_rng(5).normal(size=(q.size, p.size)) * 1e3
    values[0, :] = [0.0, -0.0, 1e-300, -1e-300, 5e-324]
    values[1, 1] = -2.2250738585072014e-308
    values[2, 3] = 1.0 / 3.0
    values[3, 1:4] = [np.inf, -np.inf, np.nan]
    grid = WignerGrid(q=q, p=p, values=values, imag_residual=0.0, norm=1.0)
    path = tmp_path / "wigner.npy"
    sha = _write_wigner(path, grid)
    table = np.load(path)
    assert table.dtype == np.float64 and table.shape == (5, 6)
    assert np.isnan(table[0, 0])
    for got, want in ((table[0, 1:], p), (table[1:, 0], q),
                      (table[1:, 1:], values)):
        assert got.tobytes() == want.tobytes()
    stacked = np.empty((5, 6))
    stacked[0, 0], stacked[0, 1:], stacked[1:, 0] = np.nan, p, q
    stacked[1:, 1:] = values
    np.save(tmp_path / "stacked.npy", stacked)
    data = path.read_bytes()
    assert data == (tmp_path / "stacked.npy").read_bytes()
    assert sha == hashlib.sha256(data).hexdigest()


def test_ordering_pairing_identity():
    # the product of momentum and position pairs with test states exactly
    # like the symbol pq - i hbar / 2
    for hbar in (1.0, 0.5):
        rep = ordering_pairing_check(48, hbar, 1.0, 1.0, 10.0, 256)
        assert rep["deviation"] < 1e-12
        assert rep["trace_side"].imag == pytest.approx(-0.5 * hbar, abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(["hermitian", "rank_one", "ordering_state"]),
       st.integers(1, 10), st.sampled_from([8, 16, 64, 72]),
       st.integers(0, 2**32 - 1))
@example("rank_one", 1, 8, 0)       # K = 1: one eigenvector, one term
@example("ordering_state", 4, 64, 0)
@example("hermitian", 6, 72, 0)     # a last row block shorter than the rest
def test_wigner_kernel_is_the_index_gather(kind, dim, n_q, seed):
    # the kernel reads each eigenvector through strided views and gives
    # out its rows in blocks; the blocks, put back together in row order,
    # must be the index-gathering loop's complex grid bit for bit, with
    # its axes and spacings, and the transform's real grid, norm and
    # imaginary residual must be read from that grid bit for bit
    rng = np.random.default_rng(seed)
    if kind == "ordering_state":
        # the ordering check's smooth complex test state as a projector
        psi = np.zeros(max(dim, oracle._ORDERING_TEST_STATE.size),
                       dtype=complex)
        psi[:oracle._ORDERING_TEST_STATE.size] = oracle._ORDERING_TEST_STATE
        psi /= np.linalg.norm(psi)
        mat = np.outer(psi, psi.conj())
    else:
        x = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        if kind == "rank_one":
            mat = np.outer(x[0], x[0].conj())
        else:
            mat = x + x.conj().T
    op = FockOperator(mat, 1.0, 1.0, 1.0)
    q_axis, p_axis, blocks, dp, dq = oracle._wigner_raw(op, 6.0, n_q)
    ref = wigner_raw_gather(op, 6.0, n_q)
    values, rows_seen = np.empty((n_q, n_q), dtype=complex), []
    for rows, block in blocks:
        values[rows] = block
        rows_seen += range(n_q)[rows]
    assert rows_seen == list(range(n_q))
    for a, b in zip((q_axis, p_axis, values, dp, dq), ref, strict=True):
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()
    ref_values, ref_dp, ref_dq = ref[2:]
    grid = wigner_transform(op, 6.0, n_q)
    assert grid.values.tobytes() == ref_values.real.tobytes()
    assert grid.norm == float(np.sum(ref_values.real) * ref_dp * ref_dq)
    im = ref_values.imag
    assert grid.imag_residual == abs(float(max(im.max(), -im.min())))


def test_wigner_transform_holds_under_three_grids():
    # the kernel is formed and transformed in row blocks, each block's
    # real part goes straight into the one real output grid, the
    # imaginary residual is kept per block, and each block conjugates
    # only its slice of the eigenvectors: the quartic thermal state at
    # 512 points peaks at 0.99 (n, n) complex grids of traced numpy
    # memory, half of it the real grid (1.16 with a conjugated copy of
    # every eigenvector, 1.70 with a complex grid and its real copy, 2.44
    # with one kernel-wide term buffer and a separate transform, 4.4 when
    # each term gathered copies)
    n = 512
    op = thermal_fock("quartic", 1.0, 1.0, 0.1, 1.0, 0.5, 96)
    tracemalloc.start()
    try:
        wigner_transform(op, 8.0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * n * n * 16, peak / (n * n * 16)


def test_ordering_check_holds_no_grid():
    # the norm and the moment density (p q) W are summed from the
    # transform's row blocks, each copied into one block buffer: at 512
    # points the check peaks at 0.87 real (n, n) grids of traced numpy
    # memory (1.74 when it formed (p q) W in place in a grid of its own,
    # 2.21 with the density as a second grid)
    n = 512
    tracemalloc.start()
    try:
        rep = ordering_pairing_check(64, 0.5, 1.0, 1.0, 8.0, n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep["deviation"] < 1e-10
    assert peak <= 1.0 * n * n * 8, peak / (n * n * 8)


def ordering_from_the_grid(n_max, hbar, q_max, n_q):
    """The ordering check's integral side from its whole Wigner grid."""
    psi = np.zeros(n_max + 1, dtype=complex)
    psi[:oracle._ORDERING_TEST_STATE.size] = oracle._ORDERING_TEST_STATE
    psi /= np.linalg.norm(psi)
    grid = wigner_transform(
        FockOperator(np.outer(psi, psi.conj()), hbar, 1.0, 1.0), q_max, n_q)
    dp = grid.p[1] - grid.p[0]
    dq = grid.q[1] - grid.q[0]
    norm = np.sum(grid.values) * dp * dq
    moment = np.sum(grid.values * (grid.p[None, :] * grid.q[:, None]))
    return complex(moment * dp * dq - 0.5j * hbar * norm)


@pytest.mark.parametrize("n_q", [16, 128, 256, 512, 48, 200])
def test_blocked_sums_are_np_sum_of_the_whole_grid(n_q):
    # the audit's overlap and the ordering check's norm and moment add
    # their row blocks' sums in np.sum's pairwise order, so at n_q <= 32
    # and at every power of two they are np.sum's of the whole grid bit
    # for bit, with dp and dq read from the grid's axes; at other n_q the
    # blocks can straddle np.sum's split and the sums move at rounding level
    thermal = thermal_fock("harmonic", 1.0, 1.0, 0.0, 1.0, 1.0, 40)
    a = wigner_transform(thermal, 12.0, n_q)
    b = wigner_transform(projector(1, dim=41), 12.0, n_q)
    rep = weyl_convention_audit(thermal, projector(1, dim=41), a, b)
    dp, dq = a.p[1] - a.p[0], a.q[1] - a.q[0]
    overlap = float(np.sum(a.values * b.values) * dp * dq)
    check = ordering_pairing_check(48, 0.5, 1.0, 1.0, 10.0, n_q)
    integral = ordering_from_the_grid(48, 0.5, 10.0, n_q)
    if n_q <= 32 or n_q & (n_q - 1) == 0:
        assert rep.overlap_integral == overlap
        assert check["integral_side"] == integral
    else:
        assert rep.overlap_integral == pytest.approx(overlap, rel=1e-13)
        assert check["integral_side"] == pytest.approx(integral, rel=1e-13)


def test_log_of_thermal_wigner_recovers_pseudo_hamiltonian():
    # -(1/beta) log W equals G up to a constant on the grid interior
    from scjarz.stationary import _pseudo_hamiltonian_batch
    beta = hbar = 1.0
    op = thermal_fock("harmonic", 1.0, 1.0, 0.0, beta, hbar, 48)
    grid = wigner_transform(op, q_max=10.0, n_q=256)
    rho = grid.values / grid.norm
    qi = np.flatnonzero(np.abs(grid.q) <= 2.0)[::4]
    pi = np.flatnonzero(np.abs(grid.p) <= 2.0)[::4]
    qq, pp = np.meshgrid(grid.q[qi], grid.p[pi], indexing="ij")
    model = ramped_model("harmonic", omega_i=1.0, omega_f=1.0,
                         shape="constant")
    _, g, _ = _pseudo_hamiltonian_batch(
        model, 0.0, pp.ravel(), qq.ravel(), beta * hbar,
        IntegratorSettings(n_sigma_steps=96))
    logw = -np.log(rho[np.ix_(qi, pi)].ravel()) / beta
    diff = logw - g
    assert np.max(np.abs(diff - np.mean(diff))) < 1e-6


@pytest.mark.slow
def test_quartic_pseudo_hamiltonian_gap_shrinks_at_second_order():
    """Halving hbar at fixed beta*hbar shrinks the exact-vs-stationary
    pseudo-Hamiltonian gap by ~4x per step.

    The comparison runs in log space (effective pseudo-Hamiltonians,
    aligned up to a constant): the plain density gap carries the
    hbar-independent prefactor shape at first order and cannot contract
    at the advertised second-order rate.
    """
    from scjarz.stationary import _pseudo_hamiltonian_batch
    model = ramped_model("quartic", omega_i=1.0, omega_f=1.0,
                         shape="constant", quartic_lambda=0.05)
    beta_hbar = 0.5
    settings = IntegratorSettings(n_sigma_steps=96)
    gaps = []
    for hbar in (1.0, 0.5, 0.25, 0.125):
        beta = beta_hbar / hbar
        op = thermal_fock("quartic", 1.0, 1.0, 0.05, beta, hbar, 128)
        grid = wigner_transform(op, q_max=10.0, n_q=512)
        rho_w = grid.values / grid.norm
        # thermal bulk shrinks with hbar; compare on ~2.5 sigma windows
        q_w = min(2.5 * np.sqrt(hbar / beta_hbar), 4.0)
        p_w = 2.5 * np.sqrt(2.0 * hbar / beta_hbar)
        qi = np.flatnonzero(np.abs(grid.q) <= q_w)[::8]
        pi = np.flatnonzero(np.abs(grid.p) <= p_w)[::8]
        qq, pp = np.meshgrid(grid.q[qi], grid.p[pi], indexing="ij")
        _, g, _ = _pseudo_hamiltonian_batch(
            model, 0.0, pp.ravel(), qq.ravel(), beta_hbar, settings)
        logw = -np.log(rho_w[np.ix_(qi, pi)].ravel()) / beta
        diff = logw - g
        gaps.append(np.max(np.abs(diff - np.mean(diff))))
    ratios = [gaps[k + 1] / gaps[k] for k in range(3)]
    assert all(r <= 0.35 for r in ratios), (gaps, ratios)


def test_closed_forms_classical_limit():
    # small beta hbar omega: symbol -> exp(-beta H) / (2 pi hbar)
    forms = harmonic_closed_forms(0.01, 1.0, 1.0, 1.0)
    p, q = 0.7, -0.4
    h = forms.energy(p, q)
    sym = forms.weyl_symbol(p, q)
    classical = np.exp(-0.01 * h) / (2 * np.pi)
    assert sym == pytest.approx(classical, rel=1e-4)
    assert forms.g(p, q) == pytest.approx(h, rel=1e-4)


def test_closed_form_pseudo_power_momentum_free_point():
    forms = harmonic_closed_forms(1.0, 1.0, 1.0, 1.0)
    x = 1.0
    expect = (2.0 / (1.0 + np.cosh(x))) * 0.5 * (np.sinh(x) / x + 1.0)
    assert forms.pseudo_power(0.0, 1.0, 1.0) == pytest.approx(expect,
                                                              rel=1e-12)


def test_partition_closed_forms_are_consistent():
    # integral of the full symbol is the quantum trace; without the
    # prefactor it is pi hbar / tanh
    forms = harmonic_closed_forms(1.3, 0.7, 1.0, 1.2)
    ratio = forms.z_semiclassical * forms.prefactor
    assert ratio == pytest.approx(forms.z_quantum, rel=1e-12)
    model = ramped_model("harmonic", omega_i=1.2, omega_f=1.2,
                         shape="constant")
    dom = QuadratureDomain(p_max=9.0, q_max=8.0, n_p=64, n_q=64)
    z = partition(model, 0.0, 1.3, 0.7, dom,
                  IntegratorSettings(n_sigma_steps=96))
    assert z == pytest.approx(forms.z_semiclassical, rel=1e-8)


def test_quartic_prefactor_partition_converges_to_the_quantum_trace():
    # the prefactor-corrected semi-classical partition of the quartic ramp
    # (lambda = 0.1, omega 1 -> 2, beta = 1) against the exact quantum
    # trace Tr exp(-beta H) at both protocol ends: the relative gap falls
    # at about fourth order in hbar (observed 3.81-4.00), and the gap in
    # Z_f / Z_i, the identity's right side, falls with it
    model = ramped_model("quartic", omega_i=1.0, omega_f=2.0,
                         quartic_lambda=0.1)
    domain = QuadratureDomain(p_max=7.5, q_max=4.5, n_p=64, n_q=64)
    gaps, ratio_gaps = [], []
    for hbar in (0.5, 0.25, 0.125):
        z_sc = np.array([partition(model, t, 1.0, hbar, domain,
                                   with_prefactor=True) for t in (0.0, 1.0)])
        z_q = np.array([
            thermal_fock("quartic", 1.0, omega, 0.1, 1.0, hbar, 160).trace().real
            for omega in (1.0, 2.0)])
        gaps.append(np.abs(z_sc - z_q) / z_q)
        ratio_gaps.append(abs(z_sc[1] / z_sc[0] - z_q[1] / z_q[0])
                          / (z_q[1] / z_q[0]))
    orders = np.log2(np.array(gaps[:-1]) / np.array(gaps[1:]))
    assert np.all(orders >= 3.5), orders
    assert ratio_gaps[0] > ratio_gaps[1] > ratio_gaps[2], ratio_gaps
