import math

import numpy as np
import pytest

from cfuav.pilots import (_estimation_matrices, assign_pilots_random,
                          make_assignment, simulate_pilot_and_estimate)
from cfuav.propagation import ChannelStats, draw_channels

SIGMA2 = 6.31e-13  # -92 dBm


def rng(seed=0):
    return np.random.default_rng(seed)


def stats_1d(covs, means=None):
    """ChannelStats for K UAVs, one O-RU, scalar antennas (N=1)."""
    k = len(covs)
    cov = np.array(covs, dtype=complex).reshape(k, 1, 1, 1)
    mean = np.zeros((k, 1, 1), dtype=complex)
    if means is not None:
        mean[:, 0, 0] = means
    return ChannelStats(mean_vec=mean, scatter_cov=cov,
                        corr=np.ones((k, 1, 1, 1), dtype=complex),
                        los_steering=np.ones((k, 1, 1), dtype=complex))


def random_stats(r, k=2, n=2, scale=1e-10, mean_scale=None, l=1):
    """Well-conditioned random statistics for K UAVs at L O-RUs (one by
    default)."""
    mean_scale = math.sqrt(scale) if mean_scale is None else mean_scale
    covs = np.empty((k, l, n, n), dtype=complex)
    for i in range(k):
        for j in range(l):
            x = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
            covs[i, j] = scale * (x @ x.conj().T + 0.5 * np.eye(n))
    means = mean_scale * (r.standard_normal((k, l, n))
                          + 1j * r.standard_normal((k, l, n)))
    return ChannelStats(mean_vec=means, scatter_cov=covs,
                        corr=covs / scale, los_steering=means)


# ------------------------------------------------------------- assignment

def test_assignment_single_uav():
    a = assign_pilots_random(1, 5, rng(), 0.2)
    assert 0 <= a.pilot_of[0] < 5


def test_assignment_deterministic():
    a1 = assign_pilots_random(20, 10, rng(3), 0.2)
    a2 = assign_pilots_random(20, 10, rng(3), 0.2)
    np.testing.assert_array_equal(a1.pilot_of, a2.pilot_of)


def test_assignment_collision_probability():
    # birthday oracle: P(collision) = 1 - 10!/10^10 for K = tau_p = 10
    expected = 1.0 - math.factorial(10) / 10 ** 10
    r = rng(5)
    n = 20_000
    collisions = 0
    for _ in range(n):
        pilots = r.integers(0, 10, size=10)
        collisions += len(np.unique(pilots)) < 10
    assert collisions / n == pytest.approx(expected, abs=2e-3)


def test_assignment_rejects_bad_pilot_index():
    with pytest.raises(ValueError):
        make_assignment([0, 7], tau_p=5, pilot_power=0.2)


# ------------------------------------------------------------------- psi

def psi_matrix(k, l, assignment, stats, sigma2):
    """Per-link oracle: pilot-observation covariance for UAV k at O-RU l."""
    n = stats.scatter_cov.shape[-1]
    tau = assignment.tau_p
    psi = tau * sigma2 * np.eye(n, dtype=complex)
    for i in np.flatnonzero(assignment.pilot_of == assignment.pilot_of[k]):
        psi = psi + tau ** 2 * assignment.pilot_power[i] * stats.scatter_cov[i, l]
    return psi


def error_covariance(k, l, assignment, stats, sigma2):
    """Per-link oracle of the MMSE split: returns (C_err, C_hat) with
    C_hat = tau_p^2 p_k C Psi^{-1} C and C_err = C - C_hat."""
    cov = stats.scatter_cov[k, l]
    if not np.any(cov):
        zero = np.zeros_like(cov)
        return zero, zero.copy()
    psi = psi_matrix(k, l, assignment, stats, sigma2)
    gain = assignment.tau_p ** 2 * assignment.pilot_power[k]
    c_hat = gain * (cov @ np.linalg.solve(psi, cov))
    c_hat = 0.5 * (c_hat + np.conj(c_hat).T)
    c_err = cov - c_hat
    c_err = 0.5 * (c_err + np.conj(c_err).T)
    return c_err, c_hat


def batched(assignment, stats, sigma2):
    """_estimation_matrices without the filter: (psi, c_err, c_hat), each
    (K, L, N, N)."""
    psi, _, c_hat, c_err = _estimation_matrices(assignment, stats, sigma2)
    return psi, c_err, c_hat


def test_psi_scalar_hand_value():
    # tau_p = 10, p = 0.2 W, c = 1e-10, sigma^2 = 6.31e-13
    stats = stats_1d([1e-10])
    a = make_assignment([0], tau_p=10, pilot_power=0.2)
    psi = batched(a, stats, SIGMA2)[0][0, 0]
    expected = 10 ** 2 * 0.2 * 1e-10 + 10 * SIGMA2
    assert psi[0, 0].real == pytest.approx(expected, rel=1e-12)
    assert expected == pytest.approx(2.0063e-9, rel=1e-4)


def test_psi_contamination_increases_psd_order():
    r = rng(6)
    stats2 = random_stats(r, k=2, n=3)
    alone = make_assignment([0, 1], tau_p=2, pilot_power=0.2)
    shared = make_assignment([0, 0], tau_p=2, pilot_power=0.2)
    psi_alone = batched(alone, stats2, SIGMA2)[0][0, 0]
    psi_shared = batched(shared, stats2, SIGMA2)[0][0, 0]
    w = np.linalg.eigvalsh(psi_shared - psi_alone)
    assert w.min() >= -1e-30


def test_psi_positive_definite():
    stats = stats_1d([0.0])
    a = make_assignment([0], tau_p=10, pilot_power=0.2)
    psi = batched(a, stats, SIGMA2)[0][0, 0]
    assert psi[0, 0].real > 0  # noise keeps it invertible even with C = 0


# ----------------------------------------------------------- covariances

def test_error_covariance_scalar_hand_value():
    stats = stats_1d([1e-10])
    a = make_assignment([0], tau_p=10, pilot_power=0.2)
    _, c_err, c_hat = batched(a, stats, SIGMA2)
    psi = 10 ** 2 * 0.2 * 1e-10 + 10 * SIGMA2
    expected_hat = 10 ** 2 * 0.2 * (1e-10) ** 2 / psi
    assert c_hat[0, 0, 0, 0].real == pytest.approx(expected_hat, rel=1e-12)
    assert expected_hat == pytest.approx(9.969e-11, rel=1e-3)
    assert c_err[0, 0, 0, 0].real == pytest.approx(1e-10 - expected_hat,
                                                   rel=1e-12)


def test_error_covariance_no_pilot_power_limit():
    stats = stats_1d([1e-10])
    a = make_assignment([0], tau_p=10, pilot_power=1e-15)
    _, c_err, c_hat = batched(a, stats, SIGMA2)
    assert abs(c_hat[0, 0, 0, 0]) / 1e-10 < 1e-3
    assert c_err[0, 0, 0, 0].real == pytest.approx(1e-10, rel=1e-3)


def test_error_covariance_noiseless_uncontaminated_limit():
    r = rng(7)
    stats = random_stats(r, k=1, n=2)
    a = make_assignment([0], tau_p=10, pilot_power=0.2)
    _, c_err, c_hat = batched(a, stats, 1e-40)
    c = stats.scatter_cov[0, 0]
    assert np.linalg.norm(c_err[0, 0]) / np.linalg.norm(c) < 1e-6
    np.testing.assert_allclose(c_hat[0, 0], c, rtol=1e-5)


def test_covariance_decomposition_and_psd():
    r = rng(8)
    stats = random_stats(r, k=4, n=3)
    a = make_assignment([0, 0, 1, 0], tau_p=2, pilot_power=0.2)
    _, c_errs, c_hats = batched(a, stats, SIGMA2)
    for k in range(4):
        c_err, c_hat = c_errs[k, 0], c_hats[k, 0]
        c = stats.scatter_cov[k, 0]
        np.testing.assert_allclose(c_hat + c_err, c, rtol=1e-9, atol=1e-30)
        scale = np.linalg.norm(c)
        assert np.linalg.eigvalsh(c_hat).min() >= -1e-12 * scale
        assert np.linalg.eigvalsh(c_err).min() >= -1e-12 * scale
        # C_err <= C in the PSD order
        assert np.linalg.eigvalsh(c - c_err).min() >= -1e-12 * scale


def test_contamination_never_decreases_error():
    r = rng(9)
    stats = random_stats(r, k=2, n=3)
    alone = make_assignment([0, 1], tau_p=2, pilot_power=0.2)
    shared = make_assignment([0, 0], tau_p=2, pilot_power=0.2)
    err_alone = batched(alone, stats, SIGMA2)[1][0, 0]
    err_shared = batched(shared, stats, SIGMA2)[1][0, 0]
    assert np.trace(err_shared).real >= np.trace(err_alone).real - 1e-30


def test_zero_cov_link_shortcircuits():
    stats = stats_1d([0.0])
    a = make_assignment([0], tau_p=10, pilot_power=0.2)
    _, c_err, c_hat = batched(a, stats, SIGMA2)
    assert not np.any(c_err) and not np.any(c_hat)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_estimation_matrices_match_per_link_oracle(n):
    # K = 7 UAVs on tau_p = 3 pilots, L = 3, and one zero-covariance link
    r = rng(70 + n)
    stats = random_stats(r, k=7, n=n, l=3)
    stats.scatter_cov[4, 1] = 0.0
    a = make_assignment(r.integers(0, 3, 7), tau_p=3,
                        pilot_power=r.uniform(0.1, 0.2, 7))
    psi, c_err, c_hat = batched(a, stats, SIGMA2)
    for k in range(7):
        for l in range(3):
            want_psi = psi_matrix(k, l, a, stats, SIGMA2)
            want_err, want_hat = error_covariance(k, l, a, stats, SIGMA2)
            tol = 1e-12 * np.linalg.norm(stats.scatter_cov[k, l])
            assert (np.max(np.abs(psi[k, l] - want_psi))
                    <= 1e-12 * np.linalg.norm(want_psi))
            assert np.max(np.abs(c_err[k, l] - want_err)) <= tol
            assert np.max(np.abs(c_hat[k, l] - want_hat)) <= tol


# ------------------------------------------------------------ estimation

def test_estimate_pure_los_noiseless_is_exact():
    stats = stats_1d([0.0], means=[1.0 + 0.5j])
    a = make_assignment([0], tau_p=10, pilot_power=0.2)
    h = np.broadcast_to(stats.mean_vec, (8, 1, 1, 1)).copy()
    est = simulate_pilot_and_estimate(h, a, stats, 0.0, rng(1))
    np.testing.assert_array_equal(est.h_hat, h)


def test_estimate_deterministic():
    r = rng(10)
    stats = random_stats(r, k=2, n=2)
    a = make_assignment([0, 0], tau_p=3, pilot_power=0.2)
    h = draw_channels(stats, 16, rng(2))
    e1 = simulate_pilot_and_estimate(h, a, stats, SIGMA2, rng(3))
    e2 = simulate_pilot_and_estimate(h, a, stats, SIGMA2, rng(3))
    np.testing.assert_array_equal(e1.h_hat, e2.h_hat)


def test_estimate_shape_mismatch_rejected():
    stats = stats_1d([1e-10])
    a = make_assignment([0], tau_p=3, pilot_power=0.2)
    with pytest.raises(ValueError):
        simulate_pilot_and_estimate(np.zeros((4, 2, 1, 1), complex), a, stats,
                                    SIGMA2, rng())


def oracle_estimate(h, assignment, stats, sigma2, stream):
    """The einsum form of simulate_pilot_and_estimate's h_hat over canonical
    (T, K, L, N) arrays, drawing the pilot noise with the same call."""
    t_num, k_num, l_num, n = h.shape
    tau = assignment.tau_p
    amp = np.sqrt(assignment.pilot_power)
    member = np.zeros((tau, k_num))
    member[assignment.pilot_of, np.arange(k_num)] = 1.0
    y = tau * np.einsum("pk,k,tkln->tpln", member, amp, h)
    noise = stream.standard_normal((2, t_num, tau, l_num, n))
    y = y + (noise[0] + 1j * noise[1]) * math.sqrt(tau * sigma2 / 2.0)
    y_mean = tau * np.einsum("pk,k,kln->pln", member, amp, stats.mean_vec)
    dev = y[:, assignment.pilot_of] - y_mean[assignment.pilot_of]
    _, w, _, _ = _estimation_matrices(assignment, stats, sigma2)
    return stats.mean_vec[None] + np.einsum("klnm,tklm->tkln", w, dev)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_estimate_matches_einsum_oracle(n):
    # K = 7 UAVs on tau_p = 3 pilots (not a multiple), L = 3, T = 45
    r = rng(50 + n)
    stats = random_stats(r, k=7, n=n, l=3)
    a = make_assignment(r.integers(0, 3, 7), tau_p=3,
                        pilot_power=r.uniform(0.1, 0.2, 7))
    h = draw_channels(stats, 45, rng(60))
    stream, oracle_stream = rng(61), rng(61)
    est = simulate_pilot_and_estimate(h, a, stats, SIGMA2, stream)
    want = oracle_estimate(np.ascontiguousarray(h), a, stats, SIGMA2,
                           oracle_stream)
    assert est.h_hat.shape == (45, 7, 3, n)
    assert np.max(np.abs(est.h_hat - want)) <= 1e-12 * np.max(np.abs(want))
    # both consumed the stream identically
    np.testing.assert_array_equal(stream.standard_normal(4),
                                  oracle_stream.standard_normal(4))
    # a contiguous canonical input gives the same estimate
    again = simulate_pilot_and_estimate(np.ascontiguousarray(h), a, stats,
                                        SIGMA2, rng(61))
    np.testing.assert_array_equal(again.h_hat, est.h_hat)


@pytest.fixture(scope="module")
def contaminated_ensemble():
    """Two UAVs sharing one pilot at a single dual-antenna O-RU, 1e5 draws."""
    r = rng(12)
    stats = random_stats(r, k=2, n=2, scale=1e-10)
    a = make_assignment([0, 0], tau_p=5, pilot_power=0.2)
    h = draw_channels(stats, 100_000, rng(13))
    est = simulate_pilot_and_estimate(h, a, stats, SIGMA2, rng(14))
    return stats, a, h, est


def _emp_cov(x, y):
    # x, y: (T, N) zero-mean samples
    return (x.conj().T @ y).T / x.shape[0]


def test_estimate_mean_matches(contaminated_ensemble):
    stats, _, _, est = contaminated_ensemble
    for k in range(2):
        dev = est.h_hat[:, k, 0].mean(axis=0) - stats.mean_vec[k, 0]
        assert np.linalg.norm(dev) < 0.01 * np.linalg.norm(stats.mean_vec[k, 0])


def test_estimate_covariance_matches(contaminated_ensemble):
    stats, _, _, est = contaminated_ensemble
    for k in range(2):
        dev = est.h_hat[:, k, 0] - stats.mean_vec[k, 0]
        emp = _emp_cov(dev, dev)
        ref = est.c_hat[k, 0]
        assert (np.linalg.norm(emp - ref, "fro")
                < 0.05 * np.linalg.norm(ref, "fro"))


def test_estimate_error_orthogonality(contaminated_ensemble):
    stats, _, h, est = contaminated_ensemble
    for k in range(2):
        dev = est.h_hat[:, k, 0] - stats.mean_vec[k, 0]
        err = h[:, k, 0] - est.h_hat[:, k, 0]
        cross = _emp_cov(dev, err)
        c_norm = np.linalg.norm(stats.scatter_cov[k, 0], "fro")
        assert np.linalg.norm(cross, "fro") < 0.03 * c_norm


def test_estimate_contamination_cross_covariance(contaminated_ensemble):
    # estimate of UAV 0 is correlated with UAV 1's channel through the shared
    # pilot; oracle: E[(hhat_0 - hbar_0)(h_1 - hbar_1)^H] = sqrt(p0 p1) tau^2 C0 Psi^-1 C1
    stats, a, h, est = contaminated_ensemble
    dev0 = est.h_hat[:, 0, 0] - stats.mean_vec[0, 0]
    tilde1 = h[:, 1, 0] - stats.mean_vec[1, 0]
    emp = _emp_cov(dev0, tilde1)
    psi = psi_matrix(0, 0, a, stats, SIGMA2)
    theory = (0.2 * a.tau_p ** 2
              * stats.scatter_cov[0, 0] @ np.linalg.solve(psi, stats.scatter_cov[1, 0]))
    assert np.linalg.norm(theory, "fro") > 0.0
    assert (np.linalg.norm(emp - theory, "fro")
            < 0.2 * np.linalg.norm(theory, "fro"))


def test_decomposition_invariant_from_simulation(contaminated_ensemble):
    stats, _, _, est = contaminated_ensemble
    total = est.c_hat + est.c_err
    np.testing.assert_allclose(total, stats.scatter_cov, rtol=1e-9)
