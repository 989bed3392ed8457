import numpy as np
import pytest

from cfuav import receiver
from cfuav.pilots import EstimationResult
from cfuav.receiver import (ChannelMoments, CombinerSet,
                            assemble_coefficients, channel_moments,
                            cpu_weights, estimate_sinr_coefficients,
                            lmmse_combiner, moments_from_combiners, sinr,
                            spectral_efficiency)


def rng(seed=0):
    return np.random.default_rng(seed)


def est_from(h_hat, c_err=None):
    h_hat = np.asarray(h_hat, dtype=complex)
    _, k, l, n = h_hat.shape
    if c_err is None:
        c_err = np.zeros((k, l, n, n), dtype=complex)
    zeros = np.zeros_like(c_err)
    return EstimationResult(h_hat=h_hat, c_hat=zeros, c_err=c_err, psi=zeros)


def deterministic_setup(vectors, t=4):
    """Perfect-CSI ensemble (h == h_hat, identical across realizations)."""
    k = len(vectors)
    n = len(vectors[0])
    h = np.zeros((t, k, 1, n), dtype=complex)
    for i, v in enumerate(vectors):
        h[:, i, 0] = v
    return h, est_from(h)


# ---------------------------------------------------------------- combiner

def test_lmmse_rank_one_hand_inverse():
    # single UAV, h_hat = e1, p = 1, sigma^2 = 1: v = (h h^H + I)^{-1} h = e1/2
    h, est = deterministic_setup([np.array([1.0, 0.0])], t=1)
    v = lmmse_combiner(est, np.array([1.0]), 1.0).v
    np.testing.assert_allclose(v[0, 0, 0], np.array([0.5, 0.0]), atol=1e-12)


def test_lmmse_matched_filter_limit():
    r = rng(1)
    h, est = deterministic_setup([r.standard_normal(3) + 1j * r.standard_normal(3)],
                                 t=1)
    sigma2 = 1e6 * np.linalg.norm(h[0, 0, 0]) ** 2
    v = lmmse_combiner(est, np.array([1.0]), sigma2).v[0, 0, 0]
    hh = h[0, 0, 0]
    cos = abs(np.vdot(v, hh)) / (np.linalg.norm(v) * np.linalg.norm(hh))
    assert cos > 0.999


def test_lmmse_rejects_bad_inputs():
    h, est = deterministic_setup([np.array([1.0, 0.0])], t=1)
    with pytest.raises(ValueError):
        lmmse_combiner(est, np.array([-1.0]), 1.0)
    with pytest.raises(ValueError):
        lmmse_combiner(est, np.array([1.0]), 0.0)


# ----------------------------------------------------------------- weights

def test_cpu_weights():
    beta = np.array([[4.0, 1.0], [9.0, 16.0]])
    a = np.array([[1, 0], [1, 1]])
    w = cpu_weights(a, beta).alpha
    np.testing.assert_allclose(w, [[2.0, 0.0], [3.0, 4.0]])
    assert not cpu_weights(np.zeros_like(a), beta).alpha.any()


# ------------------------------------------------------------ coefficients

def test_matched_filter_exact_sinr():
    # perfect CSI, deterministic channel: Gamma = p ||h||^2 / sigma^2
    hvec = np.array([1.0 + 1.0j, 0.5])
    h, est = deterministic_setup([hvec], t=3)
    sigma2 = 0.3
    p = np.array([0.7])
    moments = channel_moments(h, est, p, sigma2)
    coef = assemble_coefficients(moments, cpu_weights(np.ones((1, 1)),
                                                      np.array([[2.5]])), sigma2)
    assert coef.d[0] <= 1e-12 * coef.a[0]  # zero up to cancellation noise
    gamma = sinr(coef, p)[0]
    assert gamma == pytest.approx(0.7 * np.linalg.norm(hvec) ** 2 / sigma2,
                                  rel=1e-10)


def test_orthogonal_uavs_no_cross_interference():
    h, est = deterministic_setup([np.array([2.0, 0.0]), np.array([0.0, 1.5])],
                                 t=2)
    moments = channel_moments(h, est, np.array([0.2, 0.2]), 0.1)
    coef = assemble_coefficients(moments, cpu_weights(np.ones((2, 1)),
                                                      np.ones((2, 1))), 0.1)
    assert coef.b[0, 1] == 0.0
    assert coef.b[1, 0] == 0.0


def test_sinr_invariant_under_common_power_noise_scaling():
    r = rng(2)
    t, k, l, n = 40, 3, 2, 2
    h = r.standard_normal((t, k, l, n)) + 1j * r.standard_normal((t, k, l, n))
    hh = h + 0.1 * (r.standard_normal(h.shape) + 1j * r.standard_normal(h.shape))
    c_err = np.broadcast_to(0.01 * np.eye(n), (k, l, n, n)).copy()
    est = est_from(hh, c_err)
    beta = r.uniform(0.5, 2.0, (k, l))
    w = cpu_weights(np.ones((k, l)), beta)
    p = r.uniform(0.1, 0.3, k)
    lam = 7.3
    coef1 = assemble_coefficients(channel_moments(h, est, p, 0.2), w, 0.2)
    est2 = est_from(hh, c_err)  # same estimates; scaling enters via powers
    coef2 = assemble_coefficients(channel_moments(h, est2, lam * p, lam * 0.2),
                                  w, lam * 0.2)
    np.testing.assert_allclose(sinr(coef1, p), sinr(coef2, lam * p), rtol=1e-9)


def test_association_gating_equivalence():
    # zero alpha columns contribute nothing: a row with extra zeros matches
    # the same row evaluated over its serving set only
    r = rng(3)
    k, l = 3, 4
    moments = ChannelMoments(
        g1=r.standard_normal((k, l)) + 1j * r.standard_normal((k, l)),
        g2=r.uniform(0.1, 1.0, (k, k, l)), gn=r.uniform(0.1, 1.0, (k, l)),
        n_samples=100, power=np.ones(k))
    beta = r.uniform(0.5, 2.0, (k, l))
    a_full = np.ones((k, l), dtype=int)
    a_gated = a_full.copy()
    a_gated[:, 2:] = 0
    coef_gated = assemble_coefficients(moments, cpu_weights(a_gated, beta), 0.1)
    beta_sub = beta.copy()
    moments_sub = ChannelMoments(g1=moments.g1[:, :2], g2=moments.g2[..., :2],
                                 gn=moments.gn[:, :2], n_samples=100,
                                 power=np.ones(k))
    coef_sub = assemble_coefficients(moments_sub,
                                     cpu_weights(a_gated[:, :2], beta_sub[:, :2]),
                                     0.1)
    np.testing.assert_allclose(coef_gated.a, coef_sub.a, rtol=1e-12)
    np.testing.assert_allclose(coef_gated.b, coef_sub.b, rtol=1e-12)
    np.testing.assert_allclose(coef_gated.c, coef_sub.c, rtol=1e-12)


def test_unserved_uav_flagged_by_zero_gain():
    r = rng(4)
    k, l = 2, 2
    moments = ChannelMoments(
        g1=np.ones((k, l), complex), g2=r.uniform(0.1, 1.0, (k, k, l)),
        gn=np.ones((k, l)), n_samples=10, power=np.ones(k))
    a = np.array([[1, 1], [0, 0]])
    coef = assemble_coefficients(moments, cpu_weights(a, np.ones((k, l))), 0.1)
    assert coef.a[1] == 0.0
    gam = sinr(coef, np.array([0.2, 0.2]))
    assert gam[1] == 0.0 and gam[0] > 0.0


def test_variance_clamp_counted():
    k, l = 1, 1
    moments = ChannelMoments(g1=np.array([[2.0 + 0j]]),
                             g2=np.array([[[3.9]]]),  # below |g1|^2 = 4
                             gn=np.ones((k, l)), n_samples=10,
                             power=np.ones(k))
    coef = assemble_coefficients(moments, cpu_weights(np.ones((1, 1)),
                                                      np.ones((1, 1))), 0.1)
    assert coef.clamp_count == 1
    assert coef.d[0] == 0.0


def test_coefficients_nonnegative_and_tagged():
    r = rng(5)
    t, k, l, n = 30, 4, 3, 2
    h = r.standard_normal((t, k, l, n)) + 1j * r.standard_normal((t, k, l, n))
    est = est_from(h + 0.05 * r.standard_normal(h.shape),
                   np.broadcast_to(0.01 * np.eye(n), (k, l, n, n)).copy())
    p = r.uniform(0.05, 0.2, k)
    moments = channel_moments(h, est, p, 0.15)
    coef = assemble_coefficients(moments, cpu_weights(np.ones((k, l)),
                                                      r.uniform(0.1, 1.0, (k, l))),
                                 0.15)
    assert np.all(coef.a >= 0) and np.all(coef.d >= 0)
    assert np.all(coef.b >= 0) and np.all(coef.c > 0)
    assert np.all(np.diag(coef.b) == 0)
    np.testing.assert_array_equal(coef.built_at_power, p)


def test_estimate_sinr_coefficients_matches_fused_path():
    r = rng(6)
    t, k, l, n = 25, 3, 2, 2
    h = r.standard_normal((t, k, l, n)) + 1j * r.standard_normal((t, k, l, n))
    est = est_from(h + 0.1 * r.standard_normal(h.shape),
                   np.broadcast_to(0.02 * np.eye(n), (k, l, n, n)).copy())
    p = r.uniform(0.1, 0.2, k)
    sigma2 = 0.1
    a = np.ones((k, l), dtype=int)
    w = cpu_weights(a, r.uniform(0.5, 1.5, (k, l)))
    combiners = lmmse_combiner(est, p, sigma2)
    coef1 = estimate_sinr_coefficients(h, est, combiners, a, w, sigma2)
    coef2 = assemble_coefficients(channel_moments(h, est, p, sigma2), w, sigma2)
    np.testing.assert_allclose(coef1.a, coef2.a, rtol=1e-12)
    np.testing.assert_allclose(coef1.d, coef2.d, rtol=1e-10, atol=1e-18)
    np.testing.assert_allclose(coef1.b, coef2.b, rtol=1e-12)
    np.testing.assert_allclose(coef1.c, coef2.c, rtol=1e-12)


def test_mr_combining_matches_closed_form_coefficients():
    # independent oracle: for v = h_hat (MR) over zero-mean channels with
    # orthogonal pilots, the coefficients reduce to covariance traces:
    #   g1_k = tr(C_hat_k), gn_k = tr(C_hat_k),
    #   b_ki ~ tr(C_i C_hat_k), d_k ~ tr(C_k C_hat_k)
    from cfuav.pilots import make_assignment, simulate_pilot_and_estimate
    from cfuav.propagation import ChannelStats, draw_channels

    r = rng(20)
    k_num, n = 3, 2
    covs = np.empty((k_num, 1, n, n), dtype=complex)
    for i in range(k_num):
        x = r.standard_normal((n, n)) + 1j * r.standard_normal((n, n))
        covs[i, 0] = x @ x.conj().T + 0.5 * np.eye(n)
    stats = ChannelStats(mean_vec=np.zeros((k_num, 1, n), complex),
                         scatter_cov=covs, corr=covs,
                         los_steering=np.zeros((k_num, 1, n), complex))
    assignment = make_assignment([0, 1, 2], tau_p=3, pilot_power=0.1)
    sigma2 = 0.5
    h = draw_channels(stats, 40_000, rng(21))
    est = simulate_pilot_and_estimate(h, assignment, stats, sigma2, rng(22))
    p = np.full(k_num, 0.2)
    mr = CombinerSet(v=est.h_hat, power=p)
    weights = cpu_weights(np.ones((k_num, 1)), np.ones((k_num, 1)))
    coef = estimate_sinr_coefficients(h, est, mr, np.ones((k_num, 1)),
                                      weights, sigma2)
    for k in range(k_num):
        c_hat = est.c_hat[k, 0]
        tr_hat = np.trace(c_hat).real
        assert coef.a[k] == pytest.approx(tr_hat ** 2, rel=0.03)
        assert coef.c[k] == pytest.approx(sigma2 * tr_hat, rel=0.03)
        expected_d = np.trace(covs[k, 0] @ c_hat).real
        assert coef.d[k] == pytest.approx(expected_d, rel=0.08)
        for i in range(k_num):
            if i != k:
                expected_b = np.trace(covs[i, 0] @ c_hat).real
                assert coef.b[k, i] == pytest.approx(expected_b, rel=0.08)


def test_moment_chunking_is_order_stable():
    r = rng(7)
    t, k, l, n = 70, 2, 2, 2
    h = r.standard_normal((t, k, l, n)) + 1j * r.standard_normal((t, k, l, n))
    est = est_from(h, np.broadcast_to(0.01 * np.eye(n), (k, l, n, n)).copy())
    p = np.full(k, 0.2)
    m1 = channel_moments(h, est, p, 0.1, chunk=32)
    m2 = channel_moments(h, est, p, 0.1, chunk=32)
    np.testing.assert_array_equal(m1.g1, m2.g1)
    np.testing.assert_array_equal(m1.g2, m2.g2)
    m3 = channel_moments(h, est, p, 0.1, chunk=7)
    np.testing.assert_allclose(m1.g2, m3.g2, rtol=1e-12)


def test_monte_carlo_convergence_of_moments():
    # two independent ensembles of 1e3 and 1e4 draws agree within 3 combined
    # standard errors on every moment
    r = rng(8)
    k, l, n = 2, 1, 2
    c_err = np.broadcast_to(0.05 * np.eye(n), (k, l, n, n)).copy()

    def draw(t, seed):
        rr = np.random.default_rng(seed)
        h = rr.standard_normal((t, k, l, n)) + 1j * rr.standard_normal((t, k, l, n))
        hh = h + 0.2 * (rr.standard_normal(h.shape) + 1j * rr.standard_normal(h.shape))
        return h, est_from(hh, c_err)

    p = np.full(k, 0.2)

    def moments_and_se(t, seed):
        h, est = draw(t, seed)
        m = channel_moments(h, est, p, 0.1)
        # per-sample second-moment spread for the standard error
        comb = lmmse_combiner(est, p, 0.1)
        cross = np.einsum("tkln,tiln->tkil", np.conj(comb.v), h)
        se_g2 = np.abs(cross) ** 2
        return m, se_g2.std(axis=0, ddof=1) / np.sqrt(t)

    m_small, se_small = moments_and_se(1_000, 100)
    m_big, se_big = moments_and_se(10_000, 200)
    se = np.sqrt(se_small ** 2 + se_big ** 2)
    diff = np.abs(m_small.g2 - m_big.g2)
    assert np.all(diff < 3.0 * se + 1e-12)


# ------------------------------------------------- moment kernel vs oracle

def oracle_gram(est, powers, sigma2):
    """Explicit Gram matrices (T, L, N, N) of every realization and O-RU."""
    hh = np.einsum("tkln->tlnk", est.h_hat)
    n = hh.shape[2]
    return (np.einsum("tlnk,k,tlmk->tlnm", hh, powers, np.conj(hh))
            + np.einsum("k,klnm->lnm", powers, est.c_err) + sigma2 * np.eye(n))


def oracle_combiners(est, powers, sigma2):
    """L-MMSE combiners (T, K, L, N) by LU solves of the explicit Gram."""
    hh = np.einsum("tkln->tlnk", est.h_hat)
    v = np.linalg.solve(oracle_gram(est, powers, sigma2), hh)
    return np.einsum("tlnk->tkln", v)


def oracle_moments(h, v):
    """Cross-term reduction: materializes v_kl^H h_il for every (t, l, k, i)
    and reduces it with einsum."""
    t = h.shape[0]
    cross = np.einsum("tkln,tiln->tlki", np.conj(v), h)
    return (np.einsum("tlkk->kl", cross) / t,
            np.einsum("tlki->kil", np.abs(cross) ** 2) / t,
            np.einsum("tkln->kl", np.abs(v) ** 2) / t)


def assert_moments_close(m, g1, g2, gn):
    # norm-wise: tiny cross-interference entries of g2 legitimately differ by
    # more than 1e-12 elementwise between the two reductions
    for got, want in ((m.g1, g1), (m.g2, g2), (m.gn, gn)):
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def kernel_case(n, k, t=45, l=3, seed=0):
    """Random ensemble with a zero power entry and an all-zero estimate."""
    r = rng(seed)
    shape = (t, k, l, n)
    h = r.standard_normal(shape) + 1j * r.standard_normal(shape)
    hh = h + 0.3 * (r.standard_normal(shape) + 1j * r.standard_normal(shape))
    hh[:, 0, 1] = 0.0
    x = r.standard_normal((k, l, n, n)) + 1j * r.standard_normal((k, l, n, n))
    c_err = 0.05 * x @ np.conj(np.swapaxes(x, -1, -2))
    p = r.uniform(0.1, 1.0, k)
    p[0] = 0.0
    return h, est_from(hh, c_err), p


@pytest.mark.parametrize("n", [1, 2, 4])
@pytest.mark.parametrize("k", [1, 3])
def test_channel_moments_match_oracle(n, k):
    # T = 45 is not a multiple of the 32-realization block
    h, est, p = kernel_case(n, k, seed=10 * n + k)
    sigma2 = 0.2
    m = channel_moments(h, est, p, sigma2)
    assert_moments_close(m, *oracle_moments(h, oracle_combiners(est, p, sigma2)))
    np.testing.assert_array_equal(m.power, p)
    assert m.n_samples == 45


@pytest.mark.parametrize("n", [1, 2, 4])
def test_moments_from_combiners_match_oracle(n):
    # the shared reduction alone, fed combiners solved outside the receiver
    h, est, p = kernel_case(n, 3, seed=n)
    v = oracle_combiners(est, p, 0.2)
    m = moments_from_combiners(h, CombinerSet(v=v, power=p), chunk=7)
    assert_moments_close(m, *oracle_moments(h, v))


def test_channel_moments_match_oracle_on_desk_trial():
    from cfuav.harness import prepare_trial
    from cfuav.scenario import desk_scale

    cfg = desk_scale(num_uavs=5, master_seed=2026)
    data = prepare_trial(cfg, 0)
    p = rng(11).uniform(0.0, cfg.p_max_w, cfg.num_uavs)
    m = channel_moments(data.h, data.est, p, data.sigma2)
    v = oracle_combiners(data.est, p, data.sigma2)
    assert_moments_close(m, *oracle_moments(data.h, v))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_gram_cholesky_pivots_bounded_by_noise(n):
    # G >= sigma^2 I, so every pivot satisfies C_jj^2 >= sigma^2 even with a
    # zero power and an all-zero estimate: the factor needs no fallback
    h, est, p = kernel_case(n, 3, t=9, seed=40 + n)
    sigma2 = 1e-3
    base = receiver._base_gram(est, p, sigma2)
    c = receiver._gram_cholesky(receiver._solver_layout(est.h_hat), base, p)
    for j in range(n):
        assert np.all(np.isfinite(c[j][j]))
        assert np.all(c[j][j] ** 2 >= sigma2 * (1.0 - 1e-12))
    # C C^H rebuilds the Gram matrix; factor entries are (L, t)
    zero = np.zeros_like(c[0][0])
    low = np.array([[c[i][j] if j <= i else zero for j in range(n)]
                    for i in range(n)])            # (N, N, L, t)
    low = np.moveaxis(low, (0, 1), (-2, -1)).swapaxes(0, 1)  # (t, L, N, N)
    gram = low @ np.conj(np.swapaxes(low, -1, -2))
    want = oracle_gram(est, p, sigma2)
    assert np.max(np.abs(gram - want)) <= 1e-12 * np.max(np.abs(want))


# --------------------------------------------------------------- sinr / se

def coef_of(a, d, b, c):
    a = np.asarray(a, float)
    return __import__("cfuav.receiver", fromlist=["SinrCoefficients"]).SinrCoefficients(
        a=a, d=np.asarray(d, float), b=np.asarray(b, float),
        c=np.asarray(c, float), clamp_count=0, built_at_power=np.ones(a.size))


def test_sinr_zero_power():
    coef = coef_of([1.0, 2.0], [0.1, 0.1], [[0, 0.2], [0.3, 0]], [0.5, 0.5])
    np.testing.assert_array_equal(sinr(coef, np.zeros(2)), np.zeros(2))


def test_sinr_direct_substitution():
    coef = coef_of([2.0], [0.0], [[0.0]], [1.0])
    assert sinr(coef, np.array([0.2]))[0] == pytest.approx(0.4)


def test_sinr_self_term_asymptote():
    coef = coef_of([2.0], [0.5], [[0.0]], [1.0])
    assert sinr(coef, np.array([1e12]))[0] == pytest.approx(4.0, rel=1e-6)
    assert sinr(coef, np.array([1e12]))[0] < 4.0


def test_sinr_monotonicity_finite_differences():
    r = rng(9)
    k = 5
    coef = coef_of(r.uniform(0.5, 2, k), r.uniform(0, 0.1, k),
                   r.uniform(0.01, 0.3, (k, k)) * (1 - np.eye(k)),
                   r.uniform(0.1, 0.5, k))
    p = r.uniform(0.05, 0.15, k)
    g0 = sinr(coef, p)
    for k_idx in range(k):
        up = p.copy()
        up[k_idx] += 1e-4
        g1 = sinr(coef, up)
        assert g1[k_idx] > g0[k_idx]
        others = np.delete(np.arange(k), k_idx)
        assert np.all(g1[others] <= g0[others] + 1e-15)


def test_spectral_efficiency_values():
    se = spectral_efficiency(np.array([0.0, 1.0, 3.0]), 10, 200)
    np.testing.assert_allclose(se.se, [0.0, 0.95, 1.90], atol=1e-12)
    assert spectral_efficiency(np.array([0.0]), 10, 200).se[0] == 0.0


def test_spectral_efficiency_rejects_bad_inputs():
    with pytest.raises(ValueError):
        spectral_efficiency(np.array([-0.1]), 10, 200)
    with pytest.raises(ValueError):
        spectral_efficiency(np.array([1.0]), 200, 200)
