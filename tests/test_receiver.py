import numpy as np
import pytest

from cfuav import receiver
from cfuav.pilots import EstimationResult
from cfuav.receiver import (ChannelMoments, assemble_coefficients,
                            channel_moments, cpu_weights, sinr,
                            spectral_efficiency)


def rng(seed=0):
    return np.random.default_rng(seed)


def est_from(h_hat, c_err=None):
    h_hat = np.asarray(h_hat, dtype=complex)
    _, k, l, n = h_hat.shape
    if c_err is None:
        c_err = np.zeros((k, l, n, n), dtype=complex)
    zeros = np.zeros_like(c_err)
    return EstimationResult(h_hat=h_hat, c_hat=zeros, c_err=c_err)


def deterministic_setup(vectors, t=4):
    """Perfect-CSI ensemble (h == h_hat, identical across realizations)."""
    k = len(vectors)
    n = len(vectors[0])
    h = np.zeros((t, k, 1, n), dtype=complex)
    for i, v in enumerate(vectors):
        h[:, i, 0] = v
    return h, est_from(h)


# ---------------------------------------------------------------- combiner

def lmmse_solve(h_hat, base, powers):
    """The receiver's L-MMSE solve of a solver-layout block (L, N, t, K) for
    all K UAVs: the Cholesky factor, then substitution."""
    c = receiver._gram_cholesky(h_hat, base, powers)
    v = receiver._substitute(c, h_hat.transpose(1, 3, 0, 2).copy())
    return v.transpose(2, 0, 3, 1)


def solved_combiners(est, powers, sigma2):
    """The receiver's L-MMSE solve over the whole ensemble, returned as
    (T, K, L, N)."""
    powers = np.asarray(powers, dtype=float)
    v = lmmse_solve(receiver.solver_layout(est.h_hat),
                    receiver._base_gram(est, powers, sigma2), powers)
    return v.transpose(2, 3, 0, 1)


def hand_moments(g1, g2, gn):
    """ChannelMoments that hold the given values with every pair filled, so
    no fill reads the ensemble, which they do not have."""
    return ChannelMoments(g1=g1, g2=g2, gn=gn,
                          filled=np.ones(np.shape(g1), dtype=bool),
                          h=None, h_hat=None, features=None, c=None)


def filled_moments(h, est, powers, sigma2):
    """channel_moments with every (k, l) pair filled."""
    m = channel_moments(h, est, powers, sigma2)
    m.fill(np.ones(m.g1.shape, dtype=bool))
    return m


def test_lmmse_rank_one_hand_inverse():
    # single UAV, h_hat = e1, p = 1, sigma^2 = 1: v = (h h^H + I)^{-1} h = e1/2
    h, est = deterministic_setup([np.array([1.0, 0.0])], t=1)
    v = solved_combiners(est, np.array([1.0]), 1.0)
    np.testing.assert_allclose(v[0, 0, 0], np.array([0.5, 0.0]), atol=1e-12)
    # the same v seen through the moments: v^H h = 1/2, ||v||^2 = 1/4
    m = filled_moments(h, est, np.array([1.0]), 1.0)
    np.testing.assert_allclose(m.g1, [[0.5]], atol=1e-12)
    np.testing.assert_allclose(m.gn, [[0.25]], atol=1e-12)


def test_lmmse_matched_filter_limit():
    r = rng(1)
    h, est = deterministic_setup([r.standard_normal(3) + 1j * r.standard_normal(3)],
                                 t=1)
    sigma2 = 1e6 * np.linalg.norm(h[0, 0, 0]) ** 2
    v = solved_combiners(est, np.array([1.0]), sigma2)[0, 0, 0]
    hh = h[0, 0, 0]
    cos = abs(np.vdot(v, hh)) / (np.linalg.norm(v) * np.linalg.norm(hh))
    assert cos > 0.999


# ----------------------------------------------------------------- weights

def test_cpu_weights():
    beta = np.array([[4.0, 1.0], [9.0, 16.0]])
    a = np.array([[1, 0], [1, 1]])
    w = cpu_weights(a, beta)
    np.testing.assert_allclose(w, [[2.0, 0.0], [3.0, 4.0]])
    assert not cpu_weights(np.zeros_like(a), beta).any()


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
    moments = hand_moments(
        g1=r.standard_normal((k, l)) + 1j * r.standard_normal((k, l)),
        g2=r.uniform(0.1, 1.0, (k, k, l)), gn=r.uniform(0.1, 1.0, (k, l)))
    beta = r.uniform(0.5, 2.0, (k, l))
    a_full = np.ones((k, l), dtype=int)
    a_gated = a_full.copy()
    a_gated[:, 2:] = 0
    coef_gated = assemble_coefficients(moments, cpu_weights(a_gated, beta), 0.1)
    beta_sub = beta.copy()
    moments_sub = hand_moments(g1=moments.g1[:, :2], g2=moments.g2[..., :2],
                               gn=moments.gn[:, :2])
    coef_sub = assemble_coefficients(moments_sub,
                                     cpu_weights(a_gated[:, :2], beta_sub[:, :2]),
                                     0.1)
    np.testing.assert_allclose(coef_gated.a, coef_sub.a, rtol=1e-12)
    np.testing.assert_allclose(coef_gated.b, coef_sub.b, rtol=1e-12)
    np.testing.assert_allclose(coef_gated.c, coef_sub.c, rtol=1e-12)


def test_unserved_uav_flagged_by_zero_gain():
    r = rng(4)
    k, l = 2, 2
    moments = hand_moments(
        g1=np.ones((k, l), complex), g2=r.uniform(0.1, 1.0, (k, k, l)),
        gn=np.ones((k, l)))
    a = np.array([[1, 1], [0, 0]])
    coef = assemble_coefficients(moments, cpu_weights(a, np.ones((k, l))), 0.1)
    assert coef.a[1] == 0.0
    gam = sinr(coef, np.array([0.2, 0.2]))
    assert gam[1] == 0.0 and gam[0] > 0.0


def test_variance_clamp_counted_on_served_pairs_only():
    # both pairs of UAV 0 have a negative variance estimate; only the served
    # one reaches d, so only it is counted
    moments = hand_moments(g1=np.full((1, 2), 2.0 + 0j),
                           g2=np.full((1, 1, 2), 3.9),  # below |g1|^2 = 4
                           gn=np.ones((1, 2)))
    served = np.array([[1, 0]])
    coef = assemble_coefficients(moments, cpu_weights(served, np.ones((1, 2))),
                                 0.1)
    assert coef.clamp_count == 1
    assert coef.d[0] == 0.0
    coef = assemble_coefficients(moments, cpu_weights(np.ones((1, 2)),
                                                      np.ones((1, 2))), 0.1)
    assert coef.clamp_count == 2


def test_variance_clamp_counted():
    k, l = 1, 1
    moments = hand_moments(g1=np.array([[2.0 + 0j]]),
                           g2=np.array([[[3.9]]]),  # below |g1|^2 = 4
                           gn=np.ones((k, l)))
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


def test_estimate_sinr_coefficients_matches_fused_path():
    # coefficients estimated from the oracle's explicit combiners and
    # cross terms agree with the fused channel_moments path
    r = rng(6)
    t, k, l, n = 25, 3, 2, 2
    h = r.standard_normal((t, k, l, n)) + 1j * r.standard_normal((t, k, l, n))
    est = est_from(h + 0.1 * r.standard_normal(h.shape),
                   np.broadcast_to(0.02 * np.eye(n), (k, l, n, n)).copy())
    p = r.uniform(0.1, 0.2, k)
    sigma2 = 0.1
    a = np.ones((k, l), dtype=int)
    w = cpu_weights(a, r.uniform(0.5, 1.5, (k, l)))
    v = oracle_combiners(est, p, sigma2)
    coef1 = assemble_coefficients(moments_of(h, v), w, sigma2)
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
    weights = cpu_weights(np.ones((k_num, 1)), np.ones((k_num, 1)))
    coef = assemble_coefficients(moments_of(h, est.h_hat), weights, sigma2)
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


def test_filled_moments_are_bit_reproducible():
    r = rng(7)
    t, k, l, n = 70, 2, 2, 2
    h = r.standard_normal((t, k, l, n)) + 1j * r.standard_normal((t, k, l, n))
    est = est_from(h, np.broadcast_to(0.01 * np.eye(n), (k, l, n, n)).copy())
    p = np.full(k, 0.2)
    m1 = filled_moments(h, est, p, 0.1)
    m2 = filled_moments(h, est, p, 0.1)
    np.testing.assert_array_equal(m1.g1, m2.g1)
    np.testing.assert_array_equal(m1.g2, m2.g2)


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
        m = filled_moments(h, est, p, 0.1)
        # per-sample second-moment spread for the standard error
        v = oracle_combiners(est, p, 0.1)
        cross = np.einsum("tkln,tiln->tkil", np.conj(v), h)
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


def moments_of(h, v):
    """ChannelMoments of explicit combiners v (T, K, L, N), reduced by the
    oracle."""
    return hand_moments(*oracle_moments(h, v))


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
    h, est, p = kernel_case(n, k, seed=10 * n + k)
    sigma2 = 0.2
    m = filled_moments(h, est, p, sigma2)
    assert_moments_close(m, *oracle_moments(h, oracle_combiners(est, p, sigma2)))


def test_channel_moments_match_oracle_on_desk_trial():
    from cfuav.harness import prepare_trial
    from cfuav.scenario import desk_scale

    cfg = desk_scale(num_uavs=5, master_seed=2026)
    data = prepare_trial(cfg, 0)
    p = rng(11).uniform(0.0, cfg.p_max_w, cfg.num_uavs)
    m = filled_moments(data.h, data.est, p, data.sigma2)
    v = oracle_combiners(data.est, p, data.sigma2)
    assert_moments_close(m, *oracle_moments(data.h, v))


# ------------------------------------------- memoized fills vs dense oracle

def dense_block_moments(h, est, powers, sigma2, chunk=32):
    """The dense block reduction: every (k, l) pair, `chunk` realizations at
    a time, with the block's g2 sum one real GEMM per O-RU, (K x N^2 t)
    f(v)^T times (N^2 t x K) f(h). Returns (g1, g2, gn)."""
    powers = np.asarray(powers, dtype=float)
    base = receiver._base_gram(est, powers, sigma2)
    t_num, k_num, l_num, n = h.shape
    hs = receiver.solver_layout(h)
    h_hat = receiver.solver_layout(est.h_hat)
    s1 = np.zeros((l_num, k_num), dtype=complex)
    s2 = np.zeros((l_num, k_num, k_num))
    sn = np.zeros((l_num, k_num))
    for t0 in range(0, t_num, chunk):
        block = slice(t0, t0 + chunk)
        hb = hs[:, :, block]
        v = lmmse_solve(h_hat[:, :, block], base, powers)
        fv = receiver._features(v, 1)
        s1 += np.einsum("lntk,lntk->lk", np.conj(v), hb)
        sn += fv[:, :n].sum(axis=(1, 2))
        s2 += np.matmul(fv.reshape(l_num, -1, k_num).swapaxes(1, 2),
                        receiver._features(hb, 1).reshape(l_num, -1, k_num))
    return s1.T / t_num, s2.transpose(1, 2, 0) / t_num, sn.T / t_num


def assert_filled_pairs_match(m, dense, mask):
    """Exactly the pairs of mask are filled, each within 1e-12 relative of
    the dense oracle (g2 per (k, l) row, against the row's largest entry),
    and every other pair reads 0."""
    g1, g2, gn = dense
    np.testing.assert_array_equal(m.filled, mask)
    for k, l in zip(*np.nonzero(mask)):
        assert abs(m.g1[k, l] - g1[k, l]) <= 1e-12 * abs(g1[k, l])
        assert abs(m.gn[k, l] - gn[k, l]) <= 1e-12 * gn[k, l]
        row = np.abs(g2[k, :, l])
        assert np.all(np.abs(m.g2[k, :, l] - g2[k, :, l]) <= 1e-12 * row.max())
    assert not m.g1[~mask].any() and not m.gn[~mask].any()
    assert not m.g2.transpose(0, 2, 1)[~mask].any()


@pytest.mark.parametrize("n", [1, 2, 4])
def test_memoized_fills_match_dense_oracle(n):
    # L = 5 O-RUs: fills of one pair, of some O-RUs and of all of them;
    # T = 45 is not a multiple of the oracle's block
    k, l = 6, 5
    h, est, p = kernel_case(n, k, l=l, seed=60 + n)
    sigma2 = 0.2
    dense = dense_block_moments(h, est, p, sigma2)
    r = rng(70 + n)
    m = channel_moments(h, est, p, sigma2)
    mask = np.zeros((k, l), dtype=bool)
    assert_filled_pairs_match(m, dense, mask)
    for density in (0.2, 0.5, 0.9, 1.0):          # random growing masks
        mask |= r.random((k, l)) < density
        m.fill(mask)
        assert_filled_pairs_match(m, dense, mask)
    m = channel_moments(h, est, p, sigma2)
    mask = np.zeros((k, l), dtype=bool)
    for flat in r.permutation(k * l)[:12]:        # one pair at a time
        mask.flat[flat] = True
        m.fill(mask)
        assert_filled_pairs_match(m, dense, mask)


def test_fill_reduces_exactly_its_new_pairs(monkeypatch):
    # O-RU 1 gets 4 new pairs, O-RUs 3 and 4 one each, and a memoized pair
    # of O-RU 3 is asked for again: _reduce sees the 6 new pairs, by O-RU,
    # then by UAV, and no padding rows
    h, est, p = kernel_case(2, 6, l=5, seed=81)
    sigma2 = 0.2
    m = channel_moments(h, est, p, sigma2)
    mask = np.zeros((6, 5), dtype=bool)
    mask[2, 3] = True
    m.fill(mask)
    calls = []
    reduce = receiver.ChannelMoments._reduce

    def recorded(self, *args):
        calls.append([np.array(a) for a in args])
        return reduce(self, *args)

    monkeypatch.setattr(receiver.ChannelMoments, "_reduce", recorded)
    mask[[0, 2, 3, 5], 1] = True
    mask[1, 3] = mask[4, 4] = True
    m.fill(mask)
    assert len(calls) == 1
    ks, ls = calls[0]
    np.testing.assert_array_equal(ks, [0, 2, 3, 5, 1, 4])
    np.testing.assert_array_equal(ls, [1, 1, 1, 1, 3, 4])
    assert_filled_pairs_match(m, dense_block_moments(h, est, p, sigma2), mask)


def test_fill_keeps_memoized_values():
    # a pair reads the same bits for the life of the object, whatever later
    # fills compute around it
    h, est, p = kernel_case(2, 6, l=5, seed=80)
    m = channel_moments(h, est, p, 0.2)
    first = np.zeros((6, 5), dtype=bool)
    first[[1, 4], 2] = True
    m.fill(first)
    kept = (m.g1[first].copy(), m.g2.transpose(0, 2, 1)[first].copy(),
            m.gn[first].copy())
    m.fill(np.ones((6, 5), dtype=bool))
    np.testing.assert_array_equal(m.g1[first], kept[0])
    np.testing.assert_array_equal(m.g2.transpose(0, 2, 1)[first], kept[1])
    np.testing.assert_array_equal(m.gn[first], kept[2])


def test_memoized_fills_match_dense_oracle_on_desk_trial():
    from cfuav.association import baseline_association
    from cfuav.harness import prepare_trial
    from cfuav.powerctl import full_power
    from cfuav.scenario import desk_scale

    cfg = desk_scale(num_uavs=10, master_seed=2026)
    data = prepare_trial(cfg, 0)
    ba = baseline_association(data.beta, cfg.pilot_len, cfg.n_top) != 0
    full = data.moments_full
    dense = dense_block_moments(data.h, data.est,
                                full_power(cfg.num_uavs, cfg.p_max_w),
                                data.sigma2)
    assert_filled_pairs_match(full, dense, ba)   # prefilled for BA
    mask = ba.copy()
    for flat in rng(12).permutation(np.flatnonzero(~ba))[:6]:
        mask.flat[flat] = True
        full.fill(mask)
        assert_filled_pairs_match(full, dense, mask)
    p = rng(11).uniform(0.0, cfg.p_max_w, cfg.num_uavs)
    m = channel_moments(data.h, data.est, p, data.sigma2)
    m.fill(ba)
    assert_filled_pairs_match(
        m, dense_block_moments(data.h, data.est, p, data.sigma2), ba)


@pytest.mark.parametrize("n", [1, 2, 4])
def test_gram_cholesky_pivots_bounded_by_noise(n):
    # G >= sigma^2 I, so every pivot satisfies C_jj^2 >= sigma^2 even with a
    # zero power and an all-zero estimate: the factor needs no fallback
    h, est, p = kernel_case(n, 3, t=9, seed=40 + n)
    sigma2 = 1e-3
    base = receiver._base_gram(est, p, sigma2)
    c = receiver._gram_cholesky(receiver.solver_layout(est.h_hat), base, p)
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
        c=np.asarray(c, float), clamp_count=0)


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
