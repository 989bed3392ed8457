import math

import numpy as np
import pytest

from cfuav.propagation import (ChannelStats, LargeScaleLink, LinkGeometry,
                               channel_stats, covariance_sqrt,
                               draw_angular_spread, draw_channels, large_scale,
                               link_geometry, los_probability, path_loss_db,
                               sample_los_state, spatial_correlation,
                               steering_vector)
from cfuav.scenario import ExperimentConfig, Topology, trial_streams


def geom_of(uavs, orus):
    return link_geometry(Topology(oru_positions=np.atleast_2d(np.array(orus, float)),
                                  uav_positions=np.atleast_2d(np.array(uavs, float))))


def rng(seed=0):
    return np.random.default_rng(seed)


# ---------------------------------------------------------------- geometry

def test_vertical_link():
    g = geom_of([(0, 0, 100)], [(0, 0, 25)])
    assert g.d_2d[0, 0] == 0.0
    assert g.d_3d[0, 0] == pytest.approx(75.0)
    assert g.elevation[0, 0] == pytest.approx(math.pi / 2)


def test_geometry_hand_value():
    g = geom_of([(300, 400, 125)], [(0, 0, 25)])
    assert g.d_2d[0, 0] == pytest.approx(500.0)
    assert g.d_3d[0, 0] == pytest.approx(math.sqrt(500.0 ** 2 + 100.0 ** 2))
    assert g.elevation[0, 0] == pytest.approx(math.asin(100.0 / math.sqrt(260000.0)))


def test_geometry_swap_symmetry():
    g1 = geom_of([(300, 400, 125)], [(10, 20, 25)])
    g2 = geom_of([(10, 20, 125)], [(300, 400, 25)])
    assert g1.d_2d[0, 0] == pytest.approx(g2.d_2d[0, 0])
    assert g1.d_3d[0, 0] == pytest.approx(g2.d_3d[0, 0])


def test_geometry_pythagoras_property():
    r = rng(1)
    uavs = np.column_stack([r.uniform(0, 1000, 20), r.uniform(0, 1000, 20),
                            r.uniform(50, 150, 20)])
    orus = np.column_stack([r.uniform(0, 1000, 7), r.uniform(0, 1000, 7),
                            np.full(7, 25.0)])
    g = geom_of(uavs, orus)
    dh = uavs[:, 2:3] - orus[:, 2].T
    np.testing.assert_allclose(g.d_3d, np.sqrt(g.d_2d ** 2 + dh ** 2), rtol=1e-12)
    assert np.all(g.d_3d >= np.abs(dh) - 1e-12)


def test_geometry_rejects_colocated():
    with pytest.raises(ValueError):
        geom_of([(5, 5, 25)], [(5, 5, 25)])


# ---------------------------------------------------------- LoS probability

def test_los_probability_high_altitude_is_one():
    g = geom_of([(900, 0, 120)], [(0, 0, 25)])
    assert los_probability(g)[0, 0] == 1.0


def test_los_probability_zero_distance_is_one():
    for h in (30.0, 50.0, 99.0):
        g = geom_of([(0, 0, h)], [(0, 0, 25)])
        assert los_probability(g)[0, 0] == 1.0


def test_los_probability_far_limit():
    g = geom_of([(1e6, 0, 50)], [(0, 0, 25)])
    assert los_probability(g)[0, 0] < 1e-3


def test_los_probability_closed_form_value():
    # independent evaluation of the closed form at h=50, d=500
    h, d = 50.0, 500.0
    d1 = max(460.0 * math.log10(h) - 700.0, 18.0)
    p1 = 4300.0 * math.log10(h) - 3800.0
    expected = d1 / d + math.exp(-d / p1) * (1.0 - d1 / d)
    g = geom_of([(d, 0, h)], [(0, 0, 25)])
    assert los_probability(g)[0, 0] == pytest.approx(expected, rel=1e-12)


def test_los_probability_monotone_in_distance():
    d = np.linspace(1.0, 5000.0, 100)
    uavs = [(x, 0.0, 60.0) for x in d]
    g = geom_of(uavs, [(0, 0, 25)])
    p = los_probability(g)[:, 0]
    assert np.all(np.diff(p) <= 1e-12)


def test_los_probability_rejects_out_of_band_heights():
    for h in (10.0, 22.5, 301.0):
        g = geom_of([(100, 0, h)], [(0, 0, 5)])
        with pytest.raises(ValueError):
            los_probability(g)


def test_sample_los_state():
    g_sure = np.ones((1, 1))
    assert sample_los_state(g_sure, rng()).all()
    assert not sample_los_state(np.zeros((4, 4)), rng()).any()
    draws = sample_los_state(np.full((100_000, 1), 0.5), rng(3))
    assert 0.49 <= draws.mean() <= 0.51


# ------------------------------------------------------------- path loss

def test_path_loss_los_hand_values():
    g1000 = geom_of([(math.sqrt(1000.0 ** 2 - 100.0 ** 2), 0, 125)], [(0, 0, 25)])
    expected = 28.0 + 22.0 * math.log10(1000.0) + 20.0 * math.log10(2.6)
    assert path_loss_db(g1000, True, 2.6)[0, 0] == pytest.approx(expected, abs=1e-9)
    assert expected == pytest.approx(102.30, abs=5e-3)
    g1 = geom_of([(0, 0, 26)], [(0, 0, 25)])
    expected1 = 28.0 + 20.0 * math.log10(2.6)
    assert path_loss_db(g1, True, 2.6)[0, 0] == pytest.approx(expected1, abs=1e-9)
    assert expected1 == pytest.approx(36.30, abs=5e-3)


def test_path_loss_doubling_slope():
    ga = geom_of([(400, 0, 50)], [(0, 0, 25)])
    d = ga.d_3d[0, 0]
    gb = geom_of([(math.sqrt((2 * d) ** 2 - 25.0 ** 2), 0, 50)], [(0, 0, 25)])
    delta = path_loss_db(gb, True, 2.6)[0, 0] - path_loss_db(ga, True, 2.6)[0, 0]
    assert delta == pytest.approx(22.0 * math.log10(2.0), abs=1e-9)


def test_path_loss_nlos_hand_value():
    g = geom_of([(math.sqrt(1000.0 ** 2 - 75.0 ** 2), 0, 100)], [(0, 0, 25)])
    expected = (-17.5 + (46.0 - 7.0 * math.log10(100.0)) * math.log10(1000.0)
                + 20.0 * math.log10(40.0 * math.pi * 2.6 / 3.0))
    assert path_loss_db(g, False, 2.6)[0, 0] == pytest.approx(expected, abs=1e-9)


def test_path_loss_increasing_and_nlos_dominates():
    # config grid: altitudes 50..150 m, O-RU mast 25 m, f_c = 2.6 GHz
    for h in (50.0, 100.0, 150.0):
        d2d = np.linspace(1.0, 3000.0, 200)
        g = geom_of([(x, 0.0, h) for x in d2d], [(0, 0, 25)])
        pl_los = path_loss_db(g, True, 2.6)[:, 0]
        pl_nlos = path_loss_db(g, False, 2.6)[:, 0]
        assert np.all(np.diff(pl_los) > 0)
        assert np.all(np.diff(pl_nlos) > 0)
        assert np.all(pl_nlos >= pl_los)


def test_path_loss_rejects_nonpositive_distance():
    g = geom_of([(100, 0, 50)], [(0, 0, 25)])
    bad = LinkGeometry(d_2d=g.d_2d, d_3d=np.zeros_like(g.d_3d),
                       elevation=g.elevation, azimuth=g.azimuth,
                       uav_height=g.uav_height)
    with pytest.raises(ValueError):
        path_loss_db(bad, True, 2.6)


# ------------------------------------------------------------ large scale

def _config(**kw):
    return ExperimentConfig(**kw)


def test_large_scale_beta_hand_value():
    g = geom_of([(math.sqrt(1000.0 ** 2 - 100.0 ** 2), 0, 125)], [(0, 0, 25)])
    cfg = _config(shadow_sigma_los_db=0.0, shadow_sigma_nlos_db=0.0)
    ls = large_scale(g, np.array([[True]]), cfg, rng(), rng())
    pl = 28.0 + 22.0 * math.log10(1000.0) + 20.0 * math.log10(2.6)
    assert ls.beta[0, 0] == pytest.approx(10 ** (-pl / 10.0), rel=1e-12)
    assert ls.beta[0, 0] == pytest.approx(5.89e-11, rel=5e-3)


def test_large_scale_nlos_pure_scattering():
    g = geom_of([(500, 0, 80)], [(0, 0, 25)])
    ls = large_scale(g, np.array([[False]]), _config(), rng(), rng())
    assert ls.rician_k_linear[0, 0] == 0.0
    stats = channel_stats(ls, steering_vector(g, 4),
                          spatial_correlation(g, 8.0, 4))
    assert np.all(stats.mean_vec == 0.0)


def test_large_scale_shadow_std():
    r = rng(11)
    uavs = [(x, 0.0, 120.0) for x in np.linspace(10, 990, 500)]
    orus = [(y, 500.0, 25.0) for y in np.linspace(10, 990, 200)]
    g = geom_of(uavs, orus)  # 100k LoS links
    ls = large_scale(g, np.ones((500, 200), bool), _config(), r, rng())
    assert 3.96 <= ls.shadow_db.std() <= 4.04


def test_large_scale_rician_range():
    g = geom_of([(x, 0.0, 120.0) for x in np.linspace(10, 990, 300)],
                [(500, 500, 25)])
    ls = large_scale(g, np.ones((300, 1), bool), _config(), rng(), rng(5))
    k_db = 10.0 * np.log10(ls.rician_k_linear)
    assert np.all(k_db >= 0.0 - 1e-12) and np.all(k_db <= 20.0 + 1e-12)


# ------------------------------------------------- steering / correlation

def test_steering_single_antenna():
    g = geom_of([(100, 0, 50)], [(0, 0, 25)])
    np.testing.assert_array_equal(steering_vector(g, 1), np.ones((1, 1, 1)))


def test_steering_norm():
    g = geom_of([(123, 456, 77)], [(0, 0, 25)])
    a = steering_vector(g, 4)
    assert np.linalg.norm(a[0, 0]) ** 2 == pytest.approx(4.0, abs=1e-12)


def test_steering_broadside_all_ones():
    # zero elevation makes the phase argument vanish
    g = geom_of([(100, 0, 25.0000001)], [(0, 0, 25)])
    a = steering_vector(g, 4)
    np.testing.assert_allclose(a[0, 0], np.ones(4), atol=1e-6)


def test_correlation_single_antenna():
    g = geom_of([(100, 0, 50)], [(0, 0, 25)])
    np.testing.assert_allclose(spatial_correlation(g, 8.0, 1),
                               np.ones((1, 1, 1, 1)))


def test_correlation_trace_and_psd():
    g = geom_of([(300, 200, 90)], [(0, 0, 25)])
    r = spatial_correlation(g, 8.0, 4)[0, 0]
    assert np.trace(r).real == pytest.approx(4.0, abs=1e-9)
    np.testing.assert_allclose(r, r.conj().T, atol=1e-14)
    assert np.linalg.eigvalsh(r).min() >= -1e-10
    np.testing.assert_allclose(np.diag(r).real, 1.0, atol=1e-12)


def test_correlation_rank_one_limit():
    g = geom_of([(300, 200, 90)], [(0, 0, 25)])
    r = spatial_correlation(g, 1e-4, 4)[0, 0]
    w = np.sort(np.linalg.eigvalsh(r))
    assert w[-2] < 1e-4
    a = steering_vector(g, 4)[0, 0]
    np.testing.assert_allclose(r, np.outer(a, a.conj()), atol=1e-4)


def test_angular_spread_draw():
    cfg = _config()
    s = draw_angular_spread(cfg, rng(2), (50_000,))
    assert np.all(s > 5.0) and np.all(s < 15.0)
    assert s.mean() == pytest.approx((5.0 + 8.0 + 15.0) / 3.0, abs=0.05)


# ----------------------------------------------------------- statistics

def _stats_for(kappa, beta=5.89e-11, n=4):
    g = geom_of([(300, 200, 90)], [(0, 0, 25)])
    ls = LargeScaleLink(is_los=np.array([[True]]),
                        path_loss_db=np.array([[-10.0 * math.log10(beta)]]),
                        shadow_db=np.zeros((1, 1)),
                        beta=np.array([[beta]]),
                        rician_k_linear=np.array([[kappa]]))
    return channel_stats(ls, steering_vector(g, n), spatial_correlation(g, 8.0, n))


def test_channel_stats_pure_los_limit():
    stats = _stats_for(kappa=1e6)
    beta_n = 5.89e-11 * 4
    assert np.trace(stats.scatter_cov[0, 0]).real / beta_n < 2e-6


def test_channel_stats_zero_kappa():
    stats = _stats_for(kappa=0.0)
    assert np.all(stats.mean_vec == 0.0)
    np.testing.assert_allclose(stats.scatter_cov, 5.89e-11 * stats.corr,
                               rtol=1e-12)


def test_channel_stats_power_split_hand_value():
    stats = _stats_for(kappa=1.0)
    assert np.linalg.norm(stats.mean_vec[0, 0]) ** 2 == pytest.approx(
        1.178e-10, rel=5e-4)
    assert np.trace(stats.scatter_cov[0, 0]).real == pytest.approx(
        1.178e-10, rel=5e-4)


def test_channel_stats_total_power():
    for kappa in (0.0, 0.5, 3.0, 40.0):
        stats = _stats_for(kappa=kappa)
        total = (np.linalg.norm(stats.mean_vec[0, 0]) ** 2
                 + np.trace(stats.scatter_cov[0, 0]).real)
        assert total == pytest.approx(5.89e-11 * 4, rel=1e-9)


# ------------------------------------------------------------- sampling

def test_draw_channels_deterministic_mean_when_cov_zero():
    stats = _stats_for(kappa=1e9)  # scattering negligible but nonzero
    zero = ChannelStats(mean_vec=stats.mean_vec,
                        scatter_cov=np.zeros_like(stats.scatter_cov),
                        corr=stats.corr, los_steering=stats.los_steering)
    h = draw_channels(zero, 10, rng(4))
    np.testing.assert_array_equal(h, np.broadcast_to(zero.mean_vec, h.shape))


def test_draw_channels_identity_cov_moments():
    n = 2
    zero_mean = ChannelStats(mean_vec=np.zeros((1, 1, n)),
                             scatter_cov=np.eye(n)[None, None],
                             corr=np.eye(n)[None, None],
                             los_steering=np.ones((1, 1, n)))
    h = draw_channels(zero_mean, 100_000, rng(5))
    var = np.mean(np.abs(h) ** 2, axis=0)[0, 0]
    assert np.all(var >= 0.98) and np.all(var <= 1.02)


def test_draw_channels_repeatable():
    stats = _stats_for(kappa=2.0)
    config = ExperimentConfig(master_seed=9)
    h1 = draw_channels(stats, 5, trial_streams(config, 0)["scattering"])
    h2 = draw_channels(stats, 5, trial_streams(config, 0)["scattering"])
    np.testing.assert_array_equal(h1, h2)


def oracle_draw(stats, n_realizations, stream):
    """The einsum form of draw_channels: the same stream draw, then
    h = h_bar + scatter_cov^(1/2) z over the canonical (T, K, L, N) array."""
    sqrt_cov = covariance_sqrt(stats.scatter_cov)
    k, l, n = stats.mean_vec.shape
    z = stream.standard_normal((2, n_realizations, k, l, n))
    z = (z[0] + 1j * z[1]) / math.sqrt(2.0)
    return stats.mean_vec[None] + np.einsum("klij,tklj->tkli", sqrt_cov, z)


def random_link_stats(r, k, l, n):
    """Random means and PSD covariances for K x L links; one link has no
    scattering and one a rank-one covariance."""
    x = r.standard_normal((k, l, n, n)) + 1j * r.standard_normal((k, l, n, n))
    cov = x @ np.conj(x).swapaxes(-1, -2) * 1e-10
    cov[0, 0] = 0.0
    a = x[1, -1, :, :1]
    cov[1, -1] = a @ np.conj(a).T * 1e-10
    mean = 1e-5 * (r.standard_normal((k, l, n)) + 1j * r.standard_normal((k, l, n)))
    return ChannelStats(mean_vec=mean, scatter_cov=cov, corr=cov,
                        los_steering=np.ones((k, l, n)))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_draw_channels_matches_einsum_oracle(n):
    stats = random_link_stats(rng(20 + n), k=7, l=3, n=n)
    stream, oracle_stream = rng(30), rng(30)
    h = draw_channels(stats, 45, stream)
    want = oracle_draw(stats, 45, oracle_stream)
    assert h.shape == (45, 7, 3, n)
    assert np.max(np.abs(h - want)) <= 1e-12 * np.max(np.abs(want))
    # both consumed the stream identically
    np.testing.assert_array_equal(stream.standard_normal(4),
                                  oracle_stream.standard_normal(4))


def test_draw_channels_rejects_non_psd():
    bad = np.array([[[[1.0, 0.0], [0.0, -0.5]]]], dtype=complex)
    stats = ChannelStats(mean_vec=np.zeros((1, 1, 2)), scatter_cov=bad,
                         corr=bad, los_steering=np.ones((1, 1, 2)))
    with pytest.raises(ValueError):
        draw_channels(stats, 3, rng())


def test_covariance_sqrt_reconstructs():
    r = rng(6)
    x = r.standard_normal((3, 3)) + 1j * r.standard_normal((3, 3))
    cov = x @ x.conj().T
    s = covariance_sqrt(cov)
    np.testing.assert_allclose(s @ s.conj().T, cov, rtol=1e-10, atol=1e-12)


def test_power_split_monte_carlo():
    # E||h||^2 = beta * N, LoS fraction kappa/(kappa+1), within 2% at 1e5 draws
    stats = _stats_for(kappa=3.0, beta=1.0, n=4)
    h = draw_channels(stats, 100_000, rng(7))
    emp = np.mean(np.linalg.norm(h[:, 0, 0], axis=-1) ** 2)
    assert emp == pytest.approx(4.0, rel=0.02)
    los_power = np.linalg.norm(stats.mean_vec[0, 0]) ** 2
    assert los_power / 4.0 == pytest.approx(3.0 / 4.0, rel=1e-9)
