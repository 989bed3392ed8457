import math

import numpy as np
import pytest
from scipy import stats as scistats

from cfuav.scenario import (STREAM_PURPOSES, ExperimentConfig, StreamKey,
                            build_topology, derive_stream, desk_scale,
                            load_config, trial_streams)


def test_default_parameters():
    cfg = ExperimentConfig()
    assert cfg.area_side_m == 1000.0
    assert cfg.num_orus == 100
    assert cfg.antennas_per_oru == 4
    assert cfg.uav_alt_range == (50.0, 150.0)
    assert cfg.carrier_freq_ghz == 2.6
    assert (cfg.coherence_len, cfg.pilot_len) == (200, 10)
    assert cfg.rician_k_range_db == (0.0, 20.0)
    assert (cfg.shadow_sigma_los_db, cfg.shadow_sigma_nlos_db) == (4.0, 6.0)
    assert cfg.p_max_dbm == 23.0
    assert (cfg.noise_psd_dbm_hz, cfg.noise_figure_db) == (-174.0, 9.0)
    assert (cfg.eps_bisect, cfg.eps_fp, cfg.n_max_fp) == (1e-4, 1e-3, 20)
    assert (cfg.eps_ao, cfg.i_max_ao, cfg.n_top) == (1e-3, 15, 3)


def test_derived_powers():
    cfg = ExperimentConfig()
    assert cfg.p_max_w == pytest.approx(10 ** ((23.0 - 30.0) / 10.0))
    assert cfg.pilot_power_w == cfg.p_max_w
    sigma2_dbm = -174.0 + 10.0 * math.log10(20e6) + 9.0
    assert cfg.noise_power_w == pytest.approx(10 ** ((sigma2_dbm - 30.0) / 10.0))
    assert cfg.prelog == pytest.approx(0.95)


@pytest.mark.parametrize("bad", [
    dict(pilot_len=200),                 # tau_p must stay below tau_c
    dict(num_uavs=0),
    dict(num_orus=0),
    dict(area_side_m=0.0),
    dict(uav_alt_range=(50.0, 400.0)),
    dict(uav_alt_range=(0.0, 100.0)),
    dict(bandwidth_hz=0.0),
    dict(p_max_dbm=float("inf")),
    dict(eps_bisect=0.0),
    dict(trials=0),
    dict(uav_alt_range=(10.0, 20.0)),    # below the UMa-AV band
    dict(uav_alt_range=(22.5, 100.0)),   # the band's lower edge is open
])
def test_config_invariants_rejected(bad):
    with pytest.raises(ValueError):
        ExperimentConfig(**bad)


def test_desk_scale_preset():
    cfg = desk_scale()
    assert (cfg.num_orus, cfg.antennas_per_oru) == (25, 2)
    assert (cfg.pilot_len, cfg.trials) == (5, 50)
    assert cfg.coherence_len == 200  # untouched defaults stay


def _key(purpose, trial=0, seed=7):
    return StreamKey(master_seed=seed, trial_index=trial, purpose=purpose)


def test_topology_inside_square():
    cfg = ExperimentConfig(num_orus=100, num_uavs=50)
    topo = build_topology(cfg, _key("topology"))
    assert topo.oru_positions.shape == (100, 3)
    assert topo.uav_positions.shape == (50, 3)
    for xy in (topo.oru_positions[:, :2], topo.uav_positions[:, :2]):
        assert np.all(xy >= 0.0) and np.all(xy <= 1000.0)
    assert np.all(topo.oru_positions[:, 2] == cfg.oru_height_m)


def test_topology_altitude_range():
    cfg = ExperimentConfig(uav_alt_range=(50.0, 150.0), num_uavs=200)
    topo = build_topology(cfg, _key("topology"))
    alt = topo.uav_positions[:, 2]
    assert np.all(alt >= 50.0) and np.all(alt <= 150.0)


def test_topology_deterministic():
    cfg = ExperimentConfig(num_uavs=10, num_orus=10)
    t1 = build_topology(cfg, _key("topology"))
    t2 = build_topology(cfg, _key("topology"))
    np.testing.assert_array_equal(t1.oru_positions, t2.oru_positions)
    np.testing.assert_array_equal(t1.uav_positions, t2.uav_positions)


def test_topology_needs_topology_stream():
    with pytest.raises(ValueError):
        build_topology(ExperimentConfig(), _key("shadowing"))


def test_stream_determinism_and_distinctness():
    a = derive_stream(_key("shadowing")).random(100)
    b = derive_stream(_key("shadowing")).random(100)
    np.testing.assert_array_equal(a, b)
    c = derive_stream(_key("shadowing", trial=1)).random(100)
    assert not np.array_equal(a, c)


def test_stream_unknown_purpose_rejected():
    with pytest.raises(ValueError):
        StreamKey(master_seed=1, trial_index=0, purpose="coffee")


def test_purpose_streams_uncorrelated():
    n = 100_000
    draws = {p: derive_stream(_key(p)).random(n) for p in STREAM_PURPOSES}
    names = list(STREAM_PURPOSES)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            rho = np.corrcoef(draws[names[i]], draws[names[j]])[0, 1]
            assert abs(rho) < 0.02, (names[i], names[j], rho)


def test_trial_streams_cover_all_purposes():
    streams = trial_streams(ExperimentConfig(), 3)
    assert set(streams) == set(STREAM_PURPOSES)


def test_x_coordinates_uniform_ks():
    cfg = ExperimentConfig(num_uavs=10_000, num_orus=1)
    topo = build_topology(cfg, _key("topology", seed=123))
    x = topo.uav_positions[:, 0] / cfg.area_side_m
    assert scistats.kstest(x, "uniform").pvalue > 0.01


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# desk run\n"
        "num_orus = 25\n"
        "antennas_per_oru = 2\n"
        "uav_alt_range = 60, 120\n"
        "p_max_dbm = 20\n"
        "master_seed = 99\n")
    cfg = load_config(path)
    assert cfg.num_orus == 25
    assert cfg.antennas_per_oru == 2
    assert cfg.uav_alt_range == (60.0, 120.0)
    assert cfg.p_max_dbm == 20.0
    assert cfg.master_seed == 99
    assert cfg.coherence_len == 200  # untouched default


def test_load_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("frobnicate = 1\n")
    with pytest.raises(ValueError):
        load_config(path)


def test_load_config_rejects_garbage_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_orus 25\n")
    with pytest.raises(ValueError):
        load_config(path)
