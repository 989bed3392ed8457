import math

import numpy as np
import pytest
from scipy import stats as scistats

from cfuav.scenario import (ORU_HEIGHT_M, STREAM_PURPOSES, ExperimentConfig,
                            build_topology, desk_scale, load_config,
                            trial_streams)


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
    dict(se_min=-0.5),
    dict(carrier_freq_ghz=0.0),          # the path loss takes its log10
    dict(rician_k_range_db=(20.0, 0.0)),
    dict(angular_spread_deg_mean=20.0),  # the triangular mode must lie in range
    dict(angular_spread_deg_range=(-5.0, 15.0)),
    dict(angular_spread_deg_range=(8.0, 8.0), angular_spread_deg_mean=8.0),
    dict(noise_figure_db=float("nan")),  # non-finite floats fail at load
    dict(noise_psd_dbm_hz=float("nan")),
    dict(area_side_m=float("inf")),
    dict(rician_k_range_db=(0.0, float("inf"))),
    dict(master_seed=-1),                # SeedSequence takes no negative seed
    dict(num_uavs=101, num_orus=10),     # above L * tau_p = 100 pilot slots
    dict(num_uavs=2, num_orus=1, pilot_len=1),
])
def test_config_invariants_rejected(bad):
    with pytest.raises(ValueError):
        ExperimentConfig(**bad)


def test_desk_scale_preset():
    cfg = desk_scale()
    assert (cfg.num_orus, cfg.antennas_per_oru) == (25, 2)
    assert (cfg.pilot_len, cfg.trials) == (5, 50)
    assert cfg.coherence_len == 200  # untouched defaults stay


def _stream(purpose, trial=0, seed=7):
    return trial_streams(ExperimentConfig(master_seed=seed), trial)[purpose]


def test_topology_inside_square():
    cfg = ExperimentConfig(num_orus=100, num_uavs=50)
    topo = build_topology(cfg, _stream("topology"))
    assert topo.oru_positions.shape == (100, 3)
    assert topo.uav_positions.shape == (50, 3)
    for xy in (topo.oru_positions[:, :2], topo.uav_positions[:, :2]):
        assert np.all(xy >= 0.0) and np.all(xy <= 1000.0)
    assert np.all(topo.oru_positions[:, 2] == ORU_HEIGHT_M)


def test_topology_altitude_range():
    cfg = ExperimentConfig(uav_alt_range=(50.0, 150.0), num_uavs=200)
    topo = build_topology(cfg, _stream("topology"))
    alt = topo.uav_positions[:, 2]
    assert np.all(alt >= 50.0) and np.all(alt <= 150.0)


def test_topology_deterministic():
    cfg = ExperimentConfig(num_uavs=10, num_orus=10)
    t1 = build_topology(cfg, _stream("topology"))
    t2 = build_topology(cfg, _stream("topology"))
    np.testing.assert_array_equal(t1.oru_positions, t2.oru_positions)
    np.testing.assert_array_equal(t1.uav_positions, t2.uav_positions)


def test_stream_determinism_and_distinctness():
    a = _stream("shadowing").random(100)
    b = _stream("shadowing").random(100)
    np.testing.assert_array_equal(a, b)
    c = _stream("shadowing", trial=1).random(100)
    assert not np.array_equal(a, c)


def test_purpose_streams_uncorrelated():
    n = 100_000
    draws = {p: _stream(p).random(n) for p in STREAM_PURPOSES}
    names = list(STREAM_PURPOSES)
    for i in range(len(names)):
        for j in range(i + 1, len(names)):
            rho = np.corrcoef(draws[names[i]], draws[names[j]])[0, 1]
            assert abs(rho) < 0.02, (names[i], names[j], rho)


def test_trial_streams_cover_all_purposes():
    streams = trial_streams(ExperimentConfig(), 3)
    assert set(streams) == set(STREAM_PURPOSES)


def test_x_coordinates_uniform_ks():
    cfg = ExperimentConfig(num_uavs=10_000, num_orus=1000)
    topo = build_topology(cfg, _stream("topology", seed=123))
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


def test_load_config_rejects_uav_count_above_pilot_capacity(tmp_path):
    # no association serves more UAVs than L * tau_p = 6 * 3 = 18
    path = tmp_path / "crowded.cfg"
    path.write_text("num_orus = 6\npilot_len = 3\nnum_uavs = 19\n")
    with pytest.raises(ValueError, match="exceeds num_orus \\* pilot_len"):
        load_config(path)
    path.write_text("num_orus = 6\npilot_len = 3\nnum_uavs = 18\n")
    assert load_config(path).num_uavs == 18


def test_load_config_overrides_apply_before_the_checks(tmp_path):
    # the file alone fails (default 50 UAVs > 6 * 3 slots); an override that
    # fits is checked in its place, and overrides win over the file
    path = tmp_path / "small.cfg"
    path.write_text("num_orus = 6\npilot_len = 3\ntrials = 9\n")
    with pytest.raises(ValueError, match="num_uavs = 50"):
        load_config(path)
    cfg = load_config(path, num_uavs=4, trials=2)
    assert (cfg.num_orus, cfg.pilot_len, cfg.num_uavs, cfg.trials) == (6, 3, 4, 2)


def test_load_config_rejects_garbage_line(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("num_orus 25\n")
    with pytest.raises(ValueError):
        load_config(path)


@pytest.mark.parametrize("line, message", [
    ("num_orus = 2.5", "invalid literal for int()"),
    ("se_min = one", "could not convert string to float"),
    ("uav_alt_range = 50", "expects two numbers, got '50'"),
])
def test_load_config_value_error_names_file_line_and_key(tmp_path, line,
                                                         message):
    path = tmp_path / "bad.cfg"
    path.write_text(f"# header\ntrials = 3\n{line}\n")
    key = line.split("=")[0].strip()
    with pytest.raises(ValueError) as info:
        load_config(path)
    assert str(info.value).startswith(f"{path}:3: {key}: ")
    assert message in str(info.value)
