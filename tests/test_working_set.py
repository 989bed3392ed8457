"""The ensemble kernels run over blocks of whole O-RUs (propagation.oru_blocks),
so a trial holds its own arrays plus one block of temporaries, and the block
size is a memory and speed choice, not a numeric one."""

import tracemalloc

import numpy as np

from cfuav import propagation
from cfuav.association import baseline_association
from cfuav.harness import prepare_trial
from cfuav.powerctl import full_power
from cfuav.receiver import channel_moments
from cfuav.scenario import desk_scale

MB = 1 << 20


def desk_trial_config():
    return desk_scale(num_uavs=20, master_seed=2026)


def ba_mask(data, cfg):
    return baseline_association(data.beta, cfg.pilot_len, cfg.n_top) != 0


def first_rounds_mask(data):
    return (data.first["BA"][0] != 0) | (data.first["PA"][0] != 0)


def test_oru_blocks_cover_whole_orus_within_the_target(monkeypatch):
    monkeypatch.setattr(propagation, "BLOCK_BYTES", 100)
    blocks = propagation.oru_blocks
    assert blocks(7, 10) == [slice(0, 7)]               # fits: one slice
    assert blocks(7, 30) == [slice(0, 3), slice(3, 6), slice(6, 7)]
    assert blocks(3, 150) == [slice(0, 1), slice(1, 2), slice(2, 3)]
    assert blocks(5, [60, 40, 1, 200, 99]) == [slice(0, 2), slice(2, 3),
                                               slice(3, 4), slice(4, 5)]


def test_trial_peaks_one_block_above_what_it_keeps():
    # numpy reports its buffers to tracemalloc: after a call, the traced
    # bytes are what it keeps, and its peak above that is its temporaries
    cfg = desk_trial_config()
    prepare_trial(cfg, 1)       # first-call allocations are not the trial's
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        data = prepare_trial(cfg, 0)
        kept, peak = tracemalloc.get_traced_memory()
        full = data.moments_full
        assert kept - before >= (full.h.nbytes + full.h_hat.nbytes
                                 + full.features.nbytes)
        assert peak - kept <= 2 * MB

        # one AO round's moments at a power other than full, and its fill of
        # the baseline pairs
        p = full_power(cfg.num_uavs, cfg.p_max_w)
        p[::2] *= 0.5
        mask = ba_mask(data, cfg)
        tracemalloc.reset_peak()
        moments = channel_moments(data.h, data.est, p, data.sigma2,
                                  full.features)
        moments.fill(mask)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert moments is not data.moments_full and moments.filled.any()
    assert peak - kept <= 2 * MB


def assert_close(a, b):
    assert np.abs(a - b).max() <= 1e-13 * np.abs(a).max()


def test_block_size_moves_no_value_beyond_rounding(monkeypatch):
    cfg = desk_trial_config()
    wide = prepare_trial(cfg, 0)
    monkeypatch.setattr(propagation, "BLOCK_BYTES", 64 * 1024)
    narrow = prepare_trial(cfg, 0)
    # the narrow target really splits the kernels differently
    per_oru = wide.moments_full.h[0].nbytes
    assert len(propagation.oru_blocks(cfg.num_orus, per_oru)) == cfg.num_orus
    monkeypatch.undo()
    assert len(propagation.oru_blocks(cfg.num_orus, per_oru)) < cfg.num_orus

    assert np.asarray(wide.h).tobytes() == np.asarray(narrow.h).tobytes()
    assert (np.asarray(wide.est.h_hat).tobytes()
            == np.asarray(narrow.est.h_hat).tobytes())
    assert wide.channel_hash == narrow.channel_hash
    mw, mn = wide.moments_full, narrow.moments_full
    assert_close(mw.features, mn.features)
    for row_w, row_n in zip(mw.c, mn.c):
        for entry_w, entry_n in zip(row_w, row_n):
            assert_close(entry_w, entry_n)
    # both first rounds fill the trial's full-power moments
    np.testing.assert_array_equal(mw.filled, first_rounds_mask(wide))
    np.testing.assert_array_equal(mn.filled, mw.filled)
    for name in ("g1", "g2", "gn"):
        assert_close(getattr(mw, name), getattr(mn, name))
