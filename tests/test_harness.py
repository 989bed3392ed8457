import dataclasses
import hashlib

import numpy as np
import pytest

from cfuav.harness import (MetricsRecord, dump_links, jain_fairness, min_se,
                           prepare_trial, read_results, run_monte_carlo,
                           run_trial, success_rate, write_results)
from cfuav.orchestrator import ALL_SCHEMES, SchemeId
from cfuav.propagation import solver_layout
from cfuav.scenario import desk_scale


# ----------------------------------------------------------------- metrics

def test_jain_uniform():
    assert jain_fairness(np.ones(4)) == pytest.approx(100.0)


def test_jain_single_user_concentration():
    assert jain_fairness(np.array([1.0, 0, 0, 0])) == pytest.approx(25.0)


def test_jain_hand_value():
    assert jain_fairness(np.array([2.0, 1.0])) == pytest.approx(90.0)


def test_jain_all_zero_is_uniform():
    assert jain_fairness(np.zeros(5)) == 100.0


def test_jain_range_property():
    rng = np.random.default_rng(0)
    for _ in range(100):
        k = int(rng.integers(1, 30))
        x = rng.uniform(0, 5, k)
        j = jain_fairness(x)
        assert 100.0 / k - 1e-9 <= j <= 100.0 + 1e-9


def test_success_rate_cases():
    assert success_rate(np.full(4, 2.0), 1.0) == 100.0
    assert success_rate(np.full(4, 0.5), 1.0) == 0.0
    assert success_rate(np.array([1.2, 0.8, 1.0, 0.4]), 1.0) == 50.0
    assert success_rate(np.array([1.0]), 1.0) == 100.0  # boundary counts


def test_success_rate_rejects_negative_target():
    with pytest.raises(ValueError):
        success_rate(np.ones(2), -0.1)


def test_min_se():
    assert min_se(np.array([1.0, 2.0, 3.0])) == 1.0
    assert min_se(np.array([0.7])) == 0.7
    assert min_se(np.array([3.0, 1.0, 2.0])) == min_se(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(ValueError):
        min_se(np.array([]))


# --------------------------------------------------------------- run_trial

def test_run_trial_shares_channel_draws(tiny_config):
    records, results = run_trial(tiny_config, 0, list(ALL_SCHEMES))
    assert len(records) == 6
    hashes = {r.channel_hash for r in records}
    assert len(hashes) == 1
    for r in records:
        assert r.num_uavs == tiny_config.num_uavs
        assert 0 <= r.success_rate <= 100 and 0 <= r.jain_fairness <= 100
        assert r.min_se >= 0


def test_run_trial_paired_ordering(tiny_config):
    for t in range(2):
        records, _ = run_trial(tiny_config, t, list(ALL_SCHEMES))
        by = {r.scheme: r for r in records}
        assert by["PA+PP"].min_se >= by["PA+FP"].min_se - 1e-9
        assert by["BA+PP"].min_se >= by["BA+FP"].min_se - 1e-9


def test_non_ao_schemes_report_zero_ao_iterations(tiny_config):
    records, _ = run_trial(tiny_config, 0, list(ALL_SCHEMES))
    for r in records:
        if r.scheme in ("PA+PP", "PA+TP"):
            assert r.ao_iterations >= 1
        else:
            assert r.ao_iterations == 0


@pytest.mark.parametrize("num_uavs", [5, 10, 20])
def test_scheme_subset_invariance(num_uavs):
    # memoized moment fills must not make a scheme's answer depend on which
    # other schemes ran before it on the same trial
    cfg = desk_scale(num_uavs=num_uavs, se_min=1.0, master_seed=2026)
    for trial in range(2):
        _, together = run_trial(cfg, trial, list(ALL_SCHEMES))
        for scheme in ALL_SCHEMES:
            _, alone = run_trial(cfg, trial, [scheme])
            a, b = together[scheme.label], alone[scheme.label]
            assert a.power.tobytes() == b.power.tobytes()
            assert a.se.se.tobytes() == b.se.se.tobytes()
            np.testing.assert_array_equal(a.association, b.association)
            assert a.trace.count == b.trace.count
            assert a.fp_iterations == b.fp_iterations


def test_scheme_work_does_not_depend_on_earlier_schemes(monkeypatch):
    # a scheme's first round fills into its own copy of the prefilled
    # moments, so it reduces the same pairs alone on a fresh trial as after
    # the other five on one trial, and the trial's moments stay as built
    from cfuav import receiver
    from cfuav.orchestrator import run_scheme

    cfg = desk_scale(num_uavs=20, se_min=1.0, master_seed=2026)
    pairs = []
    reduce = receiver.ChannelMoments._reduce

    def recorded(self, ks, ls):
        pairs.append((ks.tolist(), ls.tolist()))
        return reduce(self, ks, ls)

    def reduced(scheme, data):
        pairs.clear()
        run_scheme(scheme, data, cfg)
        return list(pairs)

    monkeypatch.setattr(receiver.ChannelMoments, "_reduce", recorded)
    memo = ("g1", "g2", "gn", "filled")
    for trial in range(2):
        alone = {s.label: reduced(s, prepare_trial(cfg, trial))
                 for s in ALL_SCHEMES}
        data = prepare_trial(cfg, trial)
        before = [getattr(data.moments_full, f).tobytes() for f in memo]
        for scheme in ALL_SCHEMES:
            for other in ALL_SCHEMES:
                if other != scheme:
                    run_scheme(other, data, cfg)
            assert reduced(scheme, data) == alone[scheme.label], scheme.label
        assert [getattr(data.moments_full, f).tobytes()
                for f in memo] == before


def test_prepare_trial_prefills_baseline_association(monkeypatch):
    # stages 1-2 read beta only: prepare_trial builds them as the trial's
    # start and fills their moments, so the BA schemes fill nothing inside
    # their timers
    from cfuav import receiver
    from cfuav.association import baseline_association
    from cfuav.orchestrator import evaluate_association
    from cfuav.powerctl import full_power

    cfg = desk_scale(num_uavs=10, master_seed=2026)
    data = prepare_trial(cfg, 0)
    a = baseline_association(data.beta, cfg.pilot_len, cfg.n_top)
    np.testing.assert_array_equal(data.start, a)
    np.testing.assert_array_equal(data.moments_full.filled, data.start != 0)

    def no_fill(*args):
        raise AssertionError("BA association filled a new pair")

    monkeypatch.setattr(receiver.ChannelMoments, "_reduce", no_fill)
    evaluate_association(data.moments_full, a, data.beta, data.sigma2,
                         full_power(cfg.num_uavs, cfg.p_max_w), cfg)
    np.testing.assert_array_equal(data.moments_full.filled, a != 0)


def test_run_trial_builds_features_once(monkeypatch):
    # every moment call of a trial, AO powers included, reads one f(h)
    from cfuav import receiver

    calls = []

    def counted(h):
        calls.append(h.shape)
        return build(h)

    build = receiver._channel_features
    monkeypatch.setattr(receiver, "_channel_features", counted)
    cfg = desk_scale(num_uavs=10, master_seed=2026)
    _, results = run_trial(cfg, 0, ALL_SCHEMES)
    assert any(r.trace.count > 1 for r in results.values())
    assert len(calls) == 1


# ------------------------------------------------------------- monte carlo

def _strip_runtime(records):
    return [dataclasses.replace(r, runtime_s=0.0) for r in records]


def test_run_monte_carlo_cardinality(tiny_config):
    records, _ = run_monte_carlo(tiny_config, [SchemeId("BA", "FP")])
    assert len(records) == 2  # trials=2, one scheme
    assert [r.trial for r in records] == [0, 1]


def test_run_monte_carlo_defaults_to_all_schemes(tiny_config):
    import dataclasses
    records, _ = run_monte_carlo(dataclasses.replace(tiny_config, trials=1))
    assert sorted(r.scheme for r in records) == sorted(s.label
                                                       for s in ALL_SCHEMES)


def test_run_monte_carlo_deterministic(tiny_config):
    r1, _ = run_monte_carlo(tiny_config, [SchemeId("BA", "PP")])
    r2, _ = run_monte_carlo(tiny_config, [SchemeId("BA", "PP")])
    assert _strip_runtime(r1) == _strip_runtime(r2)


def test_run_monte_carlo_parallel_matches_serial(tiny_config):
    serial, _ = run_monte_carlo(tiny_config, [SchemeId("BA", "PP")], n_jobs=1)
    parallel, _ = run_monte_carlo(tiny_config, [SchemeId("BA", "PP")], n_jobs=2)
    assert _strip_runtime(serial) == _strip_runtime(parallel)


def test_run_monte_carlo_sorted_by_trial_and_scheme(tiny_config):
    records, _ = run_monte_carlo(tiny_config, [SchemeId("PA", "FP"),
                                               SchemeId("BA", "FP")])
    keys = [(r.trial, r.scheme) for r in records]
    assert keys == sorted(keys)


def test_run_monte_carlo_continues_after_trial_failure(tiny_config, monkeypatch,
                                                       caplog):
    import cfuav.harness as harness_mod
    real = harness_mod.run_trial

    def flaky(config, trial_index, schemes):
        if trial_index == 0:
            raise RuntimeError("synthetic failure")
        return real(config, trial_index, schemes)

    monkeypatch.setattr(harness_mod, "run_trial", flaky)
    with caplog.at_level("ERROR", logger="cfuav.harness"):
        records, failed = run_monte_carlo(tiny_config, [SchemeId("BA", "FP")])
    assert [r.trial for r in records] == [1]
    assert failed == [0]
    assert any("trial 0" in m for m in caplog.messages)


# ------------------------------------------------------------------ layout

@pytest.fixture(scope="module")
def desk_trial():
    return prepare_trial(desk_scale(num_uavs=10, master_seed=2026), 0)


def test_trial_ensembles_are_views_of_solver_layout(desk_trial):
    # the moment reduction reads h and h_hat in solver layout without a copy
    for x in (desk_trial.h, desk_trial.est.h_hat):
        assert x.shape == (200, 10, 25, 2)
        assert np.shares_memory(solver_layout(x), x)


def test_channel_hash_covers_canonical_bytes(desk_trial):
    canonical = np.ascontiguousarray(desk_trial.h).tobytes()
    assert desk_trial.channel_hash == hashlib.sha256(canonical).hexdigest()[:16]


# -------------------------------------------------------------- persistence

def _record(trial=0, scheme="BA+FP", **kw):
    base = dict(trial=trial, scheme=scheme, num_uavs=4, min_se=1.234567891,
                success_rate=75.0, jain_fairness=98.7654321,
                runtime_s=0.012345, ao_iterations=3, fp_iterations_total=120,
                channel_hash="abc123")
    base.update(kw)
    return MetricsRecord(**base)


def test_write_results_header_only_for_empty(tmp_path):
    path, agg = write_results([], tmp_path / "out.csv")
    lines = open(path).read().splitlines()
    # the header README "Output" publishes
    assert lines == ["trial,scheme,K,min_se,success_rate,jain_fairness,"
                     "runtime_s,ao_iterations,fp_iterations_total,channel_hash"]
    assert open(agg).read().splitlines()[0].startswith("scheme,K,n_trials")


def test_write_results_roundtrip(tmp_path):
    records = [_record(trial=t, scheme=s) for t in range(3)
               for s in ("BA+FP", "PA+PP")]
    path, _ = write_results(records, tmp_path / "out.csv")
    back = read_results(path)
    assert len(back) == len(records)
    for orig, parsed in zip(records, back):
        assert parsed.scheme == orig.scheme and parsed.trial == orig.trial
        assert parsed.min_se == pytest.approx(orig.min_se, rel=1e-8)
        assert parsed.channel_hash == orig.channel_hash
        # every other field reads back exactly, with its declared type
        assert dataclasses.replace(parsed, min_se=orig.min_se) == orig
        assert type(parsed.num_uavs) is int and type(parsed.runtime_s) is float


def test_write_results_nine_significant_digits(tmp_path):
    path, _ = write_results([_record(min_se=1.0 / 3.0)], tmp_path / "out.csv")
    row = open(path).read().splitlines()[1].split(",")
    assert row[3] == "0.333333333"


def test_aggregate_contents(tmp_path):
    records = [_record(trial=t, min_se=float(t + 1)) for t in range(4)]
    _, agg = write_results(records, tmp_path / "out.csv")
    lines = open(agg).read().splitlines()
    assert len(lines) == 2
    row = dict(zip(lines[0].split(","), lines[1].split(",")))
    assert row["scheme"] == "BA+FP" and row["n_trials"] == "4"
    assert float(row["min_se_mean"]) == pytest.approx(2.5)
    expected_se = np.std([1, 2, 3, 4], ddof=1) / 2.0
    assert float(row["min_se_stderr"]) == pytest.approx(expected_se, rel=1e-6)


def test_write_results_bad_path_raises():
    with pytest.raises(OSError):
        write_results([], "/nonexistent-dir/x/out.csv")


def test_six_schemes_times_trials_rows(tiny_config, tmp_path):
    records, _ = run_monte_carlo(tiny_config, list(ALL_SCHEMES))
    assert len(records) == 6 * tiny_config.trials
    path, _ = write_results(records, tmp_path / "all.csv")
    assert len(open(path).read().splitlines()) == 1 + 12


def test_dump_links(tiny_config, tmp_path):
    path = dump_links(tiny_config, 0, tmp_path / "links.csv")
    lines = open(path).read().splitlines()
    assert lines[0] == "uav,oru,beta,rician_k_linear,is_los"
    assert len(lines) == 1 + tiny_config.num_uavs * tiny_config.num_orus


def test_dump_links_matches_prepare_trial(tiny_config, tmp_path):
    # both draw the large-scale state of the same (config, trial) from one
    # builder, so the dumped beta is prepare_trial's to 9 significant digits
    path = dump_links(tiny_config, 1, tmp_path / "links.csv")
    beta = prepare_trial(tiny_config, 1).beta
    rows = open(path).read().splitlines()[1:]
    assert len(rows) == beta.size
    for row in rows:
        k, l, value = row.split(",")[:3]
        assert value == f"{beta[int(k), int(l)]:.9g}"
