import numpy as np
import pytest
from dataclasses import replace

from cfuav import orchestrator
from cfuav.association import baseline_association
from cfuav.harness import prepare_trial
from cfuav.orchestrator import (ALL_SCHEMES, SchemeId, _make_solver,
                                evaluate_association, parse_scheme,
                                run_scheme)
from cfuav.powerctl import bg_fppc, full_power
from cfuav.receiver import channel_moments, sinr


@pytest.fixture(scope="module")
def tight_config(request):
    # converged inner loop so the two power solvers are numerically comparable
    from cfuav.scenario import ExperimentConfig, desk_scale
    return desk_scale(ExperimentConfig(), num_orus=6, num_uavs=4, pilot_len=3,
                      n_channel_realizations=60, trials=2, master_seed=42,
                      eps_fp=1e-7, n_max_fp=500)


@pytest.fixture(scope="module")
def trial(tight_config):
    return prepare_trial(tight_config, 0)


def test_scheme_id_labels_and_ao_flags():
    assert SchemeId("PA", "PP").label == "PA+PP"
    assert SchemeId("PA", "PP").uses_ao and SchemeId("PA", "TP").uses_ao
    assert not SchemeId("BA", "PP").uses_ao
    assert not SchemeId("PA", "FP").uses_ao
    assert len(ALL_SCHEMES) == 6
    assert parse_scheme(" ba+tp ") == SchemeId("BA", "TP")
    with pytest.raises(ValueError):
        parse_scheme("PA")
    with pytest.raises(ValueError):
        SchemeId("XX", "FP")


def test_ba_fp_is_baseline_at_full_power(trial, tight_config):
    res = run_scheme(SchemeId("BA", "FP"), trial, tight_config)
    expected = baseline_association(trial.beta, tight_config.pilot_len,
                                    tight_config.n_top)
    np.testing.assert_array_equal(res.association, expected)
    np.testing.assert_array_equal(res.power,
                                  full_power(4, tight_config.p_max_w))
    assert res.trace.count == 0
    assert res.fp_iterations == 0


def test_power_optimized_beats_full_power_per_trial(tight_config):
    for t in range(2):
        data = prepare_trial(tight_config, t)
        fp = run_scheme(SchemeId("BA", "FP"), data, tight_config)
        pp = run_scheme(SchemeId("BA", "PP"), data, tight_config)
        assert pp.se.se.min() >= fp.se.se.min() - 1e-9
        pa_fp = run_scheme(SchemeId("PA", "FP"), data, tight_config)
        pa_pp = run_scheme(SchemeId("PA", "PP"), data, tight_config)
        assert pa_pp.se.se.min() >= pa_fp.se.se.min() - 1e-9


def test_solver_equivalence_per_trial(tight_config):
    for t in range(3):
        data = prepare_trial(tight_config, t)
        pp = run_scheme(SchemeId("PA", "PP"), data, tight_config)
        tp = run_scheme(SchemeId("PA", "TP"), data, tight_config)
        assert pp.se.se.min() == pytest.approx(tp.se.se.min(),
                                               rel=5 * tight_config.eps_bisect)


def test_ao_iteration_cap_and_monotone_best(tight_config, trial):
    res = run_scheme(SchemeId("PA", "PP"), trial, tight_config)
    assert 1 <= res.trace.count <= tight_config.i_max_ao
    objs = [it.objective for it in res.trace.iterations]
    best = np.maximum.accumulate(objs)
    assert np.all(np.diff(best) >= 0.0)
    # returned result is the best iterate, never worse than the first (one-shot)
    assert res.se.se.min() == pytest.approx(max(objs), rel=1e-12)
    assert res.se.se.min() >= objs[0] - 1e-12
    assert res.trace.terminated_by in ("tolerance", "max-iters")


def test_ao_single_uav_stops_after_two_iterations(tight_config):
    # K=1: the power optimum is full power, so iteration 2 reproduces
    # iteration 1 exactly and the objective stalls at zero improvement
    cfg = replace(tight_config, num_uavs=1)
    data = prepare_trial(cfg, 0)
    res = run_scheme(SchemeId("PA", "PP"), data, cfg)
    assert res.trace.count == 2
    assert res.trace.terminated_by == "tolerance"
    it1, it2 = res.trace.iterations
    np.testing.assert_array_equal(it1.association, it2.association)
    assert it1.objective == pytest.approx(it2.objective, rel=1e-12)


def test_later_rounds_read_the_trials_features(trial, tight_config,
                                               monkeypatch):
    # the first round reads the full-power moments of prepare_trial; each
    # later round builds the moments of its powers over the same f(h)
    calls = []
    build = orchestrator.channel_moments

    def recorded(h, est, powers, sigma2, features=None):
        calls.append((powers.copy(), features))
        return build(h, est, powers, sigma2, features)

    monkeypatch.setattr(orchestrator, "channel_moments", recorded)
    res = run_scheme(SchemeId("PA", "PP"), trial, tight_config)
    assert res.trace.count >= 2
    assert len(calls) == res.trace.count - 1
    for (powers, features), it in zip(calls, res.trace.iterations):
        np.testing.assert_array_equal(powers, it.power)
        assert features is trial.moments_full.features


def test_ao_power_step_locally_optimal(tight_config, trial):
    res = run_scheme(SchemeId("PA", "PP"), trial, tight_config)
    # rebuild the coefficients the final power step saw
    prev_p = (full_power(4, tight_config.p_max_w) if res.trace.count == 1
              else res.trace.iterations[-2].power)
    moments = channel_moments(trial.h, trial.est, prev_p, trial.sigma2)
    coef, _ = evaluate_association(moments, res.trace.iterations[-1].association,
                                   trial.beta, trial.sigma2, prev_p,
                                   tight_config)
    opt = bg_fppc(coef, tight_config.p_max_w,
                  eps_bisect=tight_config.eps_bisect,
                  eps_fp=tight_config.eps_fp, n_max_fp=tight_config.n_max_fp)
    rng = np.random.default_rng(0)
    samples = rng.uniform(0, tight_config.p_max_w, size=(1000, 4))
    sampled_best = max(np.min(sinr(coef, p)) for p in samples)
    assert opt.gamma_star >= sampled_best - 1e-9


def test_run_scheme_reports_fp_accounting(trial, tight_config):
    pp = run_scheme(SchemeId("BA", "PP"), trial, tight_config)
    assert pp.fp_iterations > 0
    tp = run_scheme(SchemeId("BA", "TP"), trial, tight_config)
    assert tp.fp_iterations > 0


def test_every_scheme_shares_its_first_round(trial, tight_config):
    # one loop runs every scheme: a one-round scheme is the first AO round
    pa_fp = run_scheme(SchemeId("PA", "FP"), trial, tight_config)
    full, pa_tp = (run_scheme(SchemeId("PA", power), trial, tight_config)
                   for power in ("PP", "TP"))
    for ao in (full, pa_tp):
        np.testing.assert_array_equal(pa_fp.association,
                                      ao.trace.iterations[0].association)
    # the first round starts at full power: PP's first step solves the
    # full-power coefficients of the association FP keeps; a copy, as a
    # scheme's first round reads, leaves the shared fixture as prepared
    p_full = full_power(4, tight_config.p_max_w)
    coef, _ = evaluate_association(trial.moments_full.copy(),
                                   pa_fp.association, trial.beta,
                                   trial.sigma2, p_full, tight_config)
    fp = _make_solver("FP", tight_config)(coef)
    np.testing.assert_array_equal(fp.p_star, p_full)
    assert fp.gamma_star == pa_fp.gamma_star == np.min(pa_fp.se.sinr)
    assert (fp.fp_iterations, fp.bisect_iterations) == (0, 0)
    np.testing.assert_array_equal(_make_solver("PP", tight_config)(coef).p_star,
                                  full.trace.iterations[0].power)
    once = run_scheme(SchemeId("PA", "PP"), trial,
                      replace(tight_config, i_max_ao=1))
    np.testing.assert_array_equal(once.se.se, full.trace.iterations[0].se.se)
    assert (once.trace.count, once.trace.terminated_by) == (1, "max-iters")
    for scheme in ALL_SCHEMES:
        if not scheme.uses_ao:
            res = run_scheme(scheme, trial, tight_config)
            assert (res.trace.count, res.trace.terminated_by) == (0, "")


def test_baseline_start_built_once_per_trial(tight_config, monkeypatch):
    # stages 1-2 read beta only: prepare_trial builds the one BA start that
    # every scheme of the trial reads, and no scheme builds its own
    from cfuav import association
    from cfuav.harness import run_trial

    calls = []

    def counted(beta, tau_p):
        calls.append(beta.shape)
        return stage1(beta, tau_p)

    stage1 = association.stage1_uav_centric
    monkeypatch.setattr(association, "stage1_uav_centric", counted)
    _, results = run_trial(tight_config, 0, ALL_SCHEMES)
    assert len(calls) == 1
    assert results["PA+PP"].trace.count >= 2
    trial = prepare_trial(tight_config, 0)
    res = run_scheme(SchemeId("BA", "FP"), trial, tight_config)
    assert len(calls) == 2
    np.testing.assert_array_equal(res.association, trial.start)
    np.testing.assert_array_equal(results["BA+FP"].association, trial.start)
