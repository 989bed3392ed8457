"""Acceptance suite: one test per criterion, each printing a PASS line with
the measured numbers (run with `pytest -s tests/test_acceptance.py`).

Desk scale means L=25 dual-antenna O-RUs, tau_p=5, K in {5, 10, 20}, 50
trials. The Monte Carlo fixtures are shared across criteria."""

import csv
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from cfuav.association import validate_association
from cfuav.harness import run_monte_carlo, run_trial, write_results
from cfuav.orchestrator import ALL_SCHEMES, SchemeId
from cfuav.pilots import make_assignment, simulate_pilot_and_estimate
from cfuav.powerctl import bg_fppc, fixed_point_min_power, reference_max_min
from cfuav.propagation import (ChannelStats, draw_channels, link_geometry,
                               los_probability, path_loss_db,
                               spatial_correlation, steering_vector)
from cfuav.scenario import ExperimentConfig, desk_scale
from tests.conftest import make_coefficients

DESK_KS = (5, 10, 20)
TRIALS = 50
# inner-loop settings under which the fixed point converges; the bisection
# tolerance below stays at its production value and defines the pass bands
TIGHT = dict(eps_fp=1e-8, n_max_fp=2000)
EPS_BISECT = 1e-4


def _desk(se_min, **overrides):
    settings = dict(trials=TRIALS, se_min=se_min, master_seed=2026)
    settings.update(overrides)
    return desk_scale(ExperimentConfig(), **settings)


def _sweep(config, schemes):
    out = {}
    for k in DESK_KS:
        cfg = replace(config, num_uavs=k)
        trials = []
        for t in range(cfg.trials):
            records, results = run_trial(cfg, t, schemes)
            trials.append(({r.scheme: r for r in records}, results))
        out[k] = trials
    return out


@pytest.fixture(scope="module")
def desk_run():
    return _sweep(_desk(se_min=1.0), list(ALL_SCHEMES))


@pytest.fixture(scope="module")
def desk_run_qos():
    schemes = [SchemeId("PA", "PP"), SchemeId("BA", "PP"), SchemeId("BA", "TP")]
    return _sweep(_desk(se_min=0.5), schemes)


def _metric(run, scheme, name):
    return np.array([getattr(recs[scheme], name)
                     for k in DESK_KS for recs, _ in run[k]])


def test_criterion_01_solver_equivalence():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(200):
        k = int(rng.integers(2, 21))
        coef = make_coefficients(rng, k)
        res = bg_fppc(coef, p_max=0.2, eps_bisect=EPS_BISECT, **TIGHT)
        ref = reference_max_min(coef, p_max=0.2, tol=1e-9)
        rel = abs(res.gamma_star - ref.gamma_star) / ref.gamma_star
        worst = max(worst, rel)
        assert rel <= 5 * EPS_BISECT
    print(f"\nACCEPTANCE 1 PASS: bg_fppc vs exact oracle on 200 instances, "
          f"worst relative gap {worst:.2e} <= {5 * EPS_BISECT:.0e}")


def test_criterion_02_fixed_point_correctness():
    rng = np.random.default_rng(102)
    worst = 0.0
    checked = 0
    while checked < 100:
        k = int(rng.integers(2, 16))
        coef = make_coefficients(rng, k)
        opt = reference_max_min(coef, p_max=0.5, tol=1e-10)
        gamma = float(rng.uniform(0.3, 0.95)) * opt.gamma_star
        if gamma <= 0:
            continue
        res = fixed_point_min_power(coef, gamma, p_max=0.5, **TIGHT)
        assert res.converged
        m = np.diag(coef.a - gamma * coef.d) - gamma * coef.b
        expected = np.linalg.solve(m, gamma * coef.c)
        rel = np.max(np.abs(res.p - expected)) / np.max(np.abs(expected))
        worst = max(worst, rel)
        assert rel <= 1e-6
        checked += 1
    print(f"\nACCEPTANCE 2 PASS: fixed point vs direct linear solve on 100 "
          f"feasible targets, worst sup-norm error {worst:.2e} <= 1e-6")


def test_criterion_03_fairness(desk_run):
    optimized = ("PA+PP", "PA+TP", "BA+PP", "BA+TP")
    means = {s: _metric(desk_run, s, "jain_fairness").mean()
             for s in optimized + ("BA+FP",)}
    for s in optimized:
        assert means[s] >= 99.5, (s, means[s])
        assert means["BA+FP"] < means[s]
    print(f"\nACCEPTANCE 3 PASS: mean Jain "
          + ", ".join(f"{s}={means[s]:.2f}%" for s in optimized)
          + f"; BA+FP={means['BA+FP']:.2f}% is lowest")


def test_criterion_04_association_benefit(desk_run):
    # gains grow with UAV density; the floors mirror the per-density "up to"
    # improvements, so take the best over the swept densities
    ratios_fp, ratios_pp = [], []
    for k in DESK_KS:
        ba = np.mean([recs["BA+FP"].min_se for recs, _ in desk_run[k]])
        pa = np.mean([recs["PA+FP"].min_se for recs, _ in desk_run[k]])
        pp = np.mean([recs["PA+PP"].min_se for recs, _ in desk_run[k]])
        ratios_fp.append(pa / ba)
        ratios_pp.append(pp / ba)
    assert max(ratios_fp) >= 1.25
    assert max(ratios_pp) >= 1.50
    print(f"\nACCEPTANCE 4 PASS: best-density mean min-SE gains vs BA+FP: "
          f"PA+FP {100 * (max(ratios_fp) - 1):.1f}% (>=25%), "
          f"PA+PP {100 * (max(ratios_pp) - 1):.1f}% (>=50%)")


def test_criterion_05_success_rate(desk_run_qos):
    pa = _metric(desk_run_qos, "PA+PP", "success_rate")
    ba_pp = _metric(desk_run_qos, "BA+PP", "success_rate")
    ba_tp = _metric(desk_run_qos, "BA+TP", "success_rate")
    assert pa.mean() >= 95.0
    assert np.all(ba_pp <= pa + 1e-9)
    assert np.all(ba_tp <= pa + 1e-9)
    print(f"\nACCEPTANCE 5 PASS: PA+PP mean success {pa.mean():.2f}% >= 95%; "
          f"BA+PP/BA+TP never exceed it on any of {pa.size} paired trials")


def test_criterion_06_estimation_consistency():
    rng = np.random.default_rng(106)
    n = 2
    covs = np.empty((2, 1, n, n), dtype=complex)
    for i in range(2):
        x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        covs[i, 0] = 1e-10 * (x @ x.conj().T + 0.5 * np.eye(n))
    means = 1e-5 * (rng.standard_normal((2, 1, n))
                    + 1j * rng.standard_normal((2, 1, n)))
    stats = ChannelStats(mean_vec=means, scatter_cov=covs, corr=covs / 1e-10,
                         los_steering=means)
    assignment = make_assignment([0, 0], tau_p=5, pilot_power=0.2)
    sigma2 = 6.31e-13
    h = draw_channels(stats, 100_000, np.random.default_rng(107))
    est = simulate_pilot_and_estimate(h, assignment, stats, sigma2,
                                      np.random.default_rng(108))
    dev = est.h_hat[:, 0, 0] - stats.mean_vec[0, 0]
    emp_cov = (dev.conj().T @ dev).T / dev.shape[0]
    cov_err = (np.linalg.norm(emp_cov - est.c_hat[0, 0], "fro")
               / np.linalg.norm(est.c_hat[0, 0], "fro"))
    err = h[:, 0, 0] - est.h_hat[:, 0, 0]
    cross = (dev.conj().T @ err).T / dev.shape[0]
    cross_rel = (np.linalg.norm(cross, "fro")
                 / np.linalg.norm(stats.scatter_cov[0, 0], "fro"))
    assert cov_err < 0.05
    assert cross_rel < 0.03
    print(f"\nACCEPTANCE 6 PASS: estimate covariance error {cov_err:.3f} < 5%, "
          f"estimate-error cross-covariance {cross_rel:.3f} < 3% (1e5 draws)")


def test_criterion_07_channel_invariants():
    from cfuav.scenario import Topology
    # power split at 1e5 draws
    geom = link_geometry(Topology(
        oru_positions=np.array([[0.0, 0.0, 25.0]]),
        uav_positions=np.array([[300.0, 200.0, 90.0]])))
    corr = spatial_correlation(geom, 8.0, 4)
    assert abs(np.trace(corr[0, 0]).real - 4.0) <= 1e-9
    steer = steering_vector(geom, 4)
    from cfuav.propagation import LargeScaleLink, channel_stats
    ls = LargeScaleLink(is_los=np.array([[True]]),
                        path_loss_db=np.array([[100.0]]),
                        shadow_db=np.zeros((1, 1)), beta=np.array([[1.0]]),
                        rician_k_linear=np.array([[3.0]]))
    stats = channel_stats(ls, steer, corr)
    h = draw_channels(stats, 100_000, np.random.default_rng(109))
    emp = np.mean(np.linalg.norm(h[:, 0, 0], axis=-1) ** 2)
    split_err = abs(emp - 4.0) / 4.0
    assert split_err <= 0.02
    # LoS probability monotone on a 100-point distance grid
    d = np.linspace(1.0, 5000.0, 100)
    g = link_geometry(Topology(
        oru_positions=np.array([[0.0, 0.0, 25.0]]),
        uav_positions=np.column_stack([d, np.zeros(100), np.full(100, 60.0)])))
    p = los_probability(g)[:, 0]
    assert np.all(np.diff(p) <= 1e-12)
    # path-loss hand values from the closed forms
    g1000 = link_geometry(Topology(
        oru_positions=np.array([[0.0, 0.0, 25.0]]),
        uav_positions=np.array(
            [[math.sqrt(1000.0 ** 2 - 100.0 ** 2), 0.0, 125.0]])))
    pl = path_loss_db(g1000, True, 2.6)[0, 0]
    assert pl == pytest.approx(28.0 + 22.0 * math.log10(1000.0)
                               + 20.0 * math.log10(2.6), abs=1e-9)
    print(f"\nACCEPTANCE 7 PASS: power split error {split_err:.4f} <= 2%, "
          f"trace(R)=N to 1e-9, LoS monotone, path-loss hand values exact")


def test_criterion_08_complexity_scaling():
    rng = np.random.default_rng(110)
    ks = (25, 50, 100)
    work = []
    for k in ks:
        coef = make_coefficients(rng, k)
        res = bg_fppc(coef, p_max=0.2)  # production inner-loop budget
        work.append(res.work_ops)
    exponent = float(np.polyfit(np.log(ks), np.log(work), 1)[0])
    assert 1.7 <= exponent <= 2.3
    coef = make_coefficients(rng, 100)
    t0 = time.perf_counter()
    bg_fppc(coef, p_max=0.2)
    wall = time.perf_counter() - t0
    assert wall < 1.0
    print(f"\nACCEPTANCE 8 PASS: work-counter exponent {exponent:.2f} in "
          f"[1.7, 2.3]; K=100 solve in {1000 * wall:.1f} ms < 1 s")


def test_criterion_09_ao_behavior(desk_run):
    counts = []
    for k in DESK_KS:
        for recs, results in desk_run[k]:
            trace = results["PA+PP"].trace
            counts.append(trace.count)
            objs = [it.objective for it in trace.iterations]
            best = np.maximum.accumulate(objs)
            assert np.all(np.diff(best) >= -1e-15)
            assert recs["PA+PP"].min_se >= objs[0] - 1e-12  # one-shot PA+PP
    median = float(np.median(counts))
    assert 2 <= median <= 6
    print(f"\nACCEPTANCE 9 PASS: median AO iterations {median:.1f} in [2, 6]; "
          f"best-so-far monotone and AO >= one-shot on all "
          f"{len(counts)} trials")


def test_criterion_10_constraint_compliance(desk_run, desk_run_qos):
    checked = 0
    tau_p = 5
    p_max = ExperimentConfig().p_max_w
    for run in (desk_run, desk_run_qos):
        for k in DESK_KS:
            for _, results in run[k]:
                for res in results.values():
                    validate_association(res.association, tau_p)
                    assert np.all(res.power >= 0.0)
                    assert np.all(res.power <= p_max * (1 + 1e-12))
                    checked += 1
    print(f"\nACCEPTANCE 10 PASS: {checked} association matrices and power "
          f"vectors satisfy row>=1, col<=tau_p, 0<=p<=p_max")


def test_criterion_11_reproducibility(tmp_path):
    cfg = _desk(se_min=1.0, trials=6, num_uavs=8)
    schemes = [SchemeId("BA", "FP"), SchemeId("PA", "PP")]
    paths = []
    for jobs in (1, 8):
        records, _ = run_monte_carlo(cfg, schemes, n_jobs=jobs)
        path, _ = write_results(records, tmp_path / f"run_j{jobs}.csv")
        paths.append(path)

    def rows_without_runtime(path):
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        drop = rows[0].index("runtime_s")
        return [[c for i, c in enumerate(row) if i != drop] for row in rows]

    r1, r8 = map(rows_without_runtime, paths)
    assert r1 == r8
    print(f"\nACCEPTANCE 11 PASS: {len(r1) - 1} CSV rows identical at "
          f"parallelism 1 and 8 (runtime column excluded)")
