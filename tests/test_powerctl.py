import importlib.util
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from cfuav import powerctl
from cfuav.association import baseline_association
from cfuav.harness import prepare_trial
from cfuav.orchestrator import _make_solver, evaluate_association
from cfuav.powerctl import (FixedPointResult, PowerControlResult, bg_fppc,
                            fixed_point_min_power, full_power,
                            full_power_result, reference_max_min)
from cfuav.receiver import SinrCoefficients, sinr
from cfuav.scenario import ExperimentConfig, desk_scale
from tests.conftest import make_coefficients

# the benchmark's output checks, loaded by path: perfbench is no package
_spec = importlib.util.spec_from_file_location(
    "perfbench_checks",
    Path(__file__).resolve().parents[1] / "perfbench" / "checks.py")
checks = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(checks)

# tight inner-loop settings under which the fixed point actually converges;
# the production defaults (eps_fp=1e-3, 20 sweeps) trade accuracy for the
# documented per-probe budget
TIGHT = dict(eps_fp=1e-8, n_max_fp=2000)


def rng(seed=0):
    return np.random.default_rng(seed)


def coef_of(a, d, b, c):
    a = np.asarray(a, float)
    return SinrCoefficients(a=a, d=np.asarray(d, float),
                            b=np.asarray(b, float), c=np.asarray(c, float),
                            clamp_count=0)


def direct_solve(coef, gamma):
    m = np.diag(coef.a - gamma * coef.d) - gamma * coef.b
    return np.linalg.solve(m, gamma * coef.c)


# -------------------------------------------------------------- full power

def test_full_power():
    np.testing.assert_array_equal(full_power(3, 0.2), [0.2, 0.2, 0.2])
    assert full_power(5, 0.1).shape == (5,)
    np.testing.assert_array_equal(full_power(3, 0.2), full_power(3, 0.2))


def assert_same_result(res, expected):
    assert res.p_star.tobytes() == expected.p_star.tobytes()
    assert res.gamma_star == expected.gamma_star
    for name in ("fp_iterations", "fp_capped", "bisect_iterations",
                 "work_ops", "probe_gap_max", "probes"):
        assert getattr(res, name) == getattr(expected, name), name


def test_fp_rule_and_unserved_returns_are_full_power_result():
    config = ExperimentConfig()
    coef = make_coefficients(rng(31), 5)
    fp = full_power_result(coef, config.p_max_w)
    np.testing.assert_array_equal(fp.p_star, full_power(5, config.p_max_w))
    assert fp.gamma_star == float(np.min(sinr(coef, fp.p_star)))
    assert (fp.fp_iterations, fp.bisect_iterations, fp.work_ops) == (0, 0, 0)
    assert_same_result(_make_solver("FP", config)(coef), fp)
    # UAV 2 is unserved (a = 0): both solvers return their full-power start
    a = coef.a.copy()
    a[2] = 0.0
    unserved = replace(coef, a=a)
    expected = full_power_result(unserved, 0.2)
    assert expected.gamma_star == 0.0
    assert_same_result(bg_fppc(unserved, p_max=0.2), expected)
    assert_same_result(reference_max_min(unserved, p_max=0.2), expected)


# ------------------------------------------------------------- fixed point

def test_fixed_point_single_uav():
    coef = coef_of([2.0], [0.0], [[0.0]], [1.0])
    res = fixed_point_min_power(coef, 1.0, p_max=1.0, **TIGHT)
    assert res.converged
    assert res.p[0] == pytest.approx(0.5, abs=1e-9)


def test_fixed_point_symmetric_pair():
    coef = coef_of([1.0, 1.0], [0.0, 0.0], [[0.0, 0.5], [0.5, 0.0]], [0.1, 0.1])
    res = fixed_point_min_power(coef, 1.0, p_max=1.0, **TIGHT)
    assert res.converged
    np.testing.assert_allclose(res.p, [0.2, 0.2], atol=1e-9)


def test_fixed_point_matches_linear_solve_on_random_instances():
    r = rng(1)
    for _ in range(100):
        k = int(r.integers(2, 15))
        coef = make_coefficients(r, k)
        opt = reference_max_min(coef, p_max=0.5, tol=1e-10)
        gamma = float(r.uniform(0.3, 0.95)) * opt.gamma_star
        res = fixed_point_min_power(coef, gamma, p_max=0.5, **TIGHT)
        assert res.converged
        expected = direct_solve(coef, gamma)
        assert np.max(np.abs(res.p - expected)) <= 1e-6 * np.max(np.abs(expected))


def test_fixed_point_achieves_target_sinr():
    r = rng(2)
    coef = make_coefficients(r, 6)
    opt = reference_max_min(coef, p_max=0.5, tol=1e-10)
    gamma = 0.8 * opt.gamma_star
    res = fixed_point_min_power(coef, gamma, p_max=0.5, **TIGHT)
    np.testing.assert_allclose(sinr(coef, res.p), gamma, rtol=1e-6)


def test_fixed_point_immediate_infeasible_when_self_term_dominates():
    coef = coef_of([1.0], [2.0], [[0.0]], [0.1])
    res = fixed_point_min_power(coef, 1.0, p_max=1.0, eps_fp=1e-3, n_max_fp=20)
    assert not res.converged
    assert np.isinf(res.p).all()


def test_fixed_point_rejects_nonpositive_target():
    coef = coef_of([1.0], [0.0], [[0.0]], [0.1])
    with pytest.raises(ValueError):
        fixed_point_min_power(coef, 0.0, p_max=1.0, eps_fp=1e-3, n_max_fp=20)


def test_interference_function_properties():
    # positivity, monotonicity, scalability of T(p) = gamma (B p + c)/(a - gamma d)
    r = rng(3)
    for _ in range(50):
        k = int(r.integers(2, 10))
        coef = make_coefficients(r, k)
        gamma = float(r.uniform(0.2, 1.5))
        denom = coef.a - gamma * coef.d
        if np.any(denom <= 0):
            continue

        def t_map(p):
            return gamma * (coef.b @ p + coef.c) / denom

        p = r.uniform(0.0, 0.5, k)
        q = p + r.uniform(0.0, 0.3, k)
        lam = float(r.uniform(1.1, 3.0))
        assert np.all(t_map(p) > 0)
        assert np.all(t_map(q) >= t_map(p) - 1e-15)
        assert np.all(t_map(lam * p) < lam * t_map(p))


# ----------------------------------------------------------------- bg_fppc

def test_bg_fppc_single_uav_prefers_full_power():
    coef = coef_of([2.0], [0.0], [[0.0]], [1.0])
    res = bg_fppc(coef, p_max=0.2, **TIGHT)
    assert res.feasible
    assert res.gamma_star == pytest.approx(0.4, rel=1e-9)
    np.testing.assert_allclose(res.p_star, [0.2])


def test_bg_fppc_symmetric_pair_at_cap():
    coef = coef_of([1.0, 1.0], [0.0, 0.0], [[0.0, 0.5], [0.5, 0.0]], [0.1, 0.1])
    res = bg_fppc(coef, p_max=0.15, **TIGHT)
    expected = 0.15 / (0.5 * 0.15 + 0.1)
    assert res.gamma_star == pytest.approx(expected, rel=2e-4)


def test_bg_fppc_matches_reference_on_random_instances():
    r = rng(4)
    for _ in range(100):
        k = int(r.integers(2, 21))
        coef = make_coefficients(r, k)
        res = bg_fppc(coef, p_max=0.2, eps_bisect=1e-4, **TIGHT)
        ref = reference_max_min(coef, p_max=0.2, tol=1e-9)
        assert res.gamma_star == pytest.approx(ref.gamma_star, rel=5e-4)


def test_bg_fppc_never_worse_than_full_power():
    r = rng(5)
    for _ in range(30):
        coef = make_coefficients(r, int(r.integers(1, 12)))
        p_full = full_power(coef.num_uavs, 0.2)
        res = bg_fppc(coef, p_max=0.2)
        assert res.gamma_star >= np.min(sinr(coef, p_full)) - 1e-12


def test_bg_fppc_optimality_certificate():
    r = rng(6)
    coef = make_coefficients(r, 8)
    res = bg_fppc(coef, p_max=0.2, **TIGHT)
    samples = r.uniform(0.0, 0.2, size=(1000, 8))
    mins = np.min([sinr(coef, p) for p in samples], axis=1)
    assert res.gamma_star >= mins.max() - 1e-9
    assert res.gamma_star >= np.min(sinr(coef, full_power(8, 0.2))) - 1e-12


def test_bg_fppc_bisection_brackets_halve():
    r = rng(7)
    coef = make_coefficients(r, 6)
    res = bg_fppc(coef, p_max=0.2, record_probes=True, **TIGHT)
    gamma_init = sinr(coef, full_power(6, 0.2))
    lo, hi = 0.0, 1.5 * gamma_init.max()
    for g_mid, ok in res.probes:
        assert g_mid == pytest.approx(0.5 * (lo + hi), rel=1e-12)
        width_before = hi - lo
        if ok:
            lo = g_mid
        else:
            hi = g_mid
        assert (hi - lo) == pytest.approx(0.5 * width_before, rel=1e-12)
    assert (hi - lo) / hi <= 1e-4
    assert res.bisect_iterations == len(res.probes)


def test_bg_fppc_probe_gap_small_when_inner_loop_converges():
    r = rng(8)
    for _ in range(20):
        coef = make_coefficients(r, int(r.integers(2, 15)))
        res = bg_fppc(coef, p_max=0.2, eps_bisect=1e-4, **TIGHT)
        assert res.probe_gap_max < 10 * 1e-4


def test_bg_fppc_degenerate_all_zero_gains():
    coef = coef_of([0.0, 0.0], [0.0, 0.0], np.zeros((2, 2)), [0.1, 0.1])
    res = bg_fppc(coef, p_max=0.2)
    assert not res.feasible
    np.testing.assert_array_equal(res.p_star, full_power(2, 0.2))
    assert res.gamma_star == 0.0


def test_bg_fppc_respects_box():
    r = rng(9)
    for _ in range(20):
        coef = make_coefficients(r, int(r.integers(1, 15)))
        res = bg_fppc(coef, p_max=0.2)
        assert np.all(res.p_star >= 0.0) and np.all(res.p_star <= 0.2 + 1e-15)


def test_bg_fppc_gamma_star_consistent_with_p_star():
    r = rng(10)
    coef = make_coefficients(r, 7)
    res = bg_fppc(coef, p_max=0.2, **TIGHT)
    assert res.gamma_star == pytest.approx(np.min(sinr(coef, res.p_star)),
                                           rel=1e-9)


def test_bg_fppc_qos_floor_flag():
    coef = coef_of([2.0], [0.0], [[0.0]], [1.0])  # optimum gamma* = 0.4
    assert bg_fppc(coef, p_max=0.2, gamma_floor=0.3).feasible
    assert not bg_fppc(coef, p_max=0.2, gamma_floor=0.5).feasible


def test_work_counter_tracks_inner_iterations():
    r = rng(11)
    coef = make_coefficients(r, 10)
    res = bg_fppc(coef, p_max=0.2)
    assert res.work_ops == res.fp_iterations * 100
    assert res.fp_iterations > 0


# --------------------------------------------------------------- reference

def test_reference_agrees_on_hand_cases():
    single = coef_of([2.0], [0.0], [[0.0]], [1.0])
    res = reference_max_min(single, p_max=0.2, tol=1e-9)
    assert res.gamma_star == pytest.approx(0.4, rel=1e-9)
    pair = coef_of([1.0, 1.0], [0.0, 0.0], [[0.0, 0.5], [0.5, 0.0]], [0.1, 0.1])
    res2 = reference_max_min(pair, p_max=0.15, tol=1e-9)
    assert res2.gamma_star == pytest.approx(0.15 / 0.175, rel=1e-6)


def test_reference_equalizes_sinrs():
    r = rng(12)
    for _ in range(20):
        coef = make_coefficients(r, int(r.integers(2, 12)))
        res = reference_max_min(coef, p_max=0.2, tol=1e-8)
        g = sinr(coef, res.p_star)
        assert (g.max() - g.min()) / g.min() < 10 * 1e-8


def test_reference_infeasible_qos_floor():
    coef = coef_of([2.0], [0.0], [[0.0]], [1.0])
    assert not reference_max_min(coef, p_max=0.2, gamma_floor=1.0).feasible


def test_reference_degenerate():
    coef = coef_of([0.0], [0.0], [[0.0]], [0.1])
    res = reference_max_min(coef, p_max=0.2)
    assert not res.feasible
    np.testing.assert_array_equal(res.p_star, [0.2])


def test_reference_no_interference_hits_solo_bound():
    coef = coef_of([1.0, 2.0], [0.0, 0.0], np.zeros((2, 2)), [0.1, 0.1])
    res = reference_max_min(coef, p_max=0.2, tol=1e-9)
    # weaker UAV at full power sets the optimum: 0.2*1/0.1
    assert res.gamma_star == pytest.approx(2.0, rel=1e-9)


def test_reference_stops_at_sweep_cap_when_it_cannot_balance():
    # no noise and a reducible B: T(p) = (p_1, p_1 + 2 p_2) drives p_1 to 0
    # while Gamma(p) tends to (1, 1/2), so the SINRs never balance; the
    # supremum 1/2 is attained by no power vector
    coef = coef_of([1.0, 1.0], [1.0, 2.0], [[0.0, 0.0], [1.0, 0.0]],
                   [0.0, 0.0])
    # T_1(p) = 0 (no noise, no interference into UAV 1): Gamma_1 is inf,
    # then NaN, and the sinr map reads 0 for UAV 1 at any power
    silent = coef_of([1.0, 1.0], [0.0, 0.0], [[0.0, 0.0], [1.0, 0.0]],
                     [0.0, 0.1])
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        res = reference_max_min(coef, p_max=0.2, tol=1e-4)
        res_silent = reference_max_min(silent, p_max=0.2, tol=1e-4)
    for c, r in ((coef, res), (silent, res_silent)):
        assert (r.fp_iterations, r.fp_capped, r.bisect_iterations) == (
            powerctl.MAX_SWEEPS, 1, 0)
        assert r.gamma_star == np.min(sinr(c, r.p_star))
    # the last iterate beats full power (min SINR 1/3)
    assert res.p_star[1] == 0.2 and 0.0 < res.p_star[0] < 1e-100
    assert 1 / 3 < res.gamma_star <= 0.5
    # every power vector reads 0 for UAV 1: full power stays
    np.testing.assert_array_equal(res_silent.p_star, [0.2, 0.2])
    assert res_silent.gamma_star == 0.0


def test_complexity_scaling_quadratic_work():
    r = rng(13)
    work = []
    ks = (25, 50, 100)
    for k in ks:
        coef = make_coefficients(r, k)
        res = bg_fppc(coef, p_max=0.2)
        work.append(res.work_ops)
    fit = np.polyfit(np.log(ks), np.log(work), 1)[0]
    assert 1.7 <= fit <= 2.3


# ----------------------------------------------------------------- oracles
# The probes and the SINR map in their plain array-expression form: a fresh
# array per operation, the finiteness test apart from the bail test, and the
# spectral test before every exact solve. The bisection of bg_fppc runs one
# probe at a time, each a lone fixed point tested after every sweep. The
# production code computes the same arithmetic in place and answers the
# probes of a bisection subtree in one batch; it must reproduce every
# decision, every counter and every bit. reference_max_min balances instead
# of bisecting, so it is held to the exact-probe bisection by tolerance.

def oracle_fixed_point(coef, gamma_target, p_max, eps_fp, n_max_fp):
    if gamma_target <= 0:
        raise ValueError("gamma_target must be positive")
    denom = coef.a - gamma_target * coef.d
    k = coef.num_uavs
    if np.any(denom <= 0):
        return FixedPointResult(np.full(k, np.inf), False, 0)
    p = full_power(k, p_max)
    bail = 1e9 * p_max
    for n in range(1, n_max_fp + 1):
        p_new = gamma_target * (coef.b @ p + coef.c) / denom
        if not np.all(np.isfinite(p_new)) or np.max(p_new) > bail:
            return FixedPointResult(np.full(k, np.inf), False, n)
        delta = np.max(np.abs(p_new - p))
        p = p_new
        if delta < eps_fp * p_max:
            return FixedPointResult(p, True, n)
    return FixedPointResult(p, False, n_max_fp, True)


def oracle_exact_min_power(coef, gamma, p_max):
    """The minimal power vector at target gamma, or None when the target is
    infeasible even ignoring the cap. The spectral test rho(gamma D^-1 B) < 1
    makes the Z-matrix diag(a - gamma d) - gamma B a nonsingular M-matrix,
    whose inverse is >= 0, so its solution is the minimal power vector; an
    entry below the rounding allowance -1e-12 p_max rejects the target."""
    denom = coef.a - gamma * coef.d
    if np.any(denom <= 0):
        return None
    scaled_b = gamma * coef.b / denom[:, None]
    if np.max(np.abs(np.linalg.eigvals(scaled_b))) >= 1.0:
        return None
    m = np.diag(denom) - gamma * coef.b
    try:
        p = np.linalg.solve(m, gamma * coef.c)
    except np.linalg.LinAlgError:
        return None
    if np.any(p < -1e-12 * p_max):
        return None
    return np.clip(p, 0.0, None)


def oracle_sinr(coef, p):
    p = np.asarray(p, dtype=float)
    num = p * coef.a
    den = p * coef.d + coef.b @ p + coef.c
    out = np.zeros_like(num)
    ok = (num > 0) & (den > 0)
    out[ok] = num[ok] / den[ok]
    return out


def oracle_bg_fppc(coef, p_max, eps_bisect=1e-4, eps_fp=1e-3, n_max_fp=20,
                   gamma_floor=None, record_probes=False):
    """The bisection of bg_fppc one probe at a time."""
    p_full = full_power(coef.num_uavs, p_max)
    gamma_full = oracle_sinr(coef, p_full)
    res = PowerControlResult(p_star=p_full.copy(),
                             gamma_star=float(np.min(gamma_full)))
    g_lo, g_hi = 0.0, 1.5 * float(np.max(gamma_full))
    if not np.all(coef.a > 0):  # an unserved UAV: full power, no probe
        g_hi = 0.0
    while g_hi > 0 and (g_hi - g_lo) / g_hi > eps_bisect:
        res.bisect_iterations += 1
        g_mid = 0.5 * (g_lo + g_hi)
        fp = oracle_fixed_point(coef, g_mid, p_max, eps_fp, n_max_fp)
        res.fp_iterations += fp.iterations
        res.fp_capped += fp.capped
        res.work_ops += fp.iterations * coef.num_uavs ** 2
        ok = bool(np.max(fp.p) <= p_max)
        if record_probes:
            res.probes.append((g_mid, ok))
        if not ok:
            g_hi = g_mid
            continue
        g_lo = g_mid
        p_cand = np.minimum(fp.p, p_full)
        achieved = float(np.min(oracle_sinr(coef, p_cand)))
        res.probe_gap_max = max(res.probe_gap_max,
                                abs(g_mid - achieved) / g_mid)
        if achieved > res.gamma_star:
            res.p_star, res.gamma_star = p_cand, achieved
    res.feasible = bool(np.any(coef.a > 0)) and not (
        gamma_floor is not None
        and res.gamma_star < gamma_floor * (1 - 1e-12))
    return res


def oracle_reference_max_min(coef, p_max, tol=1e-6, gamma_floor=None):
    """Max-min SINR by bisection over the target, each probe decided by
    oracle_exact_min_power; the bracket puts gamma* within a factor (1 - tol)
    of the result. Each UAV alone at full power bounds gamma* from above."""
    p_full = full_power(coef.num_uavs, p_max)
    res = PowerControlResult(p_star=p_full.copy(),
                             gamma_star=float(np.min(oracle_sinr(coef, p_full))))
    p_cap = p_max * (1 + 1e-12)

    def probe(gamma):
        p = oracle_exact_min_power(coef, gamma, p_max)
        if p is None or np.max(p) > p_cap:
            return None
        return np.minimum(p, p_full)

    g_lo, g_hi = 0.0, 0.0  # an unserved UAV: full power, no probe
    if np.all(coef.a > 0):
        with np.errstate(divide="ignore"):
            g_hi = float(np.min(p_max * coef.a / (p_max * coef.d + coef.c)))
    top = probe(g_hi) if np.isfinite(g_hi) and g_hi > 0 else None
    if top is not None:
        res.p_star, res.gamma_star = top, float(np.min(oracle_sinr(coef, top)))
        g_lo = g_hi
    while np.isfinite(g_hi) and g_hi > 0 and (g_hi - g_lo) / g_hi > tol:
        g_mid = 0.5 * (g_lo + g_hi)
        p = probe(g_mid)
        if p is None:
            g_hi = g_mid
            continue
        g_lo = g_mid
        achieved = float(np.min(oracle_sinr(coef, p)))
        if achieved > res.gamma_star:
            res.p_star, res.gamma_star = p, achieved
    res.feasible = bool(np.any(coef.a > 0)) and not (
        gamma_floor is not None
        and res.gamma_star < gamma_floor * (1 - 1e-12))
    return res


def solve_both_ways(coef, **kwargs):
    """bg_fppc and oracle_bg_fppc on the same solve."""
    return bg_fppc(coef, **kwargs), oracle_bg_fppc(coef, **kwargs)


def check_reference(coef, p_max, tol, oracle, gamma_floor=None):
    """reference_max_min at tol against the oracle's gamma* (the exact-probe
    bisection at tol 1e-12): it passes the benchmark's output check, its
    powers bracket gamma* between their least and largest SINR, and gamma*
    lies within tol above the result."""
    res = reference_max_min(coef, p_max, tol=tol, gamma_floor=gamma_floor)
    gamma_full = float(np.min(sinr(coef, full_power(coef.num_uavs, p_max))))
    assert checks.check_solve(coef, p_max, res, gamma_full) == []
    gam = sinr(coef, res.p_star)
    assert res.gamma_star == gam.min()
    assert gam.min() <= oracle.gamma_star * (1 + 1e-12)
    assert oracle.gamma_star <= gam.max() * (1 + 1e-12)
    assert res.gamma_star >= oracle.gamma_star * (1 - tol)
    assert (res.bisect_iterations, res.fp_capped) == (0, 0)
    assert res.fp_iterations >= 1
    return res


def assert_same_solve(res, ref):
    assert res.p_star.tobytes() == ref.p_star.tobytes()
    assert res.gamma_star == ref.gamma_star
    for name in ("fp_iterations", "fp_capped", "bisect_iterations",
                 "probe_gap_max", "probes", "feasible", "work_ops"):
        assert getattr(res, name) == getattr(ref, name), name


def assert_same_fixed_point(res, ref):
    assert res.p.tobytes() == ref.p.tobytes()
    assert res[1:] == ref[1:]


PRODUCTION = dict(eps_bisect=1e-4, eps_fp=1e-3, n_max_fp=20)


@pytest.mark.parametrize("settings", ["production", "tight"])
def test_solvers_match_oracles_on_random_instances(settings):
    r = rng(14)
    bg_kwargs = PRODUCTION if settings == "production" else dict(
        eps_bisect=1e-4, **TIGHT)
    tol = 1e-4 if settings == "production" else 1e-9
    for _ in range(200):
        coef = make_coefficients(r, int(r.integers(1, 21)))
        assert_same_solve(*solve_both_ways(coef, p_max=0.2,
                                           record_probes=True, **bg_kwargs))
        check_reference(coef, 0.2, tol,
                        oracle_reference_max_min(coef, 0.2, tol=1e-12))


def ba_coefficients(config, trial):
    """BA coefficients at full power of a real trial: what BA+PP and BA+TP
    hand to their solvers."""
    data = prepare_trial(config, trial)
    a = baseline_association(data.beta, config.pilot_len, config.n_top)
    coef, _ = evaluate_association(
        data.moments_full, a, data.beta, data.sigma2,
        full_power(config.num_uavs, config.p_max_w), config)
    return config, coef


@pytest.fixture(scope="module")
def desk_coefficient_sets():
    """Desk trials 0 and 1 at seed 2026, K in {5, 10, 20}."""
    return [ba_coefficients(desk_scale(ExperimentConfig(), num_uavs=k,
                                       master_seed=2026), trial)
            for k in (5, 10, 20) for trial in range(2)]


def test_solvers_match_oracles_on_desk_coefficients(desk_coefficient_sets):
    for config, coef in desk_coefficient_sets:
        floor = config.qos_sinr_floor
        for inner in (dict(eps_fp=config.eps_fp, n_max_fp=config.n_max_fp),
                      TIGHT):
            assert_same_solve(*solve_both_ways(
                coef, p_max=config.p_max_w, eps_bisect=config.eps_bisect,
                gamma_floor=floor, record_probes=True, **inner))


@pytest.fixture(scope="module")
def desk_ba_sets():
    """The sets of the benchmark's power-solve workload at seeds 2026 and 7:
    48 consecutive desk trials each, K cycling through 5, 10 and 20."""
    sets = []
    for seed in (2026, 7):
        configs = [desk_scale(ExperimentConfig(), num_uavs=k, master_seed=seed)
                   for k in (5, 10, 20)]
        sets += [ba_coefficients(configs[trial % 3], trial)
                 for trial in range(48)]
    return sets


def test_reference_certified_on_desk_ba_sets(desk_ba_sets):
    for config, coef in desk_ba_sets:
        floor = config.qos_sinr_floor
        oracle = oracle_reference_max_min(coef, config.p_max_w, tol=1e-12,
                                          gamma_floor=floor)
        for tol in (config.eps_bisect, 1e-9):
            res = check_reference(coef, config.p_max_w, tol, oracle,
                                  gamma_floor=floor)
            assert res.feasible == (res.gamma_star >= floor * (1 - 1e-12))


@pytest.fixture(scope="module")
def paper_coefficient_set():
    """A real paper-scale trial (L=100, N=4, tau_p=10, K=50; seed 2026,
    trial 0)."""
    return ba_coefficients(ExperimentConfig(master_seed=2026), 0)


def test_bg_fppc_matches_oracle_on_paper_scale_set(paper_coefficient_set):
    config, coef = paper_coefficient_set
    for inner in (dict(eps_fp=config.eps_fp, n_max_fp=config.n_max_fp),
                  TIGHT):
        kwargs = dict(p_max=config.p_max_w, eps_bisect=config.eps_bisect,
                      gamma_floor=config.qos_sinr_floor, record_probes=True,
                      **inner)
        res = bg_fppc(coef, **kwargs)
        assert_same_solve(res, oracle_bg_fppc(coef, **kwargs))
        if inner is not TIGHT:
            # most production probes stop at the cap on this set
            assert 2 * res.fp_capped > res.bisect_iterations


def test_reference_certified_on_paper_scale_set(paper_coefficient_set):
    config, coef = paper_coefficient_set
    oracle = oracle_reference_max_min(coef, config.p_max_w, tol=1e-12)
    for tol in (config.eps_bisect, 1e-9):
        check_reference(coef, config.p_max_w, tol, oracle)


def test_fixed_point_matches_oracle_on_edge_inputs():
    cases = [
        # a - gamma d <= 0: no sweep at all
        (coef_of([1.0], [2.0], [[0.0]], [0.1]), 1.0),
        # rho(gamma D^-1 B) = 10: the iterate grows tenfold per sweep and
        # passes the bail level
        (coef_of([1.0, 1.0], [0.0, 0.0], [[0.0, 10.0], [10.0, 0.0]],
                 [0.1, 0.1]), 1.0),
        # a NaN coefficient: the first sweep is not finite
        (coef_of([1.0, 1.0], [0.0, 0.0], np.zeros((2, 2)), [0.1, np.nan]),
         1.0),
        # converges in a few sweeps
        (coef_of([1.0, 1.0], [0.0, 0.0], [[0.0, 0.5], [0.5, 0.0]],
                 [0.1, 0.1]), 1.0),
        # rho = 0.99: stops at the cap
        (coef_of([1.0, 1.0], [0.0, 0.0], [[0.0, 0.99], [0.99, 0.0]],
                 [0.1, 0.1]), 1.0),
    ]
    outcomes = []
    for coef, gamma in cases:
        res = fixed_point_min_power(coef, gamma, 1.0, 1e-3, 20)
        assert_same_fixed_point(res, oracle_fixed_point(coef, gamma, 1.0,
                                                        1e-3, 20))
        outcomes.append((res.converged, res.capped, np.isinf(res.p).all(),
                         res.iterations))
    assert outcomes[0] == (False, False, True, 0)
    assert outcomes[1][:3] == (False, False, True) and outcomes[1][3] > 1
    assert outcomes[2] == (False, False, True, 1)
    assert outcomes[3][:3] == (True, False, False)
    assert outcomes[4] == (False, True, False, 20)


def chunk_of(sweep):
    """Index of the chunk of the batched fixed point that holds a sweep."""
    return (sweep - 1) // powerctl.CHUNK


def batched_rows(coef, gammas, p_max, eps_fp, n_max_fp):
    """The rows of one batched fixed point, each checked against its lone
    call and the oracle; no RuntimeWarning may escape the batch."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        p, converged, iterations, capped = powerctl._fixed_points(
            coef, np.array(gammas, dtype=float), p_max, eps_fp, n_max_fp)
    rows = []
    for i, gamma in enumerate(gammas):
        row = FixedPointResult(p[i], bool(converged[i]), int(iterations[i]),
                               bool(capped[i]))
        for lone in (fixed_point_min_power, oracle_fixed_point):
            assert_same_fixed_point(row, lone(coef, gamma, p_max, eps_fp,
                                              n_max_fp))
        rows.append(row)
    return rows


def test_batched_fixed_point_rows_equal_lone_calls(desk_coefficient_sets):
    # one UAV, p <- gamma (0.9 p + 0.1) / (1 - 0.05 gamma): the target sets
    # the contraction rate, so one batch holds every way a row can end
    coef = coef_of([1.0], [0.05], [[0.9]], [0.1])
    rows = batched_rows(coef, [0.1, 1.0, 10.0, 25.0, np.nan], 1.0, 1e-3, 20)
    assert [(r.converged, r.capped, np.isinf(r.p).all(), r.iterations)
            for r in rows] == [
        (True, False, False, 4),    # converges in a few sweeps
        (False, True, False, 20),   # rate 0.95: stops at the cap
        (False, False, True, 8),    # rate 18: passes the bail level
        (False, False, True, 0),    # a - gamma d <= 0: no sweep at all
        (False, False, True, 1)]    # NaN denominator: runs, then bails
    # tight settings: rows stop in several different chunks
    rows = batched_rows(coef, [0.001, 0.1, 0.5, 0.8, 1.0, 1.05, 10.0],
                        1.0, **TIGHT)
    assert [r.iterations for r in rows] == [4, 9, 24, 59, 288, 2000, 8]
    assert len({chunk_of(r.iterations) for r in rows}) >= 5
    # a NaN coefficient: NaN denominators run one sweep and bail, unless
    # another UAV's denominator is <= 0
    nan_coef = coef_of([1.0, 1.0], [np.nan, 1.0], np.zeros((2, 2)),
                       [0.1, 0.1])
    rows = batched_rows(nan_coef, [0.5, 2.0], 1.0, 1e-3, 20)
    assert [r.iterations for r in rows] == [1, 0]
    # a row that bails at once runs on to the end of its chunk and
    # overflows there
    rows = batched_rows(coef_of([1.0], [0.0], [[1e100]], [0.1]), [1.0], 1.0,
                        1e-3, 20)
    assert rows[0].iterations == 1
    # fixed point just above the bail level: the sweep that first passes it
    # also takes a step below tol, and the bail decides
    tie = coef_of([1.0], [0.0], [[0.5]], [5e8 + 5e-4])
    before = oracle_fixed_point(tie, 1.0, 1.0, 1e-3, 39).p
    after = tie.b @ before + tie.c
    assert after.max() > 1e9 and np.abs(after - before).max() < 1e-3
    rows = batched_rows(tie, [1.0, 0.25], 1.0, 1e-3, 100)
    assert (rows[0].iterations, rows[0].converged) == (40, False)
    # real desk rows at K=20 around gamma*, a full subtree and a deeper one
    _, coef = desk_coefficient_sets[-1]
    gamma_star = reference_max_min(coef, p_max=0.2, tol=1e-9).gamma_star
    for m in (7, 15):
        gammas = list(np.linspace(0.6, 1.2, m) * gamma_star)
        for inner in (dict(eps_fp=1e-3, n_max_fp=20), TIGHT):
            batched_rows(coef, gammas, 0.2, **inner)


def test_exact_probe_matches_oracle_on_edge_inputs():
    # the exact probe of the bisection oracle against the plain linear solve
    cases = [
        # rho = 0.5: a positive solution
        (coef_of([1.0, 1.0], [0.0, 0.0], [[0.0, 0.5], [0.5, 0.0]],
                 [0.1, 0.1]), True),
        # a - gamma d <= 0
        (coef_of([1.0], [2.0], [[0.0]], [0.1]), False),
        # rho = 2: the solution has negative entries
        (coef_of([1.0, 1.0], [0.0, 0.0], [[0.0, 2.0], [2.0, 0.0]],
                 [0.1, 0.1]), False),
        # rho = 2 and no noise: the solution is 0, the spectral test rejects
        (coef_of([1.0, 1.0], [0.0, 0.0], [[0.0, 2.0], [2.0, 0.0]],
                 [0.0, 0.0]), False),
        # rho = 1: m is singular
        (coef_of([1.0, 1.0], [0.0, 0.0], [[0.0, 1.0], [1.0, 0.0]],
                 [0.1, 0.1]), False),
        # a zero noise term with no interference into that UAV: an exact
        # zero power, and the spectral test accepts (rho = 0)
        (coef_of([1.0, 1.0], [0.0, 0.0], [[0.0, 0.0], [0.1, 0.0]],
                 [0.0, 0.1]), True),
    ]
    for coef, feasible in cases:
        p = oracle_exact_min_power(coef, 1.0, 1.0)
        assert (p is not None) == feasible
        if feasible:
            np.testing.assert_array_equal(
                p, np.clip(direct_solve(coef, 1.0), 0.0, None))


def test_bg_fppc_matches_oracle_through_infeasible_probes():
    # one strong UAV sets the bracket far above what the coupled pair can
    # reach: early probes have a - gamma d <= 0 or diverge to the bail level
    cases = [coef_of([1.0, 1.0], [1.0, 0.0], np.zeros((2, 2)), [0.1, 1e-3]),
             coef_of([100.0, 1.0, 1.0], [0.0, 0.0, 0.0],
                     [[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, 1.0, 0.0]],
                     [0.1, 0.1, 0.1])]
    first_sweeps = []
    for coef in cases:
        res, ref = solve_both_ways(coef, p_max=0.2, record_probes=True,
                                   **PRODUCTION)
        assert_same_solve(res, ref)
        first = fixed_point_min_power(coef, res.probes[0][0], 0.2, 1e-3, 20)
        assert not res.probes[0][1] and np.isinf(first.p).all()
        first_sweeps.append(first.iterations)
    assert first_sweeps[0] == 0 and 0 < first_sweeps[1] < 20
    # an unserved UAV (a = d = 0) would reject every target; no power gives
    # it a positive SINR, so every solver returns full power at once
    unserved = coef_of([0.0, 1.0], [0.0, 0.0], np.zeros((2, 2)), [0.1, 0.1])
    results = [solve(unserved, p_max=0.2, **PRODUCTION)
               for solve in (bg_fppc, oracle_bg_fppc)]
    results += [solve(unserved, p_max=0.2, tol=1e-4)
                for solve in (reference_max_min, oracle_reference_max_min)]
    for res in results:
        assert res.bisect_iterations + res.fp_iterations <= 1
        np.testing.assert_array_equal(res.p_star, [0.2, 0.2])
        assert res.gamma_star == 0.0


def test_sinr_matches_oracle_bitwise():
    r = rng(15)
    for _ in range(50):
        k = int(r.integers(1, 21))
        coef = make_coefficients(r, k)
        p = r.uniform(0.0, 0.2, k)
        p[r.random(k) < 0.2] = 0.0   # unserved or silent UAVs
        assert sinr(coef, p).tobytes() == oracle_sinr(coef, p).tobytes()
    unserved = coef_of([0.0, 1.0], [0.0, 0.0], np.zeros((2, 2)), [0.0, 0.1])
    for p in ([0.2, 0.2], [0.0, 0.0]):
        assert sinr(unserved, p).tobytes() == oracle_sinr(unserved, p).tobytes()


# -------------------------------------------------------- fp_capped counter

def test_fp_capped_counts_probes_stopped_at_cap():
    # weak noise makes the instance interference-limited: near gamma* the
    # fixed point contracts slowly, so some production probes stop at
    # n_max_fp = 20 while the tight settings converge on every probe
    coef = make_coefficients(rng(16), 10)
    coef = replace(coef, c=0.027 * coef.c)

    def recomputed(res, eps_fp, n_max_fp):
        # each recorded probe as a lone fixed point
        return [fixed_point_min_power(coef, g_mid, 0.2, eps_fp, n_max_fp)
                for g_mid, _ in res.probes]

    production = bg_fppc(coef, p_max=0.2, record_probes=True, **PRODUCTION)
    probes = recomputed(production, PRODUCTION["eps_fp"],
                        PRODUCTION["n_max_fp"])
    assert 0 < production.fp_capped <= production.bisect_iterations
    assert production.fp_capped == sum(fp.capped for fp in probes)
    assert production.fp_iterations == sum(fp.iterations for fp in probes)
    assert all(fp.iterations == 20 and not fp.converged
               for fp in probes if fp.capped)
    tight = bg_fppc(coef, p_max=0.2, eps_bisect=1e-4, record_probes=True,
                    **TIGHT)
    probes = recomputed(tight, **TIGHT)
    assert tight.fp_capped == 0 and not any(fp.capped for fp in probes)
    assert reference_max_min(coef, p_max=0.2).fp_capped == 0
