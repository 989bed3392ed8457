import time

import numpy as np
import pytest

from cfuav.association import (AssociationInfeasibleError,
                               baseline_association, propose_association,
                               stage1_uav_centric, stage2_oru_centric,
                               validate_association)
from cfuav.receiver import SeVector


def se_stub(values_fn):
    """evaluate_se callback built from a function of the association matrix."""
    def evaluate(a):
        se = np.asarray(values_fn(a), dtype=float)
        return SeVector(se=se, sinr=2.0 ** se - 1.0)
    return evaluate


def always(se_values):
    return se_stub(lambda a: se_values)


# ----------------------------------------------------------------- stage 1

def test_stage1_both_pick_strongest():
    beta = np.array([[2.0, 1.0], [3.0, 0.5]])
    a = stage1_uav_centric(beta, tau_p=2)
    np.testing.assert_array_equal(a, [[1, 0], [1, 0]])


def test_stage1_fallback_to_next_strongest():
    beta = np.array([[2.0, 1.0], [3.0, 0.5]])
    a = stage1_uav_centric(beta, tau_p=1)
    np.testing.assert_array_equal(a, [[1, 0], [0, 1]])


def test_stage1_single_uav():
    beta = np.array([[0.3, 0.9, 0.2]])
    a = stage1_uav_centric(beta, tau_p=4)
    np.testing.assert_array_equal(a, [[0, 1, 0]])


def test_stage1_infeasible_when_capacity_exhausted():
    beta = np.array([[1.0], [0.9], [0.8], [0.7]])  # K=4 > L*tau_p=3
    with pytest.raises(AssociationInfeasibleError):
        stage1_uav_centric(beta, tau_p=3)


def test_stage1_rejects_nonpositive_beta():
    with pytest.raises(ValueError):
        stage1_uav_centric(np.array([[1.0, 0.0]]), tau_p=1)


# ----------------------------------------------------------------- stage 2

def test_stage2_full_column_unchanged():
    beta = np.array([[1.0], [2.0]])
    a = np.array([[1], [1]])
    out = stage2_oru_centric(a, beta, tau_p=2, n_top=3)
    np.testing.assert_array_equal(out, a)


def test_stage2_already_associated_skipped():
    # single O-RU, all three UAVs already attached: nothing to add
    beta = np.array([[1.0], [0.9], [0.8]])
    a = np.ones((3, 1), dtype=int)
    out = stage2_oru_centric(a, beta, tau_p=10, n_top=3)
    np.testing.assert_array_equal(out, a)


def test_stage2_adds_top_uavs():
    # stage 1 put all four UAVs on O-RU 0; O-RU 1 picks its best three
    beta = np.array([[9.0, 0.4], [8.0, 0.3], [7.0, 0.2], [6.0, 0.1]])
    a1 = stage1_uav_centric(beta, tau_p=4)
    np.testing.assert_array_equal(a1[:, 0], [1, 1, 1, 1])
    out = stage2_oru_centric(a1, beta, tau_p=4, n_top=3)
    np.testing.assert_array_equal(out[:, 1], [1, 1, 1, 0])


def test_stage2_respects_capacity():
    beta = np.array([[9.0, 5.0, 0.5], [8.0, 4.0, 0.4],
                     [7.0, 3.0, 0.3], [6.0, 2.0, 0.2]])
    a1 = stage1_uav_centric(beta, tau_p=2)
    np.testing.assert_array_equal(a1.sum(axis=0), [2, 2, 0])
    out = stage2_oru_centric(a1, beta, tau_p=2, n_top=3)
    assert np.all(out.sum(axis=0) <= 2)
    np.testing.assert_array_equal(out[:, 2], [1, 1, 0, 0])  # spare column fills


# ----------------------------------------------------------------- stage 3

def test_stage3_no_violators_is_identity():
    beta = np.array([[2.0, 1.0], [1.0, 2.0]])
    a = np.eye(2, dtype=int)
    out = propose_association(a, beta, tau_p=2, se_min=1.0,
                              evaluate_se=always(np.array([2.0, 2.0])))
    np.testing.assert_array_equal(out, a)


def test_stage3_attempt_budget_is_half_the_orus():
    # L=4 -> ceil(L/2) = 2 candidates tried even though SE never recovers
    beta = np.array([[4.0, 3.0, 2.0, 1.0]])
    a = np.array([[1, 0, 0, 0]])
    calls = []

    def evaluate(mat):
        calls.append(mat.copy())
        return SeVector(se=np.array([0.1]), sinr=np.array([0.01]))

    out = propose_association(a, beta, tau_p=4, se_min=1.0, evaluate_se=evaluate)
    np.testing.assert_array_equal(out, [[1, 1, 1, 0]])
    assert len(calls) == 3  # initial evaluation + one per addition


def test_stage3_stops_after_first_successful_addition():
    beta = np.array([[4.0, 3.0, 2.0, 1.0]])
    a = np.array([[1, 0, 0, 0]])

    def evaluate(mat):
        se = 2.0 if mat[0].sum() > 1 else 0.1
        return SeVector(se=np.array([se]), sinr=np.array([se]))

    out = propose_association(a, beta, tau_p=4, se_min=1.0, evaluate_se=evaluate)
    np.testing.assert_array_equal(out, [[1, 1, 0, 0]])


def test_stage3_skips_full_columns_but_spends_attempts():
    # O-RU 1 (strongest candidate) is full: the attempt is consumed and with
    # budget ceil(4/2)=2 only O-RU 2 can still be added
    beta = np.array([[9.0, 5.0, 4.0, 3.0],
                     [1.0, 9.0, 0.1, 0.1],
                     [1.0, 8.0, 0.1, 0.1]])
    a = np.array([[1, 0, 0, 0],
                  [0, 1, 0, 0],
                  [0, 1, 0, 0]])

    def evaluate(mat):
        se = np.array([0.1, 2.0, 2.0])
        return SeVector(se=se, sinr=se)

    out = propose_association(a, beta, tau_p=2, se_min=1.0, evaluate_se=evaluate)
    np.testing.assert_array_equal(out[0], [1, 0, 1, 0])


def test_stage3_only_adds_links():
    rng = np.random.default_rng(0)
    beta = rng.uniform(0.1, 1.0, (6, 8))
    a = stage2_oru_centric(stage1_uav_centric(beta, 3), beta, 3, 2)
    out = propose_association(a, beta, tau_p=3, se_min=1.0,
                              evaluate_se=always(rng.uniform(0, 2, 6)))
    assert np.all(out >= a)


# -------------------------------------------------------------- composition

def test_propose_satisfies_constraints_on_random_instances():
    rng = np.random.default_rng(1)
    for _ in range(100):
        k = int(rng.integers(1, 12))
        l = int(rng.integers(1, 10))
        tau_p = int(rng.integers(1, 6))
        if k > l * tau_p:
            continue
        beta = rng.uniform(0.01, 1.0, (k, l))
        start = baseline_association(beta, tau_p, n_top=3)
        a = propose_association(start, beta, tau_p, se_min=0.5,
                                evaluate_se=always(rng.uniform(0.0, 2.0, k)))
        validate_association(a, tau_p)


def test_propose_equals_baseline_when_qos_met():
    rng = np.random.default_rng(2)
    beta = rng.uniform(0.1, 1.0, (5, 6))
    ba = baseline_association(beta, 3, n_top=2)
    pa = propose_association(ba, beta, 3, se_min=1.0,
                             evaluate_se=always(np.full(5, 9.0)))
    np.testing.assert_array_equal(pa, ba)


def test_baseline_hand_trace():
    beta = np.array([[2.0, 1.0], [3.0, 0.5]])
    ba = baseline_association(beta, tau_p=1, n_top=3)
    np.testing.assert_array_equal(ba, [[1, 0], [0, 1]])


def test_baseline_serves_weak_uav_with_fewer_orus_than_proposed():
    rng = np.random.default_rng(3)
    beta = rng.uniform(0.1, 1.0, (6, 8))
    weak = 4
    se = np.full(6, 5.0)
    se[weak] = 0.0
    ba = baseline_association(beta, 3, n_top=2)
    pa = propose_association(ba, beta, 3, se_min=1.0,
                             evaluate_se=always(se))
    assert ba[weak].sum() <= pa[weak].sum()
    assert pa[weak].sum() > ba[weak].sum()  # stage 3 actually added links


def test_deterministic_tie_breaking():
    beta = np.ones((3, 3))
    a = stage1_uav_centric(beta, tau_p=1)
    np.testing.assert_array_equal(a, np.eye(3, dtype=int))
    b1 = baseline_association(np.ones((4, 4)), 2, 2)
    b2 = baseline_association(np.ones((4, 4)), 2, 2)
    np.testing.assert_array_equal(b1, b2)


def test_operation_count_scales_near_linearly_in_kl():
    # association work is ~ K L log K; fit the measured time exponent in
    # log(KL) and accept anything clearly sub-quadratic
    sizes = (50, 100, 200)
    times = []
    rng = np.random.default_rng(4)
    for s in sizes:
        beta = rng.uniform(0.01, 1.0, (s, s))
        high_se = always(np.full(s, 9.0))
        best = np.inf
        for _ in range(3):
            t0 = time.perf_counter()
            # time all three stages: the BA start and stage 3 over it
            tau_p = max(1, s // 10)
            start = baseline_association(beta, tau_p, n_top=3)
            propose_association(start, beta, tau_p, se_min=1.0,
                                evaluate_se=high_se)
            best = min(best, time.perf_counter() - t0)
        times.append(best)
    fit = np.polyfit(np.log([s * s for s in sizes]), np.log(times), 1)[0]
    assert 0.5 < fit < 1.6
