"""UAV to O-RU association heuristics.

Three stages build the association matrix A (K x L, binary): every UAV first
grabs its strongest O-RU, idle O-RU capacity is then handed to the strongest
nearby UAVs, and finally UAVs still missing their SE target greedily add
serving O-RUs. The baseline (BA) is the first two stages, which read beta
only; the proposed association (PA, propose_association) is stage 3 and the
same validation, run from a BA start that the caller builds once and may
refine at several power vectors.

Constraints enforced throughout: every row sums to >= 1 (each UAV served) and
every column sums to <= tau_p (pilot-limited O-RU capacity). Ties are broken
by lowest index so results are reproducible."""

import numpy as np


class AssociationInfeasibleError(RuntimeError):
    """No association can serve every UAV within the O-RU capacity limits."""


def validate_association(a: np.ndarray, tau_p: int) -> None:
    a = np.asarray(a)
    if np.any((a != 0) & (a != 1)):
        raise ValueError("association matrix must be binary")
    if np.any(a.sum(axis=1) < 1):
        raise AssociationInfeasibleError("some UAV has no serving O-RU")
    if np.any(a.sum(axis=0) > tau_p):
        raise AssociationInfeasibleError("some O-RU serves more than tau_p UAVs")


def _descending(values: np.ndarray) -> np.ndarray:
    # stable sort on -values keeps the lowest index first among ties
    return np.argsort(-values, kind="stable")


def stage1_uav_centric(beta: np.ndarray, tau_p: int) -> np.ndarray:
    """Each UAV takes its strongest O-RU; if that one is full, the next
    strongest with spare capacity (keeps every UAV connected)."""
    beta = np.asarray(beta, dtype=float)
    if np.any(beta <= 0):
        raise ValueError("beta must be strictly positive")
    num_uavs, num_orus = beta.shape
    a = np.zeros((num_uavs, num_orus), dtype=int)
    load = np.zeros(num_orus, dtype=int)
    for k in range(num_uavs):
        for l in _descending(beta[k]):
            if load[l] < tau_p:
                a[k, l] = 1
                load[l] += 1
                break
        else:
            raise AssociationInfeasibleError(
                f"all O-RUs are at capacity before UAV {k} is served "
                f"(K={num_uavs} exceeds L*tau_p={num_orus * tau_p})")
    return a


def stage2_oru_centric(a: np.ndarray, beta: np.ndarray, tau_p: int,
                       n_top: int) -> np.ndarray:
    """O-RUs with spare capacity pick up their strongest UAVs, at most n_top
    new ones each; pairs already associated are skipped without using a slot."""
    a = np.asarray(a, dtype=int).copy()
    beta = np.asarray(beta, dtype=float)
    load = a.sum(axis=0)
    for l in range(beta.shape[1]):
        budget = min(n_top, tau_p - load[l])
        if budget <= 0:
            continue
        added = 0
        for k in _descending(beta[:, l]):
            if added == budget:
                break
            if a[k, l] == 0:
                a[k, l] = 1
                load[l] += 1
                added += 1
    return a


def propose_association(start: np.ndarray, beta: np.ndarray, tau_p: int,
                        se_min: float, evaluate_se) -> np.ndarray:
    """Stage 3 from a baseline start: give UAVs below the SE target extra
    serving O-RUs, strongest first.

    Each violator tries up to ceil(L/2) candidates; a candidate at capacity
    is skipped but still spends one attempt. SE is re-evaluated through the
    callback after every addition. The result satisfies the connectivity
    and capacity constraints or validation raises."""
    a = np.asarray(start, dtype=int).copy()
    beta = np.asarray(beta, dtype=float)
    num_orus = beta.shape[1]
    load = a.sum(axis=0)
    budget = (num_orus + 1) // 2
    se = np.asarray(evaluate_se(a).se)
    for k in np.flatnonzero(se < se_min):
        candidates = [l for l in _descending(beta[k]) if a[k, l] == 0]
        attempts = 0
        for l in candidates:
            if se[k] >= se_min or attempts >= budget:
                break
            attempts += 1
            if load[l] < tau_p:
                a[k, l] = 1
                load[l] += 1
                se = np.asarray(evaluate_se(a).se)
    validate_association(a, tau_p)
    return a


def baseline_association(beta: np.ndarray, tau_p: int, n_top: int) -> np.ndarray:
    """UAV-centric plus O-RU-centric stages only, no QoS repair."""
    a = stage2_oru_centric(stage1_uav_centric(beta, tau_p), beta, tau_p, n_top)
    validate_association(a, tau_p)
    return a
