"""Max-min SINR power control.

Two solvers over the same coefficient form:

* bg_fppc: bisection over the target SINR, each probe answered by the
  classical fixed-point minimal-power iteration and a box feasibility check.
* reference_max_min: same bisection but each probe is decided exactly by
  solving the linear system (diag(a - g d) - g B) p = g c, which characterizes
  the minimal power vector at target g. Used as the optimality oracle for the
  interior-point-style solver it replaces.

Both keep the best feasible (p, min-SINR) pair seen, starting from full
power, so they never return a worse minimum than full-power transmission.

The vectors are short (K UAVs), so a probe's cost is per-call overhead, not
arithmetic. A fixed-point sweep runs a handful of in-place ufunc calls and
two ndarray reductions. An exact probe solves first: a positive solution
certifies that the Z-matrix diag(a - g d) - g B is a nonsingular M-matrix,
i.e. rho(g D^-1 B) < 1; a clearly negative entry rejects the target either
way, so the eigenvalue test runs only for a solution with its smallest entry
in [-1e-12 p_max, 0]. Both keep the operands and the order of every
floating-point operation of the plain expressions, so the probe decisions,
iteration counts and powers do not depend on these shortcuts."""

import time
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .receiver import SinrCoefficients, sinr


def full_power(num_uavs: int, p_max: float) -> np.ndarray:
    return np.full(num_uavs, float(p_max))


class FixedPointResult(NamedTuple):
    p: np.ndarray
    converged: bool
    iterations: int
    capped: bool = False  # stopped at n_max_fp without converging


def fixed_point_min_power(coef: SinrCoefficients, gamma_target: float,
                          p_max: float, eps_fp: float,
                          n_max_fp: int) -> FixedPointResult:
    """Minimal powers meeting a common SINR target, by Jacobi iteration of
    p_k <- gamma (sum_{i!=k} b_ki p_i + c_k) / (a_k - gamma d_k).

    Starts from full power; when the target is unreachable for some UAV
    (a_k <= gamma d_k) the iterate is +inf so the caller's box check fails.
    Each sweep evaluates gamma (B p + c) / denom in that order, in place; every
    term is >= 0, so a single NaN-safe comparison of the largest entry with
    the bail level also catches non-finite iterates."""
    if gamma_target <= 0:
        raise ValueError("gamma_target must be positive")
    denom = coef.a - gamma_target * coef.d
    k = coef.num_uavs
    if (denom <= 0).any():
        return FixedPointResult(np.full(k, np.inf), False, 0)
    b, c = coef.b, coef.c
    p = full_power(k, p_max)
    diff = np.empty(k)
    bail = 1e9 * p_max  # diverging iterate: the target is infeasible anyway
    tol = eps_fp * p_max
    for n in range(1, n_max_fp + 1):
        p_new = b @ p
        p_new += c
        p_new *= gamma_target
        p_new /= denom
        if not p_new.max() <= bail:
            return FixedPointResult(np.full(k, np.inf), False, n)
        np.subtract(p_new, p, out=diff)
        np.abs(diff, out=diff)
        p = p_new
        if diff.max() < tol:
            return FixedPointResult(p, True, n)
    return FixedPointResult(p, False, n_max_fp, True)


@dataclass
class PowerControlResult:
    """Outcome of one max-min solve."""

    p_star: np.ndarray
    gamma_star: float
    fp_iterations: int = 0
    fp_capped: int = 0           # probes whose fixed point hit n_max_fp
    bisect_iterations: int = 0
    feasible: bool = True
    elapsed: float = 0.0
    work_ops: int = 0            # interference multiply-accumulates
    probe_gap_max: float = 0.0   # worst |gamma_mid - achieved| / gamma_mid
    probes: list = field(default_factory=list)  # (gamma_mid, feasible) if kept


def _finish(result: PowerControlResult, coef: SinrCoefficients,
            gamma_floor, t0: float) -> PowerControlResult:
    degenerate = not np.any(coef.a > 0)
    result.feasible = not degenerate
    if gamma_floor is not None and result.gamma_star < gamma_floor * (1 - 1e-12):
        result.feasible = False
    result.elapsed = time.perf_counter() - t0
    return result


def bg_fppc(coef: SinrCoefficients, p_max: float, eps_bisect: float = 1e-4,
            eps_fp: float = 1e-3, n_max_fp: int = 20,
            gamma_floor: float | None = None,
            record_probes: bool = False) -> PowerControlResult:
    """Bisection-guided fixed-point max-min power control.

    The outer loop brackets the max-min SINR in [0, 1.5 max_k Gamma(p_max 1)]
    and halves the bracket until its relative width drops below eps_bisect;
    each midpoint is tested by running the fixed-point iteration and checking
    the resulting powers against the cap."""
    t0 = time.perf_counter()
    k = coef.num_uavs
    p_full = full_power(k, p_max)
    gamma_full = sinr(coef, p_full)
    res = PowerControlResult(p_star=p_full.copy(),
                             gamma_star=float(np.min(gamma_full)))
    g_lo, g_hi = 0.0, 1.5 * float(np.max(gamma_full))
    if g_hi <= 0:
        return _finish(res, coef, gamma_floor, t0)
    while (g_hi - g_lo) / g_hi > eps_bisect:
        res.bisect_iterations += 1
        g_mid = 0.5 * (g_lo + g_hi)
        fp = fixed_point_min_power(coef, g_mid, p_max, eps_fp, n_max_fp)
        res.fp_iterations += fp.iterations
        res.fp_capped += fp.capped
        res.work_ops += fp.iterations * k * k
        ok = bool(fp.p.max() <= p_max)
        if record_probes:
            res.probes.append((g_mid, ok))
        if ok:
            g_lo = g_mid
            p_cand = np.minimum(fp.p, p_full)
            achieved = float(sinr(coef, p_cand).min())
            res.probe_gap_max = max(res.probe_gap_max,
                                    abs(g_mid - achieved) / g_mid)
            if achieved > res.gamma_star:
                res.p_star = p_cand
                res.gamma_star = achieved
        else:
            g_hi = g_mid
    return _finish(res, coef, gamma_floor, t0)


def _exact_min_power(coef: SinrCoefficients, gamma: float, p_max: float):
    """Exact feasibility probe: the minimal power vector at target gamma, or
    None when the target is infeasible (even ignoring the cap).

    m = diag(a - gamma d) - gamma B is a Z-matrix. A solution of m p = gamma c
    with every entry > 0 makes it a nonsingular M-matrix, which certifies
    rho(gamma D^-1 B) < 1. When rho < 1, m^-1 >= 0 and the exact solution is
    >= 0, so an entry below the rounding allowance rejects the target
    whatever the spectral radius. The eigenvalue test thus runs only when
    the smallest entry lies in [-1e-12 p_max, 0]."""
    denom = coef.a - gamma * coef.d
    if (denom <= 0).any():
        return None
    m = np.diag(denom) - gamma * coef.b
    try:
        p = np.linalg.solve(m, gamma * coef.c)
    except np.linalg.LinAlgError:
        return None
    if p.min() > 0:
        return p
    if (p < -1e-12 * p_max).any():
        return None
    scaled_b = gamma * coef.b / denom[:, None]
    if np.abs(np.linalg.eigvals(scaled_b)).max() >= 1.0:
        return None
    return np.clip(p, 0.0, None)


def reference_max_min(coef: SinrCoefficients, p_max: float, tol: float = 1e-6,
                      gamma_floor: float | None = None) -> PowerControlResult:
    """Max-min power control with exact per-target feasibility decisions.

    At the returned optimum the exact solve equalizes every SINR, so this is
    the ground truth the iterative solver is compared against."""
    t0 = time.perf_counter()
    k = coef.num_uavs
    p_full = full_power(k, p_max)
    gamma_full = sinr(coef, p_full)
    res = PowerControlResult(p_star=p_full.copy(),
                             gamma_star=float(np.min(gamma_full)))
    if not np.any(coef.a > 0):
        return _finish(res, coef, gamma_floor, t0)

    p_cap = p_max * (1 + 1e-12)

    def probe(gamma):
        p = _exact_min_power(coef, gamma, p_max)
        if p is None or p.max() > p_cap:
            return None
        return np.minimum(p, p_full)

    # each UAV alone at full power bounds the max-min from above
    with np.errstate(divide="ignore"):
        solo = np.where(coef.a > 0,
                        p_max * coef.a / (p_max * coef.d + coef.c), 0.0)
    g_hi = float(np.min(np.where(coef.a > 0, solo, np.inf)))
    if not np.isfinite(g_hi) or g_hi <= 0:
        return _finish(res, coef, gamma_floor, t0)
    top = probe(g_hi)
    if top is not None:
        res.p_star, res.gamma_star = top, float(np.min(sinr(coef, top)))
        res.bisect_iterations = 1
        return _finish(res, coef, gamma_floor, t0)
    g_lo = 0.0
    while (g_hi - g_lo) / g_hi > tol:
        res.bisect_iterations += 1
        g_mid = 0.5 * (g_lo + g_hi)
        p = probe(g_mid)
        res.work_ops += k ** 3
        if p is not None:
            g_lo = g_mid
            achieved = float(sinr(coef, p).min())
            if achieved > res.gamma_star:
                res.p_star = p
                res.gamma_star = achieved
        else:
            g_hi = g_mid
    return _finish(res, coef, gamma_floor, t0)
