"""Max-min SINR power control.

Two solvers over the same coefficient form:

* bg_fppc: bisection over the target SINR, each probe answered by the
  classical fixed-point minimal-power iteration and a box feasibility check.
* reference_max_min: the normalized Perron-Frobenius balance iteration
  p <- p_max T(p) / max_j T(p)_j with T(p) = (d p + B p + c) / a, stopped
  by a certificate of its distance to the optimum. Used as the optimality
  reference for the interior-point-style solver it replaces.

full_power_result is full-power transmission as a solve: p = p_max 1,
gamma* = min SINR there, no iterations. It is the FP power rule, and both
solvers start from it, so neither returns a worse minimum than full power.
A UAV with a_k <= 0 is unserved: no power vector gives it a positive SINR,
so both return that start at once.

The vectors are short (K UAVs), so a probe's cost is per-call overhead, not
arithmetic. bg_fppc therefore answers its probes in batches. One batched
fixed point evaluates every midpoint of the next SUBTREE_DEPTH bisection
levels, each the midpoint of its own bracket (7 targets at depth 3); the
bisection then walks its accepted/rejected path down that subtree, and the
answers off the path are discarded. A batched sweep is four calls for all
rows and tests nothing: after a chunk of CHUNK sweeps one vectorized pass
finds each row's first stop sweep, a bail before a converge, and stopped rows
leave the batch. B p stays one matrix-vector product per row, because one
matrix product over the stacked rows sums in another order. bg_fppc keeps
the operands and the order of every floating-point operation of the plain
expressions, so its probe decisions, iteration counts and powers do not
depend on these shortcuts."""

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .receiver import SinrCoefficients, sinr


SUBTREE_DEPTH = 3  # bisection levels that one batched fixed point answers
CHUNK = 20         # sweeps between stop searches
MAX_SWEEPS = 1000  # balance sweeps of reference_max_min before it gives up


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
    (a_k <= gamma d_k) the iterate is +inf so the caller's box check fails,
    and so it is when an iterate passes the bail level 1e9 p_max or is not
    finite. Converged means the sup-norm step fell below eps_fp p_max; an
    iterate that does neither in n_max_fp sweeps is returned capped."""
    if gamma_target <= 0:
        raise ValueError("gamma_target must be positive")
    p, converged, iterations, capped = _fixed_points(
        coef, np.array([gamma_target]), p_max, eps_fp, n_max_fp)
    return FixedPointResult(p[0], bool(converged[0]), int(iterations[0]),
                            bool(capped[0]))


def _fixed_points(coef: SinrCoefficients, gammas: np.ndarray, p_max: float,
                  eps_fp: float, n_max_fp: int):
    """fixed_point_min_power at every target of gammas in one batched pass:
    (p, converged, iterations, capped), one row or entry per target, each
    equal to the lone call's bit for bit.

    A sweep evaluates gamma (B p + c) / denom for all running rows in that
    order, in place, with B p as one matrix-vector product per row. The loop
    keeps the iterates of a chunk of CHUNK sweeps and tests none of them;
    after the chunk one vectorized pass finds each row's first stop sweep: a
    bail (an entry not <= the bail level, which also catches NaN) before a
    converge (every |step| < tol) of the same sweep. Stopped rows leave the
    batch. A row runs on past its stop sweep to the end of its chunk, where a
    speculative target may overflow, hence the local errstate."""
    b, c = coef.b, coef.c
    m, k = gammas.size, coef.num_uavs
    g = gammas[:, None]
    denom = coef.a - g * coef.d
    p = np.full((m, k), np.inf)
    converged = np.zeros(m, dtype=bool)
    iterations = np.zeros(m, dtype=int)
    capped = np.zeros(m, dtype=bool)
    bail = 1e9 * p_max  # diverging iterate: the target is infeasible anyway
    tol = eps_fp * p_max
    # a NaN denominator is not <= 0: the row runs and bails at sweep 1
    live = np.flatnonzero(~(denom <= 0).any(axis=1))
    g, denom = g[live], denom[live]
    xs = np.empty((CHUNK + 1, live.size, k))
    xs[0] = p_max
    n = 0
    with np.errstate(all="ignore"):
        while n < n_max_fp and live.size:
            length = min(CHUNK, n_max_fp - n)
            for s in range(length):
                new = xs[s + 1]
                np.matmul(b, xs[s, :, :, None], out=new[:, :, None])
                new += c
                new *= g
                new /= denom
            sweeps = xs[1:length + 1]
            bailed = ~(sweeps <= bail).all(axis=2)
            stop = bailed | (np.abs(sweeps - xs[:length]) < tol).all(axis=2)
            hit = stop.any(axis=0)
            if hit.any():
                rows = np.flatnonzero(hit)
                at = stop[:, rows].argmax(axis=0)
                done = live[rows]
                iterations[done] = at + (n + 1)
                converged[done] = fine = ~bailed[at, rows]
                p[done] = np.where(fine[:, None], sweeps[at, rows], np.inf)
                keep = ~hit
                live, g, denom = live[keep], g[keep], denom[keep]
                xs = xs[:, keep]
            n += length
            xs[0] = xs[length]
    p[live] = xs[0]
    iterations[live] = n_max_fp
    capped[live] = True
    return p, converged, iterations, capped


@dataclass
class PowerControlResult:
    """Outcome of one max-min solve."""

    p_star: np.ndarray
    gamma_star: float
    fp_iterations: int = 0       # fixed-point or balance sweeps
    fp_capped: int = 0           # probes or balance runs stopped at their cap
    bisect_iterations: int = 0
    feasible: bool = True
    work_ops: int = 0            # interference multiply-accumulates
    probe_gap_max: float = 0.0   # worst |gamma_mid - achieved| / gamma_mid
    probes: list = field(default_factory=list)  # (gamma_mid, feasible) if kept


def full_power_result(coef: SinrCoefficients,
                      p_max: float) -> PowerControlResult:
    """Full power, its min SINR as gamma*, and every counter at 0."""
    p = full_power(coef.num_uavs, p_max)
    return PowerControlResult(p_star=p, gamma_star=float(np.min(sinr(coef, p))))


def _finish(result: PowerControlResult, coef: SinrCoefficients,
            gamma_floor) -> PowerControlResult:
    degenerate = not np.any(coef.a > 0)
    result.feasible = not degenerate
    if gamma_floor is not None and result.gamma_star < gamma_floor * (1 - 1e-12):
        result.feasible = False
    return result


def _subtree_targets(g_lo: float, g_hi: float) -> list:
    """Midpoints of the next SUBTREE_DEPTH bisection levels in heap order:
    node i has bracket [lo, hi] and target 0.5 (lo + hi); its children are
    2i+1 (i rejected: [lo, mid]) and 2i+2 (i accepted: [mid, hi])."""
    lo, hi, targets = [g_lo], [g_hi], []
    for i in range(2 ** SUBTREE_DEPTH - 1):
        mid = 0.5 * (lo[i] + hi[i])
        targets.append(mid)
        lo += [lo[i], mid]
        hi += [mid, hi[i]]
    return targets


def bg_fppc(coef: SinrCoefficients, p_max: float, eps_bisect: float = 1e-4,
            eps_fp: float = 1e-3, n_max_fp: int = 20,
            gamma_floor: float | None = None,
            record_probes: bool = False) -> PowerControlResult:
    """Bisection-guided fixed-point max-min power control.

    The outer loop brackets the max-min SINR in [0, 1.5 max_k Gamma(p_max 1)]
    and halves the bracket until its relative width drops below eps_bisect;
    each midpoint is tested by running the fixed-point iteration and checking
    the resulting powers against the cap.

    The probes are run SUBTREE_DEPTH levels at a time: one batched fixed
    point answers every midpoint the next levels could probe, and the walk
    down the subtree takes the answer of each midpoint on its path. The
    others are discarded and counted nowhere, so every counter, decision and
    bit equals that of the one-probe-at-a-time bisection."""
    k = coef.num_uavs
    res = full_power_result(coef, p_max)
    p_full = res.p_star
    g_lo, g_hi = 0.0, 1.5 * float(np.max(sinr(coef, p_full)))
    if g_hi <= 0 or not (coef.a > 0).all():
        return _finish(res, coef, gamma_floor)
    nodes = 2 ** SUBTREE_DEPTH - 1  # a walk past the last one starts anew
    node = nodes
    while (g_hi - g_lo) / g_hi > eps_bisect:
        if node >= nodes:
            targets = _subtree_targets(g_lo, g_hi)
            fp_p, _, iterations, capped = _fixed_points(
                coef, np.array(targets), p_max, eps_fp, n_max_fp)
            iterations, capped = iterations.tolist(), capped.tolist()
            node = 0
        g_mid, p = targets[node], fp_p[node]
        if g_mid <= 0:  # the bracket underflowed, as a lone probe reports
            raise ValueError("gamma_target must be positive")
        res.bisect_iterations += 1
        res.fp_iterations += iterations[node]
        res.fp_capped += capped[node]
        res.work_ops += iterations[node] * k * k
        ok = bool(p.max() <= p_max)
        if record_probes:
            res.probes.append((g_mid, ok))
        if ok:
            g_lo = g_mid
            p_cand = np.minimum(p, p_full)
            achieved = float(sinr(coef, p_cand).min())
            res.probe_gap_max = max(res.probe_gap_max,
                                    abs(g_mid - achieved) / g_mid)
            if achieved > res.gamma_star:
                res.p_star = p_cand
                res.gamma_star = achieved
        else:
            g_hi = g_mid
        node = 2 * node + 1 + ok
    return _finish(res, coef, gamma_floor)


def reference_max_min(coef: SinrCoefficients, p_max: float, tol: float = 1e-6,
                      gamma_floor: float | None = None) -> PowerControlResult:
    """Max-min power control by the normalized Perron-Frobenius balance
    iteration p <- p_max T(p) / max_j T(p)_j, T(p) = (d p + B p + c) / a, so
    that Gamma_k(p) = p_k / T_k(p).

    Every iterate has its largest entry at p_max, and at such a p the
    optimum gamma* lies in [min_k Gamma_k(p), max_k Gamma_k(p)]. The
    iteration therefore stops on the balance certificate
    max_k Gamma_k(p) <= (1 + tol) min_k Gamma_k(p), which puts
    min_k Gamma_k(p) within a factor (1 + tol) of gamma*. A set that does
    not balance within MAX_SWEEPS sweeps (zero noise with a reducible B can
    drive an entry to 0) counts in fp_capped and returns its last iterate.
    Either way the result is the better of full power and the last iterate
    clipped to the box; fp_iterations counts the evaluations of T."""
    k = coef.num_uavs
    res = full_power_result(coef, p_max)
    if not (coef.a > 0).all():
        return _finish(res, coef, gamma_floor)
    m = coef.b + np.diag(coef.d)
    m /= coef.a[:, None]
    u = coef.c / coef.a
    bound = 1.0 + tol
    p = res.p_star
    # T_k(p) = 0 (no noise, no interference into k) gives Gamma_k = inf or
    # NaN, which fails the certificate without a warning
    with np.errstate(divide="ignore", invalid="ignore"):
        for sweep in range(1, MAX_SWEEPS + 1):
            t = m @ p
            t += u
            gam = p / t
            if gam.max() <= bound * gam.min():
                break
            p = t * (p_max / t.max())
        else:
            res.fp_capped = 1
    res.fp_iterations = sweep
    res.work_ops = sweep * k * k
    p = np.minimum(p, p_max)
    achieved = float(np.min(sinr(coef, p)))
    if achieved > res.gamma_star:
        res.p_star, res.gamma_star = p, achieved
    return _finish(res, coef, gamma_floor)
