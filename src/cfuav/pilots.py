"""Pilot assignment and MMSE channel estimation under pilot contamination.

UAVs sharing a pilot despread onto the same observation, so their estimates
pick up each other's channels. Each link's MMSE estimator uses the pilot
Gram matrix Psi = tau_p^2 * sum_{i in P_k} p_i C_il + tau_p * sigma^2 * I;
_estimation_matrices builds Psi, the MMSE filter and the split
C = C_hat + C_err for all (K, L) links in one batched pass.
The pilot phase runs in the solver layout (L, N, T, K) of the channel
ensemble (see propagation.solver_layout): despreading is one GEMM over the
UAV axis, and the estimates are written by propagation.link_affine, so
h_hat, like h, is a (T, K, L, N) view of solver-layout storage. The
per-UAV copy of the pilot observations is gathered one block of O-RUs at a
time (propagation.oru_blocks), so the estimation holds the (L, N, T, tau_p)
observations and the estimates, never an (L, N, T, K) copy of the
observations."""

import math
from dataclasses import dataclass

import numpy as np

from .propagation import (ChannelStats, complex_normal_layout, link_affine,
                          solver_layout)


@dataclass(frozen=True)
class PilotAssignment:
    """Which pilot each UAV uses, and at what power."""

    pilot_of: np.ndarray      # (K,) pilot index in [0, tau_p)
    tau_p: int
    pilot_power: np.ndarray   # (K,) watts

    @property
    def num_uavs(self) -> int:
        return self.pilot_of.shape[0]


def make_assignment(pilot_of, tau_p: int, pilot_power) -> PilotAssignment:
    pilot_of = np.asarray(pilot_of, dtype=int)
    if pilot_of.ndim != 1:
        raise ValueError("pilot_of must be one-dimensional")
    if np.any(pilot_of < 0) or np.any(pilot_of >= tau_p):
        raise ValueError("pilot index out of range")
    power = np.broadcast_to(np.asarray(pilot_power, dtype=float),
                            pilot_of.shape).copy()
    return PilotAssignment(pilot_of=pilot_of, tau_p=int(tau_p),
                           pilot_power=power)


def assign_pilots_random(num_uavs: int, tau_p: int,
                         stream: np.random.Generator,
                         pilot_power_w: float) -> PilotAssignment:
    """Uniform random pilot per UAV; collisions are allowed and expected once
    num_uavs exceeds tau_p."""
    if tau_p < 1:
        raise ValueError("tau_p must be >= 1")
    pilot_of = stream.integers(0, tau_p, size=num_uavs)
    return make_assignment(pilot_of, tau_p, pilot_power_w)


@dataclass(frozen=True)
class EstimationResult:
    """Channel estimates for a whole realization ensemble and the per-link
    MMSE covariance split C = c_hat (estimate) + c_err (estimation error)."""

    h_hat: np.ndarray   # (T, K, L, N)
    c_hat: np.ndarray   # (K, L, N, N)
    c_err: np.ndarray   # (K, L, N, N)


def _estimation_matrices(assignment: PilotAssignment, stats: ChannelStats,
                         sigma2: float):
    """Batched Psi, MMSE filter W = sqrt(p_k) tau C Psi^{-1}, and the
    covariance split for all links."""
    k_num, l_num, n, _ = stats.scatter_cov.shape
    tau = assignment.tau_p
    # per-pilot sum of p_i * C_il, then broadcast back to UAV index
    group_cov = np.zeros((tau, l_num, n, n), dtype=complex)
    for i in range(k_num):
        group_cov[assignment.pilot_of[i]] += (assignment.pilot_power[i]
                                              * stats.scatter_cov[i])
    psi = tau ** 2 * group_cov[assignment.pilot_of] + tau * sigma2 * np.eye(n)
    cov = stats.scatter_cov
    singular = ~np.any(psi.reshape(k_num, l_num, -1), axis=-1)
    safe_psi = psi.copy()
    safe_psi[singular] = np.eye(n)
    inv_c = np.linalg.solve(safe_psi, cov)          # Psi^{-1} C
    c_psi_inv = np.conj(inv_c).swapaxes(-1, -2)     # C Psi^{-1} (C Hermitian)
    amp = np.sqrt(assignment.pilot_power)[:, None, None, None]
    w = amp * tau * c_psi_inv
    c_hat = (tau ** 2 * assignment.pilot_power[:, None, None, None]
             * (cov @ inv_c))
    c_hat = 0.5 * (c_hat + np.conj(c_hat).swapaxes(-1, -2))
    c_err = cov - c_hat
    c_err = 0.5 * (c_err + np.conj(c_err).swapaxes(-1, -2))
    return psi, w, c_hat, c_err


def simulate_pilot_and_estimate(h: np.ndarray, assignment: PilotAssignment,
                                stats: ChannelStats, sigma2: float,
                                stream: np.random.Generator) -> EstimationResult:
    """Run the pilot phase on a channel ensemble and apply per-link MMSE.

    For each realization, the despread observation on pilot t at O-RU l is
    y = tau_p * sum_{i on t} sqrt(p_i) h_il + n with n ~ CN(0, tau_p sigma^2 I);
    the estimate is h_hat = h_bar + W (y - E[y]). UAVs sharing a pilot share
    the observation, which is what contaminates their estimates."""
    h = np.asarray(h, dtype=complex)
    if h.ndim != 4:
        raise ValueError("expected channel ensemble with shape (T, K, L, N)")
    t_num, k_num, l_num, n = h.shape
    if k_num != assignment.num_uavs or stats.mean_vec.shape != (k_num, l_num, n):
        raise ValueError("channel ensemble does not match assignment/stats")
    tau = assignment.tau_p
    # despreading weights: column p sums tau sqrt(p_i) h_i over pilot p's UAVs
    spread = np.zeros((k_num, tau))
    spread[np.arange(k_num), assignment.pilot_of] = (
        tau * np.sqrt(assignment.pilot_power))
    y_mean = (stats.mean_vec.transpose(1, 2, 0) @ spread)[:, :, None]
    y = (solver_layout(h).reshape(-1, k_num) @ spread).reshape(
        l_num, n, t_num, tau)
    noise = stream.standard_normal((2, t_num, tau, l_num, n))
    y += complex_normal_layout(noise, math.sqrt(tau * sigma2 / 2.0))
    del noise                   # freed before the estimates are allocated
    y -= y_mean
    _, w, c_hat, c_err = _estimation_matrices(assignment, stats, sigma2)
    # each UAV reads its pilot's observation, gathered one block at a time
    h_hat = link_affine(
        stats.mean_vec, w,
        lambda sl: np.take(y[sl], assignment.pilot_of, axis=-1), t_num)
    return EstimationResult(h_hat=h_hat, c_hat=c_hat, c_err=c_err)
