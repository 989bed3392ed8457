"""Per-O-RU L-MMSE combining, CPU combining weights, and the Monte Carlo
reduction of the uplink SINR into per-UAV coefficients.

For a power vector p the SINR of UAV k is the rational form

    Gamma_k(p) = p_k a_k / (p_k d_k + sum_{i != k} b_ki p_i + c_k)

where a (coherent signal gain), d (beamforming uncertainty), b (cross
interference) and c (noise) come from ensemble averages of combiner/channel
inner products. The coefficients are frozen at the power vector used to build
the combiners; the power solvers treat them as constants.

The moment reduction works on blocks of realizations in the solver layout
(L, N, t, K): each (T, K, L, N) input block is transposed once, so every
(O-RU, antenna) pair holds a contiguous (t, K) array. Per (l, t) the Gram
matrix G = sum_k p_k (h_hat_k h_hat_k^H + C_err_k) + sigma^2 I is Hermitian
positive definite, and is factored as G = C C^H by a Cholesky factorization
written entrywise over whole (l, t) arrays, looping in Python over the N
antennas only; forward and back substitution then give v for all K UAVs.
The second moment uses the real feature map f(x) in R^(N^2) made of |x_a|^2
and sqrt2 Re / sqrt2 Im of x_a conj(x_b) for a < b, for which
|v^H h|^2 = f(v) . f(h). The sum over a block of E[|v_kl^H h_il|^2] is thus
one real GEMM per O-RU, (K x N^2 t) by (N^2 t x K), and the (t, L, K, K)
cross-term tensor is never formed."""

import math
from dataclasses import dataclass

import numpy as np

from .pilots import EstimationResult

_CHUNK = 32  # realizations per accumulation block; fixed so sums are ordered
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CombinerSet:
    """L-MMSE combiners for every realization and (UAV, O-RU) pair, tagged
    with the power vector used inside the Gram matrix."""

    v: np.ndarray      # (T, K, L, N)
    power: np.ndarray  # (K,)


@dataclass(frozen=True)
class CpuWeights:
    """CPU fusion weights alpha = A * sqrt(beta), zero for unassociated pairs."""

    alpha: np.ndarray  # (K, L)


def cpu_weights(association: np.ndarray, beta: np.ndarray) -> CpuWeights:
    a = np.asarray(association)
    return CpuWeights(alpha=a * np.sqrt(np.asarray(beta, dtype=float)))


def _abs2(x: np.ndarray) -> np.ndarray:
    return x.real ** 2 + x.imag ** 2


def _solver_layout(x: np.ndarray) -> np.ndarray:
    """(T, K, L, N) -> contiguous (L, N, T, K): per O-RU and antenna, one
    (T, K) block, so the solver's entrywise arithmetic runs over whole arrays.
    The map is its own inverse."""
    return np.ascontiguousarray(x.transpose(2, 3, 0, 1))


def _base_gram(est: EstimationResult, powers: np.ndarray,
               sigma2: float) -> np.ndarray:
    # (L, N, N) error-covariance and noise terms shared by all realizations
    n = est.c_err.shape[-1]
    base = np.einsum("k,klnm->lnm", powers, est.c_err)
    return base + sigma2 * np.eye(n)


def _gram_cholesky(h_hat: np.ndarray, base: np.ndarray,
                   powers: np.ndarray) -> list:
    """Lower Cholesky factor C of G = base + sum_k p_k h_hat_k h_hat_k^H for
    every (l, t) of a solver-layout block h_hat (L, N, t, K). Entry C[i][j]
    (i >= j) is an (L, t) array. base >= sigma^2 I makes G positive definite,
    so every pivot C[j][j]^2 >= sigma^2 and no pivoting is needed."""
    n = h_hat.shape[1]
    weighted = h_hat * powers
    conj = np.conj(h_hat)
    c = [[None] * n for _ in range(n)]
    for j in range(n):
        pivot = (base[:, j, j, None].real
                 + np.einsum("ltk,ltk->lt", weighted[:, j], conj[:, j]).real)
        for m in range(j):
            pivot -= _abs2(c[j][m])
        c[j][j] = np.sqrt(pivot)
        for i in range(j + 1, n):
            g = base[:, i, j, None] + np.einsum("ltk,ltk->lt", weighted[:, i],
                                                conj[:, j])
            for m in range(j):
                g -= c[i][m] * np.conj(c[j][m])
            c[i][j] = g / c[j][j]
    return c


def _lmmse_solve(h_hat: np.ndarray, base: np.ndarray,
                 powers: np.ndarray) -> np.ndarray:
    """v = G^{-1} h_hat for all K right-hand sides of every (l, t), by forward
    and back substitution through the Cholesky factor; Python loops run over
    the N antennas only."""
    n = h_hat.shape[1]
    c = _gram_cholesky(h_hat, base, powers)
    inv = [1.0 / c[i][i][..., None] for i in range(n)]
    v = np.empty_like(h_hat)
    for i in range(n):                      # C y = h_hat
        y = v[:, i]
        y[...] = h_hat[:, i]
        for m in range(i):
            y -= c[i][m][..., None] * v[:, m]
        y *= inv[i]
    for i in reversed(range(n)):            # C^H v = y, in place
        x = v[:, i]
        for m in range(i + 1, n):
            x -= np.conj(c[m][i])[..., None] * v[:, m]
        x *= inv[i]
    return v


def lmmse_combiner(est: EstimationResult, powers, sigma2: float) -> CombinerSet:
    """v_kl = (sum_i p_i (h_hat_il h_hat_il^H + C_err_il) + sigma^2 I)^{-1} h_hat_kl
    for every realization; the Gram matrix is factored once per (O-RU,
    realization) and serves all K right-hand sides."""
    powers = np.asarray(powers, dtype=float)
    if np.any(powers < 0):
        raise ValueError("powers must be non-negative")
    if sigma2 <= 0:
        raise ValueError("sigma2 must be positive for invertibility")
    v = _lmmse_solve(_solver_layout(est.h_hat),
                     _base_gram(est, powers, sigma2), powers)
    powers = np.broadcast_to(powers, (est.h_hat.shape[1],)).copy()
    return CombinerSet(v=_solver_layout(v), power=powers)


@dataclass(frozen=True)
class ChannelMoments:
    """Ensemble averages feeding the SINR coefficients, tagged with the power
    vector the combiners were built for."""

    g1: np.ndarray        # (K, L) complex, E[v_kl^H h_kl]
    g2: np.ndarray        # (K, K, L) real, E[|v_kl^H h_il|^2]
    gn: np.ndarray        # (K, L) real, E[||v_kl||^2]
    n_samples: int
    power: np.ndarray     # (K,)


def _features(x: np.ndarray) -> np.ndarray:
    """Real features (L, N*N, t, K) of a solver-layout block (L, N, t, K):
    |x_a|^2 for every antenna a, then sqrt2 Re and sqrt2 Im of x_a conj(x_b)
    for a < b, so that |v^H h|^2 = f(v) . f(h)."""
    l_num, n, t, k = x.shape
    f = np.empty((l_num, n * n, t, k))
    f[:, :n] = _abs2(x)
    w = _SQRT2 * np.conj(x)
    j = n
    for a in range(n):
        for b in range(a + 1, n):
            z = x[:, a] * w[:, b]
            f[:, j] = z.real
            f[:, j + 1] = z.imag
            j += 2
    return f


def _accumulate(h: np.ndarray, combiners, chunk: int):
    """Moment sums of combiners against the channel ensemble h (T, K, L, N),
    block by block in fixed realization order (identical results regardless
    of caller parallelism). combiners(block) returns v for a realization
    slice in solver layout. The g2 sum is one real GEMM per O-RU and block:
    (K x N^2 t) f(v)^T times (N^2 t x K) f(h)."""
    t_num, k_num, l_num, n = h.shape
    s1 = np.zeros((l_num, k_num), dtype=complex)
    s2 = np.zeros((l_num, k_num, k_num))
    sn = np.zeros((l_num, k_num))
    for t0 in range(0, t_num, chunk):
        block = slice(t0, t0 + chunk)
        hb = _solver_layout(h[block])
        v = combiners(block)
        fv = _features(v)
        s1 += np.einsum("lntk,lntk->lk", np.conj(v), hb)
        sn += fv[:, :n].sum(axis=(1, 2))
        s2 += np.matmul(fv.reshape(l_num, -1, k_num).swapaxes(1, 2),
                        _features(hb).reshape(l_num, -1, k_num))
    return (np.ascontiguousarray(s1.T) / t_num,
            np.ascontiguousarray(s2.transpose(1, 2, 0)) / t_num,
            np.ascontiguousarray(sn.T) / t_num)


def channel_moments(h: np.ndarray, est: EstimationResult, powers,
                    sigma2: float, chunk: int = _CHUNK) -> ChannelMoments:
    """L-MMSE combiner moments for one power vector: the combiners are solved
    block by block and reduced as they come, never held for all T."""
    powers = np.asarray(powers, dtype=float)
    base = _base_gram(est, powers, sigma2)
    g1, g2, gn = _accumulate(
        h, lambda block: _lmmse_solve(_solver_layout(est.h_hat[block]), base,
                                      powers), chunk)
    return ChannelMoments(g1=g1, g2=g2, gn=gn, n_samples=h.shape[0],
                          power=powers.copy())


def moments_from_combiners(h: np.ndarray, combiners: CombinerSet,
                           chunk: int = _CHUNK) -> ChannelMoments:
    """Same reduction as channel_moments but for externally supplied combiners."""
    g1, g2, gn = _accumulate(
        h, lambda block: _solver_layout(combiners.v[block]), chunk)
    return ChannelMoments(g1=g1, g2=g2, gn=gn, n_samples=h.shape[0],
                          power=np.asarray(combiners.power, dtype=float).copy())


@dataclass(frozen=True)
class SinrCoefficients:
    """Reduced SINR representation; b has a zero diagonal. clamp_count says
    how many per-link variance estimates were clipped at zero."""

    a: np.ndarray             # (K,)
    d: np.ndarray             # (K,)
    b: np.ndarray             # (K, K)
    c: np.ndarray             # (K,)
    clamp_count: int
    built_at_power: np.ndarray

    @property
    def num_uavs(self) -> int:
        return self.a.shape[0]


def assemble_coefficients(moments: ChannelMoments, weights: CpuWeights,
                          sigma2: float) -> SinrCoefficients:
    """Gate and fuse the moments with the CPU weights. Association enters only
    through the zeros of alpha, so rows with extra zero columns are free."""
    alpha = weights.alpha
    alpha2 = alpha ** 2
    a = _abs2(np.einsum("kl,kl->k", alpha, moments.g1))
    var = np.einsum("kkl->kl", moments.g2) - _abs2(moments.g1)
    clamp_count = int(np.count_nonzero(var < 0))
    var = np.clip(var, 0.0, None)
    d = np.einsum("kl,kl->k", alpha2, var)
    b = np.einsum("kl,kil->ki", alpha2, moments.g2)
    np.fill_diagonal(b, 0.0)
    c = sigma2 * np.einsum("kl,kl->k", alpha2, moments.gn)
    return SinrCoefficients(a=a, d=d, b=b, c=c, clamp_count=clamp_count,
                            built_at_power=moments.power.copy())


def estimate_sinr_coefficients(h: np.ndarray, est: EstimationResult,
                               combiners: CombinerSet, association: np.ndarray,
                               weights: CpuWeights,
                               sigma2: float) -> SinrCoefficients:
    """Full reduction from an ensemble of (channel, estimate, combiner) draws
    to the coefficient form, gated by the association matrix."""
    if est.h_hat.shape != h.shape or combiners.v.shape != h.shape:
        raise ValueError("ensemble shapes do not match")
    if np.any((np.asarray(association) > 0) != (weights.alpha > 0)):
        raise ValueError("weights do not match the association matrix")
    moments = moments_from_combiners(h, combiners)
    return assemble_coefficients(moments, weights, sigma2)


def sinr(coef: SinrCoefficients, p) -> np.ndarray:
    """Gamma_k(p) for a power vector inside the box; unserved UAVs get 0."""
    p = np.asarray(p, dtype=float)
    num = p * coef.a
    den = p * coef.d + coef.b @ p + coef.c
    out = np.zeros_like(num)
    ok = (num > 0) & (den > 0)
    out[ok] = num[ok] / den[ok]
    return out


@dataclass(frozen=True)
class SeVector:
    """Per-UAV spectral efficiency (bit/s/Hz) and the SINRs behind it."""

    se: np.ndarray
    sinr: np.ndarray


def spectral_efficiency(sinr_values, tau_p: int, tau_c: int) -> SeVector:
    """Pilot-overhead-scaled SE: (1 - tau_p/tau_c) * log2(1 + Gamma)."""
    g = np.asarray(sinr_values, dtype=float)
    if np.any(g < 0):
        raise ValueError("SINR must be non-negative")
    prelog = 1.0 - tau_p / tau_c
    if not 0.0 < prelog < 1.0:
        raise ValueError("tau_p must be in (0, tau_c)")
    return SeVector(se=prelog * np.log2(1.0 + g), sinr=g)
