"""Per-O-RU L-MMSE combining, CPU combining weights, and the Monte Carlo
reduction of the uplink SINR into per-UAV coefficients.

channel_moments is the one receiver pipeline: it solves and reduces the
L-MMSE combiners block by block, never holding the (T, K, L, N) combiner
tensor, and assemble_coefficients fuses the moments with the CPU weights.

For a power vector p the SINR of UAV k is the rational form

    Gamma_k(p) = p_k a_k / (p_k d_k + sum_{i != k} b_ki p_i + c_k)

where a (coherent signal gain), d (beamforming uncertainty), b (cross
interference) and c (noise) come from ensemble averages of combiner/channel
inner products. The coefficients are frozen at the power vector used to build
the combiners; the power solvers treat them as constants.

The moment reduction works on blocks of realizations in the solver layout
(L, N, T, K), where every (O-RU, antenna) pair holds a contiguous (T, K)
array. The trial's h and h_hat are stored that way from the draw on (see
propagation.solver_layout), so a block is the slice [:, :, t0:t1] of that
storage and no call copies either ensemble; an input in another layout is
copied once per call. Per (l, t) the Gram
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
from .propagation import solver_layout

_CHUNK = 32  # realizations per accumulation block; fixed so sums are ordered
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class CpuWeights:
    """CPU fusion weights alpha = A * sqrt(beta), zero for unassociated pairs."""

    alpha: np.ndarray  # (K, L)


def cpu_weights(association: np.ndarray, beta: np.ndarray) -> CpuWeights:
    a = np.asarray(association)
    return CpuWeights(alpha=a * np.sqrt(np.asarray(beta, dtype=float)))


def _abs2(x: np.ndarray) -> np.ndarray:
    return x.real ** 2 + x.imag ** 2


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


def channel_moments(h: np.ndarray, est: EstimationResult, powers,
                    sigma2: float, chunk: int = _CHUNK) -> ChannelMoments:
    """L-MMSE combiner moments of the ensemble h (T, K, L, N) for one power
    vector. The combiners are solved block by block and reduced as they
    come, never held for all T. Blocks run in fixed realization order, so
    the sums do not depend on caller parallelism. A block is the slice
    [:, :, t0:t0 + chunk] of the solver layouts of h and h_hat; its g2 sum
    is one real GEMM per O-RU, (K x N^2 t) f(v)^T times (N^2 t x K) f(h)."""
    powers = np.asarray(powers, dtype=float)
    base = _base_gram(est, powers, sigma2)
    t_num, k_num, l_num, n = h.shape
    hs = solver_layout(h)
    h_hat = solver_layout(est.h_hat)
    s1 = np.zeros((l_num, k_num), dtype=complex)
    s2 = np.zeros((l_num, k_num, k_num))
    sn = np.zeros((l_num, k_num))
    for t0 in range(0, t_num, chunk):
        block = slice(t0, t0 + chunk)
        hb = hs[:, :, block]
        v = _lmmse_solve(h_hat[:, :, block], base, powers)
        fv = _features(v)
        s1 += np.einsum("lntk,lntk->lk", np.conj(v), hb)
        sn += fv[:, :n].sum(axis=(1, 2))
        s2 += np.matmul(fv.reshape(l_num, -1, k_num).swapaxes(1, 2),
                        _features(hb).reshape(l_num, -1, k_num))
    g1 = np.ascontiguousarray(s1.T) / t_num
    g2 = np.ascontiguousarray(s2.transpose(1, 2, 0)) / t_num
    gn = np.ascontiguousarray(sn.T) / t_num
    return ChannelMoments(g1=g1, g2=g2, gn=gn, n_samples=t_num,
                          power=powers.copy())


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


def sinr(coef: SinrCoefficients, p) -> np.ndarray:
    """Gamma_k(p) for a power vector inside the box; unserved UAVs get 0."""
    p = np.asarray(p, dtype=float)
    num = p * coef.a
    den = coef.b @ p          # same sums as p d + B p + c: + commutes
    den += p * coef.d
    den += coef.c
    out = np.zeros(num.shape)
    np.divide(num, den, out=out, where=(num > 0) & (den > 0))
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
