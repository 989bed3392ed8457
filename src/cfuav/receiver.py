"""Per-O-RU L-MMSE combining, CPU combining weights, and the Monte Carlo
reduction of the uplink SINR into per-UAV coefficients.

channel_moments is the one receiver pipeline: it factors the Gram matrix of
every (O-RU, realization) once per power vector and returns a ChannelMoments
object that solves and reduces the L-MMSE combiners of a (k, l) pair only
when asked (ChannelMoments.fill), never holding the (T, K, L, N) combiner
tensor. That one flat object per power vector holds the memo (g1, g2, gn
and the filled mask) beside what a fill reads: h, h_hat, the trial's f(h)
and the factor entries. assemble_coefficients fuses the moments with the
CPU weights and asks only for the served pairs (alpha_kl != 0): each UAV is
served by a few O-RUs and each O-RU by at most tau_p UAVs, so most pairs
are never computed.

For a power vector p the SINR of UAV k is the rational form

    Gamma_k(p) = p_k a_k / (p_k d_k + sum_{i != k} b_ki p_i + c_k)

where a (coherent signal gain), d (beamforming uncertainty), b (cross
interference) and c (noise) come from ensemble averages of combiner/channel
inner products. The coefficients are frozen at the power vector used to build
the combiners; the power solvers treat them as constants.

The trial's h and h_hat are stored in the solver layout (L, N, T, K) from
the draw on (see propagation.solver_layout). Per (l, t) the Gram matrix
G = sum_k p_k (h_hat_k h_hat_k^H + C_err_k) + sigma^2 I is Hermitian positive
definite, and is factored as G = C C^H by a Cholesky factorization written
entrywise over (L, T) arrays, looping in Python over the N antennas only. A
fill lists its P new (k, l) pairs by O-RU, then by UAV, gathers their rows
of h_hat and h into (N, P, T) arrays, and forward and back substitution
give their combiners v, all T realizations in one pass. The
second moment uses the real feature map f(x) in R^(N^2) made of |x_a|^2 and
sqrt2 Re / sqrt2 Im of x_a conj(x_b) for a < b, for which
|v^H h|^2 = f(v) . f(h). The sum of E[|v_kl^H h_il|^2] is thus one real GEMM
per O-RU over its run of P_l pairs, (P_l x N^2 T) by (N^2 T x K), and the
cross-term tensor is never formed. f(h) depends on the trial only: the
trial's full-power channel_moments call builds it, and the calls at other
powers get that array as their features argument. Filled pairs are
memoized: a pair keeps its bits for the life of the object, whatever is
filled after it.

f(h), the factor and every fill run over blocks of whole O-RUs
(propagation.oru_blocks), so their temporaries take at most
propagation.BLOCK_BYTES at a time: a trial's working set is the arrays it
keeps plus one block. The block size moves no value by more than rounding."""

import math
from dataclasses import dataclass

import numpy as np

from .pilots import EstimationResult
from .propagation import oru_blocks, solver_layout

_SQRT2 = math.sqrt(2.0)


def cpu_weights(association: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """CPU fusion weights alpha (K, L) = A * sqrt(beta), zero for
    unassociated pairs."""
    a = np.asarray(association)
    return a * np.sqrt(np.asarray(beta, dtype=float))


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
    every (l, t) of a solver-layout ensemble h_hat (L, N, T, K). Row i holds
    the entries C[i][j], j <= i, each an (L, T) array; C[i][i] is real. The
    entries are allocated whole and filled one block of O-RUs at a time
    (oru_blocks), so the (block, T, K) temporaries of the sums over k, which
    are matrix-vector products with p, do not grow with L. base >= sigma^2 I
    makes G positive definite, so every pivot C[j][j]^2 >= sigma^2 and no
    pivoting is needed."""
    l_num, n, t_num, _ = h_hat.shape
    powers_c = powers + 0j
    c = [[np.empty((l_num, t_num), dtype=float if i == j else complex)
          for j in range(i + 1)] for i in range(n)]
    for sl in oru_blocks(l_num, h_hat[0].nbytes):
        hb = h_hat[sl]
        cb = [[x[sl] for x in row] for row in c]
        for j in range(n):
            pivot = base[sl, j, j, None].real + _abs2(hb[:, j]) @ powers
            for m in range(j):
                pivot -= _abs2(cb[j][m])
            np.sqrt(pivot, out=cb[j][j])
            conj = np.conj(hb[:, j])
            for i in range(j + 1, n):
                g = base[sl, i, j, None] + (hb[:, i] * conj) @ powers_c
                for m in range(j):
                    g -= cb[i][m] * np.conj(cb[j][m])
                np.divide(g, cb[j][j], out=cb[i][j])
    return c


def _substitute(c: list, v: np.ndarray) -> np.ndarray:
    """Overwrite v (N, P, T) with G^{-1} v for every pair p and realization
    t, by forward and back substitution through the Cholesky factor c of
    each pair's Gram matrices (entries (P, T), the O-RU rows of the (L, T)
    entries _gram_cholesky returns). Python loops run over the N antennas
    only; each entrywise pass is one contiguous (P, T) array against a
    (P, T) factor entry. Any v whose trailing axes broadcast against the
    entries is solved the same way."""
    n = v.shape[0]
    # complex with a zero imaginary part: the same products as the real
    # reciprocal, without a mixed-type ufunc loop
    inv = [1.0 / c[i][i] + 0j for i in range(n)]
    for i in range(n):                      # C y = v
        y = v[i]
        for m in range(i):
            y -= c[i][m] * v[m]
        y *= inv[i]
    for i in reversed(range(n)):            # C^H x = y
        x = v[i]
        for m in range(i + 1, n):
            x -= np.conj(c[m][i]) * v[m]
        x *= inv[i]
    return v


def _features(x: np.ndarray, axis: int = 0, out: np.ndarray = None
              ) -> np.ndarray:
    """Real features of x along its antenna axis, which grows from N to N*N:
    |x_a|^2 for every antenna a, then sqrt2 Re and sqrt2 Im of x_a conj(x_b)
    for a < b, so that |v^H h|^2 = f(v) . f(h). Written into out when given."""
    n = x.shape[axis]
    f = np.empty(x.shape[:axis] + (n * n,) + x.shape[axis + 1:]) \
        if out is None else out
    fa, xa = f.swapaxes(0, axis), x.swapaxes(0, axis)
    np.square(xa.real, out=fa[:n])
    fa[:n] += np.square(xa.imag)
    j = n
    for a in range(n):
        for b in range(a + 1, n):
            z = xa[a] * np.conj(xa[b])
            np.multiply(z.real, _SQRT2, out=fa[j])
            np.multiply(z.imag, _SQRT2, out=fa[j + 1])
            j += 2
    return f


def _channel_features(h: np.ndarray) -> np.ndarray:
    """f(h) of a trial's solver-layout ensemble h (L, N, T, K), laid out
    (L, N^2 T, K) as the g2 GEMM of every fill reads it. It depends on the
    trial only, so each trial builds it once: L N^2 T K 8 bytes (3.2 MB at
    desk scale with K = 20, 128 MB at the paper default), written one block
    of O-RUs at a time (oru_blocks)."""
    l_num, n, t_num, k_num = h.shape
    f = np.empty((l_num, n * n, t_num, k_num))
    for sl in oru_blocks(l_num, h[0].nbytes):
        _features(h[sl], 1, out=f[sl])
    return f.reshape(l_num, n * n * t_num, k_num)


@dataclass(eq=False)
class ChannelMoments:
    """Ensemble averages feeding the SINR coefficients of one power vector,
    and what a fill reads to compute them: the solver layouts (L, N, T, K)
    of h and h_hat, the trial's f(h) (L, N^2 T, K), and the Cholesky factor
    c of every (l, t) Gram matrix at that power, entry c[i][m] (m <= i) an
    (L, T) array. Only the filled (k, l) pairs hold values; the others read
    0. channel_moments returns it with no pair filled, and fill computes the
    pairs a caller needs."""

    g1: np.ndarray        # (K, L) complex, E[v_kl^H h_kl]
    g2: np.ndarray        # (K, K, L) real, E[|v_kl^H h_il|^2]
    gn: np.ndarray        # (K, L) real, E[||v_kl||^2]
    filled: np.ndarray    # (K, L) bool
    h: np.ndarray
    h_hat: np.ndarray
    features: np.ndarray
    c: list

    def fill(self, mask) -> None:
        """Compute and memoize the moments of every (k, l) pair where mask is
        true. Filled pairs keep their values, so a pair reads the same bits
        for the life of the object. Only the new pairs are reduced, listed
        by O-RU, then by UAV."""
        ls, ks = np.nonzero((np.asarray(mask, dtype=bool) & ~self.filled).T)
        if ls.size == 0:
            return
        s1, s2, sn = self._reduce(ks, ls)
        t_num = self.h.shape[2]
        self.g1[ks, ls] = s1 / t_num
        self.g2[ks, :, ls] = s2 / t_num
        self.gn[ks, ls] = sn / t_num
        self.filled[ks, ls] = True

    def _reduce(self, ks: np.ndarray, ls: np.ndarray) -> tuple:
        """Sums over all T realizations for the combiner of UAV ks[p] at
        O-RU ls[p], the P pairs sorted by O-RU: s1 (P,) of v^H h, s2 (P, K)
        of |v^H h_i|^2 for every UAV i, and sn (P,) of ||v||^2, in one pass.
        The pairs run in blocks of whole O-RUs (oru_blocks), sized by each
        pair's rows of h, h_hat, the factor and f(v). A block's rows of h
        and h_hat are gathered as (N, P_b, T) arrays, and its g2 sum is one
        real GEMM per O-RU over its run of P_l pairs, (P_l x N^2 T) f(v)
        times the trial's (N^2 T x K) f(h)."""
        _, n, t_num, k_num = self.h.shape
        s1 = np.empty(ls.size, dtype=complex)
        s2 = np.empty((ls.size, k_num))
        sn = np.empty(ls.size)
        orus, starts = np.unique(ls, return_index=True)
        orus, bounds = orus.tolist(), [*starts.tolist(), ls.size]
        per_pair = t_num * (16 * (2 * n + n * (n + 1) // 2) + 8 * n * n)
        for blk in oru_blocks(len(orus), [(b - a) * per_pair for a, b
                                          in zip(bounds, bounds[1:])]):
            run = slice(bounds[blk.start], bounds[blk.stop])
            ks_b, ls_b = ks[run], ls[run]
            # x[pick][i, p] is x[ls_b[p], i, :, ks_b[p]], shape (N, P_b, T)
            pick = (ls_b, np.arange(n)[:, None], slice(None), ks_b)
            v = _substitute([[x[ls_b] for x in row] for row in self.c],
                            self.h_hat[pick])
            s1[run] = np.einsum("npt,npt->p", np.conj(v), self.h[pick])
            fv = _features(v)
            sn[run] = fv[:n].sum(axis=(0, 2))
            fv = np.ascontiguousarray(fv.transpose(1, 0, 2)).reshape(
                ls_b.size, -1)
            for l, a, b in zip(orus[blk], bounds[blk],
                               bounds[blk.start + 1:blk.stop + 1]):
                np.matmul(fv[a - run.start:b - run.start], self.features[l],
                          out=s2[a:b])
        return s1, s2, sn


def channel_moments(h: np.ndarray, est: EstimationResult, powers,
                    sigma2: float, features: np.ndarray = None
                    ) -> ChannelMoments:
    """L-MMSE combiner moments of the ensemble h (T, K, L, N) for one power
    vector, with no pair filled yet. The Gram matrix of every (l, t) is
    factored here, once, over all T in one pass over the solver layout of
    h_hat; ChannelMoments.fill then solves and reduces only the (k, l) pairs
    it is asked for. features is the trial's f(h) as an earlier call on the
    same h built it (ChannelMoments.features); without it f(h) is built
    here. Every fill runs in fixed realization order, so its sums do not
    depend on caller parallelism."""
    powers = np.asarray(powers, dtype=float)
    _, k_num, l_num, _ = h.shape
    h = solver_layout(h)
    h_hat = solver_layout(est.h_hat)
    if features is None:
        features = _channel_features(h)
    # factor first: the memo is not yet live beside the factor's temporaries
    c = _gram_cholesky(h_hat, _base_gram(est, powers, sigma2), powers)
    return ChannelMoments(
        g1=np.zeros((k_num, l_num), dtype=complex),
        g2=np.zeros((k_num, k_num, l_num)), gn=np.zeros((k_num, l_num)),
        filled=np.zeros((k_num, l_num), dtype=bool), h=h, h_hat=h_hat,
        features=features, c=c)


@dataclass(frozen=True)
class SinrCoefficients:
    """Reduced SINR representation; b has a zero diagonal. clamp_count says
    how many per-link variance estimates of served pairs (alpha != 0) were
    clipped at zero; an unserved pair never reaches a coefficient."""

    a: np.ndarray             # (K,)
    d: np.ndarray             # (K,)
    b: np.ndarray             # (K, K)
    c: np.ndarray             # (K,)
    clamp_count: int

    @property
    def num_uavs(self) -> int:
        return self.a.shape[0]


def assemble_coefficients(moments: ChannelMoments, alpha: np.ndarray,
                          sigma2: float) -> SinrCoefficients:
    """Gate and fuse the moments with the CPU weights alpha (K, L), as
    cpu_weights builds them. Association enters only through the zeros of
    alpha: the moments of the served pairs (alpha != 0) are filled on demand,
    and the unserved ones are never read."""
    served = alpha != 0
    moments.fill(served)
    alpha2 = alpha ** 2
    a = _abs2(np.einsum("kl,kl->k", alpha, moments.g1))
    var = np.einsum("kkl->kl", moments.g2) - _abs2(moments.g1)
    clamp_count = int(np.count_nonzero((var < 0) & served))
    var = np.clip(var, 0.0, None)
    d = np.einsum("kl,kl->k", alpha2, var)
    b = np.einsum("kl,kil->ki", alpha2, moments.g2)
    np.fill_diagonal(b, 0.0)
    c = sigma2 * np.einsum("kl,kl->k", alpha2, moments.gn)
    return SinrCoefficients(a=a, d=d, b=b, c=c, clamp_count=clamp_count)


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
