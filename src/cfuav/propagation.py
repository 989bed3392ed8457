"""Aerial channel model: link geometry, UMa-AV path loss and LoS probability
(TR 36.777 closed forms), spatially correlated Rician statistics, and sampling
of small-scale realizations.

Every per-link quantity is held as a K x L array (UAV index first)."""

import math
from dataclasses import dataclass

import numpy as np

from .scenario import (UMA_AV_MAX_HEIGHT, UMA_AV_MIN_HEIGHT, ExperimentConfig,
                       Topology)


@dataclass(frozen=True)
class LinkGeometry:
    """Geometry of every UAV to O-RU link."""

    d_2d: np.ndarray          # (K, L) horizontal distance, m
    d_3d: np.ndarray          # (K, L) slant distance, m
    elevation: np.ndarray     # (K, L) rad, positive when the UAV is above
    azimuth: np.ndarray       # (K, L) rad, O-RU to UAV bearing
    uav_height: np.ndarray    # (K,) m
    oru_height: np.ndarray    # (L,) m


def link_geometry(topology: Topology) -> LinkGeometry:
    """Distances and angles for all K x L links; co-located pairs are degenerate."""
    uav = topology.uav_positions
    oru = topology.oru_positions
    delta = uav[:, None, :2] - oru[None, :, :2]
    d_2d = np.hypot(delta[..., 0], delta[..., 1])
    dh = uav[:, None, 2] - oru[None, :, 2]
    d_3d = np.sqrt(d_2d ** 2 + dh ** 2)
    if np.any(d_3d <= 0.0):
        raise ValueError("UAV and O-RU are co-located (d_3d = 0)")
    elevation = np.arcsin(dh / d_3d)
    azimuth = np.arctan2(delta[..., 1], delta[..., 0])
    return LinkGeometry(d_2d=d_2d, d_3d=d_3d, elevation=elevation,
                        azimuth=azimuth, uav_height=uav[:, 2],
                        oru_height=oru[:, 2])


def _check_height_band(h):
    if np.any(h <= UMA_AV_MIN_HEIGHT) or np.any(h > UMA_AV_MAX_HEIGHT):
        raise ValueError(
            f"UAV height outside UMa-AV band ({UMA_AV_MIN_HEIGHT}, {UMA_AV_MAX_HEIGHT}] m")


def los_probability(geom: LinkGeometry) -> np.ndarray:
    """Height-dependent LoS probability. Above 100 m the link is always LoS;
    below, probability decays with horizontal distance."""
    h = np.asarray(geom.uav_height, dtype=float)
    _check_height_band(h)
    d_2d = np.asarray(geom.d_2d, dtype=float)
    h2 = np.broadcast_to(h[:, None], d_2d.shape)
    log_h = np.log10(h2)
    d1 = np.maximum(460.0 * log_h - 700.0, 18.0)
    p1 = 4300.0 * log_h - 3800.0
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(d_2d > 0, d1 / np.maximum(d_2d, 1e-300), 1.0)
        far = ratio + np.exp(-d_2d / p1) * (1.0 - ratio)
    prob = np.where(d_2d <= d1, 1.0, far)
    prob = np.where(h2 > 100.0, 1.0, prob)
    return np.clip(prob, 0.0, 1.0)


def sample_los_state(prob, stream: np.random.Generator) -> np.ndarray:
    """Bernoulli LoS draw per link."""
    prob = np.asarray(prob, dtype=float)
    return stream.random(prob.shape) < prob


def path_loss_db(geom: LinkGeometry, is_los, f_c_ghz: float) -> np.ndarray:
    """UMa-AV path loss in dB for the given LoS states."""
    d_3d = np.asarray(geom.d_3d, dtype=float)
    if np.any(d_3d <= 0.0):
        raise ValueError("path loss needs d_3d > 0")
    h = np.asarray(geom.uav_height, dtype=float)
    _check_height_band(h)
    h2 = np.broadcast_to(h[:, None], d_3d.shape)
    log_d = np.log10(d_3d)
    pl_los = 28.0 + 22.0 * log_d + 20.0 * math.log10(f_c_ghz)
    pl_nlos = (-17.5 + (46.0 - 7.0 * np.log10(h2)) * log_d
               + 20.0 * math.log10(40.0 * math.pi * f_c_ghz / 3.0))
    return np.where(is_los, pl_los, pl_nlos)


@dataclass(frozen=True)
class LargeScaleLink:
    """Per-link large-scale state: LoS flag, path loss, shadowing, linear gain
    beta and Rician K-factor (linear, 0 for NLoS)."""

    is_los: np.ndarray
    path_loss_db: np.ndarray
    shadow_db: np.ndarray
    beta: np.ndarray
    rician_k_linear: np.ndarray


def large_scale(geom: LinkGeometry, is_los, config: ExperimentConfig,
                shadow_stream: np.random.Generator,
                rician_stream: np.random.Generator) -> LargeScaleLink:
    """Draw shadowing and Rician K-factors, combine with path loss into beta.

    Shadowing is log-normal with the LoS/NLoS sigma from the config; the
    K-factor is uniform in dB over the configured range for LoS links and 0
    (pure scattering) for NLoS links."""
    is_los = np.asarray(is_los, dtype=bool)
    pl = path_loss_db(geom, is_los, config.carrier_freq_ghz)
    sigma = np.where(is_los, config.shadow_sigma_los_db, config.shadow_sigma_nlos_db)
    shadow = shadow_stream.standard_normal(pl.shape) * sigma
    k_lo, k_hi = config.rician_k_range_db
    k_db = rician_stream.uniform(k_lo, k_hi, size=pl.shape)
    k_linear = np.where(is_los, 10.0 ** (k_db / 10.0), 0.0)
    beta = 10.0 ** (-(pl + shadow) / 10.0)
    return LargeScaleLink(is_los=is_los, path_loss_db=pl, shadow_db=shadow,
                          beta=beta, rician_k_linear=k_linear)


def _direction_cosine(geom: LinkGeometry, azimuth_offset_deg: float) -> np.ndarray:
    # effective angle seen by a horizontal half-wavelength ULA with a global
    # boresight offset
    off = math.radians(azimuth_offset_deg)
    return np.sin(geom.elevation) * np.cos(geom.azimuth - off)


def steering_vector(geom: LinkGeometry, n_antennas: int,
                    azimuth_offset_deg: float = 0.0) -> np.ndarray:
    """ULA array response per link, (K, L, N). Unit-modulus entries, so the
    squared norm is exactly N."""
    if n_antennas < 1:
        raise ValueError("n_antennas must be >= 1")
    omega = _direction_cosine(geom, azimuth_offset_deg)
    n = np.arange(n_antennas)
    return np.exp(1j * math.pi * omega[..., None] * n)


def draw_angular_spread(config: ExperimentConfig,
                        stream: np.random.Generator, shape) -> np.ndarray:
    """Per-link azimuth spread in degrees: triangular over the configured
    range with the configured central value as mode."""
    lo, hi = config.angular_spread_deg_range
    return stream.triangular(lo, config.angular_spread_deg_mean, hi, size=shape)


def spatial_correlation(geom: LinkGeometry, angular_spread_deg, n_antennas: int,
                        azimuth_offset_deg: float = 0.0) -> np.ndarray:
    """Gaussian local-scattering correlation matrices, (K, L, N, N).

    Entry (m, n) is exp(j*pi*(m-n)*sin(phi)) damped by a Gaussian in the
    antenna offset; the nominal angle phi is the link's geometric direction.
    Trace-normalized to N, Hermitian PSD by construction."""
    spread = np.asarray(angular_spread_deg, dtype=float)
    if np.any(spread <= 0):
        raise ValueError("angular spread must be positive")
    omega = _direction_cosine(geom, azimuth_offset_deg)
    cos_phi = np.sqrt(np.clip(1.0 - omega ** 2, 0.0, 1.0))
    sigma_phi = np.deg2rad(spread)
    idx = np.arange(n_antennas)
    diff = idx[:, None] - idx[None, :]
    phase = np.exp(1j * math.pi * diff * omega[..., None, None])
    damp = np.exp(-0.5 * (math.pi * diff
                          * (sigma_phi * cos_phi)[..., None, None]) ** 2)
    corr = phase * damp
    corr = 0.5 * (corr + np.conj(corr).swapaxes(-1, -2))
    trace = np.real(np.einsum("...nn->...", corr))
    return corr * (n_antennas / trace)[..., None, None]


@dataclass(frozen=True)
class ChannelStats:
    """Mean-plus-deviation channel statistics per link.

    h = h_bar + h_tilde with h_tilde ~ CN(0, scatter_cov); the LoS mean is
    h_bar = sqrt(beta*kappa/(kappa+1)) * steering, and the scattering
    covariance is scatter_cov = beta/(kappa+1) * corr."""

    mean_vec: np.ndarray      # (K, L, N)
    scatter_cov: np.ndarray   # (K, L, N, N)
    corr: np.ndarray          # (K, L, N, N), trace N
    los_steering: np.ndarray  # (K, L, N), squared norm N


def channel_stats(ls: LargeScaleLink, a_los: np.ndarray,
                  corr: np.ndarray) -> ChannelStats:
    """Split the per-link power beta*N into LoS mean and scattering covariance
    according to the Rician factor."""
    kappa = ls.rician_k_linear
    beta = ls.beta
    mean_scale = np.sqrt(beta * kappa / (kappa + 1.0))
    mean_vec = mean_scale[..., None] * a_los
    cov_scale = beta / (kappa + 1.0)
    scatter_cov = cov_scale[..., None, None] * corr
    return ChannelStats(mean_vec=mean_vec, scatter_cov=scatter_cov,
                        corr=corr, los_steering=a_los)


def covariance_sqrt(cov: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """Hermitian square root of a stack of PSD matrices; rejects matrices with
    eigenvalues below -tol (relative to the largest)."""
    w, u = np.linalg.eigh(cov)
    scale = np.maximum(np.max(w, axis=-1, keepdims=True), 1e-300)
    if np.any(w < -tol * scale):
        raise ValueError("covariance matrix is not positive semidefinite")
    s = np.sqrt(np.clip(w, 0.0, None))
    return np.einsum("...im,...m,...jm->...ij", u, s, np.conj(u))


def draw_channels(stats: ChannelStats, n_realizations: int,
                  stream: np.random.Generator) -> np.ndarray:
    """Sample the channel ensemble, shape (T, K, L, N):
    h = h_bar + scatter_cov^(1/2) z with z standard complex Gaussian."""
    if n_realizations < 1:
        raise ValueError("n_realizations must be >= 1")
    sqrt_cov = covariance_sqrt(stats.scatter_cov)
    k, l, n = stats.mean_vec.shape
    z = stream.standard_normal((2, n_realizations, k, l, n))
    z = (z[0] + 1j * z[1]) / math.sqrt(2.0)
    scat = np.einsum("klij,tklj->tkli", sqrt_cov, z)
    return stats.mean_vec[None, ...] + scat
