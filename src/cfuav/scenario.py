"""Experiment configuration, deterministic random streams, and topology generation."""

import math
import re
from dataclasses import dataclass, fields, replace

import numpy as np

# UMa-AV formulas are specified for UAV heights in this band (meters).
UMA_AV_MIN_HEIGHT = 22.5
UMA_AV_MAX_HEIGHT = 300.0

# One independent random stream per (trial, purpose) pair.
STREAM_PURPOSES = (
    "topology",
    "shadowing",
    "los-state",
    "scattering",
    "pilot-noise",
    "pilot-assignment",
    "rician-k",
    "angular-spread",
)


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs of one experiment. Defaults follow the standard urban-macro
    aerial setup: 1 km^2 coverage, 100 four-antenna O-RUs at 2.6 GHz, UAVs
    between 50 and 150 m altitude."""

    area_side_m: float = 1000.0
    num_orus: int = 100
    antennas_per_oru: int = 4
    num_uavs: int = 50
    uav_alt_range: tuple = (50.0, 150.0)
    oru_height_m: float = 25.0
    carrier_freq_ghz: float = 2.6
    coherence_len: int = 200
    pilot_len: int = 10
    rician_k_range_db: tuple = (0.0, 20.0)
    shadow_sigma_los_db: float = 4.0
    shadow_sigma_nlos_db: float = 6.0
    angular_spread_deg_range: tuple = (5.0, 15.0)
    angular_spread_deg_mean: float = 8.0
    p_max_dbm: float = 23.0
    noise_psd_dbm_hz: float = -174.0
    noise_figure_db: float = 9.0
    bandwidth_hz: float = 20e6
    se_min: float = 1.0
    n_top: int = 3
    eps_ao: float = 1e-3
    i_max_ao: int = 15
    eps_bisect: float = 1e-4
    eps_fp: float = 1e-3
    n_max_fp: int = 20
    n_channel_realizations: int = 200
    trials: int = 500
    master_seed: int = 1

    def __post_init__(self):
        for name in _FLOAT_FIELDS + _TUPLE_FIELDS:
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite")
        if self.master_seed < 0:
            raise ValueError("master_seed must be non-negative")
        for name in ("num_orus", "antennas_per_oru", "num_uavs", "coherence_len",
                     "pilot_len", "n_top", "i_max_ao", "n_max_fp",
                     "n_channel_realizations", "trials"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive count")
        if self.pilot_len >= self.coherence_len:
            raise ValueError("pilot_len must be smaller than coherence_len")
        # each O-RU serves at most tau_p UAVs, so no association exists for
        # more than L * tau_p of them
        capacity = self.num_orus * self.pilot_len
        if self.num_uavs > capacity:
            raise ValueError(
                f"num_uavs = {self.num_uavs} exceeds num_orus * pilot_len = "
                f"{self.num_orus} * {self.pilot_len} = {capacity}")
        lo, hi = self.uav_alt_range
        if not (UMA_AV_MIN_HEIGHT < lo <= hi <= UMA_AV_MAX_HEIGHT):
            raise ValueError(
                "uav_alt_range must lie within the UMa-AV band "
                f"({UMA_AV_MIN_HEIGHT}, {UMA_AV_MAX_HEIGHT}] m")
        for name in ("area_side_m", "oru_height_m", "carrier_freq_ghz",
                     "bandwidth_hz", "eps_ao", "eps_bisect", "eps_fp"):
            if not getattr(self, name) > 0:
                raise ValueError(f"{name} must be positive")
        if not self.se_min >= 0:
            raise ValueError("se_min must be non-negative")
        lo, hi = self.rician_k_range_db
        if not lo <= hi:
            raise ValueError("rician_k_range_db must be (low, high) with "
                             "low <= high")
        lo, hi = self.angular_spread_deg_range
        if not (0 <= lo <= self.angular_spread_deg_mean <= hi and lo < hi):
            raise ValueError(
                "angular spread needs 0 <= low <= angular_spread_deg_mean "
                "<= high with low < high")

    @property
    def p_max_w(self) -> float:
        return 10 ** ((self.p_max_dbm - 30.0) / 10.0)

    @property
    def pilot_power_w(self) -> float:
        # pilots go out at full power
        return self.p_max_w

    @property
    def noise_power_w(self) -> float:
        sigma2_dbm = (self.noise_psd_dbm_hz
                      + 10.0 * math.log10(self.bandwidth_hz)
                      + self.noise_figure_db)
        return 10 ** ((sigma2_dbm - 30.0) / 10.0)

    @property
    def prelog(self) -> float:
        return 1.0 - self.pilot_len / self.coherence_len

    @property
    def qos_sinr_floor(self) -> float:
        """SINR a UAV needs so that its spectral efficiency reaches se_min."""
        return 2.0 ** (self.se_min / self.prelog) - 1.0


def _fields_of_type(t: type) -> tuple:
    return tuple(f.name for f in fields(ExperimentConfig)
                 if f.type in (t.__name__, t))


_INT_FIELDS = _fields_of_type(int)
_FLOAT_FIELDS = _fields_of_type(float)
_TUPLE_FIELDS = _fields_of_type(tuple)


DESK_PRESET = dict(num_orus=25, antennas_per_oru=2, pilot_len=5, trials=50)


def desk_scale(config: ExperimentConfig | None = None, **overrides) -> ExperimentConfig:
    """Small preset (25 dual-antenna O-RUs, 5 pilots, 50 trials) that runs the
    whole pipeline in minutes on a laptop."""
    base = config if config is not None else ExperimentConfig()
    return replace(base, **{**DESK_PRESET, **overrides})


def trial_streams(config: ExperimentConfig, trial_index: int) -> dict:
    """All purpose streams for one trial, keyed by purpose. Each generator is
    a pure function of (master_seed, trial_index, purpose): its SeedSequence
    takes spawn key (trial_index, index of purpose in STREAM_PURPOSES), so
    parallel trials are bit-reproducible and independent of evaluation
    order."""
    return {purpose: np.random.default_rng(np.random.SeedSequence(
                entropy=config.master_seed, spawn_key=(trial_index, i)))
            for i, purpose in enumerate(STREAM_PURPOSES)}


@dataclass(frozen=True)
class Topology:
    """O-RU and UAV positions in meters, as (x, y, z) rows."""

    oru_positions: np.ndarray
    uav_positions: np.ndarray

    @property
    def num_orus(self) -> int:
        return self.oru_positions.shape[0]

    @property
    def num_uavs(self) -> int:
        return self.uav_positions.shape[0]


def build_topology(config: ExperimentConfig,
                   rng: np.random.Generator) -> Topology:
    """Drop O-RUs and UAVs uniformly over the coverage square, drawing from
    rng (a trial's "topology" stream); O-RUs sit at the configured mast
    height, UAV altitudes are uniform over their range."""
    side = config.area_side_m
    oru_xy = rng.uniform(0.0, side, size=(config.num_orus, 2))
    oru_z = np.full((config.num_orus, 1), config.oru_height_m)
    uav_xy = rng.uniform(0.0, side, size=(config.num_uavs, 2))
    lo, hi = config.uav_alt_range
    uav_z = rng.uniform(lo, hi, size=(config.num_uavs, 1))
    return Topology(oru_positions=np.hstack([oru_xy, oru_z]),
                    uav_positions=np.hstack([uav_xy, uav_z]))


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    if name in _TUPLE_FIELDS:
        parts = [p for p in re.split(r"[,\s]+", raw.strip("[]() ")) if p]
        if len(parts) != 2:
            raise ValueError(f"{name} expects two numbers, got {raw!r}")
        return (float(parts[0]), float(parts[1]))
    if name in _INT_FIELDS:
        return int(raw)
    return float(raw)


def load_config(path, **overrides) -> ExperimentConfig:
    """Read a flat key=value config file. Unknown keys are an error; unset
    keys keep their defaults. '#' starts a comment. Keyword overrides replace
    the file's values before the config is built, so the checks see the
    config that runs."""
    known = {f.name for f in fields(ExperimentConfig)}
    settings = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            settings[key] = _parse_value(key, value)
    return ExperimentConfig(**{**settings, **overrides})
