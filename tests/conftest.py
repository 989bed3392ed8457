import numpy as np
import pytest

from cfuav.receiver import SinrCoefficients
from cfuav.scenario import ExperimentConfig, desk_scale


def make_coefficients(rng, num_uavs, interference=0.3, self_term=0.05):
    """Random SINR coefficient instances with physically sensible structure:
    positive signal gains, non-negative coupling, strictly positive noise."""
    a = rng.uniform(0.5, 2.0, num_uavs)
    d = rng.uniform(0.0, self_term, num_uavs)
    b = interference * rng.uniform(0.0, 1.0, (num_uavs, num_uavs)) / num_uavs
    b *= a[:, None]
    np.fill_diagonal(b, 0.0)
    c = rng.uniform(0.05, 0.2, num_uavs)
    return SinrCoefficients(a=a, d=d, b=b, c=c, clamp_count=0)


@pytest.fixture
def coef_factory():
    return make_coefficients


@pytest.fixture
def tiny_config():
    """Very small end-to-end configuration for orchestrator/harness tests."""
    return desk_scale(ExperimentConfig(), num_orus=6, num_uavs=4,
                      pilot_len=3, n_channel_realizations=60, trials=2,
                      master_seed=42)
