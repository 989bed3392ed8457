"""Output checks. Each returns a list of problems; an empty list means the
result passed. A trial or coefficient set with any problem counts as failed."""

import numpy as np

from cfuav.association import AssociationInfeasibleError, validate_association
from cfuav.receiver import sinr

# sinr(coef, p_star) is recomputed in the same arithmetic the solvers use,
# so it matches the reported gamma* up to rounding.
ATTAIN_RTOL = 1e-12


def check_power(p, num_uavs: int, p_max: float) -> list:
    p = np.asarray(p, dtype=float)
    if p.shape != (num_uavs,):
        return [f"power vector has shape {p.shape}, expected ({num_uavs},)"]
    if not np.all((p >= 0.0) & (p <= p_max)):
        return ["powers outside [0, p_max]"]
    return []


def check_scheme(result, config) -> list:
    """Association, powers and SE of one SchemeResult."""
    k, l = config.num_uavs, config.num_orus
    problems = []
    a = np.asarray(result.association)
    if a.shape != (k, l):
        problems.append(f"association has shape {a.shape}, expected ({k}, {l})")
    else:
        try:
            validate_association(a, config.pilot_len)
        except (ValueError, AssociationInfeasibleError) as exc:
            problems.append(f"association: {exc}")
    problems += check_power(result.power, k, config.p_max_w)
    se = np.asarray(result.se.se, dtype=float)
    if se.shape != (k,) or not np.all(np.isfinite(se) & (se >= 0.0)):
        problems.append("SE not finite and non-negative for every UAV")
    return problems


def check_trial(config, records, results) -> list:
    """Every (trial, scheme) of one run_trial call."""
    problems = []
    if {r.scheme for r in records} != set(results):
        problems.append("records and scheme results name different schemes")
    if len({r.channel_hash for r in records}) != 1:
        problems.append("schemes of one trial report different channel_hash")
    for label, result in results.items():
        problems += [f"{label}: {p}" for p in check_scheme(result, config)]
    return problems


def check_solve(coef, p_max: float, result, gamma_full: float) -> list:
    """One max-min solve: powers in the box, gamma* no worse than full power,
    and the returned powers attain the reported gamma*."""
    problems = check_power(result.p_star, coef.num_uavs, p_max)
    if not result.gamma_star >= gamma_full:
        problems.append("gamma* below the full-power min SINR")
    if not problems:
        achieved = float(np.min(sinr(coef, result.p_star)))
        if not achieved >= result.gamma_star * (1.0 - ATTAIN_RTOL):
            problems.append(f"p_star attains min SINR {achieved:.9g}, "
                            f"reported gamma* {result.gamma_star:.9g}")
    return problems
