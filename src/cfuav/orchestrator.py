"""Benchmark schemes and the alternating association/power optimization loop.

Six schemes combine an association rule (BA: the two-stage baseline, PA:
QoS-aware stage 3 over that baseline, the start the trial holds) with a power
rule (FP: full power, as powerctl.full_power_result, the start both solvers
share; PP: the bisection-guided fixed-point solver; TP: the certified
Perron-Frobenius balance iteration). Every scheme runs the same loop of
rounds, each an association at the current powers followed by the power
rule. Alternating optimization (AO) runs that round up to i_max_ao times for
PA+PP and PA+TP; the other schemes run it once, from full power. A scheme
reads its trial and writes none of it, so its work does not depend on which
schemes ran before it."""

from dataclasses import dataclass, field

import numpy as np

# run_scheme reads TrialData.start; the benchmark's power-solve set-up and
# its tracer still reach the baseline through this module
from .association import baseline_association, propose_association
from .pilots import EstimationResult
from .powerctl import (bg_fppc, full_power, full_power_result,
                       reference_max_min)
from .receiver import (ChannelMoments, SeVector, assemble_coefficients,
                       channel_moments, cpu_weights, sinr,
                       spectral_efficiency)
from .scenario import ExperimentConfig

ASSOCIATION_RULES = ("BA", "PA")
POWER_RULES = ("FP", "PP", "TP")


@dataclass(frozen=True)
class SchemeId:
    association: str
    power: str

    def __post_init__(self):
        if self.association not in ASSOCIATION_RULES:
            raise ValueError(f"unknown association rule {self.association!r}")
        if self.power not in POWER_RULES:
            raise ValueError(f"unknown power rule {self.power!r}")

    @property
    def label(self) -> str:
        return f"{self.association}+{self.power}"

    @property
    def uses_ao(self) -> bool:
        return self.association == "PA" and self.power in ("PP", "TP")


ALL_SCHEMES = tuple(SchemeId(a, p) for a in ASSOCIATION_RULES for p in POWER_RULES)


def parse_scheme(label: str) -> SchemeId:
    parts = label.strip().upper().replace(" ", "").split("+")
    if len(parts) != 2:
        raise ValueError(f"scheme label must look like 'PA+PP', got {label!r}")
    return SchemeId(parts[0], parts[1])


@dataclass(frozen=True)
class TrialData:
    """Everything one trial's schemes share: large-scale state, the channel
    ensemble with its estimates, the baseline association that starts every
    scheme, and the full-power moments with its pairs filled, which every
    first round copies and whose f(h) every later round reads. Schemes read
    the trial and change none of it."""

    beta: np.ndarray
    h: np.ndarray
    est: EstimationResult
    sigma2: float
    start: np.ndarray
    moments_full: ChannelMoments
    channel_hash: str


def evaluate_association(moments: ChannelMoments, association: np.ndarray,
                         beta: np.ndarray, sigma2: float, p: np.ndarray,
                         config: ExperimentConfig):
    """Coefficients and the SE vector for one (association, power) pair."""
    coef = assemble_coefficients(moments, cpu_weights(association, beta), sigma2)
    gam = sinr(coef, p)
    return coef, spectral_efficiency(gam, config.pilot_len, config.coherence_len)


def _make_solver(power_rule: str, config: ExperimentConfig):
    floor = config.qos_sinr_floor
    if power_rule == "FP":
        return lambda coef: full_power_result(coef, config.p_max_w)
    if power_rule == "PP":
        return lambda coef: bg_fppc(coef, config.p_max_w,
                                    eps_bisect=config.eps_bisect,
                                    eps_fp=config.eps_fp,
                                    n_max_fp=config.n_max_fp,
                                    gamma_floor=floor)
    # "TP": SchemeId rejects every other rule
    return lambda coef: reference_max_min(coef, config.p_max_w,
                                          tol=config.eps_bisect,
                                          gamma_floor=floor)


@dataclass
class AoIteration:
    objective: float
    association: np.ndarray
    power: np.ndarray
    gamma_star: float
    se: SeVector


@dataclass
class AoTrace:
    iterations: list = field(default_factory=list)
    terminated_by: str = ""

    @property
    def count(self) -> int:
        return len(self.iterations)


@dataclass
class SchemeResult:
    association: np.ndarray
    power: np.ndarray
    se: SeVector
    trace: AoTrace
    gamma_star: float
    fp_iterations: int = 0


def run_scheme(scheme: SchemeId, trial: TrialData,
               config: ExperimentConfig) -> SchemeResult:
    """Evaluate one benchmark scheme on prepared trial data.

    A round associates at the current powers (BA keeps trial.start, PA
    refines it by stage 3) and applies the scheme's power rule to the
    coefficients of that association. The first round starts at full power
    and fills a copy of the trial's full-power moments; each later round
    builds the moments of its powers over the trial's f(h). PA+PP and PA+TP
    alternate rounds until the min-SE objective stalls or i_max_ao rounds
    have run; the other schemes run one round and return an empty trace.
    The association stage is a heuristic, so the objective is not
    guaranteed monotone across rounds; the best round seen is returned,
    which makes the returned objective non-decreasing in the round count.

    trial must come from harness.prepare_trial with the K and p_max_dbm of
    config: the first round takes trial.moments_full as the moments of
    full_power(K, config.p_max_w), and trial.start as the baseline
    association of config's pilot_len and n_top, and checks neither."""
    solve = _make_solver(scheme.power, config)
    p = full_power(trial.beta.shape[0], config.p_max_w)
    trace = AoTrace(terminated_by="max-iters")
    fp_total = 0
    prev_obj = None
    for i in range(config.i_max_ao if scheme.uses_ao else 1):
        moments = trial.moments_full.copy() if i == 0 else channel_moments(
            trial.h, trial.est, p, trial.sigma2, trial.moments_full.features)
        if scheme.association == "BA":
            a = trial.start
        else:
            a = propose_association(
                trial.start, trial.beta, config.pilot_len, config.se_min,
                evaluate_se=lambda a: evaluate_association(
                    moments, a, trial.beta, trial.sigma2, p, config)[1])
        coef = assemble_coefficients(moments, cpu_weights(a, trial.beta),
                                     trial.sigma2)
        res = solve(coef)
        p_new = res.p_star
        gam = sinr(coef, p_new)
        sev = spectral_efficiency(gam, config.pilot_len, config.coherence_len)
        obj = float(np.min(sev.se))
        trace.iterations.append(AoIteration(objective=obj, association=a,
                                            power=p_new.copy(),
                                            gamma_star=res.gamma_star, se=sev))
        fp_total += res.fp_iterations
        if prev_obj is not None and obj - prev_obj < config.eps_ao:
            trace.terminated_by = "tolerance"
            break
        prev_obj = obj
        p = p_new
    best = max(trace.iterations, key=lambda it: it.objective)
    return SchemeResult(association=best.association, power=best.power,
                        se=best.se,
                        trace=trace if scheme.uses_ao else AoTrace(),
                        gamma_star=best.gamma_star, fp_iterations=fp_total)
