"""Every metric the benchmark reports, with its unit and direction, and the
order statistics used to summarize samples."""

import math
import statistics

# name: (unit, better). End-to-end metrics come from untraced runs.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "trials_per_s": ("1/s", "higher"),
    "trial_s.p50": ("s", "lower"),
    "trial_s.tail": ("s", "lower"),
    "prepare_s.p50": ("s", "lower"),
    "pa_pp.runtime_s": ("s", "lower"),
    "pa_tp.runtime_s": ("s", "lower"),
    "non_ao.runtime_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "pa_pp.min_se": ("bit/s/Hz", "higher"),
    "pa_tp.min_se": ("bit/s/Hz", "higher"),
    "pa_pp.success_rate": ("%", "higher"),
    "pp_gap.p50": ("ratio", "lower"),
    "pp_gap.max": ("ratio", "lower"),
    "failed_ratio": ("ratio", "lower"),
}

# Per-layer metrics come from the traced run; "/trial" means a total per
# trial (per coefficient set on power-solve).
PER_LAYER = {
    "receiver.moments.s": ("s/trial", "lower"),
    "receiver.moments.calls": ("count/trial", "lower"),
    "receiver.moments.ao_calls": ("count/trial", "lower"),
    "receiver.moments.realizations": ("count/trial", "lower"),
    "receiver.moments.bytes_computed": ("bytes/trial", "lower"),
    "receiver.assemble.s": ("s/trial", "lower"),
    "receiver.assemble.calls": ("count/trial", "lower"),
    "propagation.draw_channels.s": ("s/trial", "lower"),
    "propagation.draw_channels.bytes_computed": ("bytes/trial", "lower"),
    "propagation.stats.s": ("s/trial", "lower"),
    "pilots.estimate.s": ("s/trial", "lower"),
    "powerctl.bg_fppc.s": ("s/trial", "lower"),
    "powerctl.bg_fppc.calls": ("count/trial", "lower"),
    "powerctl.reference.s": ("s/trial", "lower"),
    "powerctl.reference.calls": ("count/trial", "lower"),
    "powerctl.fp_iterations": ("count/trial", "lower"),
    "powerctl.bisect_iterations": ("count/trial", "lower"),
    "powerctl.fp_iters_per_probe": ("count", "lower"),
    "powerctl.probe_gap_max": ("ratio", "lower"),
    "association.propose.self_s": ("s/trial", "lower"),
    "association.propose.calls": ("count/trial", "lower"),
    "association.evaluate_se_per_propose": ("count", "lower"),
    "association.baseline.s": ("s/trial", "lower"),
    "orchestrator.ao_iterations": ("count", "lower"),
    "orchestrator.ao.self_s": ("s/trial", "lower"),
    "orchestrator.ao_tolerance_ratio": ("ratio", "higher"),
    "harness.prepare_trial.self_s": ("s/trial", "lower"),
    "trace.trial_s": ("s/trial", "lower"),
    "trace.layer_self_s": ("s/trial", "lower"),
    "trace.untraced_s": ("s/trial", "lower"),
    "trace.spans": ("count/trial", "lower"),
    "trace.overhead": ("ratio", "lower"),
}

# A tail percentile needs this many samples beyond it.
TAIL_BEYOND = 10
# and is reported only when it sits at or above the median.
TAIL_MIN_SAMPLES = 2 * TAIL_BEYOND


def tail(values):
    """(value, percentile, samples) of the highest percentile with at least
    TAIL_BEYOND samples beyond it, or None for too few samples."""
    n = len(values)
    if n < TAIL_MIN_SAMPLES:
        return None
    ordered = sorted(values)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n, n


def median(values) -> float:
    return statistics.median(values) if values else math.nan


def mean(values) -> float:
    return statistics.fmean(values) if values else math.nan


def entry(name: str, value, **extra) -> dict:
    unit, better = (END_TO_END.get(name) or PER_LAYER[name])
    return {"value": value, "unit": unit, "better": better, **extra}
